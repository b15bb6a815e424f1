"""Two routes to the same number: the dual closed form and bisection.

For the gain-loss ratio the induced risk is coherent, and the dual set at
level z is cut out by the ratio constraints q_i/p_i <= (1+z) q_j/p_j inside
each atom.  The supremum of E^Q[-X] over that set has a closed form: the best
density takes two values with ratio 1+z, the high one on the largest losses,
so one sort per atom finds it.  Bisection on the measure is the independent
route that checks it here; the test suite also checks it against a linear
program over the polytope.  Sampled densities (vertices picked by that linear
program) and the penalty bound probe the polytope further.
"""
import numpy as np

from perflat import (GainLossRatio, XVar, binomial_tree, coin2,
                     check_penalty_inequality_coherent, glr_dual_risk,
                     induce_risk, penalty_lower_bound, sample_glr_density,
                     weak_duality_probe)

# -- the textbook instance ------------------------------------------------------
space = coin2()
x = XVar(space, [1.0, -1.0])
dual = glr_dual_risk(0, 1.0, x).values.values[0]
bi = induce_risk(GainLossRatio(), 0, 1.0, x).values.values[0]
print(f"X = (1, -1), z = 1: closed form {dual:.12f}, bisection {bi:.12f}")

# -- random agreement -------------------------------------------------------------
tree = binomial_tree(2)
rng = np.random.default_rng(11)
worst = 0.0
for k in range(60):
    x = XVar(tree, rng.uniform(-4, 4, tree.n_leaves))
    z = float(rng.choice([0.5, 1.0, 2.0, 5.0]))
    t = int(rng.integers(0, 3))
    a = glr_dual_risk(t, z, x).values.values
    b = induce_risk(GainLossRatio(), t, z, x).values.values
    worst = max(worst, float(np.max(np.abs(a - b))))
print(f"60 random draws: worst |closed form - bisection| = {worst:.3e}")

# -- densities from the dual set ---------------------------------------------------
q = sample_glr_density(tree, 1, 2.0, rng)
print("\nsampled stage-1 vertex density in the z=2 set:", np.round(q.density, 5))

# the penalty of q is a supremum over claims; probes bound it from below, and
# weak duality then caps E^Q[-X] - rho(X) by that bound
x = XVar(tree, [2.0, -1.0, 4.0, -2.0])
probes = [XVar(tree, rng.uniform(-4, 4, tree.n_leaves)) for _ in range(40)]
bound = penalty_lower_bound(GainLossRatio(), 1, 2.0, q, probes)
print("penalty lower bound from 40 probes:", np.round(bound, 6))

rep = weak_duality_probe(GainLossRatio(), 1, 2.0, x, q, probes)
print("weak duality at this weighting:",
      "holds" if rep.passed else "violated")

# -- nesting of the dual sets across stages -----------------------------------------
rep = check_penalty_inequality_coherent(space=tree, z=2.0, s=0, t=1,
                                        rng_seed=9, n_random=12)
for line in rep.summary_lines():
    print(line)
