"""Placeholder for a retired module: perflat has no LP solver.

The gain-loss dual is a closed form (``risk_family.glr_dual_risk``) and its polytope
vertices come from one sort (``risk_family.sample_glr_density``); the test suite
checks both against scipy's HiGHS.
"""


def solve_lp(*args, **kwargs):
    """Raise NotImplementedError.

    Nothing in perflat calls it.  The module stays only because
    ``benchmarks/tracer.py`` looks ``perflat.simplex.solve_lp`` up by name when it
    installs its hooks, and its ``--trace 1`` run raises KeyError without it.
    """
    raise NotImplementedError("perflat has no LP solver; use scipy.optimize.linprog")
