import hashlib
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perflat import (INF, EventMask, FilteredSpace, TVar, XVar, atom_expect,
                     binomial_tree, close_or_both_inf, coin2, cond_expect,
                     dump_json, ess_inf, ess_sup, ext_add, ext_mul, ext_sub,
                     num_from_json, num_to_json, paste, random_tree,
                     sample_xvar)


# ---------------------------------------------------------------------------
# space invariants


def _tree_dict():
    return binomial_tree(2).to_json()


def test_space_rejects_bad_probability_mass():
    d = _tree_dict()
    d["leaves"][0]["p"] = 0.4
    with pytest.raises(ValueError, match="sum to"):
        FilteredSpace.from_json(d)


def test_space_rejects_nonpositive_probability():
    d = _tree_dict()
    d["leaves"][0]["p"] = 0.0
    d["leaves"][1]["p"] = 0.5
    with pytest.raises(ValueError, match="positive"):
        FilteredSpace.from_json(d)


def test_space_rejects_non_refining_partition():
    d = _tree_dict()
    # stage-1 blocks cut across the stage-2 ones
    d["atoms"]["1"] = [["uu", "du"], ["ud", "dd"]]
    d["atoms"]["2"] = [["uu", "ud"], ["du"], ["dd"]]
    with pytest.raises(ValueError):
        FilteredSpace.from_json(d)


def test_space_rejects_nontrivial_start():
    d = _tree_dict()
    d["atoms"]["0"] = [["uu", "ud"], ["du", "dd"]]
    with pytest.raises(ValueError):
        FilteredSpace.from_json(d)


def test_space_rejects_coarse_terminal_stage():
    d = _tree_dict()
    d["atoms"]["2"] = [["uu", "ud"], ["du"], ["dd"]]
    with pytest.raises(ValueError):
        FilteredSpace.from_json(d)


def _tree3_args():
    """binomial_tree(3) as constructor arguments: times, ids, probs, atoms."""
    return ([0, 1, 2, 3], ["uuu", "uud", "udu", "udd", "duu", "dud", "ddu", "ddd"],
            [0.125] * 8,
            [[list(range(8))], [[0, 1, 2, 3], [4, 5, 6, 7]],
             [[0, 1], [2, 3], [4, 5], [6, 7]], [[i] for i in range(8)]])


def _edit_atoms(t, atoms):
    def edit(args):
        args[3][t] = atoms
    return edit


def _edit(pos, value):
    def edit(args):
        args[pos] = value
    return edit


@pytest.mark.parametrize("edit, message", [
    (_edit_atoms(1, [[0, 1, 2, 3], [3, 4, 5, 6, 7]]),
     "stage 1 atoms are not a partition of the leaves"),  # a leaf in two atoms
    (_edit_atoms(1, [[0, 1, 2, 3], [4, 5, 6]]),
     "stage 1 atoms are not a partition of the leaves"),  # a missing leaf
    (_edit_atoms(1, [[0, 1, 2, 3], [4, 5, 6, 7, 8]]),
     "stage 1 atoms are not a partition of the leaves"),  # an out-of-range index
    (_edit_atoms(1, [[0, 1, 2, -1], [4, 5, 6, 7]]),
     "stage 1 atoms are not a partition of the leaves"),  # -1 must not wrap to 7
    (_edit_atoms(1, [[0, 1, 2, 3, 4], [5, 6, 8]]),
     "stage 1 atoms are not a partition of the leaves"),  # 8 in place of 7
    (_edit_atoms(1, [[0, 1, 2, 3], [], [4, 5, 6, 7]]),
     "stage 1 has an empty atom"),
    (_edit_atoms(2, [[0, 1], [2, 4], [3, 5], [6, 7]]),
     "stage 2 does not refine stage 1"),
    (_edit_atoms(0, [[0, 1, 2, 3], [4, 5, 6, 7]]),
     "time-0 partition must be trivial"),
    (_edit_atoms(3, [[0, 1]] + [[i] for i in range(2, 8)]),
     "terminal partition must consist of singletons"),
    (_edit(0, [0, 1, 3, 4]), "times must be 0..T with T >= 1"),
    (_edit(0, [0, 1, 2]), "need one partition per stage"),
    (_edit(1, ["a"] * 8), "duplicate leaf ids"),
    (_edit(2, [0.25] * 4), "probs shape mismatch"),
], ids=["leaf_in_two_atoms", "missing_leaf", "index_out_of_range", "negative_index",
        "index_past_the_end", "empty_atom",
        "not_refining", "nontrivial_start", "coarse_terminal", "bad_times",
        "partition_count", "duplicate_ids", "probs_shape"])
def test_space_constructor_rejections(edit, message):
    args = list(_tree3_args())
    FilteredSpace(*args)
    edit(args)
    with pytest.raises(ValueError, match=re.escape(message)):
        FilteredSpace(*args)


@pytest.mark.parametrize("stage, message", [
    ([0, 0, 0, 0, 2, 2, 2, 2], "stage 1 has an empty atom"),  # a gap in the ordinals
    ([0, 0, 0, 0, 1, 1, 1, 9], "stage 1 has an empty atom"),  # ordinals 2..8 unused
    ([0, 0, 0, 0, 1, 1, 1], "stage 1 atoms are not a partition of the leaves"),
    ([0, 0, 0, 0, 1, 1, 1, 1, 1], "stage 1 atoms are not a partition of the leaves"),
    ([0, 0, 0, 0, 1, 1, 1, -1], "stage 1 atoms are not a partition of the leaves"),
], ids=["gap", "ordinal_past_the_leaves", "short", "long", "negative"])
def test_integer_array_stage_rejections(stage, message):
    args = list(_tree3_args())
    args[3][1] = np.array([0, 0, 0, 0, 1, 1, 1, 1])
    FilteredSpace(*args)
    args[3][1] = np.array(stage)
    with pytest.raises(ValueError, match=re.escape(message)):
        FilteredSpace(*args)


def test_integer_array_stages_match_leaf_groups():
    args = list(_tree3_args())
    groups = FilteredSpace(*args)
    args[3] = [np.arange(8, dtype=dtype) >> (3 - t)
               for t, dtype in zip(range(4), (np.int64, np.int32, np.uint8, np.intp))]
    arrays = FilteredSpace(*args)
    assert arrays.same_structure(groups)
    assert arrays.atoms == groups.atoms
    for t in groups.times:
        assert arrays.atom_index[t].dtype == np.intp
        for name in ("atom_index", "atom_size", "atom_first", "atom_mass"):
            assert getattr(arrays, name)[t].tobytes() == getattr(groups, name)[t].tobytes()
    stage = np.arange(8) >> 1
    space = FilteredSpace(args[0], args[1], args[2], args[3][:2] + [stage, args[3][3]])
    stage[:] = 0  # the space keeps its own copy
    assert space.n_atoms(2) == 4


def test_leaf_groups_of_any_iterable_and_order_give_the_same_atoms():
    args = list(_tree3_args())
    want = FilteredSpace(*args).atoms
    assert want[2] == ((0, 1), (2, 3), (4, 5), (6, 7))
    args[3][1] = [range(4), range(4, 8)]
    args[3][2] = [(1, 0), np.array([3, 2]), [5, 4], iter([7, 6])]
    args[3][3] = [np.array([i], dtype=np.int32) for i in range(8)]
    got = FilteredSpace(*args)
    assert got.atoms == want
    assert all(type(i) is int for stage in got.atoms for a in stage for i in a)


def test_atom_ordinals_follow_the_group_order():
    args = list(_tree3_args())
    args[3][2] = [[6, 7], [2, 3], [4, 5], [0, 1]]
    space = FilteredSpace(*args)
    assert space.atoms[2] == ((6, 7), (2, 3), (4, 5), (0, 1))
    assert space.atom_index[2].tolist() == [3, 3, 1, 1, 2, 2, 0, 0]
    assert space.atom_first[2].tolist() == [6, 2, 4, 0]
    assert [space.atom_id(2, k) for k in range(4)] == ["ddu", "udu", "duu", "uuu"]
    assert space.atom_index[1][space.atom_first[2]].tolist() == [1, 0, 1, 0]
    assert space.subatoms(1, 2, 0) == [1, 3]
    assert space.subatoms(0, 2, 0) == [0, 1, 2, 3]


def test_same_structure_compares_atoms_in_order_and_probabilities():
    space = binomial_tree(3)
    assert FilteredSpace.from_json(space.to_json()).same_structure(space)
    swapped = space.to_json()
    a = swapped["atoms"]["2"]
    a[0], a[1] = a[1], a[0]
    swapped = FilteredSpace.from_json(swapped)
    assert swapped.atoms[2] != space.atoms[2]
    assert not swapped.same_structure(space)
    moved = space.to_json()
    moved["leaves"][0]["p"] = 0.125 + 2 ** -40
    moved["leaves"][1]["p"] = 0.125 - 2 ** -40
    assert not FilteredSpace.from_json(moved).same_structure(space)
    ids = list(space.leaf_ids)
    ids[5] = "xyz"
    renamed = FilteredSpace(space.times, ids, space.probs, space.atom_index)
    assert FilteredSpace(space.times, space.leaf_ids, space.probs,
                         space.atom_index).same_structure(space)
    assert not renamed.same_structure(space) and not space.same_structure(renamed)


def test_wide_calls_read_the_index_arrays_not_the_atom_tuples(monkeypatch):
    from perflat import (ExponentialUtilityMeasure, GainLossRatio,
                         entropic_closed_form, evaluate, induce_risk, lpm_ratio)
    space = binomial_tree(12)
    x = XVar(space, np.random.default_rng(5).uniform(-4.0, 4.0, space.n_leaves))
    monkeypatch.setattr(FilteredSpace, "atoms", property(
        lambda self: pytest.fail("the atom tuples were built")))
    for t in (0, 6, 11):
        for m in (GainLossRatio(), lpm_ratio(2.0), ExponentialUtilityMeasure(1.0)):
            evaluate(m, t, x)
            induce_risk(m, t, 0.5, x)
        entropic_closed_form(1.0, t, 0.5, x)


def _binomial_by_paths(steps, p):
    """binomial_tree by brute force: each leaf probability is the product of its moves
    taken in order, and a stage-t atom holds the leaves that share a t-move prefix."""
    ids = ["".join("ud"[(i >> (steps - 1 - b)) & 1] for b in range(steps))
           for i in range(2 ** steps)]
    probs = []
    for s in ids:
        q = 1.0
        for ch in s:
            q *= p if ch == "u" else (1.0 - p)
        probs.append(q)
    atoms = []
    for t in range(steps + 1):
        groups = {}
        for i, s in enumerate(ids):
            groups.setdefault(s[:t], []).append(i)
        atoms.append(tuple(tuple(a) for a in groups.values()))
    return ids, probs, atoms


# sha256 over to_json and the atom_mass bytes of every tree below
BINOMIAL_DIGEST = "d36495a3de4b5d3aaa992960b9bcb8db6903ad85421e63dbf0d0f9ae9245938c"


def test_binomial_tree_is_pinned():
    h = hashlib.sha256()
    for steps in range(1, 13):
        for p in (0.5, 0.3, 0.61):
            space = binomial_tree(steps, p)
            ids, probs, atoms = _binomial_by_paths(steps, p)
            assert space.leaf_ids == tuple(ids)
            assert space.probs.tolist() == probs  # bit for bit
            assert space.atoms == tuple(atoms)
            for t, stage_atoms in enumerate(atoms):
                index = np.empty(len(ids), dtype=np.intp)
                for k, a in enumerate(stage_atoms):
                    index[list(a)] = k
                assert np.array_equal(space.atom_index[t], index)
                mass = np.bincount(index, weights=np.array(probs))
                assert space.atom_mass[t].tobytes() == mass.tobytes()
            h.update(dump_json(space.to_json()).encode())
            for m in space.atom_mass:
                h.update(m.tobytes())
    assert h.hexdigest() == BINOMIAL_DIGEST


def test_space_json_round_trip():
    space = binomial_tree(3)
    back = FilteredSpace.from_json(space.to_json())
    assert back.same_structure(space)
    assert np.array_equal(back.probs, space.probs)
    assert back.leaf_ids == space.leaf_ids
    # the embedded name survives and beats the fallback argument
    assert back.name == space.name
    assert FilteredSpace.from_json(space.to_json(), name="other").name == space.name


def test_atom_bookkeeping(tree2):
    t_last = tree2.horizon
    for pos, leaf in enumerate(tree2.leaf_ids):
        assert tree2.leaf_pos(leaf) == pos
        k = tree2.atom_of_leaf(t_last, pos)
        assert tree2.atom_index[t_last][pos] == k
        assert tree2.atom_by_id(t_last, leaf) == k
    # every stage-2 atom sits inside its stage-1 parent
    for k in range(tree2.n_atoms(2)):
        parent = tree2.atom_index[1][tree2.atom_first[2][k]]
        assert k in tree2.subatoms(1, 2, parent)


def test_atom_mass_matches_probs(tree3):
    for t in tree3.times:
        sums = np.bincount(tree3.atom_index[t], weights=tree3.probs,
                           minlength=tree3.n_atoms(t))
        assert np.allclose(tree3.atom_mass[t], sums)


@given(seed=st.integers(0, 200))
@settings(max_examples=40, deadline=None)
def test_random_tree_is_a_valid_space(seed):
    space = random_tree(np.random.default_rng(seed))
    # constructor validation already ran; spot-check refinement by hand
    for s, t in zip(space.times[:-1], space.times[1:]):
        coarse = space.atom_index[s]
        fine = space.atom_index[t]
        for k in range(space.n_atoms(t)):
            parents = np.unique(coarse[fine == k])
            assert parents.size == 1


# ---------------------------------------------------------------------------
# extended arithmetic


def test_ext_conventions():
    assert ext_sub(np.array([INF]), np.array([INF]))[0] == 0.0
    assert ext_add(np.array([INF]), np.array([-3.0]))[0] == INF
    assert ext_mul(np.array([0.0]), np.array([INF]))[0] == 0.0
    assert ext_mul(np.array([2.0]), np.array([INF]))[0] == INF


def test_close_or_both_inf():
    a = np.array([1.0, INF, INF, 2.0])
    b = np.array([1.0 + 1e-12, INF, 5.0, -2.0])
    got = close_or_both_inf(a, b, 1e-9)
    assert got.tolist() == [True, True, False, False]


# ---------------------------------------------------------------------------
# random variables


def test_xvar_rejects_minus_inf(space2):
    with pytest.raises(ValueError):
        XVar(space2, [-INF, 1.0])
    x = XVar(space2, [INF, 1.0])  # +inf is a legal payoff
    assert x.finite_max() == 1.0


@pytest.mark.parametrize("make, message", [
    (lambda s: XVar(s, [math.nan, 1.0]), "nan values are not allowed"),
    (lambda s: XVar(s, [1.0, -INF]), "-inf is not allowed in a terminal variable"),
    (lambda s: XVar(s, [-INF, math.nan]), "nan values are not allowed"),
    (lambda s: TVar(s, 1, [0.0, -INF], kind="bb"),
     "-inf not allowed in a bounded-below stage variable"),
    (lambda s: TVar(s, 1, [INF, 0.0], kind="ba"),
     "+inf not allowed in a bounded-above stage variable"),
    (lambda s: TVar(s, 1, [-INF, math.nan], kind="bb"), "nan values are not allowed"),
    (lambda s: TVar(s, 1, [math.nan, INF], kind="ba"), "nan values are not allowed"),
    (lambda s: TVar(s, 1, [INF, math.nan], kind=None), "nan values are not allowed"),
], ids=["xvar-nan", "xvar-minus-inf", "xvar-nan-and-minus-inf", "bb-minus-inf",
        "ba-plus-inf", "bb-nan-and-minus-inf", "ba-nan-and-plus-inf", "free-nan"])
def test_constructors_reject_each_bad_value_with_its_message(space2, make, message):
    # the one-reduction screen must leave each rejection and its message as it was
    with pytest.raises(ValueError, match=re.escape(message)):
        make(space2)


def test_constructors_keep_the_values_they_accept(space2):
    assert XVar(space2, [INF, 0.0]).values.tolist() == [INF, 0.0]
    assert TVar(space2, 1, [INF, 0.0], kind="bb").values.tolist() == [INF, 0.0]
    assert TVar(space2, 1, [-INF, 0.0], kind="ba").values.tolist() == [-INF, 0.0]
    assert TVar(space2, 1, [-INF, INF], kind=None).values.tolist() == [-INF, INF]


def test_xvar_arithmetic(space2):
    x = XVar(space2, [3.0, -1.0])
    y = x + 1.0
    assert y.values.tolist() == [4.0, 0.0]
    assert (x - 2.0).values.tolist() == [1.0, -3.0]
    assert x.truncate(2.0).values.tolist() == [2.0, -1.0]


def test_xvar_scaling_negation_and_stage_differences(space2, tree2):
    x = XVar(space2, [3.0, -1.0])
    assert (x * 2.0).values.tolist() == (2.0 * x).values.tolist() == [6.0, -2.0]
    assert (-x).values.tolist() == [-3.0, 1.0]
    top = XVar(space2, [INF, 1.0])
    assert (top * 0.5).values.tolist() == [INF, 0.5]
    for negative in (lambda: top * -2.0, lambda: -2.0 * top, lambda: -top):
        with pytest.raises(ValueError, match="negative scaling of \\+inf"):
            negative()
    eta, y = TVar(tree2, 1, [5.0, -2.0]), XVar(tree2, [1.0, 2.0, 3.0, -1.0])
    assert isinstance(y - eta, XVar) and isinstance(eta - y, XVar)
    assert (y - eta).values.tolist() == [-4.0, -3.0, 5.0, 1.0]
    assert (eta - y).values.tolist() == [4.0, 3.0, -5.0, -1.0]


def test_stage_variable_arithmetic(tree2):
    a, b = TVar(tree2, 1, [5.0, -2.0]), TVar(tree2, 1, [1.0, INF])
    for got, want in ((a + b, [6.0, INF]), (a - b, [4.0, -INF]), (a + 1.0, [6.0, -1.0]),
                      (a - 1.0, [4.0, -3.0]), (-a, [-5.0, 2.0])):
        assert (got.stage, got.kind, got.values.tolist()) == (1, None, want)
    c = TVar(tree2, 1, np.full(2, 2.5))
    assert (c.stage, c.kind, c.values.tolist()) == (1, "bb", [2.5, 2.5])
    assert TVar(tree2, 0, np.full(1, -INF), kind="ba").values.tolist() == [-INF]
    later, elsewhere = TVar(tree2, 2, np.full(4, 0.0)), TVar(
        binomial_tree(2, p=0.3), 1, np.full(2, 0.0))
    for op in (lambda u, v: u + v, lambda u, v: u - v):
        with pytest.raises(ValueError, match="stage mismatch"):
            op(a, later)
        with pytest.raises(ValueError, match="different spaces"):
            op(a, elsewhere)


@pytest.mark.parametrize("bad", [-INF, math.nan])
def test_xvar_scalar_addition_rejects_minus_inf_and_nan(space2, bad):
    x = XVar(space2, [3.0, -1.0])
    with pytest.raises(ValueError):
        x + bad
    with pytest.raises(ValueError):
        bad + x


def test_xvar_scalar_addition_allows_plus_inf(space2):
    x = XVar(space2, [INF, -1.0])
    assert (x + INF).values.tolist() == [INF, INF]
    assert (INF + x).values.tolist() == [INF, INF]


def test_xvar_plus_stage_variable_rejects_minus_inf(space2, tree2):
    # risk values (kind "ba") may hold -inf; adding one back must not leave a claim
    # unbounded below
    with pytest.raises(ValueError, match="bounded below"):
        XVar(space2, [1.0, -1.0]) + TVar(space2, 0, [-INF], kind="ba")
    with pytest.raises(ValueError, match="bounded below"):
        XVar.constant(tree2, 0.0) + TVar(tree2, 1, [2.0, -INF], kind="ba")
    x = XVar(space2, [INF, -1.0]) + TVar(space2, 0, [2.0], kind="ba")
    assert x.values.tolist() == [INF, 1.0]


def test_stage_variable_plus_claim(space2, tree2):
    xi, x = TVar(space2, 0, [1.0]), XVar(space2, [1.0, 2.0])
    assert isinstance(xi + x, XVar)
    assert (xi + x).values.tolist() == (x + xi).values.tolist() == [2.0, 3.0]
    assert isinstance(xi - x, XVar)
    assert (xi - x).values.tolist() == [0.0, -1.0]
    eta = TVar(tree2, 1, [5.0, -2.0])
    y = XVar(tree2, [1.0, INF, 3.0, -1.0])
    assert (eta + y).values.tolist() == [6.0, INF, 1.0, -3.0]
    with pytest.raises(ValueError, match="bounded below"):
        eta - y  # 5 - inf
    with pytest.raises(ValueError, match="bounded below"):
        TVar(space2, 0, [-INF], kind="ba") + x
    with pytest.raises(ValueError, match="bounded below"):
        TVar(space2, 0, [-INF], kind="ba") - x


def test_tvar_kinds(space2):
    with pytest.raises(ValueError):
        TVar(space2, 0, [-INF], kind="bb")
    with pytest.raises(ValueError):
        TVar(space2, 0, [INF], kind="ba")
    TVar(space2, 0, [-INF], kind="ba")
    TVar(space2, 0, [INF], kind="bb")


def test_tvar_promote(tree2):
    xi = TVar(tree2, 1, [5.0, -2.0])
    assert xi.promote().values.tolist() == [5.0, 5.0, -2.0, -2.0]


def test_paste_is_local(tree2, rng):
    x1 = sample_xvar(tree2, rng)
    x2 = sample_xvar(tree2, rng)
    b = EventMask.of_atoms(tree2, 1, [0])
    on = b.leaf_values()
    z = paste(x1, x2, b)
    assert np.array_equal(z.values[on], x1.values[on])
    assert np.array_equal(z.values[~on], x2.values[~on])


# ---------------------------------------------------------------------------
# conditional expectation


@given(seed=st.integers(0, 500))
@settings(max_examples=50, deadline=None)
def test_tower_property(seed):
    space = binomial_tree(2)
    x = XVar(space, np.random.default_rng(seed).uniform(-4, 4, space.n_leaves))
    outer = cond_expect(cond_expect(x, 1).promote(), 0)
    direct = cond_expect(x, 0)
    assert np.allclose(outer.values, direct.values)


def test_atom_expect_uniform(tree2):
    vals = np.array([1.0, 2.0, 3.0, 4.0])
    assert np.allclose(atom_expect(tree2, 1, vals), [1.5, 3.5])


def test_ess_bounds(tree2):
    x = XVar(tree2, [1.0, -2.0, 3.0, 0.5])
    assert ess_inf(x, 1).values.tolist() == [-2.0, 0.5]
    assert ess_sup(x, 1).values.tolist() == [1.0, 3.0]


# ---------------------------------------------------------------------------
# serialization


def test_num_json_conventions():
    assert num_to_json(INF) == "inf"
    assert num_to_json(-INF) == "-inf"
    assert num_to_json(1.5) == 1.5
    with pytest.raises(ValueError):
        num_to_json(float("nan"))
    assert num_from_json("inf") == INF
    assert num_from_json("-inf") == -INF


def test_xvar_json_round_trip(space2):
    x = XVar(space2, [INF, -1.25])
    back = XVar.from_json(x.to_json(), space2)
    assert np.array_equal(back.values, x.values)


def test_dump_json_is_deterministic(tmp_path):
    obj = {"b": 1.0, "a": [num_to_json(INF), 2.0]}
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    dump_json(obj, p1)
    dump_json(obj, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert json.loads(p1.read_text())["a"][0] == "inf"
    with pytest.raises(ValueError):
        dump_json({"raw": INF})  # infinities must be encoded first


# ---------------------------------------------------------------------------
# samplers


def _draws_like(sample, raw_calls, seed):
    """sample's and raw_calls' results from two generators seeded alike, after
    checking that both leave theirs in the same state: the sampler draws exactly the
    raw calls."""
    a, b = np.random.default_rng(seed), np.random.default_rng(seed)
    got, want = sample(a), raw_calls(b)
    assert a.bit_generator.state == b.bit_generator.state
    return got, want


def test_each_sampler_draws_the_raw_calls_it_names():
    tree = binomial_tree(3)
    n_leaves = tree.n_leaves

    def leaf_calls(rng):
        v = rng.uniform(-4.0, 4.0, size=n_leaves)
        return np.where(rng.random(n_leaves) < 0.3, INF, v)

    legs = []
    for seed in range(5):
        x, want = _draws_like(lambda rng: sample_xvar(tree, rng, inf_prob=0.3),
                              leaf_calls, seed)
        assert np.array_equal(x.values, want)
        legs.append(np.isposinf(want).any())
        x, want = _draws_like(lambda rng: sample_xvar(tree, rng),
                              lambda rng: rng.uniform(-4.0, 4.0, size=n_leaves), seed)
        assert np.array_equal(x.values, want)
    assert any(legs)  # +inf legs at inf_prob=0.3
