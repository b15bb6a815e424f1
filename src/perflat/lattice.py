"""Finite filtered probability spaces (scenario trees) and the random variables on them.

A space is a finite set of terminal leaves with strictly positive probabilities and a
chain of partitions, one per stage, refining from the trivial partition at time 0 down
to singletons at the terminal date.  Terminal variables (XVar) are leafwise, stage
variables (TVar) are constant on the atoms of their stage.

Extended reals follow the conventions inf - inf = 0, c + inf = inf, 0 * inf = 0.
XVar forbids -inf (bounded below); risk values may carry -inf and use the BA kind.
"""

from __future__ import annotations

import itertools
import json
import math
from typing import Iterable, Mapping

import numpy as np

PROB_TOL = 1e-12
DEFAULT_TOL = 1e-9

INF = math.inf


# ---------------------------------------------------------------------------
# extended-real arithmetic


def ext_add(a, b):
    """Sum with inf - inf = 0 (IEEE would give nan)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    with np.errstate(invalid="ignore"):
        out = a + b
    conflict = np.isinf(a) & np.isinf(b) & (np.sign(a) != np.sign(b))
    out = np.where(conflict, 0.0, out)
    return out if out.ndim else float(out)


def ext_sub(a, b):
    return ext_add(a, np.negative(np.asarray(b, dtype=float)))


def ext_mul(a, b):
    """Product with 0 * inf = 0."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    with np.errstate(invalid="ignore"):
        out = a * b
    zero_inf = ((a == 0.0) & np.isinf(b)) | ((b == 0.0) & np.isinf(a))
    out = np.where(zero_inf, 0.0, out)
    return out if out.ndim else float(out)


def ext_gap(a, b) -> np.ndarray:
    """Elementwise |a - b|, 0 where a equals b (equal infinities included)."""
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    return np.abs(np.subtract(a, b, out=np.zeros(a.shape), where=a != b))


def close_or_both_inf(a, b, tol=DEFAULT_TOL):
    """Elementwise |a - b| <= tol, with equal infinities compared symbolically."""
    return ext_gap(a, b) <= tol


# ---------------------------------------------------------------------------
# JSON number helpers: full double precision, infinities as strings


def num_to_json(v: float):
    v = float(v)
    if math.isinf(v):
        return "inf" if v > 0 else "-inf"
    if math.isnan(v):
        raise ValueError("nan is not serializable")
    return v


def jsonable(obj):
    """Encode numbers recursively, infinities as strings and numpy values as Python
    ones, so any artifact or witness survives serialization."""
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return num_to_json(float(obj))
    return obj


def num_from_json(v) -> float:
    if isinstance(v, str):
        s = v.strip().lower()
        if s in ("inf", "+inf", "infinity"):
            return INF
        if s == "-inf" or s == "-infinity":
            return -INF
        return float(v)
    return float(v)


def dump_json(obj, path=None) -> str:
    text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    return text


# ---------------------------------------------------------------------------
# the space


def _stage_index(t: int, stage, n: int) -> tuple:
    """Stage t's leaf -> atom ordinals over n leaves, and its atom count.

    An integer array is taken as is; leaf groups become an ordinal list by list work,
    which costs less than array calls on small spaces.  Raises unless every leaf gets
    one ordinal and every ordinal below the count gets a leaf.
    """
    if isinstance(stage, np.ndarray) and stage.ndim == 1 and stage.dtype.kind in "iu":
        idx = stage.astype(np.intp, copy=False)
        if idx.shape != (n,) or idx.min() < 0:
            raise ValueError(f"stage {t} atoms are not a partition of the leaves")
        n_atoms = int(idx.max()) + 1
        # n leaves fill at most n atoms, so a larger count leaves a gap
        if n_atoms > n or not np.bincount(idx, minlength=n_atoms).all():
            raise ValueError(f"stage {t} has an empty atom")
        return idx, n_atoms
    groups = [list(map(int, a)) for a in stage]
    if sorted([i for a in groups for i in a]) != list(range(n)):
        raise ValueError(f"stage {t} atoms are not a partition of the leaves")
    if not all(groups):
        raise ValueError(f"stage {t} has an empty atom")
    index = [0] * n
    for k, a in enumerate(groups):
        for i in a:
            index[i] = k
    return index, len(groups)


class FilteredSpace:
    """Scenario tree: leaves with probabilities plus one partition per stage.

    A stage's partition is stored as ``atom_index[t]``, which maps each leaf to the
    ordinal of its stage-t atom, beside each atom's leaf count ``atom_size[t]``, first
    leaf ``atom_first[t]`` and probability ``atom_mass[t]``.  ``atoms[t]``, the atoms as
    sorted tuples of leaf indexes, is built on first use.  A stage is given either as
    an integer array of atom ordinals, one per leaf, or as leaf groups, atom k being the
    k-th group.  Construction validates: strictly positive probabilities summing to
    one, partitions refining in time, trivial partition at time 0, singletons at the
    terminal date.
    """

    __slots__ = ("name", "times", "leaf_ids", "probs", "atom_index", "atom_size",
                 "atom_first", "atom_mass", "_atoms", "_leaf_pos")

    def __init__(self, times: Iterable[int], leaf_ids: Iterable[str],
                 probs: Iterable[float], atoms_by_stage: Iterable,
                 name: str | None = None):
        self.name = name
        self.times = tuple(int(t) for t in times)
        if list(self.times) != list(range(len(self.times))) or len(self.times) < 2:
            raise ValueError("times must be 0..T with T >= 1")
        self.leaf_ids = tuple(str(s) for s in leaf_ids)
        if len(set(self.leaf_ids)) != len(self.leaf_ids):
            raise ValueError("duplicate leaf ids")
        p = np.array(probs if isinstance(probs, np.ndarray) else list(probs), dtype=float)
        if p.shape != (len(self.leaf_ids),):
            raise ValueError("probs shape mismatch")
        if not np.all(p > 0.0):
            raise ValueError("leaf probabilities must be strictly positive")
        if abs(p.sum() - 1.0) > PROB_TOL:
            raise ValueError(f"leaf probabilities sum to {float(p.sum())!r}, not 1")
        p.setflags(write=False)
        self.probs = p
        self._atoms = self._leaf_pos = None

        n = len(self.leaf_ids)
        index, counts = [], []
        for t, stage in enumerate(atoms_by_stage):
            idx, n_atoms = _stage_index(t, stage, n)
            index.append(idx)
            counts.append(n_atoms)
        if len(index) != len(self.times):
            raise ValueError("need one partition per stage")
        if counts[0] != 1:
            raise ValueError("time-0 partition must be trivial (single root atom)")
        if counts[-1] != n:
            raise ValueError("terminal partition must consist of singletons")
        leaves, stages = np.arange(n), []
        for t, idx in enumerate(index):
            idx = index[t] = np.array(idx, dtype=np.intp)  # the space's own copy
            first = np.full(counts[t], n)
            np.minimum.at(first, idx, leaves)
            # refinement: each stage-t atom lies in the stage-(t-1) atom of its first leaf
            if t and (index[t - 1][first][idx] != index[t - 1]).any():
                raise ValueError(f"stage {t} does not refine stage {t - 1}")
            stages.append((idx, np.bincount(idx), first, np.bincount(idx, weights=p)))
        for a in itertools.chain(*stages):
            a.setflags(write=False)
        self.atom_index, self.atom_size, self.atom_first, self.atom_mass = map(
            tuple, zip(*stages))

    # -- shape helpers ------------------------------------------------------

    @property
    def n_leaves(self) -> int:
        return len(self.leaf_ids)

    @property
    def horizon(self) -> int:
        return self.times[-1]

    def n_atoms(self, t: int) -> int:
        return len(self.atom_size[t])

    @property
    def atoms(self) -> tuple:
        """Each stage's atoms as sorted tuples of leaf indexes, in ordinal order."""
        if self._atoms is None:
            stages = []
            for idx, size in zip(self.atom_index, self.atom_size):
                leaves = np.argsort(idx, kind="stable").tolist()
                ends = np.cumsum(size).tolist()
                stages.append(tuple(tuple(leaves[a:b])
                                    for a, b in zip([0] + ends[:-1], ends)))
            self._atoms = tuple(stages)
        return self._atoms

    def check_stage(self, t: int) -> int:
        t = int(t)
        if t not in self.times:
            raise ValueError(f"stage {t} not in times {self.times}")
        return t

    def leaf_pos(self, leaf_id: str) -> int:
        if self._leaf_pos is None:
            self._leaf_pos = {s: i for i, s in enumerate(self.leaf_ids)}
        try:
            return self._leaf_pos[leaf_id]
        except KeyError:
            raise KeyError(f"unknown leaf id {leaf_id!r}") from None

    def atom_of_leaf(self, t: int, leaf: int) -> int:
        return int(self.atom_index[t][leaf])

    def atom_id(self, t: int, k: int) -> str:
        # canonical representative: first leaf id of the atom
        return self.leaf_ids[self.atom_first[t][k]]

    def atom_by_id(self, t: int, key: str) -> int:
        """Resolve an atom by any member leaf id."""
        return self.atom_of_leaf(t, self.leaf_pos(key))

    def subatoms(self, s: int, t: int, k: int) -> list[int]:
        """Stage-t atoms contained in stage-s atom k (s <= t)."""
        if s > t:
            raise ValueError("need s <= t")
        return np.unique(self.atom_index[t][self.atom_index[s] == k]).tolist()

    def parent_atom(self, s: int, t: int, k: int) -> int:
        """Stage-s atom containing stage-t atom k (s <= t)."""
        return int(self.atom_index[s][self.atom_first[t][k]])

    def same_structure(self, other: "FilteredSpace") -> bool:
        # in place, stopping at the first difference; equal index arrays are equal
        # atoms in equal order
        return self is other or (
            self.times == other.times and self.leaf_ids == other.leaf_ids
            and np.array_equal(self.probs, other.probs)
            and all(map(np.array_equal, self.atom_index, other.atom_index)))

    def __repr__(self):
        return (f"FilteredSpace({self.name or 'unnamed'}: {self.n_leaves} leaves, "
                f"T={self.horizon})")

    # -- JSON ---------------------------------------------------------------

    def to_json(self) -> dict:
        out = {
            "times": list(self.times),
            "leaves": [{"id": s, "p": num_to_json(p)}
                       for s, p in zip(self.leaf_ids, self.probs)],
            "atoms": {str(t): [[self.leaf_ids[i] for i in a] for a in self.atoms[t]]
                      for t in self.times},
        }
        if self.name:
            out["name"] = self.name
        return out

    @classmethod
    def from_json(cls, d: Mapping, name: str | None = None) -> "FilteredSpace":
        # an embedded name anchors variable files; the argument is a fallback
        if "name" in d:
            name = str(d["name"])
        times = [int(t) for t in d["times"]]
        leaves = d["leaves"]
        leaf_ids = [str(row["id"]) for row in leaves]
        probs = [num_from_json(row["p"]) for row in leaves]
        pos = {s: i for i, s in enumerate(leaf_ids)}
        atoms_by_stage = []
        atoms_raw = d["atoms"]
        for t in times:
            key = str(t)
            if key not in atoms_raw:
                raise ValueError(f"missing atoms for stage {t}")
            atoms_by_stage.append([[pos[str(s)] for s in a] for a in atoms_raw[key]])
        return cls(times, leaf_ids, probs, atoms_by_stage, name=name)


def _check_same_space(a: FilteredSpace, b: FilteredSpace):
    if not a.same_structure(b):
        raise ValueError("operands live on different spaces")


# ---------------------------------------------------------------------------
# variables


def _validate_leaf_values(values: np.ndarray) -> np.ndarray:
    if not values.size or values.min() > -INF:  # one reduction: NaN propagates
        return values
    if np.any(np.isnan(values)):
        raise ValueError("nan values are not allowed")
    raise ValueError("-inf is not allowed in a terminal variable (bounded below)")


class XVar:
    """Terminal-date variable: one value per leaf, real or +inf, never -inf or nan."""

    __slots__ = ("space", "values")

    def __init__(self, space: FilteredSpace, values, validate: bool = True):
        v = np.array(values, dtype=float)
        if v.shape != (space.n_leaves,):
            raise ValueError("values shape mismatch")
        if validate:
            _validate_leaf_values(v)
        v.setflags(write=False)
        self.space = space
        self.values = v

    @classmethod
    def constant(cls, space: FilteredSpace, c: float) -> "XVar":
        return cls(space, np.full(space.n_leaves, float(c)))

    def __add__(self, other):
        if isinstance(other, XVar):
            _check_same_space(self.space, other.space)
            return XVar(self.space, ext_add(self.values, other.values), validate=False)
        if isinstance(other, TVar):
            # promote skips validation, and a risk value (kind "ba") may hold -inf
            _validate_leaf_values(other.values)
            return self + other.promote()
        c = float(other)
        if math.isnan(c) or c == -INF:  # valid leaves plus a real or +inf stay valid
            _validate_leaf_values(np.array([c]))
        return XVar(self.space, ext_add(self.values, c), validate=False)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, XVar):
            _check_same_space(self.space, other.space)
            return XVar(self.space, ext_sub(self.values, other.values))
        if isinstance(other, TVar):
            return self - other.promote()
        return XVar(self.space, ext_sub(self.values, float(other)))

    def __rsub__(self, other):
        if isinstance(other, TVar):
            return other.promote() - self  # the XVar constructor rejects -inf
        return NotImplemented

    def __mul__(self, c):
        c = float(c)
        if c < 0 and np.any(np.isposinf(self.values)):
            raise ValueError("negative scaling of +inf leaves -inf")
        return XVar(self.space, ext_mul(self.values, c))

    __rmul__ = __mul__

    def __neg__(self):
        return self * (-1.0)

    def truncate(self, n: float) -> "XVar":
        """X ^ n, the pointwise minimum with the constant n."""
        return XVar(self.space, np.minimum(self.values, float(n)))

    def neg_part(self) -> "XVar":
        """X^- = max(-X, 0); finite because X is bounded below."""
        return XVar(self.space, np.maximum(-self.values, 0.0))

    def pos_part(self) -> "XVar":
        return XVar(self.space, np.maximum(self.values, 0.0))

    def restrict(self, mask: "EventMask") -> "XVar":
        """X * 1_B with the 0 * inf = 0 convention (off-event values become 0)."""
        _check_same_space(self.space, mask.space)
        return XVar(self.space, np.where(mask.leaf_values(), self.values, 0.0))

    def finite_min(self) -> float:
        finite = self.values[np.isfinite(self.values)]
        return float(finite.min()) if finite.size else INF

    def finite_max(self) -> float:
        finite = self.values[np.isfinite(self.values)]
        return float(finite.max()) if finite.size else -INF

    def to_json(self) -> dict:
        return {"space": self.space.name or "",
                "values": {s: num_to_json(v)
                           for s, v in zip(self.space.leaf_ids, self.values)}}

    @classmethod
    def from_json(cls, d: Mapping, space: FilteredSpace) -> "XVar":
        ref = d.get("space", "")
        if ref and space.name and ref != space.name:
            raise ValueError(f"variable references space {ref!r}, got {space.name!r}")
        vals = np.zeros(space.n_leaves)
        raw = d["values"]
        for key, v in raw.items():
            vals[space.leaf_pos(str(key))] = num_from_json(v)
        missing = set(space.leaf_ids) - {str(k) for k in raw}
        if missing:
            raise ValueError(f"values missing for leaves {sorted(missing)}")
        return cls(space, vals)

    def __repr__(self):
        return f"XVar({np.array2string(self.values, precision=6)})"


class TVar:
    """Stage variable: one value per stage-t atom.

    kind 'bb' forbids -inf (measure values, bounded below); 'ba' forbids +inf
    (risk values, bounded above); None allows both ends.
    """

    __slots__ = ("space", "stage", "values", "kind")

    def __init__(self, space: FilteredSpace, stage: int, values,
                 kind: str | None = "bb"):
        stage = space.check_stage(stage)
        v = np.array(values, dtype=float)
        if v.shape != (space.n_atoms(stage),):
            raise ValueError("values shape mismatch for stage atoms")
        if v.size and not (v.min() > -INF and v.max() < INF):  # NaN propagates
            if np.any(np.isnan(v)):
                raise ValueError("nan values are not allowed")
            if kind == "bb" and np.any(np.isneginf(v)):
                raise ValueError("-inf not allowed in a bounded-below stage variable")
            if kind == "ba" and np.any(np.isposinf(v)):
                raise ValueError("+inf not allowed in a bounded-above stage variable")
        v.setflags(write=False)
        self.space = space
        self.stage = stage
        self.values = v
        self.kind = kind

    @classmethod
    def constant(cls, space: FilteredSpace, stage: int, c: float,
                 kind: str | None = "bb") -> "TVar":
        return cls(space, stage, np.full(space.n_atoms(stage), float(c)), kind=kind)

    def promote(self) -> XVar:
        """Expand to a leafwise variable, constant on each atom."""
        return XVar(self.space, self.values[self.space.atom_index[self.stage]],
                    validate=False)

    def __add__(self, other):
        if isinstance(other, TVar):
            _check_same_space(self.space, other.space)
            if other.stage != self.stage:
                raise ValueError("stage mismatch")
            return TVar(self.space, self.stage, ext_add(self.values, other.values),
                        kind=None)
        if isinstance(other, XVar):
            return NotImplemented  # XVar.__radd__ adds leafwise and checks -inf
        return TVar(self.space, self.stage, ext_add(self.values, float(other)),
                    kind=None)

    def __sub__(self, other):
        if isinstance(other, TVar):
            _check_same_space(self.space, other.space)
            if other.stage != self.stage:
                raise ValueError("stage mismatch")
            return TVar(self.space, self.stage, ext_sub(self.values, other.values),
                        kind=None)
        if isinstance(other, XVar):
            return NotImplemented  # XVar.__rsub__
        return TVar(self.space, self.stage, ext_sub(self.values, float(other)),
                    kind=None)

    def __neg__(self):
        return TVar(self.space, self.stage, ext_mul(self.values, -1.0), kind=None)

    def to_json(self) -> dict:
        return {"space": self.space.name or "", "stage": self.stage,
                "values": {self.space.atom_id(self.stage, k): num_to_json(v)
                           for k, v in enumerate(self.values)}}

    def __repr__(self):
        return f"TVar(t={self.stage}, {np.array2string(self.values, precision=6)})"


class EventMask:
    """F_t-measurable event: a boolean flag per stage-t atom."""

    __slots__ = ("space", "stage", "flags")

    def __init__(self, space: FilteredSpace, stage: int, flags):
        stage = space.check_stage(stage)
        f = np.array(flags, dtype=bool)
        if f.shape != (space.n_atoms(stage),):
            raise ValueError("flags shape mismatch")
        f.setflags(write=False)
        self.space = space
        self.stage = stage
        self.flags = f

    @classmethod
    def full(cls, space: FilteredSpace, stage: int) -> "EventMask":
        return cls(space, stage, np.ones(space.n_atoms(stage), dtype=bool))

    @classmethod
    def of_atoms(cls, space: FilteredSpace, stage: int, atoms: Iterable[int]) -> "EventMask":
        f = np.zeros(space.n_atoms(stage), dtype=bool)
        for k in atoms:
            f[int(k)] = True
        return cls(space, stage, f)

    def leaf_values(self) -> np.ndarray:
        return self.flags[self.space.atom_index[self.stage]]

    def complement(self) -> "EventMask":
        return EventMask(self.space, self.stage, ~self.flags)

    def is_empty(self) -> bool:
        return not bool(self.flags.any())

    def __repr__(self):
        atoms = [self.space.atom_id(self.stage, k)
                 for k in np.flatnonzero(self.flags)]
        return f"EventMask(t={self.stage}, atoms={atoms})"


# ---------------------------------------------------------------------------
# conditional operations


def bin_sums(index: np.ndarray, n_bins: int):
    """Per-bin sums of weight rows: ``np.bincount(index, w)`` for w of shape (m,) or (B, m).

    Every row is summed cell by cell in index order, as a one-row call sums it, so a
    batched row equals its one-row result bit for bit.
    """
    row_bins = {}  # batch size -> the bin of each (row, cell)

    def sums(w):
        if w.ndim == 1:
            return np.bincount(index, weights=w, minlength=n_bins)
        rows = w.shape[0]
        bins = row_bins.get(rows)
        if bins is None:
            bins = row_bins[rows] = (index + n_bins * np.arange(rows)[:, None]).ravel()
        tot = np.bincount(bins, weights=w.ravel(), minlength=rows * n_bins)
        return tot.reshape(rows, n_bins)

    return sums


def atom_expector(space: FilteredSpace, t: int):
    """``atom_expect(space, t, .)`` with the stage's index, weights and masses bound once.

    Takes leaf rows of shape (n_leaves,) or (B, n_leaves) and returns (n_atoms,) or
    (B, n_atoms), each row equal to its one-row result bit for bit (see ``bin_sums``).
    """
    probs = space.probs
    mass = space.atom_mass[t]
    sums = bin_sums(space.atom_index[t], space.n_atoms(t))
    return lambda leaf_values: sums(probs * leaf_values) / mass


def atom_expect(space: FilteredSpace, t: int, leaf_values: np.ndarray) -> np.ndarray:
    """Per-atom conditional expectation of raw leaf values (array-in, array-out).

    Takes one row of leaf values or a (B, n_leaves) batch of rows; see
    ``atom_expector``.  +inf leaves carry positive weight, so they propagate to +inf
    atom values.
    """
    # p * inf is inf (p > 0); nan can only come from inf - inf across leaves,
    # which XVar excludes, but guard bincount pairs of +inf anyway
    with np.errstate(invalid="ignore"):
        return atom_expector(space, t)(leaf_values)


def loss_order(space: FilteredSpace, t: int, loss: np.ndarray):
    """Leaves by stage-t atom, each atom's leaves by descending loss.

    Returns the leaf order, the atom of each sorted leaf and the position where each
    atom's run of leaves starts (every atom has a leaf).  A batch of loss rows
    (B, n_leaves) gives one order per row, each the row's one-row order (the sort is
    stable); the atoms and starts are the same for every row.
    """
    idx = space.atom_index[t]
    order = np.lexsort((-loss, np.broadcast_to(idx, loss.shape)), axis=-1)
    atom = idx[order[(0,) * (order.ndim - 1)]]  # the same for every row
    return order, atom, np.searchsorted(atom, np.arange(space.n_atoms(t)))


def cond_expect(x: XVar, t: int) -> TVar:
    """E[X | F_t]."""
    t = x.space.check_stage(t)
    return TVar(x.space, t, atom_expect(x.space, t, x.values), kind="bb")


def ess_inf(x: XVar, t: int) -> TVar:
    t = x.space.check_stage(t)
    out = np.full(x.space.n_atoms(t), INF)
    np.minimum.at(out, x.space.atom_index[t], x.values)
    return TVar(x.space, t, out, kind="bb")


def ess_sup(x: XVar, t: int) -> TVar:
    t = x.space.check_stage(t)
    out = np.full(x.space.n_atoms(t), -INF)
    np.maximum.at(out, x.space.atom_index[t], x.values)
    return TVar(x.space, t, out, kind=None)


def paste(x1: XVar, x2: XVar, mask: EventMask) -> XVar:
    """x1 on the event, x2 off it: 1_B x1 + 1_{B^c} x2 by leafwise selection."""
    _check_same_space(x1.space, x2.space)
    _check_same_space(x1.space, mask.space)
    return XVar(x1.space, np.where(mask.leaf_values(), x1.values, x2.values),
                validate=False)


# ---------------------------------------------------------------------------
# ready-made spaces and samplers


def coin2(p: float = 0.5, name: str = "coin2") -> FilteredSpace:
    """Two leaves, one period: the smallest nontrivial space."""
    return FilteredSpace([0, 1], ["u", "d"], [p, 1.0 - p],
                         [[[0, 1]], [[0], [1]]], name=name)


def binomial_tree(steps: int, p: float = 0.5, name: str | None = None) -> FilteredSpace:
    """Recombining-label binomial tree with 2**steps leaves (paths, not nodes)."""
    if steps < 1:
        raise ValueError("need at least one step")
    # Each doubling appends one move, u before d, so a leaf's probability is the
    # product of its moves taken in path order and a stage-t atom is a block of
    # 2**(steps - t) consecutive leaves.
    leaf_ids, probs, moves = [""], np.ones(1), np.array([p, 1.0 - p])
    for _ in range(steps):
        leaf_ids = [s + ch for s in leaf_ids for ch in "ud"]
        probs = (probs[:, None] * moves).ravel()
    leaves = np.arange(2 ** steps)
    return FilteredSpace(list(range(steps + 1)), leaf_ids, probs,
                         (leaves >> (steps - t) for t in range(steps + 1)),
                         name=name or f"binomial{steps}")


def random_tree(rng: np.random.Generator, periods: int = 2, max_leaves: int = 16,
                name: str | None = None) -> FilteredSpace:
    """Random tree with the given number of periods and at most max_leaves leaves.

    Leaf probabilities are normalized draws from [0.5, 1.5], so no leaf is vanishingly
    unlikely relative to the others.
    """
    if periods < 1:
        raise ValueError("need at least one period")
    # grow leaf counts per node, stage by stage
    shapes = [[1]]  # children count per node of each stage; start with the root
    n_leaves = 1
    for t in range(periods):
        row = []
        remaining_stages = periods - t - 1
        for _ in range(sum(shapes[-1])):
            # each later stage must be able to split, so cap the branching now
            room = max_leaves - n_leaves
            hi = min(3, 1 + room)
            k = int(rng.integers(1, hi + 1)) if hi >= 1 else 1
            if t == 0 and k == 1 and sum(shapes[-1]) == 1:
                k = 2  # the root must split or the filtration is degenerate
                k = min(k, 1 + max(0, max_leaves - n_leaves))
            row.append(k)
            n_leaves += k - 1
        shapes.append(row)
    # build leaf paths
    paths = [[]]
    for row in shapes[1:]:
        nxt = []
        for path, k in zip(paths, row):
            for c in range(k):
                nxt.append(path + [c])
        paths = nxt
    leaf_ids = ["n" + "".join(str(c) for c in path) for path in paths]
    w = rng.uniform(0.5, 1.5, size=len(paths))
    probs = (w / w.sum()).tolist()
    atoms_by_stage = []
    for t in range(periods + 1):
        groups: dict[tuple, list[int]] = {}
        for i, path in enumerate(paths):
            groups.setdefault(tuple(path[:t]), []).append(i)
        atoms_by_stage.append(list(groups.values()))
    return FilteredSpace(list(range(periods + 1)), leaf_ids, probs, atoms_by_stage,
                         name=name)


def draw_leaf_values(space: FilteredSpace, rng: np.random.Generator,
                     inf_prob: float = 0.0) -> np.ndarray:
    """Random leaf values, uniform on [-4, 4); inf_prob adds +inf legs."""
    v = rng.uniform(-4.0, 4.0, size=space.n_leaves)
    if inf_prob > 0.0:
        v[rng.random(space.n_leaves) < inf_prob] = INF
    return v


def draw_atom_values(space: FilteredSpace, t: int, rng: np.random.Generator,
                     low: float = -2.0, high: float = 2.0) -> np.ndarray:
    """Random stage-t atom values, uniform on [low, high)."""
    return rng.uniform(low, high, size=space.n_atoms(t))


def draw_event_flags(space: FilteredSpace, t: int, rng: np.random.Generator) -> np.ndarray:
    """Random stage-t atom flags, proper (neither none nor all) where the stage allows."""
    n = space.n_atoms(t)
    flags = rng.random(n) < 0.5
    if n == 1:
        return np.ones(1, dtype=bool)
    if flags.all() or not flags.any():  # flip one atom to make the event proper
        flags[int(rng.integers(n))] = not flags[0]
    return flags


def sample_xvar(space: FilteredSpace, rng: np.random.Generator,
                inf_prob: float = 0.0) -> XVar:
    """``draw_leaf_values`` as a terminal variable."""
    return XVar(space, draw_leaf_values(space, rng, inf_prob))


def sample_tvar(space: FilteredSpace, t: int, rng: np.random.Generator,
                low: float = -2.0, high: float = 2.0) -> TVar:
    return TVar(space, t, draw_atom_values(space, t, rng, low, high))


def sample_event(space: FilteredSpace, t: int, rng: np.random.Generator) -> EventMask:
    """``draw_event_flags`` as an F_t-event."""
    return EventMask(space, t, draw_event_flags(space, t, rng))
