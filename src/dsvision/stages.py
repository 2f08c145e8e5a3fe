"""The three-stage window verification chain.

Stage A combines the four single-feature supports and verifies them against
the window knowledge source.  Stage B folds in sibling alignment evidence,
stage C adds the conflicting non-window evidence from the building-boundary
check.  Each stage re-injects the previous stage's belief as a simple
support, so the stages can also run standalone on bare numbers (the
tabulated-fixture path).

Every stage function takes numbers for one area or equal-length arrays with
one entry per candidate, and returns a float or an array to match.  Each
stage combines simple supports on distinct atoms, so its evidence is a
table of cube masses, one row per candidate, and no mass function or clause
object is built per candidate.  The table holds the same floating-point
products, in the same order, that ``combine_all`` forms, and the belief is
the same ``math.fsum`` that ``verify`` takes, so results are bit for bit
those of the clause algebra.  Few distinct rows recur (the supports come
from step tables), so each stage remembers the belief of every row it has
verified, per knowledge source.  The shorter product form of the belief
(prod s_i for a conjunction, 1 - prod(1 - s_i) for a disjunction) is equal
only to within rounding, and that shows in the printed third decimal.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import NormalizationError, TotalConflictError
from .evidence import CONJUNCTION, TOTAL_CONFLICT_TOL, Clause, clause_subset, make_frame
from .knowledge import KnowledgeSource

FEATURE_ATOMS = ("elong", "text", "lt-bound", "rt-bound")
SIBLING_ATOMS = ("window", "v-sibl", "h-sibl")

FEATURE_FRAME = make_frame(FEATURE_ATOMS)
SIBLING_FRAME = make_frame(SIBLING_ATOMS)


# the default sources are built once: a KnowledgeSource is frozen, so every
# caller can share one
@functools.cache
def window_knowledge() -> KnowledgeSource:
    """Knowledge about window appearance: boundaries are the most
    convincing evidence, either side will do."""
    return KnowledgeSource.build("window", FEATURE_FRAME, {
        "elong": 0.15,
        "text": 0.20,
        "lt-bound|rt-bound": 0.35,
        "THETA": 0.30,
    })


@functools.cache
def sibling_knowledge() -> KnowledgeSource:
    """Knowledge about window placement in a facade; judged certain, so no
    residual is kept on theta."""
    return KnowledgeSource.build("window", SIBLING_FRAME, {
        "window": 0.4,
        "v-sibl": 0.2,
        "h-sibl": 0.2,
        "v-sibl&h-sibl": 0.2,
    })


_MEMO_ROWS = 4096   # a stage's memo is cleared when it would grow past this


def _rows(*supports) -> tuple[np.ndarray, tuple[int, ...]]:
    """The supports broadcast to one shape and stacked into an (N, k) table,
    one row per area, with that shape; each must lie in [0, 1], as
    ``simple_support`` requires."""
    arrays = np.broadcast_arrays(*(np.asarray(s, dtype=np.float64) for s in supports))
    table = np.stack(arrays, axis=-1).reshape(-1, len(arrays))
    outside = ~((table >= 0.0) & (table <= 1.0))   # also NaN
    if outside.any():
        column = outside.any(axis=0).argmax()   # the first support checked
        raise NormalizationError(
            f"support {float(table[outside[:, column], column][0])} outside [0, 1]")
    return table, arrays[0].shape


def _shaped(values: np.ndarray, shape: tuple[int, ...]):
    """A float for a call on numbers, else the rows in the arguments' shape."""
    return float(values[0]) if shape == () else values.reshape(shape)


def _simple(ks: KnowledgeSource, atom: str, s: np.ndarray):
    """A simple support on ``atom`` per row: its focals, theta and the atom
    as (pos, neg) bitmasks, and their (N, 2) masses."""
    return [(0, 0), (1 << ks.frame.index(atom), 0)], np.stack([1.0 - s, s], axis=1)


@functools.lru_cache(maxsize=32)
def _subset_pairs(ks: KnowledgeSource, cubes: tuple[tuple[int, int], ...]
                  ) -> tuple[np.ndarray, np.ndarray]:
    """The (cube index, knowledge mass) of every pair with the cube inside
    the focal, in cube then focal order.  They depend only on the knowledge
    source and the cubes, so they are worked out once for each; the arrays
    are read-only, as every later call shares them."""
    index, weight = [], []
    for i, (pos, neg) in enumerate(cubes):
        cube = Clause(ks.frame, CONJUNCTION, pos, neg)
        for focal, mass in ks.focals:
            if clause_subset(cube, focal):
                index.append(i)
                weight.append(mass)
    arrays = np.array(index, dtype=np.intp), np.array(weight, dtype=np.float64)
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _verify(ks: KnowledgeSource, factors: list[tuple[list[tuple[int, int]], np.ndarray]]
            ) -> np.ndarray:
    """Bel of the knowledge source's hypothesis per row, for evidence that
    is the combination of independent factors.

    A factor is a list of focals as (pos, neg) bitmasks over ``ks.frame``
    and an (N, focals) array of their masses.  Factors share no atom, so
    each fold step of ``combine_all`` has one product per cube, no conflict
    and scale 1.0: the table below holds the same products.  Bel sums cube
    mass times knowledge mass over the pairs with the cube inside the
    focal, as ``verify`` does; a zero-mass cube adds nothing.
    """
    cubes = [(0, 0)]
    masses = np.ones((len(factors[0][1]), 1))
    for focals, factor in factors:
        cubes = [(pos | p, neg | q) for p, q in focals for pos, neg in cubes]
        masses = (masses[:, None, :] * factor[:, :, None]).reshape(len(masses), len(cubes))
    index, weight = _subset_pairs(ks, tuple(cubes))
    terms = masses[:, index] * weight
    return np.array([math.fsum(row) for row in terms.tolist()], dtype=np.float64)


@functools.lru_cache(maxsize=16)
def _memo(ks: KnowledgeSource, factors) -> dict[bytes, float]:
    """One stage's beliefs so far under one source, by support-row bytes."""
    return {}


def _beliefs(ks: KnowledgeSource, factors, table: np.ndarray) -> np.ndarray:
    """``_verify(ks, factors(ks, table))``, with the rows not yet in the
    memo verified in one batch.  A row is looked up by its float64 bytes,
    so 0.0 and -0.0 stay apart.  An empty memo runs its batch even with no
    rows, so a source whose frame lacks the stage's atoms always raises.
    """
    memo = _memo(ks, factors)
    keys = table.view(np.dtype((np.void, table.itemsize * table.shape[1]))).ravel().tolist()
    values = [memo.get(key) for key in keys]
    todo = {keys[i]: i for i, value in enumerate(values) if value is None}
    if todo or not memo:
        fresh = dict(zip(todo, _verify(ks, factors(ks, table[list(todo.values())])).tolist()))
        values = [fresh[key] if value is None else value for key, value in zip(keys, values)]
        if len(memo) + len(fresh) > _MEMO_ROWS:
            memo.clear()
        if len(fresh) <= _MEMO_ROWS:
            memo.update(fresh)
    return np.array(values, dtype=np.float64)


def _feature_factors(ks: KnowledgeSource, table: np.ndarray):
    return [_simple(ks, atom, s) for atom, s in zip(FEATURE_ATOMS, table.T)]


def _sibling_factors(ks: KnowledgeSource, table: np.ndarray):
    return [_simple(ks, atom, s) for atom, s in zip(SIBLING_ATOMS, table.T)]


def _conflict_factors(ks: KnowledgeSource, table: np.ndarray):
    a, nw, v, h = table.T
    scale = 1.0 / (1.0 - a * nw)
    bit = 1 << ks.frame.index("window")
    states = ([(0, 0), (bit, 0), (0, bit)],
              np.stack([(1.0 - a) * (1.0 - nw) * scale, a * (1.0 - nw) * scale,
                        (1.0 - a) * nw * scale], axis=1))
    return [states, _simple(ks, "v-sibl", v), _simple(ks, "h-sibl", h)]


def stage_a_belief(elong, text, lt, rt, window_ks: KnowledgeSource | None = None):
    """Belief in the window hypothesis from shape/texture/boundary evidence."""
    ks = window_ks if window_ks is not None else window_knowledge()
    table, shape = _rows(elong, text, lt, rt)
    return _shaped(_beliefs(ks, _feature_factors, table), shape)


def stage_b_belief(window, v_sibl, h_sibl, sibling_ks: KnowledgeSource | None = None):
    """Belief after the lateral sibling search."""
    ks = sibling_ks if sibling_ks is not None else sibling_knowledge()
    table, shape = _rows(window, v_sibl, h_sibl)
    return _shaped(_beliefs(ks, _sibling_factors, table), shape)


def _window_conflict(a: np.ndarray, nw: np.ndarray) -> np.ndarray:
    """K of combining window support ``a`` with non-window support ``nw``:
    the one colliding product."""
    k = a * nw
    total = k >= 1.0 - TOTAL_CONFLICT_TOL
    if total.any():
        raise TotalConflictError(f"total conflict K = {float(k[total][0])}")
    return k


def stage_c_belief(window, non_window, v_sibl, h_sibl,
                   sibling_ks: KnowledgeSource | None = None):
    """Belief after combining the conflicting non-window evidence.

    The window and non-window supports collide head on; Dempster
    normalization absorbs the conflict before the sibling verification.
    That first step leaves three window states (neither, window, !window),
    each one product times 1/(1 - K), as ``combine`` forms them.
    """
    ks = sibling_ks if sibling_ks is not None else sibling_knowledge()
    table, shape = _rows(window, non_window, v_sibl, h_sibl)
    _window_conflict(table[:, 0], table[:, 1])
    return _shaped(_beliefs(ks, _conflict_factors, table), shape)


def stage_c_conflict(window, non_window):
    """Stage C's combination conflict, as ``combine_all`` reports it: one
    minus the product of the steps' 1 - K, where only the first step has a
    conflict."""
    table, shape = _rows(window, non_window)
    return _shaped(1.0 - (1.0 - _window_conflict(table[:, 0], table[:, 1])), shape)
