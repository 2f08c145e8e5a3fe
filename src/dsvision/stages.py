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
those of the clause algebra.  The shorter product form of the belief
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


def window_knowledge() -> KnowledgeSource:
    """Knowledge about window appearance: boundaries are the most
    convincing evidence, either side will do."""
    return KnowledgeSource.build("window", FEATURE_FRAME, {
        "elong": 0.15,
        "text": 0.20,
        "lt-bound|rt-bound": 0.35,
        "THETA": 0.30,
    })


def sibling_knowledge() -> KnowledgeSource:
    """Knowledge about window placement in a facade; judged certain, so no
    residual is kept on theta."""
    return KnowledgeSource.build("window", SIBLING_FRAME, {
        "window": 0.4,
        "v-sibl": 0.2,
        "h-sibl": 0.2,
        "v-sibl&h-sibl": 0.2,
    })


def _rows(*supports) -> tuple[list[np.ndarray], tuple[int, ...]]:
    """The supports broadcast to one shape and flattened to rows, with that
    shape; each must lie in [0, 1], as ``simple_support`` requires."""
    arrays = np.broadcast_arrays(*(np.asarray(s, dtype=np.float64) for s in supports))
    rows = [a.reshape(-1) for a in arrays]
    for s in rows:
        outside = ~((s >= 0.0) & (s <= 1.0))   # also NaN
        if outside.any():
            raise NormalizationError(f"support {float(s[outside][0])} outside [0, 1]")
    return rows, arrays[0].shape


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


def stage_a_belief(elong, text, lt, rt, window_ks: KnowledgeSource | None = None):
    """Belief in the window hypothesis from shape/texture/boundary evidence."""
    ks = window_ks if window_ks is not None else window_knowledge()
    supports, shape = _rows(elong, text, lt, rt)
    factors = [_simple(ks, atom, s) for atom, s in zip(FEATURE_ATOMS, supports)]
    return _shaped(_verify(ks, factors), shape)


def stage_b_belief(window, v_sibl, h_sibl, sibling_ks: KnowledgeSource | None = None):
    """Belief after the lateral sibling search."""
    ks = sibling_ks if sibling_ks is not None else sibling_knowledge()
    supports, shape = _rows(window, v_sibl, h_sibl)
    factors = [_simple(ks, atom, s) for atom, s in zip(SIBLING_ATOMS, supports)]
    return _shaped(_verify(ks, factors), shape)


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
    (a, nw, v, h), shape = _rows(window, non_window, v_sibl, h_sibl)
    scale = 1.0 / (1.0 - _window_conflict(a, nw))
    bit = 1 << ks.frame.index("window")
    states = ([(0, 0), (bit, 0), (0, bit)],
              np.stack([(1.0 - a) * (1.0 - nw) * scale, a * (1.0 - nw) * scale,
                        (1.0 - a) * nw * scale], axis=1))
    factors = [states, _simple(ks, "v-sibl", v), _simple(ks, "h-sibl", h)]
    return _shaped(_verify(ks, factors), shape)


def stage_c_conflict(window, non_window):
    """Stage C's combination conflict, as ``combine_all`` reports it: one
    minus the product of the steps' 1 - K, where only the first step has a
    conflict."""
    (a, nw), shape = _rows(window, non_window)
    return _shaped(1.0 - (1.0 - _window_conflict(a, nw)), shape)
