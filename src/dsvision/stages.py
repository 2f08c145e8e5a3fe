"""The three-stage window verification chain.

Stage A combines the four single-feature supports and verifies them against
the window knowledge source.  Stage B folds in sibling alignment evidence,
stage C adds the conflicting non-window evidence from the building-boundary
check.  Each stage re-injects the previous stage's belief as a simple
support, so the stages can also run standalone on bare numbers (the
tabulated-fixture path).

Every stage function takes numbers for one area or equal-length arrays with
one entry per candidate, and returns a float or an array to match.  A
belief is the evidence core's own chain: ``combine_all`` of one simple
support per atom, in the stage's order, then ``verify``.  Few distinct rows
of supports recur (they come from step tables), so each stage remembers the
belief of every row it has verified, per knowledge source, and runs the
chain, about 0.15-0.3 ms, once per distinct row.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import NormalizationError, TotalConflictError
from .evidence import TOTAL_CONFLICT_TOL, Clause, combine_all, make_frame, simple_support
from .knowledge import KnowledgeSource, verify

FEATURE_ATOMS = ("elong", "text", "lt-bound", "rt-bound")
SIBLING_ATOMS = ("window", "v-sibl", "h-sibl")
# stage C's supports, in the order they are combined
_CONFLICT_ATOMS = ("window", "!window", "v-sibl", "h-sibl")

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


@functools.lru_cache(maxsize=16)
def _stage(ks: KnowledgeSource, atoms: tuple[str, ...]) -> tuple[tuple[Clause, ...], dict]:
    """A stage's focal clause per atom (``!`` negates) under one source,
    and its memo of beliefs so far, by support-row bytes.  A frame lacking
    an atom raises, and the raise is not cached, so every call raises."""
    return tuple(Clause.conjunction(ks.frame, [atom]) for atom in atoms), {}


def _beliefs(ks: KnowledgeSource, atoms: tuple[str, ...], table: np.ndarray) -> np.ndarray:
    """Bel of the source's hypothesis per row: ``verify`` of the
    ``combine_all`` of a simple support on each atom, in order.  A row is
    looked up in the memo by its float64 bytes, so 0.0 and -0.0 stay apart;
    only a row not yet seen runs the chain."""
    focals, memo = _stage(ks, atoms)
    keys = table.view(np.dtype((np.void, table.itemsize * table.shape[1]))).ravel().tolist()
    values = []
    for key, row in zip(keys, table.tolist()):
        bel = memo.get(key)
        if bel is None:
            m_e = combine_all([simple_support(ks.frame, focal, s)
                               for focal, s in zip(focals, row)]).result
            bel = verify(m_e, ks).bel
            if len(memo) >= _MEMO_ROWS:
                memo.clear()
            memo[key] = bel
        values.append(bel)
    return np.array(values, dtype=np.float64)


def stage_a_belief(elong, text, lt, rt, window_ks: KnowledgeSource | None = None):
    """Belief in the window hypothesis from shape/texture/boundary evidence."""
    ks = window_ks if window_ks is not None else window_knowledge()
    table, shape = _rows(elong, text, lt, rt)
    return _shaped(_beliefs(ks, FEATURE_ATOMS, table), shape)


def stage_b_belief(window, v_sibl, h_sibl, sibling_ks: KnowledgeSource | None = None):
    """Belief after the lateral sibling search."""
    ks = sibling_ks if sibling_ks is not None else sibling_knowledge()
    table, shape = _rows(window, v_sibl, h_sibl)
    return _shaped(_beliefs(ks, SIBLING_ATOMS, table), shape)


def stage_c_belief(window, non_window, v_sibl, h_sibl,
                   sibling_ks: KnowledgeSource | None = None):
    """Belief after combining the conflicting non-window evidence.

    The window and non-window supports collide head on; Dempster
    normalization absorbs the conflict before the sibling verification,
    and a row whose conflict is total raises ``TotalConflictError``.
    """
    ks = sibling_ks if sibling_ks is not None else sibling_knowledge()
    table, shape = _rows(window, non_window, v_sibl, h_sibl)
    return _shaped(_beliefs(ks, _CONFLICT_ATOMS, table), shape)


def stage_c_conflict(window, non_window):
    """Stage C's combination conflict, as ``combine_all`` reports it: one
    minus the product of the steps' 1 - K, where only the first step, the
    one colliding product window * non-window, has a conflict."""
    table, shape = _rows(window, non_window)
    k = table[:, 0] * table[:, 1]
    total = k >= 1.0 - TOTAL_CONFLICT_TOL
    if total.any():
        raise TotalConflictError(f"total conflict K = {float(k[total][0])}")
    return _shaped(1.0 - (1.0 - k), shape)
