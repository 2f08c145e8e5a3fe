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
support per atom, in the stage's order, then ``verify``; stage C's conflict
K is the one that ``combine_all`` reports.  Few distinct rows of supports
recur (they come from step tables), so each stage keeps the chain's (Bel,
K) for its 4096 most recent distinct rows per knowledge source, in an LRU
cache, and runs the chain, about 0.15-0.3 ms, once per distinct row.  Rows
that differ only in the sign of a zero share an entry: a zero support is
the vacuous mass either way.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import InvalidParamsError
from .evidence import Clause, Frame, combine_all, simple_support
from .knowledge import KnowledgeSource, verify

FEATURE_ATOMS = ("elong", "text", "lt-bound", "rt-bound")
SIBLING_ATOMS = ("window", "v-sibl", "h-sibl")
# stage C's supports, in the order they are combined
_CONFLICT_ATOMS = ("window", "!window", "v-sibl", "h-sibl")

FEATURE_FRAME = Frame(FEATURE_ATOMS)
SIBLING_FRAME = Frame(SIBLING_ATOMS)


# the default sources are built once: a KnowledgeSource is frozen, so every
# caller can share one
@functools.cache
def window_knowledge() -> KnowledgeSource:
    """Knowledge about window appearance: boundaries are the most
    convincing evidence, either side will do."""
    return KnowledgeSource.build("window", FEATURE_FRAME, (
        ("elong", 0.15),
        ("text", 0.20),
        ("lt-bound|rt-bound", 0.35),
        ("THETA", 0.30),
    ))


@functools.cache
def sibling_knowledge() -> KnowledgeSource:
    """Knowledge about window placement in a facade; judged certain, so no
    residual is kept on theta."""
    return KnowledgeSource.build("window", SIBLING_FRAME, (
        ("window", 0.4),
        ("v-sibl", 0.2),
        ("h-sibl", 0.2),
        ("v-sibl&h-sibl", 0.2),
    ))


def real_array(values, error: type[Exception], what: str) -> np.ndarray:
    """``values`` as an array in their own dtype if bool, integer or float, else ``error``."""
    array = np.asarray(values)
    if array.dtype.kind not in "biuf":
        raise error(f"{what} of type {array.dtype} are not real numbers")
    return array


_MEMO_ROWS = 4096   # rows each stage's cache keeps per source, least recent out


@functools.lru_cache(maxsize=16)
def _stage(ks: KnowledgeSource, atoms: tuple[str, ...]):
    """The cached function giving a stage's outcome for one row of supports
    under one source: Bel of the source's hypothesis and the conflict K, as
    the evidence core reports them for ``verify`` of the ``combine_all`` of
    a simple support on each atom (``!`` negates), in order.  Neither cache
    keeps a raise, so a frame lacking an atom raises on every call, and a
    row outside [0, 1] or in total conflict every time it is seen."""
    focals = tuple(Clause.conjunction(ks.frame, [atom]) for atom in atoms)

    @functools.lru_cache(maxsize=_MEMO_ROWS)
    def outcome(*row: float) -> tuple[float, float]:
        r = combine_all([simple_support(ks.frame, focal, s) for focal, s in zip(focals, row)])
        return verify(r.result, ks).bel, r.conflict
    return outcome


def _evidence(ks: KnowledgeSource | None, default, atoms: tuple[str, ...], supports,
              column: int):
    """Item ``column`` (0 for Bel, 1 for K) of each row's outcome under
    ``ks``, or ``default()`` where it is None: a float for a call on
    numbers, else an array in the supports' broadcast shape."""
    if ks is None:
        ks = default()
    elif not isinstance(ks, KnowledgeSource):
        raise InvalidParamsError(f"knowledge source of type {type(ks).__name__} "
                                 "is not a KnowledgeSource")
    try:
        arrays = np.broadcast_arrays(*(real_array(s, TypeError, "values") for s in supports))
    except (TypeError, ValueError) as exc:
        raise InvalidParamsError(f"supports are not numbers of one shape: {exc}") from None
    outcome = _stage(ks, atoms)
    rows = np.stack(arrays, axis=-1, dtype=np.float64).reshape(-1, len(arrays)).tolist()
    values = [outcome(*row)[column] for row in rows]
    shape = arrays[0].shape
    return values[0] if shape == () else np.array(values, dtype=np.float64).reshape(shape)


def stage_a_belief(elong, text, lt, rt, window_ks: KnowledgeSource | None = None):
    """Belief in the window hypothesis from shape/texture/boundary evidence."""
    return _evidence(window_ks, window_knowledge, FEATURE_ATOMS, (elong, text, lt, rt), 0)


def stage_b_belief(window, v_sibl, h_sibl, sibling_ks: KnowledgeSource | None = None):
    """Belief after the lateral sibling search."""
    return _evidence(sibling_ks, sibling_knowledge, SIBLING_ATOMS, (window, v_sibl, h_sibl), 0)


def stage_c_belief(window, non_window, v_sibl, h_sibl,
                   sibling_ks: KnowledgeSource | None = None):
    """Belief after combining the conflicting non-window evidence.

    The window and non-window supports collide head on; Dempster
    normalization absorbs the conflict before the sibling verification,
    and a row whose conflict is total raises ``TotalConflictError``.
    """
    return _evidence(sibling_ks, sibling_knowledge, _CONFLICT_ATOMS,
                     (window, non_window, v_sibl, h_sibl), 0)


def stage_c_conflict(window, non_window, v_sibl, h_sibl,
                     sibling_ks: KnowledgeSource | None = None):
    """Stage C's combination conflict K, as ``combine_all`` reported it
    when it gave ``stage_c_belief`` of the same arguments."""
    return _evidence(sibling_ks, sibling_knowledge, _CONFLICT_ATOMS,
                     (window, non_window, v_sibl, h_sibl), 1)
