"""The batched, memoised staged beliefs and the batched candidate
measurements against scalar references.

The references are the per-candidate clause-algebra chain (``combine_all``
then ``verify``), called once per row with no memo, and the per-rect
measurement loops that the pipeline used before it was batched.  The
batched results must equal them bit for bit, and the beliefs must agree
with the brute-force world-set ``oracle``.
"""

import hashlib
import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import FACADE_REPORT_SHA256, random_knowledge
from dsvision import evidence, pyramid, stages
from dsvision.errors import (InvalidParamsError, NormalizationError, TotalConflictError,
                             UnknownAtomError)
from dsvision.evidence import Clause, Frame, combine_all, simple_support
from dsvision.fixtures import synthetic_facade
from dsvision.knowledge import KnowledgeSource, verify
from dsvision.oracle import OracleMass, atom_worlds, oracle_combine, oracle_verify, theta_worlds
from dsvision.pyramid import (DIAGONAL, HORIZONTAL_GRADIENT, NO_EDGE, VERTICAL_GRADIENT,
                              CandidateArea, EdgeField, Rect, feature_supports,
                              measure_candidates, run_pipeline)
from dsvision.report import format_report, report_from_result
from dsvision.stages import (FEATURE_ATOMS, FEATURE_FRAME, SIBLING_ATOMS, sibling_knowledge,
                             stage_a_belief, stage_b_belief, stage_c_belief, stage_c_conflict,
                             window_knowledge)
from test_oracle import knowledge_to_oracle

# --- scalar references ---


def _supports(frame, values):
    return [simple_support(frame, Clause.conjunction(frame, [atom]), s)
            for atom, s in values.items()]


def ref_stage_a(elong, text, lt, rt, ks):
    evidence_ = combine_all(_supports(ks.frame, {
        "elong": elong, "text": text, "lt-bound": lt, "rt-bound": rt,
    })).result
    return verify(evidence_, ks).bel


def ref_stage_b(window, v_sibl, h_sibl, ks):
    evidence_ = combine_all(_supports(ks.frame, {
        "window": window, "v-sibl": v_sibl, "h-sibl": h_sibl,
    })).result
    return verify(evidence_, ks).bel


def ref_stage_c(window, non_window, v_sibl, h_sibl, ks):
    """Stage C's belief and the conflict ``combine_all`` reports."""
    frame = ks.frame
    ms = _supports(frame, {"window": window, "v-sibl": v_sibl, "h-sibl": h_sibl})
    ms.insert(1, simple_support(frame, Clause.conjunction(frame, ["!window"]), non_window))
    outcome = combine_all(ms)
    return verify(outcome.result, ks).bel, outcome.conflict


def ref_measure_features(r, micro):
    interior = micro.directions[r.top:r.bottom, r.left:r.right]
    edge_count = int(np.count_nonzero(interior != NO_EDGE))
    hv = int(np.count_nonzero(np.isin(interior, HORIZONTAL_GRADIENT + VERTICAL_GRADIENT)))
    diag = int(np.count_nonzero(np.isin(interior, DIAGONAL)))
    return [
        max(r.height, r.width) / min(r.height, r.width),   # elongation
        edge_count / (r.height * r.width),                  # edgedness
        math.inf if diag == 0 else hv / diag,               # hv_d
        ref_side_coverage(micro, r, r.left),
        ref_side_coverage(micro, r, r.right - 1),
    ]


def ref_side_coverage(micro, r, col):
    """Fraction of the rect's rows with a vertical micro-edge within one
    pixel of the side column."""
    n = micro.directions.shape[0]
    band = micro.directions[r.top:r.bottom, max(0, col - 1):min(n, col + 2)]
    covered = int(np.count_nonzero(np.isin(band, HORIZONTAL_GRADIENT).any(axis=1)))
    return covered / r.height


# --- oracle ---


def _oracle_support(frame, atom, s, positive=True):
    return OracleMass(frame, {atom_worlds(frame, atom, positive): s,
                              theta_worlds(frame): 1.0 - s})


def _oracle_verify(ks, supports):
    """Fold the (atom, positive, s) simple supports over world sets, then
    verify against the knowledge source."""
    frame = ks.frame
    ms = [_oracle_support(frame, atom, s, positive) for atom, positive, s in supports]
    acc = ms[0]
    for m in ms[1:]:
        acc, _ = oracle_combine(acc, m)
    return oracle_verify(acc, knowledge_to_oracle(ks))


def oracle_a(elong, text, lt, rt, ks):
    supports = zip(FEATURE_ATOMS, (elong, text, lt, rt))
    return _oracle_verify(ks, [(atom, True, s) for atom, s in supports])


def oracle_b(window, v_sibl, h_sibl, ks):
    supports = zip(SIBLING_ATOMS, (window, v_sibl, h_sibl))
    return _oracle_verify(ks, [(atom, True, s) for atom, s in supports])


def oracle_c(window, non_window, v_sibl, h_sibl, ks):
    return _oracle_verify(ks, [("window", True, window), ("window", False, non_window),
                               ("v-sibl", True, v_sibl), ("h-sibl", True, h_sibl)])


def check_stages(rows_a, rows_c, window_ks, sibling_ks):
    """Batched stage A on ``rows_a`` and stages B and C on ``rows_c``
    (window, non_window, v_sibl, h_sibl): equal to the references, within
    1e-12 of the oracle, and equal to their own one-row calls."""
    columns = np.array(rows_a, dtype=np.float64).reshape(-1, 4).T
    for row, bel in zip(rows_a, stage_a_belief(*columns, window_ks=window_ks).tolist()):
        assert bel == ref_stage_a(*row, window_ks), row
        assert abs(bel - oracle_a(*row, window_ks)) <= 1e-12, row
        assert stage_a_belief(*row, window_ks=window_ks) == bel
    a, nw, v, h = np.array(rows_c, dtype=np.float64).reshape(-1, 4).T
    bel_b = stage_b_belief(a, v, h, sibling_ks).tolist()
    bel_c = stage_c_belief(a, nw, v, h, sibling_ks).tolist()
    conflict = stage_c_conflict(a, nw, v, h, sibling_ks).tolist()
    for row, b, c, k in zip(rows_c, bel_b, bel_c, conflict):
        window, non_window, v_sibl, h_sibl = row
        assert b == ref_stage_b(window, v_sibl, h_sibl, sibling_ks), row
        assert (c, k) == ref_stage_c(*row, sibling_ks), row
        assert abs(b - oracle_b(window, v_sibl, h_sibl, sibling_ks)) <= 1e-12, row
        assert abs(c - oracle_c(*row, sibling_ks)) <= 1e-12, row
        assert stage_b_belief(window, v_sibl, h_sibl, sibling_ks) == b
        assert stage_c_belief(*row, sibling_ks) == c


def cold_beliefs(ref, ks, table):
    """Each row of a support table through its scalar reference, no memo
    read."""
    return np.array([ref(*row, ks) for row in table.tolist()], dtype=np.float64)


def ref_stage_c_belief(window, non_window, v_sibl, h_sibl, ks):
    return ref_stage_c(window, non_window, v_sibl, h_sibl, ks)[0]


# supports with both zeros, and the ends of the interval
supports = st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, -0.0, 1.0, 5e-324]))


def table_values(bands):
    return sorted({value for _, value in bands} | {0.0})


class TestBatchedStages:
    def test_default_table_combinations(self):
        """Every combination of default-table supports, then every stage-A
        result with siblings in {0, 0.6} and non-window in {0, 0.5}."""
        config = pyramid.DEFAULT_CONFIG
        texture = sorted({value for _, value in config.hv_d_bands}
                         | {config.low_edgedness_belief, 0.0})
        boundary = table_values(config.boundary_bands)
        rows_a = list(itertools.product(table_values(config.elongation_bands), texture,
                                        boundary, boundary))
        assert len(rows_a) == 144
        bel_a = stage_a_belief(*np.array(rows_a).T).tolist()
        rows_c = list(itertools.product(bel_a, (0.0, 0.5), (0.0, 0.6), (0.0, 0.6)))
        check_stages(rows_a, rows_c, window_knowledge(), sibling_knowledge())

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(*[st.floats(0.0, 1.0)] * 4), min_size=1, max_size=8),
           st.lists(st.tuples(*[st.floats(0.0, 1.0)] * 4), min_size=1, max_size=8))
    def test_random_supports(self, rows_a, rows_c):
        # stage C raises on a row whose conflict is total, as combine does
        rows_c = [row for row in rows_c if row[0] * row[1] < 1.0 - evidence.TOTAL_CONFLICT_TOL]
        check_stages(rows_a, rows_c, window_knowledge(), sibling_knowledge())

    @pytest.mark.parametrize("seed", range(12))
    def test_random_knowledge_sources(self, seed):
        """Knowledge over frames whose atoms are permuted and padded with
        atoms the evidence never mentions."""
        rng = random.Random(seed)
        extra = [f"x{i}" for i in range(rng.randint(0, 2))]

        def frame(atoms):
            atoms = list(atoms) + extra
            rng.shuffle(atoms)
            return Frame(atoms)

        window_ks = random_knowledge(rng, frame(FEATURE_ATOMS))
        sibling_ks = random_knowledge(rng, frame(SIBLING_ATOMS))
        edge = (0.0, 1.0, 1e-300)
        rows_a = [tuple(rng.choice(edge) if rng.random() < 0.2 else rng.random()
                        for _ in range(4)) for _ in range(20)]
        rows_c = [(rng.random(), rng.choice((0.0, 0.5, rng.random())), rng.choice(edge),
                   rng.random()) for _ in range(20)]
        check_stages(rows_a, rows_c, window_ks, sibling_ks)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(*[supports] * 4), min_size=1, max_size=6),
           st.lists(st.tuples(st.sampled_from("abc"), st.lists(st.integers(0, 5), max_size=6)),
                    min_size=1, max_size=8),
           st.one_of(st.none(), st.integers(0, 2**32 - 1)))
    def test_memo_equals_cold_verify(self, pool, calls, seed):
        """Calls in any order, on rows drawn from a small pool so that they
        repeat, give each row the bits of its own scalar reference."""
        if seed is None:
            window_ks, sibling_ks = window_knowledge(), sibling_knowledge()
        else:
            rng = random.Random(seed)
            extra = [f"x{i}" for i in range(rng.randint(0, 2))]
            window_ks, sibling_ks = (
                random_knowledge(rng, Frame(rng.sample(atoms + extra, len(atoms + extra))))
                for atoms in (list(FEATURE_ATOMS), list(SIBLING_ATOMS)))
        for stage, picks in calls:
            table = np.array([pool[i % len(pool)] for i in picks]).reshape(-1, 4)
            if stage == "a":
                got = stage_a_belief(*table.T, window_ks=window_ks)
                want = cold_beliefs(ref_stage_a, window_ks, table)
            elif stage == "b":
                got = stage_b_belief(*table[:, :3].T, sibling_ks)
                want = cold_beliefs(ref_stage_b, sibling_ks, table[:, :3])
            else:
                table = table[table[:, 0] * table[:, 1] < 1.0 - evidence.TOTAL_CONFLICT_TOL]
                got = stage_c_belief(*table.T, sibling_ks)
                want = cold_beliefs(ref_stage_c_belief, sibling_ks, table)
            assert got.tobytes() == want.tobytes()

    def test_memo_stays_bounded(self):
        ks = random_knowledge(random.Random(7), Frame(FEATURE_ATOMS))
        rng = np.random.default_rng(7)
        for size in (1000, 3000, stages._MEMO_ROWS + 1, 10, 10):
            table = rng.random((size, 4))
            table[::3] = table[0]   # repeated rows within a call
            got = stage_a_belief(*table.T, window_ks=ks)
            assert stages._stage(ks, FEATURE_ATOMS).cache_info().currsize <= stages._MEMO_ROWS
            want = cold_beliefs(ref_stage_a, ks, table)
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("stage, row", [
        (stage_a_belief, (0.5, 0.0, 0.6, 0.0)),
        (stage_b_belief, (0.4, 0.0, 0.6)),
        (stage_c_belief, (0.4, 0.0, 0.0, 0.6)),
        (stage_c_conflict, (0.0, 0.5, 0.6, 0.0)),
    ], ids=["a", "b", "c", "c-conflict"])
    def test_signed_zeros_share_an_entry(self, stage, row, monkeypatch):
        """A zero support is the vacuous mass whatever its sign, so the row
        with -0.0 gets the bits of the row with 0.0 from the same cache
        entry, with no second chain run."""
        calls = []

        def counted(ms):
            calls.append(ms)
            return combine_all(ms)
        stages._stage.cache_clear()
        monkeypatch.setattr(stages, "combine_all", counted)
        first = stage(*row)
        assert len(calls) == 1
        second = stage(*(-s if s == 0.0 else s for s in row))
        assert len(calls) == 1
        assert first.hex() == second.hex()

    def test_default_knowledge_built_once(self):
        # one shared source per process; it is frozen, so sharing is safe
        assert window_knowledge() is window_knowledge()
        assert sibling_knowledge() is sibling_knowledge()

    def test_scalar_call_returns_float(self):
        assert type(stage_a_belief(0.5, 0.4, 0.6, 0.6)) is float
        assert type(stage_c_belief(0.5, 0.5, 0.6, 0.0)) is float
        assert type(stage_c_conflict(0.5, 0.5, 0.6, 0.0)) is float

    def test_empty_batch(self):
        empty = np.zeros(0)
        assert stage_a_belief(empty, empty, empty, empty).shape == (0,)
        assert stage_b_belief(empty, empty, empty).shape == (0,)
        assert stage_c_belief(empty, empty, empty, empty).shape == (0,)
        micro = EdgeField(np.full((16, 16), NO_EDGE, dtype=np.int8))
        rects = np.zeros((4, 0), dtype=np.intp)
        supports, bel_a = pyramid.stage_a_beliefs(rects, micro, window_knowledge())
        assert supports.shape == (4, 0) and bel_a.shape == (0,)
        assert pyramid.stage_b_beliefs(empty, empty, empty, sibling_knowledge()).shape == (0,)
        bel_c, conflict = pyramid.stage_c_beliefs(empty, empty, empty, empty, sibling_knowledge())
        assert bel_c.shape == conflict.shape == (0,)

    def test_total_conflict(self):
        stage_c_belief(0.5, 0.5, 0.0, 0.0)   # known rows do not skip the check
        with pytest.raises(TotalConflictError):
            stage_c_belief(1.0, 1.0, 0.0, 0.0)
        with pytest.raises(TotalConflictError):
            stage_c_belief([0.5, 1.0], [0.5, 1.0], [0.0, 0.0], [0.0, 0.0])
        with pytest.raises(TotalConflictError):
            stage_c_conflict(1.0, 1.0, 0.0, 0.0)

    @pytest.mark.parametrize("s", [-0.1, 1.5, math.nan])
    def test_support_outside_unit_interval(self, s):
        with pytest.raises(NormalizationError):
            stage_a_belief([0.5, 0.5], [0.4, s], 0.6, 0.6)
        with pytest.raises(NormalizationError):
            stage_c_belief(0.5, s, 0.0, 0.0)

    def test_knowledge_frame_missing_an_atom(self):
        short = Frame(["elong", "text", "lt-bound"])
        ks = KnowledgeSource.build("window", short, [("elong", 0.5), ("THETA", 0.5)])
        with pytest.raises(UnknownAtomError):
            stage_a_belief(0.5, 0.4, 0.6, 0.6, window_ks=ks)
        for _ in range(2):   # also with no rows to verify, every time
            with pytest.raises(UnknownAtomError):
                stage_a_belief(*[np.zeros(0)] * 4, window_ks=ks)
        no_window = Frame(["v-sibl", "h-sibl"])
        ks = KnowledgeSource.build("window", no_window, [("v-sibl", 1.0)])
        with pytest.raises(UnknownAtomError):
            stage_c_belief(0.5, 0.5, 0.6, 0.6, ks)
        with pytest.raises(UnknownAtomError):
            stage_b_belief(0.5, 0.6, 0.6, ks)


class TestPipelineBeliefs:
    def test_facade_candidates_match_references(self):
        window_ks, sibling_ks = window_knowledge(), sibling_knowledge()
        result = run_pipeline(synthetic_facade().image)
        assert any(c.conflict > 0 for c in result.candidates)
        for c in result.candidates:
            assert c.bel_a == ref_stage_a(*c.supports, window_ks)
            assert c.bel_b == ref_stage_b(c.bel_a, c.v_sibl, c.h_sibl, sibling_ks)
            assert (c.bel_c, c.conflict) == ref_stage_c(c.bel_a, c.non_window, c.v_sibl,
                                                        c.h_sibl, sibling_ks)

    @settings(max_examples=15, deadline=None)
    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 0.9), st.floats(0.0, 1.0))
    def test_configs_match_references(self, quality_weight, sibling_support,
                                      non_window_support, survivor_threshold):
        """Beliefs through the memo, whatever rows earlier runs left in it."""
        config = pyramid.PipelineConfig(
            quality_weight=quality_weight, sibling_support=sibling_support,
            non_window_support=non_window_support, survivor_threshold=survivor_threshold)
        window_ks, sibling_ks = window_knowledge(), sibling_knowledge()
        for c in run_pipeline(synthetic_facade().image, config).candidates:
            assert c.bel_a == ref_stage_a(*c.supports, window_ks)
            assert c.bel_b == ref_stage_b(c.bel_a, c.v_sibl, c.h_sibl, sibling_ks)
            assert (c.bel_c, c.conflict) == ref_stage_c(c.bel_a, c.non_window, c.v_sibl,
                                                        c.h_sibl, sibling_ks)

    def test_combine_all_once_per_distinct_row(self, monkeypatch):
        """With the memos cleared, the bundled facade runs the clause chain
        once for each distinct row of each stage (2, 3 and 3 rows), and a
        second run not at all."""
        calls = []

        def counted(ms):
            calls.append(len(ms))
            return combine_all(ms)

        monkeypatch.setattr(stages, "combine_all", counted)
        stages._stage.cache_clear()
        image = synthetic_facade().image
        for want in ([4] * 2 + [3] * 3 + [4] * 3, []):
            calls.clear()
            report = format_report(report_from_result(run_pipeline(image))).encode()
            assert hashlib.sha256(report).hexdigest() == FACADE_REPORT_SHA256
            assert calls == want


def random_edge_field(rng, side):
    directions = rng.integers(-1, 8, size=(side, side)).astype(np.int8)
    directions[rng.random((side, side)) < rng.random()] = NO_EDGE
    return EdgeField(directions)


class TestBatchedMeasurements:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([8, 16, 32, 128]))
    def test_random_fields_and_rects(self, seed, side):
        rng = np.random.default_rng(seed)
        micro = random_edge_field(rng, side)
        rects = []
        for _ in range(int(rng.integers(1, 30))):
            top, left = (int(v) for v in rng.integers(0, side, size=2))
            height = int(rng.integers(1, side - top + 1))
            width = int(rng.integers(1, side - left + 1))
            rects.append(Rect(top, left, height, width))
        # rects against the first and the last column, and the whole base
        rects += [Rect(0, 0, side, 1), Rect(1, side - 1, side - 1, 1),
                  Rect(0, 0, side, side), Rect(2, side - 3, 3, 3)]
        got = measure_candidates(pyramid._rects([CandidateArea(0, r) for r in rects]), micro)
        assert got.T.tolist() == [ref_measure_features(r, micro) for r in rects]

    def test_facade_candidates(self):
        result = run_pipeline(synthetic_facade().image)
        got = measure_candidates(pyramid._rects(result.candidates), result.micro)
        assert got.T.tolist() == [ref_measure_features(c.rect, result.micro)
                                  for c in result.candidates]
        # stage A stores each candidate's supports as a tuple of floats
        supports = list(zip(*feature_supports(got, pyramid.DEFAULT_CONFIG).tolist()))
        assert [c.supports for c in result.candidates] == supports
        assert all(type(s) is float for c in result.candidates for s in c.supports)


THETA = Clause.theta(FEATURE_FRAME)
_PAIR = np.array([0.5, 0.6])
_TRIPLE = np.array([0.1, 0.2, 0.3])


@pytest.mark.parametrize("call, error", [
    (lambda: stage_a_belief(_PAIR, _TRIPLE, 0.1, 0.1), InvalidParamsError),
    (lambda: stage_a_belief("x", 0.1, 0.1, 0.1), InvalidParamsError),
    (lambda: stage_a_belief(np.array([0.5 + 3j]), 0.1, 0.1, 0.1), InvalidParamsError),
    (lambda: stage_b_belief(0.5, _PAIR, _TRIPLE), InvalidParamsError),
    (lambda: stage_b_belief(0.5, [0.1, [0.2]], 0.1), InvalidParamsError),
    (lambda: stage_c_belief(_PAIR, 0.1, _TRIPLE, 0.0), InvalidParamsError),
    (lambda: stage_c_belief(0.5, {}, 0.1, 0.1), InvalidParamsError),
    (lambda: stage_c_conflict(0.5, 0.1, _PAIR, _TRIPLE), InvalidParamsError),
    (lambda: stage_c_conflict(0.5, 0.1, 0.1, "x"), InvalidParamsError),
    (lambda: stage_c_conflict(0.5, 0.1, 0.1, np.array(0.2 + 0j)), InvalidParamsError),
    (lambda: evidence.MassFunction(FEATURE_FRAME, {THETA: "1"}), NormalizationError),
    (lambda: evidence.MassFunction(FEATURE_FRAME, {THETA: None}), NormalizationError),
    (lambda: evidence.MassFunction(FEATURE_FRAME, {THETA: np.ones(2)}), NormalizationError),
    (lambda: KnowledgeSource.build("h", FEATURE_FRAME, [("elong", "x")]), NormalizationError),
    (lambda: KnowledgeSource.build("h", FEATURE_FRAME, [("elong", 0.5), ("THETA", "x")]),
     NormalizationError),
    (lambda: KnowledgeSource("h", FEATURE_FRAME, (), None), NormalizationError),
    (lambda: KnowledgeSource.build("h", FEATURE_FRAME, [("elong", np.ones(2))]),
     NormalizationError),
    (lambda: simple_support(FEATURE_FRAME, THETA, "0.5"), NormalizationError),
    (lambda: simple_support(FEATURE_FRAME, THETA, None), NormalizationError),
    (lambda: simple_support(FEATURE_FRAME, THETA, 0.5j), NormalizationError),
    (lambda: simple_support(FEATURE_FRAME, THETA, np.ones(2)), NormalizationError),
], ids=["a-shapes", "a-text", "a-complex", "b-shapes", "b-ragged", "c-shapes",
        "c-dict", "conflict-shapes", "conflict-text", "conflict-complex", "mass-text",
        "mass-none", "mass-array", "knowledge-text", "knowledge-theta-text",
        "knowledge-theta-none", "knowledge-array", "support-text", "support-none",
        "support-complex", "support-array"])
def test_inputs_not_numbers_raise_dsvision_errors(call, error):
    # each used to escape as numpy's ValueError or a bare TypeError, and a
    # complex support was cast to its real part with only a warning
    with pytest.raises(error, match="(not numbers of one shape|is not a number)"):
        call()


@pytest.mark.parametrize("call", [
    lambda: stage_a_belief(0.5, 0.4, 0.6, 0.6, window_ks="x"),
    lambda: stage_b_belief(0.5, 0.6, 0.6, sibling_ks=window_knowledge),
    lambda: stage_c_belief(0.5, 0.5, 0.6, 0.6, sibling_ks=0),
    lambda: stage_c_conflict(0.5, 0.5, 0.6, 0.6, sibling_ks=[]),
    lambda: run_pipeline(synthetic_facade().image, None),
    lambda: run_pipeline(synthetic_facade().image, {"survivor_threshold": 0.5}),
    lambda: run_pipeline(synthetic_facade().image, window_ks="x"),
], ids=["a-text", "b-function", "c-int", "conflict-list", "config-none", "config-dict",
        "pipeline-source-text"])
def test_wrong_type_source_or_config_raises(call):
    # each used to escape as a bare AttributeError
    with pytest.raises(InvalidParamsError, match="is not a (KnowledgeSource|PipelineConfig)$"):
        call()
