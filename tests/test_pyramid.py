import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import FACADE_OVERLAY_SHA256, FACADE_REPORT_SHA256
from dsvision.errors import (BadDimensionsError, InvalidParamsError, OutOfRangeError, ParseError,
                             RectOutOfBoundsError)
from dsvision.fixtures import synthetic_facade
from dsvision.pyramid import (
    _COLLINEAR_PAIRS,
    NO_EDGE,
    CandidateArea,
    EdgeField,
    EdgeSegment,
    PipelineConfig,
    Rect,
    _components,
    aggregate_long_edges,
    aggregate_short_edges,
    build_pyramid,
    building_boundary,
    extract_micro_edges,
    find_window_candidates,
    measure_features,
    parse_config,
    run_pipeline,
    sibling_search,
)
from dsvision.report import format_report, report_from_result, write_overlay


def short_edge_at(micro, row6, col6, direction, support=2):
    """Scalar reference: one short-edge cell from its 2x2 child block."""
    block = micro.directions[2 * row6:2 * row6 + 2, 2 * col6:2 * col6 + 2]
    count = int(np.count_nonzero(block == direction))
    if count >= support:
        return EdgeSegment(6, row6, col6, direction, count)
    return None


def long_edge_at(short_set, row5, col5, direction, support=2):
    """Scalar reference: one long-edge cell from its 2x2 child block of
    short edges, which must hold a collinear pair."""
    present = [
        (dr, dc)
        for dr in (0, 1) for dc in (0, 1)
        if (2 * row5 + dr, 2 * col5 + dc, direction) in short_set
    ]
    if len(present) < support:
        return None
    cells = set(present)
    for pair in _COLLINEAR_PAIRS[direction]:
        if cells.issuperset(pair):
            return EdgeSegment(5, row5, col5, direction, len(present))
    return None


def scalar_short_edges(micro, support):
    n6 = micro.directions.shape[0] // 2
    segments = (short_edge_at(micro, r, c, d, support)
                for r in range(n6) for c in range(n6) for d in range(8))
    return [s for s in segments if s is not None]


def scalar_long_edges(short_set, n5, support):
    segments = (long_edge_at(short_set, r, c, d, support)
                for r in range(n5) for c in range(n5) for d in range(8))
    return [s for s in segments if s is not None]


def as_tuples(segments):
    # the scalar references fix the level at 6 and 5; compare the rest, in order
    return [(s.row, s.col, s.direction, s.support_count) for s in segments]


def random_image(seed, side):
    """Pixel noise or a blocky piecewise-constant image, whose block edges
    line up into long straight runs."""
    rng = np.random.default_rng(seed)
    if seed % 2:
        return rng.uniform(0, 255, size=(side, side))
    cell = 1 << int(rng.integers(1, 4))
    coarse = rng.choice([0.0, 255.0], size=(max(side // cell, 1),) * 2)
    return np.kron(coarse, np.ones((cell, cell)))[:side, :side]


def step_image(side=16, column=8, low=0.0, high=255.0):
    image = np.full((side, side), low)
    image[:, column:] = high
    return image


class TestBuildPyramid:
    def test_128_base_unchanged(self):
        image = np.arange(128 * 128, dtype=np.float64).reshape(128, 128) % 251
        p = build_pyramid(image)
        assert p.base_level == 7
        assert np.array_equal(p.base, image)

    def test_512_reduces_to_128(self):
        image = np.full((512, 512), 77.0)
        p = build_pyramid(image)
        assert p.base.shape == (128, 128)
        assert np.all(p.base == 77.0)

    def test_bad_dimensions(self):
        with pytest.raises(BadDimensionsError):
            build_pyramid(np.zeros((100, 100)))
        with pytest.raises(BadDimensionsError):
            build_pyramid(np.zeros((4, 4)))
        with pytest.raises(BadDimensionsError):
            build_pyramid(np.zeros((16, 32)))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_pixel_rejected(self, value):
        image = np.zeros((16, 16))
        image[3, 5] = value
        with pytest.raises(OutOfRangeError):
            build_pyramid(image)
        with pytest.raises(OutOfRangeError):
            run_pipeline(image)

    def test_parent_cells_average_children(self):
        rng = np.random.default_rng(5)
        image = rng.uniform(0, 255, size=(16, 16))
        p = build_pyramid(image)
        coarse = p.levels[p.base_level - 1]
        assert coarse[3, 2] == pytest.approx(image[6:8, 4:6].mean())


class TestExtractMicroEdges:
    def test_constant_image_no_edges(self):
        p = build_pyramid(np.full((16, 16), 128.0))
        assert extract_micro_edges(p).count() == 0

    def test_vertical_step(self):
        p = build_pyramid(step_image())
        micro = extract_micro_edges(p)
        # the 3x3 kernel responds in the two columns flanking the step
        assert np.all(micro.directions[1:15, 7:9] == 0)
        assert np.allclose(micro.magnitudes[1:15, 7:9], 4 * 255.0)
        assert micro.count() == 2 * 14

    def test_reversed_step_opposite_polarity(self):
        p = build_pyramid(step_image(low=255.0, high=0.0))
        micro = extract_micro_edges(p)
        assert micro.directions[5, 7] == 4

    def test_border_cells_emit_nothing(self):
        p = build_pyramid(step_image())
        micro = extract_micro_edges(p)
        assert np.all(micro.directions[0, :] == NO_EDGE)
        assert np.all(micro.directions[:, -1] == NO_EDGE)

    def test_threshold_suppresses_weak_edges(self):
        p = build_pyramid(step_image(low=100.0, high=105.0))
        micro = extract_micro_edges(p, PipelineConfig(edge_threshold=32.0))
        assert micro.count() == 0


def edge_field(side, cells, direction=2):
    directions = np.full((side, side), NO_EDGE, dtype=np.int8)
    magnitudes = np.zeros((side, side))
    for r, c in cells:
        directions[r, c] = direction
        magnitudes[r, c] = 100.0
    return EdgeField(directions, magnitudes)


class TestAggregateShortEdges:
    def test_unanimous_block(self):
        p = build_pyramid(np.zeros((16, 16)))
        micro = edge_field(16, [(4, 6), (4, 7), (5, 6), (5, 7)])
        short = aggregate_short_edges(p, micro)
        assert short == [EdgeSegment(3, 2, 3, 2, 4)]

    def test_single_child_below_threshold(self):
        p = build_pyramid(np.zeros((16, 16)))
        micro = edge_field(16, [(4, 6)])
        assert aggregate_short_edges(p, micro) == []

    def test_step_fixture_gives_unbroken_column(self):
        p = build_pyramid(step_image())
        micro = extract_micro_edges(p)
        short = aggregate_short_edges(p, micro)
        cells = {(s.row, s.col) for s in short if s.direction == 0}
        # both edge columns 7 and 8 fall in level-6 column 3 or 4
        for row in range(1, 7):
            assert (row, 3) in cells or (row, 4) in cells

    def test_single_cell_recompute_matches(self):
        fx = synthetic_facade()
        p = build_pyramid(fx.image)
        micro = extract_micro_edges(p)
        short = aggregate_short_edges(p, micro)
        listed = {(s.row, s.col, s.direction): s.support_count for s in short}
        for row6 in range(0, 64, 7):
            for col6 in range(0, 64, 5):
                for d in range(8):
                    seg = short_edge_at(micro, row6, col6, d)
                    if seg is None:
                        assert (row6, col6, d) not in listed
                    else:
                        assert listed[(row6, col6, d)] == seg.support_count

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([8, 16, 32, 64, 128, 256]),
           st.integers(1, 5), st.integers(1, 5), st.sampled_from([8.0, 32.0, 200.0]))
    def test_vectorized_equals_scalar_reference(self, seed, side, short_support,
                                                long_support, threshold):
        config = PipelineConfig(edge_threshold=threshold, short_support=short_support,
                                long_support=long_support)
        p = build_pyramid(random_image(seed, side))
        micro = extract_micro_edges(p, config)
        short = aggregate_short_edges(p, micro, config)
        assert as_tuples(short) == as_tuples(scalar_short_edges(micro, short_support))
        assert all(s.level == p.base_level - 1 for s in short)
        long_edges = aggregate_long_edges(p, short, config)
        short_set = {(s.row, s.col, s.direction) for s in short}
        n5 = p.base.shape[0] // 4
        assert as_tuples(long_edges) == as_tuples(scalar_long_edges(short_set, n5, long_support))
        assert all(s.level == p.base_level - 2 for s in long_edges)


class TestAggregateLongEdges:
    def test_horizontally_adjacent_children(self):
        p = build_pyramid(np.zeros((16, 16)))
        short = [EdgeSegment(3, 2, 2, 2, 2), EdgeSegment(3, 2, 3, 2, 2)]
        long_edges = aggregate_long_edges(p, short)
        assert long_edges == [EdgeSegment(2, 1, 1, 2, 2)]

    def test_diagonal_children_fail_collinearity(self):
        p = build_pyramid(np.zeros((16, 16)))
        short = [EdgeSegment(3, 2, 2, 2, 2), EdgeSegment(3, 3, 3, 2, 2)]
        assert aggregate_long_edges(p, short) == []

    def test_vertical_direction_wants_same_column(self):
        p = build_pyramid(np.zeros((16, 16)))
        short = [EdgeSegment(3, 2, 2, 0, 2), EdgeSegment(3, 3, 2, 0, 2)]
        assert aggregate_long_edges(p, short) == [EdgeSegment(2, 1, 1, 0, 2)]
        short_row = [EdgeSegment(3, 2, 2, 0, 2), EdgeSegment(3, 2, 3, 0, 2)]
        assert aggregate_long_edges(p, short_row) == []

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([8, 16, 32, 64, 128]),
           st.floats(0.0, 1.0), st.integers(1, 5))
    def test_random_short_sets_match_scalar_reference(self, seed, side, density, support):
        rng = np.random.default_rng(seed)
        n6 = side // 2
        present = rng.random((n6, n6, 8)) < density
        cells = rng.permutation(np.argwhere(present))   # the list order must not matter
        short = [EdgeSegment(6, int(r), int(c), int(d), 2) for r, c, d in cells]
        p = build_pyramid(np.zeros((side, side)))
        long_edges = aggregate_long_edges(p, short, PipelineConfig(long_support=support))
        short_set = {(s.row, s.col, s.direction) for s in short}
        assert as_tuples(long_edges) == as_tuples(scalar_long_edges(short_set, n6 // 2, support))

    def test_step_fixture_cascades_to_long_column(self):
        p = build_pyramid(step_image())
        micro = extract_micro_edges(p)
        short = aggregate_short_edges(p, micro)
        long_edges = aggregate_long_edges(p, short)
        vertical = [s for s in long_edges if s.direction == 0]
        assert {s.col for s in vertical} == {1, 2}
        assert len({s.row for s in vertical}) >= 2

    def test_single_cell_recompute_matches(self):
        fx = synthetic_facade()
        p = build_pyramid(fx.image)
        micro = extract_micro_edges(p)
        short = aggregate_short_edges(p, micro)
        long_edges = aggregate_long_edges(p, short)
        short_set = {(s.row, s.col, s.direction) for s in short}
        listed = {(s.row, s.col, s.direction) for s in long_edges}
        for row5 in range(0, 32, 3):
            for col5 in range(0, 32, 2):
                for d in range(8):
                    seg = long_edge_at(short_set, row5, col5, d)
                    assert (seg is not None) == ((row5, col5, d) in listed)


def test_components_keep_index_order():
    # groups ordered by their lowest member, members ascending, whatever
    # the link order: building_boundary's tie-break relies on it
    assert _components(6, [(3, 0), (5, 1), (4, 1)]) == [[0, 3], [1, 4, 5], [2]]
    assert _components(0, []) == []


class TestFindWindowCandidates:
    def test_two_opposite_edges_give_one_candidate(self):
        # single-row edge lines at level-5 rows 1 and 3 sit 8 pixels apart
        long_edges = [EdgeSegment(5, 1, c, 6, 2) for c in range(2, 6)]
        long_edges += [EdgeSegment(5, 3, c, 2, 2) for c in range(2, 6)]
        cands = find_window_candidates(long_edges)
        assert len(cands) == 1
        assert cands[0].rect.height == 8
        assert cands[0].rect == Rect(6, 8, 8, 16)

    def test_no_edges_no_candidates(self):
        assert find_window_candidates([]) == []

    def test_same_polarity_pairs_rejected(self):
        long_edges = [EdgeSegment(5, 1, c, 6, 2) for c in range(2, 6)]
        long_edges += [EdgeSegment(5, 3, c, 6, 2) for c in range(2, 6)]
        assert find_window_candidates(long_edges) == []

    def test_separation_range_enforced(self):
        make = lambda rows: ([EdgeSegment(5, rows[0], 2, 6, 2)]
                             + [EdgeSegment(5, rows[1], 2, 2, 2)])
        assert find_window_candidates(make((1, 1))) == []          # zero separation
        assert len(find_window_candidates(make((1, 3)))) == 1
        assert find_window_candidates(make((1, 30))) == []         # beyond max

    def test_no_horizontal_overlap_rejected(self):
        long_edges = [EdgeSegment(5, 1, 2, 6, 2), EdgeSegment(5, 3, 9, 2, 2)]
        assert find_window_candidates(long_edges) == []

    def test_nested_rectangles_deduplicated(self):
        # three parallel lines: the outermost pair is dropped
        long_edges = [EdgeSegment(5, 1, c, 6, 2) for c in range(2, 6)]
        long_edges += [EdgeSegment(5, 3, c, 2, 2) for c in range(2, 6)]
        long_edges += [EdgeSegment(5, 5, c, 2, 2) for c in range(2, 6)]
        cands = find_window_candidates(long_edges)
        heights = sorted(c.rect.height for c in cands)
        assert heights == [8]

    def test_facade_covers_all_planted_rectangles(self):
        fx = synthetic_facade()
        result = run_pipeline(fx.image)
        assert len(result.candidates) >= 12
        for top, left, height, width in fx.windows:
            planted = Rect(top, left, height, width)
            assert any(_overlap(c.rect, planted) >= 0.4 * height * width
                       for c in result.candidates), planted


def _overlap(a: Rect, b: Rect) -> int:
    dy = min(a.bottom, b.bottom) - max(a.top, b.top)
    dx = min(a.right, b.right) - max(a.left, b.left)
    return max(0, dy) * max(0, dx)


class TestMeasureFeatures:
    def test_elongation_arithmetic(self):
        p = build_pyramid(np.zeros((32, 32)))
        micro = edge_field(32, [])
        c = CandidateArea(1, Rect(4, 4, 20, 5))
        m = measure_features(p, c, micro)
        assert m.elongation == pytest.approx(4.0)

    def test_empty_interior(self):
        p = build_pyramid(np.zeros((32, 32)))
        micro = edge_field(32, [])
        m = measure_features(p, CandidateArea(1, Rect(4, 4, 8, 8)), micro)
        assert m.edgedness == 0.0
        assert m.hv_d == np.inf

    def test_out_of_bounds(self):
        p = build_pyramid(np.zeros((16, 16)))
        micro = edge_field(16, [])
        with pytest.raises(RectOutOfBoundsError):
            measure_features(p, CandidateArea(1, Rect(10, 10, 8, 8)), micro)

    def test_painted_window_is_axis_dominated(self):
        fx = synthetic_facade()
        result = run_pipeline(fx.image)
        top, left, height, width = fx.windows[0]
        cand = next(c for c in result.candidates
                    if c.rect == Rect(top, left, height, width))
        assert cand.measurements.hv_d >= 4
        assert cand.measurements.left_boundary >= 0.75
        assert cand.measurements.right_boundary >= 0.75


def make_candidate(cid, top, left, height=12, width=16, bel_a=0.4):
    c = CandidateArea(cid, Rect(top, left, height, width))
    c.bel_a = bel_a
    return c


class TestSiblingSearch:
    def test_single_candidate_no_siblings(self):
        cands = [make_candidate(1, 10, 10)]
        sibling_search(cands)
        assert (cands[0].v_sibl, cands[0].h_sibl) == (0.0, 0.0)

    def test_row_of_three(self):
        cands = [make_candidate(i + 1, 10, 10 + 24 * i) for i in range(3)]
        sibling_search(cands)
        for c in cands:
            assert c.h_sibl == 0.6
            assert c.v_sibl == 0.0

    def test_grid_gets_both(self):
        cands = [
            make_candidate(4 * r + col + 1, 10 + 20 * r, 10 + 24 * col)
            for r in range(3) for col in range(4)
        ]
        sibling_search(cands)
        assert all(c.v_sibl == 0.6 and c.h_sibl == 0.6 for c in cands)

    def test_losers_do_not_count(self):
        strong = make_candidate(1, 10, 10)
        weak = make_candidate(2, 10, 40, bel_a=0.1)
        sibling_search([strong, weak])
        assert strong.h_sibl == 0.0

    def test_overlapping_extents_rejected(self):
        a = make_candidate(1, 10, 10)
        b = make_candidate(2, 10, 18)  # horizontally overlapping
        sibling_search([a, b])
        assert a.h_sibl == 0.0 and b.h_sibl == 0.0


class TestBuildingBoundary:
    def make_cluster(self, row, col, size=6):
        return [EdgeSegment(5, row, col + i, 2, 2) for i in range(size)]

    def test_inside_and_outside(self):
        long_edges = [seg for row in (2, 4, 6, 8)
                      for seg in self.make_cluster(row, 2)]
        long_edges += [EdgeSegment(5, 25, 25, 2, 2)]  # lone distant edge
        inside = make_candidate(1, 16, 12)
        outside = make_candidate(2, 100, 100)
        building_boundary(long_edges, [inside, outside])
        assert inside.non_window == 0.0
        assert outside.non_window == 0.5

    def test_no_edges_all_zero(self):
        c = make_candidate(1, 10, 10)
        c.non_window = 0.5
        building_boundary([], [c])
        assert c.non_window == 0.0

    def test_facade_decoy_flagged(self):
        fx = synthetic_facade()
        result = run_pipeline(fx.image)
        decoy_rect = Rect(*fx.decoy)
        decoy = next(c for c in result.candidates if c.rect == decoy_rect)
        assert decoy.non_window == 0.5
        windows = [c for c in result.candidates
                   if any(c.rect == Rect(*w) for w in fx.windows)]
        assert len(windows) == 12
        assert all(c.non_window == 0.0 for c in windows)


class TestStagedBeliefInvariants:
    def test_stage_c_equals_b_without_conflict(self):
        fx = synthetic_facade()
        result = run_pipeline(fx.image)
        for c in result.candidates:
            if c.non_window == 0.0:
                assert c.bel_c == pytest.approx(c.bel_b, abs=1e-12)
            else:
                assert c.bel_c <= c.bel_b + 1e-12

    def test_facade_output_pinned(self, tmp_path):
        result = run_pipeline(synthetic_facade().image)
        report = format_report(report_from_result(result)).encode()
        assert hashlib.sha256(report).hexdigest() == FACADE_REPORT_SHA256
        overlay = tmp_path / "overlay.ppm"
        write_overlay(result.pyramid.base, result.candidates, str(overlay))
        assert hashlib.sha256(overlay.read_bytes()).hexdigest() == FACADE_OVERLAY_SHA256


class TestParseConfig:
    def test_defaults(self):
        assert parse_config("") == PipelineConfig()

    def test_overrides(self):
        text = """
        edge_threshold = 48    # steeper contrast needed
        pair_max_sep = 40
        survivor_threshold = 0.25
        boundary_bands = 0.5:0.6,0.2:0.3
        """
        config = parse_config(text)
        assert config.edge_threshold == 48.0
        assert config.pair_max_sep == 40
        assert config.survivor_threshold == 0.25
        assert config.tables.boundary_bands == ((0.5, 0.6), (0.2, 0.3))

    def test_unknown_key(self):
        with pytest.raises(ParseError):
            parse_config("frobnicate = 3")

    def test_workers_rejected(self):
        # the pipeline is one sequential path; a worker count is not a setting
        with pytest.raises(ParseError, match="line 2: unknown key 'workers'"):
            parse_config("edge_threshold = 32\nworkers = 4\n")

    @pytest.mark.parametrize("line", [
        "edge_threshold = nan",
        "survivor_threshold = inf",
        "quality_weight = -inf",
        "pair_min_sep = 50",             # above the default pair_max_sep of 48
        "short_support = 0",
        "long_support = -1",
        "pair_min_sep = -4",
        "sibling_tolerance = -1",
        "cluster_distance = -2",
        "boundary_bands = 0.75:1.5",
        "elongation_bands = 3:-0.1",
        "hv_d_bands = 4:nan",
        "boundary_bands = nan:0.6",
        "low_edgedness = nan",
        "low_edgedness_belief = 2",
        "quality_weight = 1.5",
        "sibling_support = -0.1",
        "non_window_support = 2",
    ])
    def test_invalid_values(self, line):
        with pytest.raises(InvalidParamsError):
            parse_config(line)

    def test_bad_value(self):
        with pytest.raises(ParseError):
            parse_config("edge_threshold = many")
