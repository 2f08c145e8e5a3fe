import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import FACADE_OVERLAY_SHA256, FACADE_REPORT_SHA256
from dsvision import pyramid
from dsvision.errors import (BadDimensionsError, DSVisionError, InvalidParamsError,
                             OutOfRangeError, ParseError, RectOutOfBoundsError)
from dsvision.fixtures import synthetic_facade
from dsvision.pyramid import (
    _COLLINEAR_PAIRS,
    NO_EDGE,
    CandidateArea,
    EdgeField,
    PipelineConfig,
    VERTICAL_GRADIENT,
    Rect,
    _edge_lines,
    _label,
    aggregate_long_edges,
    aggregate_short_edges,
    build_pyramid,
    building_boundary,
    extract_micro_edges,
    find_window_candidates,
    measure_candidates,
    parse_config,
    run_pipeline,
    sibling_search,
)
from dsvision.report import format_report, report_from_result, write_overlay


def edges(rows):
    """(row, col, direction, count) edge rows as the aggregates return them."""
    return np.array(rows, dtype=np.intp).reshape(-1, 4)


def as_tuples(rows):
    return [tuple(r) for r in rows.tolist()]


def short_edge_at(micro, row6, col6, direction, support=2):
    """Scalar reference: one short-edge cell from its 2x2 child block."""
    block = micro.directions[2 * row6:2 * row6 + 2, 2 * col6:2 * col6 + 2]
    count = int(np.count_nonzero(block == direction))
    if count >= support:
        return (row6, col6, direction, count)
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
            return (row5, col5, direction, len(present))
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


def ref_components(n, links):
    """Reference union-find: connected components of the indices 0..n-1
    under the (i, j) links, members ascending, ordered by lowest member."""
    parent = list(range(n))

    def root(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j in links:
        parent[root(i)] = root(j)
    groups = {}
    for i in range(n):
        groups.setdefault(root(i), []).append(i)
    return list(groups.values())


def ref_edge_runs(long_edges, directions):
    """Reference: same-row, same-direction long edges merged into maximal
    horizontal runs (direction, row, col_start, col_end)."""
    by_row = {}
    for row, col, direction, _ in long_edges:
        if direction in directions:
            by_row.setdefault((direction, row), []).append(col)
    runs = []
    for (d, row), cols in sorted(by_row.items()):
        cols = sorted(set(cols))
        start = prev = cols[0]
        for c in cols[1:]:
            if c == prev + 1:
                prev = c
            else:
                runs.append((d, row, start, prev))
                start = prev = c
        runs.append((d, row, start, prev))
    return runs


def ref_edge_lines(long_edges):
    """Reference: runs on adjacent rows that overlap in columns, fused by
    testing every pair of runs; (direction, row_min, row_max, col_start,
    col_end) tuples sorted by (row_min, col_start, direction)."""
    runs = ref_edge_runs(long_edges, VERTICAL_GRADIENT)
    links = (
        (i, j)
        for i, (d1, row1, s1, e1) in enumerate(runs)
        for j, (d2, row2, s2, e2) in enumerate(runs[i + 1:], i + 1)
        if d2 == d1 and abs(row2 - row1) == 1 and s1 <= e2 and s2 <= e1
    )
    lines = []
    for group in ref_components(len(runs), links):
        members = [runs[i] for i in group]
        rows = [row for _, row, _, _ in members]
        lines.append((members[0][0], min(rows), max(rows),
                      min(s for _, _, s, _ in members), max(e for _, _, _, e in members)))
    return sorted(lines, key=lambda ln: (ln[1], ln[3], ln[0]))


def ref_find_window_candidates(long_edges, config):
    """Scalar reference: every opposite-polarity line pair in range, then a
    pairwise scan that drops each rect holding another."""
    lines = ref_edge_lines(long_edges)
    rects = set()
    for i, (da, ra0, ra1, sa, ea) in enumerate(lines):
        for db, rb0, rb1, sb, eb in lines[i + 1:]:
            row_a, row_b = 2 * (ra0 + ra1 + 1), 2 * (rb0 + rb1 + 1)
            sep = abs(row_b - row_a)
            lo, hi = max(sa, sb), min(ea, eb)
            if (db == (da + 4) % 8
                    and config.pair_min_sep <= sep <= config.pair_max_sep and lo <= hi):
                rects.add(Rect(min(row_a, row_b), lo * 4, sep, (hi - lo + 1) * 4))

    def contains(r, o):
        return (r.top <= o.top and r.left <= o.left
                and r.bottom >= o.bottom and r.right >= o.right)

    rects = sorted(rects, key=lambda r: (r.top, r.left, r.height, r.width))
    kept = [r for r in rects if not any(o != r and contains(r, o) for o in rects)]
    return list(enumerate(kept, 1))


def ref_building_box(long_edges, dist):
    """Reference: the (top, bottom, left, right) pixel box of the densest
    cluster of long-edge cells, linked by a scan of the row-sorted cells;
    None without long edges."""
    cells = sorted({(row, col) for row, col, _, _ in long_edges})
    if not cells:
        return None

    def links():
        for i, (r1, c1) in enumerate(cells):
            for j in range(i + 1, len(cells)):
                r2, c2 = cells[j]
                if r2 - r1 > dist:
                    break  # cells are sorted by row
                if abs(c2 - c1) <= dist:
                    yield i, j

    clusters = [[cells[i] for i in group] for group in ref_components(len(cells), links())]
    densest = max(clusters, key=lambda members: (len(members), members[0]))
    rows = [r for r, _ in densest]
    cols = [col for _, col in densest]
    return min(rows) * 4, (max(rows) + 1) * 4, min(cols) * 4, (max(cols) + 1) * 4


def random_image(seed, side):
    """Pixel noise or a blocky piecewise-constant image, whose block edges
    line up into long straight runs."""
    rng = np.random.default_rng(seed)
    if seed % 2:
        return rng.uniform(0, 255, size=(side, side))
    cell = 1 << int(rng.integers(1, 4))
    coarse = rng.choice([0.0, 255.0], size=(max(side // cell, 1),) * 2)
    return np.kron(coarse, np.ones((cell, cell)))[:side, :side]


def random_long_edges(seed, rows, cols, density):
    """Random level-5 long edges on a rows x cols grid, mostly of the two
    horizontal-line directions, in row, column, direction order."""
    rng = np.random.default_rng(seed)
    present = rng.random((rows, cols, 8)) < density * np.array([.1, .1, 1, .1, .1, .1, 1, .1])
    return np.column_stack((np.argwhere(present), rng.integers(2, 5, int(present.sum()))))


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

    def test_huge_pixel_rejected(self):
        # block means of such pixels overflow to inf
        with pytest.raises(OutOfRangeError):
            build_pyramid(step_image(high=1e308))
        with pytest.raises(OutOfRangeError):
            run_pipeline(step_image(low=-1e301))
        for side in (16, 512):   # the largest magnitude allowed runs without a warning
            result = run_pipeline(step_image(side, side // 2, low=-1e300, high=1e300))
            assert np.isfinite(result.micro.magnitudes).all()

    @pytest.mark.parametrize("value", [np.nan, 1e301, -1e301])
    def test_float_out_of_range_pixel_rejected(self, value):
        # integer images skip the range scan; float images keep it
        image = np.zeros((16, 16))
        image[7, 2] = value
        with pytest.raises(OutOfRangeError):
            build_pyramid(image)

    @pytest.mark.parametrize("side", [16, 128, 512])
    def test_integer_image_equals_float_image(self, side):
        image = np.random.default_rng(side).integers(0, 256, (side, side)).astype(np.uint8)
        for ints, floats in zip(build_pyramid(image).levels,
                                build_pyramid(image.astype(np.float64)).levels):
            assert ints.dtype == floats.dtype == np.float64
            assert np.array_equal(ints, floats)

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
        assert short.tolist() == [[2, 3, 2, 4]]

    def test_single_child_below_threshold(self):
        p = build_pyramid(np.zeros((16, 16)))
        micro = edge_field(16, [(4, 6)])
        assert aggregate_short_edges(p, micro).shape == (0, 4)

    def test_step_fixture_gives_unbroken_column(self):
        p = build_pyramid(step_image())
        micro = extract_micro_edges(p)
        short = aggregate_short_edges(p, micro)
        cells = {(row, col) for row, col, d, _ in short.tolist() if d == 0}
        # both edge columns 7 and 8 fall in level-6 column 3 or 4
        for row in range(1, 7):
            assert (row, 3) in cells or (row, 4) in cells

    def test_single_cell_recompute_matches(self):
        fx = synthetic_facade()
        p = build_pyramid(fx.image)
        micro = extract_micro_edges(p)
        short = aggregate_short_edges(p, micro)
        listed = {(row, col, d): count for row, col, d, count in short.tolist()}
        for row6 in range(0, 64, 7):
            for col6 in range(0, 64, 5):
                for d in range(8):
                    seg = short_edge_at(micro, row6, col6, d)
                    if seg is None:
                        assert (row6, col6, d) not in listed
                    else:
                        assert listed[(row6, col6, d)] == seg[3]

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
        assert as_tuples(short) == scalar_short_edges(micro, short_support)
        # one integer row per edge, whose level the grid it indexes fixes
        assert short.shape[1] == 4 and short.dtype.kind == "i"
        long_edges = aggregate_long_edges(p, short, config)
        short_set = {row[:3] for row in as_tuples(short)}
        n5 = p.base.shape[0] // 4
        assert as_tuples(long_edges) == scalar_long_edges(short_set, n5, long_support)
        assert long_edges.shape[1] == 4 and long_edges.dtype.kind == "i"


class TestAggregateLongEdges:
    def test_horizontally_adjacent_children(self):
        p = build_pyramid(np.zeros((16, 16)))
        short = edges([(2, 2, 2, 2), (2, 3, 2, 2)])
        long_edges = aggregate_long_edges(p, short)
        assert long_edges.tolist() == [[1, 1, 2, 2]]

    def test_diagonal_children_fail_collinearity(self):
        p = build_pyramid(np.zeros((16, 16)))
        short = edges([(2, 2, 2, 2), (3, 3, 2, 2)])
        assert aggregate_long_edges(p, short).shape == (0, 4)

    def test_vertical_direction_wants_same_column(self):
        p = build_pyramid(np.zeros((16, 16)))
        short = edges([(2, 2, 0, 2), (3, 2, 0, 2)])
        assert aggregate_long_edges(p, short).tolist() == [[1, 1, 0, 2]]
        short_row = edges([(2, 2, 0, 2), (2, 3, 0, 2)])
        assert aggregate_long_edges(p, short_row).shape == (0, 4)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([8, 16, 32, 64, 128]),
           st.floats(0.0, 1.0), st.integers(1, 5))
    def test_random_short_sets_match_scalar_reference(self, seed, side, density, support):
        rng = np.random.default_rng(seed)
        n6 = side // 2
        present = rng.random((n6, n6, 8)) < density
        cells = rng.permutation(np.argwhere(present))   # the row order must not matter
        short = np.column_stack((cells, np.full(len(cells), 2)))
        p = build_pyramid(np.zeros((side, side)))
        long_edges = aggregate_long_edges(p, short, PipelineConfig(long_support=support))
        short_set = set(map(tuple, cells.tolist()))
        assert as_tuples(long_edges) == scalar_long_edges(short_set, n6 // 2, support)

    def test_step_fixture_cascades_to_long_column(self):
        p = build_pyramid(step_image())
        micro = extract_micro_edges(p)
        short = aggregate_short_edges(p, micro)
        long_edges = aggregate_long_edges(p, short)
        vertical = long_edges[long_edges[:, 2] == 0]
        assert set(vertical[:, 1].tolist()) == {1, 2}
        assert len(set(vertical[:, 0].tolist())) >= 2

    def test_single_cell_recompute_matches(self):
        fx = synthetic_facade()
        p = build_pyramid(fx.image)
        micro = extract_micro_edges(p)
        short = aggregate_short_edges(p, micro)
        long_edges = aggregate_long_edges(p, short)
        short_set = {row[:3] for row in as_tuples(short)}
        listed = {row[:3] for row in as_tuples(long_edges)}
        for row5 in range(0, 32, 3):
            for col5 in range(0, 32, 2):
                for d in range(8):
                    seg = long_edge_at(short_set, row5, col5, d)
                    assert (seg is not None) == ((row5, col5, d) in listed)


def test_components_keep_index_order():
    # each node is labelled with the lowest member of its component, whatever
    # the link order: building_boundary's tie-break relies on it
    label = _label(np.arange(6), np.array([3, 5, 4]), np.array([0, 1, 1]))
    assert label.tolist() == [0, 1, 2, 0, 1, 1]
    assert ref_components(6, [(3, 0), (5, 1), (4, 1)]) == [[0, 3], [1, 4, 5], [2]]
    assert _label(np.arange(0), np.empty(0, np.intp), np.empty(0, np.intp)).tolist() == []


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 40), st.integers(0, 80), st.integers(1, 4))
def test_label_matches_reference_components(seed, n, n_links, batches):
    # links added in one call or over several, as building_boundary does
    rng = np.random.default_rng(seed)
    i, j = rng.integers(0, max(n, 1), size=(2, n_links if n else 0))
    label = np.arange(n)
    for part in np.array_split(np.arange(len(i)), batches):
        label = _label(label, i[part], j[part])
    want = [0] * n
    for group in ref_components(n, zip(i.tolist(), j.tolist())):
        for member in group:
            want[member] = group[0]
    assert label.tolist() == want


class TestFindWindowCandidates:
    def test_two_opposite_edges_give_one_candidate(self):
        # single-row edge lines at level-5 rows 1 and 3 sit 8 pixels apart
        long_edges = edges([(1, c, 6, 2) for c in range(2, 6)]
                           + [(3, c, 2, 2) for c in range(2, 6)])
        cands = find_window_candidates(long_edges)
        assert len(cands) == 1
        assert cands[0].rect.height == 8
        assert cands[0].rect == Rect(6, 8, 8, 16)

    def test_no_edges_no_candidates(self):
        assert find_window_candidates(edges([])) == []
        # one polarity alone pairs with nothing
        assert find_window_candidates(edges([(1, c, 2, 2) for c in range(4)])) == []

    def test_same_polarity_pairs_rejected(self):
        long_edges = edges([(1, c, 6, 2) for c in range(2, 6)]
                           + [(3, c, 6, 2) for c in range(2, 6)])
        assert find_window_candidates(long_edges) == []

    def test_separation_range_enforced(self):
        make = lambda rows: edges([(rows[0], 2, 6, 2), (rows[1], 2, 2, 2)])
        assert find_window_candidates(make((1, 1))) == []          # zero separation
        assert len(find_window_candidates(make((1, 3)))) == 1
        assert find_window_candidates(make((1, 30))) == []         # beyond max

    def test_no_horizontal_overlap_rejected(self):
        long_edges = edges([(1, 2, 6, 2), (3, 9, 2, 2)])
        assert find_window_candidates(long_edges) == []

    def test_nested_rectangles_deduplicated(self):
        # three parallel lines: the outermost pair is dropped
        long_edges = edges([(1, c, 6, 2) for c in range(2, 6)]
                           + [(3, c, 2, 2) for c in range(2, 6)]
                           + [(5, c, 2, 2) for c in range(2, 6)])
        cands = find_window_candidates(long_edges)
        heights = sorted(c.rect.height for c in cands)
        assert heights == [8]

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.floats(0.01, 0.3), st.integers(1, 12),
           st.integers(0, 60), st.integers(1, 20), st.integers(1, 40))
    def test_random_edges_match_scalar_reference(self, seed, density, min_sep, extra_sep,
                                                 rows, cols):
        long_edges = random_long_edges(seed, rows, cols, density)
        config = PipelineConfig(pair_min_sep=min_sep, pair_max_sep=min_sep + extra_sep)
        cands = find_window_candidates(long_edges, config)
        assert ([(c.id, c.rect) for c in cands]
                == ref_find_window_candidates(long_edges.tolist(), config))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.floats(0.0, 0.6), st.integers(1, 24),
           st.integers(1, 40))
    def test_edge_lines_match_reference(self, seed, density, rows, cols):
        long_edges = random_long_edges(seed, rows, cols, density)
        lines = sorted(as_tuples(_edge_lines(long_edges)), key=lambda ln: (ln[1], ln[3], ln[0]))
        assert lines == ref_edge_lines(long_edges.tolist())

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
        [m] = measure_candidates(p, [CandidateArea(1, Rect(4, 4, 20, 5))], micro)
        assert m.elongation == pytest.approx(4.0)

    def test_empty_interior(self):
        p = build_pyramid(np.zeros((32, 32)))
        micro = edge_field(32, [])
        [m] = measure_candidates(p, [CandidateArea(1, Rect(4, 4, 8, 8))], micro)
        assert m.edgedness == 0.0
        assert m.hv_d == np.inf

    def test_no_candidates(self):
        p = build_pyramid(np.zeros((16, 16)))
        assert measure_candidates(p, [], edge_field(16, [])) == []

    def test_out_of_bounds(self):
        p = build_pyramid(np.zeros((16, 16)))
        micro = edge_field(16, [])
        inside = CandidateArea(1, Rect(0, 0, 4, 4))
        for rect in (Rect(10, 10, 8, 8), Rect(-1, 0, 4, 4), Rect(0, -1, 4, 4),
                     Rect(4, 4, 0, 4), Rect(4, 4, 4, 0)):   # the last two are empty
            with pytest.raises(RectOutOfBoundsError):
                measure_candidates(p, [inside, CandidateArea(2, rect)], micro)

    def test_out_of_bounds_names_the_first_bad_rect(self):
        p = build_pyramid(np.zeros((16, 16)))
        cands = [CandidateArea(1, Rect(0, 0, 4, 4)), CandidateArea(2, Rect(4, 4, 0, 4)),
                 CandidateArea(3, Rect(10, 10, 8, 8))]
        with pytest.raises(RectOutOfBoundsError, match=r"^rect Rect\(top=4, left=4, height=0, "
                                                       r"width=4\) empty or outside 16x16 base$"):
            measure_candidates(p, cands, edge_field(16, []))

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


def ref_sibling_search(cands, config=PipelineConfig()):
    """Reference: every ordered pair of survivors tested in turn; the
    (h_sibl, v_sibl) of each candidate, 0 for the others."""
    survivors = [c for c in cands if c.bel_a >= config.survivor_threshold]
    tol = config.sibling_tolerance * 4
    found = {}
    for c in survivors:
        cy, cx = c.rect.center
        h = v = 0.0
        for other in survivors:
            if other is c:
                continue
            oy, ox = other.rect.center
            h_overlap = c.rect.left < other.rect.right and other.rect.left < c.rect.right
            v_overlap = c.rect.top < other.rect.bottom and other.rect.top < c.rect.bottom
            if abs(oy - cy) <= tol and not h_overlap:
                h = config.sibling_support
            if abs(ox - cx) <= tol and not v_overlap:
                v = config.sibling_support
        found[id(c)] = (h, v)
    return [found.get(id(c), (0.0, 0.0)) for c in cands]


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

    def test_second_call_clears_dropped_candidates(self):
        cands = [make_candidate(1, 10, 10, bel_a=0.4), make_candidate(2, 10, 40, bel_a=0.5)]
        sibling_search(cands)
        assert [c.h_sibl for c in cands] == [0.6, 0.6]
        # a higher threshold drops the first; the second loses its only sibling
        sibling_search(cands, PipelineConfig(survivor_threshold=0.45))
        assert [(c.h_sibl, c.v_sibl) for c in cands] == [(0.0, 0.0), (0.0, 0.0)]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 40), st.integers(0, 40), st.integers(0, 20),
                              st.integers(0, 20), st.sampled_from([-1e-9, 0.0, 1e-9, -1.0])),
                    max_size=12),
           st.floats(0.0, 1.0), st.integers(0, 4), st.floats(0.0, 1.0))
    def test_matches_reference(self, specs, threshold, tolerance, support):
        # small coordinates, so rects often touch, nest or share a center
        # (empty ones too, which overlap nothing, not even themselves);
        # beliefs just below, at and above the threshold, or far below it
        config = PipelineConfig(survivor_threshold=threshold, sibling_tolerance=tolerance,
                                sibling_support=support)
        cands = []
        for i, (top, left, height, width, offset) in enumerate(specs, 1):
            c = make_candidate(i, top, left, height, width, bel_a=threshold + offset)
            c.h_sibl = c.v_sibl = 0.9   # stale values from an earlier call
            cands.append(c)
        want = ref_sibling_search(cands, config)
        sibling_search(cands, config)
        assert [(c.h_sibl, c.v_sibl) for c in cands] == want


class TestBuildingBoundary:
    def make_cluster(self, row, col, size=6):
        return [(row, col + i, 2, 2) for i in range(size)]

    def test_inside_and_outside(self):
        long_edges = [seg for row in (2, 4, 6, 8)
                      for seg in self.make_cluster(row, 2)]
        long_edges += [(25, 25, 2, 2)]  # lone distant edge
        inside = make_candidate(1, 16, 12)
        outside = make_candidate(2, 100, 100)
        building_boundary(edges(long_edges), [inside, outside])
        assert inside.non_window == 0.0
        assert outside.non_window == 0.5

    def test_no_edges_all_zero(self):
        c = make_candidate(1, 10, 10)
        c.non_window = 0.5
        building_boundary(edges([]), [c])
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

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.floats(0.0, 0.3), st.integers(1, 24),
           st.integers(1, 40), st.integers(0, 6) | st.just(10**6))
    # a density of 1 fills every cell: a 1x1 grid, a full and a sparse row,
    # a full and a sparse column
    @example(0, 1.0, 1, 1, 2)
    @example(0, 1.0, 1, 1, 10**6)
    @example(1, 1.0, 1, 9, 0)
    @example(2, 0.2, 1, 40, 2)
    @example(3, 1.0, 12, 1, 1)
    @example(4, 0.2, 24, 1, 3)
    def test_building_box_matches_reference(self, seed, density, rows, cols, dist):
        long_edges = random_long_edges(seed, rows, cols, density)
        # a probe at (4k, 4m) has its center inside the box exactly when
        # level-5 cell (k, m) is
        probes = [make_candidate(0, 4 * k, 4 * m, height=1, width=1)
                  for k in range(rows + 1) for m in range(cols + 1)]
        building_boundary(long_edges, probes, PipelineConfig(cluster_distance=dist))
        box = ref_building_box(long_edges.tolist(), dist)
        for c in probes:
            inside = box is None or (box[0] <= c.rect.top < box[1]
                                     and box[2] <= c.rect.left < box[3])
            assert c.non_window == (0.0 if inside else 0.5), (c.rect, box)

    @pytest.mark.parametrize("dist", [1, 2, 10**6])
    def test_one_labelling_call(self, monkeypatch, dist):
        calls = []

        def counted(label, i, j):
            calls.append(len(i))
            return _label(label, i, j)

        result = run_pipeline(synthetic_facade().image)
        monkeypatch.setattr(pyramid, "_label", counted)
        building_boundary(result.long_edges, result.candidates,
                          PipelineConfig(cluster_distance=dist))
        assert len(calls) == 1

    def test_peak_memory_linear_in_the_grid(self):
        # every cell of a 64x64 grid, each within reach of every other: all
        # (dr, dc) offsets' links at once would take over 100 MB
        cells = np.argwhere(np.ones((64, 64), dtype=bool))
        long_edges = np.column_stack((cells, np.full((len(cells), 2), 2)))
        cands = [make_candidate(1, 8, 8)]
        tracemalloc.start()
        try:
            building_boundary(long_edges, cands, PipelineConfig(cluster_distance=10**6))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cands[0].non_window == 0.0
        assert peak < 1024 * len(cells)   # under 4 MB: a constant per grid cell


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
        "pair_min_sep = 0",              # a zero separation spans no area
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


finite = st.floats(allow_nan=False, allow_infinity=False)
pixel = st.one_of(st.floats(0.0, 255.0), st.integers(0, 255).map(float), finite)


@st.composite
def any_image(draw):
    """A square image with a power-of-two side of 8 to 64: constant, one
    planted rectangle, a grid of planted windows, scaled noise or a scatter
    of extreme values, as floats or integers."""
    side = draw(st.sampled_from([8, 16, 32, 64]))
    kind = draw(st.sampled_from(["constant", "rectangle", "windows", "noise", "extreme",
                                 "integer"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    image = np.full((side, side), draw(pixel))
    if kind == "rectangle":
        top, left = draw(st.integers(0, side - 1)), draw(st.integers(0, side - 1))
        height, width = draw(st.integers(1, side - top)), draw(st.integers(1, side - left))
        image[top:top + height, left:left + width] = draw(pixel)
    elif kind == "windows":
        size = draw(st.integers(4, max(4, side // 3)))
        for top in range(size, side - size, 2 * size):
            for left in range(size, side - size, 2 * size):
                image[top:top + size, left:left + size] -= draw(st.floats(-255.0, 255.0))
    elif kind == "noise":
        image = rng.uniform(-1.0, 1.0, (side, side)) * draw(finite)
    elif kind == "extreme":
        values = [0.0, 5e-324, -1e300, 1e300, 255.0, -2.5e300, 1.7e308]
        image = rng.choice(draw(st.lists(st.sampled_from(values), min_size=1)), (side, side))
    elif kind == "integer":
        info = np.iinfo(draw(st.sampled_from([np.uint8, np.int16, np.int64])))
        image = rng.integers(info.min, info.max, (side, side), dtype=info.dtype, endpoint=True)
    return image


@st.composite
def any_config(draw):
    min_sep = draw(st.sampled_from([1, 4]) | st.integers(1, 80))
    return PipelineConfig(
        edge_threshold=draw(st.sampled_from([-1.0, 0.0, 8.0, 32.0, 1e300])),
        short_support=draw(st.integers(1, 4)), long_support=draw(st.integers(1, 4)),
        pair_min_sep=min_sep, pair_max_sep=min_sep + draw(st.integers(0, 200)),
        cluster_distance=draw(st.integers(0, 4)),
        sibling_tolerance=draw(st.integers(0, 4)))


@settings(max_examples=200, deadline=None)
@given(any_image(), any_config())
def test_any_finite_image_runs_or_raises_dsvision_error(image, config):
    try:
        result = run_pipeline(image, config)
    except DSVisionError:
        return
    for c in result.candidates:
        values = (*c.supports, c.bel_a, c.bel_b, c.bel_c, c.v_sibl, c.h_sibl,
                  c.non_window, c.conflict)
        assert all(0.0 <= v <= 1.0 for v in values), (c.id, values)
