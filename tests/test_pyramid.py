import hashlib
import math
import re
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import FACADE_OVERLAY_SHA256, FACADE_REPORT_SHA256
from dsvision import pyramid, stages
from dsvision.errors import (BadDimensionsError, DSVisionError, InvalidParamsError,
                             OutOfRangeError, ParseError, RectOutOfBoundsError,
                             UnsupportedFormatError)
from dsvision.fixtures import synthetic_facade
from dsvision.pyramid import (
    _COLLINEAR_PAIRS,
    NO_EDGE,
    EdgeField,
    PipelineConfig,
    MAX_PIXEL,
    VERTICAL_GRADIENT,
    Rect,
    _edge_lines,
    _label,
    _octants,
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


def rect_columns(rects):
    """(top, left, height, width) tuples as the (4, N) int array that the
    candidate stage layers take."""
    return np.array(rects, dtype=np.intp).reshape(-1, 4).T


def degree_chain(angle):
    """Reference: the quantization ``extract_micro_edges`` used before
    ``_octants``, through degrees."""
    return np.round(np.degrees(angle) / 45.0).astype(np.int64) % 8


def reference_micro_edges(image, threshold):
    """Reference: the micro-edge directions of a base image, by the degree
    chain, and the gradient magnitudes |gx| + |gy| behind them."""
    n = image.shape[0]
    col_weighted = image[:-2, :] + 2.0 * image[1:-1, :] + image[2:, :]
    row_weighted = image[:, :-2] + 2.0 * image[:, 1:-1] + image[:, 2:]
    gx = col_weighted[:, 2:] - col_weighted[:, :-2]
    gy = row_weighted[2:, :] - row_weighted[:-2, :]
    mag = np.abs(gx) + np.abs(gy)
    hit = mag >= threshold
    directions = np.full((n, n), NO_EDGE, dtype=np.int8)
    magnitudes = np.zeros((n, n))
    directions[1:-1, 1:-1] = np.where(hit, degree_chain(np.arctan2(gy, gx)), NO_EDGE)
    magnitudes[1:-1, 1:-1] = np.where(hit, mag, 0.0)
    return directions, magnitudes


def assert_micro_edges_match_reference(image, threshold):
    micro = extract_micro_edges(build_pyramid(image), PipelineConfig(edge_threshold=threshold))
    directions, _ = reference_micro_edges(image, threshold)
    assert micro.directions.dtype == np.int8
    assert micro.directions.tobytes() == directions.tobytes()


def reference_levels(base):
    """Reference: the pyramid above a base, by 2x2 means; levels[L] has
    side 2^L and the base is the last."""
    levels = [base]
    while len(levels[-1]) > 1:
        half = len(levels[-1]) // 2
        levels.append(levels[-1].reshape(half, 2, half, 2).mean(axis=(1, 3)))
    return levels[::-1]


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
        assert np.array_equal(p.base, image)

    def test_512_reduces_to_128(self):
        image = np.full((512, 512), 77.0)
        p = build_pyramid(image)
        assert p.base.shape == (128, 128)
        assert np.all(p.base == 77.0)

    @pytest.mark.parametrize("side", [8, 16, 32, 64, 128, 256, 1024, 2048])
    def test_every_side_above_128_reduces_to_128(self, side):
        p = build_pyramid(np.full((side, side), 77, dtype=np.uint8))
        assert p.base.shape == (min(side, 128),) * 2
        assert np.all(p.base == 77.0)

    @pytest.mark.parametrize("side", [256, 512, 1024])
    @pytest.mark.parametrize("dtype", [np.uint8, np.int8, np.uint16, np.int16, np.uint32,
                                       np.int32, np.uint64, np.int64, np.float64])
    def test_block_means_are_float_means(self, dtype, side):
        # random pixels, some blocks all at an extreme of the type: the
        # reduction has the bits of a float64 mean over each block
        rng = np.random.default_rng(side)
        if dtype is np.float64:
            low, high = -1e300, 1e300
            image = rng.uniform(low, high, (side, side))
        else:
            low, high = np.iinfo(dtype).min, np.iinfo(dtype).max
            image = rng.integers(low, high, (side, side), dtype=dtype, endpoint=True)
        image[rng.random((side, side)) < 0.2] = low
        image[rng.random((side, side)) < 0.2] = high
        image[:side // 4, :side // 4] = high
        image[-side // 4:, :side // 4] = low
        k = side // 128
        want = image.reshape(128, k, 128, k).mean(axis=(1, 3))
        base = build_pyramid(image).base
        assert base.dtype == np.float64 and base.tobytes() == want.tobytes()

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
            _, magnitudes = reference_micro_edges(result.pyramid.base, 32.0)
            assert np.isfinite(magnitudes).all() and result.micro.count() > 0

    @pytest.mark.parametrize("image", [
        np.full((16, 16), 1 + 2j), np.full((16, 16), 0j), np.full((16, 16), "7"),
        np.full((16, 16), 7.0, dtype=object), np.zeros((16, 16), dtype="timedelta64[s]"),
        np.zeros((16, 16), dtype="datetime64[s]"),
    ], ids=["complex", "complex-real-valued", "str", "object", "timedelta", "datetime"])
    def test_pixels_not_real_rejected(self, image):
        # a complex image used to lose its imaginary part with only a
        # warning, and a str or object image raised a bare ValueError
        message = re.escape(f"image pixels of type {image.dtype} are not real numbers")
        with pytest.raises(UnsupportedFormatError, match=f"^{message}$"):
            build_pyramid(image)
        with pytest.raises(UnsupportedFormatError):
            run_pipeline(image)

    def test_bool_image_reads_as_zeros_and_ones(self):
        image = np.eye(16, dtype=bool)
        assert build_pyramid(image).base.tobytes() == np.eye(16).tobytes()

    @pytest.mark.parametrize("value", [np.nan, 1e301, -1e301])
    def test_float_out_of_range_pixel_rejected(self, value):
        # integer images skip the range scan; float images keep it
        image = np.zeros((16, 16))
        image[7, 2] = value
        with pytest.raises(OutOfRangeError):
            build_pyramid(image)

    @pytest.mark.parametrize("side", [16, 128, 256, 512, 1024])
    def test_integer_image_equals_float_image(self, side):
        image = np.random.default_rng(side).integers(0, 256, (side, side)).astype(np.uint8)
        for ints, floats in zip(reference_levels(build_pyramid(image).base),
                                reference_levels(build_pyramid(image.astype(np.float64)).base)):
            assert ints.dtype == floats.dtype == np.float64
            assert np.array_equal(ints, floats)

    @pytest.mark.parametrize("side", [16, 128, 256, 512, 1024])
    def test_base_is_a_level_of_the_2x2_pyramid(self, side):
        """The base, reduced to 128 by block means at once for a larger
        image, is that level of the image's own pyramid of 2x2 means."""
        image = np.random.default_rng(side).integers(0, 256, (side, side)).astype(np.uint8)
        for pixels in (image, image.astype(np.float64)):
            want = reference_levels(pixels.astype(np.float64))[min(side, 128).bit_length() - 1]
            assert build_pyramid(pixels).base.tobytes() == want.tobytes()

    def test_parent_cells_average_children(self):
        rng = np.random.default_rng(5)
        image = rng.uniform(0, 255, size=(16, 16))
        coarse = reference_levels(build_pyramid(image).base)[-2]
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
        _, magnitudes = reference_micro_edges(p.base, 32.0)
        assert np.allclose(magnitudes[1:15, 7:9], 4 * 255.0)
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

    def test_octants_equal_degree_chain_near_every_half_step(self):
        """Every float64 angle within 4096 ulps of each odd multiple of 22.5
        degrees, and of 0 and +-180, where the two roundings could part."""
        for multiple in range(-8, 9):
            step = multiple * np.pi / 8
            ulp = np.spacing(max(abs(step), np.pi / 8))
            angle = np.clip(step + np.arange(-4096, 4097) * ulp, -np.pi, np.pi)
            assert np.array_equal(_octants(angle), degree_chain(angle)), multiple
        angle = np.random.default_rng(3).uniform(-np.pi, np.pi, 100_000)
        assert np.array_equal(_octants(angle), degree_chain(angle))
        assert _octants(np.array([-np.pi, np.pi])).tolist() == [4, 4]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(st.floats(-MAX_PIXEL, MAX_PIXEL), st.integers(0, 255)),
                    min_size=64, max_size=64),
           st.one_of(st.floats(-MAX_PIXEL, 0.0), st.floats(-1e3, 1e3), st.just(0.0)))
    def test_any_finite_image_matches_reference(self, pixels, threshold):
        # a threshold <= 0 makes zero gradients, of either sign, edges too
        assert_micro_edges_match_reference(np.array(pixels, dtype=np.float64).reshape(8, 8),
                                           threshold)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(-8, 8), st.floats(-1e-12, 1e-12), st.floats(1e-3, 1e6),
           st.floats(-1.0, 1e6))
    def test_gradients_at_a_half_step_match_reference(self, multiple, offset, radius,
                                                     threshold):
        """The gradient at cell (1, 1) is set exactly: with every other
        pixel 0, gx is twice pixel (1, 2) and gy twice pixel (2, 1)."""
        angle = (multiple + 0.5) * np.pi / 4 + offset
        image = np.zeros((8, 8))
        image[1, 2], image[2, 1] = radius * np.cos(angle) / 2, radius * np.sin(angle) / 2
        assert_micro_edges_match_reference(image, threshold)
        micro = extract_micro_edges(build_pyramid(image), PipelineConfig(edge_threshold=0.0))
        assert micro.directions[1, 1] == degree_chain(np.arctan2(2 * image[2, 1],
                                                                 2 * image[1, 2]))


def edge_field(side, cells, direction=2):
    directions = np.full((side, side), NO_EDGE, dtype=np.int8)
    for r, c in cells:
        directions[r, c] = direction
    return EdgeField(directions)


class TestAggregateShortEdges:
    def test_unanimous_block(self):
        micro = edge_field(16, [(4, 6), (4, 7), (5, 6), (5, 7)])
        short = aggregate_short_edges(micro)
        assert short.tolist() == [[2, 3, 2, 4]]

    def test_single_child_below_threshold(self):
        micro = edge_field(16, [(4, 6)])
        assert aggregate_short_edges(micro).shape == (0, 4)

    def test_step_fixture_gives_unbroken_column(self):
        p = build_pyramid(step_image())
        micro = extract_micro_edges(p)
        short = aggregate_short_edges(micro)
        cells = {(row, col) for row, col, d, _ in short.tolist() if d == 0}
        # both edge columns 7 and 8 fall in level-6 column 3 or 4
        for row in range(1, 7):
            assert (row, 3) in cells or (row, 4) in cells

    def test_single_cell_recompute_matches(self):
        fx = synthetic_facade()
        p = build_pyramid(fx.image)
        micro = extract_micro_edges(p)
        short = aggregate_short_edges(micro)
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
        short = aggregate_short_edges(micro, config)
        assert as_tuples(short) == scalar_short_edges(micro, short_support)
        # one integer row per edge, whose level the grid it indexes fixes
        assert short.shape[1] == 4 and short.dtype.kind == "i"
        n = p.base.shape[0]   # a side above 128 is reduced to the 128 base
        long_edges = aggregate_long_edges(short, n, config)
        short_set = {row[:3] for row in as_tuples(short)}
        assert as_tuples(long_edges) == scalar_long_edges(short_set, n // 4, long_support)
        assert long_edges.shape[1] == 4 and long_edges.dtype.kind == "i"


class TestAggregateLongEdges:
    def test_horizontally_adjacent_children(self):
        short = edges([(2, 2, 2, 2), (2, 3, 2, 2)])
        long_edges = aggregate_long_edges(short, 16)
        assert long_edges.tolist() == [[1, 1, 2, 2]]

    def test_diagonal_children_fail_collinearity(self):
        short = edges([(2, 2, 2, 2), (3, 3, 2, 2)])
        assert aggregate_long_edges(short, 16).shape == (0, 4)

    def test_vertical_direction_wants_same_column(self):
        short = edges([(2, 2, 0, 2), (3, 2, 0, 2)])
        assert aggregate_long_edges(short, 16).tolist() == [[1, 1, 0, 2]]
        short_row = edges([(2, 2, 0, 2), (2, 3, 0, 2)])
        assert aggregate_long_edges(short_row, 16).shape == (0, 4)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([8, 16, 32, 64, 128]),
           st.floats(0.0, 1.0), st.integers(1, 5))
    def test_random_short_sets_match_scalar_reference(self, seed, side, density, support):
        rng = np.random.default_rng(seed)
        n6 = side // 2
        present = rng.random((n6, n6, 8)) < density
        cells = rng.permutation(np.argwhere(present))   # the row order must not matter
        short = np.column_stack((cells, np.full(len(cells), 2)))
        long_edges = aggregate_long_edges(short, side, PipelineConfig(long_support=support))
        short_set = set(map(tuple, cells.tolist()))
        assert as_tuples(long_edges) == scalar_long_edges(short_set, n6 // 2, support)

    def test_step_fixture_cascades_to_long_column(self):
        p = build_pyramid(step_image())
        micro = extract_micro_edges(p)
        short = aggregate_short_edges(micro)
        long_edges = aggregate_long_edges(short, 16)
        vertical = long_edges[long_edges[:, 2] == 0]
        assert set(vertical[:, 1].tolist()) == {1, 2}
        assert len(set(vertical[:, 0].tolist())) >= 2

    def test_single_cell_recompute_matches(self):
        fx = synthetic_facade()
        p = build_pyramid(fx.image)
        micro = extract_micro_edges(p)
        short = aggregate_short_edges(micro)
        long_edges = aggregate_long_edges(short, 128)
        short_set = {row[:3] for row in as_tuples(short)}
        listed = {row[:3] for row in as_tuples(long_edges)}
        for row5 in range(0, 32, 3):
            for col5 in range(0, 32, 2):
                for d in range(8):
                    seg = long_edge_at(short_set, row5, col5, d)
                    assert (seg is not None) == ((row5, col5, d) in listed)


# each layer's grid is 8x8: short edges of a 16 base, long edges of a 32 one
@pytest.mark.parametrize("call", [
    lambda e: aggregate_long_edges(e, 16),
    lambda e: find_window_candidates(e, 32),
    lambda e: building_boundary(e, rect_columns([(0, 0, 4, 4)]), 32),
], ids=["long", "candidates", "boundary"])
@pytest.mark.parametrize("rows, message", [
    # a negative row used to index from the far end of the grid
    ([[-3, 2, 2, 2], [2, 2, 6, 2]], r"^edge \(-3, 2, 2, 2\) has a cell outside \[0, 8\)"),
    ([[1, -2, 2, 2]], r"^edge \(1, -2, 2, 2\) has a cell outside \[0, 8\)"),
    # a far cell used to size a grid of hundreds of MB
    ([[0, 0, 2, 2], [4000, 4000, 6, 2]],
     r"^edge \(4000, 4000, 6, 2\) has a cell outside \[0, 8\)"),
    ([[1, 2, 9, 2], [3, 2, 6, 2]], r"^edge \(1, 2, 9, 2\) .* or a direction outside 0-7$"),
    ([[1, 2, -1, 2]], r"^edge \(1, 2, -1, 2\) .* or a direction outside 0-7$"),
    ([[1.0, 2, 2, 2]], r"^edges of type float64 and shape \(1, 4\) are not an \(N, 4\) integer"),
    ([1, 2, 2, 2], r"^edges of type int64 and shape \(4,\) are not an \(N, 4\) integer"),
    ([[1, 2, 2]], r"^edges of type int64 and shape \(1, 3\) are not an \(N, 4\) integer"),
], ids=["negative-row", "negative-col", "far-cell", "direction-9", "direction-minus-1", "float",
        "1-d", "three-columns"])
def test_malformed_edge_rows_rejected(call, rows, message):
    # each used to give a silent wrong answer or a bare numpy error
    with pytest.raises(InvalidParamsError, match=message):
        call(np.array(rows))


def test_short_edges_beyond_the_grid_rejected():
    # a 16 base has an 8x8 short-edge grid
    for rows in ([[8, 0, 2, 2]], [[0, 8, 2, 2]]):
        with pytest.raises(InvalidParamsError, match=r"has a cell outside \[0, 8\)"):
            aggregate_long_edges(np.array(rows), 16)
    assert aggregate_long_edges(edges([(7, 7, 2, 2)]), 16).shape == (0, 4)
    # any integer type is taken
    short = np.array([[2, 2, 2, 2], [2, 3, 2, 2]], dtype=np.uint8)
    assert aggregate_long_edges(short, 16).tolist() == [[1, 1, 2, 2]]


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
        cands = find_window_candidates(long_edges, 128)
        assert len(cands) == 1
        assert cands[0].rect.height == 8
        assert cands[0].rect == Rect(6, 8, 8, 16)

    def test_no_edges_no_candidates(self):
        assert find_window_candidates(edges([]), 128) == []
        # one polarity alone pairs with nothing
        assert find_window_candidates(edges([(1, c, 2, 2) for c in range(4)]), 128) == []

    def test_same_polarity_pairs_rejected(self):
        long_edges = edges([(1, c, 6, 2) for c in range(2, 6)]
                           + [(3, c, 6, 2) for c in range(2, 6)])
        assert find_window_candidates(long_edges, 128) == []

    def test_separation_range_enforced(self):
        make = lambda rows: edges([(rows[0], 2, 6, 2), (rows[1], 2, 2, 2)])
        assert find_window_candidates(make((1, 1)), 128) == []          # zero separation
        assert len(find_window_candidates(make((1, 3)), 128)) == 1
        assert find_window_candidates(make((1, 30)), 128) == []         # beyond max

    def test_no_horizontal_overlap_rejected(self):
        long_edges = edges([(1, 2, 6, 2), (3, 9, 2, 2)])
        assert find_window_candidates(long_edges, 128) == []

    def test_nested_rectangles_deduplicated(self):
        # three parallel lines: the outermost pair is dropped
        long_edges = edges([(1, c, 6, 2) for c in range(2, 6)]
                           + [(3, c, 2, 2) for c in range(2, 6)]
                           + [(5, c, 2, 2) for c in range(2, 6)])
        cands = find_window_candidates(long_edges, 128)
        heights = sorted(c.rect.height for c in cands)
        assert heights == [8]

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.floats(0.01, 0.3) | st.floats(0.3, 0.6),
           st.integers(1, 12), st.integers(0, 60), st.integers(1, 20) | st.integers(21, 32),
           st.integers(1, 40))
    # the full level-5 grid of a 128 base, sparse to dense
    @example(1, 0.3, 1, 60, 32, 32)
    @example(2, 0.45, 4, 44, 32, 32)
    @example(3, 0.6, 1, 200, 32, 32)
    @example(4, 0.6, 10, 2, 32, 32)
    def test_random_edges_match_scalar_reference(self, seed, density, min_sep, extra_sep,
                                                 rows, cols):
        long_edges = random_long_edges(seed, rows, cols, density)
        config = PipelineConfig(pair_min_sep=min_sep, pair_max_sep=min_sep + extra_sep)
        cands = find_window_candidates(long_edges, 256, config)
        assert ([(c.id, c.rect) for c in cands]
                == ref_find_window_candidates(long_edges.tolist(), config))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.floats(0.0, 0.6), st.integers(1, 24),
           st.integers(1, 40))
    def test_edge_lines_match_reference(self, seed, density, rows, cols):
        long_edges = random_long_edges(seed, rows, cols, density)
        lines = as_tuples(_edge_lines(long_edges, 64))   # the level-5 grid of a 256 base
        lines.sort(key=lambda ln: (ln[1], ln[3], ln[0]))
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
        micro = edge_field(32, [])
        [elongation], *_ = measure_candidates(rect_columns([(4, 4, 20, 5)]), micro)
        assert elongation == pytest.approx(4.0)

    def test_empty_interior(self):
        micro = edge_field(32, [])
        _, [edgedness], [hv_d], _, _ = measure_candidates(rect_columns([(4, 4, 8, 8)]), micro)
        assert edgedness == 0.0
        assert hv_d == np.inf

    def test_no_candidates(self):
        got = measure_candidates(rect_columns([]), edge_field(16, []))
        assert got.shape == (5, 0) and got.dtype == np.float64

    def test_out_of_bounds(self):
        micro = edge_field(16, [])
        inside = (0, 0, 4, 4)
        for rect in ((10, 10, 8, 8), (-1, 0, 4, 4), (0, -1, 4, 4),
                     (4, 4, 0, 4), (4, 4, 4, 0),   # these two are empty
                     (2**62, 0, 2**62, 4)):   # top + height wraps negative
            with pytest.raises(RectOutOfBoundsError, match=re.escape(f"rect {Rect(*rect)} ")):
                measure_candidates(rect_columns([inside, rect]), micro)

    def test_out_of_bounds_names_the_first_bad_rect(self):
        rects = rect_columns([(0, 0, 4, 4), (4, 4, 0, 4), (10, 10, 8, 8)])
        with pytest.raises(RectOutOfBoundsError, match=r"^rect Rect\(top=4, left=4, height=0, "
                                                       r"width=4\) empty or outside 16x16 base$"):
            measure_candidates(rects, edge_field(16, []))

    def test_painted_window_is_axis_dominated(self):
        fx = synthetic_facade()
        result = run_pipeline(fx.image)
        top, left, height, width = fx.windows[0]
        cand = next(c for c in result.candidates
                    if c.rect == Rect(top, left, height, width))
        _, _, [hv_d], [left], [right] = measure_candidates(
            rect_columns([(top, left, height, width)]), result.micro)
        assert hv_d >= 4
        assert left >= 0.75
        assert right >= 0.75
        assert cand.supports[1:] == (0.4, 0.6, 0.6)


def window(top, left, height=12, width=16, bel_a=0.4):
    """A (top, left, height, width, bel_a) candidate spec."""
    return (top, left, height, width, bel_a)


def siblings(specs, config=PipelineConfig()):
    """``sibling_search`` on candidate specs: the (h_sibl, v_sibl) of each."""
    v_sibl, h_sibl = sibling_search(rect_columns([spec[:4] for spec in specs]),
                                    np.array([spec[4] for spec in specs], dtype=np.float64),
                                    config)
    return list(zip(h_sibl.tolist(), v_sibl.tolist()))


def ref_sibling_search(specs, config=PipelineConfig()):
    """Reference: every ordered pair of survivors tested in turn; the
    (h_sibl, v_sibl) of each candidate spec, 0 for the others."""
    survivors = [k for k, spec in enumerate(specs) if spec[4] >= config.survivor_threshold]
    tol = config.sibling_tolerance * 4
    found = {}
    for k in survivors:
        top, left, height, width, _ = specs[k]
        cy, cx = top + height / 2.0, left + width / 2.0
        h = v = 0.0
        for other in survivors:
            if other == k:
                continue
            o_top, o_left, o_height, o_width, _ = specs[other]
            oy, ox = o_top + o_height / 2.0, o_left + o_width / 2.0
            h_overlap = left < o_left + o_width and o_left < left + width
            v_overlap = top < o_top + o_height and o_top < top + height
            if abs(oy - cy) <= tol and not h_overlap:
                h = config.sibling_support
            if abs(ox - cx) <= tol and not v_overlap:
                v = config.sibling_support
        found[k] = (h, v)
    return [found.get(k, (0.0, 0.0)) for k in range(len(specs))]


class TestSiblingSearch:
    def test_single_candidate_no_siblings(self):
        assert siblings([window(10, 10)]) == [(0.0, 0.0)]

    def test_row_of_three(self):
        assert siblings([window(10, 10 + 24 * i) for i in range(3)]) == [(0.6, 0.0)] * 3

    def test_grid_gets_both(self):
        specs = [window(10 + 20 * r, 10 + 24 * col) for r in range(3) for col in range(4)]
        assert siblings(specs) == [(0.6, 0.6)] * 12

    def test_losers_do_not_count(self):
        [(strong_h, _), _] = siblings([window(10, 10), window(10, 40, bel_a=0.1)])
        assert strong_h == 0.0

    def test_overlapping_extents_rejected(self):
        # the second is horizontally overlapping
        assert [h for h, _ in siblings([window(10, 10), window(10, 18)])] == [0.0, 0.0]

    def test_second_call_clears_dropped_candidates(self):
        rects = rect_columns([(10, 10, 12, 16), (10, 40, 12, 16)])
        bel_a = np.array([0.4, 0.5])
        kept = rects.copy(), bel_a.copy()
        v_sibl, h_sibl = sibling_search(rects, bel_a)
        assert h_sibl.tolist() == [0.6, 0.6]
        # a higher threshold drops the first; the second loses its only sibling
        v_sibl, h_sibl = sibling_search(rects, bel_a, PipelineConfig(survivor_threshold=0.45))
        assert (v_sibl.tolist(), h_sibl.tolist()) == ([0.0, 0.0], [0.0, 0.0])
        assert rects.tobytes() == kept[0].tobytes() and bel_a.tobytes() == kept[1].tobytes()

    # no candidates, then none and one of two above the threshold
    @example([], 0.3, 2, 0.6)
    @example([(10, 10, 12, 16, -1.0), (10, 40, 12, 16, -1e-9)], 0.3, 2, 0.6)
    @example([(10, 10, 12, 16, 0.0), (10, 40, 12, 16, -1e-9)], 0.3, 2, 0.6)
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
        specs = [window(top, left, height, width, bel_a=threshold + offset)
                 for top, left, height, width, offset in specs]
        assert siblings(specs, config) == ref_sibling_search(specs, config)


class TestBuildingBoundary:
    def make_cluster(self, row, col, size=6):
        return [(row, col + i, 2, 2) for i in range(size)]

    def test_inside_and_outside(self):
        long_edges = [seg for row in (2, 4, 6, 8)
                      for seg in self.make_cluster(row, 2)]
        long_edges += [(25, 25, 2, 2)]  # lone distant edge
        inside, outside = (16, 12, 12, 16), (100, 100, 12, 16)
        non_window = building_boundary(edges(long_edges), rect_columns([inside, outside]), 128)
        assert non_window.tolist() == [0.0, 0.5]

    def test_no_edges_all_zero(self):
        non_window = building_boundary(edges([]), rect_columns([(10, 10, 12, 16)]), 128)
        assert non_window.tolist() == [0.0]

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
        probes = [(4 * k, 4 * m, 1, 1) for k in range(rows + 1) for m in range(cols + 1)]
        non_window = building_boundary(long_edges, rect_columns(probes), 256,
                                       PipelineConfig(cluster_distance=dist))
        box = ref_building_box(long_edges.tolist(), dist)
        for (top, left, _, _), value in zip(probes, non_window.tolist()):
            inside = box is None or (box[0] <= top < box[1] and box[2] <= left < box[3])
            assert value == (0.0 if inside else 0.5), (top, left, box)

    @pytest.mark.parametrize("dist", [1, 2, 10**6])
    def test_one_labelling_call(self, monkeypatch, dist):
        calls = []

        def counted(label, i, j):
            calls.append(len(i))
            return _label(label, i, j)

        result = run_pipeline(synthetic_facade().image)
        monkeypatch.setattr(pyramid, "_label", counted)
        building_boundary(result.long_edges, pyramid._rects(result.candidates), 128,
                          PipelineConfig(cluster_distance=dist))
        assert len(calls) == 1

    def test_peak_memory_linear_in_the_grid(self):
        # every cell of a 64x64 grid, each within reach of every other: all
        # (dr, dc) offsets' links at once would take over 100 MB
        cells = np.argwhere(np.ones((64, 64), dtype=bool))
        long_edges = np.column_stack((cells, np.full((len(cells), 2), 2)))
        rects = rect_columns([(8, 8, 12, 16)])
        tracemalloc.start()
        try:
            non_window = building_boundary(long_edges, rects, 256,
                                           PipelineConfig(cluster_distance=10**6))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert non_window.tolist() == [0.0]
        assert peak < 1024 * len(cells)   # under 4 MB: a constant per grid cell


@pytest.mark.parametrize("call", [
    lambda r: building_boundary(r.long_edges, pyramid._rects(r.candidates)[:3], 128),
    lambda r: building_boundary(r.long_edges, pyramid._rects(r.candidates)[0], 128),
    lambda r: sibling_search(pyramid._rects(r.candidates),
                             np.array([c.bel_a for c in r.candidates[:3]])),
    lambda r: sibling_search(pyramid._rects(r.candidates),
                             np.array([[c.bel_a] for c in r.candidates])),
    lambda r: measure_candidates(pyramid._rects(r.candidates).astype(float), r.micro),
    lambda r: measure_candidates(pyramid._rects(r.candidates).T, r.micro),
    lambda r: pyramid.stage_a_beliefs(pyramid._rects(r.candidates) > 0, r.micro, None),
], ids=["boundary-three-rows", "boundary-one-row", "siblings-three-beliefs",
        "siblings-column-of-beliefs", "measure-float", "measure-transposed", "stage-a-bool"])
def test_rects_not_integer_columns_rejected(call):
    # each used to give a silent wrong answer or a bare numpy error
    result = run_pipeline(synthetic_facade().image)
    assert len(result.candidates) > 4
    with pytest.raises(InvalidParamsError, match=r"(not a \(4, N\) integer array| for \d+ rects)$"):
        call(result)


# the pyramid layers that perfbench/traced.py wraps by their module globals
TRACED_LAYERS = ("build_pyramid", "extract_micro_edges", "aggregate_short_edges",
                 "aggregate_long_edges", "find_window_candidates", "stage_a_beliefs",
                 "sibling_search", "building_boundary", "stage_b_beliefs", "stage_c_beliefs")


def test_traced_layer_contract(monkeypatch):
    # run_pipeline calls each layer once through the module, no layer
    # changes an array it is given, the very list find_window_candidates
    # returned is filled in, and stage_c_belief is called through the module
    calls, returns = dict.fromkeys(TRACED_LAYERS, 0), {}

    def counted(name, fn):
        def call(*args, **kwargs):
            calls[name] += 1
            before = [a.tobytes() for a in args if isinstance(a, np.ndarray)]
            returns[name] = fn(*args, **kwargs)
            assert [a.tobytes() for a in args if isinstance(a, np.ndarray)] == before, name
            return returns[name]
        return call

    for name in TRACED_LAYERS:
        monkeypatch.setattr(pyramid, name, counted(name, getattr(pyramid, name)))
    result = run_pipeline(synthetic_facade().image)
    assert calls == dict.fromkeys(TRACED_LAYERS, 1)
    assert returns["find_window_candidates"] is result.candidates
    report = format_report(report_from_result(result)).encode()
    assert hashlib.sha256(report).hexdigest() == FACADE_REPORT_SHA256
    assert all(type(s) is float for c in result.candidates for s in c.supports)
    bel_c = [c.bel_c for c in result.candidates]
    monkeypatch.setattr(pyramid, "stage_c_belief",
                        lambda *args: stages.stage_c_belief(*args) + 1e-6)
    shifted = [c.bel_c for c in run_pipeline(synthetic_facade().image).candidates]
    assert shifted == [bel + 1e-6 for bel in bel_c]


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
        assert config.boundary_bands == ((0.5, 0.6), (0.2, 0.3))

    def test_unknown_key(self):
        with pytest.raises(ParseError):
            parse_config("frobnicate = 3")

    def test_keys_are_the_fields(self):
        text = """
        edge_threshold = 40
        short_support = 1
        long_support = 3
        pair_min_sep = 3
        pair_max_sep = 40
        survivor_threshold = 0.25
        sibling_tolerance = 3
        sibling_support = 0.7
        non_window_support = 0.4
        cluster_distance = 3
        quality_weight = 0.9
        elongation_bands = 3.5:0.5,6:0.3
        low_edgedness = 0.15
        low_edgedness_belief = 0.35
        hv_d_bands = 3:0.4,1.5:0.2
        boundary_bands = 0.7:0.6,0.35:0.3,0.1:0.1
        """
        expected = PipelineConfig(40.0, 1, 3, 3, 40, 0.25, 3, 0.7, 0.4, 3, 0.9,
                                  ((3.5, 0.5), (6.0, 0.3)), 0.15, 0.35, ((3.0, 0.4), (1.5, 0.2)),
                                  ((0.7, 0.6), (0.35, 0.3), (0.1, 0.1)))
        keys = [line.split("=")[0].strip() for line in text.splitlines() if line.strip()]
        assert keys == [f.name for f in fields(PipelineConfig)]
        assert len(keys) == 16
        assert parse_config(text) == expected
        for f in fields(PipelineConfig):
            assert getattr(expected, f.name) != getattr(PipelineConfig(), f.name)
        # each value is read as its field's type, and no other name is a key
        with pytest.raises(ParseError, match="^line 1: bad value '2.5' for short_support$"):
            parse_config("short_support = 2.5")
        with pytest.raises(ParseError, match="^line 1: unknown key 'tables'$"):
            parse_config("tables = 1")

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

    @pytest.mark.parametrize("text, line, key", [
        ("edge_threshold = 32\nedge_threshold = 1000\n", 2, "edge_threshold"),
        ("pair_max_sep = 40\n# again\npair_max_sep = 40\n", 3, "pair_max_sep"),
        ("boundary_bands = 0.5:0.6\nboundary_bands = 0.4:0.3\n", 2, "boundary_bands"),
        ("low_edgedness = 0.1\nlow_edgedness = 0.2\n", 2, "low_edgedness"),
    ], ids=["float", "int-after-a-comment", "bands", "table-float"])
    def test_key_set_twice(self, text, line, key):
        # the last value used to win silently
        with pytest.raises(ParseError, match=f"^line {line}: key '{key}' set twice$"):
            parse_config(text)


@pytest.mark.parametrize("key, text, value", [
    ("low_edgedness", "inf", math.inf),
    ("low_edgedness", "-inf", -math.inf),
    ("hv_d_bands", "inf:0.4", ((math.inf, 0.4),)),
    ("hv_d_bands", "-inf:0.2,inf:0.4", ((-math.inf, 0.2), (math.inf, 0.4))),
    ("elongation_bands", "-inf:0.5", ((-math.inf, 0.5),)),
    ("elongation_bands", "inf:0.3", ((math.inf, 0.3),)),
    ("boundary_bands", "inf:0.6,-inf:0.1", ((math.inf, 0.6), (-math.inf, 0.1))),
], ids=["low-inf", "low-minus-inf", "hv-d-inf", "hv-d-both", "elongation-minus-inf",
        "elongation-inf", "boundary-both"])
def test_infinite_thresholds_accepted(key, text, value):
    """A table threshold may be infinite, always or never met; the parsed
    config is the one built in Python and gives the same report."""
    parsed = parse_config(f"{key} = {text}\n")
    config = PipelineConfig(**{key: value})
    assert parsed == config
    image = synthetic_facade().image
    result = run_pipeline(image, config)
    assert (format_report(report_from_result(run_pipeline(image, parsed)))
            == format_report(report_from_result(result)))
    if key == "low_edgedness":   # every candidate's texture reads as sparse, or none does
        marked = PipelineConfig(low_edgedness=value, low_edgedness_belief=0.35)
        sparse = [c.supports[1] == 0.35 for c in run_pipeline(image, marked).candidates]
        assert sparse == [value > 0] * len(result.candidates) and sparse


@pytest.mark.parametrize("key, text, value", [
    ("low_edgedness", "nan", math.nan),
    ("hv_d_bands", "nan:0.4", ((math.nan, 0.4),)),
    ("elongation_bands", "3:0.5,nan:0.3", ((3.0, 0.5), (math.nan, 0.3))),
    ("boundary_bands", "nan:0.6", ((math.nan, 0.6),)),
], ids=["low", "hv-d", "elongation-second", "boundary"])
def test_nan_thresholds_rejected(key, text, value):
    message = "^belief table thresholds must not be NaN$"
    with pytest.raises(InvalidParamsError, match=message):
        parse_config(f"{key} = {text}\n")
    with pytest.raises(InvalidParamsError, match=message):
        PipelineConfig(**{key: value})


@pytest.mark.parametrize("build, key", [
    (lambda: PipelineConfig(short_support=2.5), "short_support"),
    (lambda: PipelineConfig(short_support=True), "short_support"),
    (lambda: PipelineConfig(quality_weight=True), "quality_weight"),
    (lambda: PipelineConfig(elongation_bands=((1.0,),)), "elongation_bands"),
    (lambda: PipelineConfig(elongation_bands=(("x", 0.5),)), "elongation_bands"),
    (lambda: PipelineConfig(low_edgedness="0.1"), "low_edgedness"),
    (lambda: PipelineConfig(hv_d_bands={"low_edgedness": 0.2}), "hv_d_bands"),
], ids=["int-field-fraction", "int-field-bool", "float-field-bool", "band-not-a-pair",
        "band-not-numbers", "float-field-text", "bands-not-a-tuple"])
def test_value_unlike_its_default_rejected(build, key):
    # a config built in Python, not parsed, is held to its fields' kinds:
    # short_support = 2.5 used to leave 0 candidates on the bundled facade
    with pytest.raises(InvalidParamsError, match=f"^{key} value "):
        build()


def config_text(kwargs) -> str:
    """The config file that sets each keyword, bands as threshold:value."""
    return "".join(f"{key} = " + (",".join(f"{b!r}:{v!r}" for b, v in value)
                                  if isinstance(value, tuple) else repr(value)) + "\n"
                   for key, value in kwargs.items())


_DEFAULTS = {f.name: f.default for f in fields(PipelineConfig)}
_UNLIKE = st.one_of(st.booleans(), st.floats(), st.text(max_size=2),
                    st.sampled_from([2.5, ((1.0,),), (("x", 0.5),), ((0.5, True),)]))


def like_or_unlike(default):
    """A value of the default's kind, often in range, or one of another."""
    if isinstance(default, tuple):
        like = st.lists(st.tuples(st.floats(0.0, 8.0) | st.integers(0, 8), st.floats(0.0, 1.0)),
                        min_size=1, max_size=3).map(tuple)
    elif isinstance(default, int):
        like = st.integers(0, 60)
    else:
        like = st.floats(0.0, 1.0) | st.integers(0, 1)
    return like | _UNLIKE


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sampled_from(sorted(_DEFAULTS)), unique=True, max_size=3).flatmap(
    lambda keys: st.fixed_dictionaries({key: like_or_unlike(_DEFAULTS[key]) for key in keys})))
def test_python_config_is_its_parsed_text(kwargs):
    """A config built in Python raises InvalidParamsError, or equals the
    config parsed from its text and gives the same report."""
    try:
        config = PipelineConfig(**kwargs)
    except InvalidParamsError:
        return
    parsed = parse_config(config_text(kwargs))
    assert parsed == config
    image = synthetic_facade().image
    assert (format_report(report_from_result(run_pipeline(image, parsed)))
            == format_report(report_from_result(run_pipeline(image, config))))


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


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([2, 4, 8]), st.sampled_from([np.uint8, np.int16, np.int64]),
       st.sampled_from(["facade", "noise", "blocks"]), st.integers(0, 2**32 - 1))
def test_upsampled_integer_image_gives_the_original_report(k, dtype, kind, seed):
    # a k x k block of equal integers has that integer as its exact mean
    rng = np.random.default_rng(seed)
    if kind == "facade":
        original = np.rint(synthetic_facade().image + rng.normal(0, 8, (128, 128)))
    elif kind == "noise":
        original = rng.integers(0, 256, (128, 128))
    else:
        original = np.kron(rng.choice([0, 90, 255], (16, 16)), np.ones((8, 8)))
    original = original.astype(dtype)
    upsampled = original.repeat(k, axis=0).repeat(k, axis=1)
    want, got = run_pipeline(original), run_pipeline(upsampled)
    assert got.pyramid.base.tobytes() == want.pyramid.base.tobytes()
    assert (format_report(report_from_result(got))
            == format_report(report_from_result(want)))


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
