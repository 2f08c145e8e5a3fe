"""Level-structured pyramid pipeline for window candidate detection.

The base image lives at the bottom level (level 7 for a 128x128 image).
Micro-edges are extracted per base cell, aggregated into short edges one
level up and long edges two levels up, and pairs of opposite-polarity
horizontal long edges hypothesize window rectangles.  Candidates then run
through the staged belief chain: feature evidence, sibling alignment, and
non-window evidence from the building boundary.

All stages are pure functions of (image, config).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .assessment import BeliefTables, FeatureMeasurements, feature_supports
from .errors import (BadDimensionsError, InvalidParamsError, OutOfRangeError, ParseError,
                     RectOutOfBoundsError)
from .evidence import text_lines
from .knowledge import KnowledgeSource
from .stages import stage_a_belief, stage_b_belief, stage_c_belief, stage_c_conflict

# direction convention: gradient angle quantized to multiples of 45 degrees;
# d and d+4 are the same orientation with opposite contrast polarity
HORIZONTAL_GRADIENT = (0, 4)   # vertical edge lines
VERTICAL_GRADIENT = (2, 6)     # horizontal edge lines
DIAGONAL = (1, 3, 5, 7)

NO_EDGE = -1

# the largest pixel magnitude accepted: block means and gradient sums of
# such pixels stay far from overflow
MAX_PIXEL = 1e300

# cells of a 2x2 child block that are collinear along the edge orientation
_COLLINEAR_PAIRS = {
    0: (((0, 0), (1, 0)), ((0, 1), (1, 1))),  # vertical lines: same column
    2: (((0, 0), (0, 1)), ((1, 0), (1, 1))),  # horizontal lines: same row
    1: (((0, 0), (1, 1)),),
    3: (((0, 1), (1, 0)),),
}
for _d in (4, 5, 6, 7):
    _COLLINEAR_PAIRS[_d] = _COLLINEAR_PAIRS[_d - 4]

_INT_KEYS = ("short_support", "long_support", "pair_min_sep", "pair_max_sep",
             "sibling_tolerance", "cluster_distance")
_FLOAT_KEYS = ("edge_threshold", "survivor_threshold", "sibling_support",
               "non_window_support", "quality_weight")
_BAND_KEYS = ("elongation_bands", "hv_d_bands", "boundary_bands")
_UNIT_KEYS = ("sibling_support", "non_window_support", "quality_weight")


@dataclass(frozen=True)
class PipelineConfig:
    edge_threshold: float = 32.0
    short_support: int = 2
    long_support: int = 2
    pair_min_sep: int = 4
    pair_max_sep: int = 48
    survivor_threshold: float = 0.3
    sibling_tolerance: int = 2       # level-5 cells
    sibling_support: float = 0.6
    non_window_support: float = 0.5
    cluster_distance: int = 2        # level-5 cells
    quality_weight: float = 1.0
    tables: BeliefTables = field(default_factory=BeliefTables)

    def __post_init__(self):
        for key in _FLOAT_KEYS:
            if not math.isfinite(getattr(self, key)):
                raise InvalidParamsError(f"{key} = {getattr(self, key)} is not finite")
        if min(self.short_support, self.long_support) < 1:
            raise InvalidParamsError("short_support and long_support must be at least 1")
        if min(self.sibling_tolerance, self.cluster_distance) < 0:
            raise InvalidParamsError("sibling_tolerance and cluster_distance must be non-negative")
        if self.pair_min_sep < 1:   # a zero separation spans a rect with no rows
            raise InvalidParamsError("pair_min_sep must be at least 1")
        if self.pair_min_sep > self.pair_max_sep:
            raise InvalidParamsError(
                f"pair_min_sep {self.pair_min_sep} exceeds pair_max_sep {self.pair_max_sep}")
        # table thresholds may be infinite (always or never met), not NaN
        bounds = [bound for key in _BAND_KEYS for bound, _ in getattr(self.tables, key)]
        if any(math.isnan(bound) for bound in bounds + [self.tables.low_edgedness]):
            raise InvalidParamsError("belief table thresholds must not be NaN")
        # supports, weights and table beliefs are masses
        unit = [(key, getattr(self, key)) for key in _UNIT_KEYS]
        unit += [(key, bel) for key in _BAND_KEYS for _, bel in getattr(self.tables, key)]
        unit.append(("low_edgedness_belief", self.tables.low_edgedness_belief))
        for key, value in unit:
            if not 0.0 <= value <= 1.0:
                raise InvalidParamsError(f"{key} value {value} outside [0, 1]")


def parse_config(text: str) -> PipelineConfig:
    """Parse the ``key = value`` pipeline config format (# comments).

    Belief-table bands are comma-separated ``threshold:value`` pairs, e.g.
    ``boundary_bands = 0.75:0.6,0.4:0.3,0.15:0.1``.
    """
    table_floats = {"low_edgedness", "low_edgedness_belief"}
    cfg_kwargs: dict = {}
    table_kwargs: dict = {}
    for lineno, line in text_lines(text):
        if "=" not in line:
            raise ParseError(f"line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        try:
            if key in _INT_KEYS:
                cfg_kwargs[key] = int(value)
            elif key in _FLOAT_KEYS:
                cfg_kwargs[key] = float(value)
            elif key in table_floats:
                table_kwargs[key] = float(value)
            elif key in _BAND_KEYS:
                pairs = []
                for item in value.split(","):
                    bound, bel = item.split(":")
                    pairs.append((float(bound), float(bel)))
                table_kwargs[key] = tuple(pairs)
            else:
                raise ParseError(f"line {lineno}: unknown key {key!r}")
        except (ValueError, ParseError) as exc:
            if isinstance(exc, ParseError):
                raise
            raise ParseError(f"line {lineno}: bad value {value!r} for {key}") from None
    tables = BeliefTables(**table_kwargs) if table_kwargs else BeliefTables()
    return PipelineConfig(tables=tables, **cfg_kwargs)


@dataclass(frozen=True)
class Pyramid:
    """Square grids halving in side per level; the image sits at the base."""

    levels: tuple[np.ndarray, ...]  # levels[L] has side 2^L

    @property
    def base_level(self) -> int:
        return len(self.levels) - 1

    @property
    def base(self) -> np.ndarray:
        return self.levels[-1]


def build_pyramid(image: np.ndarray) -> Pyramid:
    """Stack an image into a pyramid by 2x2 block averaging.

    A 512x512 input is first reduced to 128x128 (4x4 block average) to
    match the base-level-7 configuration.
    """
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 2 or image.shape[0] != image.shape[1]:
        raise BadDimensionsError(f"image must be square 2D, got {image.shape}")
    side = image.shape[0]
    if side < 8 or side & (side - 1):
        raise BadDimensionsError(f"side {side} must be a power of two >= 8")
    if not (np.abs(image) <= MAX_PIXEL).all():   # also NaN
        raise OutOfRangeError(f"image has a NaN pixel or one beyond ±{MAX_PIXEL:g}")
    if side == 512:
        image = image.reshape(128, 4, 128, 4).mean(axis=(1, 3))
        side = 128
    levels = [image]
    while side > 1:
        side //= 2
        levels.append(levels[-1].reshape(side, 2, side, 2).mean(axis=(1, 3)))
    levels.reverse()
    return Pyramid(tuple(levels))


@dataclass(frozen=True)
class EdgeSegment:
    level: int
    row: int
    col: int
    direction: int
    support_count: int


@dataclass(frozen=True)
class EdgeField:
    """Per-cell micro-edge grids: direction (NO_EDGE where none) and
    gradient magnitude."""

    directions: np.ndarray
    magnitudes: np.ndarray

    def count(self) -> int:
        return int(np.count_nonzero(self.directions != NO_EDGE))


def extract_micro_edges(p: Pyramid, config: PipelineConfig = PipelineConfig()) -> EdgeField:
    """Per-cell gradient edges at the base level.

    Emits an edge where |gx| + |gy| reaches the threshold; the direction is
    the gradient angle quantized to the nearest multiple of 45 degrees.
    Border cells emit nothing.
    """
    image = p.base
    n = image.shape[0]
    # 3x3 weighted central differences over the interior
    # gx: right column sum minus left column sum, rows weighted 1,2,1
    col_weighted = image[:-2, :] + 2.0 * image[1:-1, :] + image[2:, :]
    gx = col_weighted[:, 2:] - col_weighted[:, :-2]
    # gy: bottom row sum minus top row sum, columns weighted 1,2,1
    row_weighted = image[:, :-2] + 2.0 * image[:, 1:-1] + image[:, 2:]
    gy = row_weighted[2:, :] - row_weighted[:-2, :]
    mag = np.abs(gx) + np.abs(gy)
    hit = mag >= config.edge_threshold
    quantized = np.round(np.degrees(np.arctan2(gy, gx)) / 45.0).astype(np.int64) % 8
    directions = np.full((n, n), NO_EDGE, dtype=np.int8)
    magnitudes = np.zeros((n, n), dtype=np.float64)
    directions[1:n - 1, 1:n - 1] = np.where(hit, quantized, NO_EDGE)
    magnitudes[1:n - 1, 1:n - 1] = np.where(hit, mag, 0.0)
    return EdgeField(directions, magnitudes)


def _segments(level: int, counts: np.ndarray, keep: np.ndarray) -> list[EdgeSegment]:
    """The kept (row, col, direction) entries of a level, in row, column,
    direction order, each with its child count."""
    rows, cols, dirs = np.nonzero(keep)
    return [EdgeSegment(level, r, c, d, n) for r, c, d, n in
            zip(rows.tolist(), cols.tolist(), dirs.tolist(), counts[keep].tolist())]


def aggregate_short_edges(p: Pyramid, micro: EdgeField,
                          config: PipelineConfig = PipelineConfig()) -> list[EdgeSegment]:
    """Short edges one level above the base: a cell holds a direction when
    enough of its four children agree on it."""
    n6 = p.base.shape[0] // 2
    blocks = micro.directions.reshape(n6, 2, n6, 2).swapaxes(1, 2).reshape(n6, n6, 4)
    counts = np.count_nonzero(blocks[..., None] == np.arange(8, dtype=np.int8), axis=2)
    return _segments(p.base_level - 1, counts, counts >= config.short_support)


def aggregate_long_edges(p: Pyramid, short: list[EdgeSegment],
                         config: PipelineConfig = PipelineConfig()) -> list[EdgeSegment]:
    """Long edges two levels above the base: a cell holds a direction when
    enough of its four short-edge children carry it and two of those are
    collinear along the edge orientation; a count threshold alone is not
    enough."""
    n6 = p.base.shape[0] // 2
    n5 = n6 // 2
    present = np.zeros((n6, n6, 8), dtype=bool)
    cells = np.array([(s.row, s.col, s.direction) for s in short], dtype=np.intp)
    present[tuple(cells.reshape(-1, 3).T)] = True
    blocks = present.reshape(n5, 2, n5, 2, 8)   # (row5, dr, col5, dc, direction)
    counts = blocks.sum(axis=(1, 3))
    collinear = np.zeros((n5, n5, 8), dtype=bool)
    for d, pairs in _COLLINEAR_PAIRS.items():
        for (r0, c0), (r1, c1) in pairs:
            collinear[..., d] |= blocks[:, r0, :, c0, d] & blocks[:, r1, :, c1, d]
    return _segments(p.base_level - 2, counts, (counts >= config.long_support) & collinear)


@dataclass(frozen=True)
class Rect:
    """A candidate rectangle in base-level pixels."""

    top: int
    left: int
    height: int
    width: int

    @property
    def bottom(self) -> int:
        return self.top + self.height

    @property
    def right(self) -> int:
        return self.left + self.width

    @property
    def center(self) -> tuple[float, float]:
        return (self.top + self.height / 2.0, self.left + self.width / 2.0)


@dataclass
class CandidateArea:
    id: int
    rect: Rect
    measurements: FeatureMeasurements | None = None
    supports: tuple[float, float, float, float] | None = None
    bel_a: float = 0.0
    bel_b: float = 0.0
    bel_c: float = 0.0
    v_sibl: float = 0.0
    h_sibl: float = 0.0
    non_window: float = 0.0
    conflict: float = 0.0   # stage C's combination conflict K


@dataclass(frozen=True)
class EdgeLine:
    """A maximal horizontal edge line, merged from long-edge segments.

    A physical border registers at one or two adjacent level-5 rows; the
    pixel row places it at sub-cell resolution (on the cell boundary when
    two rows responded, at the cell center when one did).
    """

    direction: int
    row_min: int
    row_max: int
    col_start: int
    col_end: int

    @property
    def pixel_row(self) -> int:
        return 2 * (self.row_min + self.row_max + 1)


def _edge_runs(long_edges: list[EdgeSegment], directions) -> list[tuple[int, int, int, int]]:
    """Merge same-row, same-direction long edges into maximal horizontal
    runs; returns (direction, row, col_start, col_end) in level-5 cells."""
    by_row: dict[tuple[int, int], list[int]] = {}
    for seg in long_edges:
        if seg.direction in directions:
            by_row.setdefault((seg.direction, seg.row), []).append(seg.col)
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


def _components(n: int, links) -> list[list[int]]:
    """Connected components of the indices 0..n-1 under the (i, j) links.

    Members ascend within a component, and components are ordered by their
    lowest member.
    """
    parent = list(range(n))

    def root(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j in links:
        parent[root(i)] = root(j)
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(root(i), []).append(i)
    return list(groups.values())


def _edge_lines(long_edges: list[EdgeSegment], directions) -> list[EdgeLine]:
    """Fuse runs on adjacent rows that overlap in columns into edge lines."""
    runs = _edge_runs(long_edges, directions)
    links = (
        (i, j)
        for i, (d1, row1, s1, e1) in enumerate(runs)
        for j, (d2, row2, s2, e2) in enumerate(runs[i + 1:], i + 1)
        if d2 == d1 and abs(row2 - row1) == 1 and s1 <= e2 and s2 <= e1
    )
    lines = []
    for group in _components(len(runs), links):
        members = [runs[i] for i in group]
        d = members[0][0]
        rows = [row for _, row, _, _ in members]
        lines.append(EdgeLine(
            d, min(rows), max(rows),
            min(s for _, _, s, _ in members),
            max(e for _, _, _, e in members)))
    return sorted(lines, key=lambda ln: (ln.row_min, ln.col_start, ln.direction))


def find_window_candidates(long_edges: list[EdgeSegment],
                           config: PipelineConfig = PipelineConfig()) -> list[CandidateArea]:
    """Rectangles spanned by opposite-polarity horizontal long-edge pairs.

    Pairs must overlap horizontally by at least one level-5 cell and be
    vertically separated within the configured range.  Nested rectangles
    are deduplicated in favor of the tightest pair; ids follow raster order
    of the top edge.
    """
    lines = _edge_lines(long_edges, VERTICAL_GRADIENT)
    rects = []
    for i, a in enumerate(lines):
        for b in lines[i + 1:]:
            if b.direction != (a.direction + 4) % 8:
                continue
            sep = abs(b.pixel_row - a.pixel_row)
            if not config.pair_min_sep <= sep <= config.pair_max_sep:
                continue
            lo, hi = max(a.col_start, b.col_start), min(a.col_end, b.col_end)
            if lo > hi:
                continue
            top = min(a.pixel_row, b.pixel_row)
            rects.append(Rect(top, lo * 4, sep, (hi - lo + 1) * 4))
    rects = sorted(set(rects), key=lambda r: (r.top, r.left, r.height, r.width))
    top, left, bottom, right = np.array([(r.top, r.left, r.bottom, r.right) for r in rects],
                                        dtype=np.intp).reshape(-1, 4).T
    # nests[i, j]: rect i contains rect j; the rects are distinct
    nests = ((top[:, None] <= top) & (left[:, None] <= left)
             & (bottom[:, None] >= bottom) & (right[:, None] >= right))
    np.fill_diagonal(nests, False)
    kept = [r for r, outer in zip(rects, nests.any(axis=1).tolist()) if not outer]
    return [CandidateArea(i + 1, r) for i, r in enumerate(kept)]


def _box_sums(mask: np.ndarray, top, left, bottom, right) -> np.ndarray:
    """Count of true cells of ``mask`` inside each [top, bottom) x
    [left, right) box, from one summed-area table."""
    n = mask.shape[0]
    table = np.zeros((n + 1, n + 1), dtype=np.int64)
    table[1:, 1:] = mask.cumsum(axis=0).cumsum(axis=1)
    return table[bottom, right] - table[top, right] - table[bottom, left] + table[top, left]


def measure_candidates(p: Pyramid, cands: list[CandidateArea],
                       micro: EdgeField) -> list[FeatureMeasurements]:
    """Shape, texture and boundary measurements over each candidate rect.

    Edge counts come from summed-area tables of the axis-aligned and
    diagonal micro-edges.  A side's coverage is the fraction of the rect's
    rows holding a vertical micro-edge within one pixel of the side column,
    read from per-column running counts of that three-column test.
    """
    n = p.base.shape[0]
    for c in cands:
        r = c.rect
        if r.top < 0 or r.left < 0 or r.bottom > n or r.right > n or min(r.height, r.width) < 1:
            raise RectOutOfBoundsError(f"rect {r} empty or outside {n}x{n} base")
    top, left, bottom, right = np.array(
        [(c.rect.top, c.rect.left, c.rect.bottom, c.rect.right) for c in cands],
        dtype=np.intp).reshape(-1, 4).T
    d = micro.directions
    hv = _box_sums(np.isin(d, HORIZONTAL_GRADIENT + VERTICAL_GRADIENT), top, left, bottom, right)
    diag = _box_sums(np.isin(d, DIAGONAL), top, left, bottom, right)
    vertical = np.isin(d, HORIZONTAL_GRADIENT)
    near = vertical.copy()
    near[:, 1:] |= vertical[:, :-1]
    near[:, :-1] |= vertical[:, 1:]
    covered = np.zeros((n + 1, n), dtype=np.int64)   # covered[r, col]: rows above r
    covered[1:] = near.cumsum(axis=0)
    height, width = bottom - top, right - left
    columns = (
        np.maximum(height, width) / np.minimum(height, width),
        (hv + diag) / (height * width),
        np.divide(hv, diag, out=np.full(len(hv), math.inf), where=diag > 0),
        (covered[bottom, left] - covered[top, left]) / height,
        (covered[bottom, right - 1] - covered[top, right - 1]) / height,
    )
    return [FeatureMeasurements(*values) for values in zip(*(col.tolist() for col in columns))]


def _columns(cands: list[CandidateArea], *names: str) -> np.ndarray:
    """The named fields of the candidates as float rows, one per name."""
    values = [[getattr(c, name) for name in names] for c in cands]
    return np.array(values, dtype=np.float64).reshape(-1, len(names)).T


def stage_a_beliefs(cands: list[CandidateArea], p: Pyramid, micro: EdgeField,
                    window_ks: KnowledgeSource,
                    config: PipelineConfig = PipelineConfig()) -> None:
    """Measure each candidate and verify the feature evidence."""
    for c, m in zip(cands, measure_candidates(p, cands, micro)):
        c.measurements = m
        c.supports = feature_supports(m, config.tables, config.quality_weight)
    supports = np.array([c.supports for c in cands], dtype=np.float64).reshape(-1, 4).T
    for c, bel in zip(cands, stage_a_belief(*supports, window_ks=window_ks).tolist()):
        c.bel_a = bel


def sibling_search(cands: list[CandidateArea],
                   config: PipelineConfig = PipelineConfig()) -> None:
    """Lateral search among surviving candidates for aligned neighbors.

    A horizontal sibling shares the row (vertical centers within the
    tolerance) without overlapping horizontally; vertical siblings swap the
    axes.
    """
    survivors = [c for c in cands if c.bel_a >= config.survivor_threshold]
    tol = config.sibling_tolerance * 4  # level-5 cells in base pixels
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
        c.h_sibl = h
        c.v_sibl = v


def building_boundary(long_edges: list[EdgeSegment], cands: list[CandidateArea],
                      config: PipelineConfig = PipelineConfig()) -> None:
    """Flag candidates outside the building region with non-window support.

    The building region is the bounding box of the densest connected
    cluster of long edges (edges within ``cluster_distance`` level-5 cells
    of each other).  With no long edges at all, every candidate stays 0.
    """
    for c in cands:
        c.non_window = 0.0
    if not long_edges or not cands:
        return
    cells = sorted({(seg.row, seg.col) for seg in long_edges})
    dist = config.cluster_distance

    def links():
        for i, (r1, c1) in enumerate(cells):
            for j in range(i + 1, len(cells)):
                r2, c2 = cells[j]
                if r2 - r1 > dist:
                    break  # cells are sorted by row
                if abs(c2 - c1) <= dist:
                    yield i, j

    clusters = [[cells[i] for i in group] for group in _components(len(cells), links())]
    densest = max(clusters, key=lambda members: (len(members), members[0]))
    rows = [r for r, _ in densest]
    cols = [col for _, col in densest]
    top, bottom = min(rows) * 4, (max(rows) + 1) * 4
    left, right = min(cols) * 4, (max(cols) + 1) * 4
    for c in cands:
        cy, cx = c.rect.center
        if not (top <= cy < bottom and left <= cx < right):
            c.non_window = config.non_window_support


def stage_b_beliefs(cands: list[CandidateArea], sibling_ks: KnowledgeSource) -> None:
    window, v_sibl, h_sibl = _columns(cands, "bel_a", "v_sibl", "h_sibl")
    for c, bel in zip(cands, stage_b_belief(window, v_sibl, h_sibl, sibling_ks).tolist()):
        c.bel_b = bel


def stage_c_beliefs(cands: list[CandidateArea], sibling_ks: KnowledgeSource) -> None:
    window, non_window, v_sibl, h_sibl = _columns(cands, "bel_a", "non_window",
                                                  "v_sibl", "h_sibl")
    bel_c = stage_c_belief(window, non_window, v_sibl, h_sibl, sibling_ks)
    conflict = stage_c_conflict(window, non_window)
    for c, bel, k in zip(cands, bel_c.tolist(), conflict.tolist()):
        c.bel_c, c.conflict = bel, k


@dataclass(frozen=True)
class PipelineResult:
    pyramid: Pyramid
    micro: EdgeField
    short_edges: list[EdgeSegment]
    long_edges: list[EdgeSegment]
    candidates: list[CandidateArea]


def run_pipeline(image: np.ndarray,
                 config: PipelineConfig = PipelineConfig(),
                 window_ks: KnowledgeSource | None = None,
                 sibling_ks: KnowledgeSource | None = None) -> PipelineResult:
    """The full level-synchronous chain, from pixels to staged beliefs."""
    from .stages import sibling_knowledge, window_knowledge
    window_ks = window_ks if window_ks is not None else window_knowledge()
    sibling_ks = sibling_ks if sibling_ks is not None else sibling_knowledge()
    p = build_pyramid(image)
    micro = extract_micro_edges(p, config)
    short = aggregate_short_edges(p, micro, config)
    long_edges = aggregate_long_edges(p, short, config)
    cands = find_window_candidates(long_edges, config)
    stage_a_beliefs(cands, p, micro, window_ks, config)
    sibling_search(cands, config)
    stage_b_beliefs(cands, sibling_ks)
    building_boundary(long_edges, cands, config)
    stage_c_beliefs(cands, sibling_ks)
    return PipelineResult(p, micro, short, long_edges, cands)
