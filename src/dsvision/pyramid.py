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
    image = np.asarray(image)
    if image.ndim != 2 or image.shape[0] != image.shape[1]:
        raise BadDimensionsError(f"image must be square 2D, got {image.shape}")
    side = image.shape[0]
    if side < 8 or side & (side - 1):
        raise BadDimensionsError(f"side {side} must be a power of two >= 8")
    # an integer pixel is finite and far below MAX_PIXEL: only floats are scanned
    if not np.issubdtype(image.dtype, np.integer):
        image = image.astype(np.float64, copy=False)
        if not (np.abs(image) <= MAX_PIXEL).all():   # also NaN
            raise OutOfRangeError(f"image has a NaN pixel or one beyond ±{MAX_PIXEL:g}")
    if side == 512:   # float64 means, without a float64 copy of integer pixels
        image = image.reshape(128, 4, 128, 4).mean(axis=(1, 3))
        side = 128
    levels = [image.astype(np.float64, copy=False)]
    while side > 1:
        side //= 2
        levels.append(levels[-1].reshape(side, 2, side, 2).mean(axis=(1, 3)))
    levels.reverse()
    return Pyramid(tuple(levels))


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


def _edge_rows(counts: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """The kept cells of a level's (row, col, direction) count grid as rows
    of (row, col, direction, count), in row, column, direction order."""
    return np.column_stack((np.argwhere(keep), counts[keep]))


def aggregate_short_edges(p: Pyramid, micro: EdgeField,
                          config: PipelineConfig = PipelineConfig()) -> np.ndarray:
    """Short edges one level above the base: a cell holds a direction when
    enough of its four children agree on it.  One (row, col, direction,
    count) row per short edge."""
    n = p.base.shape[0]
    rows, cols = np.nonzero(micro.directions != NO_EDGE)
    key = ((rows // 2) * (n // 2) + cols // 2) * 8 + micro.directions[rows, cols]
    counts = np.bincount(key, minlength=(n // 2) ** 2 * 8).reshape(n // 2, n // 2, 8)
    return _edge_rows(counts, counts >= config.short_support)


def aggregate_long_edges(p: Pyramid, short: np.ndarray,
                         config: PipelineConfig = PipelineConfig()) -> np.ndarray:
    """Long edges two levels above the base: a cell holds a direction when
    enough of its four short-edge children carry it and two of those are
    collinear along the edge orientation; a count threshold alone is not
    enough.  Takes and returns (row, col, direction, count) rows."""
    n6 = p.base.shape[0] // 2
    n5 = n6 // 2
    present = np.zeros((n6, n6, 8), dtype=bool)
    present[short[:, 0], short[:, 1], short[:, 2]] = True
    blocks = present.reshape(n5, 2, n5, 2, 8)   # (row5, dr, col5, dc, direction)
    counts = blocks.sum(axis=(1, 3))
    collinear = np.zeros((n5, n5, 8), dtype=bool)
    for d, pairs in _COLLINEAR_PAIRS.items():
        for (r0, c0), (r1, c1) in pairs:
            collinear[..., d] |= blocks[:, r0, :, c0, d] & blocks[:, r1, :, c1, d]
    return _edge_rows(counts, (counts >= config.long_support) & collinear)


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


def _label(label: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Label each node with the lowest node of its component, once the links
    (i[k], j[k]) join the components ``label`` holds (``np.arange(n)`` for
    none).  Each round hooks the larger root of every link still joining two
    trees onto the smaller, then jumps pointers to the roots; parents only
    decrease, so a root is the lowest node of its tree."""
    while True:
        a, b = label[i], label[j]
        apart = a != b
        if not apart.any():
            return label
        i, j, a, b = i[apart], j[apart], a[apart], b[apart]
        label = label.copy()
        np.minimum.at(label, np.maximum(a, b), np.minimum(a, b))
        while ((up := label[label]) != label).any():
            label = up


def _ranges(first: np.ndarray, count: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every (k, value) with value in [first[k], first[k] + count[k])."""
    owner = np.repeat(np.arange(len(count)), count)
    return owner, first[owner] + np.arange(len(owner)) - (np.cumsum(count) - count)[owner]


def _edge_lines(long_edges: np.ndarray) -> np.ndarray:
    """Horizontal edge lines as rows of (direction, row_min, row_max,
    col_start, col_end) in level-5 cells: the 4-connected components of the
    long edges of each direction in ``VERTICAL_GRADIENT``.

    A physical border registers at one or two adjacent level-5 rows; the
    pixel row 2 * (row_min + row_max + 1) places it at sub-cell resolution
    (on the cell boundary when two rows responded, at the cell center when
    one did).  Horizontal runs are linked where they touch on adjacent rows.
    """
    edges = long_edges[np.isin(long_edges[:, 2], VERTICAL_GRADIENT)]
    shape = (2, edges[:, 0].max(initial=0) + 1, edges[:, 1].max(initial=0) + 3)
    cells = np.zeros(shape, dtype=np.int8)
    cells[edges[:, 2] // 4, edges[:, 0], edges[:, 1] + 1] = 1
    step = np.diff(cells, axis=2)
    plane, row, start = np.nonzero(step == 1)
    end = np.nonzero(step == -1)[2] - 1
    run = np.cumsum(step == 1).reshape(step.shape)[..., :-1] - 1   # each cell's run
    vertical = (cells[:, :-1] & cells[:, 1:])[..., 1:-1].astype(bool)
    root = _label(np.arange(len(row)), run[:, :-1][vertical], run[:, 1:][vertical])
    row_max, col_start, col_end = row.copy(), start.copy(), end.copy()
    np.maximum.at(row_max, root, row)
    np.minimum.at(col_start, root, start)
    np.maximum.at(col_end, root, end)
    lines = np.column_stack((VERTICAL_GRADIENT[0] + 4 * plane, row, row_max, col_start, col_end))
    return lines[root == np.arange(len(root))]


def _line_pairs(pixel_row, start, end, covering, probing, min_sep, max_sep, skip):
    """(probing, covering) index pairs of lines min_sep..max_sep pixel rows
    apart where the covering line holds the probing line's start column,
    not counting the covering line's first ``skip`` columns.

    Every column of every covering line is one sorted (column, pixel row)
    key, so each probe is two binary searches.
    """
    span = int(pixel_row.max(initial=0)) + 1
    line, column = _ranges(start[covering] + skip, end[covering] - start[covering] + 1 - skip)
    line = covering[line]
    key = column * span + pixel_row[line]
    order = np.argsort(key, kind="stable")
    key, line = key[order], line[order]
    base, at = start[probing] * span, pixel_row[probing]
    min_sep, max_sep = min(min_sep, span), min(max_sep, span)
    found = []
    for lo, hi in ((at - max_sep, at - min_sep), (at + min_sep, at + max_sep)):
        first = np.searchsorted(key, base + np.clip(lo, 0, span), "left")
        last = np.searchsorted(key, base + np.clip(hi, -1, span - 1), "right")
        owner, hit = _ranges(first, np.maximum(last - first, 0))
        found.append((probing[owner], line[hit]))
    return [np.concatenate(side) for side in zip(*found)]


def find_window_candidates(long_edges: np.ndarray,
                           config: PipelineConfig = PipelineConfig()) -> list[CandidateArea]:
    """Rectangles spanned by opposite-polarity horizontal long-edge pairs.

    Pairs must overlap horizontally by at least one level-5 cell and be
    vertically separated within the configured range.  Nested rectangles
    are deduplicated in favor of the tightest pair; ids follow raster order
    of the top edge.

    Each pair is found once, at the later of the two start columns, so work
    and memory follow the grid and the pairs found, never all line pairs.
    """
    direction, row_min, row_max, start, end = _edge_lines(long_edges).T
    pixel_row = 2 * (row_min + row_max + 1)
    d2, d6 = (np.flatnonzero(direction == d) for d in VERTICAL_GRADIENT)
    seps = config.pair_min_sep, config.pair_max_sep
    a1, b1 = _line_pairs(pixel_row, start, end, d6, d2, *seps, skip=0)
    b2, a2 = _line_pairs(pixel_row, start, end, d2, d6, *seps, skip=1)
    a, b = np.concatenate((a1, a2)), np.concatenate((b1, b2))
    lo, hi = np.maximum(start[a], start[b]), np.minimum(end[a], end[b])
    top = np.minimum(pixel_row[a], pixel_row[b])
    sep = np.abs(pixel_row[a] - pixel_row[b])
    # sorted distinct rects; np.unique would import numpy.ma, 1.6 MB resident
    rects = np.column_stack((top, lo * 4, sep, (hi - lo + 1) * 4))
    rects = rects[np.lexsort(rects.T[::-1])]
    fresh = np.ones(len(rects), dtype=bool)
    fresh[1:] = (rects[1:] != rects[:-1]).any(axis=1)
    rects = rects[fresh]
    top, left, height, width = rects.T
    bottom, right = top + height, left + width
    # nests[i, j]: rect i contains rect j; the rects are distinct
    nests = ((top[:, None] <= top) & (left[:, None] <= left)
             & (bottom[:, None] >= bottom) & (right[:, None] >= right))
    np.fill_diagonal(nests, False)
    kept = rects[~nests.any(axis=1)]
    return [CandidateArea(i, Rect(*r)) for i, r in enumerate(kept.tolist(), 1)]


# one row per direction class, NO_EDGE (-1) in the last column: the edge
# count (axis-aligned edges in the low 32 bits, diagonal ones above them,
# exact for base sides up to 32768), and the vertical edge lines
_DIRECTION_CLASSES = np.zeros((2, 9), dtype=np.int64)
_DIRECTION_CLASSES[0, list(HORIZONTAL_GRADIENT + VERTICAL_GRADIENT)] = 1
_DIRECTION_CLASSES[0, list(DIAGONAL)] = 1 << 32
_DIRECTION_CLASSES[1, list(HORIZONTAL_GRADIENT)] = 1


def _rects(cands: list[CandidateArea]) -> np.ndarray:
    """The candidates' (top, left, height, width) as four int rows."""
    rects = [(c.rect.top, c.rect.left, c.rect.height, c.rect.width) for c in cands]
    return np.array(rects, dtype=np.intp).reshape(-1, 4).T


def measure_candidates(p: Pyramid, cands: list[CandidateArea],
                       micro: EdgeField) -> list[FeatureMeasurements]:
    """Shape, texture and boundary measurements over each candidate rect.

    Edge counts are sums over the rect's rows of one running count per row
    of the axis-aligned and diagonal micro-edges.  A side's coverage is the
    fraction of the rect's rows holding a vertical micro-edge within one
    pixel of the side column.
    """
    if not cands:
        return []
    n = p.base.shape[0]
    top, left, height, width = _rects(cands)
    bottom, right = top + height, left + width
    bad = ((np.minimum(top, left) < 0) | (np.maximum(bottom, right) > n)
           | (np.minimum(height, width) < 1))
    if bad.any():
        r = cands[int(bad.argmax())].rect
        raise RectOutOfBoundsError(f"rect {r} empty or outside {n}x{n} base")
    codes, vertical = _DIRECTION_CLASSES.take(micro.directions, axis=1, mode="wrap")
    counts = np.zeros((n, n + 1), dtype=np.int64)   # counts[row, k]: the row's first k pixels
    np.cumsum(codes, axis=1, out=counts[:, 1:])
    near = vertical.copy()
    near[:, 1:] |= vertical[:, :-1]
    near[:, :-1] |= vertical[:, 1:]
    owner, row = _ranges(top, height)
    first = np.cumsum(height) - height   # each rect's first row in (owner, row)
    edges = np.add.reduceat(counts[row, right[owner]] - counts[row, left[owner]], first)
    hv, diag = edges & 0xFFFFFFFF, edges >> 32
    columns = (
        np.maximum(height, width) / np.minimum(height, width),
        (hv + diag) / (height * width),
        np.divide(hv, diag, out=np.full(len(hv), math.inf), where=diag > 0),
        np.add.reduceat(near[row, left[owner]], first) / height,
        np.add.reduceat(near[row, right[owner] - 1], first) / height,
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
    measurements = measure_candidates(p, cands, micro)
    supports = [feature_supports(m, config.tables, config.quality_weight) for m in measurements]
    bel_a = stage_a_belief(*np.array(supports, dtype=np.float64).reshape(-1, 4).T,
                           window_ks=window_ks)
    for c, m, s, bel in zip(cands, measurements, supports, bel_a.tolist()):
        c.measurements, c.supports, c.bel_a = m, s, bel


def sibling_search(cands: list[CandidateArea],
                   config: PipelineConfig = PipelineConfig()) -> None:
    """Lateral search among surviving candidates for aligned neighbors.

    A horizontal sibling shares the row (vertical centers within the
    tolerance) without overlapping horizontally; vertical siblings swap the
    axes.  Candidates below the survivor threshold get no sibling support.
    """
    (bel_a,) = _columns(cands, "bel_a")
    alive = np.flatnonzero(bel_a >= config.survivor_threshold)
    support = np.zeros((2, len(cands)))   # h_sibl, v_sibl
    if len(alive) > 1:   # a lone survivor has no sibling
        top, left, height, width = _rects(cands)[:, alive]
        bottom, right = top + height, left + width
        cy, cx = top + height / 2.0, left + width / 2.0
        tol = config.sibling_tolerance * 4  # level-5 cells in base pixels
        # [i, j] for survivors i and j, a survivor never its own sibling
        apart = ~np.eye(len(alive), dtype=bool)
        h_overlap = (left[:, None] < right) & (left < right[:, None])
        v_overlap = (top[:, None] < bottom) & (top < bottom[:, None])
        h = (apart & ~h_overlap & (np.abs(cy[:, None] - cy) <= tol)).any(axis=1)
        v = (apart & ~v_overlap & (np.abs(cx[:, None] - cx) <= tol)).any(axis=1)
        support[:, alive] = np.where([h, v], config.sibling_support, 0.0)
    for c, (h_sibl, v_sibl) in zip(cands, support.T.tolist()):
        c.h_sibl, c.v_sibl = h_sibl, v_sibl


# the four neighbours after a cell in raster order, 8-connectivity
_FORWARD = ((np.s_[:, :-1], np.s_[:, 1:]), (np.s_[:-1, :], np.s_[1:, :]),
            (np.s_[:-1, :-1], np.s_[1:, 1:]), (np.s_[:-1, 1:], np.s_[1:, :-1]))


def _clusters(grid: np.ndarray, reach: int) -> np.ndarray:
    """A label for each true cell of ``grid``, in raster order: cells within
    ``reach`` of each other in both rows and columns share one.  Labels
    order the clusters as their first cells are ordered.

    Each cell stands for the a x b block of cells starting at it, a and b
    the reach clamped to the grid.  Two such blocks touch, diagonally too,
    exactly when their cells are within reach, so the clusters are the
    8-connected components of the union of the blocks: one labelling of a
    grid at most twice as large in each side, whatever the reach.  A
    component's lowest cell is the corner of its first member cell.
    """
    h, w = grid.shape
    a, b = max(1, min(reach, h)), max(1, min(reach, w))
    # covered[y, x]: a cell in [y - a + 1, y] x [x - b + 1, x], from a
    # summed-area table of the cells with a - 1 empty rows and b - 1 empty
    # columns all round, and its zero row and column
    padded = np.zeros((h + 2 * a - 1, w + 2 * b - 1), dtype=np.intp)
    padded[a:a + h, b:b + w] = grid
    table = padded.cumsum(axis=0).cumsum(axis=1)
    covered = (table[a:, b:] - table[:-a, b:] - table[a:, :-b] + table[:-a, :-b]) > 0
    # int32 ids halve the links' memory; the grid is far below 2**31 cells
    node = np.arange(covered.size, dtype=np.int32).reshape(covered.shape)
    label = node.ravel()
    if reach:   # at reach 0 every cell is its own cluster
        links = [(node[near][both], node[far][both]) for near, far in _FORWARD
                 for both in [covered[near] & covered[far]]]
        label = _label(label, *(np.concatenate(side) for side in zip(*links)))
    return label[node[:h, :w][grid]]


def building_boundary(long_edges: np.ndarray, cands: list[CandidateArea],
                      config: PipelineConfig = PipelineConfig()) -> None:
    """Flag candidates outside the building region with non-window support.

    The building region is the bounding box of the densest connected
    cluster of long-edge cells (cells within ``cluster_distance`` level-5
    cells of each other in both rows and columns); a tie goes to the
    cluster whose first cell in raster order comes last.  With no long
    edges at all, every candidate stays 0.
    """
    outside = np.zeros(len(cands), dtype=bool)
    if len(long_edges) and cands:
        grid = np.zeros((long_edges[:, 0].max() + 1, long_edges[:, 1].max() + 1), dtype=bool)
        grid[long_edges[:, 0], long_edges[:, 1]] = True
        rows, cols = np.nonzero(grid)
        cluster = _clusters(grid, config.cluster_distance)
        size = np.bincount(cluster)
        members = cluster == np.flatnonzero(size == size.max())[-1]
        top, left, height, width = _rects(cands)
        cy, cx = top + height / 2.0, left + width / 2.0
        outside = ~((rows[members].min() * 4 <= cy) & (cy < (rows[members].max() + 1) * 4)
                    & (cols[members].min() * 4 <= cx) & (cx < (cols[members].max() + 1) * 4))
    support = np.where(outside, config.non_window_support, 0.0)
    for c, value in zip(cands, support.tolist()):
        c.non_window = value


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
    short_edges: np.ndarray   # (row, col, direction, count) rows
    long_edges: np.ndarray
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
