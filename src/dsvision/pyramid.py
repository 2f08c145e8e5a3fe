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
import numbers
from dataclasses import dataclass, fields

import numpy as np

from .errors import (BadDimensionsError, InvalidParamsError, OutOfRangeError, ParseError,
                     RectOutOfBoundsError, UnsupportedFormatError)
from .evidence import text_lines
from .knowledge import KnowledgeSource
from .stages import real_array, stage_a_belief, stage_b_belief, stage_c_belief, stage_c_conflict

# direction convention: gradient angle quantized to multiples of 45 degrees;
# d and d+4 are the same orientation with opposite contrast polarity
HORIZONTAL_GRADIENT = (0, 4)   # vertical edge lines
VERTICAL_GRADIENT = (2, 6)     # horizontal edge lines
DIAGONAL = (1, 3, 5, 7)

NO_EDGE = -1

# the side of the level-7 base that larger images are reduced to
BASE_SIDE = 128

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

# masses lie in [0, 1]; every float but the table's must be finite, and its
# threshold may be infinite (always or never met)
_UNIT_KEYS = ("sibling_support", "non_window_support", "quality_weight", "low_edgedness_belief")
_TABLE_FLOATS = ("low_edgedness", "low_edgedness_belief")


def check_number(name: str, value, default) -> None:
    """Reject a value unlike its field's default: an int default takes an
    integer, a float default any real number, and neither takes a bool."""
    integral = isinstance(default, int)
    kind = numbers.Integral if integral else numbers.Real
    if isinstance(value, bool) or not isinstance(value, kind):
        noun = "an integer" if integral else "a number"
        raise InvalidParamsError(f"{name} value {value!r} is not {noun}")


@dataclass(frozen=True)
class PipelineConfig:
    """The pipeline settings, stage A's piecewise-constant belief tables
    among them.  A table's bands are (threshold, value) pairs: the first
    matching band wins and a miss yields 0.  ``boundary_bands`` thresholds
    are side-coverage fractions chosen to land on {0.6, 0.3, 0.1, 0}."""

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
    elongation_bands: tuple[tuple[float, float], ...] = ((3.0, 0.5), (5.0, 0.3))
    low_edgedness: float = 0.1
    low_edgedness_belief: float = 0.4
    hv_d_bands: tuple[tuple[float, float], ...] = ((4.0, 0.4), (2.0, 0.2))
    boundary_bands: tuple[tuple[float, float], ...] = ((0.75, 0.6), (0.4, 0.3), (0.15, 0.1))

    def __post_init__(self):
        bounds, masses = [self.low_edgedness], [(key, getattr(self, key)) for key in _UNIT_KEYS]
        for f in fields(self):
            value = getattr(self, f.name)
            if not isinstance(f.default, tuple):
                check_number(f.name, value, f.default)
                if (isinstance(f.default, float) and f.name not in _TABLE_FLOATS
                        and not math.isfinite(value)):
                    raise InvalidParamsError(f"{f.name} = {value} is not finite")
                continue
            if not (isinstance(value, tuple)
                    and all(isinstance(band, tuple) and len(band) == 2 for band in value)):
                raise InvalidParamsError(
                    f"{f.name} value {value!r} is not a tuple of (threshold, value) pairs")
            for bound, bel in value:
                check_number(f.name, bound, 0.0)
                check_number(f.name, bel, 0.0)
                bounds.append(bound)
                masses.append((f.name, bel))
        if any(math.isnan(bound) for bound in bounds):
            raise InvalidParamsError("belief table thresholds must not be NaN")
        if min(self.short_support, self.long_support) < 1:
            raise InvalidParamsError("short_support and long_support must be at least 1")
        if min(self.sibling_tolerance, self.cluster_distance) < 0:
            raise InvalidParamsError("sibling_tolerance and cluster_distance must be non-negative")
        if self.pair_min_sep < 1:   # a zero separation spans a rect with no rows
            raise InvalidParamsError("pair_min_sep must be at least 1")
        if self.pair_min_sep > self.pair_max_sep:
            raise InvalidParamsError(
                f"pair_min_sep {self.pair_min_sep} exceeds pair_max_sep {self.pair_max_sep}")
        for key, value in masses:
            if not 0.0 <= value <= 1.0:
                raise InvalidParamsError(f"{key} value {value} outside [0, 1]")


# a config is frozen, so every caller that sets nothing shares this one
DEFAULT_CONFIG = PipelineConfig()


def _read_value(text: str, default):
    """``text`` read as the type of ``default``: an int, a float, or bands
    given as comma-separated ``threshold:value`` pairs."""
    if isinstance(default, tuple):
        return tuple((float(bound), float(bel))
                     for bound, bel in (item.split(":") for item in text.split(",")))
    return type(default)(text)


def parse_config(text: str) -> PipelineConfig:
    """Parse the ``key = value`` pipeline config format (# comments).

    The keys are the fields of :class:`PipelineConfig`, each value read as
    the type of its default.  Belief-table bands are comma-separated
    ``threshold:value`` pairs, e.g. ``boundary_bands = 0.75:0.6,0.4:0.3,0.15:0.1``.
    """
    defaults = {f.name: f.default for f in fields(PipelineConfig)}
    values: dict = {}
    for lineno, line in text_lines(text):
        if "=" not in line:
            raise ParseError(f"line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in values:
            raise ParseError(f"line {lineno}: key {key!r} set twice")
        if key not in defaults:
            raise ParseError(f"line {lineno}: unknown key {key!r}")
        try:
            values[key] = _read_value(value, defaults[key])
        except ValueError:
            raise ParseError(f"line {lineno}: bad value {value!r} for {key}") from None
    return PipelineConfig(**values)


@dataclass(frozen=True)
class Pyramid:
    """The base of a pyramid of square grids halving in side per level,
    where the image sits.  The pipeline reads no level above the base."""

    base: np.ndarray


def _block_means(image: np.ndarray, k: int) -> np.ndarray:
    """The float64 means of an image's k x k blocks.

    Integer pixels are summed in an integer type wide enough for k * k of
    them, then divided once.  While those sums stay within 2**53 this gives
    the bits of a float64 `mean`, whose partial sums of the same integers
    are exact too.  Other images take the `mean` itself.
    """
    if np.issubdtype(image.dtype, np.integer):
        info = np.iinfo(image.dtype)
        low, high = k * k * int(info.min), k * k * int(info.max)
        if max(-low, high) <= 2**53:
            wide = np.result_type(image.dtype, np.min_scalar_type(low), np.min_scalar_type(high))
            rows = sum((image[i::k] for i in range(1, k)), image[0::k].astype(wide))
            return sum((rows[:, j::k] for j in range(1, k)), rows[:, 0::k]) / float(k * k)
    n = image.shape[0] // k
    return image.reshape(n, k, n, k).mean(axis=(1, 3))


def build_pyramid(image: np.ndarray) -> Pyramid:
    """Stack an image into a pyramid by 2x2 block averaging.

    A side above 128 is first reduced to the 128x128 base of level 7 by
    block means; a smaller side is its own base.
    """
    image = real_array(image, UnsupportedFormatError, "image pixels")
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
    if side > BASE_SIDE:
        image = _block_means(image, side // BASE_SIDE)
    return Pyramid(image.astype(np.float64, copy=False))


@dataclass(frozen=True)
class EdgeField:
    """The per-cell micro-edge grid: direction, NO_EDGE where none."""

    directions: np.ndarray

    def count(self) -> int:
        return int(np.count_nonzero(self.directions != NO_EDGE))


def extract_micro_edges(p: Pyramid, config: PipelineConfig = DEFAULT_CONFIG) -> EdgeField:
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
    hit = np.abs(gx) + np.abs(gy) >= config.edge_threshold
    directions = np.full((n, n), NO_EDGE, dtype=np.int8)
    directions[1:n - 1, 1:n - 1][hit] = _octants(np.arctan2(gy[hit], gx[hit]))
    return EdgeField(directions)


def _octants(angle: np.ndarray) -> np.ndarray:
    """Angles in [-pi, pi] rounded to multiples of 45 degrees, 0..7, as int8:
    those of ``round(degrees(angle) / 45) % 8`` for every float64 angle,
    which the tests check within 4096 ulps of each half step."""
    return np.rint(angle * (4.0 / np.pi)).astype(np.int8) & 7   # -4 and 4 both give 4


def _edge_rows(counts: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """The kept cells of a level's (row, col, direction) count grid as rows
    of (row, col, direction, count), in row, column, direction order."""
    flat = np.flatnonzero(keep)
    cell, direction = np.divmod(flat, keep.shape[2])
    return np.column_stack((*np.divmod(cell, keep.shape[1]), direction, counts.take(flat)))


def aggregate_short_edges(micro: EdgeField,
                          config: PipelineConfig = DEFAULT_CONFIG) -> np.ndarray:
    """Short edges one level above the base: a cell holds a direction when
    enough of its four children agree on it.  One (row, col, direction,
    count) row per short edge."""
    n = micro.directions.shape[0]
    directions = micro.directions.reshape(-1)
    flat = np.flatnonzero(directions != NO_EDGE)
    rows, cols = np.divmod(flat, n)
    key = ((rows // 2) * (n // 2) + cols // 2) * 8 + directions[flat]
    counts = np.bincount(key, minlength=(n // 2) ** 2 * 8).reshape(n // 2, n // 2, 8)
    return _edge_rows(counts, counts >= config.short_support)


def aggregate_long_edges(short: np.ndarray, n: int,
                         config: PipelineConfig = DEFAULT_CONFIG) -> np.ndarray:
    """Long edges two levels above the base of side ``n``: a cell holds a
    direction when enough of its four short-edge children carry it and two of
    those are collinear along the edge orientation; a count threshold alone
    is not enough.  Takes and returns (row, col, direction, count) rows."""
    n6, n5 = n // 2, n // 4
    short = _check_edges(short, n6)
    present = np.zeros((n6, n6, 8), dtype=bool)
    present[short[:, 0], short[:, 1], short[:, 2]] = True
    blocks = present.reshape(n5, 2, n5, 2, 8)   # (row5, dr, col5, dc, direction)
    rows = blocks.view(np.uint8)[:, 0] + blocks.view(np.uint8)[:, 1]   # summed over dr
    counts = rows[:, :, 0] + rows[:, :, 1]
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


@dataclass
class CandidateArea:
    id: int
    rect: Rect
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


def _edge_lines(long_edges: np.ndarray, side: int) -> np.ndarray:
    """Horizontal edge lines as rows of (direction, row_min, row_max,
    col_start, col_end) in level-5 cells: the 4-connected components of the
    long edges of each direction in ``VERTICAL_GRADIENT``, on the level's
    ``side`` x ``side`` grid.

    A physical border registers at one or two adjacent level-5 rows; the
    pixel row 2 * (row_min + row_max + 1) places it at sub-cell resolution
    (on the cell boundary when two rows responded, at the cell center when
    one did).  Horizontal runs are linked where they touch on adjacent rows.
    """
    direction = long_edges[:, 2]
    edges = long_edges[(direction == VERTICAL_GRADIENT[0]) | (direction == VERTICAL_GRADIENT[1])]
    cells = np.zeros((2, side, side + 2), dtype=np.int8)
    cells[edges[:, 2] // 4, edges[:, 0], edges[:, 1] + 1] = 1
    step = np.diff(cells, axis=2)
    plane_row, start = np.divmod(np.flatnonzero(step == 1), step.shape[2])
    plane, row = np.divmod(plane_row, step.shape[1])
    end = np.flatnonzero(step == -1) % step.shape[2] - 1
    run = np.cumsum(step == 1).reshape(step.shape)[..., :-1] - 1   # each cell's run
    vertical = (cells[:, :-1] & cells[:, 1:])[..., 1:-1].astype(bool)
    root = _label(np.arange(len(row)), run[:, :-1][vertical], run[:, 1:][vertical])
    row_max, col_start, col_end = row.copy(), start.copy(), end.copy()
    np.maximum.at(row_max, root, row)
    np.minimum.at(col_start, root, start)
    np.maximum.at(col_end, root, end)
    lines = np.column_stack((VERTICAL_GRADIENT[0] + 4 * plane, row, row_max, col_start, col_end))
    return lines[root == np.arange(len(root))]


def find_window_candidates(long_edges: np.ndarray, n: int,
                           config: PipelineConfig = DEFAULT_CONFIG) -> list[CandidateArea]:
    """Rectangles spanned by opposite-polarity horizontal long-edge pairs,
    two levels above the base of side ``n``.

    Pairs must overlap horizontally by at least one level-5 cell and be
    vertically separated within the configured range.  Nested rectangles
    are deduplicated in favor of the tightest pair; ids follow raster order
    of the top edge.

    Every line of one polarity is tested against every line of the other
    at once.  The level-5 grid of side n / 4 holds at most n * n / 32 lines
    of each polarity (a checkerboard of single cells): 512 for the 128 base
    that ``run_pipeline`` passes, so the test takes at most 512 x 512 entries.
    """
    side = n // 4
    direction, row_min, row_max, start, end = _edge_lines(_check_edges(long_edges, side), side).T
    pixel_row = 2 * (row_min + row_max + 1)
    d2, d6 = (np.flatnonzero(direction == d) for d in VERTICAL_GRADIENT)
    sep = np.abs(pixel_row[d2, None] - pixel_row[d6])
    lo, hi = np.maximum(start[d2, None], start[d6]), np.minimum(end[d2, None], end[d6])
    i, j = np.nonzero((lo <= hi) & (config.pair_min_sep <= sep) & (sep <= config.pair_max_sep))
    lo, hi, sep = lo[i, j], hi[i, j], sep[i, j]   # the pairs' own, freeing the tables
    top = np.minimum(pixel_row[d2[i]], pixel_row[d6[j]])
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


def _check_rects(rects, *per_rect) -> np.ndarray:
    """``rects`` as (4, N) intp columns of (top, left, height, width), each
    of ``per_rect`` holding N values; else InvalidParamsError."""
    rects = np.asarray(rects)
    if rects.ndim != 2 or len(rects) != 4 or rects.dtype.kind not in "iu":
        raise InvalidParamsError(f"rects of type {rects.dtype} and shape {rects.shape} "
                                 "are not a (4, N) integer array")
    for values in per_rect:
        if np.shape(values) != rects.shape[1:]:
            raise InvalidParamsError(f"{np.shape(values)} values for {rects.shape[1]} rects")
    return rects.astype(np.intp, copy=False)


def _check_edges(edges, side: int) -> np.ndarray:
    """``edges`` as (N, 4) intp rows of (row, col, direction, count), with
    cells in [0, side) and directions 0-7; else InvalidParamsError."""
    edges = np.asarray(edges)
    if edges.ndim != 2 or edges.shape[1] != 4 or edges.dtype.kind not in "iu":
        raise InvalidParamsError(f"edges of type {edges.dtype} and shape {edges.shape} "
                                 "are not an (N, 4) integer array")
    edges = edges.astype(np.intp, copy=False)
    # read as unsigned, a negative value lies above every bound
    row, col, direction = edges[:, :3].view(np.uintp).T
    if max(row.max(initial=0), col.max(initial=0)) >= side or direction.max(initial=0) >= 8:
        bad = (row >= side) | (col >= side) | (direction >= 8)
        raise InvalidParamsError(f"edge {tuple(edges[bad.argmax()].tolist())} has a cell "
                                 f"outside [0, {side}) or a direction outside 0-7")
    return edges


def measure_candidates(rects: np.ndarray, micro: EdgeField) -> np.ndarray:
    """Shape, texture and boundary measurements over each of the (4, N)
    (top, left, height, width) candidate rects, as rows of elongation,
    edgedness, hv_d (inf where a rect holds no diagonal edge) and left and
    right side coverage, one column per candidate.

    Edge counts are sums over the rect's rows of one running count per row
    of the axis-aligned and diagonal micro-edges.  A side's coverage is the
    fraction of the rect's rows holding a vertical micro-edge within one
    pixel of the side column.
    """
    n = micro.directions.shape[0]
    top, left, height, width = rects = _check_rects(rects)
    bottom, right = top + height, left + width
    # a column above the side is bad itself, since its sum may wrap around
    bad = ((rects.max(axis=0) > n) | (np.maximum(bottom, right) > n)
           | (np.minimum(top, left) < 0) | (np.minimum(height, width) < 1))
    if bad.any():
        r = Rect(*rects[:, bad.argmax()].tolist())
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
    return np.array((
        np.maximum(height, width) / np.minimum(height, width),
        (hv + diag) / (height * width),
        np.divide(hv, diag, out=np.full(len(hv), math.inf), where=diag > 0),
        np.add.reduceat(near[row, left[owner]], first) / height,
        np.add.reduceat(near[row, right[owner] - 1], first) / height,
    ))


def _bands(values: np.ndarray, bands, meets) -> np.ndarray:
    """The value of the first band whose threshold ``meets`` accepts, 0
    where none does.  The bands are applied last first, so that an earlier
    match overwrites a later one."""
    out = np.zeros(values.shape)
    for bound, value in reversed(bands):
        out = np.where(meets(values, bound), value, out)
    return out


def feature_supports(measurements: np.ndarray, config: PipelineConfig) -> np.ndarray:
    """The (4, N) supports (elongation, texture, left and right boundary) of
    ``measure_candidates``' (5, N) rows: elongation, edgedness, hv_d (inf
    where a candidate has no diagonal edge), left and right side coverage.
    Few micro-edges, or overwhelmingly axis-aligned ones, both support the
    window reading.  An elongation below 1, a negative edgedness, a side
    coverage outside [0, 1], or a NaN in any of them raises OutOfRangeError.
    """
    measurements = real_array(measurements, InvalidParamsError, "measurements").astype(np.float64)
    if measurements.ndim != 2 or len(measurements) != 5:
        raise InvalidParamsError(f"measurements of shape {measurements.shape}, not (5, N)")
    elongation, edgedness, hv_d = measurements[:3]
    sides = measurements[3:]
    for values, ok, message in (   # a NaN fails every comparison
            (elongation, elongation >= 1.0, "elongation {} outside [1, inf]"),
            (edgedness, edgedness >= 0.0, "edgedness {} outside [0, inf]"),
            (sides, (sides >= 0.0) & (sides <= 1.0), "boundary support {} outside [0, 1]")):
        if not ok.all():
            raise OutOfRangeError(message.format(float(values[~ok][0])))
    texture = np.where(edgedness < config.low_edgedness, config.low_edgedness_belief,
                       _bands(hv_d, config.hv_d_bands, np.greater_equal))
    beliefs = np.vstack((_bands(elongation, config.elongation_bands, np.less_equal), texture,
                         _bands(sides, config.boundary_bands, np.greater_equal)))
    return beliefs * config.quality_weight


def stage_a_beliefs(rects: np.ndarray, micro: EdgeField, window_ks: KnowledgeSource | None,
                    config: PipelineConfig = DEFAULT_CONFIG) -> tuple[np.ndarray, np.ndarray]:
    """Measure each candidate and verify the feature evidence: the (4, N)
    feature supports and the stage A beliefs."""
    supports = feature_supports(measure_candidates(rects, micro), config)
    return supports, stage_a_belief(*supports, window_ks=window_ks)


def sibling_search(rects: np.ndarray, bel_a: np.ndarray,
                   config: PipelineConfig = DEFAULT_CONFIG) -> tuple[np.ndarray, np.ndarray]:
    """Lateral search among surviving candidates for aligned neighbors:
    the v_sibl and h_sibl support of each.

    A horizontal sibling shares the row (vertical centers within the
    tolerance) without overlapping horizontally; vertical siblings swap the
    axes.  Candidates below the survivor threshold get no sibling support.
    """
    alive = np.flatnonzero(bel_a >= config.survivor_threshold)
    support = np.zeros((2, len(bel_a)))   # v_sibl, h_sibl
    top, left, height, width = _check_rects(rects, bel_a)[:, alive]
    bottom, right = top + height, left + width
    cy, cx = top + height / 2.0, left + width / 2.0
    tol = config.sibling_tolerance * 4  # level-5 cells in base pixels
    # [i, j] for survivors i and j, a survivor never its own sibling
    apart = ~np.eye(len(alive), dtype=bool)
    h_overlap = (left[:, None] < right) & (left < right[:, None])
    v_overlap = (top[:, None] < bottom) & (top < bottom[:, None])
    h = (apart & ~h_overlap & (np.abs(cy[:, None] - cy) <= tol)).any(axis=1)
    v = (apart & ~v_overlap & (np.abs(cx[:, None] - cx) <= tol)).any(axis=1)
    support[:, alive] = np.where([v, h], config.sibling_support, 0.0)
    return support[0], support[1]


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


def building_boundary(long_edges: np.ndarray, rects: np.ndarray, n: int,
                      config: PipelineConfig = DEFAULT_CONFIG) -> np.ndarray:
    """The non-window support of each candidate: set outside the building
    region, on the level-5 grid two levels above the base of side ``n``.

    The building region is the bounding box of the densest connected
    cluster of long-edge cells (cells within ``cluster_distance`` level-5
    cells of each other in both rows and columns); a tie goes to the
    cluster whose first cell in raster order comes last.  With no long
    edges at all, every candidate gets 0.
    """
    long_edges, rects = _check_edges(long_edges, n // 4), _check_rects(rects)
    outside = np.zeros(rects.shape[1], dtype=bool)
    if len(long_edges) and rects.size:
        grid = np.zeros((n // 4, n // 4), dtype=bool)
        grid[long_edges[:, 0], long_edges[:, 1]] = True
        rows, cols = np.nonzero(grid)
        cluster = _clusters(grid, config.cluster_distance)
        size = np.bincount(cluster)
        members = cluster == np.flatnonzero(size == size.max())[-1]
        cy, cx = rects[:2] + rects[2:] / 2.0
        outside = ~((rows[members].min() * 4 <= cy) & (cy < (rows[members].max() + 1) * 4)
                    & (cols[members].min() * 4 <= cx) & (cx < (cols[members].max() + 1) * 4))
    return np.where(outside, config.non_window_support, 0.0)


def stage_b_beliefs(bel_a, v_sibl, h_sibl, sibling_ks: KnowledgeSource | None) -> np.ndarray:
    return stage_b_belief(bel_a, v_sibl, h_sibl, sibling_ks)


def stage_c_beliefs(bel_a, non_window, v_sibl, h_sibl,
                    sibling_ks: KnowledgeSource | None) -> tuple[np.ndarray, np.ndarray]:
    """The stage C beliefs and their combination conflict K."""
    return (stage_c_belief(bel_a, non_window, v_sibl, h_sibl, sibling_ks),
            stage_c_conflict(bel_a, non_window, v_sibl, h_sibl, sibling_ks))


@dataclass(frozen=True)
class PipelineResult:
    pyramid: Pyramid
    micro: EdgeField
    short_edges: np.ndarray   # (row, col, direction, count) rows
    long_edges: np.ndarray
    candidates: list[CandidateArea]


def run_pipeline(image: np.ndarray,
                 config: PipelineConfig = DEFAULT_CONFIG,
                 window_ks: KnowledgeSource | None = None,
                 sibling_ks: KnowledgeSource | None = None) -> PipelineResult:
    """The full level-synchronous chain, from pixels to staged beliefs.

    The candidate stages take and return arrays; the records that
    ``find_window_candidates`` made are filled in once, at the end.  The
    sources default to ``stages.window_knowledge`` and ``sibling_knowledge``.
    """
    if not isinstance(config, PipelineConfig):
        raise InvalidParamsError(f"config of type {type(config).__name__} is not a PipelineConfig")
    p = build_pyramid(image)
    n = p.base.shape[0]
    micro = extract_micro_edges(p, config)
    short = aggregate_short_edges(micro, config)
    long_edges = aggregate_long_edges(short, n, config)
    cands = find_window_candidates(long_edges, n, config)
    rects = _rects(cands)
    supports, bel_a = stage_a_beliefs(rects, micro, window_ks, config)
    v_sibl, h_sibl = sibling_search(rects, bel_a, config)
    bel_b = stage_b_beliefs(bel_a, v_sibl, h_sibl, sibling_ks)
    non_window = building_boundary(long_edges, rects, n, config)
    bel_c, conflict = stage_c_beliefs(bel_a, non_window, v_sibl, h_sibl, sibling_ks)
    fields = np.vstack((supports, bel_a, bel_b, bel_c, v_sibl, h_sibl, non_window, conflict))
    for c, row in zip(cands, fields.T.tolist()):
        c.supports = tuple(row[:4])
        c.bel_a, c.bel_b, c.bel_c, c.v_sibl, c.h_sibl, c.non_window, c.conflict = row[4:]
    return PipelineResult(p, micro, short, long_edges, cands)
