"""Feature assessment: measurements in, simple support masses out.

Covers quality weighting and the piecewise belief tables for elongation,
texture and boundary evidence.  The table thresholds live in
:class:`BeliefTables` so they can be overridden from the pipeline config;
the defaults are the standard values.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import OutOfRangeError


def assess_feature(goodness: float, quality_weight: float = 1.0) -> float:
    """Fold feature goodness and data quality into one probability mass."""
    if not 0.0 <= goodness <= 1.0:
        raise OutOfRangeError(f"goodness {goodness} outside [0, 1]")
    if not 0.0 <= quality_weight <= 1.0:
        raise OutOfRangeError(f"quality weight {quality_weight} outside [0, 1]")
    return goodness * quality_weight


@dataclass(frozen=True)
class FeatureMeasurements:
    """Raw measurements of a candidate area."""

    elongation: float
    edgedness: float
    hv_d: float  # may be math.inf when there are no diagonal edges
    left_boundary: float
    right_boundary: float

    def __post_init__(self):
        if self.elongation < 1.0:
            raise OutOfRangeError(f"elongation {self.elongation} < 1")
        if self.edgedness < 0.0:
            raise OutOfRangeError("edgedness must be non-negative")
        for side in (self.left_boundary, self.right_boundary):
            if not 0.0 <= side <= 1.0:
                raise OutOfRangeError(f"boundary support {side} outside [0, 1]")


@dataclass(frozen=True)
class BeliefTables:
    """Piecewise-constant feature belief tables.

    Bands are (threshold, value) pairs; the first matching band wins and a
    miss yields 0.  ``boundary_bands`` thresholds are side-coverage
    fractions chosen to land on the value set {0.6, 0.3, 0.1, 0}.
    """

    elongation_bands: tuple[tuple[float, float], ...] = ((3.0, 0.5), (5.0, 0.3))
    low_edgedness: float = 0.1
    low_edgedness_belief: float = 0.4
    hv_d_bands: tuple[tuple[float, float], ...] = ((4.0, 0.4), (2.0, 0.2))
    boundary_bands: tuple[tuple[float, float], ...] = ((0.75, 0.6), (0.4, 0.3), (0.15, 0.1))


DEFAULT_TABLES = BeliefTables()


def elongation_belief(e: float, tables: BeliefTables = DEFAULT_TABLES) -> float:
    if e < 1.0:
        raise OutOfRangeError(f"elongation {e} < 1")
    for bound, value in tables.elongation_bands:
        if e <= bound:
            return value
    return 0.0


def texture_belief(edgedness: float, hv_d: float,
                   tables: BeliefTables = DEFAULT_TABLES) -> float:
    """Interior texture: few micro-edges, or overwhelmingly axis-aligned
    ones, both support the window reading.  Branch order matters."""
    if edgedness < tables.low_edgedness:
        return tables.low_edgedness_belief
    for bound, value in tables.hv_d_bands:
        if hv_d >= bound:
            return value
    return 0.0


def boundary_belief(support: float, tables: BeliefTables = DEFAULT_TABLES) -> float:
    """Quantize the covered fraction of a candidate side into a belief."""
    if not 0.0 <= support <= 1.0:
        raise OutOfRangeError(f"boundary support {support} outside [0, 1]")
    for bound, value in tables.boundary_bands:
        if support >= bound:
            return value
    return 0.0


def feature_supports(m: FeatureMeasurements,
                     tables: BeliefTables = DEFAULT_TABLES,
                     quality_weight: float = 1.0) -> tuple[float, float, float, float]:
    """The four single-feature support masses for a candidate, in the order
    (elongation, texture, left boundary, right boundary)."""
    return (
        assess_feature(elongation_belief(m.elongation, tables), quality_weight),
        assess_feature(texture_belief(m.edgedness, m.hv_d, tables), quality_weight),
        assess_feature(boundary_belief(m.left_boundary, tables), quality_weight),
        assess_feature(boundary_belief(m.right_boundary, tables), quality_weight),
    )
