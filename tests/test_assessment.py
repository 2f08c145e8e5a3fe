import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dsvision.assessment import (
    DEFAULT_TABLES,
    BeliefTables,
    assess_feature,
    boundary_belief,
    elongation_belief,
    feature_supports,
    texture_belief,
)
from dsvision.errors import InvalidParamsError, OutOfRangeError


@dataclass(frozen=True)
class StepFunctionParams:
    """Plateau around the typical value M: full membership within M1, the
    plateau value t within M2, zero outside."""

    m: float
    m1: float
    m2: float
    t: float

    def __post_init__(self):
        if not 0 < self.m1 <= self.m2:
            raise InvalidParamsError("need 0 < M1 <= M2")
        if not 0 < self.t < 1:
            raise InvalidParamsError("need 0 < t < 1")


def step_mu(v: float, p: StepFunctionParams) -> float:
    """The step membership function of a measurement around M."""
    d = abs(v - p.m)
    if d <= p.m1:
        return 1.0
    if d <= p.m2:
        return p.t
    return 0.0


# --- scalar references: one candidate's supports, band by band ---


def ref_assess_feature(goodness: float, quality_weight: float = 1.0) -> float:
    if not 0.0 <= goodness <= 1.0:
        raise OutOfRangeError(f"goodness {goodness} outside [0, 1]")
    if not 0.0 <= quality_weight <= 1.0:
        raise OutOfRangeError(f"quality weight {quality_weight} outside [0, 1]")
    return goodness * quality_weight


def ref_elongation_belief(e: float, tables: BeliefTables = DEFAULT_TABLES) -> float:
    if e < 1.0:
        raise OutOfRangeError(f"elongation {e} < 1")
    for bound, value in tables.elongation_bands:
        if e <= bound:
            return value
    return 0.0


def ref_texture_belief(edgedness: float, hv_d: float,
                       tables: BeliefTables = DEFAULT_TABLES) -> float:
    if edgedness < tables.low_edgedness:
        return tables.low_edgedness_belief
    for bound, value in tables.hv_d_bands:
        if hv_d >= bound:
            return value
    return 0.0


def ref_boundary_belief(support: float, tables: BeliefTables = DEFAULT_TABLES) -> float:
    if not 0.0 <= support <= 1.0:
        raise OutOfRangeError(f"boundary support {support} outside [0, 1]")
    for bound, value in tables.boundary_bands:
        if support >= bound:
            return value
    return 0.0


def ref_feature_supports(elongation, edgedness, hv_d, left, right,
                         tables=DEFAULT_TABLES, quality_weight=1.0):
    return (
        ref_assess_feature(ref_elongation_belief(elongation, tables), quality_weight),
        ref_assess_feature(ref_texture_belief(edgedness, hv_d, tables), quality_weight),
        ref_assess_feature(ref_boundary_belief(left, tables), quality_weight),
        ref_assess_feature(ref_boundary_belief(right, tables), quality_weight),
    )


class TestStepMu:
    PARAMS = StepFunctionParams(m=10.0, m1=2.0, m2=5.0, t=0.5)

    def test_center(self):
        assert step_mu(10.0, self.PARAMS) == 1.0

    def test_plateau_band(self):
        v = 10.0 + (2.0 + 5.0) / 2
        assert step_mu(v, self.PARAMS) == 0.5

    def test_outside(self):
        assert step_mu(10.0 + 2 * 5.0, self.PARAMS) == 0.0

    def test_band_edges(self):
        assert step_mu(8.0, self.PARAMS) == 1.0
        assert step_mu(12.0, self.PARAMS) == 1.0
        assert step_mu(5.0, self.PARAMS) == 0.5
        assert step_mu(15.0, self.PARAMS) == 0.5

    @given(st.floats(min_value=-50, max_value=50, allow_nan=False))
    def test_symmetric_about_center(self, d):
        assert step_mu(10.0 + d, self.PARAMS) == step_mu(10.0 - d, self.PARAMS)

    def test_invalid_params(self):
        with pytest.raises(InvalidParamsError):
            StepFunctionParams(m=1.0, m1=3.0, m2=2.0, t=0.5)
        with pytest.raises(InvalidParamsError):
            StepFunctionParams(m=1.0, m1=1.0, m2=2.0, t=1.0)


class TestAssessFeature:
    def test_perfect(self):
        assert assess_feature(1.0, 1.0) == 1.0

    def test_zero_goodness(self):
        assert assess_feature(0.0, 0.7) == 0.0

    def test_product(self):
        assert assess_feature(0.5, 0.8) == pytest.approx(0.4)

    @given(st.floats(0, 1), st.floats(0, 1))
    def test_bounded_by_min(self, g, q):
        assert assess_feature(g, q) <= min(g, q) + 1e-12

    def test_out_of_range(self):
        for goodness in one_and_many(1.2, 0.5):
            with pytest.raises(OutOfRangeError, match=r"^goodness 1.2 outside \[0, 1\]$"):
                assess_feature(goodness, 1.0)
        for weight in one_and_many(-0.1, 0.5) + one_and_many(math.nan, 0.5):
            with pytest.raises(OutOfRangeError, match="^quality weight"):
                assess_feature(0.5, weight)

    def test_arrays(self):
        got = assess_feature(np.array([0.0, 0.5, 1.0]), 0.5)
        assert got.tolist() == [0.0, 0.25, 0.5]


class TestBeliefTables:
    @pytest.mark.parametrize("kwargs, message", [
        ({"elongation_bands": ((math.nan, 0.5),)}, "belief table thresholds must not be NaN"),
        ({"low_edgedness": math.nan}, "belief table thresholds must not be NaN"),
        ({"boundary_bands": ((0.5, 1.5),)}, r"boundary_bands value 1\.5 outside \[0, 1\]"),
    ], ids=["nan-band-threshold", "nan-low-edgedness", "belief-above-one"])
    def test_invalid_table_rejected(self, kwargs, message):
        # a table built outside a pipeline config must not silently read as 0
        with pytest.raises(InvalidParamsError, match=f"^{message}$"):
            BeliefTables(**kwargs)


class TestElongationBelief:
    @pytest.mark.parametrize("e,expected", [
        (1.0, 0.5), (2.0, 0.5), (3.0, 0.5),
        (3.5, 0.3), (4.0, 0.3), (5.0, 0.3),
        (5.1, 0.0), (12.0, 0.0),
    ])
    def test_bands(self, e, expected):
        assert elongation_belief(e) == expected

    def test_below_one_rejected(self):
        for e in one_and_many(0.5, 2.0) + one_and_many(math.nan, 2.0):
            with pytest.raises(OutOfRangeError, match="^elongation"):
                elongation_belief(e)

    @given(st.floats(min_value=1, max_value=100))
    def test_value_set_and_monotone(self, e):
        assert elongation_belief(e) in (0.5, 0.3, 0.0)
        assert elongation_belief(e) >= elongation_belief(e + 1.0)


class TestTextureBelief:
    @pytest.mark.parametrize("edgedness,hv_d,expected", [
        (0.05, 1.0, 0.4),    # sparse interior
        (0.0, math.inf, 0.4),
        (0.3, 5.0, 0.4),     # axis-dominated
        (0.3, math.inf, 0.4),
        (0.3, 3.0, 0.2),
        (0.3, 2.0, 0.2),
        (0.3, 1.0, 0.0),
        (0.3, 0.0, 0.0),
    ])
    def test_branches(self, edgedness, hv_d, expected):
        assert texture_belief(edgedness, hv_d) == expected

    @given(st.floats(min_value=0.1, max_value=10), st.floats(min_value=0, max_value=100))
    def test_value_set(self, edgedness, hv_d):
        assert texture_belief(edgedness, hv_d) in (0.4, 0.2, 0.0)

    def test_negative_edgedness_rejected(self):
        for edgedness in one_and_many(-0.1, 0.3) + one_and_many(math.nan, 0.3):
            with pytest.raises(OutOfRangeError, match="^edgedness"):
                texture_belief(edgedness, 1.0)


class TestBoundaryBelief:
    @pytest.mark.parametrize("support,expected", [
        (1.0, 0.6), (0.9, 0.6), (0.75, 0.6),
        (0.5, 0.3), (0.4, 0.3),
        (0.2, 0.1), (0.15, 0.1),
        (0.1, 0.0), (0.0, 0.0),
    ])
    def test_bands(self, support, expected):
        assert boundary_belief(support) == expected

    def test_out_of_range(self):
        for support in one_and_many(1.2, 0.5) + one_and_many(-0.0001, 0.5):
            with pytest.raises(OutOfRangeError, match="^boundary support"):
                boundary_belief(support)

    @given(st.floats(0, 1))
    def test_value_set(self, support):
        assert boundary_belief(support) in (0.6, 0.3, 0.1, 0.0)


def one_and_many(value, fill):
    """A value as a number, as a one-element array, and among in-range
    ``fill`` values in a multi-element array."""
    return [value, np.array([value]), np.array([fill, fill, value, fill])]


def with_neighbours(values, lo, hi):
    """The values and their float64 neighbours, kept within [lo, hi]."""
    near = [f(v) for v in values for f in (float, lambda v: np.nextafter(v, -math.inf),
                                          lambda v: np.nextafter(v, math.inf))]
    return sorted({float(v) for v in near if lo <= v <= hi})


masses = st.floats(0.0, 1.0)
thresholds = st.floats(0.0, 10.0) | st.sampled_from([0.0, 1.0, 2.0, 4.0, math.inf])
bands = st.lists(st.tuples(thresholds, masses), max_size=4).map(tuple)


@st.composite
def supports_cases(draw):
    """Belief tables (the defaults or drawn), rows of measurements on and
    beside every threshold of the tables or drawn at random, and a quality
    weight."""
    tables = draw(st.just(DEFAULT_TABLES) | st.builds(
        BeliefTables, elongation_bands=bands, low_edgedness=thresholds,
        low_edgedness_belief=masses, hv_d_bands=bands,
        boundary_bands=st.lists(st.tuples(masses, masses), max_size=4).map(tuple)))

    def measure(lo, hi, table_bands, extra=()):
        edges = [bound for bound, _ in table_bands] + list(extra) + [lo, hi]
        return st.sampled_from(with_neighbours(edges, lo, hi)) | st.floats(lo, hi)

    row = st.tuples(measure(1.0, 1e3, tables.elongation_bands),
                    measure(0.0, 10.0, (), [tables.low_edgedness]),
                    measure(0.0, math.inf, tables.hv_d_bands),
                    measure(0.0, 1.0, tables.boundary_bands),
                    measure(0.0, 1.0, tables.boundary_bands))
    return tables, draw(st.lists(row, min_size=1, max_size=8)), draw(masses)


class TestFeatureSupports:
    def test_typical_window(self):
        assert feature_supports(1.5, 0.3, 8.0, 0.9, 0.8) == (0.5, 0.4, 0.6, 0.6)

    def test_quality_weight_scales(self):
        assert feature_supports(1.5, 0.05, 0.0, 0.0, 0.0, quality_weight=0.5) == (
            0.25, 0.2, 0.0, 0.0)

    def test_custom_tables(self):
        tables = BeliefTables(boundary_bands=((0.5, 0.9),))
        assert boundary_belief(0.6, tables) == 0.9
        assert boundary_belief(0.4, tables) == 0.0

    def test_measurement_validation(self):
        good = (2.0, 0.0, 1.0, 0.0, 0.0)
        for field, value, message in ((0, 0.5, "^elongation"), (1, -0.5, "^edgedness"),
                                      (3, 1.5, "^boundary support"),
                                      (4, -0.5, "^boundary support")):
            for bad in one_and_many(value, good[field]):
                row = [np.full(np.shape(bad), v) for v in good]
                row[field] = bad
                with pytest.raises(OutOfRangeError, match=message):
                    feature_supports(*row)

    @settings(deadline=None)
    @given(supports_cases())
    def test_arrays_equal_scalar_reference(self, case):
        """Each candidate's supports are bit for bit the band-by-band
        scalar reference's, whether the rows come as arrays or one by one."""
        tables, rows, weight = case
        want = np.array([ref_feature_supports(*row, tables, weight) for row in rows])
        got = feature_supports(*np.array(rows).T, tables, weight)
        assert np.array(got).T.tobytes() == want.tobytes()
        one = [feature_supports(*row, tables, weight) for row in rows]
        assert np.array(one, dtype=np.float64).tobytes() == want.tobytes()
