import math
from dataclasses import dataclass

import pytest
from hypothesis import given, strategies as st

from dsvision.assessment import (
    BeliefTables,
    FeatureMeasurements,
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
        with pytest.raises(OutOfRangeError):
            assess_feature(1.2, 1.0)
        with pytest.raises(OutOfRangeError):
            assess_feature(0.5, -0.1)


class TestElongationBelief:
    @pytest.mark.parametrize("e,expected", [
        (1.0, 0.5), (2.0, 0.5), (3.0, 0.5),
        (3.5, 0.3), (4.0, 0.3), (5.0, 0.3),
        (5.1, 0.0), (12.0, 0.0),
    ])
    def test_bands(self, e, expected):
        assert elongation_belief(e) == expected

    def test_below_one_rejected(self):
        with pytest.raises(OutOfRangeError):
            elongation_belief(0.5)

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
        with pytest.raises(OutOfRangeError):
            boundary_belief(1.2)

    @given(st.floats(0, 1))
    def test_value_set(self, support):
        assert boundary_belief(support) in (0.6, 0.3, 0.1, 0.0)


class TestFeatureSupports:
    def test_typical_window(self):
        m = FeatureMeasurements(elongation=1.5, edgedness=0.3, hv_d=8.0,
                                left_boundary=0.9, right_boundary=0.8)
        assert feature_supports(m) == (0.5, 0.4, 0.6, 0.6)

    def test_quality_weight_scales(self):
        m = FeatureMeasurements(elongation=1.5, edgedness=0.05, hv_d=0.0,
                                left_boundary=0.0, right_boundary=0.0)
        assert feature_supports(m, quality_weight=0.5) == (0.25, 0.2, 0.0, 0.0)

    def test_custom_tables(self):
        tables = BeliefTables(boundary_bands=((0.5, 0.9),))
        assert boundary_belief(0.6, tables) == 0.9
        assert boundary_belief(0.4, tables) == 0.0

    def test_measurement_validation(self):
        with pytest.raises(OutOfRangeError):
            FeatureMeasurements(elongation=0.5, edgedness=0.0, hv_d=1.0,
                                left_boundary=0.0, right_boundary=0.0)
        with pytest.raises(OutOfRangeError):
            FeatureMeasurements(elongation=2.0, edgedness=0.0, hv_d=1.0,
                                left_boundary=1.5, right_boundary=0.0)
