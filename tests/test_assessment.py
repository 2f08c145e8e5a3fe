import itertools
import math
import re
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dsvision.errors import InvalidParamsError, OutOfRangeError
from dsvision.pyramid import DEFAULT_CONFIG, PipelineConfig, feature_supports


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


def ref_elongation_belief(e: float, config: PipelineConfig = DEFAULT_CONFIG) -> float:
    if e < 1.0:
        raise OutOfRangeError(f"elongation {e} < 1")
    for bound, value in config.elongation_bands:
        if e <= bound:
            return value
    return 0.0


def ref_texture_belief(edgedness: float, hv_d: float,
                       config: PipelineConfig = DEFAULT_CONFIG) -> float:
    if edgedness < config.low_edgedness:
        return config.low_edgedness_belief
    for bound, value in config.hv_d_bands:
        if hv_d >= bound:
            return value
    return 0.0


def ref_boundary_belief(support: float, config: PipelineConfig = DEFAULT_CONFIG) -> float:
    if not 0.0 <= support <= 1.0:
        raise OutOfRangeError(f"boundary support {support} outside [0, 1]")
    for bound, value in config.boundary_bands:
        if support >= bound:
            return value
    return 0.0


def ref_feature_supports(elongation, edgedness, hv_d, left, right, config=DEFAULT_CONFIG):
    weight = config.quality_weight
    return (
        ref_assess_feature(ref_elongation_belief(elongation, config), weight),
        ref_assess_feature(ref_texture_belief(edgedness, hv_d, config), weight),
        ref_assess_feature(ref_boundary_belief(left, config), weight),
        ref_assess_feature(ref_boundary_belief(right, config), weight),
    )


# a measurement row that every default table accepts: elongation,
# edgedness, hv_d, left and right coverage
GOOD = (2.0, 0.3, 1.0, 0.0, 0.0)


def supports(*row, config=DEFAULT_CONFIG) -> tuple:
    """One candidate's four supports for the measurements ``row``."""
    return tuple(feature_supports(np.array(row).reshape(5, 1), config)[:, 0].tolist())


def measured(index, value, among=0):
    """The (5, N) measurements of GOOD columns with ``value`` at row
    ``index`` of one of them, ``among`` GOOD columns on either side."""
    columns = np.array([GOOD] * (2 * among + 1)).T
    columns[index, among] = value
    return columns


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
    """Goodness times quality weight: each support is its table belief,
    scaled by the config's ``quality_weight``."""

    def test_perfect(self):
        config = PipelineConfig(boundary_bands=((0.0, 1.0),), quality_weight=1.0)
        assert supports(*GOOD, config=config)[2] == 1.0

    def test_zero_goodness(self):
        assert supports(12.0, 0.3, 1.0, 0.0, 0.0,
                        config=PipelineConfig(quality_weight=0.7)) == (0.0,) * 4

    def test_product(self):
        assert supports(1.5, *GOOD[1:], config=PipelineConfig(quality_weight=0.8))[0] == (
            pytest.approx(0.4))

    @given(st.floats(0, 1), st.floats(0, 1))
    def test_bounded_by_min(self, g, q):
        config = PipelineConfig(low_edgedness_belief=g, quality_weight=q)
        assert supports(2.0, 0.0, 1.0, 0.0, 0.0, config=config)[1] <= min(g, q) + 1e-12

    def test_out_of_range(self):
        # the config holds every weight and goodness to [0, 1], so no support
        # can leave it
        for kwargs, message in (
                ({"quality_weight": -0.1}, r"quality_weight value -0\.1 outside \[0, 1\]"),
                ({"quality_weight": math.nan}, "quality_weight = nan is not finite"),
                ({"low_edgedness_belief": 1.2},
                 r"low_edgedness_belief value 1\.2 outside \[0, 1\]")):
            with pytest.raises(InvalidParamsError, match=f"^{message}$"):
                PipelineConfig(**kwargs)

    def test_arrays(self):
        config = PipelineConfig(boundary_bands=((1.0, 1.0), (0.5, 0.5)), quality_weight=0.5)
        rows = np.array([GOOD] * 3).T
        rows[3] = [0.0, 0.5, 1.0]
        assert feature_supports(rows, config)[2].tolist() == [0.0, 0.25, 0.5]


class TestBeliefTables:
    @pytest.mark.parametrize("kwargs, message", [
        ({"elongation_bands": ((math.nan, 0.5),)}, "belief table thresholds must not be NaN"),
        ({"low_edgedness": math.nan}, "belief table thresholds must not be NaN"),
        ({"boundary_bands": ((0.5, 1.5),)}, r"boundary_bands value 1\.5 outside \[0, 1\]"),
    ], ids=["nan-band-threshold", "nan-low-edgedness", "belief-above-one"])
    def test_invalid_table_rejected(self, kwargs, message):
        # a table built in Python, not parsed, must not silently read as 0
        with pytest.raises(InvalidParamsError, match=f"^{message}$"):
            PipelineConfig(**kwargs)


class TestElongationBelief:
    @pytest.mark.parametrize("e,expected", [
        (1.0, 0.5), (2.0, 0.5), (3.0, 0.5),
        (3.5, 0.3), (4.0, 0.3), (5.0, 0.3),
        (5.1, 0.0), (12.0, 0.0),
    ])
    def test_bands(self, e, expected):
        assert supports(e, *GOOD[1:])[0] == expected

    def test_below_one_rejected(self):
        for e, among in itertools.product((0.5, math.nan), (0, 2)):
            with pytest.raises(OutOfRangeError, match="^elongation"):
                feature_supports(measured(0, e, among), DEFAULT_CONFIG)

    @given(st.floats(min_value=1, max_value=100))
    def test_value_set_and_monotone(self, e):
        assert supports(e, *GOOD[1:])[0] in (0.5, 0.3, 0.0)
        assert supports(e, *GOOD[1:])[0] >= supports(e + 1.0, *GOOD[1:])[0]


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
        assert supports(2.0, edgedness, hv_d, 0.0, 0.0)[1] == expected

    @given(st.floats(min_value=0.1, max_value=10), st.floats(min_value=0, max_value=100))
    def test_value_set(self, edgedness, hv_d):
        assert supports(2.0, edgedness, hv_d, 0.0, 0.0)[1] in (0.4, 0.2, 0.0)

    def test_negative_edgedness_rejected(self):
        for edgedness, among in itertools.product((-0.1, math.nan), (0, 2)):
            with pytest.raises(OutOfRangeError, match="^edgedness"):
                feature_supports(measured(1, edgedness, among), DEFAULT_CONFIG)


class TestBoundaryBelief:
    @pytest.mark.parametrize("support,expected", [
        (1.0, 0.6), (0.9, 0.6), (0.75, 0.6),
        (0.5, 0.3), (0.4, 0.3),
        (0.2, 0.1), (0.15, 0.1),
        (0.1, 0.0), (0.0, 0.0),
    ])
    def test_bands(self, support, expected):
        assert supports(*GOOD[:3], support, 1.0 - support)[2] == expected
        assert supports(*GOOD[:3], 1.0 - support, support)[3] == expected

    def test_out_of_range(self):
        for support, side, among in itertools.product((1.2, -0.0001, math.nan), (3, 4), (0, 2)):
            with pytest.raises(OutOfRangeError, match="^boundary support"):
                feature_supports(measured(side, support, among), DEFAULT_CONFIG)

    @given(st.floats(0, 1))
    def test_value_set(self, support):
        assert supports(*GOOD[:3], support, support)[2:] in [(v, v) for v in (0.6, 0.3, 0.1, 0.0)]


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
    """A config with the default tables and weight or drawn ones, and rows
    of measurements on and beside every threshold of its tables or drawn
    at random."""
    config = draw(st.just(DEFAULT_CONFIG) | st.builds(
        PipelineConfig, elongation_bands=bands, low_edgedness=thresholds,
        low_edgedness_belief=masses, hv_d_bands=bands,
        boundary_bands=st.lists(st.tuples(masses, masses), max_size=4).map(tuple),
        quality_weight=masses))

    def measure(lo, hi, table_bands, extra=()):
        edges = [bound for bound, _ in table_bands] + list(extra) + [lo, hi]
        return st.sampled_from(with_neighbours(edges, lo, hi)) | st.floats(lo, hi)

    row = st.tuples(measure(1.0, 1e3, config.elongation_bands),
                    measure(0.0, 10.0, (), [config.low_edgedness]),
                    measure(0.0, math.inf, config.hv_d_bands),
                    measure(0.0, 1.0, config.boundary_bands),
                    measure(0.0, 1.0, config.boundary_bands))
    return config, draw(st.lists(row, min_size=1, max_size=8))


class TestFeatureSupports:
    def test_typical_window(self):
        assert supports(1.5, 0.3, 8.0, 0.9, 0.8) == (0.5, 0.4, 0.6, 0.6)

    def test_quality_weight_scales(self):
        assert supports(1.5, 0.05, 0.0, 0.0, 0.0, config=PipelineConfig(quality_weight=0.5)) == (
            0.25, 0.2, 0.0, 0.0)

    def test_custom_tables(self):
        config = PipelineConfig(boundary_bands=((0.5, 0.9),))
        assert supports(*GOOD[:3], 0.6, 0.4, config=config)[2:] == (0.9, 0.0)

    def test_measurement_validation(self):
        for (index, value, message), among in itertools.product((
                (0, 0.5, "^elongation"), (1, -0.5, "^edgedness"), (3, 1.5, "^boundary support"),
                (4, -0.5, "^boundary support")), (0, 1)):
            with pytest.raises(OutOfRangeError, match=message):
                feature_supports(measured(index, value, among), DEFAULT_CONFIG)

    @pytest.mark.parametrize("shape", [(4, 3), (6, 3), (5,), (5, 2, 1)])
    def test_measurements_not_five_rows_rejected(self, shape):
        with pytest.raises(InvalidParamsError, match=r"^measurements of shape .*, not \(5, N\)$"):
            feature_supports(np.ones(shape), DEFAULT_CONFIG)

    def test_no_candidates(self):
        assert feature_supports(np.empty((5, 0)), DEFAULT_CONFIG).shape == (4, 0)

    @pytest.mark.parametrize("rows", [np.full((5, 2), 2 + 1j), np.full((5, 2), 2 + 0j),
                                      np.full((5, 2), "2"), np.full((5, 2), 2.0, dtype=object)],
                             ids=["complex", "complex-real-valued", "str", "object"])
    def test_measurements_not_real_rejected(self, rows):
        # a complex measurement used to lose its imaginary part with only a
        # warning, and a str one raised a bare ValueError
        message = re.escape(f"measurements of type {rows.dtype} are not real numbers")
        with pytest.raises(InvalidParamsError, match=f"^{message}$"):
            feature_supports(rows, DEFAULT_CONFIG)

    @settings(deadline=None)
    @given(supports_cases())
    def test_arrays_equal_scalar_reference(self, case):
        """Each candidate's supports are bit for bit the band-by-band
        scalar reference's, whether the rows come as one array or one by
        one."""
        config, rows = case
        want = np.array([ref_feature_supports(*row, config) for row in rows])
        got = feature_supports(np.array(rows).T, config)
        assert got.T.tobytes() == want.tobytes()
        one = [supports(*row, config=config) for row in rows]
        assert np.array(one, dtype=np.float64).tobytes() == want.tobytes()
