"""Feature assessment: measurements in, simple support masses out.

Covers quality weighting and the piecewise belief tables for elongation,
texture and boundary evidence.  The table thresholds live in
:class:`BeliefTables` so they can be overridden from the pipeline config;
the defaults are the standard values.

Every function takes numbers for one area or equal-length arrays with one
entry per candidate, and returns a number or an array to match.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields

import numpy as np

from .errors import InvalidParamsError, OutOfRangeError


def _in_unit(values: np.ndarray) -> np.ndarray:
    return (values >= 0.0) & (values <= 1.0)


def _checked(values, ok, message: str) -> np.ndarray:
    """The values as a float64 array; an OutOfRangeError names the first
    one that ``ok`` rejects.  Every check here rejects NaN."""
    values = np.asarray(values, dtype=np.float64)
    bad = ~ok(values)
    if bad.any():
        raise OutOfRangeError(message.format(float(values[bad][0])))
    return values


def assess_feature(goodness, quality_weight=1.0):
    """Fold feature goodness and data quality into one probability mass."""
    goodness = _checked(goodness, _in_unit, "goodness {} outside [0, 1]")
    quality_weight = _checked(quality_weight, _in_unit, "quality weight {} outside [0, 1]")
    return (goodness * quality_weight)[()]


def check_number(name: str, value, default) -> None:
    """Reject a value unlike its field's default: an int default takes an
    integer, a float default any real number, and neither takes a bool."""
    integral = isinstance(default, int)
    kind = numbers.Integral if integral else numbers.Real
    if isinstance(value, bool) or not isinstance(value, kind):
        noun = "an integer" if integral else "a number"
        raise InvalidParamsError(f"{name} value {value!r} is not {noun}")


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

    def __post_init__(self):
        bands = []
        for f in fields(self):
            value = getattr(self, f.name)
            if not isinstance(f.default, tuple):
                check_number(f.name, value, f.default)
                continue
            if not (isinstance(value, tuple)
                    and all(isinstance(band, tuple) and len(band) == 2 for band in value)):
                raise InvalidParamsError(
                    f"{f.name} value {value!r} is not a tuple of (threshold, value) pairs")
            bands += [(f.name, bound, bel) for bound, bel in value]
        for key, bound, bel in bands:
            check_number(key, bound, 0.0)
            check_number(key, bel, 0.0)
        # thresholds may be infinite (always or never met), not NaN
        bounds = [bound for _, bound, _ in bands] + [self.low_edgedness]
        if any(math.isnan(bound) for bound in bounds):
            raise InvalidParamsError("belief table thresholds must not be NaN")
        beliefs = [(key, bel) for key, _, bel in bands]
        for key, value in beliefs + [("low_edgedness_belief", self.low_edgedness_belief)]:
            if not 0.0 <= value <= 1.0:
                raise InvalidParamsError(f"{key} value {value} outside [0, 1]")


DEFAULT_TABLES = BeliefTables()


def _bands(values: np.ndarray, bands, meets) -> np.ndarray:
    """The value of the first band whose threshold ``meets`` accepts, 0
    where none does.  The bands are applied last first, so that an earlier
    match overwrites a later one."""
    out = np.zeros(values.shape)
    for bound, value in reversed(bands):
        out = np.where(meets(values, bound), value, out)
    return out


def elongation_belief(e, tables: BeliefTables = DEFAULT_TABLES):
    e = _checked(e, lambda v: v >= 1.0, "elongation {} outside [1, inf]")
    return _bands(e, tables.elongation_bands, np.less_equal)[()]


def texture_belief(edgedness, hv_d, tables: BeliefTables = DEFAULT_TABLES):
    """Interior texture: few micro-edges, or overwhelmingly axis-aligned
    ones, both support the window reading.  Branch order matters."""
    edgedness = _checked(edgedness, lambda v: v >= 0.0, "edgedness {} outside [0, inf]")
    axis = _bands(np.asarray(hv_d, dtype=np.float64), tables.hv_d_bands, np.greater_equal)
    return np.where(edgedness < tables.low_edgedness, tables.low_edgedness_belief, axis)[()]


def boundary_belief(support, tables: BeliefTables = DEFAULT_TABLES):
    """Quantize the covered fraction of a candidate side into a belief."""
    support = _checked(support, _in_unit, "boundary support {} outside [0, 1]")
    return _bands(support, tables.boundary_bands, np.greater_equal)[()]


def feature_supports(elongation, edgedness, hv_d, left, right,
                     tables: BeliefTables = DEFAULT_TABLES, quality_weight=1.0):
    """The four single-feature support masses of a candidate, in the order
    (elongation, texture, left boundary, right boundary).  ``hv_d`` may be
    inf, where a candidate has no diagonal edges.  The four are weighted as
    one stack, and both sides looked up as one, so that a batch of
    candidates costs a few array passes."""
    sides = boundary_belief(np.stack(np.broadcast_arrays(left, right)), tables)
    beliefs = np.stack(np.broadcast_arrays(elongation_belief(elongation, tables),
                                           texture_belief(edgedness, hv_d, tables), *sides))
    return tuple(assess_feature(beliefs, quality_weight))
