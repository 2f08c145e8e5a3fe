"""Feature assessment: measurements in, simple support masses out.

Stage A's piecewise belief tables for elongation, texture and boundary
evidence, which are fields of the pipeline config, and the quality weight.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .errors import InvalidParamsError, OutOfRangeError

if TYPE_CHECKING:
    from .pyramid import PipelineConfig


def real_array(values, error: type[Exception], what: str) -> np.ndarray:
    """``values`` as an array in their own dtype if bool, integer or float, else ``error``."""
    array = np.asarray(values)
    if array.dtype.kind not in "biuf":
        raise error(f"{what} of type {array.dtype} are not real numbers")
    return array


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
