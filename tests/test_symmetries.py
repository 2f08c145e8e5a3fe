"""Transforms of an integer image that leave every pipeline output unchanged.

Integer pixels give exact integer gradients.  Inverting the contrast maps
each micro-edge direction d to d + 4, and every consumer pairs or counts d
and d + 4 together.  An offset leaves every gradient as it was, a gain of 2
doubles each one exactly, and the block means of k x k equal pixels are
exact.  So each transform below must give the same report bytes, rects and
non-window supports.  A transpose is not a symmetry: only horizontal line
pairs propose windows.
"""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from dsvision.fixtures import synthetic_facade
from dsvision.pyramid import DEFAULT_CONFIG, PipelineConfig, run_pipeline
from dsvision.report import format_report, report_from_result

# the brightest pixel a facade holds, so that an offset of 7 clips none
TOP = 248
OFFSET = 255 - TOP


@st.composite
def facades(draw):
    """A uint8 128x128 building front: a grid of equal windows, each painted
    darker or lighter than the wall with its own jitter, decoy windows in
    a band below the building, and rounded Gaussian noise."""
    rows, cols = draw(st.integers(2, 6)), draw(st.integers(2, 6))
    margin = draw(st.integers(2, 12))
    pitch_h, pitch_w = (96 - margin) // rows, (128 - 2 * margin) // cols
    height = draw(st.integers(6, max(6, pitch_h - 3)))
    width = draw(st.integers(6, max(6, pitch_w - 3)))
    wall = draw(st.integers(0, TOP))
    contrast = draw(st.integers(24, 200)) * draw(st.sampled_from([1, -1]))
    sigma = draw(st.sampled_from([0.0, 1.0, 3.0, 6.0]))
    decoys = draw(st.integers(0, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    image = np.full((128, 128), float(wall))
    for r in range(rows):
        for c in range(cols):
            top, left = margin + r * pitch_h, margin + c * pitch_w
            image[top:top + height, left:left + width] = wall - contrast * rng.uniform(0.8, 1.0)
    for left in rng.integers(0, 128 - width, decoys).tolist():
        image[104:104 + min(height, 20), left:left + width] = wall - contrast
    image += rng.normal(0.0, sigma, image.shape)
    return np.clip(np.rint(image), 0, TOP).astype(np.uint8)


def outputs(image, config=DEFAULT_CONFIG):
    """The report text, the rects and the non-window supports of a run."""
    result = run_pipeline(image, config)
    return (format_report(report_from_result(result)),
            [c.rect for c in result.candidates],
            [c.non_window for c in result.candidates])


# the bundled facade, whose 21 candidates include an off-building decoy
BUNDLED = synthetic_facade().image.astype(np.uint8)


@settings(max_examples=60, deadline=None)
@given(facades())
@example(BUNDLED)
def test_contrast_inversion(image):
    assert outputs(255 - image) == outputs(image)


@settings(max_examples=60, deadline=None)
@given(facades())
@example(BUNDLED)
def test_offset(image):
    assert outputs(image + OFFSET) == outputs(image)


@settings(max_examples=60, deadline=None)
@given(facades())
@example(BUNDLED)
def test_gain_with_the_threshold_scaled(image):
    doubled = 2 * image.astype(np.uint16)
    config = PipelineConfig(edge_threshold=2 * DEFAULT_CONFIG.edge_threshold)
    assert outputs(doubled, config) == outputs(image)


@settings(max_examples=40, deadline=None)
@given(facades(), st.sampled_from([2, 4, 8]))
@example(BUNDLED, 8)
def test_upsampling(image, k):
    # a side above 128 is reduced to the 128 base by k x k block means
    assert outputs(image.repeat(k, axis=0).repeat(k, axis=1)) == outputs(image)
