"""Bundled numeric fixtures and synthetic imagery.

The shutter fixture carries the worked hypothesis-verification example; the
window table carries the per-feature belief rows for the 13 tabulated
areas, so the staged evidential chain can be reproduced without the
original photographs.  ``synthetic_facade`` paints a building front with a
3x4 grid of windows plus an off-building decoy for pipeline tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .evidence import Clause, MassFunction, combine_all, make_frame, simple_support
from .knowledge import KnowledgeSource

SHUTTER_FRAME = make_frame(["long", "low", "next-to"])

# simple supports whose orthogonal sum yields the product masses
# 0.21 / 0.14 / 0.09 / 0.06 / 0.21 / 0.14 / 0.09 / theta 0.06
SHUTTER_SUPPORTS = (("long", 0.6), ("low", 0.7), ("next-to", 0.5))


def shutter_knowledge() -> KnowledgeSource:
    return KnowledgeSource.build("shutter", SHUTTER_FRAME, {
        "long": 0.25,
        "low": 0.15,
        "long&low": 0.15,
        "next-to": 0.25,
        "THETA": 0.2,
    })


def shutter_evidence() -> MassFunction:
    """The accumulated shutter evidence, combined from its three supports."""
    ms = [
        simple_support(SHUTTER_FRAME, Clause.conjunction(SHUTTER_FRAME, [atom]), s)
        for atom, s in SHUTTER_SUPPORTS
    ]
    return combine_all(ms).result


@dataclass(frozen=True)
class WindowAreaRow:
    """Per-feature beliefs for one tabulated area, with the published
    staged belief values for cross-checking."""

    label: str
    elong: float
    text: float
    lt: float
    rt: float
    v_sibl: float
    h_sibl: float
    non_window: float
    expected_a: float
    expected_b: float
    expected_c: float

    @property
    def is_window(self) -> bool:
        return self.label.startswith("W")


WINDOW_TABLE: tuple[WindowAreaRow, ...] = (
    WindowAreaRow("W1-6", 0.5, 0.4, 0.6, 0.6, 0.6, 0.6, 0.0, 0.449, 0.492, 0.492),
    WindowAreaRow("W7",   0.5, 0.2, 0.6, 0.6, 0.6, 0.6, 0.0, 0.409, 0.475, 0.475),
    WindowAreaRow("W8",   0.5, 0.4, 0.6, 0.6, 0.6, 0.6, 0.0, 0.449, 0.492, 0.492),
    WindowAreaRow("W9",   0.5, 0.4, 0.6, 0.3, 0.6, 0.6, 0.0, 0.407, 0.475, 0.475),
    WindowAreaRow("W10",  0.5, 0.4, 0.6, 0.1, 0.6, 0.6, 0.0, 0.379, 0.462, 0.462),
    WindowAreaRow("W11",  0.5, 0.4, 0.6, 0.6, 0.6, 0.6, 0.0, 0.449, 0.492, 0.492),
    WindowAreaRow("W12",  0.5, 0.4, 0.6, 0.6, 0.6, 0.6, 0.0, 0.449, 0.492, 0.492),
    WindowAreaRow("4",    0.3, 0.4, 0.0, 0.6, 0.0, 0.0, 0.5, 0.335, 0.134, 0.080),
    WindowAreaRow("5",    0.5, 0.0, 0.1, 0.3, 0.0, 0.6, 0.5, 0.205, 0.203, 0.166),
    WindowAreaRow("9",    0.5, 0.4, 0.0, 0.3, 0.6, 0.0, 0.0, 0.262, 0.225, 0.225),
    WindowAreaRow("15",   0.3, 0.4, 0.0, 0.6, 0.0, 0.0, 0.0, 0.335, 0.134, 0.134),
    WindowAreaRow("17",   0.5, 0.0, 0.6, 0.0, 0.6, 0.0, 0.0, 0.285, 0.234, 0.234),
    WindowAreaRow("18",   0.5, 0.0, 0.3, 0.1, 0.6, 0.0, 0.5, 0.205, 0.203, 0.166),
)


@dataclass(frozen=True)
class FacadeFixture:
    image: np.ndarray
    windows: tuple[tuple[int, int, int, int], ...]  # (top, left, height, width)
    decoy: tuple[int, int, int, int]


def synthetic_facade(background: int = 200, paint: int = 32) -> FacadeFixture:
    """A 128x128 facade: 3 rows x 4 columns of filled window rectangles,
    plus one identically shaped decoy away from the building cluster."""
    image = np.full((128, 128), background, dtype=np.float64)
    height, width = 12, 16
    tops = (8, 24, 40)
    lefts = (8, 28, 48, 68)
    windows = []
    for top in tops:
        for left in lefts:
            image[top:top + height, left:left + width] = paint
            windows.append((top, left, height, width))
    decoy = (100, 100, height, width)
    image[decoy[0]:decoy[0] + height, decoy[1]:decoy[1] + width] = paint
    return FacadeFixture(image, tuple(windows), decoy)
