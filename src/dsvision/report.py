"""Tabular reports and rectangle overlays for pipeline output."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .netpbm import to_uint8, write_ppm
from .pyramid import CandidateArea, PipelineResult, _ranges, _rects

COLUMNS = ("id", "bel_elong", "bel_text", "bel_lt_bound", "bel_rt_bound",
           "bel_wnd", "bel_v_sibl", "bel_h_sibl", "bel_wnd_b",
           "bel_non_wnd", "bel_wnd_c")

# overlay hues binned by final belief: strong, middling, weak
HUE_STRONG = (0, 255, 0)
HUE_MID = (255, 255, 0)
HUE_WEAK = (255, 0, 0)
_HUES = np.array([HUE_STRONG, HUE_MID, HUE_WEAK], dtype=np.uint8)


@dataclass(frozen=True)
class ReportRow:
    id: str
    bel_elong: float
    bel_text: float
    bel_lt: float
    bel_rt: float
    bel_a: float
    bel_v: float
    bel_h: float
    bel_b: float
    bel_non: float
    bel_c: float

    def values(self) -> tuple[float, ...]:
        return (self.bel_elong, self.bel_text, self.bel_lt, self.bel_rt,
                self.bel_a, self.bel_v, self.bel_h, self.bel_b,
                self.bel_non, self.bel_c)


def row_from_candidate(c: CandidateArea) -> ReportRow:
    supports = c.supports if c.supports is not None else (0.0, 0.0, 0.0, 0.0)
    return ReportRow(str(c.id), *supports, c.bel_a, c.v_sibl, c.h_sibl,
                     c.bel_b, c.non_window, c.bel_c)


def format_report(rows: list[ReportRow]) -> str:
    """Tab-separated report, three decimals, best final belief first."""
    ordered = sorted(rows, key=lambda r: (-r.bel_c, r.id))
    lines = ["\t".join(COLUMNS)]
    for row in ordered:
        lines.append("\t".join([row.id] + [f"{v:.3f}" for v in row.values()]))
    return "\n".join(lines) + "\n"


def write_overlay(image: np.ndarray, cands: list[CandidateArea], path: str) -> None:
    """Outline each candidate rectangle, colored by its final belief.

    Outlines are drawn in order of rising belief, in list order among
    equals, and a pixel takes the hue of the last outline drawn through it.
    """
    gray = to_uint8(image)
    bel_c = np.array([c.bel_c for c in cands], dtype=np.float64)
    order = np.argsort(bel_c, kind="stable")
    top, left, height, width = _rects(cands)[:, order]
    hue = 2 - (bel_c[order] >= 0.4) - (bel_c[order] >= 0.2)   # strong, middling, weak
    across, x = _ranges(left, width)
    down, y = _ranges(top, height)
    # the top, bottom, left and right sides, each pixel with its drawing rank
    pixels = np.ravel_multi_index(
        (np.concatenate((top[across], top[across] + height[across] - 1, y, y)),
         np.concatenate((x, x, left[down], left[down] + width[down] - 1))), gray.shape)
    last = np.full(gray.size, -1)
    np.maximum.at(last, pixels, np.concatenate((across, across, down, down)))
    drawn = np.flatnonzero(last >= 0)
    rgb = np.stack((gray, gray, gray), axis=-1)
    rgb.reshape(-1, 3)[drawn] = _HUES[hue[last[drawn]]]
    write_ppm(rgb, path)


def report_from_result(result: PipelineResult) -> list[ReportRow]:
    return [row_from_candidate(c) for c in result.candidates]
