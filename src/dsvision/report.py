"""Tabular reports and rectangle overlays for pipeline output."""

from __future__ import annotations

from collections import namedtuple

import numpy as np

from .netpbm import to_uint8, write_ppm
from .pyramid import CandidateArea, PipelineResult

COLUMNS = ("id", "bel_elong", "bel_text", "bel_lt_bound", "bel_rt_bound",
           "bel_wnd", "bel_v_sibl", "bel_h_sibl", "bel_wnd_b",
           "bel_non_wnd", "bel_wnd_c")
# a row is the id and ten beliefs, one field per column
ReportRow = namedtuple("ReportRow", COLUMNS)
_ROW = "%s" + "\t%.3f" * (len(COLUMNS) - 1)

# overlay hues binned by final belief: strong, middling, weak
HUE_STRONG = (0, 255, 0)
HUE_MID = (255, 255, 0)
HUE_WEAK = (255, 0, 0)
_HUES = np.array([HUE_STRONG, HUE_MID, HUE_WEAK], dtype=np.uint8)


def format_report(rows: list[ReportRow]) -> str:
    """Tab-separated report, three decimals, best final belief first."""
    ordered = sorted(rows, key=lambda r: (-r.bel_wnd_c, r.id))
    return "\n".join(["\t".join(ReportRow._fields), *(_ROW % row for row in ordered)]) + "\n"


def write_overlay(image: np.ndarray, cands: list[CandidateArea], path: str) -> None:
    """Outline each candidate rectangle, colored by its final belief.

    Outlines are drawn in order of rising belief, in list order among
    equals, and a pixel takes the hue of the last outline drawn through it.
    """
    gray = to_uint8(image)
    rgb = np.stack((gray, gray, gray), axis=-1)
    bel_c = np.array([c.bel_c for c in cands], dtype=np.float64)
    for i in np.argsort(bel_c, kind="stable").tolist():
        r, bel = cands[i].rect, bel_c[i]
        hue = _HUES[0 if bel >= 0.4 else 1 if bel >= 0.2 else 2]   # strong, middling, weak
        rgb[r.top, r.left:r.right] = hue
        rgb[r.bottom - 1, r.left:r.right] = hue
        rgb[r.top:r.bottom, r.left] = hue
        rgb[r.top:r.bottom, r.right - 1] = hue
    write_ppm(rgb, path)


def report_from_result(result: PipelineResult) -> list[ReportRow]:
    return [ReportRow(str(c.id), *c.supports, c.bel_a, c.v_sibl, c.h_sibl,
                      c.bel_b, c.non_window, c.bel_c) for c in result.candidates]
