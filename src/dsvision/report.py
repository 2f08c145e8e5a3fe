"""Tabular reports and rectangle overlays for pipeline output."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .netpbm import write_ppm
from .pyramid import CandidateArea, PipelineResult

COLUMNS = ("id", "bel_elong", "bel_text", "bel_lt_bound", "bel_rt_bound",
           "bel_wnd", "bel_v_sibl", "bel_h_sibl", "bel_wnd_b",
           "bel_non_wnd", "bel_wnd_c")

# overlay hues binned by final belief: strong, middling, weak
HUE_STRONG = (0, 255, 0)
HUE_MID = (255, 255, 0)
HUE_WEAK = (255, 0, 0)


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


def _hue(bel: float) -> tuple[int, int, int]:
    if bel >= 0.4:
        return HUE_STRONG
    if bel >= 0.2:
        return HUE_MID
    return HUE_WEAK


def write_overlay(image: np.ndarray, cands: list[CandidateArea], path: str) -> None:
    """Outline each candidate rectangle, colored by its final belief."""
    gray = np.clip(np.rint(np.asarray(image, dtype=np.float64)), 0, 255)
    rgb = np.repeat(gray[:, :, None], 3, axis=2)
    for c in sorted(cands, key=lambda c: c.bel_c):
        r = c.rect
        color = np.array(_hue(c.bel_c), dtype=np.float64)
        rgb[r.top, r.left:r.right] = color
        rgb[r.bottom - 1, r.left:r.right] = color
        rgb[r.top:r.bottom, r.left] = color
        rgb[r.top:r.bottom, r.right - 1] = color
    write_ppm(rgb, path)


def report_from_result(result: PipelineResult) -> list[ReportRow]:
    return [row_from_candidate(c) for c in result.candidates]
