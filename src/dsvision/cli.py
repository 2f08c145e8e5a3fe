"""Batch command-line surface.

Subcommands: ``combine`` (mass files), ``verify`` (evidence vs knowledge),
``pipeline`` (PGM image through the full chain), ``areas`` (bundled
tabulated-area fixture) and ``shutter`` (bundled worked example).  Input
errors exit with status 2 and a one-line diagnostic on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys

from . import fixtures
from .errors import DSVisionError
from .evidence import combine_all, format_mass_text, parse_mass_text
from .knowledge import parse_knowledge, verify
from .netpbm import read_pgm
from .pyramid import PipelineConfig, parse_config, run_pipeline
from .report import ReportRow, format_report, report_from_result, write_overlay
from .stages import stage_a_belief, stage_b_belief, stage_c_belief


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise DSVisionError(f"cannot read {path}: {exc.strerror}") from None


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def cmd_combine(args) -> int:
    masses = [parse_mass_text(_read(path)) for path in args.mass_files]
    outcome = combine_all(masses)
    text = format_mass_text(outcome.result) + f"# conflict K = {outcome.conflict:.6f}\n"
    _emit(text, args.out)
    return 0


def cmd_verify(args) -> int:
    evidence = parse_mass_text(_read(args.evidence))
    ks = parse_knowledge(_read(args.knowledge))
    result = verify(evidence, ks)
    _emit(f"Bel({result.hypothesis}) = {result.bel:.3f}\n"
          f"Bel(THETA) = {result.theta:.3f}\n", args.out)
    return 0


def cmd_pipeline(args) -> int:
    image = read_pgm(args.image)
    config = parse_config(_read(args.config)) if args.config else PipelineConfig()
    if args.threshold is not None:
        config = dataclasses.replace(config, survivor_threshold=args.threshold)
    window_ks = sibling_ks = None
    for path in args.knowledge or []:
        ks = parse_knowledge(_read(path))
        if window_ks is None:
            window_ks = ks
        else:
            sibling_ks = ks
    result = run_pipeline(image, config, window_ks, sibling_ks)
    _emit(format_report(report_from_result(result)), args.out)
    if args.overlay:
        write_overlay(result.pyramid.base, result.candidates, args.overlay)
    return 0


def _area_rows() -> list[ReportRow]:
    rows = []
    for area in fixtures.WINDOW_TABLE:
        a = stage_a_belief(area.elong, area.text, area.lt, area.rt)
        b = stage_b_belief(a, area.v_sibl, area.h_sibl)
        c = stage_c_belief(a, area.non_window, area.v_sibl, area.h_sibl)
        rows.append(ReportRow(area.label, area.elong, area.text, area.lt, area.rt,
                              a, area.v_sibl, area.h_sibl, b, area.non_window, c))
    return rows


def cmd_areas(args) -> int:
    _emit(format_report(_area_rows()), args.out)
    return 0


def cmd_shutter(args) -> int:
    evidence = fixtures.shutter_evidence()
    result = verify(evidence, fixtures.shutter_knowledge())
    _emit(f"Bel(shutter) = {result.bel:.3f}\n"
          f"Bel(THETA) = {result.theta:.3f}\n", args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dsvision",
        description="Evidential window recognition: mass combination, "
                    "hypothesis verification and the pyramid pipeline.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("combine", help="combine mass-function files")
    p.add_argument("mass_files", nargs="+")
    p.add_argument("--out")
    p.set_defaults(func=cmd_combine)

    p = sub.add_parser("verify", help="verify evidence against a knowledge source")
    p.add_argument("--evidence", required=True)
    p.add_argument("--knowledge", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("pipeline", help="run the window pipeline on a PGM image")
    p.add_argument("image")
    p.add_argument("--config")
    p.add_argument("--knowledge", action="append",
                   help="knowledge files in stage order (window, then sibling)")
    p.add_argument("--threshold", type=float,
                   help="override the survivor threshold")
    p.add_argument("--out")
    p.add_argument("--overlay")
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("areas", help="staged beliefs for the bundled area fixture")
    p.add_argument("--out")
    p.set_defaults(func=cmd_areas)

    p = sub.add_parser("shutter", help="the bundled shutter verification example")
    p.add_argument("--out")
    p.set_defaults(func=cmd_shutter)
    return parser


# parsing reads the parser and never changes it, so one serves every call
_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except DSVisionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
