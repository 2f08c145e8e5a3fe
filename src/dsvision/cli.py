"""Batch command-line surface.

Subcommands: ``combine`` (mass files), ``verify`` (evidence vs knowledge),
``pipeline`` (PGM image through the full chain), ``areas`` (bundled
tabulated-area fixture) and ``shutter`` (bundled worked example).  Input
errors exit with status 2 and a one-line diagnostic on stderr.  Only
``pipeline``, ``areas`` and ``shutter`` load numpy.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import sys

from .errors import DSVisionError
from .evidence import combine_all, format_mass_text, parse_mass_text
from .knowledge import parse_knowledge, verify

# The other commands' names come from modules that load numpy.  Each is
# imported on first access as an attribute of this module (PEP 562), and the
# commands call it through ``_cli``, so a name set on the module replaces it.
_LAZY = {name: module for module, names in (
    ("fixtures", "WINDOW_TABLE shutter_evidence shutter_knowledge"),
    ("netpbm", "read_pgm"),
    ("pyramid", "DEFAULT_CONFIG parse_config run_pipeline"),
    ("report", "ReportRow format_report report_from_result write_overlay"),
    ("stages", "stage_a_belief stage_b_belief stage_c_belief"),
) for name in names.split()}

_cli = sys.modules[__name__]


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module("." + _LAZY[name], __package__), name)
    globals()[name] = value
    return value


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise DSVisionError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise DSVisionError(f"cannot read {path}: not UTF-8 text") from None


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _emit_verification(result, out: str | None) -> None:
    _emit(f"Bel({result.hypothesis}) = {result.bel:.3f}\n"
          f"Bel(THETA) = {result.theta:.3f}\n", out)


def cmd_combine(args) -> int:
    masses = [parse_mass_text(_read(path)) for path in args.mass_files]
    outcome = combine_all(masses)
    text = format_mass_text(outcome.result) + f"# conflict K = {outcome.conflict:.6f}\n"
    _emit(text, args.out)
    return 0


def cmd_verify(args) -> int:
    evidence = parse_mass_text(_read(args.evidence))
    ks = parse_knowledge(_read(args.knowledge))
    _emit_verification(verify(evidence, ks), args.out)
    return 0


def cmd_pipeline(args) -> int:
    image = _cli.read_pgm(args.image)
    config = _cli.parse_config(_read(args.config)) if args.config else _cli.DEFAULT_CONFIG
    paths = args.knowledge or []
    if len(paths) > 2:
        raise DSVisionError(f"{len(paths)} --knowledge files given; at most two "
                            "(window, then sibling)")
    sources = [parse_knowledge(_read(path)) for path in paths]
    window_ks, sibling_ks = sources + [None] * (2 - len(sources))
    result = _cli.run_pipeline(image, config, window_ks, sibling_ks)
    _emit(_cli.format_report(_cli.report_from_result(result)), args.out)
    if args.overlay:
        _cli.write_overlay(result.pyramid.base, result.candidates, args.overlay)
    return 0


def _area_rows() -> list:
    rows = []
    for area in _cli.WINDOW_TABLE:
        a = _cli.stage_a_belief(area.elong, area.text, area.lt, area.rt)
        b = _cli.stage_b_belief(a, area.v_sibl, area.h_sibl)
        c = _cli.stage_c_belief(a, area.non_window, area.v_sibl, area.h_sibl)
        rows.append(_cli.ReportRow(area.label, area.elong, area.text, area.lt, area.rt,
                                   a, area.v_sibl, area.h_sibl, b, area.non_window, c))
    return rows


def cmd_areas(args) -> int:
    _emit(_cli.format_report(_area_rows()), args.out)
    return 0


def cmd_shutter(args) -> int:
    _emit_verification(verify(_cli.shutter_evidence(), _cli.shutter_knowledge()), args.out)
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
                   help="up to two knowledge files in stage order (window, then sibling)")
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
    except (DSVisionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
