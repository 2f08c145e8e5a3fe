"""The dsvision benchmark: one command, one workload per run.

    python3 perfbench/run.py --workload facades --seed 1 --seconds 45 --trace 0

``facades`` and ``evidence`` are the timed workloads of ``BENCHMARK.json``;
``noise`` is a diagnostic workload for the traced per-layer split.

Run from the repository root; the program is imported from ``src/``.  With
``--trace 0`` it measures the end-to-end metrics of ``BENCHMARK.json``
through ``cli.main``; with ``--trace 1`` it alternates untraced and traced
ops on the same inputs and reports the per-layer split.  Each op is a closed
loop: one caller, one process, no threads, the default ``PipelineConfig``.
Every output is checked outside the timed region.  The last line of stdout
is the result object; the lines before it name every metric with its unit
and give the full record, environment included.  See ``README.md``.
"""

from __future__ import annotations

import os

# pin native thread pools before numpy is imported, here and in children
os.environ["OMP_NUM_THREADS"] = os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
WORKLOADS = ("facades", "noise", "evidence")


class ProgramMissing(Exception):
    pass


def load_program() -> None:
    """Import dsvision from this checkout's ``src/`` and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "dsvision", "__init__.py")):
        raise ProgramMissing(f"no dsvision package under {SRC}")
    sys.path.insert(0, SRC)
    import dsvision
    if os.path.dirname(os.path.dirname(os.path.abspath(dsvision.__file__))) != SRC:
        raise ProgramMissing(f"dsvision imported from {dsvision.__file__}, not {SRC}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        load_program()
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import harness
    return harness.main(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
