"""The benchmark's per-layer split, in alternating rounds over checkouts.

usage: python tools/bench_layers.py OUT.json NAME=REPO_ROOT [NAME=REPO_ROOT ...]

Each of ``ROUNDS`` rounds runs every named checkout's own
``perfbench/run.py --workload W --seed 1 --seconds SECONDS --trace 1``, from
that checkout's root, for the ``facades``, ``noise`` and ``evidence``
workloads; the checkout that goes first rotates between rounds.  The
per-layer metrics, under their names in ``BENCHMARK.json``'s ``per_layer``
(mean self time in ms, or mean count, per traced op), are read from each
run's result line.  A run that is not correct or has a failed op stops the
tool with a non-zero exit that names the checkout, the workload and the
round.  On a 2-core host a run takes about 11 s, and two checkouts about
13 minutes.

Writes OUT.json: per checkout, workload and metric, the median and quartiles
over the rounds, and for every checkout after the first, under
``minus_<first checkout>``, those of each round's paired difference from the
first checkout.  The host's speed drifts between rounds and moves every layer
at once, so a layer change shows in the paired differences first.
"""

import json
import os
import platform
import subprocess
import sys

from paired import alternate, summarise

ROUNDS, SECONDS = 12, 5
WORKLOADS = ("facades", "noise", "evidence")

BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "BENCHMARK.json")


def layer_metrics(line: str, where: str) -> dict[str, float]:
    """The per-layer metrics of a run's result line; a run that is not
    correct or has a failed op stops the tool, naming ``where``."""
    result = json.loads(line)
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{where}: correct {result['correct']}, "
                         f"{result['failed']} of {result['attempted']} ops failed")
    with open(BENCHMARK, encoding="utf-8") as fh:
        names = [metric["name"] for metric in json.load(fh)["per_layer"]]
    return {name: result["metrics"][name]["value"] for name in names}


def traced_run(name: str, root: str, workload: str, round_: int) -> dict[str, float]:
    where = f"{name} {workload} round {round_ + 1}"
    proc = subprocess.run([sys.executable, os.path.join("perfbench", "run.py"),
                           "--workload", workload, "--seed", "1",
                           "--seconds", str(SECONDS), "--trace", "1"],
                          cwd=root, capture_output=True, text=True)
    if proc.returncode:
        raise SystemExit(f"{where}: exit code {proc.returncode}\n{proc.stderr}")
    return layer_metrics(proc.stdout.splitlines()[-1], where)


def main(argv) -> None:
    out_path, trees = argv[0], dict(arg.split("=", 1) for arg in argv[1:])
    result = {"unit": f"per_layer metrics of perfbench --trace 1, median and quartiles "
                      f"of {ROUNDS} rounds of {SECONDS} s runs",
              "nproc": len(os.sched_getaffinity(0)), "python": platform.python_version()}
    result.update(summarise(alternate(trees, WORKLOADS, ROUNDS, traced_run)))
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
