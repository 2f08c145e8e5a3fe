"""Cold start of the ``dsvision`` commands: the import of ``dsvision.cli``
and the first op, each sample in a fresh process.

usage: python tools/bench_cold.py NAME=REPO_ROOT [NAME=REPO_ROOT ...]

Every sample runs this repository's ``perfbench/cold.py`` on a named
checkout's ``src/``, for three commands: ``evidence`` (``combine`` of the
mass files of seed-1 ``evidence`` input 0, then ``verify`` of the result
against its knowledge file, as the benchmark's op), ``pipeline`` (seed-1
``facades`` input 0, the bundled facade, with ``--out`` and ``--overlay``)
and ``pipeline-rows`` (the same on seed-1 ``facades`` input 17, the input
with the most distinct stage rows, 38 / 31 / 31, so that the first op
verifies each of those rows with an empty stage memo).
The inputs are written once with ``perfbench/inputs.py`` and this
checkout's ``src/``.  One untimed
process per checkout and command writes its bytecode first; then, ``ROUNDS``
times, each command runs once in each checkout, the checkouts taking turns
so that a slow spell of the host falls on all of them.

Writes ``BENCH_cold.json`` at the repository root: per checkout and command,
the median and quartiles (in s) of ``setup_s`` (import plus first op, as
the benchmark's ``setup_s``), ``import_s`` and ``first_op_s``.  For every
checkout after the first it adds, under ``minus_<first checkout>``, the
median and quartiles of each round's paired difference: its sample minus
the first checkout's sample of the same command in the same round.  A slow
spell of the host shifts both samples of a pair, so these settle a gap that
the per-checkout quartiles, which spread with the host, do not.
"""

import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile

ROUNDS = 20

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
# the bundled facade of the facades inputs comes from this checkout's src/
sys.path[:0] = [PERFBENCH, os.path.join(ROOT, "src")]
sys.dont_write_bytecode = True   # no bytecode is written next to perfbench/inputs.py
import inputs  # noqa: E402


def commands(work: str) -> dict[str, list[list[str]]]:
    """The argv lists of each command's first op, on inputs written into
    ``work``."""
    for workload in ("evidence", "facades"):
        os.makedirs(os.path.join(work, workload))
    ev = inputs.make_evidence(1, os.path.join(work, "evidence"))[0]
    images = inputs.make_facades(1, os.path.join(work, "facades"))
    combined, verified = (os.path.join(work, name) for name in ("ab.mass", "bel.txt"))

    def pipeline(image):
        return [["pipeline", image.path, "--out", os.path.join(work, "report.tsv"),
                 "--overlay", os.path.join(work, "overlay.ppm")]]

    return {"evidence": [["combine", *ev.mass_paths, "--out", combined],
                         ["verify", "--evidence", combined, "--knowledge", ev.knowledge_path,
                          "--out", verified]],
            "pipeline": pipeline(images[0]), "pipeline-rows": pipeline(images[17])}


def sample(root: str, argv: list[list[str]], work: str) -> dict:
    """One fresh process: ``cold.py`` on the checkout's ``src/``."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, os.path.join(PERFBENCH, "cold.py"),
                           os.path.join(os.path.abspath(root), "src"), json.dumps(argv)],
                          env=env, cwd=work, capture_output=True, text=True, check=True)
    timing = json.loads(proc.stdout.splitlines()[-1])
    if any(timing["codes"]):
        raise SystemExit(f"{root}: exit codes {timing['codes']} for {argv}")
    return {"setup_s": timing["import_s"] + timing["first_op_s"],
            "import_s": timing["import_s"], "first_op_s": timing["first_op_s"]}


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": round(median, 5), "q1": round(q1, 5), "q3": round(q3, 5)}


def main(argv) -> None:
    trees = dict(arg.split("=", 1) for arg in argv)
    result = {"unit": f"s, median and quartiles of {ROUNDS} fresh processes",
              "nproc": len(os.sched_getaffinity(0)), "python": platform.python_version()}
    with tempfile.TemporaryDirectory() as work:
        ops = commands(work)
        samples = {name: {command: [] for command in ops} for name in trees}
        for command, op in ops.items():
            for root in trees.values():
                sample(root, op, work)
        for _ in range(ROUNDS):
            for command, op in ops.items():
                for name, root in trees.items():
                    samples[name][command].append(sample(root, op, work))
    first = next(iter(samples))
    for name, by_command in samples.items():
        result[name] = {}
        for command, runs in by_command.items():
            stats = {key: summary([s[key] for s in runs]) for key in runs[0]}
            if name != first:
                pairs = list(zip(runs, samples[first][command]))
                stats["minus_" + first] = {key: summary([s[key] - f[key] for s, f in pairs])
                                           for key in runs[0]}
            result[name][command] = stats
    with open(os.path.join(ROOT, "BENCH_cold.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
