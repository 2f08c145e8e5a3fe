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
times, each command runs once in each checkout, in the alternating rounds of
``paired.alternate``.

Writes ``BENCH_cold.json`` at the repository root, as ``paired.summarise``
lays it out: per checkout and command, the median and quartiles (in s) of
``setup_s`` (import plus first op, as the benchmark's ``setup_s``),
``import_s`` and ``first_op_s``, and under ``minus_<first checkout>`` those
of each round's paired difference from the first checkout.
"""

import json
import os
import platform
import subprocess
import sys
import tempfile

from paired import alternate, summarise

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


def main(argv) -> None:
    trees = dict(arg.split("=", 1) for arg in argv)
    result = {"unit": f"s, median and quartiles of {ROUNDS} fresh processes",
              "nproc": len(os.sched_getaffinity(0)), "python": platform.python_version()}
    with tempfile.TemporaryDirectory() as work:
        ops = commands(work)
        for op in ops.values():
            for root in trees.values():
                sample(root, op, work)

        def run(_name, root, command, _round):
            return sample(root, ops[command], work)

        result.update(summarise(alternate(trees, ops, ROUNDS, run)))
    with open(os.path.join(ROOT, "BENCH_cold.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
