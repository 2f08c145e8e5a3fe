"""Wall time of ``read_pgm`` and ``run_pipeline``, of the pyramid and
edge-to-candidate layers and of the candidate layers after them, down to
the report and the overlay.

usage: python tools/bench_layers.py OUT.json NAME=REPO_ROOT [NAME=REPO_ROOT ...]

Each named checkout's ``src/`` is imported in its own process, ``ROUNDS``
times, the checkouts taking turns so that a slow spell of the host falls on
all of them.  Every time is the minimum over those rounds and over
``REPEATS`` rounds of ``timeit`` (``NUMBER`` calls each, per call, in ms)
on three inputs read through ``netpbm.read_pgm``: the
bundled facade as P5, a 512x512 ASCII P2 4x upsample of a seeded facade and
a seeded 128x128 Gaussian noise image.  The layer inputs come from the
checkout's own earlier layers, so each layer is timed on its own.  A
checkout that remembers stage beliefs holds them from the ``run_pipeline``
call that made the candidates, so its stage times are those of inputs seen
before, as in a run over a fixed set of images.

The candidate layers are called as array functions on the (4, N) rects of
the candidates; a checkout whose candidate layers take lists instead (one
from before they took arrays) gets ``null`` for each of them.
"""

import json
import os
import platform
import subprocess
import sys

ROUNDS, REPEATS, NUMBER = 5, 7, 20

PROBE = r"""
import json, os, sys, tempfile, timeit
import numpy as np
from dsvision import fixtures, netpbm, pyramid, report, stages

def write(image, path, ascii_):
    with open(path, "wb") as fh:
        fh.write(b"P2\n" if ascii_ else b"P5\n")
        fh.write(b"%d %d\n255\n" % image.shape[::-1])
        fh.write((" ".join(map(str, image.ravel().tolist())) + "\n").encode()
                 if ascii_ else image.tobytes())

rng = np.random.default_rng(6)
facade = np.clip(np.rint(fixtures.synthetic_facade().image), 0, 255).astype(np.uint8)
seeded = np.full((128, 128), 200.0)
for top in range(12, 112, 20):
    for left in range(10, 118, 18):
        seeded[top:top + 12, left:left + 10] = 90.0
seeded = np.clip(np.rint(seeded + rng.normal(0, 4, seeded.shape)), 0, 255).astype(np.uint8)
noise = np.clip(np.rint(128 + rng.normal(0, 24, (128, 128))), 0, 255).astype(np.uint8)
images = {"facade": (facade, False),
          "p2_512": (np.kron(seeded, np.ones((4, 4), dtype=np.uint8)), True),
          "noise_128": (noise, False)}
repeats, number = int(sys.argv[1]), int(sys.argv[2])
ARRAY_LAYERS = ("measure_candidates", "stage_a_beliefs", "sibling_search", "stage_b_beliefs",
                "building_boundary", "stage_c_beliefs")
out = {}
with tempfile.TemporaryDirectory() as work:
    for name, (image, ascii_) in images.items():
        path = os.path.join(work, name + ".pgm")
        write(image, path, ascii_)
        image = netpbm.read_pgm(path)
        config = pyramid.PipelineConfig()
        p = pyramid.build_pyramid(image)
        micro = pyramid.extract_micro_edges(p, config)
        short = pyramid.aggregate_short_edges(p, micro, config)
        long_edges = pyramid.aggregate_long_edges(p, short, config)
        window_ks, sibling_ks = stages.window_knowledge(), stages.sibling_knowledge()
        overlay = os.path.join(work, name + ".ppm")
        result = pyramid.run_pipeline(image)
        cands = result.candidates
        rects = pyramid._rects(cands)
        try:
            _, bel_a = pyramid.stage_a_beliefs(rects, p, micro, window_ks, config)
            v_sibl, h_sibl = pyramid.sibling_search(rects, bel_a, config)
            non_window = pyramid.building_boundary(long_edges, rects, config)
            skipped = ()
        except (TypeError, ValueError):   # the candidate layers take lists, not arrays
            skipped = ARRAY_LAYERS
        calls = {
            "read_pgm": lambda: netpbm.read_pgm(path),
            "run_pipeline": lambda: pyramid.run_pipeline(image),
            "build_pyramid": lambda: pyramid.build_pyramid(image),
            "extract_micro_edges": lambda: pyramid.extract_micro_edges(p, config),
            "aggregate_short_edges": lambda: pyramid.aggregate_short_edges(p, micro, config),
            "aggregate_long_edges": lambda: pyramid.aggregate_long_edges(p, short, config),
            "find_window_candidates": lambda: pyramid.find_window_candidates(long_edges, config),
            "measure_candidates": lambda: pyramid.measure_candidates(p, rects, micro),
            "stage_a_beliefs": lambda: pyramid.stage_a_beliefs(rects, p, micro, window_ks, config),
            "sibling_search": lambda: pyramid.sibling_search(rects, bel_a, config),
            "stage_b_beliefs": lambda: pyramid.stage_b_beliefs(bel_a, v_sibl, h_sibl, sibling_ks),
            "building_boundary": lambda: pyramid.building_boundary(long_edges, rects, config),
            "stage_c_beliefs": lambda: pyramid.stage_c_beliefs(bel_a, non_window, v_sibl, h_sibl,
                                                               sibling_ks),
            "write_overlay": lambda: report.write_overlay(p.base, cands, overlay),
            "format_report": lambda: report.format_report(report.report_from_result(result)),
        }
        row = {f: None if f in skipped else
               round(min(timeit.repeat(call, repeat=repeats, number=number)) / number * 1e3, 4)
               for f, call in calls.items()}
        row.update(short_edges=len(short), long_edges=len(long_edges), candidates=len(cands))
        out[name] = row
out["numpy"] = np.__version__
print(json.dumps(out))
"""


def main(argv):
    out_path, trees = argv[0], dict(arg.split("=", 1) for arg in argv[1:])
    result = {"unit": "ms per call, timeit minimum of %d x %d x %d calls"
                      % (ROUNDS, REPEATS, NUMBER),
              "nproc": len(os.sched_getaffinity(0)), "python": platform.python_version()}
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    for _ in range(ROUNDS):
        for name, root in trees.items():
            env["PYTHONPATH"] = os.path.join(os.path.abspath(root), "src")
            proc = subprocess.run([sys.executable, "-c", PROBE, str(REPEATS), str(NUMBER)],
                                  env=env, capture_output=True, text=True, check=True)
            run, best = json.loads(proc.stdout), result.get(name)
            for image, row in run.items():
                if best and isinstance(row, dict):   # counts are equal in every round
                    run[image] = {key: None if value is None else min(value, best[image][key])
                                  for key, value in row.items()}
            result[name] = run
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
