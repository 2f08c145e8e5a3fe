"""Whether the named checkouts give the same bytes for every observable
output, input by input.

usage: python tools/identity.py NAME=REPO_ROOT [NAME=REPO_ROOT ...]

Each named checkout's ``src/`` is imported in its own process.  That
process writes the ``facades``, ``noise`` and ``evidence`` inputs of seeds
1-3 with this repository's ``perfbench/inputs.py`` and hashes, per input:

- an image: the ``read_pgm`` array (dtype, shape and bytes), from
  ``run_pipeline`` the micro-edge directions and both edge arrays, each
  candidate's rect, supports, ``bel_a/b/c``, siblings, non-window support
  and conflict K, and the report and overlay bytes of ``dsvision pipeline``;
  for the seed-1 ``facades`` and ``noise`` inputs also the candidates and
  the ``dsvision pipeline --config`` bytes under each of ``CONFIGS``;
- an evidence input: the exit status and output bytes of ``dsvision
  combine`` and of ``dsvision verify`` on that combination;

once the output of ``dsvision areas`` and ``dsvision shutter``; the exit
status, stderr and output bytes of ``dsvision combine`` and ``dsvision
verify`` on each of ``MASS_TEXTS`` and ``KNOWLEDGE_TEXTS``, which are
malformed or repeat a focal, and of ``dsvision pipeline --config`` on the
bundled facade under each of ``CONFIG_TEXTS``; and for each seed-1
``facades`` input the candidates and the ``dsvision pipeline --knowledge W
--knowledge S`` bytes under the non-default sources ``SOURCES``.  Floats
are hashed by ``repr``, which tells float64 values apart (NaN aside).  Every
checkout is compared with the first: the first output that differs is
printed and the exit status is 1.  With every output equal it prints a
one-line summary and exits 0.
"""

import json
import os
import subprocess
import sys

SEEDS = (1, 2, 3)

# non-default pipeline configs: the widest and a narrow pairing range, no
# sibling tolerance and no cluster reach, a raised survivor threshold; "c"
# sets every key, so that each value type and belief table is read, and
# still leaves candidates on every seed-1 facade
CONFIGS = {
    "a": "pair_min_sep = 1\npair_max_sep = 200\nsibling_tolerance = 0\ncluster_distance = 0\n",
    "b": "pair_min_sep = 10\npair_max_sep = 12\nsurvivor_threshold = 0.45\n"
         "cluster_distance = 6\n",
    "c": "edge_threshold = 40\nshort_support = 1\nlong_support = 1\npair_min_sep = 3\n"
         "pair_max_sep = 40\nsurvivor_threshold = 0.25\nsibling_tolerance = 3\n"
         "sibling_support = 0.7\nnon_window_support = 0.4\ncluster_distance = 3\n"
         "quality_weight = 0.9\nelongation_bands = 3.5:0.5,6:0.3\nlow_edgedness = 0.15\n"
         "low_edgedness_belief = 0.35\nhv_d_bands = 3:0.4,1.5:0.2\n"
         "boundary_bands = 0.7:0.6,0.35:0.3,0.1:0.1\n",
}

# mass texts for ``combine``, and as evidence for ``verify`` against
# KNOWLEDGE_TEXTS[0]; all but the first two and ``a&a`` are rejected; the
# last six probe the clause reader, though ``a & !b`` is split into too many
# fields before it gets there
MASS_TEXTS = [
    "frame a b c\nfocal a&b 0.2\nfocal b&a 0.1\nfocal a 0.3\nfocal a 0.1\n"
    "focal THETA 0.2\nfocal THETA 0.1\n",
    "frame a b c  # atoms\n\n  focal a&!c 0.5 # one\nfocal THETA 0.5\n",
    "frame a b\nhypothesis h\nfocal THETA 1\n",
    "focal a 1\n",
    "",
    "frame a\nframe b\nfocal THETA 1\n",
    "frame a b\nfocal a\n",
    "frame a b\nfocal a 0.5 0.5\n",
    "frame a b\nfocal a x\n",
    "frame a b\nfocal a|b 0.5\nfocal THETA 0.5\n",
    "frame a b\nfocal c 1\n",
    "frame a a\nfocal THETA 1\n",
    "frame a\nfocal a 0.5\nfocal THETA 0.2\n",
    "frame a\nfocal a nan\nfocal THETA 1\n",
    "frame a b\nfocal a&!a 1\n",
    "bogus line\n",
    "frame a b c\nfocal a & !b 0.5\nfocal THETA 0.5\n",
    "frame a b c\nfocal ! 0.5\nfocal THETA 0.5\n",
    "frame a b c\nfocal !!a 0.5\nfocal THETA 0.5\n",
    "frame a b c\nfocal a& 0.5\nfocal THETA 0.5\n",
    "frame a b c\nfocal a&a 0.5\nfocal THETA 0.5\n",
    "frame a b c\nfocal a|z 0.5\nfocal THETA 0.5\n",
]

# knowledge texts for ``verify`` of MASS_TEXTS[0]; all but the first four
# and ``a|a`` are rejected; the last seven probe the clause reader
KNOWLEDGE_TEXTS = [
    "hypothesis h\nframe a b c\nfocal a 0.3\nfocal b|c 0.3\nfocal THETA 0.4\n",
    "hypothesis h\nframe a b c\nfocal a&b 0.1\nfocal b&a 0.2\nfocal c 0.3\n"
    "focal THETA 0.1\nfocal THETA 0.2\nfocal THETA 0.1\n",
    "frame a b c\nhypothesis h\nfocal a|b 0.4\nfocal b|a 0.2\nfocal a|b 0.1\n"
    "focal THETA 0.3\n",
    "hypothesis h\nframe a b c\nfocal THETA 1\n",
    "frame a b c\nfocal THETA 1\n",
    "hypothesis h\nfocal THETA 1\n",
    "hypothesis\nframe a b c\nfocal THETA 1\n",
    "hypothesis h h\nframe a b c\nfocal THETA 1\n",
    "hypothesis h\nhypothesis g\nframe a b c\nfocal THETA 1\n",
    "hypothesis h\nframe a b c\nframe a b c\nfocal THETA 1\n",
    "hypothesis h\nframe a b c\nfocal !a 0.5\nfocal THETA 0.5\n",
    "hypothesis h\nframe a b c\nfocal a 0.5\nfocal THETA 0.4\n",
    "hypothesis h\nframe a b c\nfocal d 1\n",
    "hypothesis h\nframe a b c\nfocal a x\n",
    "hypothesis h\nframe a b c\nfocal a 0.5\nfocal THETA\n",
    "hypothesis h\nframe a b c\nfocal THETA 1.5\nfocal a -0.5\n",
    "hypothesis h\nframe a b c\nfocal THETA 0.5\nfocal a 0.5\nprior 1\n",
    "hypothesis h\nframe a b\nfocal a 0.5\nfocal THETA 0.5\n",
    "hypothesis h\nframe a b c\nfocal a & !b 0.5\nfocal THETA 0.5\n",
    "hypothesis h\nframe a b c\nfocal ! 0.5\nfocal THETA 0.5\n",
    "hypothesis h\nframe a b c\nfocal !!a 0.5\nfocal THETA 0.5\n",
    "hypothesis h\nframe a b c\nfocal a& 0.5\nfocal THETA 0.5\n",
    "hypothesis h\nframe a b c\nfocal a|a 0.5\nfocal THETA 0.5\n",
    "hypothesis h\nframe a b c\nfocal a|z 0.5\nfocal THETA 0.5\n",
    "hypothesis h\nframe a b c\nfocal a|!b 0.5\nfocal THETA 0.5\n",
]

# config texts for ``pipeline --config`` on the bundled facade, each with at
# most one fault: the 19 rejected lines of the tests' ``test_invalid_values``,
# a value of the wrong kind for each value type, a repeated and an unknown key,
# then values at the edges, infinite table thresholds among them, and the
# survivor thresholds of the CLI tests' ``test_threshold_override`` and
# ``test_nan_threshold``
CONFIG_TEXTS = [
    "edge_threshold = nan\n", "survivor_threshold = inf\n", "quality_weight = -inf\n",
    "pair_min_sep = 50\n", "short_support = 0\n", "long_support = -1\n",
    "pair_min_sep = -4\n", "pair_min_sep = 0\n", "sibling_tolerance = -1\n",
    "cluster_distance = -2\n", "boundary_bands = 0.75:1.5\n", "elongation_bands = 3:-0.1\n",
    "hv_d_bands = 4:nan\n", "boundary_bands = nan:0.6\n", "low_edgedness = nan\n",
    "low_edgedness_belief = 2\n", "quality_weight = 1.5\n", "sibling_support = -0.1\n",
    "non_window_support = 2\n",
    "short_support = 2.5\n", "edge_threshold = many\n", "boundary_bands = 0.5\n",
    "hv_d_bands = 4:0.4:1\n", "elongation_bands = a:0.5\n", "low_edgedness = 1e400x\n",
    "pair_max_sep = 40\n# again\npair_max_sep = 40\n", "tables = 1\n", "edge_threshold\n",
    "low_edgedness_belief = inf\n", "low_edgedness_belief = nan\n", "sibling_support = inf\n",
    "pair_min_sep = 10\npair_max_sep = 9\n", "elongation_bands = 3:inf\n",
    "low_edgedness = inf\n", "low_edgedness = -inf\n", "hv_d_bands = inf:0.4\n",
    "elongation_bands = -inf:0.5\n", "boundary_bands = -inf:0.1,inf:0.6\n",
    "low_edgedness_belief = 1\nquality_weight = 0\n", "pair_min_sep = 1\npair_max_sep = 1\n",
    "survivor_threshold = 0.99\n", "survivor_threshold = nan\n",
]

# non-default window and sibling sources, with repeated focals and THETA
# lines, one frame in another order
SOURCES = {
    "window": "hypothesis window\nframe elong text lt-bound rt-bound\nfocal elong 0.1\n"
              "focal text 0.15\nfocal lt-bound&rt-bound 0.2\nfocal rt-bound&lt-bound 0.1\n"
              "focal lt-bound|rt-bound 0.2\nfocal THETA 0.15\nfocal THETA 0.1\n",
    "sibling": "hypothesis window\nframe h-sibl window v-sibl\nfocal window 0.3\n"
               "focal window 0.2\nfocal v-sibl&h-sibl 0.15\nfocal h-sibl 0.1\n"
               "focal v-sibl|h-sibl 0.1\nfocal THETA 0.1\nfocal THETA 0.05\n",
}

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")

PROBE = r"""
import contextlib, hashlib, io, json, os, sys, tempfile
sys.path.insert(0, sys.argv[1])
import inputs
from dsvision import cli, knowledge, netpbm, pyramid

def digest(*parts):
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
        h.update(b"\0")
    return h.hexdigest()

def array(a):
    return digest(str(a.dtype), a.shape, a.tobytes())

def read(path):
    if not os.path.exists(path):
        return None
    with open(path, "rb") as fh:
        return fh.read()

def outcome(argv, *paths, stderr=False):
    # the files are removed first, so that a call that writes none shows
    for path in filter(os.path.exists, paths):
        os.unlink(path)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        status = cli.main(argv)
    return digest(status, *map(read, paths), *([err.getvalue()] if stderr else []))

def write(path, text):
    with open(path, "w") as fh:
        fh.write(text)
    return path

def candidates(result):
    rows = {"candidates": len(result.candidates)}
    for c in result.candidates:
        rows[f"candidate {c.id}"] = digest(
            c.rect, c.supports, c.bel_a, c.bel_b, c.bel_c, c.v_sibl, c.h_sibl,
            c.non_window, c.conflict)
    return rows

texts = json.loads(sys.argv[2])
configs = texts["configs"]
out = {}
with tempfile.TemporaryDirectory() as work:
    tsv, ppm, mass = (os.path.join(work, name) for name in ("out.tsv", "out.ppm", "out.mass"))
    for name, text in configs.items():
        write(os.path.join(work, name + ".cfg"), text)
    sources = [write(os.path.join(work, name + ".know"), text)
               for name, text in texts["sources"].items()]
    window_ks, sibling_ks = map(knowledge.parse_knowledge, texts["sources"].values())
    for seed in map(int, sys.argv[3:]):
        for workload in ("facades", "noise", "evidence"):
            os.makedirs(os.path.join(work, workload, str(seed)))
        for workload, make in (("facades", inputs.make_facades), ("noise", inputs.make_noise)):
            for inp in make(seed, os.path.join(work, workload, str(seed))):
                image = netpbm.read_pgm(inp.path)
                result = pyramid.run_pipeline(image)
                row = {"read_pgm": array(image),
                       "micro.directions": array(result.micro.directions),
                       "short_edges": array(result.short_edges),
                       "long_edges": array(result.long_edges), **candidates(result)}
                row["report and overlay"] = outcome(
                    ["pipeline", inp.path, "--out", tsv, "--overlay", ppm], tsv, ppm)
                for name, text in configs.items() if seed == 1 else ():
                    tuned = pyramid.run_pipeline(image, pyramid.parse_config(text))
                    row.update({f"config {name} {key}": value
                                for key, value in candidates(tuned).items()})
                    row[f"config {name} report and overlay"] = outcome(
                        ["pipeline", inp.path, "--config", os.path.join(work, name + ".cfg"),
                         "--out", tsv, "--overlay", ppm], tsv, ppm)
                if seed == 1 and workload == "facades":
                    sourced = pyramid.run_pipeline(image, window_ks=window_ks,
                                                   sibling_ks=sibling_ks)
                    row.update({f"sources {key}": value
                                for key, value in candidates(sourced).items()})
                    row["sources report and overlay"] = outcome(
                        ["pipeline", inp.path, "--knowledge", sources[0], "--knowledge",
                         sources[1], "--out", tsv, "--overlay", ppm], tsv, ppm)
                out[f"{workload} seed {seed} {os.path.basename(inp.path)}"] = row
                if inp.bundled:
                    facade = inp.path
        for k, inp in enumerate(inputs.make_evidence(seed, os.path.join(work, "evidence",
                                                                         str(seed)))):
            out[f"evidence seed {seed} input {k}"] = {
                "combine": outcome(["combine", *inp.mass_paths, "--out", mass], mass),
                "verify": outcome(["verify", "--evidence", mass, "--knowledge",
                                   inp.knowledge_path, "--out", tsv], tsv)}
    for command in ("areas", "shutter"):
        out[command] = {command: outcome([command, "--out", tsv], tsv)}
    masses = [write(os.path.join(work, f"{k}.mass"), text)
              for k, text in enumerate(texts["mass"])]
    known = [write(os.path.join(work, f"{k}.know"), text)
             for k, text in enumerate(texts["knowledge"])]
    for k, path in enumerate(masses):
        out[f"mass text {k}"] = {
            "combine": outcome(["combine", path, "--out", mass], mass, stderr=True),
            "verify": outcome(["verify", "--evidence", path, "--knowledge", known[0],
                               "--out", tsv], tsv, stderr=True)}
    for k, path in enumerate(known):
        out[f"knowledge text {k}"] = {"verify": outcome(
            ["verify", "--evidence", masses[0], "--knowledge", path, "--out", tsv], tsv,
            stderr=True)}
    for k, text in enumerate(texts["config texts"]):
        path = write(os.path.join(work, f"text{k}.cfg"), text)
        out[f"config text {k}"] = {"pipeline": outcome(
            ["pipeline", facade, "--config", path, "--out", tsv], tsv, stderr=True)}
print(json.dumps(out))
"""


def outputs(root: str) -> dict:
    # no bytecode is written next to perfbench/inputs.py
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(root), "src"),
               PYTHONDONTWRITEBYTECODE="1", OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    texts = {"configs": CONFIGS, "mass": MASS_TEXTS, "knowledge": KNOWLEDGE_TEXTS,
             "sources": SOURCES, "config texts": CONFIG_TEXTS}
    proc = subprocess.run([sys.executable, "-c", PROBE, PERFBENCH, json.dumps(texts),
                           *map(str, SEEDS)],
                          env=env, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout)


def first_difference(want: dict, got: dict) -> str | None:
    """The first input and output, in the reference's order, whose hash
    differs or that only one side has."""
    for key in list(want) + [key for key in got if key not in want]:
        if key not in want or key not in got:
            return f"{key}: only one checkout has this input"
        mine, theirs = want[key], got[key]
        for name in list(mine) + [name for name in theirs if name not in mine]:
            if mine.get(name) != theirs.get(name):
                return f"{key}: {name}"
    return None


def main(argv) -> int:
    trees = dict(arg.split("=", 1) for arg in argv)
    (ref_name, ref_root), *others = trees.items()
    want = outputs(ref_root)
    for name, root in others:
        difference = first_difference(want, outputs(root))
        if difference is not None:
            print(f"{name} differs from {ref_name} at {difference}")
            return 1
    hashes = sum(len(row) for row in want.values())
    print(f"{', '.join(trees)}: all equal ({len(want)} inputs, {hashes} hashes)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
