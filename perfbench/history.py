"""Run the benchmark over several seeds and summarise it as one history point.

    python3 perfbench/history.py --workloads facades evidence \\
        --seeds 1 2 3 4 5 6 7 8 9 10 --repeat-seed 1 --repeats 4 \\
        --trace-seeds 1 --also-traced noise --out perfbench/history/<name>.json

Runs the benchmark command once per workload and seed, plus ``--repeats``
more runs of ``--repeat-seed``, one process at a time, for ``run_seconds`` of
``BENCHMARK.json``.  The runs of all workloads go in one shuffled order
(``--order-seed``), so that neither seed nor workload follows the clock.  For
each end-to-end metric it keeps every value with its seed and start time, and
the median, quartiles and spread (interquartile range over median) over the
distinct seeds, which the benchmark's bounds are judged against, and over the
runs of the repeated seed.  A seed-to-seed spread well above the repeat spread
would mean the inputs' cost depends on the seed.  For each traced seed it
keeps the per-layer split; ``--also-traced`` workloads get only that.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        command = json.load(fh)["command"]
    proc = subprocess.run(command + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(seconds), "--trace", str(trace)],
                          capture_output=True, text=True, cwd=ROOT, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return next(json.loads(line[len("record "):]) for line in proc.stdout.splitlines()
                if line.startswith("record "))


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None}


def traced_split(workload: str, seeds: list[int], seconds: int) -> list[dict]:
    split = []
    for seed in seeds:
        record = run_once(workload, seed, seconds, 1)
        split.append({"seed": seed, "correct": record["result"]["correct"],
                      "detail": record["detail"], "per_layer": record["result"]["metrics"]})
    return split


def end_to_end(spec: dict, runs: list[dict]) -> dict:
    return {m["name"]: dict(summarise([r["metrics"][m["name"]] for r in runs]),
                            unit=m["unit"], bound=m["bound"])
            for m in spec["end_to_end"]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--repeat-seed", type=int)
    parser.add_argument("--repeats", type=int, default=0,
                        help="extra runs of --repeat-seed per workload")
    parser.add_argument("--order-seed", type=int, default=0)
    parser.add_argument("--trace-seeds", nargs="*", type=int, default=[])
    parser.add_argument("--also-traced", nargs="*", default=[],
                        help="workloads run only traced, on the trace seeds")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    jobs = [(w, seed, False) for w in args.workloads for seed in args.seeds]
    jobs += [(w, args.repeat_seed, True) for w in args.workloads for _ in range(args.repeats)]
    random.Random(args.order_seed).shuffle(jobs)
    point = {"run_seconds": seconds, "seeds": args.seeds, "repeat_seed": args.repeat_seed,
             "order": [[w, seed] for w, seed, _ in jobs], "workloads": {}}
    runs: dict[str, list[dict]] = {w: [] for w in args.workloads}
    t0 = time.time()
    for index, (workload, seed, repeat) in enumerate(jobs):
        record = run_once(workload, seed, seconds, 0)
        runs[workload].append({
            "seed": seed, "repeat": repeat, "order": index,
            "start_s": round(time.time() - t0, 1), "correct": record["result"]["correct"],
            "attempted": record["result"]["attempted"], "failed": record["result"]["failed"],
            "detail": record["detail"], "env": record["env"],
            "metrics": {k: v["value"] for k, v in record["result"]["metrics"].items()}})
        print(f"[{index + 1}/{len(jobs)}] {workload} seed {seed}: "
              f"{runs[workload][-1]['metrics']}", file=sys.stderr)
    for workload in args.workloads:
        by_seed = [r for r in runs[workload] if not r["repeat"]]
        same_seed = [r for r in runs[workload] if r["seed"] == args.repeat_seed]
        entry = {
            "env": by_seed[0]["env"],
            "attempted": sum(r["attempted"] for r in runs[workload]),
            "failed": sum(r["failed"] for r in runs[workload]),
            "correct": all(r["correct"] for r in runs[workload]),
            "end_to_end": end_to_end(spec, by_seed),
            "repeat_seed_end_to_end": end_to_end(spec, same_seed) if len(same_seed) > 1 else {},
            "runs": runs[workload],
            "traced": traced_split(workload, args.trace_seeds, seconds),
        }
        point["workloads"][workload] = entry
        for name, m in entry["end_to_end"].items():
            same = entry["repeat_seed_end_to_end"].get(name, {}).get("spread")
            print(f"{workload} {name} median {m['median']:.6g} {m['unit']} "
                  f"spread {m['spread']:.4f} (bound {m['bound']}), "
                  f"same-seed spread {same}", file=sys.stderr)
    for workload in args.also_traced:
        point["workloads"][workload] = {"traced": traced_split(workload, args.trace_seeds,
                                                               seconds)}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(point, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
