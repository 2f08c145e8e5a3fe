"""Workload ops, the timed loop, output checking and metrics.

Imported by ``run.py`` once the program has been found under ``src/``.
"""

from __future__ import annotations

import glob
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy

from dsvision import cli, pyramid

import checks
import inputs
import traced

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# fixed from the sample count of a 45 s run on 2 cores: 170-210 pipeline ops
# leave 15-20 samples beyond p90; 3000-4500 evidence ops would leave ten
# beyond p99.7, but p95 keeps the few costliest inputs of a seed out of it
TAIL_PERCENTILE = {"facades": 90.0, "noise": 90.0, "evidence": 95.0}
SETUP_PROCESSES = 5
# after an idle spell the host runs the first few seconds of load faster; warm
# up past that so the timed loop sees the sustained speed
WARMUP_SECONDS = 5.0
# a program whose ops all fail fast would otherwise fill memory with records
MAX_UNFINISHED = 1000
CANDIDATE_STAGES = ("pyramid.stage_a_beliefs", "pyramid.sibling_search",
                    "pyramid.building_boundary", "pyramid.stage_b_beliefs",
                    "pyramid.stage_c_beliefs")


def environment(seed: int) -> dict:
    env = {"nproc": len(os.sched_getaffinity(0)), "cpu_model": platform.machine(),
           "python": platform.python_version(), "numpy": numpy.__version__, "seed": seed,
           "omp_num_threads": os.environ["OMP_NUM_THREADS"],
           "openblas_num_threads": os.environ["OPENBLAS_NUM_THREADS"]}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            env["cpu_model"] = next(line.split(":", 1)[1].strip() for line in fh
                                    if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            fields = [open(os.path.join(index, f), encoding="utf-8").read().strip()
                      for f in ("level", "type", "size")]
        except OSError:
            continue
        if fields[0] in ("2", "3") and fields[1] in ("Unified", "Data"):
            env[f"l{fields[0]}_cache"] = fields[2]
    return env


class _Ops:
    def run(self, k: int, main) -> int:
        """One op: each command of ``argv(k)`` through ``main`` until one
        exits non-zero."""
        for argv in self.argv(k):
            code = main(argv)
            if code != 0:
                return code
        return 0

    def outputs(self, k: int) -> tuple[bytes, ...]:
        return tuple(_read_bytes(p) for p in self.outs[k])

    def clear(self, k: int) -> None:
        """Remove the outputs of input ``k`` before its next op.  The program
        then creates them anew: an op that writes nothing cannot pass on an
        earlier op's file, and no op pays for truncating a file in place,
        which on ext4 starts a disk write-back at close and times the
        host's disk instead of the program."""
        for path in self.outs[k]:
            try:
                os.unlink(path)
            except FileNotFoundError:
                pass


class PipelineOps(_Ops):
    """``dsvision pipeline <image> --out <tsv> --overlay <ppm>`` per op."""

    def __init__(self, inputs, workdir: str):
        self.inputs, self.workdir = inputs, workdir
        self.outs = [(os.path.join(workdir, f"out{k}.tsv"), os.path.join(workdir, f"out{k}.ppm"))
                     for k in range(len(inputs))]
        self.stage_oracle = checks.StageOracle()

    def argv(self, k: int) -> list[list[str]]:
        out, overlay = self.outs[k]
        return [["pipeline", self.inputs[k].path, "--out", out, "--overlay", overlay]]

    def trace_counts(self, k: int, returns: dict) -> tuple[dict, list[str]]:
        """Counts of one traced op from its layers' return values, and its
        candidates' beliefs checked against the oracle."""
        cands = returns["pyramid.find_window_candidates"]   # filled in by the stages
        threshold = pyramid.PipelineConfig().survivor_threshold
        counts = {"netpbm.bytes_in": os.path.getsize(self.inputs[k].path),
                  "pyramid.micro_edges": returns["pyramid.extract_micro_edges"].count(),
                  "pyramid.short_edges": len(returns["pyramid.aggregate_short_edges"]),
                  "pyramid.long_edges": len(returns["pyramid.aggregate_long_edges"]),
                  "pyramid.candidates": len(cands),
                  "pyramid.survivors": sum(c.bel_a >= threshold for c in cands),
                  "pyramid.with_siblings": sum(c.v_sibl > 0 or c.h_sibl > 0 for c in cands),
                  "pyramid.outside_building": sum(c.non_window > 0 for c in cands)}
        return counts, self.stage_oracle.check_candidates(cands)

    def reference(self, k: int):
        return checks.pipeline_reference(
            self.inputs[k], os.path.join(self.workdir, f"ref{k}.ppm"), self.stage_oracle)

    def check(self, outputs, ref) -> list[str]:
        return checks.check_pipeline_output(outputs, ref)


class EvidenceOps(_Ops):
    """``dsvision combine <mass files> --out <comb>`` then
    ``dsvision verify --evidence <comb> --knowledge <know> --out <txt>``."""

    def __init__(self, inputs, workdir: str):
        self.inputs = inputs
        self.outs = [(os.path.join(workdir, f"out{k}.mass"), os.path.join(workdir, f"out{k}.txt"))
                     for k in range(len(inputs))]
        self.refs: dict[int, object] = {}

    def argv(self, k: int) -> list[list[str]]:
        inp, (combined, verified) = self.inputs[k], self.outs[k]
        return [["combine", *inp.mass_paths, "--out", combined],
                ["verify", "--evidence", combined, "--knowledge", inp.knowledge_path,
                 "--out", verified]]

    def trace_counts(self, k: int, returns: dict) -> tuple[dict, list[str]]:
        """Counts of one traced op from its layers' return values; the last
        parsed mass file is the combination that ``verify`` reads back."""
        outcome = returns["evidence.combine_all"]
        combined, ks = returns["evidence.parse_mass_text"], returns["knowledge.parse_knowledge"]
        return {"evidence.focal_pairs": self.reference(k).focal_pairs,
                "evidence.focals_out": len(outcome.result),
                "evidence.conflict_k": outcome.conflict,
                "knowledge.subset_tests": len(combined) * len(ks.focals)}, []

    def reference(self, k: int):
        if k not in self.refs:
            self.refs[k] = checks.evidence_reference(self.inputs[k])
        return self.refs[k]

    def check(self, outputs, ref) -> list[str]:
        return checks.check_evidence_output(outputs, ref)


def _read_bytes(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def make_ops(workload: str, seed: int, workdir: str):
    if workload == "evidence":
        return EvidenceOps(inputs.make_evidence(seed, workdir), workdir)
    make = inputs.make_facades if workload == "facades" else inputs.make_noise
    return PipelineOps(make(seed, workdir), workdir)


@dataclass
class Op:
    k: int                      # input index
    seconds: float | None       # timed region; None for a cold op
    traced: bool = False
    digest: str | None = None   # of the outputs; None when the op failed to run
    error: str = ""
    counts: dict | None = None


class Runner:
    """Runs ops and keeps one copy of each distinct output per input, to be
    checked after the timed loop."""

    def __init__(self, ops):
        self.ops = ops
        self.outputs: dict[tuple[int, str], tuple[bytes, ...]] = {}
        self.done: list[Op] = []
        self.unfinished = 0     # ops that raised, exited non-zero or left no output

    def attempt(self, k: int, tracer=None) -> Op:
        """Time one op, traced when given a tracer; a raise or a non-zero
        exit code marks it failed."""
        op = Op(k, None, tracer is not None)
        main = cli.main if tracer is None else tracer.main
        self.ops.clear(k)
        start = time.perf_counter()
        try:
            code = self.ops.run(k, main)
        except Exception as exc:  # any failure of the program under test is a failed op
            op.seconds, op.error = time.perf_counter() - start, f"{type(exc).__name__}: {exc}"
            return self.record(op)
        except SystemExit as exc:
            op.seconds, op.error = time.perf_counter() - start, f"SystemExit({exc.code})"
            return self.record(op)
        op.seconds = time.perf_counter() - start
        if code != 0:
            op.error = f"exit code {code}"
        elif tracer is not None:
            try:
                op.counts, errors = self.ops.trace_counts(k, tracer.returns)
            except Exception as exc:  # return values the counts cannot be taken from
                errors = [f"trace counts: {type(exc).__name__}: {exc}"]
            op.error = "; ".join(errors[:3])
        return self.record(op)

    def record(self, op: Op) -> Op:
        if not op.error:
            try:
                outputs = self.ops.outputs(op.k)
            except OSError as exc:
                op.error = f"output unreadable: {exc}"
            else:
                op.digest = hashlib.sha256(b"\0".join(outputs)).hexdigest()
                self.outputs.setdefault((op.k, op.digest), outputs)
        self.unfinished += op.digest is None
        self.done.append(op)
        return op

    def cold(self, workdir: str) -> tuple[list[float], dict]:
        """Set-up time: import dsvision and run op 0 in fresh processes."""
        cmd = [sys.executable, os.path.join(HERE, "cold.py"), SRC, json.dumps(self.ops.argv(0))]
        setups, parts = [], {"import_s": [], "first_op_s": []}
        for _ in range(SETUP_PROCESSES):
            op = Op(0, None)
            self.ops.clear(0)
            try:
                proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60,
                                      cwd=workdir)
                timing = json.loads(proc.stdout.strip().splitlines()[-1])
                if proc.returncode != 0 or any(timing["codes"]):
                    op.error = f"cold op exited {proc.returncode}, codes {timing['codes']}"
                else:
                    setups.append(timing["import_s"] + timing["first_op_s"])
                    for key in parts:
                        parts[key].append(timing[key])
            except (subprocess.TimeoutExpired, ValueError, IndexError, KeyError) as exc:
                op.error = f"cold op: {type(exc).__name__}: {exc}"
            self.record(op)
        return setups, {key: statistics.median(v) for key, v in parts.items() if v}

    def loop(self, seconds: float, tracer) -> list[Op]:
        """Closed loop over the inputs in order until the time is up; with a
        tracer, each input runs untraced and then traced."""
        n = len(self.ops.inputs)
        warm = time.perf_counter() + WARMUP_SECONDS
        i = 0
        while time.perf_counter() < warm and self.unfinished < MAX_UNFINISHED:
            self.attempt(i % n)     # checked, but not timed
            i += 1
        timed = []
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline and self.unfinished < MAX_UNFINISHED:
            k = i % n
            timed.append(self.attempt(k))
            if tracer is not None:
                tracer.begin(len(timed))
                timed.append(self.attempt(k, tracer))
            i += 1
        return timed

    def check(self) -> list[str]:
        """Check each distinct output once; returns run-level errors."""
        verdicts: dict[tuple[int, str], list[str]] = {}
        refs: dict[int, object] = {}
        for key, outputs in self.outputs.items():
            k = key[0]
            if k not in refs:
                refs[k] = self.ops.reference(k)
            verdicts[key] = self.ops.check(outputs, refs[k])
        untraced = {(op.k, op.digest) for op in self.done if not op.traced}
        run_errors = []
        for op in self.done:
            if op.error:
                continue
            if verdicts[(op.k, op.digest)]:
                op.error = verdicts[(op.k, op.digest)][0]
            elif op.traced and (op.k, op.digest) not in untraced:
                op.error = "traced op output differs from the untraced op output"
                run_errors.append(f"input {op.k}: {op.error}")
        return run_errors


NAN = float("nan")    # a metric with no sample: the run is already marked incorrect


def end_to_end(workload: str, timed: list[Op], setups: list[float]) -> tuple[dict, dict]:
    lat = sorted(op.seconds * 1000.0 for op in timed)
    rank = math.ceil(TAIL_PERCENTILE[workload] / 100.0 * len(lat))
    metrics = {
        "ops_per_s": len(lat) / (sum(lat) / 1000.0) if lat else NAN,
        "latency_ms_p50": statistics.median(lat) if lat else NAN,
        "latency_ms_tail": lat[rank - 1] if lat else NAN,
        "setup_s": statistics.median(setups) if setups else NAN,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {"samples": len(lat), "tail_percentile": TAIL_PERCENTILE[workload],
              "samples_beyond_tail": len(lat) - rank, "setup_processes": len(setups)}
    return metrics, detail


COUNTS = ("netpbm.bytes_in", "pyramid.micro_edges", "pyramid.short_edges",
          "pyramid.long_edges", "pyramid.candidates", "pyramid.survivors",
          "pyramid.with_siblings", "pyramid.outside_building", "evidence.focal_pairs",
          "evidence.focals_out", "evidence.conflict_k", "knowledge.subset_tests")


def per_layer(tracer, timed: list[Op]) -> tuple[dict, dict]:
    """Mean self time and counts per traced op, and the tracing overhead
    against the untraced ops on the same inputs."""
    traced_ops = [op for op in timed if op.traced]
    plain = [op for op in timed if not op.traced]
    n = len(traced_ops) or NAN
    self_s = tracer.self_seconds()
    metrics = {f"{name}_ms": self_s.get(name, 0.0) * 1000.0 / n for name in traced.LAYERS}
    metrics["cli.self_ms"] = self_s.get(traced.ROOT_SPAN, 0.0) * 1000.0 / n
    totals = dict.fromkeys(COUNTS, 0.0)
    for op in traced_ops:
        for key, value in (op.counts or {}).items():
            totals[key] += value
    metrics.update({key: total / n for key, total in totals.items()})
    candidates = totals["pyramid.candidates"]
    stage_ms = sum(self_s.get(name, 0.0) for name in CANDIDATE_STAGES) * 1000.0
    metrics["stages.ms_per_candidate"] = stage_ms / candidates if candidates else 0.0
    metrics["pyramid.survivor_ratio"] = totals["pyramid.survivors"] / candidates if candidates else 0.0
    traced_mean = sum(op.seconds for op in traced_ops) / n
    plain_mean = sum(op.seconds for op in plain) / (len(plain) or NAN)
    metrics["trace.overhead_ratio"] = traced_mean / plain_mean - 1.0
    return metrics, {"traced_ops": len(traced_ops), "untraced_ops": len(plain),
                     "spans": len(tracer.spans)}


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the full record, result object included."""
    workdir = os.path.join(ROOT, ".perfbench_work", f"{workload}-{seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        runner = Runner(make_ops(workload, seed, workdir))
        setups, setup_parts = ([], {}) if trace else runner.cold(workdir)
        tracer = traced.Tracer() if trace else None
        timed = runner.loop(seconds, tracer)
        if trace:
            metrics, detail = per_layer(tracer, timed)
            os.makedirs(os.path.join(ROOT, ".perfbench_out"), exist_ok=True)
            tracer.write(os.path.join(ROOT, ".perfbench_out", f"spans-{workload}-{seed}.json"))
        else:
            metrics, detail = end_to_end(workload, timed, setups)
            detail.update(setup_parts)
        run_errors = runner.check() + checks.StageOracle().check_table()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = [op for op in runner.done if op.error]
    detail["error_rate"] = len(failed) / len(runner.done)
    detail["errors"] = sorted({op.error for op in failed})[:5] + run_errors[:5]
    return {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
            "env": environment(seed), "detail": detail,
            "result": {"correct": not failed and not run_errors, "attempted": len(runner.done),
                       "failed": len(failed), "metrics": metrics}}


def declared_units(trace: bool) -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(workload: str, seed: int, seconds: float, trace: bool) -> int:
    units = declared_units(trace)
    record = run(workload, seed, seconds, trace)
    result = record["result"]
    measured = result["metrics"]
    if measured.keys() != units.keys():
        print(f"error: metrics {sorted(measured.keys() ^ units.keys())} not both measured "
              "and declared in BENCHMARK.json", file=sys.stderr)
        return 2
    result["metrics"] = {name: {"value": measured[name], "unit": units[name]} for name in units}
    print(f"perfbench {workload} seed={seed} seconds={seconds:g} "
          f"trace={int(trace)}")
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"error_rate {record['detail']['error_rate']:.6g} "
          f"({result['failed']} of {result['attempted']} ops)")
    print("record " + json.dumps(record))
    print(json.dumps(result))
    return 0
