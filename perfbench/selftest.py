"""Harness self-test: injected faults are counted as failed ops.

    python3 perfbench/selftest.py

Runs short benchmark runs in this process, one injected fault at a time: a
belief perturbed below the report's print precision, a changed report byte,
an op that raises, every op raising, and a raise inside a traced op.  Each
must be counted as failed ops without crashing the harness; runs with no
fault, traced and untraced, must pass.  Exits 0 when every case behaves as
expected.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager

import run

run.load_program()

import harness  # noqa: E402
from dsvision import cli, pyramid  # noqa: E402

SECONDS = 1.0


@contextmanager
def patched(module, name: str, every: int, fault):
    """Replace ``module.name`` so that every ``every``-th call goes through
    ``fault(original, *args)`` instead."""
    original = getattr(module, name)
    calls = [0]

    def wrapper(*args, **kwargs):
        calls[0] += 1
        if calls[0] % every == 0:
            return fault(original, *args, **kwargs)
        return original(*args, **kwargs)

    setattr(module, name, wrapper)
    try:
        yield
    finally:
        setattr(module, name, original)


def _perturb(stage_c_belief, *args, **kwargs):
    return stage_c_belief(*args, **kwargs) + 1e-6


def _change_byte(format_report, rows):
    return format_report(rows).replace("\t", " ", 1)


def _skip(_original, *args, **kwargs):
    return None


def _raise(_original, *args, **kwargs):
    raise RuntimeError("injected fault")


def _raise_when_traced(original, *args, **kwargs):
    """Raise only inside a traced op, where the tracer has wrapped the
    program's ``pyramid.stage_c_beliefs`` around this fault."""
    if pyramid.stage_c_beliefs.__name__ == "traced_call":
        raise RuntimeError("injected fault in a traced op")
    return original(*args, **kwargs)


def case(name: str, workload: str, trace: bool, expect_failed: bool,
         expect_partial: bool = False, expect_error: str = "") -> bool:
    """One run; checks the result's shape, whether ops failed, whether some
    ops still passed, and that an expected error was reported."""
    record = harness.run(workload, 1, SECONDS, trace)
    result = record["result"]
    failed, attempted = result["failed"], result["attempted"]
    ok = (attempted >= 1 and result["correct"] is not expect_failed
          and (failed > 0) is expect_failed
          and (not expect_partial or failed < attempted)
          and (not expect_error or any(expect_error in e for e in record["detail"]["errors"]))
          and set(result) == {"correct", "attempted", "failed", "metrics"})
    print(f"{'PASS' if ok else 'FAIL'} {name}: correct={result['correct']} "
          f"failed={failed}/{attempted} {record['detail']['errors'][:1]}")
    return ok


def main() -> int:
    harness.SETUP_PROCESSES, harness.WARMUP_SECONDS = 1, 0.5
    results = [case("no fault", "noise", False, False),
               case("no fault, traced pipeline", "facades", True, False),
               case("no fault, traced evidence", "evidence", True, False)]
    with patched(pyramid, "stage_c_belief", 1, _perturb):
        results.append(case("belief perturbed by 1e-6", "facades", False, True,
                            expect_error="oracle"))
    with patched(cli, "format_report", 3, _change_byte):
        results.append(case("one report byte changed", "noise", False, True, True,
                            "report bytes differ"))
    with patched(cli, "write_overlay", 3, _skip):
        results.append(case("an op writes no overlay", "noise", False, True, True,
                            "output unreadable"))
    with patched(cli, "run_pipeline", 3, _raise):
        results.append(case("op raises", "noise", False, True, True, "injected fault"))
    with patched(cli, "run_pipeline", 1, _raise):
        results.append(case("every op raises", "noise", False, True,
                            expect_error="injected fault"))
    with patched(pyramid, "stage_c_beliefs", 1, _raise_when_traced):
        results.append(case("a layer raises inside traced ops", "noise", True, True, True,
                            "injected fault in a traced op"))
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
