"""The pure part of the benchmark tools: reading a result line, the
alternating rounds and their summary, and where two checkouts' output
hashes first differ.  No subprocess is started."""

import json
import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "tools"))
import bench_layers  # noqa: E402
from identity import first_difference  # noqa: E402
from paired import alternate, summarise  # noqa: E402


with open(bench_layers.BENCHMARK, encoding="utf-8") as fh:
    PER_LAYER = [m["name"] for m in json.load(fh)["per_layer"]]


def result_line(correct=True, failed=0, extra=()):
    metrics = {name: {"value": float(i), "unit": "ms"}
               for i, name in enumerate((*PER_LAYER, *extra))}
    return json.dumps({"correct": correct, "attempted": 10, "failed": failed,
                       "metrics": metrics})


def test_layer_metrics_are_the_benchmarks_per_layer_names():
    metrics = bench_layers.layer_metrics(result_line(extra=("ops_per_s",)), "here")
    assert list(metrics) == PER_LAYER
    assert metrics["netpbm.read_pgm_ms"] == 0.0
    assert metrics["trace.overhead_ratio"] == float(len(PER_LAYER) - 1)


@pytest.mark.parametrize("correct, failed", [(False, 0), (True, 1), (False, 3)])
def test_a_failed_run_stops_the_tool(correct, failed):
    with pytest.raises(SystemExit, match="change facades round 3: correct") as info:
        bench_layers.layer_metrics(result_line(correct, failed), "change facades round 3")
    assert info.value.code != 0


def test_alternate_rotates_the_first_checkout():
    calls = []

    def sample(name, root, group, r):
        calls.append((name, group, r))
        return {"x": float(len(calls)), "root": root}

    samples = alternate({"a": "/a", "b": "/b"}, ("g", "h"), 2, sample)
    assert calls == [("a", "g", 0), ("b", "g", 0), ("a", "h", 0), ("b", "h", 0),
                     ("b", "g", 1), ("a", "g", 1), ("b", "h", 1), ("a", "h", 1)]
    assert samples["a"]["g"] == [{"x": 1.0, "root": "/a"}, {"x": 6.0, "root": "/a"}]
    assert samples["b"]["h"] == [{"x": 4.0, "root": "/b"}, {"x": 7.0, "root": "/b"}]


def test_summarise_gives_quartiles_and_paired_differences():
    parent = [1.0, 2.0, 3.0, 4.0, 5.0]
    change = [2.0, 5.0, 4.0, 8.0, 10.0]
    samples = {"parent": {"facades": [{"t": v} for v in parent]},
               "change": {"facades": [{"t": v} for v in change]}}
    summary = summarise(samples)
    assert summary["parent"]["facades"] == {"t": {"median": 3.0, "q1": 1.5, "q3": 4.5}}
    assert summary["change"]["facades"]["t"] == {"median": 5.0, "q1": 3.0, "q3": 9.0}
    # per-round differences 1, 3, 1, 4, 5
    assert summary["change"]["facades"]["minus_parent"] == {
        "t": {"median": 3.0, "q1": 1.0, "q3": 4.5}}


HASHES = {"facade 1": {"report": "r1", "overlay": "o1"}, "evidence 1": {"combine": "c1"}}


def test_first_difference_of_equal_outputs_is_none():
    assert first_difference(HASHES, json.loads(json.dumps(HASHES))) is None
    assert first_difference({}, {}) is None


def test_first_difference_names_the_input_and_output():
    got = {**HASHES, "evidence 1": {"combine": "c2"}}
    assert first_difference(HASHES, got) == "evidence 1: combine"


@pytest.mark.parametrize("want, got, where", [
    (HASHES, {"facade 1": HASHES["facade 1"]}, "evidence 1: only one checkout has this input"),
    ({"facade 1": HASHES["facade 1"]}, HASHES, "evidence 1: only one checkout has this input"),
    (HASHES, {**HASHES, "facade 1": {"report": "r1"}}, "facade 1: overlay"),
    (HASHES, {**HASHES, "facade 1": {**HASHES["facade 1"], "extra": "x"}}, "facade 1: extra"),
], ids=["input-only-in-reference", "input-only-in-other", "output-only-in-reference",
        "output-only-in-other"])
def test_first_difference_reports_what_only_one_side_has(want, got, where):
    assert first_difference(want, got) == where


def test_first_difference_follows_the_reference_order():
    other = {"evidence 1": {"combine": "c2"}, "facade 1": {"overlay": "o2", "report": "r2"}}
    assert first_difference(HASHES, other) == "facade 1: report"
    reordered = dict(reversed(HASHES.items()))
    assert first_difference(reordered, other) == "evidence 1: combine"
    # the other side's own inputs come after every one of the reference's
    assert first_difference(HASHES, {"new": {}, **other}) == "facade 1: report"
