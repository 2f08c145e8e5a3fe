"""End-to-end acceptance checks.

Each test covers one acceptance criterion and prints a single PASS/FAIL
line so the suite doubles as a checklist:

    python3 -m pytest tests/test_acceptance.py -v -s
"""

import hashlib
import random
import sys
import time

from conftest import FACADE_REPORT_SHA256, all_cubes, random_knowledge, random_mass, vacuous
from dsvision.errors import TotalConflictError
from dsvision.evidence import (
    Clause,
    Frame,
    belief,
    clause_intersect,
    clause_subset,
    combine,
    simple_support,
)
from dsvision.fixtures import (
    WINDOW_TABLE,
    shutter_evidence,
    shutter_knowledge,
    synthetic_facade,
)
from dsvision.knowledge import verify
from dsvision.oracle import (
    from_mass_function,
    oracle_belief,
    oracle_combine,
    oracle_verify,
    theta_worlds,
    to_worlds,
)
from dsvision.pyramid import run_pipeline
from dsvision.report import format_report, report_from_result
from dsvision.stages import stage_a_belief, stage_b_belief, stage_c_belief
from test_oracle import knowledge_to_oracle


def report(name: str, ok: bool, detail: str = "") -> None:
    tail = f" ({detail})" if detail else ""
    print(f"{'PASS' if ok else 'FAIL'} {name}{tail}", file=sys.stderr)
    assert ok, f"{name}{tail}"


def test_shutter_verification():
    start = time.perf_counter()
    result = verify(shutter_evidence(), shutter_knowledge())
    elapsed = time.perf_counter() - start
    ok = abs(result.bel - 0.44) <= 0.005 \
        and abs(result.theta - (1.0 - result.bel)) <= 1e-12 \
        and elapsed < 0.1
    report("shutter verification", ok,
           f"Bel = {result.bel:.3f}, {elapsed * 1000:.1f} ms")


def test_evidence_product_masses():
    m = shutter_evidence()
    frame = m.frame
    expected = {
        "long&low&next-to": 0.21,
        "low&next-to": 0.14,
        "long&next-to": 0.09,
        "next-to": 0.06,
        "long&low": 0.21,
        "low": 0.14,
        "long": 0.09,
        "THETA": 0.06,
    }
    worst = max(abs(m.mass(Clause.parse(frame, text)) - value)
                for text, value in expected.items())
    report("combined evidence masses", worst <= 1e-9, f"max error {worst:.2e}")


def test_tabulated_staged_beliefs():
    start = time.perf_counter()
    errors = []
    for row in WINDOW_TABLE:
        a = stage_a_belief(row.elong, row.text, row.lt, row.rt)
        b = stage_b_belief(a, row.v_sibl, row.h_sibl)
        c = stage_c_belief(a, row.non_window, row.v_sibl, row.h_sibl)
        errors += [abs(a - row.expected_a), abs(b - row.expected_b),
                   abs(c - row.expected_c)]
    elapsed = time.perf_counter() - start
    ok = len(errors) == 39 and max(errors) <= 0.003 and elapsed < 1.0
    report("tabulated staged beliefs", ok,
           f"{len(errors)} checks, max error {max(errors):.4f}")


def test_window_separation():
    window_a = [stage_a_belief(r.elong, r.text, r.lt, r.rt)
                for r in WINDOW_TABLE if r.is_window]
    other_a = [stage_a_belief(r.elong, r.text, r.lt, r.rt)
               for r in WINDOW_TABLE if not r.is_window]
    ok = min(window_a) > max(other_a)
    report("window / non-window separation", ok,
           f"min window {min(window_a):.3f} > max other {max(other_a):.3f}")


def test_oracle_equivalence():
    rng = random.Random(2024)
    worst = 0.0
    runs = 0
    while runs < 1000:
        frame = Frame([f"a{i}" for i in range(rng.randint(1, 4))])
        m1 = random_mass(rng, frame)
        m2 = random_mass(rng, frame)
        try:
            fast = combine(m1, m2)
            slow, k = oracle_combine(from_mass_function(m1), from_mass_function(m2))
        except TotalConflictError:
            continue
        worst = max(worst, abs(fast.conflict - k))
        for clause, mass in fast.result.items():
            worst = max(worst, abs(slow.mass(to_worlds(frame, clause)) - mass))
        hyp = Clause.conjunction(frame, [rng.choice(frame)])
        worst = max(worst,
                    abs(belief(fast.result, hyp)
                        - oracle_belief(slow, to_worlds(frame, hyp))))
        ks = random_knowledge(rng, frame)
        worst = max(worst,
                    abs(verify(m1, ks).bel
                        - oracle_verify(from_mass_function(m1),
                                        knowledge_to_oracle(ks))))
        runs += 1

    # exhaustive clause subset / intersection agreement over small frames
    structural_ok = True
    for n in range(1, 5):
        frame = Frame([f"a{i}" for i in range(n)])
        cubes = all_cubes(frame)
        worlds = {c: to_worlds(frame, c) for c in cubes}
        for a in cubes:
            for b in cubes:
                if clause_subset(a, b) != worlds[a].issubset(worlds[b]):
                    structural_ok = False
                meet = clause_intersect(a, b)
                meet_worlds = worlds[a] & worlds[b]
                if (meet is None) != meet_worlds.is_empty:
                    structural_ok = False
                elif meet is not None and to_worlds(frame, meet) != meet_worlds:
                    structural_ok = False
    ok = worst <= 1e-9 and structural_ok
    report("oracle equivalence", ok,
           f"{runs} random instances, max error {worst:.2e}, "
           f"structural {'ok' if structural_ok else 'mismatch'}")


def test_combination_algebra():
    rng = random.Random(77)
    ok = True
    detail = ""
    for _ in range(200):
        frame = Frame([f"a{i}" for i in range(rng.randint(1, 4))])
        m1 = random_mass(rng, frame)
        m2 = random_mass(rng, frame)
        try:
            ab = combine(m1, m2)
            ba = combine(m2, m1)
        except TotalConflictError:
            continue
        for c in set(ab.result.focals) | set(ba.result.focals):
            if abs(ab.result.mass(c) - ba.result.mass(c)) > 1e-9:
                ok = False
                detail = "commutativity"
        total = sum(ab.result.mass(c) for c in ab.result.focals)
        if abs(total - 1.0) > 1e-9:
            ok = False
            detail = "normalization"
        ident = combine(m1, vacuous(frame))
        if ident.conflict != 0.0:
            ok = False
            detail = "vacuous identity"

    # total conflict triggers exactly at the pinned threshold
    frame = Frame(["a"])
    yes = Clause.conjunction(frame, ["a"])
    no = Clause.conjunction(frame, ["!a"])
    try:
        combine(simple_support(frame, yes, 1.0), simple_support(frame, no, 1.0))
        ok = False
        detail = "missed total conflict"
    except TotalConflictError:
        pass
    near = combine(simple_support(frame, yes, 1.0),
                   simple_support(frame, no, 1.0 - 1e-6))
    if not abs(near.conflict - (1.0 - 1e-6)) < 1e-9:
        ok = False
        detail = "near-total conflict"
    report("combination algebra", ok, detail or "200 instances")


def test_facade_pipeline():
    fx = synthetic_facade()
    start = time.perf_counter()
    result = run_pipeline(fx.image)
    elapsed = time.perf_counter() - start

    def covered(planted):
        top, left, height, width = planted
        need = 0.4 * height * width
        for c in result.candidates:
            r = c.rect
            dh = min(top + height, r.bottom) - max(top, r.top)
            dw = min(left + width, r.right) - max(left, r.left)
            if dh > 0 and dw > 0 and dh * dw >= need:
                return c
        return None

    matches = [covered(w) for w in fx.windows]
    coverage_ok = all(m is not None for m in matches)
    sibling_ok = coverage_ok and all(
        m.v_sibl == 0.6 and m.h_sibl == 0.6 for m in matches)
    decoy_match = covered(fx.decoy)
    decoy_ok = decoy_match is not None and decoy_match.non_window == 0.5

    text = format_report(report_from_result(result)).encode()
    deterministic = hashlib.sha256(text).hexdigest() == FACADE_REPORT_SHA256

    ok = coverage_ok and sibling_ok and decoy_ok and deterministic \
        and elapsed < 5.0
    report("facade pipeline", ok,
           f"12/12 covered: {coverage_ok}, siblings: {sibling_ok}, "
           f"decoy flagged: {decoy_ok}, deterministic: {deterministic}, "
           f"{elapsed:.2f} s")
