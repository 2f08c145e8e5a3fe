"""Output checks, run outside the timed region.

Staged beliefs, combinations and verifications are recomputed through the
brute-force world-set ``oracle`` and must agree within ``TOL``.  Values the
CLI prints with fewer digits are checked to the precision printed.  Every
check returns a list of error strings; an empty list means the output is
correct.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field

from dsvision import DSVisionError, evidence, fixtures, knowledge, netpbm, oracle, pyramid, report, stages

TOL = 1e-9
PRINTED_3 = 0.5e-3 + TOL   # a value printed with three decimals
PRINTED_6 = 0.5e-6 + TOL   # a value printed with six decimals

# sha256 of the report for the bundled facade, recorded at the seed commit;
# any change to it is a change in the program's output
FACADE_REPORT_SHA256 = "283de6c321f7952440be8b810b3ae98159aeb588f784b43178480176835c389a"


def _oracle_knowledge(ks: knowledge.KnowledgeSource) -> oracle.OracleMass:
    focals: dict[oracle.WorldSet, float] = {oracle.theta_worlds(ks.frame): ks.theta_mass}
    for clause, mass in ks.focals:
        ws = oracle.to_worlds(ks.frame, clause)
        focals[ws] = focals.get(ws, 0.0) + mass
    return oracle.OracleMass(ks.frame, focals)


def _oracle_support(frame, atom: str, s: float, positive: bool = True) -> oracle.OracleMass:
    return oracle.OracleMass(frame, {oracle.atom_worlds(frame, atom, positive): s,
                                     oracle.theta_worlds(frame): 1.0 - s})


def _oracle_fold(ms: list[oracle.OracleMass]) -> tuple[oracle.OracleMass, float, int]:
    """Left fold of ``oracle_combine``: the result, the aggregate conflict
    and the focal pairs tried, the sum of |acc| * |m| over the steps."""
    acc, survival, pairs = ms[0], 1.0, 0
    for m in ms[1:]:
        pairs += len(acc) * len(m)
        acc, k = oracle.oracle_combine(acc, m)
        survival *= 1.0 - k
    return acc, 1.0 - survival, pairs


class _CubeWorlds:
    """World sets of conjunction clauses over one frame: the intersection
    of their literals' world sets, which are built once per literal."""

    def __init__(self, frame):
        self.frame = frame
        self._literals: dict[tuple[str, bool], oracle.WorldSet] = {}

    def __call__(self, clause) -> oracle.WorldSet:
        ws = oracle.theta_worlds(self.frame)
        for lit in clause.literals():
            key = (lit.atom, lit.positive)
            if key not in self._literals:
                self._literals[key] = oracle.atom_worlds(self.frame, lit.atom, lit.positive)
            ws = ws & self._literals[key]
        return ws


class StageOracle:
    """Staged beliefs recomputed over world sets from a candidate's
    supports and its sibling and non-window values.  Supports come from
    small belief tables, so results are memoized by their inputs."""

    def __init__(self):
        self._window = stages.window_knowledge()
        self._sibling = stages.sibling_knowledge()
        self._window_o = _oracle_knowledge(self._window)
        self._sibling_o = _oracle_knowledge(self._sibling)
        self._memo: dict[tuple, tuple[float, float, float]] = {}

    def beliefs(self, supports, v_sibl: float, h_sibl: float,
                non_window: float) -> tuple[float, float, float]:
        key = (tuple(supports), v_sibl, h_sibl, non_window)
        if key not in self._memo:
            wf, sf = self._window.frame, self._sibling.frame
            bel_a = oracle.oracle_verify(_oracle_fold([
                _oracle_support(wf, atom, s) for atom, s in zip(stages.FEATURE_ATOMS, supports)
            ])[0], self._window_o)
            siblings = [_oracle_support(sf, "v-sibl", v_sibl), _oracle_support(sf, "h-sibl", h_sibl)]
            window = _oracle_support(sf, "window", bel_a)
            bel_b = oracle.oracle_verify(_oracle_fold([window] + siblings)[0], self._sibling_o)
            against = _oracle_support(sf, "window", non_window, positive=False)
            bel_c = oracle.oracle_verify(
                _oracle_fold([window, against] + siblings)[0], self._sibling_o)
            self._memo[key] = (bel_a, bel_b, bel_c)
        return self._memo[key]

    def check_candidates(self, cands) -> list[str]:
        errors = []
        for c in cands:
            if c.supports is None:
                errors.append(f"candidate {c.id}: no supports")
                continue
            want = self.beliefs(c.supports, c.v_sibl, c.h_sibl, c.non_window)
            got = (c.bel_a, c.bel_b, c.bel_c)
            for stage, g, w in zip("abc", got, want):
                if not abs(g - w) <= TOL:
                    errors.append(f"candidate {c.id}: bel_{stage} {g!r} != oracle {w!r}")
        return errors

    def check_table(self) -> list[str]:
        """The 13 tabulated areas: oracle agreement within TOL and the
        published three-decimal values within 0.003."""
        errors = []
        for row in fixtures.WINDOW_TABLE:
            a = stages.stage_a_belief(row.elong, row.text, row.lt, row.rt)
            b = stages.stage_b_belief(a, row.v_sibl, row.h_sibl)
            c = stages.stage_c_belief(a, row.non_window, row.v_sibl, row.h_sibl)
            want = self.beliefs((row.elong, row.text, row.lt, row.rt),
                                row.v_sibl, row.h_sibl, row.non_window)
            published = (row.expected_a, row.expected_b, row.expected_c)
            for stage, g, w, p in zip("abc", (a, b, c), want, published):
                if not abs(g - w) <= TOL or not abs(g - p) <= 0.003:
                    errors.append(f"table {row.label}: bel_{stage} {g!r} vs oracle {w!r}, "
                                  f"published {p}")
        return errors


def _report_bytes(result: pyramid.PipelineResult) -> bytes:
    return report.format_report(report.report_from_result(result)).encode()


def _facade_errors(result: pyramid.PipelineResult) -> list[str]:
    """All 12 planted windows covered (40% of their area) by a candidate
    with both siblings, and the decoy covered by a flagged candidate."""
    fx = fixtures.synthetic_facade()

    def covering(planted):
        top, left, height, width = planted
        for c in result.candidates:
            r = c.rect
            dh = min(top + height, r.bottom) - max(top, r.top)
            dw = min(left + width, r.right) - max(left, r.left)
            if dh > 0 and dw > 0 and dh * dw >= 0.4 * height * width:
                return c
        return None

    errors = []
    found = [covering(w) for w in fx.windows]
    if not all(c is not None and c.v_sibl == 0.6 and c.h_sibl == 0.6 for c in found):
        errors.append(f"bundled facade: {sum(c is not None for c in found)}/12 windows "
                      "covered, or one lacks sibling support")
    decoy = covering(fx.decoy)
    if decoy is None or decoy.non_window != 0.5:
        errors.append("bundled facade: decoy not flagged as non-window")
    return errors


@dataclass
class PipelineReference:
    report: bytes = b""
    overlay: bytes = b""
    errors: list[str] = field(default_factory=list)


def pipeline_reference(inp, overlay_path: str, stage_oracle: StageOracle) -> PipelineReference:
    """The expected report and overlay for one image input, from the
    public API, with the candidates' beliefs checked against the oracle.
    For a 512 input they are those of its 128 source, which the 512 op
    must reproduce."""
    ref = PipelineReference()
    try:
        image = inp.source if inp.source is not None else netpbm.read_pgm(inp.path)
        result = pyramid.run_pipeline(image)
        ref.report = _report_bytes(result)
        report.write_overlay(result.pyramid.base, result.candidates, overlay_path)
        with open(overlay_path, "rb") as fh:
            ref.overlay = fh.read()
        ref.errors += stage_oracle.check_candidates(result.candidates)
        if inp.bundled:
            if hashlib.sha256(ref.report).hexdigest() != FACADE_REPORT_SHA256:
                ref.errors.append("bundled facade: report differs from the seed's recorded sha256")
            ref.errors += _facade_errors(result)
    except Exception as exc:  # a reference that cannot be computed fails every op on it
        ref.errors.append(f"{inp.path}: reference raised {type(exc).__name__}: {exc}")
    return ref


def check_pipeline_output(outputs: tuple[bytes, bytes], ref: PipelineReference) -> list[str]:
    errors = list(ref.errors)
    if outputs[0] != ref.report:
        errors.append("report bytes differ from the reference report "
                      "(for a 512 input, the report of its 128 source)")
    if outputs[1] != ref.overlay:
        errors.append("overlay bytes differ from the reference overlay")
    return errors


@dataclass
class EvidenceReference:
    hypothesis: str = ""
    masses: dict = field(default_factory=dict)   # world set -> oracle mass
    conflict: float = 0.0
    bel: float = 0.0
    focal_pairs: int = 0     # sum of |acc| * |m| over the combination fold
    worlds: _CubeWorlds | None = None
    errors: list[str] = field(default_factory=list)


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _mass_errors(m: evidence.MassFunction, ref: EvidenceReference, what: str) -> list[str]:
    want = ref.masses
    got = {ref.worlds(clause): mass for clause, mass in m.items()}
    if got.keys() != want.keys():
        return [f"{what}: focal sets differ from the oracle ({len(got)} vs {len(want)})"]
    return [f"{what}: mass {got[ws]!r} != oracle {want[ws]!r}"
            for ws in want if not abs(got[ws] - want[ws]) <= TOL]


def evidence_reference(inp) -> EvidenceReference:
    """Oracle combination and verification of one evidence input, with the
    public API's full-precision results checked against them."""
    ref = EvidenceReference()
    try:
        ms = [evidence.parse_mass_text(_read(p)) for p in inp.mass_paths]
        ks = knowledge.parse_knowledge(_read(inp.knowledge_path))
        acc, ref.conflict, ref.focal_pairs = _oracle_fold(
            [oracle.from_mass_function(m) for m in ms])
        ref.hypothesis, ref.masses = ks.name, dict(acc.items())
        ref.worlds = _CubeWorlds(ks.frame)
        ref.bel = oracle.oracle_verify(acc, _oracle_knowledge(ks))
        outcome = evidence.combine_all(ms)
        ref.errors += _mass_errors(outcome.result, ref, "combine_all")
        if not abs(outcome.conflict - ref.conflict) <= TOL:
            ref.errors.append(f"combine_all: K {outcome.conflict!r} != oracle {ref.conflict!r}")
        bel = knowledge.verify(outcome.result, ks).bel
        if not abs(bel - ref.bel) <= TOL:
            ref.errors.append(f"verify: bel {bel!r} != oracle {ref.bel!r}")
    except Exception as exc:  # a reference that cannot be computed fails every op on it
        ref.errors.append(f"{inp.knowledge_path}: reference raised {type(exc).__name__}: {exc}")
    return ref


_CONFLICT = re.compile(r"^# conflict K = (\S+)$", re.M)
_VERIFY = re.compile(r"\ABel\((\S+)\) = (\S+)\nBel\(THETA\) = (\S+)\n\Z")


def check_evidence_output(outputs: tuple[bytes, bytes], ref: EvidenceReference) -> list[str]:
    """The printed combination (masses to 12 digits, K to 6 decimals) and
    the printed verification (3 decimals) against the oracle."""
    if ref.errors:
        return list(ref.errors)
    errors = []
    try:
        combined, verified = (o.decode("utf-8") for o in outputs)
        errors += _mass_errors(evidence.parse_mass_text(combined), ref, "combine output")
        k = _CONFLICT.search(combined)
        if k is None or not abs(float(k.group(1)) - ref.conflict) <= PRINTED_6:
            errors.append(f"combine output: K line wrong or missing (oracle {ref.conflict!r})")
        v = _VERIFY.match(verified)
        if (v is None or v.group(1) != ref.hypothesis
                or not abs(float(v.group(2)) - ref.bel) <= PRINTED_3
                or not abs(float(v.group(3)) - (1.0 - ref.bel)) <= PRINTED_3):
            errors.append(f"verify output {verified!r} != oracle Bel {ref.bel!r}")
    except (UnicodeDecodeError, ValueError, DSVisionError) as exc:
        errors.append(f"unreadable output: {type(exc).__name__}: {exc}")
    return errors
