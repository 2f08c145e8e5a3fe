"""Knowledge sources and hypothesis verification.

A knowledge source stores the mass distribution describing a hypothesis's
expected features.  Verification maps accumulated evidence to a simple
belief committed to the object: the sum of m_e(A) * m_s(B) over all pairs
where the evidence focal A is contained in the knowledge focal B, with the
knowledge residual on theta excluded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import (
    FrameMismatchError,
    NegativeLiteralInKnowledgeError,
    NormalizationError,
    ParseError,
)
from .evidence import (
    MASS_SUM_TOL,
    Clause,
    Frame,
    MassFunction,
    clause_subset,
    focal_fields,
    make_frame,
    text_lines,
)


@dataclass(frozen=True)
class KnowledgeSource:
    """The stored mass distribution for one hypothesis."""

    name: str
    frame: Frame
    focals: tuple[tuple[Clause, float], ...]
    theta_mass: float

    def __post_init__(self):
        # masses are checked before they are summed, since fsum raises on
        # inf + -inf; the inverted comparisons also reject NaN
        for clause, mass in self.focals:
            if clause.frame != self.frame:
                raise FrameMismatchError("knowledge focal over a different frame")
            if not mass > 0:
                raise NormalizationError(f"non-positive mass {mass} on {clause}")
            if not clause.is_positive:
                raise NegativeLiteralInKnowledgeError(f"negative literal in {clause}")
            if clause.is_theta:
                raise ParseError("use the theta residual, not a THETA focal")
        if not self.theta_mass >= 0:
            raise NormalizationError("negative theta mass")
        total = math.fsum(m for _, m in self.focals) + self.theta_mass
        if abs(total - 1.0) > MASS_SUM_TOL:
            raise NormalizationError(f"knowledge masses sum to {total}, expected 1")

    @staticmethod
    def build(name: str, frame: Frame, focals: dict[str, float]) -> "KnowledgeSource":
        """Build from clause-text keys; a THETA key supplies the residual."""
        theta = focals.get("THETA", 0.0)
        parsed = tuple(
            (Clause.parse(frame, text), mass)
            for text, mass in focals.items()
            if text != "THETA"
        )
        return KnowledgeSource(name, frame, parsed, theta)


@dataclass(frozen=True)
class VerificationResult:
    hypothesis: str
    bel: float

    @property
    def theta(self) -> float:
        return 1.0 - self.bel


def verify(m_e: MassFunction, ks: KnowledgeSource) -> VerificationResult:
    """Verify a hypothesis against accumulated evidence.

    The result is a simple belief function over the object space; evidence
    mass on theta contributes nothing because theta is only contained in the
    excluded knowledge residual.
    """
    if m_e.frame != ks.frame:
        raise FrameMismatchError("evidence and knowledge over different frames")
    terms = []
    for a, ma in m_e.items():
        for b, mb in ks.focals:
            if clause_subset(a, b):
                terms.append(ma * mb)
    return VerificationResult(ks.name, math.fsum(terms))


def parse_knowledge(text: str) -> KnowledgeSource:
    """Parse the knowledge config format.

    Directives: ``hypothesis <name>``, ``frame <atom> ...`` and
    ``focal <clause> <mass>`` (``THETA`` for the residual); ``#`` comments.
    """
    name = None
    frame = None
    theta_mass = 0.0
    focal_lines: list[tuple[str, float]] = []
    for lineno, line in text_lines(text):
        fields = line.split()
        if fields[0] == "hypothesis":
            if len(fields) != 2:
                raise ParseError(f"line {lineno}: expected 'hypothesis <name>'")
            name = fields[1]
        elif fields[0] == "frame":
            frame = make_frame(fields[1:])
        elif fields[0] == "focal":
            clause_text, mass = focal_fields(lineno, fields)
            if clause_text == "THETA":
                theta_mass += mass
            else:
                focal_lines.append((clause_text, mass))
        else:
            raise ParseError(f"line {lineno}: unknown directive {fields[0]!r}")
    if name is None:
        raise ParseError("missing 'hypothesis' line")
    if frame is None:
        raise ParseError("missing 'frame' line")
    focals = []
    for clause_text, mass in focal_lines:
        clause = Clause.parse(frame, clause_text)
        if not clause.is_positive:
            raise NegativeLiteralInKnowledgeError(f"negative literal in {clause_text!r}")
        focals.append((clause, mass))
    return KnowledgeSource(name, frame, tuple(focals), theta_mass)
