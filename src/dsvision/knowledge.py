"""Knowledge sources and hypothesis verification.

A knowledge source stores the mass distribution describing a hypothesis's
expected features.  Verification maps accumulated evidence to a simple
belief committed to the object: the sum of m_e(A) * m_s(B) over all pairs
where the evidence focal A is contained in the knowledge focal B, with the
knowledge residual on theta excluded.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import Iterable, NamedTuple

from .errors import (
    FrameMismatchError,
    NegativeLiteralInKnowledgeError,
    NormalizationError,
    ParseError,
)
from .evidence import (
    MASS_SUM_TOL,
    THETA_TOKEN,
    Clause,
    Frame,
    MassFunction,
    clause_subset,
    read_focals,
)


class KnowledgeSource(namedtuple("KnowledgeSource", "name frame focals theta_mass")):
    """The stored mass distribution for one hypothesis."""

    __slots__ = ()

    def __new__(cls, name: str, frame: Frame, focals: tuple[tuple[Clause, float], ...],
                theta_mass: float):
        # masses are checked before they are summed, since fsum raises on
        # inf + -inf and on an overflowing sum; the inverted comparisons also
        # reject NaN, and raise on a mass that is not a number
        for clause, mass in focals:
            if clause.frame != frame:
                raise FrameMismatchError("knowledge focal over a different frame")
            try:
                if not 0 < mass <= 1.0 + MASS_SUM_TOL:
                    raise NormalizationError(f"mass {mass} on {clause} outside (0, 1]")
            except (TypeError, ValueError):
                raise NormalizationError(f"mass {mass!r} on {clause} is not a number") from None
            if clause.neg:
                raise NegativeLiteralInKnowledgeError(f"negative literal in {clause}")
            if not clause.pos | clause.neg:
                raise ParseError("use the theta residual, not a THETA focal")
        try:
            if not 0 <= theta_mass <= 1.0 + MASS_SUM_TOL:
                raise NormalizationError(f"theta mass {theta_mass} outside [0, 1]")
        except (TypeError, ValueError):
            raise NormalizationError(f"theta mass {theta_mass!r} is not a number") from None
        total = math.fsum(m for _, m in focals) + theta_mass
        if abs(total - 1.0) > MASS_SUM_TOL:
            raise NormalizationError(f"knowledge masses sum to {total}, expected 1")
        return super().__new__(cls, name, frame, focals, theta_mass)

    @staticmethod
    def build(name: str, frame: Frame, focals: Iterable[tuple[str, float]]) -> "KnowledgeSource":
        """Build from (clause text, mass) pairs, each its own focal; the
        masses of THETA pairs are summed, in order, into the residual."""
        theta = 0.0
        parsed = []
        for text, mass in focals:
            if text == THETA_TOKEN:
                try:
                    theta += mass
                except TypeError:
                    raise NormalizationError(f"theta mass {mass!r} is not a number") from None
            else:
                parsed.append((Clause.parse(frame, text), mass))
        return KnowledgeSource(name, frame, tuple(parsed), theta)


class VerificationResult(NamedTuple):
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
    frame, (name,), focal_lines = read_focals(text, ("hypothesis",))
    if name is None:
        raise ParseError("missing 'hypothesis' line")
    if frame is None:
        raise ParseError("missing 'frame' line")
    return KnowledgeSource.build(name, frame, [(clause, mass) for _, clause, mass in focal_lines])
