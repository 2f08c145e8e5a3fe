"""Brute-force reference implementation over explicit world sets.

Every subset of the frame is a bitmask over its 2^n worlds (a world is a
binary assignment to the atoms).  Intentionally naive: this module exists to
cross-check the cube-algebra fast path, not to be fast.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from .errors import FrameMismatchError, NormalizationError, TotalConflictError
from .evidence import (
    CONJUNCTION,
    MASS_SUM_TOL,
    TOTAL_CONFLICT_TOL,
    Clause,
    Frame,
    MassFunction,
)


@dataclass(frozen=True)
class WorldSet:
    """A subset of the frame, as a bitmask over its 2^n worlds."""

    frame: Frame
    members: int

    def __post_init__(self):
        full = (1 << (1 << len(self.frame))) - 1
        if not 0 <= self.members <= full:
            raise ValueError("world bitmask out of range for the frame")

    @property
    def is_empty(self) -> bool:
        return self.members == 0

    def __and__(self, other: "WorldSet") -> "WorldSet":
        _check(self, other)
        return WorldSet(self.frame, self.members & other.members)

    def issubset(self, other: "WorldSet") -> bool:
        _check(self, other)
        return self.members & ~other.members == 0


def _check(a, b) -> None:
    if a.frame != b.frame:
        raise FrameMismatchError("world sets over different frames")


def theta_worlds(frame: Frame) -> WorldSet:
    return WorldSet(frame, (1 << (1 << len(frame))) - 1)


def atom_worlds(frame: Frame, atom: str, positive: bool = True) -> WorldSet:
    """Worlds where the atom has the given truth value."""
    i = frame.index(atom)
    mask = 0
    for world in range(1 << len(frame)):
        if bool(world >> i & 1) == positive:
            mask |= 1 << world
    return WorldSet(frame, mask)


def to_worlds(frame: Frame, c: Clause) -> WorldSet:
    """World-set semantics of a clause: the worlds where every literal of a
    conjunction holds, or some atom of a disjunction."""
    if c.frame != frame:
        raise FrameMismatchError("clause over a different frame")
    worlds = range(1 << len(frame))
    if c.kind == CONJUNCTION:
        members = (w for w in worlds if (w & c.pos) == c.pos and not w & c.neg)
    else:
        members = (w for w in worlds if w & c.pos)
    return WorldSet(frame, sum(1 << world for world in members))


class OracleMass:
    """A basic probability assignment over arbitrary world sets."""

    __slots__ = ("frame", "_focals")

    def __init__(self, frame: Frame, focals: Mapping[WorldSet, float]):
        cleaned: dict[WorldSet, float] = {}
        for ws, mass in focals.items():
            if ws.frame != frame:
                raise FrameMismatchError("focal over a different frame")
            if ws.is_empty and mass != 0:
                raise NormalizationError("mass on the empty set")
            if mass < 0:
                raise NormalizationError(f"negative mass {mass}")
            if mass > 0:
                cleaned[ws] = cleaned.get(ws, 0.0) + mass
        total = math.fsum(cleaned.values())
        if abs(total - 1.0) > MASS_SUM_TOL:
            raise NormalizationError(f"masses sum to {total}, expected 1")
        self.frame = frame
        self._focals = cleaned

    def items(self):
        return self._focals.items()

    def mass(self, ws: WorldSet) -> float:
        return self._focals.get(ws, 0.0)

    def __len__(self) -> int:
        return len(self._focals)


def from_mass_function(m: MassFunction) -> OracleMass:
    """Lift a cube-algebra mass function into the world-set representation."""
    focals: dict[WorldSet, float] = {}
    for clause, mass in m.items():
        ws = to_worlds(m.frame, clause)
        focals[ws] = focals.get(ws, 0.0) + mass
    return OracleMass(m.frame, focals)


def oracle_combine(m1: OracleMass, m2: OracleMass) -> tuple[OracleMass, float]:
    """Dempster's rule restated over raw subsets."""
    if m1.frame != m2.frame:
        raise FrameMismatchError("mass functions over different frames")
    products: dict[WorldSet, list[float]] = {}
    conflict_terms = []
    for a, ma in m1.items():
        for b, mb in m2.items():
            c = a & b
            if c.is_empty:
                conflict_terms.append(ma * mb)
            else:
                products.setdefault(c, []).append(ma * mb)
    k = math.fsum(conflict_terms)
    if k >= 1.0 - TOTAL_CONFLICT_TOL:
        raise TotalConflictError(f"total conflict K = {k}")
    scale = 1.0 / (1.0 - k)
    combined = {ws: math.fsum(terms) * scale for ws, terms in products.items()}
    return OracleMass(m1.frame, combined), k


def oracle_belief(m: OracleMass, a: WorldSet) -> float:
    if m.frame != a.frame:
        raise FrameMismatchError("belief argument over a different frame")
    return math.fsum(mass for ws, mass in m.items() if ws.issubset(a))


def oracle_verify(m_e: OracleMass, m_s: OracleMass) -> float:
    """Hypothesis-verification double sum over focal pairs with containment,
    excluding the knowledge focal theta."""
    if m_e.frame != m_s.frame:
        raise FrameMismatchError("evidence and knowledge over different frames")
    theta = theta_worlds(m_e.frame)
    terms = []
    for a, ma in m_e.items():
        for b, mb in m_s.items():
            if b == theta:
                continue
            if a.issubset(b):
                terms.append(ma * mb)
    return math.fsum(terms)
