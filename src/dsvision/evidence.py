"""Frames, focal clauses, mass functions and Dempster's combination rule.

Focal elements are represented as literal cubes (conjunctions of literals)
over a frame of binary feature atoms, plus positive disjunctions for
knowledge-source focals.  A cube is stored as a pair of bitmasks (positive
atoms, negated atoms), which makes intersection a bitwise OR and the subset
test a bitwise containment check.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from typing import Iterable, Iterator, Mapping, NamedTuple

from .errors import (
    ContradictionError,
    DuplicateAtomError,
    EmptyNameError,
    FrameMismatchError,
    InvalidParamsError,
    NormalizationError,
    ParseError,
    TooManyAtomsError,
    TotalConflictError,
    UnknownAtomError,
)

MAX_ATOMS = 16
_POS = (1 << MAX_ATOMS) - 1   # the pos half of a cube's ``pos | neg << MAX_ATOMS``
MASS_SUM_TOL = 1e-9
TOTAL_CONFLICT_TOL = 1e-12

THETA_TOKEN = "THETA"

CONJUNCTION = "and"
DISJUNCTION = "or"


class Frame(tuple):
    """An ordered collection of binary feature atoms: the tuple of their names.

    The worlds of the frame are the 2^n truth assignments over its atoms;
    atom order is the input order and fixes all canonical serializations.
    """

    __slots__ = ()

    def __new__(cls, atoms: Iterable[str]):
        self = super().__new__(cls, atoms)
        for name in self:
            if not isinstance(name, str):
                raise ParseError(f"atom {name!r} is not a string")
        if not self:
            raise EmptyNameError("a frame needs at least one atom")
        if len(self) > MAX_ATOMS:
            raise TooManyAtomsError(f"{len(self)} atoms exceeds the bound of {MAX_ATOMS}")
        seen = set()
        for name in self:
            if not name:
                raise EmptyNameError("atom names must be non-empty")
            # "#" and whitespace would break the text formats' comments and
            # fields, so such a name could not be read back
            if name == THETA_TOKEN or any(c in "&|!#" or c.isspace() for c in name):
                raise ParseError(f"atom {name!r} clashes with the clause syntax (THETA & | !)")
            if name in seen:
                raise DuplicateAtomError(f"duplicate atom {name!r}")
            seen.add(name)
        return self

    def index(self, atom: str) -> int:
        try:
            return tuple.index(self, atom)
        except ValueError:
            raise UnknownAtomError(f"atom {atom!r} not in frame {list(self)}") from None


@functools.lru_cache(maxsize=64)
def _literal_bits(frame: Frame) -> dict[str, int]:
    """Each literal, ``a`` or ``!a``, to its bit in ``pos | neg << MAX_ATOMS``; read-only."""
    bits = {atom: 1 << i for i, atom in enumerate(frame)}
    return bits | {"!" + atom: bit << MAX_ATOMS for atom, bit in bits.items()}


class Literal(NamedTuple):
    atom: str
    positive: bool = True

    def __str__(self) -> str:
        return self.atom if self.positive else "!" + self.atom


class Clause(namedtuple("Clause", "frame kind pos neg")):
    """A focal element: a conjunction of literals or a disjunction of atoms.

    The empty conjunction denotes the whole frame (theta).  Disjunctions are
    restricted to positive atoms, the only form knowledge sources use.
    """

    __slots__ = ()

    def __new__(cls, frame: Frame, kind: str, pos: int, neg: int):
        if kind not in (CONJUNCTION, DISJUNCTION):
            raise ParseError(f"bad clause kind {kind!r}")
        if kind == CONJUNCTION and pos & neg:
            raise ContradictionError("conjunction contains both polarities of an atom")
        if kind == DISJUNCTION:
            if neg:
                raise ContradictionError("disjunctions may contain only positive atoms")
            if not pos:
                raise ContradictionError("an empty disjunction denotes the empty set")
        return super().__new__(cls, frame, kind, pos, neg)

    @staticmethod
    def conjunction(frame: Frame, literals: Iterable[str]) -> "Clause":
        """The conjunction of atoms, each negated by a ``!`` prefix."""
        bits = _literal_bits(frame)
        cube = 0
        for lit in literals:   # Frame.index raises for a literal not in bits
            cube |= bits.get(lit) or 1 << frame.index(lit.removeprefix("!"))
        return Clause(frame, CONJUNCTION, cube & _POS, cube >> MAX_ATOMS)

    @staticmethod
    def disjunction(frame: Frame, atoms: Iterable[str]) -> "Clause":
        bits = _literal_bits(frame)
        pos = 0
        for atom in atoms:   # the mask drops the bit of a ``!a``, so Frame.index raises
            pos |= bits.get(atom, 0) & _POS or 1 << frame.index(atom)
        return Clause(frame, DISJUNCTION, pos, 0)

    @staticmethod
    def theta(frame: Frame) -> "Clause":
        return Clause(frame, CONJUNCTION, 0, 0)

    @staticmethod
    def parse(frame: Frame, text: str) -> "Clause":
        """Parse the text form: atoms joined by ``&`` or ``|``, ``!`` for
        negation, ``THETA`` for the whole frame."""
        text = text.strip()
        if not text:
            raise ParseError("empty clause")
        if text == THETA_TOKEN:
            return Clause.theta(frame)
        if "|" in text:
            if "&" in text:
                raise ParseError(f"clause {text!r} mixes conjunction and disjunction")
            parts = [p.strip() for p in text.split("|")]
            if any(p.startswith("!") for p in parts):
                raise ParseError(f"negated atom in disjunction {text!r}")
            return Clause.disjunction(frame, parts)
        return Clause.conjunction(frame, [p.strip() for p in text.split("&")])

    def literals(self) -> Iterator[Literal]:
        for i, atom in enumerate(self.frame):
            bit = 1 << i
            if self.pos & bit:
                yield Literal(atom)
            elif self.neg & bit:
                yield Literal(atom, positive=False)

    def __str__(self) -> str:
        frame, kind, pos, neg = self
        parts, bit, both = [], 1, pos | neg
        for atom in frame:
            if both & bit:
                parts.append(atom if pos & bit else "!" + atom)
            bit <<= 1
        return "|".join(parts) if kind == DISJUNCTION else "&".join(parts) or THETA_TOKEN


def _check_same_frame(a, b) -> None:
    if a.frame != b.frame:
        raise FrameMismatchError(f"frames differ: {a.frame} vs {b.frame}")


def clause_subset(a: Clause, b: Clause) -> bool:
    """World-set containment of cube ``a`` in clause ``b``.

    For a conjunction ``b`` every literal of ``b`` must appear in ``a``; for a
    positive disjunction ``b`` some atom of ``b`` must appear positively in
    ``a``.  Theta is a subset only of theta.
    """
    _check_same_frame(a, b)
    if a.kind != CONJUNCTION:
        raise ParseError("subset test requires a conjunction on the left")
    if b.kind == CONJUNCTION:
        return (a.pos & b.pos) == b.pos and (a.neg & b.neg) == b.neg
    return (a.pos & b.pos) != 0


def clause_intersect(a: Clause, b: Clause) -> Clause | None:
    """Intersection of two cubes: the union of their literal sets, or None
    when some atom occurs with both polarities (the empty set)."""
    _check_same_frame(a, b)
    if a.kind != CONJUNCTION or b.kind != CONJUNCTION:
        raise ParseError("intersection is defined on conjunction clauses")
    pos = a.pos | b.pos
    neg = a.neg | b.neg
    if pos & neg:
        return None
    return Clause(a.frame, CONJUNCTION, pos, neg)


class MassFunction:
    """A basic probability assignment over conjunction focal clauses.

    Masses are strictly positive, zero-mass focals are dropped and the total
    must be 1 within ``MASS_SUM_TOL``.  Immutable after construction.
    """

    __slots__ = ("frame", "_focals")

    def __init__(self, frame: Frame, focals: Mapping[Clause, float]):
        cleaned: dict[Clause, float] = {}
        for clause, mass in focals.items():
            if clause.frame != frame:
                raise FrameMismatchError("focal clause belongs to another frame")
            if clause.kind != CONJUNCTION:
                raise ParseError("mass-function focals must be conjunction clauses")
            try:
                if not mass >= 0:  # also rejects NaN
                    kind = "negative" if mass < 0 else "NaN"
                    raise NormalizationError(f"{kind} mass {mass} on {clause}")
            except (TypeError, ValueError):
                raise NormalizationError(f"mass {mass!r} on {clause} is not a number") from None
            if mass > 0:
                # no focal may hold more than the total, so fsum cannot overflow
                if mass > 1.0 + MASS_SUM_TOL:
                    raise NormalizationError(f"mass {mass} on {clause} exceeds 1")
                cleaned[clause] = mass
        total = math.fsum(cleaned.values())
        if abs(total - 1.0) > MASS_SUM_TOL:
            raise NormalizationError(f"masses sum to {total}, expected 1")
        self.frame = frame
        self._focals = cleaned

    @property
    def focals(self) -> dict[Clause, float]:
        return dict(self._focals)

    def mass(self, clause: Clause) -> float:
        return self._focals.get(clause, 0.0)

    def items(self):
        return self._focals.items()

    def __len__(self) -> int:
        return len(self._focals)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MassFunction):
            return NotImplemented
        return self.frame == other.frame and self._focals == other._focals

    def __repr__(self) -> str:
        inner = ", ".join(f"{c}: {m:.4g}" for c, m in sorted_focals(self))
        return f"MassFunction({{{inner}}})"


class CombineOutcome(NamedTuple):
    result: MassFunction
    conflict: float


def sorted_focals(m: MassFunction) -> list[tuple[Clause, float]]:
    """Focals in canonical order: theta last, otherwise by bitmask."""
    return sorted(m.items(), key=lambda cm: (not cm[0].pos | cm[0].neg, cm[0].pos, cm[0].neg))


def simple_support(frame: Frame, focal: Clause, s: float) -> MassFunction:
    """Mass ``s`` on one focal, the remainder of the unit mass on theta."""
    try:
        if not 0.0 <= s <= 1.0:
            raise NormalizationError(f"support {s} outside [0, 1]")
    except (TypeError, ValueError):
        raise NormalizationError(f"support {s!r} is not a number") from None
    if focal.frame != frame:
        raise FrameMismatchError("focal clause belongs to another frame")
    focals: dict[Clause, float] = {Clause.theta(frame): 1.0 - s}
    if s > 0:
        focals[focal] = focals.get(focal, 0.0) + s
    return MassFunction(frame, focals)


def belief(m: MassFunction, a: Clause) -> float:
    """Bel(a): total mass of focals contained in ``a``."""
    _check_same_frame(m, a)
    return math.fsum(mass for focal, mass in m.items() if clause_subset(focal, a))


def combine(m1: MassFunction, m2: MassFunction) -> CombineOutcome:
    """Dempster's orthogonal sum of two mass functions.

    Masses of pairs with empty intersection form the conflict K, which is
    discarded and renormalized away.
    """
    _check_same_frame(m1, m2)
    products: dict[Clause, list[float]] = {}
    conflict_terms = []
    for a, ma in m1.items():
        for b, mb in m2.items():
            c = clause_intersect(a, b)
            if c is None:
                conflict_terms.append(ma * mb)
            else:
                products.setdefault(c, []).append(ma * mb)
    k = math.fsum(conflict_terms)
    if k >= 1.0 - TOTAL_CONFLICT_TOL:
        raise TotalConflictError(f"total conflict K = {k}")
    scale = 1.0 / (1.0 - k)
    focals = {c: math.fsum(terms) * scale for c, terms in products.items()}
    return CombineOutcome(MassFunction(m1.frame, focals), k)


def combine_all(ms: list[MassFunction]) -> CombineOutcome:
    """Left fold of ``combine``.

    Dempster's rule is commutative and associative, so the result does not
    depend on the order of ``ms`` in exact arithmetic; in floats a different
    order can change the masses and the conflict in their last bits.  The
    aggregate conflict is 1 - prod(1 - K_step) over the fold steps.
    """
    if not ms:
        raise InvalidParamsError("combine_all needs at least one mass function")
    acc = ms[0]
    survival = 1.0
    for m in ms[1:]:
        outcome = combine(acc, m)
        acc = outcome.result
        survival *= 1.0 - outcome.conflict
    return CombineOutcome(acc, 1.0 - survival)


# --- text format (shared with the CLI) ---

def text_lines(text: str) -> Iterator[tuple[int, str]]:
    """The non-blank lines of ``text`` with ``#`` comments stripped, each
    with its line number counted from 1."""
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def read_focals(text: str, names: tuple[str, ...] = ()
                ) -> tuple[Frame | None, list[str | None], list[tuple[int, str, float]]]:
    """Read the directive lines shared by the mass and knowledge formats:
    one ``frame <atom> ...`` line, one ``<name> <value>`` line for each of
    ``names`` and any number of ``focal <clause> <mass>`` lines.  Returns
    the frame and each name's value, None where the line is missing, and
    the focal lines as (line number, clause text, mass), in file order."""
    frame = None
    values = dict.fromkeys(names)
    focals = []
    for lineno, line in text_lines(text):
        directive, *args = line.split()
        if directive == "focal":
            if len(args) != 2:
                raise ParseError(f"line {lineno}: expected 'focal <clause> <mass>'")
            try:
                focals.append((lineno, args[0], float(args[1])))
            except ValueError:
                raise ParseError(f"line {lineno}: bad mass {args[1]!r}") from None
        elif directive == "frame":
            if frame is not None:
                raise ParseError(f"line {lineno}: frame declared twice")
            frame = Frame(args)
        elif directive in values:
            if len(args) != 1:
                raise ParseError(f"line {lineno}: expected '{directive} <name>'")
            if values[directive] is not None:
                raise ParseError(f"line {lineno}: {directive} declared twice")
            values[directive] = args[0]
        else:
            raise ParseError(f"line {lineno}: unknown directive {directive!r}")
    return frame, list(values.values()), focals


def parse_mass_text(text: str) -> MassFunction:
    """Parse the mass-function text format.

    A ``frame`` line declares the atoms; each ``focal <clause> <mass>`` line
    adds its mass to one focal element.
    """
    frame, _, focal_lines = read_focals(text)
    if frame is None:
        raise ParseError("no frame declared")
    focals: dict[Clause, float] = {}
    for lineno, clause_text, mass in focal_lines:
        clause = Clause.parse(frame, clause_text)
        if clause.kind != CONJUNCTION:
            raise ParseError(f"line {lineno}: mass focal {clause_text!r} is a disjunction")
        focals[clause] = focals.get(clause, 0.0) + mass
    try:
        return MassFunction(frame, focals)
    except NormalizationError as exc:
        raise NormalizationError(f"mass text: {exc}") from None


def format_mass_text(m: MassFunction) -> str:
    lines = ["frame " + " ".join(m.frame)]
    lines += [f"focal {clause} {mass:.12g}" for clause, mass in sorted_focals(m)]
    return "\n".join(lines) + "\n"
