import math
import re

import pytest
from hypothesis import given, settings, strategies as st

from conftest import vacuous
from dsvision.errors import (
    ContradictionError,
    DSVisionError,
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
from dsvision.evidence import (
    CONJUNCTION,
    DISJUNCTION,
    MASS_SUM_TOL,
    MAX_ATOMS,
    TOTAL_CONFLICT_TOL,
    Clause,
    CombineOutcome,
    Frame,
    MassFunction,
    belief,
    clause_intersect,
    clause_subset,
    combine,
    combine_all,
    format_mass_text,
    parse_mass_text,
    simple_support,
)


def conj(frame, *literals):
    return Clause.conjunction(frame, literals)


def validate(m: MassFunction) -> list[str]:
    """Check the basic-probability-assignment axioms; empty list means ok."""
    violations = []
    total = math.fsum(mass for _, mass in m.items())
    if abs(total - 1.0) > MASS_SUM_TOL:
        violations.append(f"masses sum to {total:.12g}, expected 1")
    for clause, mass in m.items():
        if mass <= 0:
            violations.append(f"non-positive mass {mass:.12g} on {clause}")
        if clause.frame != m.frame:
            violations.append(f"focal {clause} over a foreign frame")
    return violations


class TestMakeFrame:
    """Building a ``Frame``, which validates its atoms.  The class keeps its
    old name, from when a helper built frames, so its test ids stay stable."""

    def test_three_atoms(self):
        frame = Frame(["long", "low", "next-to"])
        assert len(frame) == 3
        assert frame == ("long", "low", "next-to")

    def test_minimal(self):
        assert len(Frame(["a"])) == 1

    def test_duplicate(self):
        with pytest.raises(DuplicateAtomError):
            Frame(["a", "a"])

    def test_too_many(self):
        with pytest.raises(TooManyAtomsError):
            Frame([f"a{i}" for i in range(17)])

    def test_empty_name(self):
        with pytest.raises(EmptyNameError):
            Frame(["a", ""])

    def test_empty_frame(self):
        with pytest.raises(EmptyNameError):
            Frame([])

    @pytest.mark.parametrize("name", ["THETA", "a&b", "a|b", "!a", "a#b", "c d", "a\tb"])
    def test_name_clashing_with_the_clause_syntax(self, name):
        # such an atom would print as, or parse into, a different clause, or
        # be cut by the text formats' comments and field splitting
        with pytest.raises(ParseError,
                           match=f"atom {re.escape(repr(name))} clashes with the clause syntax"):
            Frame(["x", name])

    @pytest.mark.parametrize("atoms, name", [
        ([1, 2], "1"), ([0.0], "0.0"), (["a", "a", None], "None"), ([b"a"] * 17, "b'a'"),
    ], ids=["int", "float", "after-a-duplicate", "over-the-bound"])
    def test_non_string_atom(self, atoms, name):
        # checked before any other rule, so it is named whatever else is wrong
        with pytest.raises(ParseError, match=f"^atom {re.escape(name)} is not a string$"):
            Frame(atoms)


class TestClause:
    def test_contradictory_conjunction_rejected(self):
        frame = Frame(["a"])
        with pytest.raises(ContradictionError):
            conj(frame, "a", "!a")

    def test_empty_disjunction_rejected(self):
        frame = Frame(["a"])
        with pytest.raises(ContradictionError):
            Clause.disjunction(frame, [])

    def test_parse_roundtrip(self):
        frame = Frame(["a", "b", "c"])
        for text in ("a", "a&b", "!a&c", "a|b", "THETA"):
            assert str(Clause.parse(frame, text)) == text

    def test_parse_mixed_rejected(self):
        frame = Frame(["a", "b", "c"])
        with pytest.raises(ParseError):
            Clause.parse(frame, "a&b|c")

    def test_parse_negated_disjunction_rejected(self):
        frame = Frame(["a", "b"])
        with pytest.raises(ParseError):
            Clause.parse(frame, "!a|b")

    def test_parse_strips_spaces_around_literals(self):
        frame = Frame(["a", "b"])
        assert Clause.parse(frame, " a & !b ") == conj(frame, "a", "!b")
        assert Clause.parse(frame, "a | b") == Clause.disjunction(frame, ["a", "b"])

    @pytest.mark.parametrize("text, atom", [
        ("!", ""), ("!!a", "!a"), ("a&", ""), ("a&z", "z"), ("a|z", "z"), ("a|", ""),
    ], ids=["lone-not", "double-not", "trailing-and", "unknown", "unknown-in-or",
            "trailing-or"])
    def test_parse_unknown_atom_message(self, text, atom):
        with pytest.raises(UnknownAtomError) as info:
            Clause.parse(Frame(["a", "b"]), text)
        assert str(info.value) == f"atom {atom!r} not in frame ['a', 'b']"


frames = st.lists(st.text("abxyz-_0", min_size=1, max_size=3), min_size=1,
                  max_size=MAX_ATOMS, unique=True).map(Frame)


@st.composite
def clauses(draw, frame=None, kinds=(CONJUNCTION, DISJUNCTION)):
    """A clause over ``frame``, or over a frame of 1-16 drawn atom names: a
    consistent cube, theta among them, or a positive disjunction."""
    frame = draw(frames) if frame is None else frame
    full = (1 << len(frame)) - 1
    if draw(st.sampled_from(kinds)) == DISJUNCTION:
        return Clause(frame, DISJUNCTION, draw(st.integers(1, full)), 0)
    pos = draw(st.integers(0, full))
    return Clause(frame, CONJUNCTION, pos, draw(st.integers(0, full)) & ~pos)


def reference_text(c: Clause) -> str:
    """The text form built from the clause's literals."""
    if c.kind == CONJUNCTION and not c.pos | c.neg:
        return "THETA"
    return ("&" if c.kind == CONJUNCTION else "|").join(map(str, c.literals()))


class TestClauseText:
    @settings(max_examples=300, deadline=None)
    @given(clauses())
    def test_str_equals_literal_reference(self, c):
        assert str(c) == reference_text(c)

    @settings(max_examples=300, deadline=None)
    @given(clauses())
    def test_parse_inverts_str(self, c):
        # a one-atom disjunction prints as that atom, which reads back as the
        # one-atom cube of the same worlds
        if c.kind == DISJUNCTION and not c.pos & (c.pos - 1):
            c = Clause(c.frame, CONJUNCTION, c.pos, 0)
        assert Clause.parse(c.frame, str(c)) == c

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_mass_text_roundtrips(self, data):
        # masses in 64ths print exactly at 12 digits and sum to exactly 1
        frame = data.draw(frames)
        cubes = clauses(frame, (CONJUNCTION,)).filter(lambda c: c.pos | c.neg)
        weights = data.draw(st.dictionaries(cubes, st.integers(1, 8), max_size=7))
        focals = {c: w / 64 for c, w in weights.items()}
        focals[Clause.theta(frame)] = (64 - sum(weights.values())) / 64
        m = MassFunction(frame, focals)
        assert parse_mass_text(format_mass_text(m)) == m


_AB = Frame(["a", "b"])
_A_OR_B = Clause.disjunction(_AB, ["a", "b"])


@pytest.mark.parametrize("call, error", [
    (lambda: Clause(_AB, "xor", 1, 0), ParseError),
    (lambda: clause_subset(_A_OR_B, conj(_AB, "a")), ParseError),
    (lambda: clause_intersect(conj(_AB, "a"), _A_OR_B), ParseError),
    (lambda: MassFunction(_AB, {_A_OR_B: 1.0}), ParseError),
    (lambda: combine_all([]), InvalidParamsError),
], ids=["clause-kind", "subset-disjunction", "intersect-disjunction", "disjunction-focal",
        "combine-nothing"])
def test_invalid_api_input_raises_dsvision_error(call, error):
    with pytest.raises(DSVisionError) as info:
        call()
    assert type(info.value) is error


class TestSimpleSupport:
    def test_mass_split(self):
        frame = Frame(["long", "low", "next-to"])
        m = simple_support(frame, conj(frame, "long"), 0.6)
        assert m.mass(conj(frame, "long")) == pytest.approx(0.6)
        assert m.mass(Clause.theta(frame)) == pytest.approx(0.4)

    def test_zero_is_vacuous(self):
        frame = Frame(["a", "b"])
        m = simple_support(frame, conj(frame, "a", "b"), 0.0)
        assert m == vacuous(frame)

    def test_negative_literal_focal(self):
        frame = Frame(["window"])
        m = simple_support(frame, conj(frame, "!window"), 0.5)
        assert m.mass(conj(frame, "!window")) == pytest.approx(0.5)
        assert m.mass(Clause.theta(frame)) == pytest.approx(0.5)

    def test_belief_of_focal_equals_support(self):
        frame = Frame(["a", "b"])
        focal = conj(frame, "a")
        m = simple_support(frame, focal, 0.37)
        assert belief(m, focal) == pytest.approx(0.37)


class TestValidate:
    def test_vacuous_ok(self):
        frame = Frame(["a"])
        assert validate(vacuous(frame)) == []

    def test_shutter_knowledge_as_mass_ok(self, shutter_frame):
        m = MassFunction(shutter_frame, {
            conj(shutter_frame, "long"): 0.25,
            conj(shutter_frame, "low"): 0.15,
            conj(shutter_frame, "long", "low"): 0.15,
            conj(shutter_frame, "next-to"): 0.25,
            Clause.theta(shutter_frame): 0.2,
        })
        assert validate(m) == []

    def test_bad_sum_rejected_at_construction(self):
        frame = Frame(["long"])
        with pytest.raises(NormalizationError):
            MassFunction(frame, {conj(frame, "long"): 0.7})


class TestClauseSubset:
    def test_cube_in_smaller_cube(self, shutter_frame):
        a = conj(shutter_frame, "long", "low", "next-to")
        assert clause_subset(a, conj(shutter_frame, "long"))

    def test_theta_reflexive(self):
        frame = Frame(["a"])
        assert clause_subset(Clause.theta(frame), Clause.theta(frame))

    def test_theta_not_in_proper_clause(self):
        frame = Frame(["a", "b"])
        assert not clause_subset(Clause.theta(frame), conj(frame, "a"))

    def test_disjunction_membership(self):
        # world enumeration over 2 atoms: !lt & rt entails lt-or-rt
        frame = Frame(["lt-bound", "rt-bound"])
        a = conj(frame, "!lt-bound", "rt-bound")
        b = Clause.disjunction(frame, ["lt-bound", "rt-bound"])
        assert clause_subset(a, b)
        assert not clause_subset(conj(frame, "!lt-bound"), b)

    def test_frame_mismatch(self):
        a = conj(Frame(["a"]), "a")
        b = conj(Frame(["b"]), "b")
        with pytest.raises(FrameMismatchError):
            clause_subset(a, b)


class TestClauseIntersect:
    def test_disjoint_atoms_union(self, shutter_frame):
        c = clause_intersect(conj(shutter_frame, "long"), conj(shutter_frame, "low"))
        assert c == conj(shutter_frame, "long", "low")

    def test_opposite_polarities_empty(self):
        frame = Frame(["window"])
        c = clause_intersect(conj(frame, "window"), conj(frame, "!window"))
        assert c is None

    def test_theta_identity(self, shutter_frame):
        c = clause_intersect(Clause.theta(shutter_frame), conj(shutter_frame, "long"))
        assert c == conj(shutter_frame, "long")


class TestBelief:
    def test_theta_is_one(self, shutter_frame):
        m = simple_support(shutter_frame, conj(shutter_frame, "long"), 0.3)
        assert belief(m, Clause.theta(shutter_frame)) == pytest.approx(1.0)

    def test_accumulated_evidence_single_atom(self, shutter_frame):
        # expected value computed with the powerset oracle: the four cubes
        # containing the atom carry 0.21 + 0.21 + 0.09 + 0.09
        ms = [
            simple_support(shutter_frame, conj(shutter_frame, atom), s)
            for atom, s in (("long", 0.6), ("low", 0.7), ("next-to", 0.5))
        ]
        m = combine_all(ms).result
        assert belief(m, conj(shutter_frame, "long")) == pytest.approx(0.60)


class TestCombine:
    def test_vacuous_identity_exact(self, shutter_frame):
        m = MassFunction(shutter_frame, {
            conj(shutter_frame, "long"): 0.25,
            conj(shutter_frame, "low", "next-to"): 0.5,
            Clause.theta(shutter_frame): 0.25,
        })
        outcome = combine(m, vacuous(shutter_frame))
        assert outcome.conflict == 0.0
        assert outcome.result.focals == m.focals

    def test_three_support_product(self, shutter_frame):
        f = shutter_frame
        ms = [
            simple_support(f, conj(f, atom), s)
            for atom, s in (("long", 0.6), ("low", 0.7), ("next-to", 0.5))
        ]
        outcome = combine_all(ms)
        assert outcome.conflict == 0.0
        expected = {
            conj(f, "long", "low", "next-to"): 0.21,
            conj(f, "low", "next-to"): 0.14,
            conj(f, "long", "next-to"): 0.09,
            conj(f, "next-to"): 0.06,
            conj(f, "long", "low"): 0.21,
            conj(f, "low"): 0.14,
            conj(f, "long"): 0.09,
            Clause.theta(f): 0.06,
        }
        result = outcome.result
        assert set(result.focals) == set(expected)
        for clause, mass in expected.items():
            assert result.mass(clause) == pytest.approx(mass, abs=1e-9)

    def test_conflicting_window_evidence(self):
        # hand product: K = 0.335 * 0.5, then renormalize
        frame = Frame(["window"])
        w = simple_support(frame, conj(frame, "window"), 0.335)
        nw = simple_support(frame, conj(frame, "!window"), 0.5)
        outcome = combine(w, nw)
        assert outcome.conflict == pytest.approx(0.1675)
        assert outcome.result.mass(conj(frame, "window")) == pytest.approx(0.2012, abs=5e-5)
        assert outcome.result.mass(conj(frame, "!window")) == pytest.approx(0.3994, abs=5e-5)
        assert outcome.result.mass(Clause.theta(frame)) == pytest.approx(0.3994, abs=5e-5)

    def test_total_conflict_raises(self):
        frame = Frame(["a"])
        m1 = simple_support(frame, conj(frame, "a"), 1.0)
        m2 = simple_support(frame, conj(frame, "!a"), 1.0)
        with pytest.raises(TotalConflictError):
            combine(m1, m2)

    def test_high_but_partial_conflict_passes(self):
        frame = Frame(["a"])
        m1 = simple_support(frame, conj(frame, "a"), 0.999999)
        m2 = simple_support(frame, conj(frame, "!a"), 1.0)
        outcome = combine(m1, m2)
        assert outcome.conflict == pytest.approx(0.999999)

    def test_frame_mismatch(self):
        m1 = vacuous(Frame(["a"]))
        m2 = vacuous(Frame(["b"]))
        with pytest.raises(FrameMismatchError):
            combine(m1, m2)


class TestCombineAll:
    def test_singleton(self, shutter_frame):
        m = simple_support(shutter_frame, conj(shutter_frame, "long"), 0.4)
        outcome = combine_all([m])
        assert outcome.result == m
        assert outcome.conflict == 0.0

    def test_order_independent(self, shutter_frame):
        f = shutter_frame
        ms = [
            simple_support(f, conj(f, atom), s)
            for atom, s in (("long", 0.6), ("low", 0.7), ("next-to", 0.5))
        ]
        base = combine_all(ms).result
        for perm in ([1, 0, 2], [2, 1, 0], [1, 2, 0]):
            other = combine_all([ms[i] for i in perm]).result
            assert set(other.focals) == set(base.focals)
            for clause, mass in base.items():
                assert other.mass(clause) == pytest.approx(mass, abs=1e-9)

    def test_four_feature_product_focal_count(self):
        frame = Frame(["elong", "text", "lt-bound", "rt-bound"])
        ms = [
            simple_support(frame, conj(frame, atom), s)
            for atom, s in (("elong", 0.5), ("text", 0.4),
                            ("lt-bound", 0.6), ("rt-bound", 0.6))
        ]
        outcome = combine_all(ms)
        assert outcome.conflict == 0.0
        assert len(outcome.result) == 16

    def test_empty_rejected(self):
        with pytest.raises(InvalidParamsError):
            combine_all([])


def ref_combine(m1: MassFunction, m2: MassFunction) -> CombineOutcome:
    """Dempster's rule pair by pair through ``clause_intersect``, as
    ``combine`` ran before it worked on cube ints: its exact reference."""
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


def ref_belief(m: MassFunction, a: Clause) -> float:
    return math.fsum(mass for focal, mass in m.items() if clause_subset(focal, a))


def exact(m: MassFunction) -> list[tuple[Clause, str]]:
    """The focals in insertion order, each mass by its exact bits."""
    return [(c, mass.hex()) for c, mass in m.items()]


# up to 4 atoms, so that drawn cubes often hold opposite literals
small_frames = st.integers(1, 4).map(lambda n: Frame([f"a{i}" for i in range(n)]))


@st.composite
def mass_functions(draw, frame):
    """A mass function over ``frame`` of 1-8 drawn cubes, theta among them,
    with float masses normalized to sum to 1."""
    weights = draw(st.dictionaries(clauses(frame, (CONJUNCTION,)), st.floats(0.01, 1.0),
                                   min_size=1, max_size=8))
    total = sum(weights.values())
    return MassFunction(frame, {c: w / total for c, w in weights.items()})


class TestKernelMatchesReference:
    """``combine``, ``combine_all`` and ``belief`` give the reference's bits."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_combine(self, data):
        frame = data.draw(small_frames)
        m1, m2 = data.draw(mass_functions(frame)), data.draw(mass_functions(frame))
        try:
            want = ref_combine(m1, m2)
        except TotalConflictError:
            with pytest.raises(TotalConflictError):
                combine(m1, m2)
            return
        got = combine(m1, m2)
        assert exact(got.result) == exact(want.result)
        assert got.conflict.hex() == want.conflict.hex()

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_combine_all(self, data):
        frame = data.draw(small_frames)
        ms = data.draw(st.lists(mass_functions(frame), min_size=2, max_size=4))
        acc, survival = ms[0], 1.0
        try:
            for m in ms[1:]:
                acc, k = ref_combine(acc, m)
                survival *= 1.0 - k
        except TotalConflictError:
            with pytest.raises(TotalConflictError):
                combine_all(ms)
            return
        got = combine_all(ms)
        assert exact(got.result) == exact(acc)
        assert got.conflict.hex() == (1.0 - survival).hex()

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_belief(self, data):
        frame = data.draw(small_frames)
        m = data.draw(mass_functions(frame))
        a = data.draw(clauses(frame))
        assert belief(m, a).hex() == ref_belief(m, a).hex()


class TestMassText:
    def test_roundtrip(self, shutter_frame):
        m = MassFunction(shutter_frame, {
            conj(shutter_frame, "long", "low"): 0.15,
            conj(shutter_frame, "!next-to"): 0.25,
            Clause.theta(shutter_frame): 0.6,
        })
        parsed = parse_mass_text(format_mass_text(m))
        assert parsed == m

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.text("ab#!&| \t\n", min_size=1, max_size=3), min_size=1, max_size=4,
                    unique=True), st.data())
    def test_any_frame_roundtrips_or_is_rejected(self, names, data):
        """An atom name the text format cannot carry is rejected when the
        frame is made, never misread when the formatted text is parsed."""
        try:
            frame = Frame(names)
        except ParseError:
            return
        literals = [data.draw(st.sampled_from([atom, "!" + atom, ""])) for atom in frame]
        focal = Clause.conjunction(frame, filter(None, literals))
        m = simple_support(frame, focal, data.draw(st.sampled_from([0.25, 0.5, 1.0])))
        assert parse_mass_text(format_mass_text(m)) == m

    def test_parse_example(self):
        text = """
        frame long low next-to
        focal long&low 0.15   # conjunction focal
        focal THETA 0.85
        """
        m = parse_mass_text(text)
        assert m.mass(Clause.parse(m.frame, "long&low")) == pytest.approx(0.15)

    def test_missing_frame(self):
        with pytest.raises(ParseError):
            parse_mass_text("focal a 1.0")

    def test_bad_sum(self):
        with pytest.raises(NormalizationError):
            parse_mass_text("frame a\nfocal a 0.7\n")

    def test_nan_mass_rejected(self):
        # NaN fails every comparison, so it must not be dropped like a zero
        with pytest.raises(NormalizationError):
            parse_mass_text("frame a\nfocal a nan\nfocal THETA 1.0\n")


def test_normalization_invariant_after_combine(shutter_frame):
    f = shutter_frame
    ms = [
        simple_support(f, conj(f, atom), s)
        for atom, s in (("long", 0.6), ("low", 0.7), ("next-to", 0.5))
    ]
    result = combine_all(ms).result
    assert math.fsum(m for _, m in result.items()) == pytest.approx(1.0, abs=1e-9)
    assert validate(result) == []
