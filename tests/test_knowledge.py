import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_knowledge, random_mass, vacuous
from dsvision import stages
from dsvision.errors import (
    ContradictionError,
    DuplicateAtomError,
    FrameMismatchError,
    NegativeLiteralInKnowledgeError,
    NormalizationError,
    ParseError,
    UnknownAtomError,
)
from dsvision.evidence import (
    CONJUNCTION,
    DISJUNCTION,
    Clause,
    Frame,
    Literal,
    MassFunction,
    clause_subset,
    combine,
    combine_all,
    simple_support,
)
from dsvision.fixtures import SHUTTER_FRAME, shutter_evidence, shutter_knowledge
from dsvision.knowledge import KnowledgeSource, VerificationResult, parse_knowledge, verify
from dsvision.oracle import from_mass_function, oracle_verify
from dsvision.stages import (
    FEATURE_ATOMS,
    SIBLING_FRAME,
    sibling_knowledge,
    stage_b_belief,
    window_knowledge,
)

from test_evidence import mass_functions, small_frames
from test_oracle import knowledge_to_oracle


def to_simple_support(v, target, frame):
    """Re-inject a verified hypothesis as evidence for the next stage."""
    if target.kind != "and" or target.neg or bin(target.pos).count("1") != 1:
        raise UnknownAtomError("target must be a single positive atom")
    return simple_support(frame, target, v.bel)


def chimney_knowledge():
    return KnowledgeSource.build("chimney", SHUTTER_FRAME, (
        ("long", 0.25),
        ("next-to", 0.35),
        ("THETA", 0.4),
    ))


SHUTTER_TEXT = """
hypothesis shutter
frame long low next-to
focal long 0.25
focal low 0.15
focal long&low 0.15
focal next-to 0.25
focal THETA 0.2
"""

CHIMNEY_TEXT = """
# chimneys: elongated, not next to windows, texture unknown
hypothesis chimney
frame long low next-to
focal long 0.25
focal next-to 0.35
focal THETA 0.4
"""


def ref_verify(m_e: MassFunction, ks: KnowledgeSource) -> VerificationResult:
    """Verification pair by pair through ``clause_subset``, as ``verify``
    ran before it worked on masks: its exact reference."""
    if m_e.frame != ks.frame:
        raise FrameMismatchError("evidence and knowledge over different frames")
    terms = []
    for a, ma in m_e.items():
        for b, mb in ks.focals:
            if clause_subset(a, b):
                terms.append(ma * mb)
    return VerificationResult(ks.name, math.fsum(terms))


@st.composite
def knowledge_sources(draw, frame):
    """A knowledge source over ``frame`` holding a positive conjunction, a
    disjunction and 0-4 more drawn positive focals, with float masses."""
    full = (1 << len(frame)) - 1
    kinds = [CONJUNCTION, DISJUNCTION] + draw(st.lists(st.sampled_from(
        [CONJUNCTION, DISJUNCTION]), max_size=4))
    focals = [Clause(frame, kind, draw(st.integers(1, full)), 0) for kind in kinds]
    weights = draw(st.lists(st.floats(0.01, 1.0), min_size=len(focals), max_size=len(focals)))
    theta = draw(st.floats(0.0, 1.0))
    total = sum(weights) + theta
    return KnowledgeSource("drawn", frame, tuple((c, w / total) for c, w in zip(focals, weights)),
                           theta / total)


class TestVerify:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_equals_reference(self, data):
        frame = data.draw(small_frames)
        m_e, ks = data.draw(mass_functions(frame)), data.draw(knowledge_sources(frame))
        got, want = verify(m_e, ks), ref_verify(m_e, ks)
        assert got.hypothesis == want.hypothesis
        assert got.bel.hex() == want.bel.hex()

    def test_shutter_worked_example(self):
        result = verify(shutter_evidence(), shutter_knowledge())
        assert result.bel == pytest.approx(0.443, abs=5e-4)
        assert result.theta == pytest.approx(1.0 - result.bel)

    def test_window_feature_stage(self):
        frame = window_knowledge().frame
        ms = [
            simple_support(frame, Clause.parse(frame, atom), s)
            for atom, s in (("elong", 0.5), ("text", 0.4),
                            ("lt-bound", 0.6), ("rt-bound", 0.6))
        ]
        result = verify(combine_all(ms).result, window_knowledge())
        assert result.bel == pytest.approx(0.449, abs=1e-3)

    def test_vacuous_evidence(self):
        ks = shutter_knowledge()
        assert verify(vacuous(ks.frame), ks).bel == 0.0

    def test_frame_mismatch(self):
        with pytest.raises(FrameMismatchError):
            verify(vacuous(Frame(["x"])), shutter_knowledge())

    def test_bounded_by_committed_knowledge_mass(self):
        rng = random.Random(7)
        for _ in range(100):
            frame = Frame([f"a{i}" for i in range(rng.randint(1, 4))])
            m_e = random_mass(rng, frame)
            ks = random_knowledge(rng, frame)
            bel = verify(m_e, ks).bel
            assert bel <= 1.0 - ks.theta_mass + 1e-12

    def test_agrees_with_oracle_on_random_instances(self):
        rng = random.Random(99)
        for _ in range(200):
            frame = Frame([f"a{i}" for i in range(rng.randint(1, 4))])
            m_e = random_mass(rng, frame)
            ks = random_knowledge(rng, frame)
            assert verify(m_e, ks).bel == pytest.approx(
                oracle_verify(from_mass_function(m_e), knowledge_to_oracle(ks)),
                abs=1e-9)

    def test_monotone_in_support_mass(self):
        # positive single-atom supports, positive knowledge: more support
        # never lowers the verified belief
        frame = window_knowledge().frame
        base = (0.3, 0.4, 0.2, 0.5)

        def bel(supports):
            ms = [
                simple_support(frame, Clause.parse(frame, atom), s)
                for atom, s in zip(frame, supports)
            ]
            return verify(combine_all(ms).result, window_knowledge()).bel

        reference = bel(base)
        for i in range(4):
            bumped = list(base)
            bumped[i] = min(1.0, bumped[i] + 0.2)
            assert bel(tuple(bumped)) >= reference - 1e-12


class TestBoundDisjunction:
    def test_w9_entry_requires_disjunction_reading(self):
        # 0.075 + 0.08 + 0.35 * (1 - 0.4*0.7) = 0.407; the conjunction
        # reading of the bound focal would give 0.281 for equal 0.6 sides
        frame = window_knowledge().frame
        ms = [
            simple_support(frame, Clause.parse(frame, atom), s)
            for atom, s in (("elong", 0.5), ("text", 0.4),
                            ("lt-bound", 0.6), ("rt-bound", 0.3))
        ]
        result = verify(combine_all(ms).result, window_knowledge())
        assert result.bel == pytest.approx(0.407, abs=1e-3)


class TestSiblingStage:
    def test_closed_form(self):
        # bel = 0.4 w + 0.2 v + 0.2 h + 0.2 v h
        rng = random.Random(3)
        for _ in range(50):
            w, v, h = rng.random(), rng.random(), rng.random()
            expected = 0.4 * w + 0.2 * v + 0.2 * h + 0.2 * v * h
            assert stage_b_belief(w, v, h) == pytest.approx(expected, abs=1e-9)

    def test_zero_theta_mass_allowed(self):
        ks = sibling_knowledge()
        assert ks.theta_mass == 0.0
        w = simple_support(SIBLING_FRAME, Clause.parse(SIBLING_FRAME, "window"), 1.0)
        v = simple_support(SIBLING_FRAME, Clause.parse(SIBLING_FRAME, "v-sibl"), 1.0)
        h = simple_support(SIBLING_FRAME, Clause.parse(SIBLING_FRAME, "h-sibl"), 1.0)
        assert verify(combine_all([w, v, h]).result, ks).bel == pytest.approx(1.0)


class TestToSimpleSupport:
    def test_reinjection(self):
        result = verify(shutter_evidence(), shutter_knowledge())
        frame = Frame(["shutter", "chimney"])
        m = to_simple_support(result, Clause.parse(frame, "shutter"), frame)
        assert m.mass(Clause.parse(frame, "shutter")) == pytest.approx(result.bel)
        assert m.mass(Clause.theta(frame)) == pytest.approx(1.0 - result.bel)

    def test_stage_chaining_area_4(self):
        # a stage-A belief of .335 with no siblings verifies to .134
        assert stage_b_belief(0.335, 0.0, 0.0) == pytest.approx(0.134, abs=1e-9)


class TestParseKnowledge:
    def test_shutter_file(self):
        ks = parse_knowledge(SHUTTER_TEXT)
        assert ks.name == "shutter"
        assert ks.theta_mass == pytest.approx(0.2)
        assert len(ks.focals) == 4
        result = verify(shutter_evidence(), ks)
        assert result.bel == pytest.approx(0.443, abs=5e-4)

    def test_chimney_file(self):
        ks = parse_knowledge(CHIMNEY_TEXT)
        assert len(ks.focals) == 2
        assert ks.theta_mass == pytest.approx(0.4)
        builtin = chimney_knowledge()
        assert dict(ks.focals) == dict(builtin.focals)

    def test_bad_sum(self):
        text = "hypothesis h\nframe a\nfocal a 0.5\nfocal THETA 0.4\n"
        with pytest.raises(NormalizationError):
            parse_knowledge(text)

    @pytest.mark.parametrize("text", [
        "hypothesis h\nframe a b\nfocal a nan\nfocal b 0.5\nfocal THETA 0.5\n",
        "hypothesis h\nframe a\nfocal a 1.0\nfocal THETA nan\n",
        "hypothesis h\nframe a b\nfocal a inf\nfocal b -inf\nfocal THETA 1.0\n",
    ], ids=["nan-focal", "nan-theta", "inf-minus-inf"])
    def test_non_finite_mass_rejected(self, text):
        with pytest.raises(NormalizationError):
            parse_knowledge(text)

    def test_negative_literal_rejected(self):
        text = "hypothesis h\nframe a\nfocal !a 0.5\nfocal THETA 0.5\n"
        with pytest.raises(NegativeLiteralInKnowledgeError):
            parse_knowledge(text)

    def test_negative_literal_named_in_frame_order(self):
        # the knowledge source names the parsed clause, not the file's text
        text = "hypothesis h\nframe a b\nfocal b&!a 0.5\nfocal THETA 0.5\n"
        with pytest.raises(NegativeLiteralInKnowledgeError, match="^negative literal in !a&b$"):
            parse_knowledge(text)

    @pytest.mark.parametrize("text, message", [
        ("hypothesis w\nframe a b\nframe c d\nfocal THETA 1\n", "line 3: frame declared twice"),
        ("hypothesis w\n# v\nhypothesis v\nframe a\nfocal THETA 1\n",
         "line 3: hypothesis declared twice"),
    ], ids=["frame", "hypothesis"])
    def test_directive_declared_twice(self, text, message):
        with pytest.raises(ParseError, match=f"^{message}$"):
            parse_knowledge(text)

    def test_duplicate_focals_stay_separate_terms(self):
        """``a&b`` and ``b&a`` are the same focal, read as two terms as
        written, and the THETA lines are added in file order: verification
        gives the bits of the source built by hand, not of one that merges
        the two lines."""
        text = ("hypothesis h\nframe a b c\nfocal a&b 0.1\nfocal c 0.3\nfocal b&a 0.3\n"
                "focal THETA 0.1\nfocal THETA 0.2\n")
        frame = Frame("abc")
        ab, c = Clause.parse(frame, "a&b"), Clause.parse(frame, "c")
        by_hand = KnowledgeSource("h", frame, ((ab, 0.1), (c, 0.3), (ab, 0.3)), 0.1 + 0.2)
        merged = KnowledgeSource("h", frame, ((ab, 0.1 + 0.3), (c, 0.3)), 0.1 + 0.2)
        ks = parse_knowledge(text)
        assert ks == by_hand
        differs = 0
        for seed in range(50):
            m_e = random_mass(random.Random(seed), frame, allow_negative=False)
            assert verify(m_e, ks).bel.hex() == verify(m_e, by_hand).bel.hex()
            differs += verify(m_e, ks).bel != verify(m_e, merged).bel
        assert differs > 0


class TestRecords:
    """The evidence core's records are immutable values: set no field, are
    equal and hash equal when built alike, and validate when built directly."""

    def test_fields_cannot_be_set(self):
        frame = Frame("ab")
        a = Clause.parse(frame, "a")
        m = simple_support(frame, a, 0.6)
        ks = KnowledgeSource.build("h", frame, [("a|b", 0.7), ("THETA", 0.3)])
        records = [(Literal("a"), "positive"), (a, "pos"),
                   (combine(m, m), "conflict"), (ks, "theta_mass"), (verify(m, ks), "bel")]
        for record, field in records:
            for name in (field, "extra"):
                with pytest.raises(AttributeError):
                    setattr(record, name, getattr(record, field))
        # a frame is the tuple of its atoms, with no field of its own
        with pytest.raises(TypeError):
            frame[0] = "b"
        with pytest.raises(AttributeError):
            frame.extra = "b"

    def test_equal_sources_share_a_stage_cache_entry(self):
        text = (f"hypothesis window\nframe {' '.join(FEATURE_ATOMS)}\n"
                "focal elong&text 0.6\nfocal THETA 0.4\n")
        first, second = parse_knowledge(text), parse_knowledge(text)
        assert first is not second
        assert first == second and hash(first) == hash(second)
        stages._stage.cache_clear()
        assert stages._stage(first, FEATURE_ATOMS) is stages._stage(second, FEATURE_ATOMS)
        assert stages._stage.cache_info().currsize == 1

    def test_direct_construction_validates(self):
        with pytest.raises(DuplicateAtomError, match="^duplicate atom 'a'$"):
            Frame(("a", "a"))
        frame = Frame("ab")
        with pytest.raises(ContradictionError, match="both polarities"):
            Clause(frame, CONJUNCTION, 1, 1)
        with pytest.raises(NormalizationError, match=r"^mass nan on a outside \(0, 1\]$"):
            KnowledgeSource("h", frame, ((Clause.parse(frame, "a"), float("nan")),), 0.5)
