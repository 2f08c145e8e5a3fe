import functools
import operator
import random
import re

import pytest

from conftest import all_cubes, all_disjunctions, random_cube, random_mass, vacuous
from dsvision.errors import TotalConflictError
from dsvision.evidence import (
    CONJUNCTION,
    Clause,
    Frame,
    belief,
    clause_intersect,
    clause_subset,
    combine,
    combine_all,
    simple_support,
)
from dsvision.oracle import (
    OracleMass,
    WorldSet,
    atom_worlds,
    from_mass_function,
    oracle_belief,
    oracle_combine,
    oracle_verify,
    theta_worlds,
    to_worlds,
)


def popcount(mask: int) -> int:
    return bin(mask).count("1")


class TestToWorlds:
    def test_full_cube_single_world(self):
        frame = Frame(["a", "b"])
        ws = to_worlds(frame, Clause.conjunction(frame, ["a", "b"]))
        assert popcount(ws.members) == 1
        assert ws.members == 1 << 0b11

    def test_disjunction_three_worlds(self):
        frame = Frame(["a", "b"])
        ws = to_worlds(frame, Clause.disjunction(frame, ["a", "b"]))
        assert popcount(ws.members) == 3
        assert not ws.members & 1  # world 00 excluded

    def test_negation(self):
        frame = Frame(["a"])
        ws = to_worlds(frame, Clause.conjunction(frame, ["!a"]))
        assert ws.members == 0b01

    def test_theta(self):
        frame = Frame(["a", "b", "c"])
        assert to_worlds(frame, Clause.theta(frame)) == theta_worlds(frame)

    def test_every_clause_matches_its_literals_world_sets(self):
        # the reference reads each literal off the clause text: the
        # intersection of their world sets for a cube, the union for a
        # disjunction
        frame = Frame(["a", "b", "c", "d"])
        for c in all_cubes(frame) + all_disjunctions(frame):
            sets = [atom_worlds(frame, lit.lstrip("!"), not lit.startswith("!"))
                    for lit in re.split(r"[&|]", str(c)) if lit != "THETA"]
            if c.kind == CONJUNCTION:
                want = functools.reduce(operator.and_, sets, theta_worlds(frame))
            else:
                want = WorldSet(frame, functools.reduce(operator.or_, [w.members for w in sets]))
            assert to_worlds(frame, c) == want, str(c)


class TestOracleCombine:
    def test_vacuous_identity(self):
        frame = Frame(["a", "b"])
        m = from_mass_function(simple_support(frame, Clause.parse(frame, "a"), 0.4))
        combined, k = oracle_combine(m, from_mass_function(vacuous(frame)))
        assert k == 0.0
        assert {ws: mass for ws, mass in combined.items()} == dict(m.items())

    def test_three_supports_match_fast_path(self, shutter_frame):
        f = shutter_frame
        ms = [
            simple_support(f, Clause.parse(f, atom), s)
            for atom, s in (("long", 0.6), ("low", 0.7), ("next-to", 0.5))
        ]
        fast = combine_all(ms).result
        acc, total_k = from_mass_function(ms[0]), 0.0
        for m in ms[1:]:
            acc, k = oracle_combine(acc, from_mass_function(m))
            total_k += k
        assert total_k == 0.0
        fast_lifted = from_mass_function(fast)
        for ws, mass in fast_lifted.items():
            assert acc.mass(ws) == pytest.approx(mass, abs=1e-9)
        assert len(acc) == len(fast_lifted)

    def test_disjoint_world_sets_total_conflict(self):
        frame = Frame(["a"])
        m1 = from_mass_function(simple_support(frame, Clause.parse(frame, "a"), 1.0))
        m2 = from_mass_function(simple_support(frame, Clause.parse(frame, "!a"), 1.0))
        with pytest.raises(TotalConflictError):
            oracle_combine(m1, m2)


class TestOracleBelief:
    def test_theta_is_one(self, shutter_frame):
        m = from_mass_function(
            simple_support(shutter_frame, Clause.parse(shutter_frame, "long"), 0.25))
        assert oracle_belief(m, theta_worlds(shutter_frame)) == pytest.approx(1.0)

    def test_accumulated_long_belief(self, shutter_frame):
        f = shutter_frame
        ms = [
            simple_support(f, Clause.parse(f, atom), s)
            for atom, s in (("long", 0.6), ("low", 0.7), ("next-to", 0.5))
        ]
        m = from_mass_function(combine_all(ms).result)
        assert oracle_belief(m, to_worlds(f, Clause.parse(f, "long"))) == pytest.approx(0.60)

    def test_vacuous_commits_nothing(self):
        frame = Frame(["a", "b"])
        m = from_mass_function(vacuous(frame))
        proper = to_worlds(frame, Clause.parse(frame, "a"))
        assert oracle_belief(m, proper) == 0.0


class TestOracleVerify:
    def test_vacuous_evidence_zero(self, shutter_frame):
        from dsvision.fixtures import shutter_knowledge
        ks = shutter_knowledge()
        m_e = from_mass_function(vacuous(ks.frame))
        m_s = knowledge_to_oracle(ks)
        assert oracle_verify(m_e, m_s) == 0.0

    def test_shutter_example(self):
        from dsvision.fixtures import shutter_evidence, shutter_knowledge
        m_e = from_mass_function(shutter_evidence())
        m_s = knowledge_to_oracle(shutter_knowledge())
        assert oracle_verify(m_e, m_s) == pytest.approx(0.44, abs=0.005)


def knowledge_to_oracle(ks) -> OracleMass:
    focals = {}
    for clause, mass in ks.focals:
        ws = to_worlds(ks.frame, clause)
        focals[ws] = focals.get(ws, 0.0) + mass
    if ks.theta_mass > 0:
        theta = theta_worlds(ks.frame)
        focals[theta] = focals.get(theta, 0.0) + ks.theta_mass
    return OracleMass(ks.frame, focals)


class TestExhaustiveAgreement:
    """Cube algebra vs explicit world sets, over every clause pair."""

    @pytest.mark.parametrize("n_atoms", [1, 2, 3])
    def test_subset_and_intersect_agree(self, n_atoms):
        frame = Frame([f"a{i}" for i in range(n_atoms)])
        cubes = all_cubes(frame)
        targets = cubes + all_disjunctions(frame)
        for a in cubes:
            wa = to_worlds(frame, a)
            for b in targets:
                wb = to_worlds(frame, b)
                assert clause_subset(a, b) == wa.issubset(wb), f"{a} vs {b}"
            for b in cubes:
                wb = to_worlds(frame, b)
                c = clause_intersect(a, b)
                expected = wa & wb
                if c is None:
                    assert expected.is_empty, f"{a} & {b}"
                else:
                    assert to_worlds(frame, c) == expected, f"{a} & {b}"


def test_randomized_combine_and_belief_agreement():
    rng = random.Random(20240817)
    for _ in range(200):
        frame = Frame([f"a{i}" for i in range(rng.randint(1, 4))])
        m1 = random_mass(rng, frame)
        m2 = random_mass(rng, frame)
        try:
            fast = combine(m1, m2)
        except TotalConflictError:
            with pytest.raises(TotalConflictError):
                oracle_combine(from_mass_function(m1), from_mass_function(m2))
            continue
        slow, k = oracle_combine(from_mass_function(m1), from_mass_function(m2))
        assert k == pytest.approx(fast.conflict, abs=1e-9)
        lifted = from_mass_function(fast.result)
        assert len(lifted) == len(slow)
        for ws, mass in lifted.items():
            assert slow.mass(ws) == pytest.approx(mass, abs=1e-9)
        probe = random_cube(rng, frame)
        assert belief(fast.result, probe) == pytest.approx(
            oracle_belief(lifted, to_worlds(frame, probe)), abs=1e-9)
