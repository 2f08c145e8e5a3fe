"""Seeded algebraic property checks over random mass functions."""

import math
import random

import pytest

from conftest import all_cubes, random_cube, random_mass, vacuous
from dsvision.evidence import (
    Clause,
    Frame,
    belief,
    clause_subset,
    combine,
    combine_all,
    simple_support,
)
from dsvision.errors import TotalConflictError


def frames():
    return [Frame([f"a{i}" for i in range(n)]) for n in (1, 2, 3, 4)]


class TestCombineAlgebra:
    def test_commutative(self):
        rng = random.Random(41)
        for frame in frames():
            for _ in range(50):
                m1 = random_mass(rng, frame)
                m2 = random_mass(rng, frame)
                try:
                    ab = combine(m1, m2)
                    ba = combine(m2, m1)
                except TotalConflictError:
                    continue
                assert ab.conflict == pytest.approx(ba.conflict, abs=1e-9)
                for c in set(ab.result.focals) | set(ba.result.focals):
                    assert ab.result.mass(c) == pytest.approx(ba.result.mass(c), abs=1e-9)

    def test_associative(self):
        rng = random.Random(42)
        for frame in frames():
            for _ in range(30):
                m1, m2, m3 = (random_mass(rng, frame) for _ in range(3))
                try:
                    left = combine(combine(m1, m2).result, m3).result
                    right = combine(m1, combine(m2, m3).result).result
                except TotalConflictError:
                    continue
                for c in set(left.focals) | set(right.focals):
                    assert left.mass(c) == pytest.approx(right.mass(c), abs=1e-9)

    def test_vacuous_is_identity(self):
        rng = random.Random(43)
        for frame in frames():
            for _ in range(30):
                m = random_mass(rng, frame)
                out = combine(m, vacuous(frame))
                assert out.conflict == 0.0
                for c in m.focals:
                    assert out.result.mass(c) == pytest.approx(m.mass(c), abs=1e-12)


class TestSimpleSupportProduct:
    def test_distinct_positive_supports(self):
        # with k single-atom supports on distinct atoms, the combined mass of
        # each conjunction is the product of picked s_i and skipped (1 - s_j)
        rng = random.Random(44)
        for frame in frames():
            n = len(frame)
            supports = [rng.random() * 0.9 + 0.05 for _ in range(n)]
            ms = [
                simple_support(frame, Clause.conjunction(frame, [atom]), s)
                for atom, s in zip(frame, supports)
            ]
            out = combine_all(ms)
            assert out.conflict == 0.0
            for mask in range(1 << n):
                picked = [a for i, a in enumerate(frame) if mask >> i & 1]
                expected = math.prod(
                    s if mask >> i & 1 else 1.0 - s
                    for i, s in enumerate(supports))
                assert out.result.mass(Clause.conjunction(frame, picked)) == \
                    pytest.approx(expected, abs=1e-9)

    def test_same_atom_supports_compose(self):
        frame = Frame(["a"])
        c = Clause.conjunction(frame, ["a"])
        out = combine(simple_support(frame, c, 0.3), simple_support(frame, c, 0.5))
        assert out.result.mass(c) == pytest.approx(1 - 0.7 * 0.5, abs=1e-12)


class TestBeliefMonotonicity:
    def test_monotone_under_clause_subset(self):
        rng = random.Random(45)
        for frame in frames()[:3]:
            cubes = all_cubes(frame)
            for _ in range(20):
                m = random_mass(rng, frame)
                for a in cubes:
                    for b in cubes:
                        if clause_subset(a, b):
                            assert belief(m, a) <= belief(m, b) + 1e-12

    def test_belief_of_theta_is_one(self):
        rng = random.Random(46)
        for frame in frames():
            for _ in range(20):
                m = random_mass(rng, frame)
                assert belief(m, Clause.theta(frame)) == pytest.approx(1.0, abs=1e-9)

    def test_belief_bounded_by_plausibility_complement(self):
        # Bel(a) + Bel(!a) <= 1 for every atom
        rng = random.Random(47)
        for frame in frames():
            for _ in range(30):
                m = random_mass(rng, frame)
                for atom in frame:
                    pos = belief(m, Clause.conjunction(frame, [atom]))
                    neg = belief(m, Clause.conjunction(frame, ["!" + atom]))
                    assert pos + neg <= 1.0 + 1e-9


class TestConflictAggregation:
    def test_fold_conflict_matches_survival_product(self):
        rng = random.Random(48)
        for frame in frames()[1:]:
            for _ in range(30):
                ms = [random_mass(rng, frame) for _ in range(3)]
                try:
                    folded = combine_all(ms)
                except TotalConflictError:
                    continue
                survival = 1.0
                acc = ms[0]
                ok = True
                for m in ms[1:]:
                    try:
                        step = combine(acc, m)
                    except TotalConflictError:
                        ok = False
                        break
                    survival *= 1.0 - step.conflict
                    acc = step.result
                if ok:
                    assert folded.conflict == pytest.approx(1.0 - survival, abs=1e-9)

    def test_opposite_certainties_conflict_totally(self):
        frame = Frame(["a"])
        yes = simple_support(frame, Clause.conjunction(frame, ["a"]), 1.0)
        no = simple_support(frame, Clause.conjunction(frame, ["!a"]), 1.0)
        with pytest.raises(TotalConflictError):
            combine(yes, no)

    def test_random_cube_pair_conflict_in_range(self):
        rng = random.Random(49)
        frame = Frame(["a", "b", "c"])
        for _ in range(100):
            s1 = rng.random() * 0.9
            s2 = rng.random() * 0.9
            out = combine(
                simple_support(frame, random_cube(rng, frame), s1),
                simple_support(frame, random_cube(rng, frame), s2))
            assert 0.0 <= out.conflict <= s1 * s2 + 1e-12
