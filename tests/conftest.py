import random

import numpy as np
import pytest

from dsvision.evidence import Clause, Frame, MassFunction
from dsvision.knowledge import KnowledgeSource
from dsvision.netpbm import to_uint8


# sha256 of the bundled facade's report and overlay bytes, recorded at the seed
# commit; any change to them is a change in the program's output
FACADE_REPORT_SHA256 = "283de6c321f7952440be8b810b3ae98159aeb588f784b43178480176835c389a"
FACADE_OVERLAY_SHA256 = "b8c491670581174753aec4551c133eb5215f5916af0951eafe73b423f652cea2"


@pytest.fixture
def shutter_frame() -> Frame:
    return Frame(["long", "low", "next-to"])


def vacuous(frame: Frame) -> MassFunction:
    """All mass on theta: the identity of Dempster's rule."""
    return MassFunction(frame, {Clause.theta(frame): 1.0})


def write_p5(image: np.ndarray, path: str) -> None:
    """A binary PGM of the image, its pixels rounded and clipped to 0..255."""
    image = to_uint8(image)
    height, width = image.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{width} {height}\n255\n".encode("ascii"))
        fh.write(image.tobytes())


def random_cube(rng: random.Random, frame: Frame, allow_negative: bool = True) -> Clause:
    literals = []
    for atom in frame:
        roll = rng.random()
        if roll < 1 / 3:
            literals.append(atom)
        elif allow_negative and roll < 1 / 2:
            literals.append("!" + atom)
    return Clause.conjunction(frame, literals)


def random_mass(rng: random.Random, frame: Frame, max_focals: int = 5,
                allow_negative: bool = True) -> MassFunction:
    n_focals = rng.randint(1, max_focals)
    focals = {}
    for _ in range(n_focals):
        focals.setdefault(random_cube(rng, frame, allow_negative), rng.random() + 0.05)
    total = sum(focals.values())
    return MassFunction(frame, {c: m / total for c, m in focals.items()})


def random_knowledge(rng: random.Random, frame: Frame, max_focals: int = 4) -> KnowledgeSource:
    focals = {}
    for _ in range(rng.randint(1, max_focals)):
        if rng.random() < 0.3:
            atoms = [a for a in frame if rng.random() < 0.6]
            if not atoms:
                atoms = [rng.choice(frame)]
            clause = Clause.disjunction(frame, atoms)
        else:
            atoms = [a for a in frame if rng.random() < 0.5]
            if not atoms:
                atoms = [rng.choice(frame)]
            clause = Clause.conjunction(frame, atoms)
        focals.setdefault(clause, rng.random() + 0.05)
    theta = rng.random() * 0.5
    total = sum(focals.values()) + theta
    return KnowledgeSource(
        "random", frame,
        tuple((c, m / total) for c, m in focals.items()),
        theta / total)


def all_cubes(frame: Frame) -> list[Clause]:
    """Every conjunction clause over the frame (each atom absent, positive
    or negated)."""
    cubes = []
    n = len(frame)
    for assignment in range(3 ** n):
        literals = []
        rest = assignment
        for atom in frame:
            rest, state = divmod(rest, 3)
            if state == 1:
                literals.append(atom)
            elif state == 2:
                literals.append("!" + atom)
        cubes.append(Clause.conjunction(frame, literals))
    return cubes


def all_disjunctions(frame: Frame) -> list[Clause]:
    n = len(frame)
    out = []
    for mask in range(1, 1 << n):
        atoms = [a for i, a in enumerate(frame) if mask >> i & 1]
        out.append(Clause.disjunction(frame, atoms))
    return out
