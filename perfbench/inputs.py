"""Seeded input generators, one per workload.

Each generator takes the workload seed, writes its inputs as files into a
work directory and returns the list of inputs the ops cycle through.  The
program only ever sees these files.  The same seed gives the same files.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

FACADE_INPUTS = 24      # one in four of them is a 512x512 ASCII P2 upsample
NOISE_INPUTS = 24
EVIDENCE_INPUTS = 256

_SALT = {"facades": 1, "noise": 2, "evidence": 3}


@dataclass(frozen=True)
class ImageInput:
    path: str
    source: np.ndarray | None = None   # the 128x128 image a 512 input upsamples
    bundled: bool = False


@dataclass(frozen=True)
class EvidenceInput:
    mass_paths: tuple[str, ...]
    knowledge_path: str


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, _SALT[workload]])


def _to_u8(image: np.ndarray) -> np.ndarray:
    return np.clip(np.rint(image), 0, 255).astype(np.uint8)


def write_p5(image: np.ndarray, path: str) -> None:
    height, width = image.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{width} {height}\n255\n".encode("ascii"))
        fh.write(image.astype(np.uint8).tobytes())


def write_p2(image: np.ndarray, path: str) -> None:
    height, width = image.shape
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"P2\n{width} {height}\n255\n")
        for row in image.astype(np.uint8):
            fh.write(" ".join(map(str, row.tolist())) + "\n")


def _facade(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """A 128x128 building front: a rows x cols grid of dark windows of one
    seeded size, with per-window contrast jitter and Gaussian sensor noise."""
    wall = rng.uniform(150, 230)
    image = np.full((128, 128), wall)
    margin = int(rng.integers(4, 12))
    pitch_h, pitch_w = (128 - 2 * margin) // rows, (128 - 2 * margin) // cols
    height = int(rng.integers(max(6, pitch_h // 2), max(7, pitch_h - 3)))
    width = int(rng.integers(max(6, pitch_w // 2), max(7, pitch_w - 3)))
    contrast = rng.uniform(60, 170)
    for r in range(rows):
        for c in range(cols):
            top, left = margin + r * pitch_h, margin + c * pitch_w
            image[top:top + height, left:left + width] = wall - contrast * rng.uniform(0.8, 1.0)
    image += rng.normal(0.0, rng.uniform(0.0, 8.0), image.shape)
    return _to_u8(image)


def make_facades(seed: int, workdir: str) -> list[ImageInput]:
    """Input 0 is the bundled synthetic facade; the rest are seeded facades.
    Every fourth input is a 4x upsample of its facade, written as ASCII P2.

    Grid sizes follow a fixed schedule over 3-8 rows and 3-8 columns, the
    same for every seed, because the window count sets the cost of an op;
    the seed draws everything else."""
    from dsvision import fixtures

    rng = _rng("facades", seed)
    inputs = []
    for i in range(FACADE_INPUTS):
        path = os.path.join(workdir, f"facade{i:02d}")
        rows, cols = 3 + i % 6, 3 + (i // 6 + i) % 6
        if i == 0:
            write_p5(_to_u8(fixtures.synthetic_facade().image), path + ".pgm")
            inputs.append(ImageInput(path + ".pgm", bundled=True))
        elif i % 4 == 3:
            source = _facade(rng, rows, cols)
            write_p2(np.kron(source, np.ones((4, 4), dtype=np.uint8)), path + ".p2.pgm")
            inputs.append(ImageInput(path + ".p2.pgm", source=source))
        else:
            write_p5(_facade(rng, rows, cols), path + ".pgm")
            inputs.append(ImageInput(path + ".pgm"))
    return inputs


def _box_blur(image: np.ndarray, radius: int) -> np.ndarray:
    """Mean over a (2r+1)^2 window, wrapping at the edges, by running sums."""
    k = 2 * radius + 1
    padded = np.pad(image, radius, mode="wrap")
    c = np.cumsum(np.pad(padded, ((1, 0), (0, 0))), axis=0)
    image = (c[k:] - c[:-k]) / k
    c = np.cumsum(np.pad(image, ((0, 0), (1, 0))), axis=1)
    return (c[:, k:] - c[:, :-k]) / k


def make_noise(seed: int, workdir: str) -> list[ImageInput]:
    """128x128 textures alternating white and box-blurred Gaussian noise.

    Amplitudes are stratified on a log scale over a fixed schedule, so that
    every seed spans micro-edge densities from facade-like (about one pixel
    in ten) to nearly every interior pixel; the seed draws the position in
    each stratum and the noise itself."""
    rng = _rng("noise", seed)
    inputs = []
    half = NOISE_INPUTS // 2
    for i in range(NOISE_INPUTS):
        stratum = (i // 2 + rng.uniform()) / half
        if i % 2 == 0:
            radius, lo, hi = 0, 4.0, 64.0
        else:
            radius = 1 + (i // 2) % 3
            lo, hi = 8.0 * 2 ** (radius - 1), 64.0 * radius
        texture = rng.normal(0.0, lo * (hi / lo) ** stratum, (128, 128))
        if radius:
            texture = _box_blur(texture, radius)
        path = os.path.join(workdir, f"noise{i:02d}.pgm")
        write_p5(_to_u8(128.0 + texture), path)
        inputs.append(ImageInput(path))
    return inputs


def _millionths(rng: np.random.Generator, parts: int, total: int) -> list[int]:
    """``parts`` positive integers summing to ``total``, so the masses
    written as k/1e6 sum to exactly 1 in decimal."""
    while True:
        cuts = np.unique(rng.integers(1, total, size=parts - 1))
        if cuts.size == parts - 1:
            return np.diff(np.concatenate(([0], cuts, [total]))).tolist()


def _mass_text(rng: np.random.Generator, atoms: list[str], focals: int) -> str:
    """``focals - 1`` random cubes of 1-3 literals plus 10-40% on THETA, so
    no combination can reach total conflict."""
    cubes: set[str] = set()
    while len(cubes) < focals - 1:
        picked = sorted(rng.choice(len(atoms), size=int(rng.integers(1, 4)), replace=False))
        cubes.add("&".join(("!" if rng.random() < 0.3 else "") + atoms[i] for i in picked))
    theta = int(rng.integers(100_000, 400_001))
    masses = _millionths(rng, focals - 1, 1_000_000 - theta)
    lines = ["frame " + " ".join(atoms)]
    lines += [f"focal {cube} {m / 1e6:.6f}" for cube, m in zip(sorted(cubes), masses)]
    lines.append(f"focal THETA {theta / 1e6:.6f}")
    return "\n".join(lines) + "\n"


def _knowledge_text(rng: np.random.Generator, atoms: list[str]) -> str:
    """3-5 positive focals, conjunctions of 1-2 atoms or disjunctions of
    2-3, plus a THETA residual."""
    focals: set[str] = set()
    target = int(rng.integers(3, 6))
    while len(focals) < target:
        if rng.random() < 0.5:
            picked = sorted(rng.choice(len(atoms), size=int(rng.integers(1, 3)), replace=False))
            focals.add("&".join(atoms[i] for i in picked))
        else:
            picked = sorted(rng.choice(len(atoms), size=int(rng.integers(2, 4)), replace=False))
            focals.add("|".join(atoms[i] for i in picked))
    masses = _millionths(rng, target + 1, 1_000_000)
    lines = ["hypothesis target", "frame " + " ".join(atoms)]
    lines += [f"focal {f} {m / 1e6:.6f}" for f, m in zip(sorted(focals), masses)]
    lines.append(f"focal THETA {masses[-1] / 1e6:.6f}")
    return "\n".join(lines) + "\n"


def make_evidence(seed: int, workdir: str) -> list[EvidenceInput]:
    """Per input: 3-4 mass files of 4-7 focals over one 6-8 atom frame, and
    a knowledge file over the same frame.  The atom, file and focal counts
    follow a fixed schedule, the same for every seed, because they set the
    cost of a combination; the seed draws the clauses and masses."""
    rng = _rng("evidence", seed)
    inputs = []
    for i in range(EVIDENCE_INPUTS):
        atoms = [f"f{j}" for j in range(6 + i % 3)]
        paths = []
        for j in range(3 + (i // 3) % 2):
            paths.append(os.path.join(workdir, f"ev{i:03d}_{j}.mass"))
            with open(paths[-1], "w", encoding="utf-8") as fh:
                fh.write(_mass_text(rng, atoms, 4 + (i // 6 + j) % 4))
        know = os.path.join(workdir, f"ev{i:03d}.know")
        with open(know, "w", encoding="utf-8") as fh:
            fh.write(_knowledge_text(rng, atoms))
        inputs.append(EvidenceInput(tuple(paths), know))
    return inputs
