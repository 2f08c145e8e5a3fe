"""Minimal netpbm reader/writer: PGM (P2/P5) in, PGM/PPM (P5/P6) out."""

from __future__ import annotations

import numpy as np

from .errors import CorruptHeaderError, TruncatedDataError, UnsupportedFormatError


def _tokenize_header(data: bytes, count: int) -> tuple[list[int], int]:
    """Read `count` whitespace-separated integer tokens, skipping comments.
    Returns the tokens and the offset just past the single whitespace byte
    that terminates the header."""
    tokens: list[int] = []
    i = 0
    while len(tokens) < count:
        if i >= len(data):
            raise CorruptHeaderError("header ended early")
        ch = data[i:i + 1]
        if ch == b"#":
            while i < len(data) and data[i:i + 1] != b"\n":
                i += 1
        elif ch.isspace():
            i += 1
        else:
            j = i
            while j < len(data) and not data[j:j + 1].isspace() and data[j:j + 1] != b"#":
                j += 1
            token = data[i:j]
            if not token.isdigit():
                raise CorruptHeaderError(f"bad header token {token!r}")
            tokens.append(int(token))
            i = j
    if i >= len(data) or not data[i:i + 1].isspace():
        raise CorruptHeaderError("missing whitespace after header")
    return tokens, i + 1


def read_pgm(path: str) -> np.ndarray:
    """Read a binary (P5) or ASCII (P2) PGM with maxval <= 255."""
    with open(path, "rb") as fh:
        data = fh.read()
    magic = data[:2]
    if magic not in (b"P2", b"P5"):
        raise UnsupportedFormatError(f"not a PGM file (magic {magic!r})")
    (width, height, maxval), offset = _tokenize_header(data[2:], 3)
    if maxval > 255:
        raise UnsupportedFormatError(f"maxval {maxval} > 255 unsupported")
    if maxval <= 0:
        raise CorruptHeaderError(f"bad maxval {maxval}")
    offset += 2
    if magic == b"P5":
        pixels = np.frombuffer(data, dtype=np.uint8, offset=offset)
        if pixels.size < width * height:
            raise TruncatedDataError(
                f"expected {width * height} pixels, got {pixels.size}")
        pixels = pixels[:width * height]
    else:
        fields = data[offset:].split()
        if len(fields) < width * height:
            raise TruncatedDataError(
                f"expected {width * height} samples, got {len(fields)}")
        try:
            pixels = np.fromiter(map(int, fields[:width * height]), dtype=np.int64,
                                 count=width * height)
        except ValueError:
            raise TruncatedDataError("non-numeric sample in P2 data") from None
        except OverflowError:
            raise TruncatedDataError("sample outside [0, maxval]") from None
        if pixels.size and (pixels.min() < 0 or pixels.max() > maxval):
            raise TruncatedDataError("sample outside [0, maxval]")
        pixels = pixels.astype(np.uint8)
    return pixels.reshape(height, width)


def write_pgm(image: np.ndarray, path: str) -> None:
    image = np.asarray(image)
    clipped = np.clip(np.rint(image), 0, 255).astype(np.uint8)
    height, width = clipped.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{width} {height}\n255\n".encode("ascii"))
        fh.write(clipped.tobytes())


def write_ppm(rgb: np.ndarray, path: str) -> None:
    rgb = np.asarray(rgb)
    clipped = np.clip(np.rint(rgb), 0, 255).astype(np.uint8)
    height, width, _ = clipped.shape
    with open(path, "wb") as fh:
        fh.write(f"P6\n{width} {height}\n255\n".encode("ascii"))
        fh.write(clipped.tobytes())
