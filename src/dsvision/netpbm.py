"""Minimal netpbm reader/writer: PGM (P2/P5) in, PGM/PPM (P5/P6) out."""

from __future__ import annotations

import numpy as np

from .errors import CorruptHeaderError, TruncatedDataError, UnsupportedFormatError

_P2_BYTES = b"0123456789 \t\n\r\x0b\x0c"


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


def _p2_samples(body: bytes) -> np.ndarray:
    """The samples of a P2 body: ASCII digit runs separated by whitespace.

    Any other byte, anywhere in the body, is an error, so a sign, a digit
    separator, a comment or trailing text never reaches the parse.  The
    whitespace bytes are those of ``bytes.split()``.
    """
    if body.translate(None, _P2_BYTES):
        raise TruncatedDataError("non-numeric sample in P2 data")
    if not body or body.isspace():
        # fromstring reads a whitespace-only string as one phantom 0
        return np.empty(0, dtype=np.int64)
    return np.fromstring(body, dtype=np.int64, sep=" ")


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
        pixels, unit = np.frombuffer(data, dtype=np.uint8, offset=offset), "pixels"
    else:
        pixels, unit = _p2_samples(data[offset:]), "samples"
    if pixels.size < width * height:
        raise TruncatedDataError(f"expected {width * height} {unit}, got {pixels.size}")
    pixels = pixels[:width * height]
    # a P5 byte is at most 255; a P2 token has no sign, and one beyond int64
    # saturates to its maximum, so only the top of the range can be broken
    if pixels.size and (magic == b"P2" or maxval < 255) and pixels.max() > maxval:
        raise TruncatedDataError("sample outside [0, maxval]")
    return pixels.astype(np.uint8, copy=False).reshape(height, width)


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
