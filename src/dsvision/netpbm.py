"""Minimal netpbm reader/writer: PGM (P2/P5) in, PPM (P6) out."""

from __future__ import annotations

import re

import numpy as np

from .errors import CorruptHeaderError, TruncatedDataError, UnsupportedFormatError

_BLOCK = 1 << 16   # bytes of P2 body decoded at once
_NON_DIGIT = re.compile(rb"[^0-9]")

# whitespace and comments, then the next token: both parts always match (a
# token is only empty at the end of the data), so the regex never backtracks
_HEADER_TOKEN = re.compile(rb"(?:[ \t\n\r\v\f]+|#[^\n]*)*([^ \t\n\r\v\f#]*)")


def _tokenize_header(data: bytes, count: int, start: int = 0) -> tuple[list[int], int]:
    """Read `count` whitespace-separated integer tokens from `start` on,
    skipping comments.  Returns the tokens and the offset just past the
    single whitespace byte that terminates the header."""
    tokens: list[int] = []
    i = start
    for _ in range(count):
        match = _HEADER_TOKEN.match(data, i)
        token, i = match[1], match.end()
        if not token:
            raise CorruptHeaderError("header ended early")
        if not token.isdigit():
            raise CorruptHeaderError(f"bad header token {token!r}")
        tokens.append(int(token))
    if not data[i:i + 1].isspace():
        raise CorruptHeaderError("missing whitespace after header")
    return tokens, i + 1


def _clamped(token: bytes) -> int:
    """A P2 token's value, or 1000 for any value above 999 (beyond every
    maxval), so that no token is too long to convert."""
    digits = token.lstrip(b"0")
    return int(digits or b"0") if len(digits) < 4 else 1000


def _block_values(data: bytes, lo: int, hi: int) -> np.ndarray:
    """The values of the tokens in ``data[lo:hi]``, clamped by `_clamped`.

    No token crosses an end of the block: ``data[lo - 1]`` or ``data[lo]``
    is a non-digit byte, and so is ``data[hi - 1]`` unless `hi` ends the
    data.  Any byte of the block other than a digit or one of the six
    whitespace bytes of ``bytes.split()`` is an error.
    """
    raw = np.frombuffer(data, np.uint8, hi - lo + 3, lo - 3)   # and the 3 bytes before it
    digit = raw - np.uint8(48)
    is_digit = digit < 10
    block = raw[3:]
    if (np.count_nonzero(is_digit[3:]) + np.count_nonzero(block == 32)
            + np.count_nonzero(block - np.uint8(9) < 5)) != hi - lo:
        raise TruncatedDataError("non-numeric sample in P2 data")
    digit *= is_digit
    ends = np.flatnonzero(is_digit[3:-1] > is_digit[4:])   # a digit, then a non-digit
    if is_digit[-1]:
        ends = np.append(ends, hi - lo - 1)
    # each token's last three digits: non-digits are 0, and a hundreds digit
    # counts only if the byte after it is a digit too
    value = (digit[1:-2] * is_digit[2:-1]) * np.uint16(100)
    value += digit[2:-1] * np.uint8(10) + digit[3:]
    values = value[ends]
    pairs = is_digit[1:] & is_digit[:-1]
    if (pairs[2:] & pairs[:-2]).any():   # a run of four digits or more
        long = np.flatnonzero((is_digit[:-3] & is_digit[1:-2] & is_digit[2:-1])[ends])
        tokens = data[lo:hi].split()
        values[long] = [_clamped(tokens[i]) for i in long]
    return values


def _p2_samples(data: bytes, start: int, size: int, maxval: int) -> np.ndarray:
    """The first `size` samples of the P2 body ``data[start:]``: ASCII digit
    runs separated by whitespace.

    The body is decoded in blocks, each ending just after the first
    non-digit byte at least `_BLOCK` bytes in, so no token spans two blocks
    and no array is larger than a few blocks (a token longer than a block
    makes a longer block).  Every token is counted, but only the first
    `size` are kept and checked against `maxval`.  A sample takes a digit
    and a separator, so no more are allocated than the body could hold.
    """
    samples = np.empty(min(size, (len(data) - start + 1) // 2), dtype=np.uint8)
    count = high = 0
    pos, end = start, len(data)
    while pos < end:
        match = _NON_DIGIT.search(data, pos + _BLOCK)
        stop = match.end() if match else end
        values = _block_values(data, pos, stop)
        pos = stop
        kept = values[:max(size - count, 0)]
        if kept.size:
            samples[count:count + kept.size] = kept
            high = max(high, int(kept.max()))
        count += values.size
    if count < size:
        raise TruncatedDataError(f"expected {size} samples, got {count}")
    if high > maxval:
        raise TruncatedDataError("sample outside [0, maxval]")
    return samples


def read_pgm(path: str) -> np.ndarray:
    """Read a binary (P5) or ASCII (P2) PGM with maxval <= 255."""
    with open(path, "rb") as fh:
        data = fh.read()
    magic = data[:2]
    if magic not in (b"P2", b"P5"):
        raise UnsupportedFormatError(f"not a PGM file (magic {magic!r})")
    # the magic number ends at whitespace or a comment, never at a token byte
    if data[2:3] and not (data[2:3].isspace() or data[2:3] == b"#"):
        raise CorruptHeaderError(f"no whitespace after magic {magic!r}")
    (width, height, maxval), offset = _tokenize_header(data, 3, 2)
    if maxval > 255:
        raise UnsupportedFormatError(f"maxval {maxval} > 255 unsupported")
    if maxval <= 0:
        raise CorruptHeaderError(f"bad maxval {maxval}")
    size = width * height
    if magic == b"P2":
        return _p2_samples(data, offset, size, maxval).reshape(height, width)
    pixels = np.frombuffer(data, dtype=np.uint8, offset=offset)
    if pixels.size < size:
        raise TruncatedDataError(f"expected {size} pixels, got {pixels.size}")
    # copied out of the file's bytes, as a view of them would be read-only
    pixels = pixels[:size].copy()
    # a P5 byte is at most 255, so only a lower maxval can be broken
    if size and maxval < 255 and pixels.max() > maxval:
        raise TruncatedDataError("sample outside [0, maxval]")
    return pixels.reshape(height, width)


def to_uint8(image: np.ndarray) -> np.ndarray:
    """Pixels rounded and clipped to 0..255; uint8 pixels as they are."""
    image = np.asarray(image)
    return image if image.dtype == np.uint8 else np.clip(np.rint(image), 0, 255).astype(np.uint8)


def write_ppm(rgb: np.ndarray, path: str) -> None:
    rgb = to_uint8(rgb)
    height, width, _ = rgb.shape
    with open(path, "wb") as fh:
        fh.write(f"P6\n{width} {height}\n255\n".encode("ascii"))
        fh.write(rgb.tobytes())
