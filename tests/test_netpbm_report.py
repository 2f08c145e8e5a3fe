import os
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import write_p5
from dsvision import netpbm
from dsvision.errors import CorruptHeaderError, TruncatedDataError, UnsupportedFormatError
from dsvision.fixtures import synthetic_facade
from dsvision.netpbm import _tokenize_header, read_pgm, write_ppm
from dsvision.pyramid import CandidateArea, Rect
from dsvision.report import (COLUMNS, HUE_MID, HUE_STRONG, HUE_WEAK, ReportRow, format_report,
                             write_overlay)


WHITESPACE = b" \t\n\r\x0b\x0c"


def ref_p2_pixels(body: bytes, width: int, height: int, maxval: int) -> np.ndarray:
    """The reference P2 sample parse: ``bytes.split()`` and one ``int()``
    per needed sample, the rest of the body unread."""
    fields = body.split()
    if len(fields) < width * height:
        raise TruncatedDataError(f"expected {width * height} samples, got {len(fields)}")
    try:
        pixels = np.fromiter(map(int, fields[:width * height]), dtype=np.int64,
                             count=width * height)
    except ValueError:
        raise TruncatedDataError("non-numeric sample in P2 data") from None
    except OverflowError:
        raise TruncatedDataError("sample outside [0, maxval]") from None
    if pixels.size and (pixels.min() < 0 or pixels.max() > maxval):
        raise TruncatedDataError("sample outside [0, maxval]")
    return pixels.astype(np.uint8).reshape(height, width)


def ref_tokenize_header(data: bytes, count: int) -> tuple[list[int], int]:
    """The reference header walk, one byte slice at a time: `count` integer
    tokens, skipping whitespace and `#` comments up to a newline, and the
    offset just past the one whitespace byte that ends the header."""
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


def header_outcome(tokenize, data, count):
    try:
        return tokenize(data, count)
    except CorruptHeaderError as exc:
        return str(exc)


# header pieces, joined with no separator: digit runs, other tokens, comments
# with and without their newline, each whitespace byte and any single byte
header_pieces = st.one_of(
    st.text("0123456789", min_size=1, max_size=4).map(str.encode),
    st.sampled_from([b"x", b"-1", b"+", b"\xb2", b"\x1c", b"\x00", b"255#c\n", b"1_0"]),
    st.builds(lambda text, end: b"#" + text + end,
              st.binary(max_size=6), st.sampled_from([b"", b"\n"])),
    st.sampled_from([bytes([b]) for b in WHITESPACE]),
    st.binary(min_size=1, max_size=1),
)


def write_p2(path, width, height, maxval, body: bytes) -> str:
    path.write_bytes(f"P2\n{width} {height}\n{maxval}\n".encode() + body)
    return str(path)


def outcome(read):
    """The array a reader returns, or the class and message it raises."""
    try:
        return read()
    except TruncatedDataError as exc:
        return type(exc), str(exc)


def assert_reads_as_reference(path, width, height, maxval, body):
    got = outcome(lambda: read_pgm(path))
    want = outcome(lambda: ref_p2_pixels(body, width, height, maxval))
    if isinstance(want, np.ndarray):
        assert isinstance(got, np.ndarray) and got.dtype == np.uint8
        assert np.array_equal(got, want)
    else:
        assert got == want


gaps = st.lists(st.sampled_from([bytes([b]) for b in WHITESPACE]),
                min_size=1, max_size=3).map(b"".join)


@st.composite
def p2_files(draw):
    """A P2 size and maxval with a body of 0 to size + 3 digit tokens, most
    near the size, joined and wrapped by runs of the six whitespace bytes.
    The tokens are in range with leading zeros, or in half the bodies a
    mix of those and runs of 1-25 digits."""
    width, height = draw(st.integers(1, 5)), draw(st.integers(0, 5))
    maxval = draw(st.integers(1, 255))
    in_range = st.builds(lambda zeros, v: b"0" * zeros + str(v).encode(),
                         st.integers(0, 3), st.integers(0, maxval))
    digits = st.text("0123456789", min_size=1, max_size=25).map(str.encode)
    n = width * height
    count = draw(st.one_of(st.integers(0, n + 3), st.integers(max(n - 1, 0), n + 2)))
    pick = st.one_of(in_range, digits) if draw(st.booleans()) else in_range
    tokens = draw(st.lists(pick, min_size=count, max_size=count))
    body = b"".join(draw(gaps) + token for token in tokens)
    if draw(st.booleans()):
        body = body.lstrip()
    if draw(st.booleans()):
        body += draw(gaps)
    return width, height, maxval, body


class TestReadPgm:
    def test_p5_roundtrip(self, tmp_path):
        rng = np.random.default_rng(11)
        image = rng.integers(0, 256, size=(128, 128), dtype=np.uint8)
        path = tmp_path / "img.pgm"
        write_p5(image, str(path))
        assert np.array_equal(read_pgm(str(path)), image)

    def test_p2_equals_p5(self, tmp_path):
        image = np.arange(64, dtype=np.uint8).reshape(8, 8)
        p5 = tmp_path / "a.pgm"
        write_p5(image, str(p5))
        rows = [" ".join(str(v) for v in row) for row in image]
        p2 = tmp_path / "b.pgm"
        p2.write_text("P2\n# comment\n8 8\n255\n" + "\n".join(rows) + "\n")
        assert np.array_equal(read_pgm(str(p2)), read_pgm(str(p5)))

    def test_16bit_rejected(self, tmp_path):
        path = tmp_path / "deep.pgm"
        path.write_bytes(b"P5\n2 2\n65535\n" + bytes(8))
        with pytest.raises(UnsupportedFormatError):
            read_pgm(str(path))

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "img.ppm"
        path.write_bytes(b"P6\n1 1\n255\n\x00\x00\x00")
        with pytest.raises(UnsupportedFormatError):
            read_pgm(str(path))

    def test_truncated_data(self, tmp_path):
        path = tmp_path / "short.pgm"
        path.write_bytes(b"P5\n4 4\n255\n" + bytes(7))
        with pytest.raises(TruncatedDataError):
            read_pgm(str(path))

    @pytest.mark.parametrize("sample", ["256", "-1", "99999999999999999999999", "x7"])
    def test_p2_bad_sample(self, tmp_path, sample):
        path = tmp_path / "bad.pgm"
        path.write_text(f"P2\n2 2\n255\n0 {sample} 0 0\n")
        with pytest.raises(TruncatedDataError):
            read_pgm(str(path))

    @settings(max_examples=300, deadline=None)
    @given(p2_files())
    def test_p2_equals_reference(self, tmp_path_factory, case):
        path = write_p2(tmp_path_factory.mktemp("p2") / "img.pgm", *case)
        assert_reads_as_reference(path, *case)

    @settings(max_examples=300, deadline=None)
    @given(p2_files(), st.integers(1, 8))
    def test_p2_equals_reference_in_small_blocks(self, tmp_path_factory, case, block):
        # blocks of 1-8 bytes: every token and gap meets a block edge
        path = write_p2(tmp_path_factory.mktemp("p2") / "img.pgm", *case)
        with mock.patch.object(netpbm, "_BLOCK", block):
            assert_reads_as_reference(path, *case)

    @settings(max_examples=200, deadline=None)
    @given(p2_files(), st.sampled_from(list(b"+-_#xZ")), st.data())
    def test_p2_foreign_byte_rejected(self, tmp_path_factory, case, byte, data):
        width, height, maxval, body = case
        at = data.draw(st.integers(0, len(body)))
        body = body[:at] + bytes([byte]) + body[at:]
        path = write_p2(tmp_path_factory.mktemp("p2") / "img.pgm", width, height, maxval, body)
        with pytest.raises(TruncatedDataError):
            read_pgm(path)

    @settings(max_examples=200, deadline=None)
    @given(p2_files(), st.sampled_from(list(b"+-_#xZ")), st.data(), st.integers(1, 8))
    def test_p2_foreign_byte_rejected_in_small_blocks(self, tmp_path_factory, case, byte, data,
                                                      block):
        width, height, maxval, body = case
        at = data.draw(st.integers(0, len(body)))
        body = body[:at] + bytes([byte]) + body[at:]
        path = write_p2(tmp_path_factory.mktemp("p2") / "img.pgm", width, height, maxval, body)
        with mock.patch.object(netpbm, "_BLOCK", block):
            with pytest.raises(TruncatedDataError, match="non-numeric sample in P2 data"):
                read_pgm(path)

    @pytest.mark.parametrize("case, error", [
        ("valid", None),
        ("beyond_int64", r"sample outside \[0, maxval\]"),
        ("short", "expected 262144 samples, got 262139"),
        ("foreign", "non-numeric sample in P2 data")])
    def test_p2_512_body_on_real_block_edges(self, tmp_path, case, error):
        # a 512x512 body of ~2 MB: every third token has leading zeros up
        # to 4-30 digits, gaps are runs of the six whitespace bytes, and
        # tokens beyond int64 follow the last sample
        rng = np.random.default_rng(9)
        n = 512 * 512
        tokens = [str(v).encode() for v in rng.integers(0, 256, n)]
        for i, width in zip(range(0, n, 3), rng.integers(4, 31, n)):
            tokens[i] = tokens[i].rjust(width, b"0")
        tokens += [b"9" * 25, b"18446744073709551616", b"0" * 40]
        if case == "beyond_int64":
            tokens[n - 1000] = b"9223372036854775808"
        elif case == "short":
            del tokens[n - 5:]
        elif case == "foreign":
            tokens[n // 2] += b"-"
        runs = [bytes(rng.choice(list(WHITESPACE), rng.integers(1, 4)).tolist())
                for _ in range(64)]
        body = b"".join(runs[i] + token for i, token in zip(rng.integers(0, 64, len(tokens)),
                                                             tokens))
        path = write_p2(tmp_path / "img.pgm", 512, 512, 255, body)
        blocks = []

        def spy(data, lo, hi):
            blocks.append((data, hi))
            return block_values(data, lo, hi)

        block_values = netpbm._block_values
        with mock.patch.object(netpbm, "_block_values", spy):
            assert_reads_as_reference(path, 512, 512, 255, body)
            if error is None:
                assert read_pgm(path).shape == (512, 512)
            else:
                with pytest.raises(TruncatedDataError, match=error):
                    read_pgm(path)
        # some block was cut short of a token of four digits or more
        assert any(data[hi:hi + 4].isdigit() for data, hi in blocks)

    @pytest.mark.parametrize("block", [1, 2, 3, 5, 8, netpbm._BLOCK])
    def test_p2_tokens_after_the_samples_ignored(self, tmp_path, block):
        # above maxval or beyond int64, in blocks that start past the samples
        body = b"1 2 3 300 300 " + b"300 99999999999999999999999 18446744073709551616 7 " * 4
        with mock.patch.object(netpbm, "_BLOCK", block):
            assert read_pgm(write_p2(tmp_path / "a.pgm", 2, 1, 255, body)).tolist() == [[1, 2]]

    def test_p2_peak_memory(self, tmp_path):
        # a 512x512 body of 0.94 MB: a body-sized int64 array alone would
        # take 2 MB, where the uint8 samples take 0.26 MB
        image = np.random.default_rng(3).integers(0, 256, (512, 512), dtype=np.uint8)
        rows = (" ".join(map(str, row)) for row in image.tolist())
        path = write_p2(tmp_path / "big.pgm", 512, 512, 255, "\n".join(rows).encode())
        tracemalloc.start()
        try:
            pixels = read_pgm(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(pixels, image)
        assert peak < 2 * 1024 * 1024

    def test_p2_from_a_pipe(self, tmp_path):
        # the file is read once, with no seek back to the body
        image = np.arange(64, dtype=np.uint8).reshape(8, 8)
        fifo = tmp_path / "img.pgm"
        os.mkfifo(fifo)
        data = b"P2\n8 8\n255\n" + " ".join(map(str, image.ravel().tolist())).encode()
        writer = threading.Thread(target=fifo.write_bytes, args=(data,), daemon=True)
        writer.start()
        try:
            pixels = read_pgm(str(fifo))
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive()
        assert np.array_equal(pixels, image)

    @pytest.mark.parametrize("body", [b"+5 1 2 3", b"1_0 1 2 3", b"1 2 3 4 end", b"1 2 3 4 # note",
                                      b"1 2 3 4 -5"])
    def test_p2_non_digit_anywhere_rejected(self, tmp_path, body):
        # int() took the first two, and the rest used to go unread
        with pytest.raises(TruncatedDataError, match="non-numeric sample in P2 data"):
            read_pgm(write_p2(tmp_path / "img.pgm", 2, 2, 255, body))

    @pytest.mark.parametrize("width, height", [(100_000_000_000, 100_000_000_000),
                                               (4000, 4000)])
    def test_p2_header_claims_more_than_the_body_holds(self, tmp_path, width, height):
        # a sample takes at least two bytes, so nothing the size of the
        # header's claim is allocated
        path = write_p2(tmp_path / "img.pgm", width, height, 255, b"1 2 3")
        tracemalloc.start()
        try:
            with pytest.raises(TruncatedDataError,
                               match=f"expected {width * height} samples, got 3"):
                read_pgm(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1024 * 1024

    @pytest.mark.parametrize("body", [b"", b" ", b"\t\n\r\x0b\x0c "])
    def test_p2_blank_body_has_no_samples(self, tmp_path, body):
        assert read_pgm(write_p2(tmp_path / "a.pgm", 0, 0, 255, body)).shape == (0, 0)
        with pytest.raises(TruncatedDataError, match="expected 1 samples, got 0"):
            read_pgm(write_p2(tmp_path / "b.pgm", 1, 1, 255, body))

    def test_p5_above_maxval_rejected(self, tmp_path):
        path = tmp_path / "img.pgm"
        path.write_bytes(b"P5\n2 2\n15\n" + bytes([0, 15, 3, 16]))
        with pytest.raises(TruncatedDataError, match=r"sample outside \[0, maxval\]"):
            read_pgm(str(path))
        path.write_bytes(b"P5\n2 2\n15\n" + bytes([0, 15, 3, 7]) + b"\xff")
        assert read_pgm(str(path)).tolist() == [[0, 15], [3, 7]]
        path.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 255, 3, 7]))
        assert read_pgm(str(path)).tolist() == [[0, 255], [3, 7]]

    def test_corrupt_header(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P5\n4 x\n255\n" + bytes(16))
        with pytest.raises(CorruptHeaderError):
            read_pgm(str(path))

    @pytest.mark.parametrize("magic", [b"P2", b"P5"])
    def test_token_run_into_the_magic_rejected(self, tmp_path, magic):
        path = tmp_path / "img.pgm"
        body = b"7 " if magic == b"P2" else b"\x07"
        for header in (b"1 1 255\n", b"55 1 255\n", b"x 1 1 255\n"):
            path.write_bytes(magic + header + body)
            with pytest.raises(CorruptHeaderError, match="no whitespace after magic"):
                read_pgm(str(path))
        for separator in (b" ", b"\t", b"\n", b"#c\n", b"\r\n# c\n "):
            path.write_bytes(magic + separator + b"1 1 255\n" + body)
            assert read_pgm(str(path)).tolist() == [[7]]

    @pytest.mark.parametrize("ascii_", [False, True], ids=["P5", "P2"])
    def test_image_writable_and_its_own(self, tmp_path, ascii_):
        image = np.arange(64, dtype=np.uint8).reshape(8, 8)
        path = tmp_path / "img.pgm"
        if ascii_:
            path.write_text("P2\n8 8\n255\n" + " ".join(map(str, image.ravel())) + "\n")
        else:
            write_p5(image, str(path))
        pixels = read_pgm(str(path))
        assert pixels.flags.writeable
        pixels[0, 0] = 99
        assert np.array_equal(read_pgm(str(path)), image)

    @settings(max_examples=400, deadline=None)
    @given(st.lists(header_pieces, max_size=12).map(b"".join), st.integers(1, 4))
    def test_header_tokens_match_reference_walk(self, data, count):
        assert (header_outcome(_tokenize_header, data, count)
                == header_outcome(ref_tokenize_header, data, count))

    @pytest.mark.parametrize("data", [b"255#c\n", b"8 8 255", b"8 8 255\x1c", b"8 8\n# c",
                                      b"8#a#b\n8\x0b255\x0c", b"8 8 25x5\n"])
    def test_header_edge_cases_match_reference_walk(self, data):
        assert (header_outcome(_tokenize_header, data, 3)
                == header_outcome(ref_tokenize_header, data, 3))

    @pytest.mark.parametrize("filler", [b"#" + b"# c" * 400_000 + b"\n", b" \t" * 500_000],
                             ids=["comment", "whitespace"])
    def test_megabyte_header_filler(self, tmp_path, filler):
        path = tmp_path / "long.pgm"
        image = np.arange(64, dtype=np.uint8).reshape(8, 8)
        path.write_bytes(b"P5\n8 " + filler + b"8\n255\n" + image.tobytes())
        assert np.array_equal(read_pgm(str(path)), image)


def ref_write_overlay(image, cands, path):
    """Reference: each outline painted in turn, lowest final belief first,
    over a float64 copy of the image."""
    gray = np.clip(np.rint(np.asarray(image, dtype=np.float64)), 0, 255)
    rgb = np.repeat(gray[:, :, None], 3, axis=2)
    for c in sorted(cands, key=lambda c: c.bel_c):
        r = c.rect
        color = HUE_STRONG if c.bel_c >= 0.4 else HUE_MID if c.bel_c >= 0.2 else HUE_WEAK
        rgb[r.top, r.left:r.right] = color
        rgb[r.bottom - 1, r.left:r.right] = color
        rgb[r.top:r.bottom, r.left] = color
        rgb[r.top:r.bottom, r.right - 1] = color
    write_ppm(rgb, path)


def make_row(rid, bel_c, bel_a=0.4):
    return ReportRow(rid, 0.5, 0.4, 0.6, 0.6, bel_a, 0.6, 0.6, bel_c, 0.0, bel_c)


class TestReport:
    def test_sorted_by_final_belief_then_id(self):
        rows = [make_row("2", 0.2), make_row("1", 0.2), make_row("3", 0.9)]
        text = format_report(rows)
        ids = [line.split("\t")[0] for line in text.splitlines()[1:]]
        assert ids == ["3", "1", "2"]

    def test_three_decimal_serialization(self):
        text = format_report([make_row("1", 1 / 3)])
        assert "0.333" in text

    def test_empty_is_header_only(self):
        content = format_report([])
        assert content.count("\n") == 1
        assert content.startswith("id\t")

    def test_fields_are_the_columns(self):
        # the row's fields and the TSV header are the one list of names
        assert ReportRow._fields == COLUMNS
        assert format_report([]) == "\t".join(ReportRow._fields) + "\n"
        assert make_row("1", 0.25).bel_wnd_c == 0.25


class TestOverlay:
    def test_zero_candidates_keeps_image(self, tmp_path):
        image = np.full((16, 16), 99.0)
        path = tmp_path / "overlay.ppm"
        write_overlay(image, [], str(path))
        data = path.read_bytes()
        assert data.startswith(b"P6\n16 16\n255\n")
        pixels = np.frombuffer(data[len(b"P6\n16 16\n255\n"):], dtype=np.uint8)
        assert np.all(pixels == 99)

    def test_single_candidate_outline(self, tmp_path):
        image = np.zeros((16, 16))
        c = CandidateArea(1, Rect(4, 4, 8, 8))
        c.bel_c = 0.5
        path = tmp_path / "overlay.ppm"
        write_overlay(image, [c], str(path))
        data = path.read_bytes()
        rgb = np.frombuffer(data[len(b"P6\n16 16\n255\n"):], dtype=np.uint8)
        rgb = rgb.reshape(16, 16, 3)
        assert tuple(rgb[4, 8]) == (0, 255, 0)       # top edge, strong hue
        assert tuple(rgb[8, 4]) == (0, 255, 0)       # left edge
        assert tuple(rgb[8, 8]) == (0, 0, 0)         # interior untouched

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(8, 24),
           st.lists(st.tuples(st.floats(0, 1), st.floats(0, 1), st.floats(0, 1), st.floats(0, 1),
                              st.sampled_from([0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.9])), max_size=12))
    def test_matches_reference_painting(self, tmp_path_factory, seed, side, specs):
        # rects that cross and share beliefs: the later candidate among equals
        # is painted last; pixels below 0, above 255 and at .5 rounding
        image = np.random.default_rng(seed).uniform(-20, 280, (side, side)).round(1)
        cands = []
        for i, (top, left, height, width, bel_c) in enumerate(specs, 1):
            top, left = int(top * (side - 1)), int(left * (side - 1))
            rect = Rect(top, left, 1 + int(height * (side - top - 1)),
                        1 + int(width * (side - left - 1)))
            c = CandidateArea(i, rect)
            c.bel_c = bel_c
            cands.append(c)
        work = tmp_path_factory.mktemp("overlay")
        write_overlay(image, cands, str(work / "a.ppm"))
        ref_write_overlay(image, cands, str(work / "b.ppm"))
        assert (work / "a.ppm").read_bytes() == (work / "b.ppm").read_bytes()

    def test_uint8_written_as_is(self, tmp_path):
        rgb = np.random.default_rng(3).integers(0, 256, size=(5, 7, 3)).astype(np.uint8)
        for name, pixels in (("plain", rgb), ("view", rgb[::-1, 1:])):
            a, b = tmp_path / f"{name}_u8.ppm", tmp_path / f"{name}_f64.ppm"
            write_ppm(pixels, str(a))
            write_ppm(pixels.astype(np.float64), str(b))
            assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "plain_u8.ppm").read_bytes().endswith(rgb.tobytes())

    def test_deterministic_bytes(self, tmp_path):
        fx = synthetic_facade()
        from dsvision.pyramid import run_pipeline
        result = run_pipeline(fx.image)
        a, b = tmp_path / "a.ppm", tmp_path / "b.ppm"
        write_overlay(fx.image, result.candidates, str(a))
        write_overlay(fx.image, result.candidates, str(b))
        assert a.read_bytes() == b.read_bytes()
