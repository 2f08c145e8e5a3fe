import numpy as np
import pytest

from dsvision.errors import CorruptHeaderError, TruncatedDataError, UnsupportedFormatError
from dsvision.fixtures import synthetic_facade
from dsvision.netpbm import read_pgm, write_pgm, write_ppm
from dsvision.pyramid import CandidateArea, Rect
from dsvision.report import ReportRow, format_report, write_overlay


class TestReadPgm:
    def test_p5_roundtrip(self, tmp_path):
        rng = np.random.default_rng(11)
        image = rng.integers(0, 256, size=(128, 128), dtype=np.uint8)
        path = tmp_path / "img.pgm"
        write_pgm(image, str(path))
        assert np.array_equal(read_pgm(str(path)), image)

    def test_p2_equals_p5(self, tmp_path):
        image = np.arange(64, dtype=np.uint8).reshape(8, 8)
        p5 = tmp_path / "a.pgm"
        write_pgm(image, str(p5))
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

    def test_corrupt_header(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P5\n4 x\n255\n" + bytes(16))
        with pytest.raises(CorruptHeaderError):
            read_pgm(str(path))


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

    def test_deterministic_bytes(self, tmp_path):
        fx = synthetic_facade()
        from dsvision.pyramid import run_pipeline
        result = run_pipeline(fx.image)
        a, b = tmp_path / "a.ppm", tmp_path / "b.ppm"
        write_overlay(fx.image, result.candidates, str(a))
        write_overlay(fx.image, result.candidates, str(b))
        assert a.read_bytes() == b.read_bytes()
