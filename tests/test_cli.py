import numpy as np
import pytest

from dsvision.cli import build_parser, main
from dsvision.fixtures import synthetic_facade
from dsvision.netpbm import write_pgm

MASS_A = """frame window v-sibl h-sibl
focal window 0.5
focal THETA 0.5
"""

MASS_B = """frame window v-sibl h-sibl
focal v-sibl 0.4
focal THETA 0.6
"""

SHUTTER_KNOWLEDGE = """hypothesis shutter
frame long low next-to
focal long 0.25
focal low 0.15
focal long&low 0.15
focal next-to 0.25
focal THETA 0.2
"""

SHUTTER_EVIDENCE = """frame long low next-to
focal long&low&next-to 0.21
focal low&next-to 0.14
focal long&next-to 0.09
focal next-to 0.06
focal long&low 0.21
focal low 0.14
focal long 0.09
focal THETA 0.06
"""


@pytest.fixture
def facade_pgm(tmp_path):
    path = tmp_path / "facade.pgm"
    write_pgm(synthetic_facade().image, str(path))
    return str(path)


class TestParser:
    def test_reuse_keeps_help_errors_and_results(self, capsys):
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(["--help"])
            assert exc.value.code == 0
            assert capsys.readouterr().out == build_parser().format_help()
            with pytest.raises(SystemExit) as exc:
                main(["pipeline", "img.pgm", "--threshold", "high"])
            assert exc.value.code == 2
            assert "argument --threshold: invalid float value: 'high'" in capsys.readouterr().err
            assert main(["shutter"]) == 0
            assert capsys.readouterr().out == "Bel(shutter) = 0.443\nBel(THETA) = 0.557\n"


class TestCombine:
    def test_two_files(self, tmp_path, capsys):
        a = tmp_path / "a.mass"
        b = tmp_path / "b.mass"
        a.write_text(MASS_A)
        b.write_text(MASS_B)
        assert main(["combine", str(a), str(b)]) == 0
        out = capsys.readouterr().out
        assert "window&v-sibl 0.2" in out
        assert "# conflict K = 0.000000" in out

    def test_missing_file(self, tmp_path, capsys):
        assert main(["combine", str(tmp_path / "nope.mass")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_mass_sum(self, tmp_path, capsys):
        path = tmp_path / "bad.mass"
        path.write_text("frame a\nfocal a 0.5\nfocal THETA 0.2\n")
        assert main(["combine", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_nan_mass(self, tmp_path, capsys):
        path = tmp_path / "nan.mass"
        path.write_text("frame a\nfocal a nan\nfocal THETA 1.0\n")
        assert main(["combine", str(path)]) == 2
        assert "error:" in capsys.readouterr().err


class TestVerify:
    def test_worked_example(self, tmp_path, capsys):
        ev = tmp_path / "ev.mass"
        ks = tmp_path / "ks.know"
        ev.write_text(SHUTTER_EVIDENCE)
        ks.write_text(SHUTTER_KNOWLEDGE)
        assert main(["verify", "--evidence", str(ev), "--knowledge", str(ks)]) == 0
        out = capsys.readouterr().out
        assert "Bel(shutter) = 0.443" in out

    def test_vacuous_evidence(self, tmp_path, capsys):
        ev = tmp_path / "ev.mass"
        ks = tmp_path / "ks.know"
        ev.write_text("frame long low next-to\nfocal THETA 1.0\n")
        ks.write_text(SHUTTER_KNOWLEDGE)
        assert main(["verify", "--evidence", str(ev), "--knowledge", str(ks)]) == 0
        assert "Bel(shutter) = 0.000" in capsys.readouterr().out

    def test_nan_knowledge_mass(self, tmp_path, capsys):
        ev = tmp_path / "ev.mass"
        ks = tmp_path / "ks.know"
        ev.write_text(SHUTTER_EVIDENCE)
        ks.write_text(SHUTTER_KNOWLEDGE.replace("focal low 0.15", "focal low nan"))
        assert main(["verify", "--evidence", str(ev), "--knowledge", str(ks)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error:" in captured.err

    def test_output_file(self, tmp_path):
        ev = tmp_path / "ev.mass"
        ks = tmp_path / "ks.know"
        out = tmp_path / "result.txt"
        ev.write_text(SHUTTER_EVIDENCE)
        ks.write_text(SHUTTER_KNOWLEDGE)
        assert main(["verify", "--evidence", str(ev), "--knowledge", str(ks),
                     "--out", str(out)]) == 0
        assert "0.443" in out.read_text()


class TestShutter:
    def test_prints_belief_pair(self, capsys):
        assert main(["shutter"]) == 0
        out = capsys.readouterr().out
        assert "Bel(shutter) = 0.443" in out
        assert "Bel(THETA) = 0.557" in out


class TestAreas:
    def test_all_rows_present(self, capsys):
        assert main(["areas"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 14  # header + 13 areas
        labels = {line.split("\t")[0] for line in lines[1:]}
        assert "W1-6" in labels and "4" in labels

    def test_known_entries(self, capsys):
        main(["areas"])
        rows = {line.split("\t")[0]: line.split("\t")
                for line in capsys.readouterr().out.splitlines()[1:]}
        assert rows["W1-6"][5] == "0.449"
        assert rows["W1-6"][8] == "0.492"
        assert rows["4"][10] == "0.080"


class TestPipeline:
    def test_facade_report(self, facade_pgm, capsys):
        assert main(["pipeline", facade_pgm]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("id\t")
        assert len(lines) >= 13  # 12 windows and the decoy survive

    def test_overlay_and_out(self, facade_pgm, tmp_path):
        report = tmp_path / "report.tsv"
        overlay = tmp_path / "overlay.ppm"
        assert main(["pipeline", facade_pgm, "--out", str(report),
                     "--overlay", str(overlay)]) == 0
        assert report.read_text().startswith("id\t")
        assert overlay.read_bytes().startswith(b"P6\n128 128\n255\n")

    def test_threshold_override(self, facade_pgm, capsys):
        assert main(["pipeline", facade_pgm, "--threshold", "0.99"]) == 0
        lines = capsys.readouterr().out.splitlines()
        # nothing survives, so sibling and final beliefs collapse to stage A
        for line in lines[1:]:
            fields = line.split("\t")
            assert fields[6] == "0.000" and fields[7] == "0.000"

    def test_config_file(self, facade_pgm, tmp_path, capsys):
        cfg = tmp_path / "pipeline.cfg"
        cfg.write_text("edge_threshold = 10000\n")
        assert main(["pipeline", facade_pgm, "--config", str(cfg)]) == 0
        assert capsys.readouterr().out.splitlines()[1:] == []

    @pytest.mark.parametrize("text", [
        "workers = 4\n", "edge_threshold = nan\n", "pair_min_sep = 60\npair_max_sep = 40\n",
    ], ids=["workers", "nan-threshold", "min-above-max-sep"])
    def test_bad_config_file(self, facade_pgm, tmp_path, capsys, text):
        cfg = tmp_path / "pipeline.cfg"
        cfg.write_text(text)
        assert main(["pipeline", facade_pgm, "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_nan_threshold(self, facade_pgm, capsys):
        assert main(["pipeline", facade_pgm, "--threshold", "nan"]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_knowledge_files(self, facade_pgm, tmp_path, capsys):
        window = tmp_path / "window.know"
        window.write_text("hypothesis window\n"
                          "frame elong text lt-bound rt-bound\n"
                          "focal elong 0.15\nfocal text 0.20\n"
                          "focal lt-bound|rt-bound 0.35\nfocal THETA 0.30\n")
        sibling = tmp_path / "sibling.know"
        sibling.write_text("hypothesis window\n"
                           "frame window v-sibl h-sibl\n"
                           "focal window 0.4\nfocal v-sibl 0.2\n"
                           "focal h-sibl 0.2\nfocal v-sibl&h-sibl 0.2\n")
        baseline_code = main(["pipeline", facade_pgm])
        out_a = capsys.readouterr().out
        assert baseline_code == 0
        assert main(["pipeline", facade_pgm, "--knowledge", str(window),
                     "--knowledge", str(sibling)]) == 0
        assert capsys.readouterr().out == out_a

    @pytest.mark.parametrize("text, message", [
        ("P2\n8 8\n255\n99999999999999999999999" + " 0" * 63 + "\n",
         "sample outside [0, maxval]"),
        ("P2\n0 0\n255\n", "side 0 must be a power of two >= 8"),
    ], ids=["sample-beyond-int64", "empty"])
    def test_bad_p2_image(self, tmp_path, capsys, text, message):
        path = tmp_path / "bad.pgm"
        path.write_text(text)
        assert main(["pipeline", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_missing_image(self, tmp_path, capsys):
        assert main(["pipeline", str(tmp_path / "none.pgm")]) == 2
        assert "error:" in capsys.readouterr().err
