import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dsvision
from conftest import write_p5
from dsvision import cli, pyramid
from dsvision.cli import build_parser, main
from dsvision.fixtures import synthetic_facade

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
    write_p5(synthetic_facade().image, str(path))
    return str(path)


class TestParser:
    def test_reuse_keeps_help_errors_and_results(self, capsys):
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(["--help"])
            assert exc.value.code == 0
            assert capsys.readouterr().out == build_parser().format_help()
            with pytest.raises(SystemExit) as exc:
                main(["pipeline", "img.pgm", "--threshold", "0.5"])
            assert exc.value.code == 2
            assert "unrecognized arguments: --threshold 0.5" in capsys.readouterr().err
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

    def test_disjunction_focal(self, tmp_path, capsys):
        path = tmp_path / "or.mass"
        path.write_text("frame a b\nfocal THETA 0.5\nfocal a|b 0.5\n")
        assert main(["combine", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: line 3: mass focal 'a|b' is a disjunction\n"

    def test_mass_sum_beyond_float_range(self, tmp_path, capsys):
        path = tmp_path / "huge.mass"
        path.write_text("frame a b\nfocal a 1e308\nfocal b 1e308\n")
        assert main(["combine", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: mass text: mass 1e+308 on a exceeds 1\n"

    def test_atom_named_theta(self, tmp_path, capsys):
        # with an atom THETA, both it and the whole frame printed as THETA,
        # and verify read the combination back as something else
        a, b = tmp_path / "a.mass", tmp_path / "b.mass"
        a.write_text("frame THETA x\nfocal THETA&THETA 0.6\nfocal THETA 0.4\n")
        b.write_text("frame THETA x\nfocal x 0.5\nfocal THETA 0.5\n")
        assert main(["combine", str(a), str(b)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: atom 'THETA' clashes with the clause syntax "
                                "(THETA & | !)\n")

    def test_hypothesis_line_in_a_mass_file(self, tmp_path, capsys):
        # only a knowledge file names a hypothesis
        path = tmp_path / "h.mass"
        path.write_text("frame a\nhypothesis h\nfocal THETA 1\n")
        assert main(["combine", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: line 2: unknown directive 'hypothesis'\n"

    def test_nan_mass(self, tmp_path, capsys):
        path = tmp_path / "nan.mass"
        path.write_text("frame a\nfocal a nan\nfocal THETA 1.0\n")
        assert main(["combine", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_not_utf8(self, tmp_path, capsys, facade_pgm):
        """A text input that is not UTF-8 exits 2 with one line, wherever it
        is read: mass, evidence, knowledge and config files."""
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"\xff\xfeframe a\n")
        good = tmp_path / "a.mass"
        good.write_text(MASS_A)
        for argv in (["combine", str(bad)],
                     ["verify", "--evidence", str(bad), "--knowledge", str(good)],
                     ["verify", "--evidence", str(good), "--knowledge", str(bad)],
                     ["pipeline", facade_pgm, "--knowledge", str(bad)],
                     ["pipeline", facade_pgm, "--config", str(bad)]):
            assert main(argv) == 2, argv
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: cannot read {bad}: not UTF-8 text\n"


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

    def test_knowledge_sum_beyond_float_range(self, tmp_path, capsys):
        ev = tmp_path / "ev.mass"
        ks = tmp_path / "ks.know"
        ev.write_text(SHUTTER_EVIDENCE)
        ks.write_text("hypothesis shutter\nframe long low next-to\n"
                      "focal long 1e308\nfocal low 1e308\n")
        assert main(["verify", "--evidence", str(ev), "--knowledge", str(ks)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: mass 1e+308 on long outside (0, 1]\n"

    def test_knowledge_frame_declared_twice(self, tmp_path, capsys):
        ev = tmp_path / "ev.mass"
        ks = tmp_path / "ks.know"
        ev.write_text(SHUTTER_EVIDENCE)
        ks.write_text(SHUTTER_KNOWLEDGE.replace("frame long low next-to\n",
                                                "frame long low next-to\nframe a b c\n"))
        assert main(["verify", "--evidence", str(ev), "--knowledge", str(ks)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: line 3: frame declared twice\n"

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

    def test_threshold_override(self, facade_pgm, tmp_path, capsys):
        cfg = tmp_path / "pipeline.cfg"
        cfg.write_text("survivor_threshold = 0.99\n")
        assert main(["pipeline", facade_pgm, "--config", str(cfg)]) == 0
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
        "edge_threshold = 32\nedge_threshold = 1000\n",
    ], ids=["workers", "nan-threshold", "min-above-max-sep", "key-set-twice"])
    def test_bad_config_file(self, facade_pgm, tmp_path, capsys, text):
        cfg = tmp_path / "pipeline.cfg"
        cfg.write_text(text)
        assert main(["pipeline", facade_pgm, "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_nan_threshold(self, facade_pgm, tmp_path, capsys):
        cfg = tmp_path / "pipeline.cfg"
        cfg.write_text("survivor_threshold = nan\n")
        assert main(["pipeline", facade_pgm, "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == "error: survivor_threshold = nan is not finite\n"

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

    def test_third_knowledge_file_rejected(self, facade_pgm, tmp_path, capsys):
        know = tmp_path / "any.know"
        know.write_text(SHUTTER_KNOWLEDGE)
        report = tmp_path / "report.tsv"
        assert main(["pipeline", facade_pgm, "--out", str(report)]
                    + ["--knowledge", str(know)] * 3) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not report.exists()
        assert captured.err.startswith("error: 3 --knowledge files given")
        assert captured.err.count("\n") == 1

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

    def test_pipeline_without_config_builds_none(self, facade_pgm, tmp_path, monkeypatch):
        # the shared default serves every run that sets nothing
        built = []
        check = pyramid.PipelineConfig.__post_init__
        monkeypatch.setattr(pyramid.PipelineConfig, "__post_init__",
                            lambda config: built.append(config) or check(config))
        for _ in range(2):
            assert main(["pipeline", facade_pgm, "--out", str(tmp_path / "r.tsv")]) == 0
        assert built == []

    def test_missing_image(self, tmp_path, capsys):
        assert main(["pipeline", str(tmp_path / "none.pgm")]) == 2
        assert "error:" in capsys.readouterr().err


# tokens of the mass and knowledge grammars: (common, rare) pairs, the rare
# ones malformed, out of range or at the edges of float
HYPOTHESES = (["hypothesis h"], ["", "hypothesis", "hypothesis h h"])
FRAMES = (["frame a b c"], ["frame", "frame a b", "frame a a", "frame THETA a b c",
                            "frame a&b !a c", "frame " + " ".join("abcdefghijklmnopq")])
CLAUSES = (["a", "b", "c", "a&b", "b&c", "a&b&c", "THETA"],
           ["!a", "a&!b", "a|b", "b|c", "a&!a", "!a|b", "d", "THETA&a", "a|", "a&b|c"])
MASSES = (["1", "0.5", "0.25", "1e308", "9e307"],
          ["0.1", "0", "-0.0", "1e-320", "-0.5", "inf", "-inf", "nan", "1.0000000001", "x"])


@st.composite
def evidence_texts(draw, knowledge: bool):
    """A mass text, or a knowledge text, of one to four focal lines."""
    def token(tokens):   # a rare one about one time in ten
        return draw(st.sampled_from(draw(st.sampled_from(tokens[:1] * 9 + tokens[1:]))))

    focals = [(token(CLAUSES), token(MASSES)) for _ in range(draw(st.integers(1, 4)))]
    if draw(st.booleans()):   # the rest of the unit mass on theta
        focals.append(("THETA", repr(1 - sum(float(m) for _, m in focals if m != "x"))))
    lines = [token(HYPOTHESES)] if knowledge else []
    lines += [token(FRAMES)] + [f"focal {clause} {mass}" for clause, mass in focals]
    return "\n".join(draw(st.permutations(lines))) + "\n"


@settings(max_examples=300, deadline=None)
@given(st.lists(evidence_texts(False), min_size=1, max_size=3), evidence_texts(True))
def test_evidence_commands_never_raise(tmp_path_factory, masses, knowledge):
    """Any mass and knowledge text built from the grammar's tokens gives
    exit status 0 or 2, never a Python exception (ROADMAP aim 3).  Each
    mass text, and a vacuous one that always parses, is verified against
    the knowledge text."""
    work = tmp_path_factory.mktemp("evidence")
    paths = []
    for k, text in enumerate(masses + ["frame a b c\nfocal THETA 1\n", knowledge]):
        paths.append(str(work / f"{k}.txt"))
        with open(paths[-1], "w", encoding="utf-8") as fh:
            fh.write(text)
    out = str(work / "out.txt")
    assert main(["combine", *paths[:-2], "--out", out]) in (0, 2)
    for path in paths[:-1]:
        assert main(["verify", "--evidence", path, "--knowledge", paths[-1],
                     "--out", out]) in (0, 2)


class TestLazyImports:
    def test_evidence_commands_load_no_numpy_or_dataclasses(self, tmp_path):
        """``combine`` and ``verify`` load neither numpy nor ``dataclasses``
        and the ``inspect`` it imports."""
        (tmp_path / "a.mass").write_text(MASS_A)
        (tmp_path / "b.mass").write_text(MASS_B)
        (tmp_path / "ks.know").write_text("hypothesis window\nframe window v-sibl h-sibl\n"
                                          "focal window 0.6\nfocal THETA 0.4\n")
        probe = ("import sys\n"
                 "from dsvision import cli\n"
                 "codes = [cli.main(['combine', 'a.mass', 'b.mass', '--out', 'ab.mass']),\n"
                 "         cli.main(['verify', '--evidence', 'ab.mass', '--knowledge', 'ks.know'])]\n"
                 "loaded = [m for m in ('numpy', 'dataclasses', 'inspect') if m in sys.modules]\n"
                 "print(codes, loaded)\n")
        src = os.path.dirname(os.path.dirname(dsvision.__file__))
        proc = subprocess.run([sys.executable, "-c", probe], cwd=tmp_path, text=True,
                              capture_output=True, env=dict(os.environ, PYTHONPATH=src),
                              check=True)
        assert proc.stdout.splitlines()[-1] == "[0, 0] []"

    def test_package_names_resolve(self):
        for name in dsvision.__all__:
            assert getattr(dsvision, name).__name__ == name
        with pytest.raises(AttributeError, match="no_such_name"):
            dsvision.no_such_name
        with pytest.raises(AttributeError, match="no_such_name"):
            cli.no_such_name

    def test_pipeline_calls_the_names_set_on_cli(self, facade_pgm, tmp_path, monkeypatch):
        calls = []

        def spy(name):
            original = getattr(cli, name)

            def call(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)
            return call

        names = ["read_pgm", "run_pipeline", "format_report", "write_overlay"]
        for name in names:
            monkeypatch.setattr(cli, name, spy(name))
        assert main(["pipeline", facade_pgm, "--out", str(tmp_path / "r.tsv"),
                     "--overlay", str(tmp_path / "o.ppm")]) == 0
        assert calls == names
