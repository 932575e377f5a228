import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import wickworks
from wickworks import phi4, torusfield
from wickworks.cli import build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestHermite:
    def test_h4_text(self, capsys):
        code, out, _ = run(capsys, "hermite", "4")
        assert code == 0
        assert out.strip() == "1x^4 -6x^2 +3"

    def test_h0(self, capsys):
        code, out, _ = run(capsys, "hermite", "0")
        assert code == 0
        assert out.strip() == "1"

    def test_scaled(self, capsys):
        code, out, _ = run(capsys, "hermite", "2", "--sigma2", "3/2")
        assert code == 0
        assert out.strip() == "1x^2 -3/2"

    def test_json(self, capsys):
        code, out, _ = run(capsys, "hermite", "3", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["coefficients"]["3"] == [1, 1]
        assert data["coefficients"]["1"] == [-3, 1]

    @pytest.mark.parametrize("sigma2", ["1/0", "x"])
    def test_rejects_a_bad_sigma2_by_name(self, capsys, sigma2):
        # 1/0 once ended in a ZeroDivisionError traceback and exit status 1
        code, out, err = run(capsys, "hermite", "3", "--sigma2", sigma2)
        assert code == 2
        assert out == ""
        assert err == f"error: --sigma2 takes a rational such as 3/2, got {sigma2!r}\n"

    def test_rejects_large_order(self, capsys):
        code, _, err = run(capsys, "hermite", "65")
        assert code == 2
        assert "64" in err

    def test_recurrence_output_n10(self, capsys):
        # the printed row for n = 10 is the recurrence's, coefficient 4725
        code, out, _ = run(capsys, "hermite", "10")
        assert code == 0
        assert "4725" in out


class TestDiagrams:
    def test_two_vertex_class(self, capsys):
        code, out, _ = run(capsys, "diagrams", "2", "4")
        data = json.loads(out)
        assert code == 0
        assert data["total_matchings"] == [24, 1]
        assert len(data["classes"]) == 1
        assert data["classes"][0]["coefficient"] == [24, 1]

    def test_three_vertex_connected(self, capsys):
        code, out, _ = run(capsys, "diagrams", "3", "4", "--connected")
        data = json.loads(out)
        assert data["classes"][0]["coefficient"] == [1728, 1]

    def test_one_vertex_vacuum_empty(self, capsys):
        code, out, _ = run(capsys, "diagrams", "1", "4")
        data = json.loads(out)
        assert code == 0
        assert data["classes"] == []

    def test_parity_error(self, capsys):
        code, _, err = run(capsys, "diagrams", "1", "3")
        assert code == 2
        assert "pairings" in err

    def test_negative_vertex_count_rejected(self, capsys):
        code, out, err = run(capsys, "diagrams", "--", "-2", "4")
        assert code == 2
        assert out == ""
        assert "n_vertices" in err and "-2" in err

    def test_dot_output(self, capsys):
        code, out, _ = run(capsys, "diagrams", "2", "4", "--format", "dot")
        assert code == 0
        assert "graph" in out and "--" in out


class TestPhi4Cmd:
    def test_series_json(self, capsys):
        code, out, _ = run(capsys, "phi4", "--d", "1", "--N", "4", "--order", "3")
        data = json.loads(out)
        assert code == 0
        coeffs = data["series"]["coefficients"]
        assert coeffs[2]["prefactor"] == [1, 2]
        assert coeffs[3]["prefactor"] == [-1, 6]

    def test_d3_includes_counterterms(self, capsys):
        code, out, _ = run(capsys, "phi4", "--d", "3", "--N", "2", "--order", "2")
        data = json.loads(out)
        assert code == 0
        assert "counterterms" in data
        assert "2" in data["counterterms"]["beta"]

    @pytest.mark.parametrize("d", ["3", "3.0"])
    def test_integral_d_prints_an_int(self, capsys, d):
        code, out, _ = run(capsys, "phi4", "--d", d, "--N", "2", "--order", "2")
        assert code == 0
        assert type(json.loads(out)["series"]["d"]) is int

    def test_fractional_d_prints_the_plain_series(self, capsys):
        code, out, _ = run(capsys, "phi4", "--d", "3.5", "--N", "4", "--order", "4")
        data = json.loads(out)
        assert code == 0
        assert data["series"]["d"] == 3.5
        assert data["series"]["variant"] == "wick"
        assert "counterterms" not in data

    @pytest.mark.parametrize("d", ["4", "2.5", "x"])
    def test_d_outside_the_series_range_names_the_flag(self, capsys, d):
        with pytest.raises(SystemExit) as exc:
            main(["phi4", "--d", d, "--N", "4", "--order", "2"])
        assert exc.value.code == 2
        assert "--d" in capsys.readouterr().err

    def test_mc_requires_seed(self, capsys):
        code, _, err = run(capsys, "phi4", "--d", "1", "--N", "4", "--mc")
        assert code == 2
        assert "seed" in err

    @pytest.mark.parametrize(
        "argv, name",
        [
            (("--d", "2", "--alpha", "nan", "--seed", "1"), "alpha"),
            (("--d", "2", "--alpha", "-5", "--seed", "1"), "alpha"),
            (("--d", "2", "--alpha", "inf", "--seed", "1"), "alpha"),
            (("--d", "2", "--alpha", "0.05", "--seed", "-3"), "seed"),
            (("--d", "3", "--alpha", "0.05", "--seed", "1"), "d = 1 and d = 2"),
            (("--d", "3.5", "--alpha", "0.05", "--seed", "1"), "d = 1 and d = 2"),
            (("--d", "2", "--alpha", "0.05", "--seed", "1", "--samples", "1"), "samples"),
            (("--d", "2", "--alpha", "0.05", "--seed", "1", "--N", "-1"), "N must be >= 0"),
        ],
    )
    def test_mc_rejects_arguments_before_the_series(self, capsys, monkeypatch, argv, name):
        def refuse(*args, **kwargs):
            raise AssertionError("series work before the --mc arguments were checked")

        monkeypatch.setattr(phi4, "partition_ratio_series", refuse)
        monkeypatch.setattr(phi4, "counterterms_d3", refuse)
        code, out, err = run(
            capsys, "phi4", "--N", "4", "--order", "2", "--mc", "--samples", "200", *argv
        )
        assert code == 2
        assert out == ""
        assert name in err

    def test_every_option_has_help(self):
        parser = build_parser()
        (sub,) = [a for a in parser._actions if isinstance(a.choices, dict)]
        actions = {a.dest: a for a in sub.choices["phi4"]._actions}
        assert not [dest for dest, a in actions.items() if not a.help]
        assert "d = 1 or 2 only" in actions["mc"].help

    def test_mc_path(self, capsys):
        code, out, _ = run(
            capsys,
            "phi4",
            "--d", "1", "--N", "4", "--order", "2",
            "--mc", "--alpha", "0.05", "--samples", "200", "--seed", "11",
        )
        data = json.loads(out)
        assert code == 0
        assert data["mc"]["estimate"] > 0
        assert data["mc"]["stderr"] >= 0

    def test_ladder_csv(self, capsys):
        code, out, _ = run(
            capsys, "phi4", "--d", "1", "--N", "4", "--order", "2",
            "--ladder", "2,4",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "N,c0,c1,c2"
        assert lines[1].startswith("2,") and lines[2].startswith("4,")

    def test_ladder_order4_prints_plain_floats(self, capsys):
        code, out, _ = run(capsys, "phi4", "--d", "1", "--N", "0", "--ladder", "4,8", "--order", "4")
        assert code == 0
        assert "np." not in out
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert [len(row) for row in rows] == [6, 6]
        for row in rows:
            for cell in row[1:]:
                float(cell)

    def test_ladder_needs_no_N(self, capsys):
        code, out, _ = run(capsys, "phi4", "--d", "1", "--order", "2", "--ladder", "2,4")
        assert code == 0
        assert out.splitlines()[0] == "N,c0,c1,c2"

    def test_ladder_parse_error_names_the_flag(self, capsys, tmp_path):
        out = tmp_path / "ladder.csv"
        code, stdout, err = run(
            capsys, "phi4", "--d", "1", "--order", "2", "--ladder", "2,x", "--out", str(out)
        )
        assert code == 2
        assert stdout == "" and not out.exists()
        assert "--ladder" in err and "'2,x'" in err

    def test_empty_ladder_is_rejected(self, capsys):
        code, stdout, err = run(capsys, "phi4", "--d", "1", "--ladder", ",", "--order", "2")
        assert code == 2
        assert stdout == ""
        assert "--ladder" in err and "','" in err

    def test_ladder_checks_every_cutoff_before_the_first_series(self, capsys, monkeypatch):
        # -1 exits 2 by name before the series of N = 8 runs
        calls = []
        monkeypatch.setattr(phi4, "partition_ratio_series", lambda *args: calls.append(args))
        code, stdout, err = run(capsys, "phi4", "--d", "2", "--ladder", "8,-1", "--order", "4")
        assert code == 2 and stdout == "" and calls == []
        assert "N must be >= 0, got -1" in err

    def test_ladder_rejects_mc(self, capsys, tmp_path):
        out = tmp_path / "ladder.csv"
        code, stdout, err = run(
            capsys, "phi4", "--d", "2", "--ladder", "2,3", "--mc", "--alpha", "0.1",
            "--samples", "10", "--seed", "1", "--out", str(out),
        )
        assert code == 2
        assert stdout == "" and not out.exists()
        assert "--mc" in err and "--ladder" in err

    def test_ladder_names_the_ignored_N(self, capsys):
        code, stdout, err = run(
            capsys, "phi4", "--d", "1", "--N", "9", "--ladder", "2,4", "--order", "2"
        )
        assert code == 0
        assert [line.split(",")[0] for line in stdout.splitlines()[1:]] == ["2", "4"]
        assert "--N 9" in err and "--ladder" in err

    def test_series_names_the_flags_ignored_without_mc(self, capsys):
        argv = ("phi4", "--d", "1", "--N", "4", "--order", "2")
        code, plain, err = run(capsys, *argv)
        assert code == 0 and err == ""
        code, out, err = run(capsys, *argv, "--alpha", "0.1", "--samples", "50", "--seed", "3")
        assert code == 0
        assert out == plain
        assert "--alpha 0.1, --samples 50 and --seed 3 are ignored without --mc" in err

    def test_ladder_names_the_flags_ignored_without_mc(self, capsys):
        argv = ("phi4", "--d", "1", "--ladder", "2,4", "--order", "2")
        code, plain, _ = run(capsys, *argv)
        assert code == 0
        code, out, err = run(capsys, *argv, "--seed", "5")
        assert code == 0
        assert out == plain
        assert "--seed 5 is ignored without --mc" in err
        assert "--alpha" not in err and "--samples" not in err

    def test_N_required_without_ladder(self, capsys):
        code, out, err = run(capsys, "phi4", "--d", "1", "--order", "2")
        assert code == 2
        assert out == ""
        assert "--N" in err

    def test_order_beyond_valuation_limit(self, capsys):
        code, out, err = run(capsys, "phi4", "--d", "1", "--N", "4", "--order", "5")
        assert code == 2
        assert out == ""
        assert "valuation limit" in err and "order 4" in err

    def test_mc_overflow_exits_2_without_warnings(self):
        # exp(-alpha X) passes the float range at this alpha; it once printed
        # "estimate": Infinity, which is not JSON, after two RuntimeWarnings
        src = str(Path(wickworks.__file__).parents[1])
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-m", "wickworks.cli", "phi4", "--d", "1", "--N", "8", "--order", "2",
             "--mc", "--alpha", "100", "--samples", "2000", "--seed", "1"],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=path),
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "RuntimeWarning" not in proc.stderr
        assert proc.stderr.startswith("error:") and "alpha" in proc.stderr

    def test_diagrams_past_valuation_limit(self, capsys):
        code, out, _ = run(capsys, "diagrams", "5", "4")
        assert code == 0
        assert json.loads(out)["classes"]

    def test_no_signed_zero(self, capsys):
        signed_zero = re.compile(r"-0\.0(?![0-9e])")
        code, out, _ = run(capsys, "phi4", "--d", "1", "--ladder", "4,8", "--order", "4")
        assert code == 0
        assert not signed_zero.search(out)
        assert out.splitlines()[1].split(",")[2] == "0.0"
        code, out, _ = run(capsys, "phi4", "--d", "1", "--N", "4", "--order", "4")
        assert code == 0
        assert not signed_zero.search(out)
        assert json.loads(out)["series"]["coefficients"][1]["value"] == 0.0


class TestField:
    def test_writes_header_and_values(self, capsys, tmp_path):
        out = tmp_path / "field.csv"
        code, _, _ = run(
            capsys,
            "field", "--profile", "white", "--d", "2", "--N", "2",
            "--grid", "8", "--seed", "3", "--out", str(out),
        )
        assert code == 0
        header = json.loads(out.read_text().splitlines()[0])
        assert header["profile"] == "white"
        assert header["d"] == 2 and header["grid"] == 8

    def test_byte_identical_reruns(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            code, _, _ = run(
                capsys,
                "field", "--profile", "gff", "--d", "1", "--N", "4",
                "--grid", "16", "--seed", "42", "--out", str(path),
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()


    def test_fractional_profile_reruns_match_the_library(self, capsys, tmp_path):
        a, b, lib = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "lib.csv"
        for path in (a, b):
            code, _, _ = run(
                capsys,
                "field", "--profile", "fractional", "--s", "0.75", "--d", "2", "--N", "3",
                "--grid", "8", "--seed", "5", "--out", str(path),
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()
        header = json.loads(a.read_text().splitlines()[0])
        assert header["profile"] == "fractional" and header["s"] == 0.75
        profile = torusfield.SpectralProfile("fractional", 0.75)
        sample = torusfield.sample_field(profile, torusfield.ModeLattice(2, 3), 5)
        torusfield.write_sample(sample, str(lib), 8)
        assert a.read_bytes() == lib.read_bytes()

    @pytest.mark.parametrize("profile", ["gff", "white"])
    def test_s_without_fractional_is_named(self, capsys, tmp_path, profile):
        plain, given = tmp_path / "plain.csv", tmp_path / "given.csv"
        argv = ("field", "--profile", profile, "--d", "1", "--N", "2", "--grid", "4", "--seed", "1")
        code, _, err = run(capsys, *argv, "--out", str(plain))
        assert code == 0 and err == ""
        code, _, err = run(capsys, *argv, "--s", "3", "--out", str(given))
        assert code == 0
        assert "--s 3.0 is ignored without --profile fractional" in err
        assert given.read_bytes() == plain.read_bytes()
        assert json.loads(given.read_text().splitlines()[0])["s"] == 0.0

    def test_fractional_s_defaults_to_one_half(self, capsys, tmp_path):
        default, half = tmp_path / "default.csv", tmp_path / "half.csv"
        argv = ("field", "--profile", "fractional", "--d", "1", "--N", "2", "--grid", "4", "--seed", "1")
        code, _, err = run(capsys, *argv, "--out", str(default))
        assert code == 0 and err == ""
        code, _, _ = run(capsys, *argv, "--s", "0.5", "--out", str(half))
        assert code == 0
        assert default.read_bytes() == half.read_bytes()
        assert json.loads(default.read_text().splitlines()[0])["s"] == 0.5

    @pytest.mark.parametrize("s", ["nan", "inf", "-0.25"])
    def test_fractional_rejects_a_bad_s(self, capsys, tmp_path, s):
        # a nan exponent once sampled nan values under a non-JSON header
        out = tmp_path / "field.csv"
        code, stdout, err = run(
            capsys,
            "field", "--profile", "fractional", "--s", s, "--d", "1", "--N", "2",
            "--grid", "4", "--seed", "1", "--out", str(out),
        )
        assert code == 2
        assert stdout == "" and not out.exists()
        assert "fractional exponent s must be finite and >= 0" in err

    @pytest.mark.parametrize(
        "grid, seed, message",
        [
            ("0", "1", "--grid must be >= 1, got 0"),
            ("-3", "1", "--grid must be >= 1, got -3"),
            ("8", "-1", "--seed must be >= 0, got -1"),
        ],
    )
    def test_rejects_grid_and_seed_before_sampling(self, capsys, tmp_path, grid, seed, message):
        out = tmp_path / "field.csv"
        code, stdout, err = run(
            capsys,
            "field", "--profile", "gff", "--d", "2", "--N", "3",
            "--grid", grid, "--seed", seed, "--out", str(out),
        )
        assert code == 2
        assert stdout == "" and not out.exists()
        assert message in err


class TestVerify:
    def test_full_table_passes(self, capsys):
        code, out, _ = run(capsys, "verify")
        assert code == 0
        assert "FAIL" not in out
        assert out.strip().endswith("checks passed")


class TestUsage:
    def test_missing_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["hermite", "4", "--bogus"])
        assert exc.value.code == 2

    def test_json_reruns_identical(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            code, _, _ = run(
                capsys, "phi4", "--d", "1", "--N", "4", "--order", "2",
                "--out", str(path),
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_unwritable_out_exits_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "hermite", "3", "--out", str(tmp_path / "missing" / "h.txt"))
        assert code == 2
        assert err.startswith("error:")

    def test_closed_stdout_exits_1_quietly(self):
        # the reader is gone before the first write, as with `diagrams 8 4 | head -c 10`
        src = str(Path(wickworks.__file__).parents[1])
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        proc = subprocess.Popen(
            [sys.executable, "-m", "wickworks.cli", "diagrams", "4", "4"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=path),
        )
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait() == 1
        assert err == b""
