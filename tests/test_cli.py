"""The command-line interface: parsing, outputs, exit codes, file formats."""

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import momest
from momest import LawSpec, sample
from momest.cli import EXIT_INPUT, EXIT_OK, EXIT_REJECT, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_sample(tmp_path, values, name="sample.txt"):
    path = tmp_path / name
    path.write_text("".join(f"{float(v)!r}\n" for v in values),
                    encoding="utf-8")
    return str(path)


def child_env():
    """Environment for a child interpreter that imports the same momest
    package as this test, whether or not PYTHONPATH is set."""
    package_root = str(Path(momest.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p)
    return env


class TestCoeffs:
    def test_canonical_gamma(self, capsys):
        code, out, _ = run_cli(capsys, "coeffs", "gamma", "2", "3",
                               "--format", "json")
        assert code == EXIT_OK
        doc = json.loads(out)
        sig = doc["sigma_exact_moments"]
        assert sig["s11"] == pytest.approx(12.0, rel=1e-10)
        assert sig["s22"] == pytest.approx(31.5, rel=1e-10)
        assert sig["s12"] == pytest.approx(18.0, rel=1e-10)
        assert sig["det"] == pytest.approx(54.0, rel=1e-9)
        quad = doc["sigma_exact_quadrature"]
        assert quad["s11"] == pytest.approx(12.0, rel=1e-5)

    def test_verbatim_alias_paper(self, capsys):
        code, out, _ = run_cli(capsys, "coeffs", "gamma", "2", "3",
                               "--mode", "paper", "--format", "json")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["mode"] == "verbatim"
        assert doc["influence_a"]["c1"] == pytest.approx(33.0, rel=1e-10)
        corr = doc["sigma_exact_quadrature"]["correlation"]
        assert corr == pytest.approx(0.7467, abs=0.001)

    def test_fisher_missing_moment(self, capsys):
        code, _, err = run_cli(capsys, "coeffs", "fisher", "5", "6")
        assert code == EXIT_INPUT
        assert "fourth moment requires b > 8" in err

    def test_unknown_law(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["coeffs", "cauchy", "1", "2"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flag", ["--panels", "--tol",
                                      "--max-doublings"])
    def test_quadrature_flags_gone(self, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            main(["coeffs", "gamma", "2", "3", flag, "50"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("law", [
        ("gamma", "2", "1e-200"), ("gamma", "2", "1e200"),
        ("uniform", "1e100", "2e100"), ("fisher", "1e-300", "12"),
        ("beta", "1e-300", "2"), ("gamma", "1e300", "1")], ids=" ".join)
    def test_extreme_parameters_exit_input(self, capsys, law):
        code, out, err = run_cli(capsys, "coeffs", *law)
        assert code == EXIT_INPUT
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


class TestEstimate:
    def test_degenerate_sample(self, capsys, tmp_path):
        path = write_sample(tmp_path, [1.0, 1.0, 1.0, 1.0])
        code, _, err = run_cli(capsys, "estimate", "gamma", "--input", path)
        assert code == EXIT_INPUT
        assert "S^2" in err

    def test_uniform_two_values(self, capsys, tmp_path):
        path = write_sample(tmp_path, [0.0, 2.0])
        code, out, _ = run_cli(capsys, "estimate", "uniform", "--input", path,
                               "--format", "json")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["a_hat"] == pytest.approx(1.0 - math.sqrt(6.0), rel=1e-12)
        assert doc["b_hat"] == pytest.approx(1.0 + math.sqrt(6.0), rel=1e-12)
        assert doc["moments"]["var_unbiased"] == pytest.approx(2.0)

    def test_comments_and_blank_lines(self, capsys, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("# header\n0.5\n\n0.25  # trailing note\n0.75\n",
                        encoding="utf-8")
        code, out, _ = run_cli(capsys, "estimate", "beta", "--input",
                               str(path), "--format", "json")
        assert code == EXIT_OK
        assert json.loads(out)["n"] == 3

    def test_parse_error_names_line(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1.0\nnot-a-number\n2.0\n", encoding="utf-8")
        code, _, err = run_cli(capsys, "estimate", "gamma", "--input",
                               str(path))
        assert code == EXIT_INPUT
        assert ":2:" in err

    def test_empty_file(self, capsys, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("", encoding="utf-8")
        code, _, err = run_cli(capsys, "estimate", "gamma", "--input",
                               str(path))
        assert code == EXIT_INPUT
        assert "no values" in err

    def test_csv_column(self, capsys, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("id,value\n1,0.25\n2,0.5\n3,0.75\n", encoding="utf-8")
        code, out, _ = run_cli(capsys, "estimate", "uniform", "--input",
                               str(path), "--column", "value",
                               "--format", "json")
        assert code == EXIT_OK
        assert json.loads(out)["n"] == 3

    def test_csv_line_numbers_count_blank_rows(self, capsys, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("index,value\n1,2\n\n3,x\n", encoding="utf-8")
        code, _, err = run_cli(capsys, "estimate", "gamma", "--input",
                               str(path), "--column", "value")
        assert code == EXIT_INPUT
        assert f"{path}:4: could not parse 'x' as a number" in err

    def test_csv_repeated_column_refused(self, capsys, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("value,id,value\n0.25,1,9\n0.5,2,9\n",
                        encoding="utf-8")
        code, out, err = run_cli(capsys, "estimate", "uniform", "--input",
                                 str(path), "--column", "value")
        assert code == EXIT_INPUT
        assert out == ""
        assert "'value'" in err and "more than once" in err

    def test_csv_short_rows_skipped(self, capsys, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("id,value\n1,0.25\n2\n3,0.75\n4,\n5,0.5\n",
                        encoding="utf-8")
        code, out, _ = run_cli(capsys, "estimate", "uniform", "--input",
                               str(path), "--column", "value",
                               "--format", "json")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert (doc["n"], doc["moments"]["mean"]) == (3, 0.5)

    def test_csv_quoted_cell_with_comma(self, capsys, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text('label,value\n"a, b",0.25\n"c",0.5\n'
                        '"d,e,f"," 0.75 "\n', encoding="utf-8")
        code, out, _ = run_cli(capsys, "estimate", "uniform", "--input",
                               str(path), "--column", "value",
                               "--format", "json")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert (doc["n"], doc["moments"]["mean"]) == (3, 0.5)

    def test_csv_missing_column(self, capsys, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("id,value\n1,0.25\n", encoding="utf-8")
        code, _, err = run_cli(capsys, "estimate", "uniform", "--input",
                               str(path), "--column", "nope")
        assert code == EXIT_INPUT
        assert "nope" in err

    def test_million_draw_consistency(self, capsys, tmp_path):
        path = write_sample(tmp_path, sample(LawSpec.gamma(10.0, 3.0),
                                             10**6, 8080))
        code, out, _ = run_cli(capsys, "estimate", "gamma", "--input", path,
                               "--format", "json")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["a_hat"] == pytest.approx(10.0, rel=0.02)
        assert doc["b_hat"] == pytest.approx(3.0, rel=0.02)


class TestNonFiniteInput:
    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "1e400"])
    @pytest.mark.parametrize("command", [
        ("estimate", "uniform"), ("estimate", "gamma"),
        ("test", "uniform", "0", "1")])
    def test_plain_rejected_with_line(self, capsys, tmp_path, command,
                                      token):
        path = tmp_path / "sample.txt"
        path.write_text(f"0.25\n# comment\n0.5\n{token}\n0.75\n",
                        encoding="utf-8")
        code, out, err = run_cli(capsys, *command, "--input", str(path),
                                 "--format", "json")
        assert code == EXIT_INPUT
        assert out == ""
        assert f"{path}:4: '{token}' is not a finite number" in err

    @pytest.mark.parametrize("command", [
        ("estimate", "uniform"), ("test", "gamma", "2", "3")])
    def test_csv_rejected_with_line(self, capsys, tmp_path, command):
        path = tmp_path / "sample.csv"
        path.write_text("id,x\n1,0.25\n2,NaN\n3,0.5\n", encoding="utf-8")
        code, out, err = run_cli(capsys, *command, "--input", str(path),
                                 "--column", "x", "--format", "json")
        assert code == EXIT_INPUT
        assert out == ""
        assert f"{path}:3: 'NaN' is not a finite number" in err


class TestOverflowingMoments:
    """Finite values whose squares overflow pass the parser but must not
    reach the estimator as inf or nan moments."""

    @pytest.mark.parametrize("command", [
        ("estimate", "gamma"), ("test", "gamma", "2", "3")])
    def test_exit_input(self, capsys, tmp_path, command):
        path = write_sample(tmp_path, [1e200, 2e200, 3e200])
        code, out, err = run_cli(capsys, *command, "--input", path)
        assert code == EXIT_INPUT
        assert out == ""
        assert "var_biased overflowed" in err


class TestByteOrderMark:
    def test_plain(self, capsys, tmp_path):
        plain = tmp_path / "plain.txt"
        plain.write_text("1.5\n2.5\n3.1\n", encoding="utf-8")
        marked = tmp_path / "marked.txt"
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        outputs = [run_cli(capsys, "estimate", "gamma", "--input", str(p),
                           "--format", "json")[:2] for p in (plain, marked)]
        assert outputs[0][0] == EXIT_OK
        assert outputs[1] == outputs[0]

    def test_csv_first_column(self, capsys, tmp_path):
        path = tmp_path / "data.csv"
        path.write_bytes("\ufeffvalue,id\n0.25,1\n0.5,2\n0.75,3\n"
                         .encode("utf-8"))
        code, out, _ = run_cli(capsys, "estimate", "uniform", "--input",
                               str(path), "--column", "value",
                               "--format", "json")
        assert code == EXIT_OK
        assert json.loads(out)["moments"]["mean"] == 0.5


class TestTestCommand:
    def test_null_acceptance_rate(self, capsys, tmp_path):
        """Seeded replications from the hypothesized law mostly accept."""
        law = LawSpec.gamma(2.0, 3.0)
        accept = 0
        seeds = range(1, 101)
        for seed in seeds:
            path = write_sample(tmp_path, sample(law, 2000, seed),
                                name=f"null_{seed}.txt")
            code, _, _ = run_cli(capsys, "test", "gamma", "2", "3",
                                 "--input", path)
            accept += (code == EXIT_OK)
        assert accept >= 0.93 * len(list(seeds))

    def test_power_against_distant_null(self, capsys, tmp_path):
        law = LawSpec.gamma(2.0, 3.0)
        for seed in (11, 22, 33, 44, 55):
            path = write_sample(tmp_path, sample(law, 1000, seed),
                                name=f"alt_{seed}.txt")
            code, out, _ = run_cli(capsys, "test", "gamma", "10", "3",
                                   "--input", path)
            assert code == EXIT_REJECT

    def test_plugin_sigma(self, capsys, tmp_path):
        law = LawSpec.beta(2.0, 3.0)
        path = write_sample(tmp_path, sample(law, 4000, 9))
        code, out, _ = run_cli(capsys, "test", "beta", "2", "3", "--input",
                               path, "--sigma", "plugin", "--format", "json")
        assert code in (EXIT_OK, EXIT_REJECT)
        doc = json.loads(out)
        assert doc["omnibus"]["df"] == 2
        assert doc["omnibus"]["sigma_method"] == "plugin"

    def test_exact_quadrature_sigma_agrees_with_moments(self, capsys,
                                                        tmp_path):
        law = LawSpec.uniform(0.0, 1.0)
        path = write_sample(tmp_path, sample(law, 500, 17))
        docs = {}
        for sigma in ("exact-moments", "exact-quadrature"):
            code, out, _ = run_cli(capsys, "test", "uniform", "0", "1",
                                   "--input", path, "--sigma", sigma,
                                   "--format", "json")
            assert code in (EXIT_OK, EXIT_REJECT)
            docs[sigma] = json.loads(out)
        q1 = docs["exact-moments"]["omnibus"]["statistic"]
        q2 = docs["exact-quadrature"]["omnibus"]["statistic"]
        assert q1 == pytest.approx(q2, rel=1e-4)

    def test_exact_quadrature_refuses_beta_below_one(self, capsys, tmp_path):
        law = LawSpec.beta(7.0, 0.7)
        path = write_sample(tmp_path, sample(law, 200, 3))
        code, out, err = run_cli(capsys, "test", "beta", "7", "0.7",
                                 "--input", path, "--sigma",
                                 "exact-quadrature")
        assert code == EXIT_INPUT
        assert out == ""
        assert "b = 0.7 < 1; use exact-moments" in err
        code, _, _ = run_cli(capsys, "test", "beta", "7", "0.7", "--input",
                             path, "--sigma", "exact-moments")
        assert code in (EXIT_OK, EXIT_REJECT)

    def test_exact_quadrature_refuses_heavy_fisher_tail(self, capsys,
                                                        tmp_path):
        path = write_sample(tmp_path, sample(LawSpec.fisher(5.0, 8.1), 200,
                                             3))
        code, out, err = run_cli(capsys, "test", "fisher", "5", "8.1",
                                 "--input", path, "--sigma",
                                 "exact-quadrature")
        assert code == EXIT_INPUT
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "fisher(5, 8.1)" in err and "use exact-moments" in err

    def test_replication_sigma_rejected_for_single_sample(self, capsys,
                                                          tmp_path):
        path = write_sample(tmp_path, [1.0, 2.0, 3.0])
        code, _, err = run_cli(capsys, "test", "gamma", "2", "3", "--input",
                               path, "--sigma", "replication")
        assert code == EXIT_INPUT


class TestSimulate:
    def test_seed_required(self):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "gamma", "2", "3", "--n", "50",
                  "--replications", "40"])
        assert exc.value.code == 2

    def test_writes_all_files(self, capsys, tmp_path):
        out = tmp_path / "run1"
        code, stdout, _ = run_cli(
            capsys, "simulate", "gamma", "2", "3", "--n", "50",
            "--replications", "40", "--seed", "7", "--out", str(out))
        assert code == EXIT_OK
        names = {p.name for p in out.iterdir()}
        assert names == {"error_table.csv", "ratio_table.csv", "pvalues.csv",
                         "omnibus.csv", "qq_a.csv", "qq_b.csv",
                         "parzen_a.csv", "parzen_b.csv", "report.json"}
        assert "feasible=40" in stdout

    def test_reruns_byte_identical(self, capsys, tmp_path):
        args = ["simulate", "beta", "2", "3", "--n", "60", "--replications",
                "50", "--seed", "123"]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run_cli(capsys, *args, "--out", str(out1))
        run_cli(capsys, *args, "--out", str(out2), "--workers", "2")
        for p1 in sorted(out1.iterdir()):
            p2 = out2 / p1.name
            assert p1.read_bytes() == p2.read_bytes(), p1.name

    def test_workers_below_one_rejected(self, capsys, tmp_path):
        for workers in ("0", "-3"):
            out = tmp_path / f"w{workers}"
            code, _, err = run_cli(
                capsys, "simulate", "gamma", "2", "3", "--n", "50",
                "--replications", "40", "--seed", "7", "--out", str(out),
                "--workers", workers)
            assert code == EXIT_INPUT
            assert "workers must be >= 1" in err
            assert not out.exists()

    def test_report_json_roundtrips(self, capsys, tmp_path):
        out = tmp_path / "run"
        run_cli(capsys, "simulate", "uniform", "0", "1", "--n", "40",
                "--replications", "30", "--seed", "5", "--out", str(out))
        raw = (out / "report.json").read_text(encoding="utf-8")
        doc = json.loads(raw)
        assert doc["schema_version"] == "1"
        assert json.dumps(doc, indent=2, sort_keys=True) + "\n" == raw

    def test_outdir_env_var(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("MOMEST_OUTDIR", str(tmp_path / "envout"))
        code, _, _ = run_cli(capsys, "simulate", "gamma", "2", "3", "--n",
                             "40", "--replications", "20", "--seed", "3")
        assert code == EXIT_OK
        assert (tmp_path / "envout" / "report.json").exists()

    @pytest.mark.parametrize("below", ["", "sub"])
    def test_out_naming_a_file_refused_before_the_study(
            self, capsys, tmp_path, monkeypatch, below):
        def no_study(*args, **kwargs):
            raise AssertionError("the study ran")

        monkeypatch.setattr(momest.cli, "run_simulation", no_study)
        afile = tmp_path / "afile"
        afile.write_text("kept\n")
        out = afile / below if below else afile
        code, stdout, err = run_cli(
            capsys, "simulate", "gamma", "2", "3", "--n", "20", "-B", "10",
            "--seed", "1", "--out", str(out))
        assert code == EXIT_INPUT
        assert stdout == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(out) in err and "not a directory" in err
        assert afile.read_text() == "kept\n"

    def test_repeated_sigma_method_refused(self, capsys, tmp_path):
        out = tmp_path / "r"
        code, _, err = run_cli(
            capsys, "simulate", "gamma", "2", "3", "--n", "20", "-B", "10",
            "--seed", "1", "--out", str(out), "--sigma-methods", "plugin",
            "plugin")
        assert code == EXIT_INPUT
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "must not repeat" in err
        assert not out.exists()

    def test_exact_quadrature_refuses_beta_below_one(self, capsys,
                                                     tmp_path):
        out = tmp_path / "q"
        code, _, err = run_cli(
            capsys, "simulate", "beta", "2", "0.5", "--n", "50",
            "--replications", "30", "--seed", "2", "--out", str(out),
            "--sigma-methods", "exact-quadrature")
        assert code == EXIT_INPUT
        assert "exact-quadrature" in err and "use exact-moments" in err
        assert not out.exists()

    def test_exact_quadrature_refuses_heavy_fisher_tail(self, capsys,
                                                        tmp_path):
        out = tmp_path / "q"
        code, _, err = run_cli(
            capsys, "simulate", "fisher", "5", "8.1", "--n", "50",
            "--replications", "30", "--seed", "2", "--out", str(out),
            "--sigma-methods", "exact-quadrature")
        assert code == EXIT_INPUT
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "upper tail has not settled" in err
        assert not out.exists()

    def test_fisher_low_b_needs_nonexact_methods(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "simulate", "fisher", "5", "6", "--n", "50",
            "--replications", "30", "--seed", "2", "--out",
            str(tmp_path / "f"))
        assert code == EXIT_INPUT
        assert "fourth moment" in err
        code, _, _ = run_cli(
            capsys, "simulate", "fisher", "5", "6", "--n", "50",
            "--replications", "30", "--seed", "2", "--out",
            str(tmp_path / "f2"), "--sigma-methods", "plugin", "replication")
        assert code == EXIT_OK


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "momest.cli", "coeffs", "uniform", "0",
             "1", "--format", "json"],
            capture_output=True, text=True, env=child_env())
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        assert doc["influence_a"]["c1"] == pytest.approx(4.0, rel=1e-10)

    def test_console_script_if_installed(self):
        """The ``momest`` script declared in pyproject.toml runs its target
        the way the pip-generated wrapper does, with or without an install;
        where an installed ``momest`` is on PATH, that script runs too."""
        try:
            import tomllib
        except ModuleNotFoundError:  # Python 3.10
            import tomli as tomllib
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with pyproject.open("rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["momest"]
        module, func = target.split(":")
        wrapper = (f"import sys; from {module} import {func}; "
                   f"sys.argv[0] = 'momest'; sys.exit({func}())")
        commands = [[sys.executable, "-c", wrapper]]
        installed = shutil.which("momest")
        if installed:
            commands.append([installed])
        for command in commands:
            proc = subprocess.run(command + ["coeffs", "gamma", "2", "3"],
                                  capture_output=True, text=True,
                                  env=child_env())
            assert proc.returncode == 0, proc.stderr
            assert "s11=12" in proc.stdout
