"""The command-line interface: parsing, outputs, exit codes, file formats."""

import argparse
import csv
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import momest
from momest import LawSpec, SampleParseError, sample
from momest.cli import (COMMANDS, EXIT_INPUT, EXIT_OK, EXIT_REJECT, _cells,
                        _number, build_parser, main, read_sample)
from momest.reportio import FILE_NAMES


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

    @pytest.mark.parametrize("argv, message", [
        (["coeffs", "cauchy", "1", "2"],
         "argument kind: unknown law 'cauchy'; expected one of gamma, beta, "
         "uniform, fisher"),
        (["test", "gamma", "2", "3", "--input", "s.txt", "--sigma", "bogus"],
         "argument --sigma: unknown sigma method 'bogus'; expected one of "
         "exact-quadrature, exact-moments, plugin, replication"),
        (["coeffs", "gamma", "2", "3", "--mode", "bogus"],
         "argument --mode: unknown coefficient mode 'bogus'; expected one of "
         "canonical, verbatim"),
        (["simulate", "gamma", "2", "3", "--n", "10", "-B", "2", "--seed",
          "1", "--sigma-methods", "plugin", "bogus"],
         "argument --sigma-methods: unknown sigma method 'bogus'; expected "
         "one of exact-quadrature, exact-moments, plugin, replication"),
    ], ids=["kind", "sigma", "mode", "sigma-methods"])
    def test_unknown_name_shows_the_parser_message(self, capsys, argv,
                                                   message):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(f"error: {message}\n")

    @pytest.mark.parametrize("law, message", [
        (("beta", "2", "0.5"),
         "exact-quadrature sigma needs a density bounded at x = 1, but "
         "beta(2, 0.5) has b = 0.5 < 1; use exact-moments"),
        (("fisher", "5", "8.8"),
         "exact-quadrature sigma of fisher(5, 8.8): the upper tail has not "
         "settled after 60 blocks [x, 2x] up to x = 3.78302e+20; use "
         "exact-moments"),
        (("beta", "1e-8", "1e8"),
         "exact-quadrature sigma of beta(1e-08, 1e+08): E[L] came to "
         "33468064.93, not c1 m1 + c2 m2 = 0.9999999851; the rule has not "
         "resolved the density; use exact-moments")],
        ids=["beta", "fisher", "beta-tiny-a"])
    def test_quadrature_refusal_keeps_exact_moments(self, capsys, law,
                                                    message):
        code, out, err = run_cli(capsys, "coeffs", *law)
        assert (code, err) == (EXIT_OK, "")
        lines = out.splitlines()
        assert lines[3].startswith("sigma [exact-moments]: s11=")
        assert lines[4:] == [f"sigma [exact-quadrature]: refused: {message}"]
        code, out, err = run_cli(capsys, "coeffs", *law, "--format", "json")
        assert (code, err) == (EXIT_OK, "")
        doc = json.loads(out)
        assert doc["sigma_exact_quadrature"] == {"refused": message}
        assert doc["sigma_exact_moments"]["method"] == "exact-moments"

    def test_moment_overflow_names_the_moment(self, capsys):
        """Gamma(1e300, 1e-10) has m1 = a / b = 1e310, which overflows in
        the quotient, not in a power."""
        code, out, err = run_cli(capsys, "coeffs", "gamma", "1e300", "1e-10")
        assert (code, out) == (EXIT_INPUT, "")
        assert err == ("error: the first moment of gamma(1e+300, 1e-10) is "
                       "out of floating-point range\n")

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

    @pytest.mark.parametrize("mode", ["canonical", "verbatim"])
    def test_variance_square_underflow_exit_input(self, capsys, mode):
        """Gamma(1e-202, 2) has variance 2.5e-203, whose square is 0."""
        code, out, err = run_cli(capsys, "coeffs", "gamma", "1e-202", "2",
                                 "--mode", mode)
        assert code == EXIT_INPUT
        assert out == ""
        assert err.startswith("error: gamma ") and err.count("\n") == 1
        assert "underflows to 0" in err


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

    @pytest.mark.parametrize("argv", [
        ("estimate", "uniform"), ("test", "uniform", "0", "1")],
        ids=["estimate", "test"])
    def test_uniform_zero_spread_refused(self, capsys, tmp_path, argv):
        path = write_sample(tmp_path, [2.0, 2.0, 2.0])
        code, out, err = run_cli(capsys, *argv, "--input", path)
        assert (code, out) == (EXIT_INPUT, "")
        assert err == ("error: uniform estimator requires S^2 > 0, "
                       "got S^2=0.0\n")

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


class TestOversizedCsvCell:
    """A cell the CSV reader refuses is an input error, not a traceback."""

    @pytest.mark.parametrize("command", [
        ("estimate", "uniform"), ("test", "gamma", "2", "3")])
    @pytest.mark.parametrize("lines, lineno", [
        (["id,value", "1,0.5", "2,{big}", "3,0.75"], 3),
        (["id,value{big}", "1,0.5"], 1),
        (["id,value", "1,0.5", "{big},0.25"], 3),
    ], ids=["row", "header", "unread-column"])
    def test_exit_input_with_line(self, capsys, tmp_path, command, lines,
                                  lineno):
        big = "9" * (csv.field_size_limit() + 1)
        path = tmp_path / "sample.csv"
        path.write_text("\n".join(lines).format(big=big) + "\n",
                        encoding="utf-8")
        code, out, err = run_cli(capsys, *command, "--input", str(path),
                                 "--column", "value")
        assert code == EXIT_INPUT
        assert out == ""
        assert err == (f"error: {path}:{lineno}: field larger than field "
                       f"limit ({csv.field_size_limit()})\n")

    def test_bad_value_before_it_wins(self, capsys, tmp_path):
        big = "9" * (csv.field_size_limit() + 1)
        path = tmp_path / "sample.csv"
        path.write_text(f"id,value\n1,x\n2,{big}\n", encoding="utf-8")
        code, _, err = run_cli(capsys, "estimate", "gamma", "--input",
                               str(path), "--column", "value")
        assert code == EXIT_INPUT
        assert err == f"error: {path}:2: could not parse 'x' as a number\n"


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


class TestUndecodableInput:
    """A file that is not UTF-8 is an input error naming the file, not a
    UnicodeDecodeError traceback."""

    @pytest.mark.parametrize("command", [
        ("estimate", "gamma"), ("test", "gamma", "2", "3")])
    @pytest.mark.parametrize("name, data, column, position", [
        ("sample.txt", b"1.0\n\xff\n", (), 4),
        ("sample.csv", b"id,x\n1,0.5\n2,\xff\n", ("--column", "x"), 13),
    ], ids=["plain", "csv"])
    def test_exit_input_naming_file(self, capsys, tmp_path, command, name,
                                    data, column, position):
        path = tmp_path / name
        path.write_bytes(data)
        code, out, err = run_cli(capsys, *command, "--input", str(path),
                                 *column)
        assert code == EXIT_INPUT
        assert out == ""
        assert err == (f"error: cannot read {path}: 'utf-8' codec can't "
                       f"decode byte 0xff in position {position}: invalid "
                       f"start byte\n")


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


def reference_read_sample(path, column):
    """The cell-by-cell reader that ``read_sample`` must agree with: each
    cell is stripped, then parsed and checked by ``_number`` in file
    order."""
    text = Path(path).read_text(encoding="utf-8-sig")
    values = []
    if column is None:
        for lineno, line in enumerate(text.splitlines(), start=1):
            cell = line.split("#", 1)[0].strip()
            if cell:
                values.append(_number(cell, path, lineno))
    else:
        reader = csv.reader(io.StringIO(text))
        header = next(reader, None)
        if header is None or column not in header:
            raise SampleParseError(
                f"{path}: no CSV column named {column!r} (found {header})")
        if header.count(column) > 1:
            raise SampleParseError(
                f"{path}: CSV column {column!r} is named more than once")
        index = header.index(column)
        for row in reader:
            cell = row[index].strip() if index < len(row) else ""
            if cell:
                values.append(_number(cell, path, reader.line_num))
    if not values:
        raise SampleParseError(f"{path}: no values found")
    return np.array(values)


def read_outcome(reader, path, column):
    """The bytes of the values read, or the message of the parse error."""
    try:
        return reader(path, column).tobytes()
    except SampleParseError as exc:
        return str(exc)


class TestReadSample:
    """``read_sample`` pinned to the bits of its values, or to the exact
    message of its first error in file order."""

    #: every line boundary of ``str.splitlines``
    BOUNDARIES = ("\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d",
                  "\x1e", "\x85", "\u2028", "\u2029")

    CASES = {
        **{"comment-ends-at-" + "-".join(f"U+{ord(c):04X}" for c in brk):
           (f"1.5#c{brk}2.5".encode(), None, [1.5, 2.5])
           for brk in BOUNDARIES},
        "csv-hash-stays-in-cell": (b"id,value\n1,1.5\n2,2.5#c\n", "value",
                                   ":3: could not parse '2.5#c' as a "
                                   "number"),
        "crlf": (b"1.5\r\n2.5\r\n", None, [1.5, 2.5]),
        "bare-cr": (b"1.5\r2.5\r", None, [1.5, 2.5]),
        "form-feed": (b"1.5\x0c2.5\n", None, [1.5, 2.5]),
        "file-separator": (b"1.5\x1c2.5\n", None, [1.5, 2.5]),
        "line-separator": ("1.5\u20282.5".encode(), None, [1.5, 2.5]),
        "tab-nbsp-comment": ("\t1.5\xa0\n\xa0 2.5\t# note\n  # only\n"
                             .encode(), None, [1.5, 2.5]),
        "unit-separator": (b"\x1f2.5\x1f\n", None, [2.5]),
        "numerals": ("1_000\n\u0661\u0662\n+.5\n-0.0\n1e-320\n".encode(),
                     None, [1000.0, 12.0, 0.5, -0.0, 1e-320]),
        "parse-before-inf": (b"1\nx\ninf\n", None,
                             ":2: could not parse 'x' as a number"),
        "inf-before-parse": (b"1\ninf\nx\n", None,
                             ":2: 'inf' is not a finite number"),
        "line-separator-numbers-lines": ("1\u2028x\n".encode(), None,
                                         ":2: could not parse 'x' as a "
                                         "number"),
        "nan-with-comment": (b"0.5 # ok\n -nan # no\n", None,
                             ":2: '-nan' is not a finite number"),
        "csv-crlf": (b"id,value\r\n1,1.5\r\n2,x\r\n", "value",
                     ":3: could not parse 'x' as a number"),
        "csv-whitespace": ("id,value\n1,\x1f1.5\x1c\n2,\xa0-0.0\t\n"
                           .encode(), "value", [1.5, -0.0]),
        "csv-quoted-two-lines": (b'id,value\n"a\nb",1.5\n3,x\n', "value",
                                 ":4: could not parse 'x' as a number"),
        "csv-bad-quoted-cell": (b'id,value\n1,1.5\n2,"x\ny"\n3,inf\n',
                                "value",
                                ":4: could not parse 'x\\ny' as a number"),
        "csv-inf-before-parse": (b"id,value\n1,Infinity\n2,x\n", "value",
                                 ":2: 'Infinity' is not a finite number"),
        "csv-parse-before-nan": (b"id,value\n1,1..5\n2,nan\n", "value",
                                 ":2: could not parse '1..5' as a number"),
        "csv-quoted-header": (b'"id","value"\n1,1.5\n2,-2e-3\n', "value",
                              [1.5, -2e-3]),
        "csv-quoted-comma-keeps-columns": (b'a,b,value\n"1,2",3.5,4.5\n'
                                           b"3,4,5\n", "value", [4.5, 5.0]),
        "csv-row-longer-than-header": (b"id,value\n1,1.5,9\n2,2.5,x,y\n",
                                       "value", [1.5, 2.5]),
        "csv-header-only": (b"id,value\n", "value", ": no values found"),
        "csv-nul-in-cell": (b"id,value\n1,1.5\n2,2\x005\n", "value",
                            ":3: could not parse '2\\x005' as a number"),
    }

    @pytest.mark.parametrize("name", CASES)
    def test_table(self, tmp_path, name):
        data, column, expected = self.CASES[name]
        path = tmp_path / "sample"
        path.write_bytes(data)
        got = read_outcome(read_sample, str(path), column)
        if isinstance(expected, str):
            assert got == f"{path}{expected}"
        else:
            assert got == np.array(expected).tobytes()

    def test_header_only_csv_prints_one_error_line(self, capsys, tmp_path):
        path = tmp_path / "sample.csv"
        path.write_text("id,value\n", encoding="utf-8")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(capsys, "estimate", "gamma", "--input",
                                     str(path), "--column", "value")
        assert code == EXIT_INPUT
        assert out == ""
        assert err == f"error: {path}: no values found\n"
        assert caught == []

    def test_unquoted_csv_read_in_one_c_call(self, tmp_path, monkeypatch):
        """An unquoted CSV column does not go through the Python pass, and
        its values have the bits ``float`` gives each cell."""
        def python_pass(*args):
            raise AssertionError("read an unquoted CSV in the Python pass")

        monkeypatch.setattr(momest.cli, "_cells", python_pass)
        cells = [f"{(k - 1000) * 0.7310585786300049:.22g}e{k % 41 - 20}"
                 for k in range(2000)]
        path = tmp_path / "sample.csv"
        path.write_text("id,value,note\n" + "".join(
            f"{k},{cell},n{k}\r\n" for k, cell in enumerate(cells)),
            encoding="utf-8")
        got = read_sample(str(path), "value")
        want = np.array([float(cell) for cell in cells])
        assert got.tobytes() == want.tobytes()

    def test_comment_between_cr_and_lf_keeps_its_line(self):
        """A comment removed from between "\\r" and "\\n" does not join them
        into one line boundary, whatever newline translation the text has
        been through."""
        cells, _ = _cells("1\r#c\nx", "sample", None)
        assert [cell.strip() for cell in cells] == ["1", "", "x"]

    @pytest.mark.parametrize("column", [None, "value"])
    def test_separator_padded_cells_keep_their_values(self, tmp_path,
                                                      column):
        """Cells ending in U+001C to U+001F, which ``float`` does not strip
        itself, read as the values before the separator.  (In a plain file
        U+001C to U+001E also end the line; U+001F stays in the cell.)"""
        cells = [f"{k / 7!r}{chr(0x1C + k % 4)}" for k in range(2000)]
        lines = cells if column is None else [
            f"{k},{cell}" for k, cell in enumerate(cells)]
        header = [] if column is None else ["id,value"]
        path = tmp_path / "sample"
        path.write_text("\n".join(header + lines) + "\n", encoding="utf-8")
        got = read_sample(str(path), column)
        want = np.array([k / 7 for k in range(2000)])
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("column, header, suffix", [
        (None, "# draws \u00e9\n", "#\u00e9"),
        ("value", '"id","value"\n', ""),
    ], ids=["plain-non-ascii", "csv-quoted"])
    def test_python_pass_splits_the_text_once(self, tmp_path, monkeypatch,
                                              column, header, suffix):
        """A file the C pass leaves to the Python pass, with a bad cell on
        its last line, is split into cells once, and the error names that
        cell and its line."""
        calls = []

        def counted(*args):
            calls.append(args)
            return _cells(*args)

        monkeypatch.setattr(momest.cli, "_cells", counted)
        rows = [f"{k / 7!r}{suffix}" for k in range(500)] + ["x"]
        if column is not None:
            rows = [f"{k},{row}" for k, row in enumerate(rows)]
        path = tmp_path / "sample"
        path.write_text(header + "\n".join(rows) + "\n", encoding="utf-8")
        with pytest.raises(SampleParseError, match=(
                f"^{re.escape(str(path))}:502: could not parse 'x' as a "
                f"number$")):
            read_sample(str(path), column)
        assert len(calls) == 1

    TOKENS = (list("0123456789") + ["-", "+", ".", "e", "E", "_", "#", " ",
              "\t", "\xa0", "\x1c", "\x1f", "\u2028", "\x0c", "\r\n", "\r",
              "\n", "nan", "inf", "\u0661", "x", ",", '"'])
    FLOAT = st.floats(allow_nan=True, allow_infinity=True).map(repr)
    INTEGER = st.integers(-10 ** 6, 10 ** 6).map(str)
    NONFINITE = st.sampled_from(["nan", "-inf", "1e400", "Infinity"])
    JUNK = st.lists(st.sampled_from(TOKENS), max_size=6).map("".join)
    CELL = st.one_of(FLOAT, FLOAT, FLOAT, INTEGER, INTEGER, NONFINITE, JUNK)
    PAD = st.sampled_from(["", " ", "\t", "\xa0", "\x1f", "\u3000"])
    BREAK = st.sampled_from(["\n", "\n", "\r\n", "\r", "\x0b", "\x0c",
                             "\x1c", "\x1d", "\x1e", "\x85", "\u2028",
                             "\u2029"])
    COMMENT = st.sampled_from(["", "", "# c", "#"])

    @settings(max_examples=60, deadline=None)
    @given(lines=st.lists(st.tuples(PAD, CELL, PAD, COMMENT, BREAK),
                          max_size=8),
           as_csv=st.booleans(), bom=st.booleans())
    def test_matches_reference_reader(self, lines, as_csv, bom):
        if as_csv:
            # a CSV row ends only at "\n" or "\r"; other breaks stay in the
            # cell, where they are whitespace
            text = "id,value\n" + "".join(
                f"{i},{pad}{cell}{end}{brk}" + ("" if brk in "\r\n" else "\n")
                for i, (pad, cell, end, _, brk) in enumerate(lines))
            column = "value"
        else:
            text = "".join("".join(line) for line in lines)
            column = None
        with tempfile.TemporaryDirectory() as tmp:
            path = str(Path(tmp) / "sample")
            Path(path).write_bytes(("\ufeff" if bom else "").encode()
                                   + text.encode())
            assert (read_outcome(read_sample, path, column)
                    == read_outcome(reference_read_sample, path, column))

    ASCII_TOKENS = (list("0123456789") + ["-", "+", ".", "e", "_", "#", " ",
                    "\t", "\x1f", ",", "nan", "inf", "x", "\r", "\r\n",
                    "\n"])
    ASCII_CELL = st.one_of(
        FLOAT, FLOAT, FLOAT, INTEGER, INTEGER, NONFINITE,
        st.lists(st.sampled_from(ASCII_TOKENS), max_size=6).map("".join))
    ASCII_PAD = st.sampled_from(["", "", " ", "\t", " \t", "\x1f"])
    ASCII_BREAK = st.sampled_from(["\n", "\n", "\n", "\r\n", "\r"])

    @settings(max_examples=150, deadline=None)
    @given(lines=st.lists(st.tuples(ASCII_PAD, ASCII_CELL, ASCII_PAD,
                                    COMMENT, ASCII_BREAK), max_size=8),
           as_csv=st.booleans(), bom=st.booleans())
    def test_ascii_files_match_reference_reader(self, lines, as_csv, bom):
        """ASCII files, which mostly take the C pass: padded cells,
        trailing comments, CRLF and bare CR, and an extra CSV column."""
        if as_csv:
            text = "id,value,note\n" + "".join(
                f"{i},{pad}{cell}{end},n{comment}{brk}"
                for i, (pad, cell, end, comment, brk) in enumerate(lines))
            column = "value"
        else:
            text = "".join("".join(line) for line in lines)
            column = None
        with tempfile.TemporaryDirectory() as tmp:
            path = str(Path(tmp) / "sample")
            Path(path).write_bytes(("\ufeff" if bom else "").encode()
                                   + text.encode())
            assert (read_outcome(read_sample, path, column)
                    == read_outcome(reference_read_sample, path, column))

    def test_plain_file_read_in_one_c_call(self, tmp_path, monkeypatch):
        """A plain ASCII file with a byte-order mark, a comment line, CRLF
        line ends, padded cells and trailing comments does not go through
        the Python pass, and its values have the bits ``float`` gives each
        cell."""
        def python_pass(*args):
            raise AssertionError("read a plain ASCII file in the Python pass")

        monkeypatch.setattr(momest.cli, "_cells", python_pass)
        cells = [f"{(k - 1000) * 0.7310585786300049:.22g}e{k % 41 - 20}"
                 for k in range(2000)]
        pads = ["", " ", "\t", " \t "]
        comments = ["", "# note", "#", " # k"]
        path = tmp_path / "sample.txt"
        path.write_bytes(b"\xef\xbb\xbf# draws of a test law\r\n" + "".join(
            f"{pads[k % 4]}{cell}{pads[k % 3]}{comments[k % 4]}\r\n"
            for k, cell in enumerate(cells)).encode())
        got = read_sample(str(path), None)
        want = np.array([float(cell) for cell in cells])
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("lines", [
        ["1.5 2.5"], ["1.5 2.5", "3.5 4.5", "5.5\t6.5"],
    ], ids=["one-line", "every-line"])
    def test_two_numbers_on_a_line_refused(self, tmp_path, lines):
        """A plain line of two numbers is one bad cell, however many lines
        share its shape."""
        path = tmp_path / "sample.txt"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(SampleParseError, match=(
                f"^{re.escape(str(path))}:1: could not parse '1.5 2.5' as "
                f"a number$")):
            read_sample(str(path), None)

    @pytest.mark.parametrize("rows", [
        ["1,,n1"], ["1,\r\n2,2.5"], [",1.5,n0"], ["1,"],
        ["1,2.5,n1"] * 3 + ["4,,n4"],
    ], ids=["comma-comma", "comma-crlf", "leading", "trailing", "late"])
    def test_blank_cell_reads_as_reference_reader(self, tmp_path, rows):
        """A CSV with a blank cell, in the column read or another one, reads
        the values of the reference reader, which skips the cell."""
        column = "id" if rows[0].startswith(",") else "value"
        path = tmp_path / "sample.csv"
        path.write_text("id,value,note\n" + "\n".join(rows + ["9,0.5,n"]),
                        encoding="utf-8")
        got = read_sample(str(path), column)
        assert got.tobytes() == reference_read_sample(str(path),
                                                      column).tobytes()

    def test_blank_cells_in_unread_columns_read_in_one_c_call(
            self, tmp_path, monkeypatch):
        """Blank cells outside the column read do not send a CSV to the
        Python pass, and its values have the bits ``float`` gives each
        cell."""
        def python_pass(*args):
            raise AssertionError("read a CSV whose read column has no blank "
                                 "cell in the Python pass")

        monkeypatch.setattr(momest.cli, "_cells", python_pass)
        cells = [f"{(k - 1000) * 0.7310585786300049:.22g}e{k % 41 - 20}"
                 for k in range(2000)]
        path = tmp_path / "sample.csv"
        path.write_text("id,value,note\n" + "".join(
            f"{'' if k % 7 == 3 else k},{cell},\n"
            for k, cell in enumerate(cells)), encoding="utf-8")
        got = read_sample(str(path), "value")
        want = np.array([float(cell) for cell in cells])
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("suffix", [".bz2", ".gz", ".lzma", ".xz"])
    def test_suffix_loadtxt_decompresses_skips_the_c_pass(
            self, tmp_path, monkeypatch, suffix):
        """``np.loadtxt`` opens a path with these suffixes through a
        decompressor, so it must not read the file the checks saw."""
        def loadtxt(*args, **kwargs):
            raise AssertionError(f"ran loadtxt on a {suffix} file")

        monkeypatch.setattr(momest.cli.np, "loadtxt", loadtxt)
        path = tmp_path / f"sample{suffix}"
        path.write_text("1.5\n2.5\n", encoding="utf-8")
        assert read_sample(str(path), None).tolist() == [1.5, 2.5]

    @pytest.mark.skipif(not os.path.exists("/dev/stdin"),
                        reason="no /dev/stdin")
    def test_pipe_read_once(self):
        """A pipe yields its bytes once: the C pass, which opens the path
        again, must not read it."""
        proc = subprocess.run(
            [sys.executable, "-m", "momest.cli", "estimate", "gamma",
             "--input", "/dev/stdin", "--format", "json"],
            input="1.5\n2.5\n3.5\n", capture_output=True, text=True,
            env=child_env(), timeout=120)
        assert proc.returncode == EXIT_OK, proc.stderr
        assert json.loads(proc.stdout)["n"] == 3


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

    def test_exact_quadrature_refuses_unresolved_beta_edge(self, capsys,
                                                          tmp_path):
        """Beta(0.001, 10): the rule cannot resolve x^(a-1) at x = 0, and
        its E[L] misses the closed form by 5.5e-4."""
        path = write_sample(tmp_path, [0.001, 0.01, 0.002, 0.3, 0.05])
        code, out, err = run_cli(capsys, "test", "beta", "0.001", "10",
                                 "--input", path, "--sigma",
                                 "exact-quadrature")
        assert (code, out) == (EXIT_INPUT, "")
        assert err.startswith("error: exact-quadrature sigma of beta(0.001, "
                              "10): E[L] came to ")
        assert err.endswith("; use exact-moments\n")
        code, _, _ = run_cli(capsys, "test", "beta", "0.001", "10",
                             "--input", path, "--sigma", "exact-moments")
        assert code in (EXIT_OK, EXIT_REJECT)

    @pytest.mark.parametrize("mode", ["canonical", "verbatim"])
    def test_variance_square_underflow_exit_input(self, capsys, tmp_path,
                                                  mode):
        path = write_sample(tmp_path, [1.0, 2.0, 3.0])
        code, out, err = run_cli(capsys, "test", "gamma", "1e-202", "2",
                                 "--input", path, "--mode", mode)
        assert code == EXIT_INPUT
        assert out == ""
        assert err.startswith("error: gamma ") and err.count("\n") == 1
        assert "underflows to 0" in err

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

    def test_out_name_too_long_refused_before_the_study(
            self, capsys, tmp_path, monkeypatch):
        """``Path.exists`` raises ENAMETOOLONG rather than returning
        False; the call still ends in one typed line naming the
        directory."""
        def no_study(*args, **kwargs):
            raise AssertionError("the study ran")

        monkeypatch.setattr(momest.cli, "run_simulation", no_study)
        out = tmp_path / ("x" * 300) / "out"
        code, stdout, err = run_cli(
            capsys, "simulate", "gamma", "2", "3", "--n", "20", "-B", "10",
            "--seed", "1", "--out", str(out))
        assert code == EXIT_INPUT
        assert stdout == ""
        assert err.startswith(f"error: cannot write the report to {out}: ")
        assert err.count("\n") == 1 and "File name too long" in err
        assert list(tmp_path.iterdir()) == []

    def test_failed_write_is_a_typed_error(self, capsys, tmp_path,
                                           monkeypatch):
        """An OSError of the writes (a full disk, no permission) ends in
        one line naming the directory, not a traceback."""
        def full_disk(report, outdir):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(momest.cli, "write_report", full_disk)
        out = tmp_path / "out"
        code, stdout, err = run_cli(
            capsys, "simulate", "gamma", "2", "3", "--n", "20", "-B", "10",
            "--seed", "1", "--out", str(out))
        assert code == EXIT_INPUT
        assert stdout == ""
        assert err == (f"error: cannot write the report to {out}: "
                       f"[Errno 28] No space left on device\n")

    @pytest.mark.parametrize("name", FILE_NAMES)
    def test_bundle_file_name_that_is_a_directory_refused_before_the_study(
            self, capsys, tmp_path, monkeypatch, name):
        def no_study(*args, **kwargs):
            raise AssertionError("the study ran")

        monkeypatch.setattr(momest.cli, "run_simulation", no_study)
        out = tmp_path / "out"
        (out / name).mkdir(parents=True)
        code, stdout, err = run_cli(
            capsys, "simulate", "gamma", "2", "3", "--n", "20", "-B", "10",
            "--seed", "1", "--out", str(out))
        assert code == EXIT_INPUT
        assert stdout == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(out / name) in err and "is a directory" in err
        assert [p.name for p in out.iterdir()] == [name]
        assert list((out / name).iterdir()) == []

    def test_rerun_without_ratios_leaves_no_ratio_table(self, capsys,
                                                        tmp_path):
        args = ["simulate", "gamma", "2", "3", "--n", "30", "-B", "20",
                "--seed", "4"]
        out, fresh = tmp_path / "out", tmp_path / "fresh"
        run_cli(capsys, *args, "--out", str(out), "--sigma-methods",
                "exact-moments", "exact-quadrature", "plugin", "replication")
        assert (out / "ratio_table.csv").is_file()
        code, stdout, _ = run_cli(capsys, *args, "--out", str(out),
                                  "--sigma-methods", "plugin")
        assert code == EXIT_OK
        assert "wrote 8 files" in stdout
        assert sorted(p.name for p in out.iterdir()) == sorted(
            set(FILE_NAMES) - {"ratio_table.csv"})
        assert json.loads((out / "report.json").read_text())["ratios"] is None
        run_cli(capsys, *args, "--out", str(fresh), "--sigma-methods",
                "plugin")
        for path in out.iterdir():
            assert path.read_bytes() == (fresh / path.name).read_bytes()

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


def parse_all(argv):
    """Parses ``argv`` with every command's arguments built."""
    return build_parser().parse_args(argv)


def run_parse(capsys, parse, argv):
    """The exit code (None if ``parse`` returns), stdout and stderr of
    ``parse(argv)``."""
    try:
        parse(list(argv))
        code = None
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParser:
    """``main`` builds only its own command's arguments; what a user sees
    of the parser is what a parser with every command built shows."""

    @pytest.mark.parametrize("argv", [
        ["-h"], ["coeffs", "-h"], ["estimate", "-h"], ["test", "-h"],
        ["simulate", "-h"],
        [],
        ["fit", "gamma"],
        ["test", "gamma", "2", "3", "--input", "s.txt", "--bogus"],
        ["coeffs", "gamma", "2"],
        ["test", "gamma", "2", "3", "--input", "s.txt", "--sigma", "bogus"],
        ["coeffs", "gamma", "2", "3", "--mode", "bogus"],
        ["estimate", "cauchy", "--input", "s.txt"],
        ["simulate", "gamma", "2", "3", "--n", "ten", "-B", "2", "--seed",
         "1"],
        ["test", "gamma", "2", "3", "--input", "s.txt", "coeffs"],
        ["test"],
        ["tes", "gamma"],
        ["estimate", "gamma", "--input", "s.txt", "--column"],
    ], ids=["help", "coeffs-help", "estimate-help", "test-help",
            "simulate-help", "no-arguments", "unknown-command",
            "unrecognised-option", "missing-positional", "bad-sigma",
            "bad-mode", "bad-kind", "non-integer-n", "left-over-positional",
            "command-alone", "near-miss-command", "option-without-value"])
    def test_texts_match_a_full_parser(self, capsys, argv):
        got = run_parse(capsys, main, argv)
        assert got == run_parse(capsys, parse_all, argv)
        code, out, err = got
        assert code == (0 if "-h" in argv else 2)
        assert (out if code == 0 else err) != ""
        if argv and argv[-1] in ("--bogus", "coeffs"):
            # what the command's parser leaves over, the root reports
            assert err.startswith(
                "usage: momest [-h] {coeffs,estimate,test,simulate} ...\n")
            assert err.endswith(f"unrecognized arguments: {argv[-1]}\n")
        elif argv and argv[0] in COMMANDS and code == 2:
            assert err.startswith(f"usage: momest {argv[0]} [-h] ")

    @pytest.mark.parametrize("argv", [
        ["coeffs", "fisher", "5", "12", "--mode", "paper", "--format",
         "json"],
        ["estimate", "beta", "--input", "s.csv", "--column", "x",
         "--format", "json"],
        ["test", "uniform", "0", "1", "--input", "s.txt", "--sigma",
         "plugin", "--mode", "verbatim"],
        ["simulate", "gamma", "2", "3", "--n", "20", "-B", "5", "--seed",
         "7", "--sigma-methods", "plugin", "replication", "--out", "d",
         "--workers", "2"],
        ["coeffs", "--", "gamma", "2", "3"],
        ["coeffs", "gamma", "2", "3", "--form", "json"],
    ], ids=["coeffs", "estimate", "test", "simulate", "separator",
            "abbreviated-option"])
    def test_namespace_matches_a_full_parser(self, monkeypatch, argv):
        seen = []
        entry = COMMANDS[argv[0]]
        monkeypatch.setitem(COMMANDS, argv[0], entry._replace(
            run=lambda args: seen.append(args) or EXIT_OK))
        assert main(argv) == EXIT_OK
        assert seen == [parse_all(argv)]

    def test_a_call_builds_only_its_own_command(self, capsys, tmp_path,
                                                monkeypatch):
        built, made = [], []
        add_argument = argparse.ArgumentParser.add_argument
        init = argparse.ArgumentParser.__init__

        def record(parser, *names, **kwargs):
            if kwargs.get("action") != "help":
                built.append(parser.prog)
            return add_argument(parser, *names, **kwargs)

        def construct(parser, *args, **kwargs):
            made.append(kwargs.get("prog"))
            init(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "add_argument", record)
        monkeypatch.setattr(argparse.ArgumentParser, "__init__", construct)
        path = write_sample(tmp_path, [1.0, 2.0, 4.0])
        code, _, _ = run_cli(capsys, "test", "gamma", "2", "3", "--input",
                             path)
        assert code in (EXIT_OK, EXIT_REJECT)
        assert made == ["momest test"]
        assert built == ["momest test"] * 8
        built.clear()
        build_parser()
        assert sorted(set(built)) == sorted(f"momest {name}"
                                            for name in COMMANDS)


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "momest.cli", "coeffs", "uniform", "0",
             "1", "--format", "json"],
            capture_output=True, text=True, env=child_env())
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        assert doc["influence_a"]["c1"] == pytest.approx(4.0, rel=1e-10)

    @staticmethod
    def console_commands():
        """The ``momest`` script declared in pyproject.toml, run the way the
        pip-generated wrapper runs its target, and, where an installed
        ``momest`` is on PATH, that script too."""
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
        return commands

    def run_console(self, *argv):
        return [subprocess.run(command + list(argv), capture_output=True,
                               text=True, env=child_env())
                for command in self.console_commands()]

    def test_console_script_if_installed(self):
        for proc in self.run_console("coeffs", "gamma", "2", "3"):
            assert proc.returncode == 0, proc.stderr
            assert "s11=12" in proc.stdout

    def test_console_script_help_lists_every_command(self):
        for proc in self.run_console("-h"):
            assert proc.returncode == 0, proc.stderr
            assert "{coeffs,estimate,test,simulate}" in proc.stdout
            for name, entry in COMMANDS.items():
                assert re.search(rf"^ +{name} +{re.escape(entry.help)}$",
                                 proc.stdout, re.M), name

    def test_console_script_without_arguments(self):
        for proc in self.run_console():
            assert proc.returncode == 2
            assert proc.stdout == ""
            assert proc.stderr.endswith(
                "the following arguments are required: command\n")

    @staticmethod
    def exit_and_scipy_modules(argv):
        """The exit code of ``cli.main(argv)`` in a fresh interpreter, and
        the scipy modules loaded there when it returns, as one line."""
        script = ("import sys; from momest.cli import main; "
                  f"code = main({argv!r}); "
                  "print(code, sorted(m for m in sys.modules "
                  "if m.split('.')[0] == 'scipy'))")
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, env=child_env())
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.splitlines()[-1]

    def test_estimate_never_imports_scipy(self, tmp_path):
        """``estimate`` calls no special function, so a process that runs
        it through ``cli.main`` never imports scipy."""
        data = tmp_path / "x.txt"
        data.write_text("1.5\n2.5\n3.1\n0.7\n")
        argv = ["estimate", "gamma", "--input", str(data)]
        assert self.exit_and_scipy_modules(argv) == f"{EXIT_OK} []"

    @pytest.mark.parametrize("sigma", ["exact-moments", "plugin"])
    def test_test_never_imports_scipy(self, tmp_path, sigma):
        """The marginal p-values come from the Cephes ``ndtr`` port and
        the omnibus p-value is a closed form, so ``test`` with a Σ that
        needs no quadrature never imports scipy."""
        path = write_sample(tmp_path, sample(LawSpec.gamma(2.0, 3.0), 200, 1))
        argv = ["test", "gamma", "2", "3", "--input", path, "--sigma", sigma]
        assert self.exit_and_scipy_modules(argv) == f"{EXIT_OK} []"

    def test_test_with_exact_quadrature_still_runs(self, tmp_path):
        """The quadrature Σ imports scipy for its quantiles on demand."""
        path = write_sample(tmp_path, sample(LawSpec.gamma(2.0, 3.0), 200, 1))
        argv = ["test", "gamma", "2", "3", "--input", path, "--sigma",
                "exact-quadrature"]
        assert self.exit_and_scipy_modules(argv).startswith(f"{EXIT_OK} [")

    def test_simulate_with_the_default_sigma_never_imports_scipy(
            self, tmp_path):
        """A study counts marginal rejections against ``Z_CRIT`` and its
        qq quantiles come from the Cephes ``ndtri`` port."""
        argv = ["simulate", "gamma", "2", "3", "--n", "50", "-B", "20",
                "--seed", "1", "--out", str(tmp_path / "out")]
        assert self.exit_and_scipy_modules(argv) == f"{EXIT_OK} []"
