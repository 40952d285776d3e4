"""The command-line interface: parsing, outputs, exit codes, file formats."""

import csv
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import momest
from momest import LawSpec, SampleParseError, sample
from momest.cli import (EXIT_INPUT, EXIT_OK, EXIT_REJECT, _number, main,
                        read_sample)


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


class TestOversizedCsvCell:
    """A cell the CSV reader refuses is an input error, not a traceback."""

    @pytest.mark.parametrize("command", [
        ("estimate", "uniform"), ("test", "gamma", "2", "3")])
    @pytest.mark.parametrize("lines, lineno", [
        (["id,value", "1,0.5", "2,{big}", "3,0.75"], 3),
        (["id,value{big}", "1,0.5"], 1),
    ], ids=["row", "header"])
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

    CASES = {
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

    @pytest.mark.parametrize("column", [None, "value"])
    def test_separator_padded_cells_need_no_walk(self, tmp_path, monkeypatch,
                                                 column):
        """Cells ending in U+001C to U+001F, which ``float`` does not strip
        itself, are read in the one pass; the cell-by-cell walk only ever
        raises a bad cell's error.  (In a plain file U+001C to U+001E also
        end the line; U+001F stays in the cell.)"""
        def walk(*args):
            raise AssertionError("walked a file with no bad cell")

        monkeypatch.setattr(momest.cli, "_walk_cells", walk)
        cells = [f"{k / 7!r}{chr(0x1C + k % 4)}" for k in range(2000)]
        lines = cells if column is None else [
            f"{k},{cell}" for k, cell in enumerate(cells)]
        header = [] if column is None else ["id,value"]
        path = tmp_path / "sample"
        path.write_text("\n".join(header + lines) + "\n", encoding="utf-8")
        got = read_sample(str(path), column)
        want = np.array([k / 7 for k in range(2000)])
        assert got.tobytes() == want.tobytes()

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
                             "\x1c", "\x1e", "\x85", "\u2028", "\u2029"])
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
