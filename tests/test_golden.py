"""Frozen SHA-256 digests of sampler output, one simulate bundle and the JSON
stdout of ``coeffs`` and ``test``.

The values were frozen before the Σ routes, influence values and
serialisers were merged into one definition each, and they must not move
under refactoring: a changed digest means changed output bytes.  Re-freeze
one only for a deliberate change of output, and say so in CHANGES.md.
"""

import hashlib

import pytest

from momest import (LawSpec, SigmaMethod, SimulationConfig, run_simulation,
                    sample, write_report)
from momest.cli import EXIT_OK, main


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


SAMPLE_N = 1000
SAMPLE_SEED = 2024

#: sample(law, SAMPLE_N, SAMPLE_SEED).tobytes(); Gamma(0.5, 2) takes the
#: shape-below-1 boost, Beta and Fisher the two-gamma paths.
SAMPLE_DIGESTS = {
    "gamma(2, 3)":
        "ccec829394df9750d01b64cc2fe4a4c0dd710af208f51c10e59b90d184eb69fd",
    "gamma(0.5, 2)":
        "7034c9b582e4a77223720c0a3bb306aefad08ad5276546cc273e6d467b66816f",
    "beta(2, 3)":
        "99d6cfed850a4b8ab29e4b46a23706554bce3d8fad872978932d7bde29766429",
    "uniform(0, 1)":
        "127af520729eeff59ae43be27d0143c649ead61429a74a8570ca86feb55287dc",
    "fisher(5, 12)":
        "50ecd61b541283ca6356ccff48867b7c9a68f93a21ee999f3730f459700068ac",
}

SAMPLE_LAWS = [LawSpec.gamma(2.0, 3.0), LawSpec.gamma(0.5, 2.0),
               LawSpec.beta(2.0, 3.0), LawSpec.uniform(0.0, 1.0),
               LawSpec.fisher(5.0, 12.0)]


@pytest.mark.parametrize("law", SAMPLE_LAWS, ids=str)
def test_sample_bytes(law):
    data = sample(law, SAMPLE_N, SAMPLE_SEED).tobytes()
    assert sha256(data) == SAMPLE_DIGESTS[str(law)]


#: Every file of a Beta(2, 3) study at n=60, B=40, seed 31 with all four
#: sigma methods.
BUNDLE_DIGESTS = {
    "error_table.csv":
        "6dd527aa33ec1fec68fce7ed7fa7987cef005acb9c2a51725278d778d6af9317",
    "ratio_table.csv":
        "fe98ed876155270c330d5e3bbba8bd4729f5f8e21cdd3661ff43b4182eab5bbb",
    "pvalues.csv":
        "a1862d2d340b621c7bcef33a0699501350ca8d1a32a8ebe9819270d2417c1ec5",
    "omnibus.csv":
        "6aaec01ed0f0a6b25461a3c97ded2f9b06b25cec32aea77d74d4551fa4c22d14",
    "qq_a.csv":
        "d3bbbf4a27e5f28cfcab51bc053853582ec9684992ae9e4c8fd527e023a926f8",
    "qq_b.csv":
        "00012a9fff7973d22c4d62c8bb499df8e4b7d5a00d40ff7f7196ec485f64c8d8",
    "parzen_a.csv":
        "e0218edece8606b081747e769dcb4de2e98af3f3cf515e281f7a98936ebe51ee",
    "parzen_b.csv":
        "7afebaa7ca48c018e44642e9c98c421899ac7b496d20ac9028d4d28d221aecf4",
    "report.json":
        "aefc9c7ce635692735be130e2dc31c35e02e17e4f7ec91923682e3abe929711d",
}


def bundle_bytes(outdir) -> dict:
    cfg = SimulationConfig(law=LawSpec.beta(2.0, 3.0), n=60, replications=40,
                           master_seed=31, sigma_methods=tuple(SigmaMethod))
    paths = write_report(run_simulation(cfg), outdir)
    return {p.name: p.read_bytes() for p in paths}


def test_simulate_bundle(tmp_path):
    files = bundle_bytes(tmp_path)
    assert {name: sha256(data) for name, data in files.items()} \
        == BUNDLE_DIGESTS


LAW_ARGS = {"gamma": ("2", "3"), "beta": ("2", "3"), "uniform": ("0", "1"),
            "fisher": ("5", "12")}

#: stdout of ``coeffs KIND A B --mode MODE --format json``.  Verbatim Beta
#: is left out: its coefficients are the canonical gradient.
COEFFS_DIGESTS = {
    ("gamma", "canonical"):
        "c5d2855c832d35abc3df609595d8559be1b1f40a624f24b57089495a6895a2d2",
    ("beta", "canonical"):
        "b21e8f526c328a7752e4333245ff7f41c74f45bd994b3d2fdbca6871fede3806",
    ("uniform", "canonical"):
        "ff3a512dd179f6e58300c115e952ce996d3353b56608883af4f700bc980e655f",
    ("fisher", "canonical"):
        "72e9041c9e6d144ec3864d73135859313d10dff80269fd965235bf677d085d69",
    ("gamma", "verbatim"):
        "3ada1bc47c78d49ac1cf8d81014a8eadd2d8b740f94d00040df8695bb741470a",
    ("uniform", "verbatim"):
        "13732e462f312cedaae9a71aec95e5cc0670873338213d0631e117eb3b3f11b7",
    ("fisher", "verbatim"):
        "b24b90ab549706bd81e5c18e8a4eda217ad8d3d2c82b4325a0ed817a665997ac",
}


def run_cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


@pytest.mark.parametrize("kind,mode", list(COEFFS_DIGESTS),
                         ids=lambda v: v)
def test_coeffs_json(capsys, kind, mode):
    code, out = run_cli(capsys, "coeffs", kind, *LAW_ARGS[kind],
                        "--mode", mode, "--format", "json")
    assert code == EXIT_OK
    assert sha256(out.encode()) == COEFFS_DIGESTS[(kind, mode)]


#: (exit code, stdout digest) of ``test gamma 2 3 --sigma METHOD --format
#: json`` on 400 Gamma(2, 3) draws written one repr per line.
TEST_DIGESTS = {
    "exact-moments": (
        EXIT_OK,
        "932a4ba8e81449148aea6bfdd259657f9a899a6137c972e699ee5762526b8d71"),
    "exact-quadrature": (
        EXIT_OK,
        "222adc8d017129df82fe9ab71510070ee5b6243671520501b7812957c26f2393"),
    "plugin": (
        EXIT_OK,
        "12ff2880ae7a21bdc6b3640ea1aa5fbe1998f9608ac9802b7cf6c332440ded7e"),
}


def write_gamma_sample(tmp_path) -> str:
    path = tmp_path / "sample.txt"
    values = sample(LawSpec.gamma(2.0, 3.0), 400, seed=5)
    path.write_text("".join(f"{float(v)!r}\n" for v in values),
                    encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("method", list(TEST_DIGESTS))
def test_test_json(capsys, tmp_path, method):
    path = write_gamma_sample(tmp_path)
    code, out = run_cli(capsys, "test", "gamma", "2", "3", "--input", path,
                        "--sigma", method, "--format", "json")
    assert (code, sha256(out.encode())) == TEST_DIGESTS[method]
