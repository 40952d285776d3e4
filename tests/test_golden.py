"""Frozen SHA-256 digests of sampler output, two simulate bundles, the
JSON and text stdout of ``coeffs`` and the JSON stdout of ``test``, and the
exact bits of the exact-quadrature Σ and of ``trapezoid_integrate``.

The values were frozen before the Σ routes, influence values and
serialisers were merged into one definition each, and they must not move
under refactoring: a changed digest means changed output bytes.  Re-freeze
one only for a deliberate change of output, and say so in CHANGES.md.
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from momest import (DEFAULT_QUAD_CONFIG, CoefficientMode, LawSpec,
                    QuadratureConfig, SigmaMethod, SimulationConfig,
                    covariance_exact_quadrature, influence_pair, pdf,
                    qq_plot_data, quantile, run_simulation, sample,
                    trapezoid_integrate, write_report)
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


#: Every file of a Fisher(5, 12) study in verbatim mode at n=10, B=2000,
#: seed 7 with all four sigma methods: 1105 replications are infeasible and
#: the aggregated plugin sigma is too close to singular for an omnibus rate.
FISHER_BUNDLE_DIGESTS = {
    "error_table.csv":
        "3b6e24447b4a567093c636b4d6c0e328c6de9debd681f67b6b2bb273f3f09644",
    "ratio_table.csv":
        "552c3bf1b9d80517d38037641e6cd239a0a65f9d8b821e1b461e119455650a21",
    "pvalues.csv":
        "f80f745337de5c5112c35708aec7a6b00276616b400fc010ae6f882c53a43a78",
    "omnibus.csv":
        "1f0aff27e60b5fdf8dc3eec9695f076d782729a783fbe5d445288c026a70b3d4",
    "qq_a.csv":
        "d6b74c019920d05af7dcc16dafb7da796d034aac8f902c9daec00634eaab8b29",
    "qq_b.csv":
        "be1489b7868c9ebe777b4427d08c2727874db5d75ad26108cc81a97028ea923b",
    "parzen_a.csv":
        "d8afc4fca41e3e6f5b13c5d1d7f2b00ae3966214075d36eaa9c12ef9cb89ee76",
    "parzen_b.csv":
        "4540bc82a6b2c37816da77c0efeb5bc4655cdd6407f3b9ec6f79c8d9aa9e4a8b",
    "report.json":
        "6db904f60a31c7a8b472bf567df32f5fd68655fc8a70811afb98e629df2f79bb",
}


def bundle_digests(cfg, outdir) -> dict:
    paths = write_report(run_simulation(cfg), outdir)
    return {p.name: sha256(p.read_bytes()) for p in paths}


def test_simulate_bundle(tmp_path):
    cfg = SimulationConfig(law=LawSpec.beta(2.0, 3.0), n=60, replications=40,
                           master_seed=31, sigma_methods=tuple(SigmaMethod))
    assert bundle_digests(cfg, tmp_path) == BUNDLE_DIGESTS


def test_simulate_bundle_fisher_verbatim(tmp_path):
    cfg = SimulationConfig(law=LawSpec.fisher(5.0, 12.0), n=10,
                           replications=2000, master_seed=7,
                           coefficient_mode=CoefficientMode.VERBATIM,
                           sigma_methods=tuple(SigmaMethod))
    assert bundle_digests(cfg, tmp_path) == FISHER_BUNDLE_DIGESTS


def test_bundles_after_other_sizes_keep_their_bytes(tmp_path):
    """The qq quantile column and the Parzen grid are rendered once per
    process for each feasible count: the Beta bundle (40 feasible), the
    Fisher bundle (895 feasible) and the Beta bundle again each keep their
    digests, also after an array ``qq_plot_data`` returned was written."""
    beta = SimulationConfig(law=LawSpec.beta(2.0, 3.0), n=60,
                            replications=40, master_seed=31,
                            sigma_methods=tuple(SigmaMethod))
    fisher = SimulationConfig(law=LawSpec.fisher(5.0, 12.0), n=10,
                              replications=2000, master_seed=7,
                              coefficient_mode=CoefficientMode.VERBATIM,
                              sigma_methods=tuple(SigmaMethod))
    assert bundle_digests(beta, tmp_path / "1") == BUNDLE_DIGESTS
    qq_plot_data(np.arange(40.0))[:, 0] = 0.0
    assert bundle_digests(fisher, tmp_path / "2") == FISHER_BUNDLE_DIGESTS
    assert bundle_digests(beta, tmp_path / "3") == BUNDLE_DIGESTS


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


#: stdout of ``coeffs KIND A B`` in the default text format and mode.
COEFFS_TEXT_DIGESTS = {
    "gamma":
        "0bad1230c16a2298343266b3a76d37667d727baccebfb159d556296ed7f9cc89",
    "beta":
        "6dfeb9ced8bbe983cac4ecd5996768a22b0ec8f9fd73ceecc5d0f69591bc848e",
    "uniform":
        "78f4938c570e52c5bbc8edcaac307f73ca22ffd158139eadb1ddc0a1e183880b",
    "fisher":
        "b3f28b06c98a801321b411be7a48e5072cedbf42a615dbbb8f2b959146cb11bf",
}


@pytest.mark.parametrize("kind", list(COEFFS_TEXT_DIGESTS))
def test_coeffs_text(capsys, kind):
    code, out = run_cli(capsys, "coeffs", kind, *LAW_ARGS[kind])
    assert code == EXIT_OK
    assert sha256(out.encode()) == COEFFS_TEXT_DIGESTS[kind]


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


def test_test_json_csv_input(capsys, tmp_path):
    """A CSV copy of the golden sample, read by ``--column``, prints the same
    bytes as the plain file."""
    plain = write_gamma_sample(tmp_path)
    lines = Path(plain).read_text(encoding="utf-8").splitlines()
    table = tmp_path / "sample.csv"
    table.write_text("index,value\n" + "".join(
        f"{i},{v}\n" for i, v in enumerate(lines)), encoding="utf-8")
    argv = ("test", "gamma", "2", "3", "--format", "json")
    from_plain = run_cli(capsys, *argv, "--input", plain)
    from_csv = run_cli(capsys, *argv, "--input", str(table),
                       "--column", "value")
    assert from_csv == from_plain
    assert sha256(from_csv[1].encode()) == TEST_DIGESTS["exact-moments"][1]


#: ``float.hex`` of (s11, s22, s12) from ``covariance_exact_quadrature`` at
#: the default settings: the four acceptance laws, the shape-below-1 edges
#: Gamma(0.5, 2) and Beta(0.5, 2), and Fisher(5, 10), whose quadrature runs
#: the upper-tail extension furthest.
QUADRATURE_SIGMA_BITS = {
    ("gamma(2, 3)", "canonical"):
        ("0x1.8000003063540p+3", "0x1.f800002cf2b3ep+4",
         "0x1.20000020ae240p+4"),
    ("gamma(2, 3)", "verbatim"):
        ("0x1.f0000076dad40p+5", "0x1.f800008333fa0p+4",
         "0x1.0800004cffc08p+5"),
    ("beta(2, 3)", "canonical"):
        ("0x1.f6db681df0d50p+2", "0x1.2924910e609f4p+4",
         "0x1.3ffffe0e4b5d0p+3"),
    ("beta(2, 3)", "verbatim"):
        ("0x1.f6db681df0d50p+2", "0x1.2924910e609f4p+4",
         "0x1.3ffffe0e4b5d0p+3"),
    ("uniform(0, 1)", "canonical"):
        ("0x1.111111bf3c8e0p-3", "0x1.11111111a8d27p-3",
         "0x1.11110ff97247ap-5"),
    ("uniform(0, 1)", "verbatim"):
        ("0x1.111111bf3c8e0p-3", "0x1.11111111a8d27p-3",
         "0x1.11110ff97247ap-5"),
    ("fisher(5, 12)", "canonical"):
        ("0x1.14db0047d9df6p+10", "0x1.51800003232c9p+11",
         "-0x1.481fffa52b974p+9"),
    ("fisher(5, 12)", "verbatim"):
        ("0x1.53903ee818c92p+7", "0x1.51800003232c9p+11",
         "0x1.f55555813d132p+8"),
    ("gamma(0.5, 2)", "canonical"):
        ("0x1.800000259bbfep+0", "0x1.0000000760ee8p+5",
         "0x1.80000012c6090p+2"),
    ("gamma(0.5, 2)", "verbatim"):
        ("0x1.c80000065c8f9p+6", "0x1.c0000046308f6p+5",
         "0x1.0800001a1aa80p+6"),
    ("beta(0.5, 2)", "canonical"):
        ("0x1.562a1c1997f40p-1", "0x1.a25addf2f1507p+3",
         "0x1.09f95889d66d2p+1"),
    ("beta(0.5, 2)", "verbatim"):
        ("0x1.562a1c1997f40p-1", "0x1.a25addf2f1507p+3",
         "0x1.09f95889d66d2p+1"),
    ("fisher(5, 10)", "canonical"):
        ("0x1.478ed0f396e23p+11", "0x1.5aaaaab09f58bp+10",
         "-0x1.9471c68df9f94p+8"),
    ("fisher(5, 10)", "verbatim"):
        ("0x1.1a4ab050242a0p+9", "0x1.5aaaaab09f58bp+10",
         "0x1.209999b325375p+9"),
}

QUADRATURE_LAWS = {str(law): law for law in (
    LawSpec.gamma(2.0, 3.0), LawSpec.beta(2.0, 3.0), LawSpec.uniform(0.0, 1.0),
    LawSpec.fisher(5.0, 12.0), LawSpec.gamma(0.5, 2.0), LawSpec.beta(0.5, 2.0),
    LawSpec.fisher(5.0, 10.0))}


@pytest.mark.parametrize("law,mode", list(QUADRATURE_SIGMA_BITS),
                         ids=lambda v: v)
def test_exact_quadrature_sigma_bits(law, mode):
    spec = QUADRATURE_LAWS[law]
    h, l = influence_pair(spec, CoefficientMode(mode))
    sig = covariance_exact_quadrature(spec, h, l)
    assert (sig.s11.hex(), sig.s22.hex(), sig.s12.hex()) == \
        QUADRATURE_SIGMA_BITS[(law, mode)]


TRAPEZOID_CONFIGS = {
    "default": DEFAULT_QUAD_CONFIG,
    "fixed-grid": QuadratureConfig(panels=64, tol=1e-300, max_doublings=3),
    "early-stop": QuadratureConfig(panels=7, tol=1e-4),
}

#: trapezoid_integrate of x^k pdf(x), k = 0..4, over [Q(1e-9), Q(1 - 1e-9)]
#: of each acceptance law: the default config, a fixed grid that never
#: stops early, and a coarse config that stops after few doublings.
TRAPEZOID_MOMENT_BITS = {
    ("gamma(2, 3)", "default"):
        ("0x1.ffffffe50a3a9p-1", "0x1.55555507d5748p-1",
         "0x1.555553012208cp-1", "0x1.c71c5e4cb4fdfp-1",
         "0x1.7b420d444fb90p+0"),
    ("gamma(2, 3)", "fixed-grid"):
        ("0x1.ffe81ffdbf847p-1", "0x1.5555546d2003bp-1",
         "0x1.55555326a5b07p-1", "0x1.c71c5e4d1073cp-1",
         "0x1.7b420d45db6a0p+0"),
    ("gamma(2, 3)", "early-stop"):
        ("0x1.fffe0cf2e3aa6p-1", "0x1.55548f6859f70p-1",
         "0x1.555593226a1e7p-1", "0x1.c71c7b4eb3a62p-1",
         "0x1.7b41379d33711p+0"),
    ("beta(2, 3)", "default"):
        ("0x1.ffffffe1b6c72p-1", "0x1.99999966001c2p-2",
         "0x1.99999933e1db0p-3", "0x1.d41d4108ce29ap-4",
         "0x1.2492485967d5ap-4"),
    ("beta(2, 3)", "fixed-grid"):
        ("0x1.ffff7ff16f467p-1", "0x1.99999934513bap-2",
         "0x1.999998d2afbfep-3", "0x1.d41d40466ea40p-4",
         "0x1.24924797223dep-4"),
    ("beta(2, 3)", "early-stop"):
        ("0x1.fffd634065eb6p-1", "0x1.9999004599da9p-2",
         "0x1.999387bd494b0p-3", "0x1.d41ae6dd5b073p-4",
         "0x1.248fc38a175e6p-4"),
    ("uniform(0, 1)", "default"):
        ("0x1.ffffffeed1f42p-1", "0x1.ffffffeed1f42p-2",
         "0x1.55555555a1361p-2", "0x1.0000000908d70p-2",
         "0x1.999999bd25343p-3"),
    ("uniform(0, 1)", "fixed-grid"):
        ("0x1.ffffffeed1f42p-1", "0x1.ffffffeed1f42p-2",
         "0x1.55557feed1efep-2", "0x1.00003feed1edbp-2",
         "0x1.999a4421e3d44p-3"),
    ("uniform(0, 1)", "early-stop"):
        ("0x1.ffffffeed1f43p-1", "0x1.ffffffeed1f44p-2",
         "0x1.5558d0e998226p-2", "0x1.00053966fb396p-2",
         "0x1.99a78805b94d6p-3"),
    ("fisher(5, 12)", "default"):
        ("0x1.ffffffe4800b1p-1", "0x1.333330dd60614p+0",
         "0x1.428eb1ab782d8p+1", "0x1.2233e2930153ep+3",
         "0x1.da89166b4cddap+5"),
    ("fisher(5, 12)", "fixed-grid"):
        ("0x1.fc3d88c5d6fdap-1", "0x1.334209c49722cp+0",
         "0x1.4291038bf65b4p+1", "0x1.2233e01ed553dp+3",
         "0x1.da8914cad2735p+5"),
    ("fisher(5, 12)", "early-stop"):
        ("0x1.fffec8c0bea94p-1", "0x1.33338343a3890p+0",
         "0x1.428eb38c13d29p+1", "0x1.2233e223173e6p+3",
         "0x1.da89163a4c58ap+5"),
}


@pytest.mark.parametrize("law,config", list(TRAPEZOID_MOMENT_BITS),
                         ids=lambda v: v)
def test_trapezoid_moment_bits(law, config):
    spec = QUADRATURE_LAWS[law]
    cfg = TRAPEZOID_CONFIGS[config]
    lo, hi = quantile(spec, 1e-9), quantile(spec, 1.0 - 1e-9)
    got = tuple(
        trapezoid_integrate(lambda x: x ** k * pdf(spec, x), lo, hi,
                            cfg).hex()
        for k in range(5))
    assert got == TRAPEZOID_MOMENT_BITS[(law, config)]


def test_trapezoid_quantile_integral_bits():
    law = LawSpec.gamma(2.0, 3.0)
    got = trapezoid_integrate(lambda u: quantile(law, u), 1e-9, 1.0 - 1e-9)
    assert got.hex() == "0x1.555557f66cf3fp-1"
