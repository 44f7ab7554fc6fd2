import hashlib
import json
import os
import resource
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from tamenorm import classfield, cli, qcomb
from tamenorm.fingroup import CATALOG_NAMES

GOLDEN = Path(__file__).parent / "golden"
GOLDEN_SAMPLES = {"S3": 20, "D8": 20, "S4": 8, "GL2F3": 2}


CHILD_ADDRESS_SPACE = 1 << 30  # bytes; a runaway child fails alone


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (CHILD_ADDRESS_SPACE, CHILD_ADDRESS_SPACE))


def run_cli(args, timeout=120):
    """Run the CLI in a child capped at 1 GB; a hang fails the test by timeout."""
    return subprocess.run(
        [sys.executable, "-m", "tamenorm.cli", *args],
        capture_output=True,
        text=True,
        timeout=timeout,
        preexec_fn=_cap_address_space,
    )


def run_inproc(args, tmp_path, name="cert.json"):
    out = tmp_path / name
    code = cli.main([*args, "--out", str(out)])
    return code, json.loads(out.read_text())


def test_end_to_end_norm_relation(tmp_path):
    code, cert = run_inproc(
        ["norm-relation", "--n", "1", "--ell", "5", "--disc", "-4",
         "--conductor", "1", "--alpha", "0:1", "0:1"],
        tmp_path,
    )
    assert code == 0
    assert cert["pass"] is True
    assert cert["schema"] == "trc-1"
    eigs = cert["results"]["step5_lfactor"]["level_ellm_chi_decomposition"]["eigenvalue_set"]
    assert sorted(eigs) == ["6/5 + 2/5*s", "6/5 - 2/5*s"]  # P(1), P(-1)
    assert cert["results"]["step4_class_groups"]["big"]["order"] == 2


def test_norm_relation_trivial_variant(tmp_path):
    # ell = 29 has trivial class-group growth direction at disc -4 conductor 1?
    # h(-4 * 29^2) > 1, so instead this checks the reduction to the
    # central value at the small level: the per-chi block at level m is the
    # single trivial character
    code, cert = run_inproc(
        ["norm-relation", "--n", "1", "--ell", "29", "--disc", "-4",
         "--conductor", "1", "--alpha", "0:1", "1:2"],
        tmp_path,
    )
    assert code == 0
    small = cert["results"]["step5_lfactor"]["level_m_group_algebra"]
    assert len(small["per_chi"]) == 1
    assert small["pass"]


def test_negative_control_fails(tmp_path):
    code, cert = run_inproc(
        ["norm-relation", "--n", "1", "--ell", "5", "--disc", "-4",
         "--conductor", "1", "--alpha", "0:1", "0:1", "--perturb-b1"],
        tmp_path,
    )
    assert code == 1
    assert cert["pass"] is False
    assert cert["first_failure"]["stage"] == "step3_phi"


def test_empty_command_usage_exit_2():
    proc = run_cli([])
    assert proc.returncode == 2


def test_config_error_exit_2(tmp_path):
    # ell = 3 is inert in Q(i): configuration error
    code = cli.main(["norm-relation", "--n", "1", "--ell", "3", "--disc", "-4",
                     "--alpha", "0:1", "0:1", "--out", str(tmp_path / "x.json")])
    assert code == 2



@pytest.mark.parametrize("alpha", ["0:0", "1:-3"])
def test_alpha_order_below_one_is_config_error(tmp_path, capsys, alpha):
    # a Satake parameter zeta_k^e needs k >= 1; no certificate is written
    out = tmp_path / "x.json"
    code = cli.main(["lfactor", "--n", "1", "--ell", "5", "--alpha", alpha, "1:2",
                     "--out", str(out)])
    assert code == 2
    assert "configuration error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("alpha", ["1:2:3", "", "x:2"])
def test_malformed_alpha_names_the_option(tmp_path, capsys, alpha):
    out = tmp_path / "x.json"
    code = cli.main(["lfactor", "--n", "1", "--ell", "5", "--alpha", alpha, "1:2",
                     "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "--alpha" in err and "e:k" in err
    assert "unpack" not in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["coeffs", "--n", "1200", "--ell", "2"],
    ["coeffs", "--n", "110", "--ell", "2"],
    ["coeffs", "--n", "80", "--ell", "7"],
    ["norm-relation", "--n", "1200", "--ell", "5", "--disc", "-4", "--alpha", "0:1", "0:1"],
])
def test_rank_beyond_printable_tables_is_config_error(tmp_path, args):
    # refused where n and ell are validated, before any table is built
    out = tmp_path / "x.json"
    proc = run_cli([*args, "--out", str(out)], timeout=30)
    assert proc.returncode == 2, proc.stderr
    assert "configuration error" in proc.stderr and "digit" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()


def test_norm_relation_alpha_count_checked_before_any_step(tmp_path, capsys, monkeypatch):
    def unreachable(*args):
        raise AssertionError("a step ran before --alpha was parsed")

    monkeypatch.setattr(classfield.TowerStep, "build", unreachable)
    monkeypatch.setattr(qcomb, "b_coefficients", unreachable)
    out = tmp_path / "x.json"
    code = cli.main(["norm-relation", "--n", "3", "--ell", "5", "--disc", "-4",
                     "--alpha", "0:1", "0:1", "--out", str(out)])
    assert code == 2
    assert "alpha values" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["tower", "--disc", "-4", "--m", "0", "--ell", "5"],
    ["tower", "--disc", "-4", "--m", "-5", "--ell", "5"],
    ["norm-relation", "--n", "1", "--ell", "5", "--disc", "-4", "--conductor", "0",
     "--alpha", "0:1", "0:1"],
])
def test_conductor_below_one_is_named_before_the_split_check(tmp_path, capsys, args):
    # m = 0 and m = -5 are divisible by ell, but the error is the conductor
    out = tmp_path / "x.json"
    code = cli.main([*args, "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert "configuration error: conductor must be >= 1" in err
    assert "split" not in err
    assert not out.exists()


def test_depth_below_one_is_config_error(tmp_path, capsys):
    # a lattice sweep at depth 0 checks no case, so it is refused, not passed
    out = tmp_path / "x.json"
    code = cli.main(["verify-incl-excl", "--n", "2", "--ell", "3", "--depth", "0",
                     "--out", str(out)])
    assert code == 2
    assert "configuration error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("samples", ["-5", "0", "1001"])
def test_samples_below_one_is_usage_error(tmp_path, samples):
    out = tmp_path / "x.json"
    proc = run_cli(["mackey-test", "--group", "S3", "--samples", samples, "--out", str(out)])
    assert proc.returncode == 2
    assert "--samples" in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("samples", ["1", str(cli.MAX_SAMPLES)])
def test_samples_at_the_bounds_are_accepted(samples):
    args = cli.build_parser().parse_args(["mackey-test", "--samples", samples])
    assert args.samples == int(samples)


def test_chi_order_beyond_bound_is_config_error(tmp_path):
    out = tmp_path / "x.json"
    proc = subprocess.run(
        [sys.executable, "-m", "tamenorm.cli", "lfactor", "--n", "1", "--ell", "5",
         "--alpha", "0:1", "1:2", "--chi-order", "100000", "--out", str(out)],
        capture_output=True, text=True, timeout=30,
    )
    assert proc.returncode == 2
    assert "configuration error" in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("args,message", [
    (["--n", "4", "--ell", "7", "--depth", "2"], "HNF candidates"),   # 4.9e10 of them
    (["--n", "3", "--ell", "7", "--depth", "4"], "HNF candidates"),   # 8.2e10 of them
    (["--n", "2", "--ell", "3", "--depth", "7"], "depth 7 exceeds bound"),
    (["--n", "0", "--ell", "3", "--depth", "1"], "n must be >= 1"),
    (["--n", "4", "--ell", "7", "--depth", "1"], "joins"),            # 6.7e6 of them
])
def test_lattice_request_beyond_bounds_is_config_error(tmp_path, args, message):
    # refused before anything is enumerated, so well inside the timeout
    out = tmp_path / "x.json"
    proc = subprocess.run(
        [sys.executable, "-m", "tamenorm.cli", "verify-incl-excl", *args, "--out", str(out)],
        capture_output=True, text=True, timeout=30,
    )
    assert proc.returncode == 2, proc.stderr
    assert "configuration error: " in proc.stderr and message in proc.stderr
    assert not out.exists()


def test_coeffs_large_prime_golden_certificate(tmp_path):
    # n = 1 at ell = 24989 enumerates orbits of up to ell - 1 matrices
    out = tmp_path / "cert.json"
    proc = subprocess.run(
        [sys.executable, "-m", "tamenorm.cli", "coeffs", "--n", "1", "--ell", "24989",
         "--out", str(out)],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.read_bytes() == (GOLDEN / "coeffs_n1_ell24989.json").read_bytes()


@pytest.mark.parametrize("args", [
    ["tower", "--disc", "-4", "--m", "1", "--ell", "0"],
    ["norm-relation", "--n", "1", "--ell", "0", "--disc", "-4", "--alpha", "0:1", "0:1"],
    ["coeffs", "--n", "1", "--ell", "1000000000000000003"],   # above matrices.MAX_PRIME
])
def test_ell_not_a_testable_prime_is_config_error(tmp_path, args):
    # refused before the Kronecker symbol or trial division is computed
    out = tmp_path / "x.json"
    proc = run_cli([*args, "--out", str(out)], timeout=30)
    assert proc.returncode == 2, proc.stderr
    assert "configuration error" in proc.stderr
    assert not out.exists()


def test_coeffs_closed_form_at_large_prime(tmp_path):
    # beyond the orbit bound the nu-image order is closed form, not a set of ell - 1
    out = tmp_path / "cert.json"
    proc = run_cli(["coeffs", "--n", "1", "--ell", "100000007", "--out", str(out)],
                   timeout=60)
    assert proc.returncode == 0, proc.stderr
    cert = json.loads(out.read_text())
    assert cert["results"]["a_coefficients"]["index_source"] == "closed_form"
    assert [row["nu_image_order"] for row in cert["results"]["a_coefficients"]["rows"]] \
        == [100000006, 1]


def test_coeffs_at_rank_25(tmp_path):
    out = tmp_path / "x.json"
    proc = run_cli(["coeffs", "--n", "25", "--ell", "2", "--out", str(out)], timeout=30)
    assert proc.returncode == 0, proc.stderr


def test_coeffs_certificate_and_csv(tmp_path):
    code, cert = run_inproc(["coeffs", "--n", "2", "--ell", "2"], tmp_path)
    assert code == 0
    assert cert["results"]["coefficient_table"]["b"] == [6, -18, 12]
    csv_path = tmp_path / "cert.csv"
    rows = [line.split(",") for line in csv_path.read_text().strip().splitlines()]
    assert rows[0] == ["r", "b_r", "a_r", "index_K_V1r", "nu_image_order"]
    assert [r[1] for r in rows[1:]] == ["6", "-18", "12"]


def test_verify_incl_excl_command(tmp_path):
    code, cert = run_inproc(
        ["verify-incl-excl", "--n", "2", "--ell", "3", "--depth", "2"], tmp_path
    )
    assert code == 0
    assert cert["results"]["inclusion_exclusion"]["pass"]
    assert cert["results"]["measure_identity"]["pass"]


def test_classgroup_command(tmp_path):
    code, cert = run_inproc(["classgroup", "--disc", "-4", "--conductor", "5"], tmp_path)
    assert code == 0
    assert cert["results"]["order"] == 2
    assert sorted(map(tuple, cert["results"]["forms"])) == [(1, 0, 25), (2, 2, 13)]


@pytest.mark.parametrize("disc,conductor,structure", [
    (-68, 8, [8, 4]),
    (-884, 2, [8, 4]),
    (-84, 9, [6, 6]),
])
def test_classgroup_structure_is_invariant_factors(tmp_path, disc, conductor, structure):
    code, cert = run_inproc(["classgroup", "--disc", str(disc), "--conductor",
                             str(conductor)], tmp_path)
    assert code == 0
    assert cert["results"]["structure"] == structure


def test_classgroup_above_order_cap_is_config_error(tmp_path, capsys):
    # h(-997751) = 1783 > fingroup.MAX_ORDER, within the |D| <= 10^6 bound
    out = tmp_path / "x.json"
    code = cli.main(["classgroup", "--disc", "-997751", "--out", str(out)])
    assert code == 2
    assert "configuration error" in capsys.readouterr().err
    assert not out.exists()


# sha256 of the certificates written by the exhaustive character search
CLASSGROUP_DIGESTS = {
    (-191, 7): "11a989258a420d3c85914a348334417b33da1cafae794b7a5fe57a8b74bc53ef",
    (-1199, 8): "10d24614eb54e6fe45a2330c9501773bad140917d13781d6012f38ddbe7f4631",
    (-999815, 1): "ee781e8c1b4a05ebf76221f5d2deffbb0158249e9f0b262941c986a3babc698c",
}


@pytest.mark.parametrize("disc,conductor", sorted(CLASSGROUP_DIGESTS))
def test_classgroup_certificate_digest(tmp_path, disc, conductor):
    out = tmp_path / "x.json"
    proc = run_cli(["classgroup", "--disc", str(disc), "--conductor", str(conductor),
                    "--out", str(out)], timeout=60)
    assert proc.returncode == 0, proc.stderr
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == CLASSGROUP_DIGESTS[disc, conductor]


def test_tower_certificate_digest_at_1000_classes(tmp_path):
    # h = 1000 at conductor 3, the class-group order cap
    out = tmp_path / "x.json"
    proc = run_cli(["tower", "--disc", "-108911", "--m", "1", "--ell", "3",
                    "--out", str(out)], timeout=60)
    assert proc.returncode == 0, proc.stderr
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == "a3f79231e2e8985fd4590b0e21ee46b4771f4406cf4612f2e24f6d95c89724a5"


def test_norm_relation_certificate_digest_at_311_classes(tmp_path):
    # h = 311 at both levels (conductors 1 and 2): step 5 at a prime class number
    out = tmp_path / "x.json"
    proc = run_cli(["norm-relation", "--n", "1", "--ell", "2", "--disc", "-40031",
                    "--alpha", "0:1", "0:1", "--out", str(out)], timeout=300)
    assert proc.returncode == 0, proc.stderr
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == "20b980cd900d5f8db5ea45df68e8742991bab036527faa0919444262d9298553"


# sha256 of coeffs certificates: the V_r indices of (3, 3) and (2, 7) come from
# orbit enumeration, those of (10, 2) from the closed form; n = 10 also pins the
# string order of the per-r and per-m keys ("1", "10", "2", ...)
COEFFS_DIGESTS = {
    (3, 3): "6b7c33ef8ccd6eaa20ec9c79db90a2159e64cfc17960de2eeef481c4044eb21d",
    (2, 7): "7581e36d334e9e37dbb7d5e2cbfeb3e1f91758a93c039d2006589f6bd9569b4e",
    (10, 2): "e3826026e1cd9355ce2113032a16e0e961940d448e9481de178848efb43f317f",
}


@pytest.mark.parametrize("n,ell", sorted(COEFFS_DIGESTS))
def test_coeffs_certificate_digest(tmp_path, n, ell):
    out = tmp_path / "x.json"
    proc = run_cli(["coeffs", "--n", str(n), "--ell", str(ell), "--out", str(out)], timeout=60)
    assert proc.returncode == 0, proc.stderr
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == COEFFS_DIGESTS[n, ell]


def test_classgroup_above_300_classes(tmp_path):
    # h(-100007) = 336, cyclic; the greedy generating set has 3 elements
    out = tmp_path / "x.json"
    proc = run_cli(["classgroup", "--disc", "-100007", "--out", str(out)], timeout=60)
    assert proc.returncode == 0, proc.stderr
    results = json.loads(out.read_text())["results"]
    assert results["order"] == 336
    assert len(set(map(tuple, results["characters"]))) == 336
    assert results["character_order"] == 336


def test_tower_command(tmp_path):
    code, cert = run_inproc(["tower", "--disc", "-4", "--m", "1", "--ell", "5"], tmp_path)
    assert code == 0
    assert cert["results"]["tower_step"]["degree"] == 2


def test_lfactor_command(tmp_path):
    code, cert = run_inproc(
        ["lfactor", "--n", "1", "--ell", "5", "--alpha", "0:1", "1:2",
         "--chi-order", "1"],
        tmp_path,
    )
    assert code == 0
    assert cert["results"]["tame_factor"] == "1"


def test_mackey_command(tmp_path):
    code, cert = run_inproc(
        ["mackey-test", "--group", "S3", "--model", "two", "--samples", "40",
         "--seed", "11"],
        tmp_path,
    )
    assert code == 0
    assert cert["results"]["hecke_convolution"]["cases_checked"] == 40


def test_mackey_generator_file(tmp_path):
    gen_file = tmp_path / "gens.json"
    gen_file.write_text(json.dumps({
        "modulus": 4,
        "name": "GL1mod4",
        "generators": [[[3]]],
    }))
    code, cert = run_inproc(
        ["mackey-test", "--generator-file", str(gen_file), "--samples", "20"],
        tmp_path,
    )
    assert code == 0
    assert cert["pass"]


def test_mackey_generator_file_echoes_its_group(tmp_path):
    gen_file = tmp_path / "gens.json"
    gen_file.write_text(json.dumps({
        "modulus": 3,
        "name": "GL2F3-file",
        "generators": [[[1, 1], [0, 1]], [[0, 2], [1, 0]]],
    }))
    code, cert = run_inproc(
        ["mackey-test", "--generator-file", str(gen_file), "--samples", "4"],
        tmp_path,
    )
    assert code == 0
    assert cert["inputs"]["group"] == "GL2F3-file"
    assert cert["results"]["c_axioms"]["group"] == "GL2F3-file"


# sha256 of generator-file certificates: the catalog goldens never reach
# `model_from_generators`, which builds these models
GENERATOR_FILES = {
    "GL1mod4": {"modulus": 4, "name": "GL1mod4", "generators": [[[3]]]},
    "GL2F3-file": {"modulus": 3, "name": "GL2F3-file",
                   "generators": [[[1, 1], [0, 1]], [[0, 2], [1, 0]]]},
    "GL2F5": {"modulus": 5, "name": "GL2F5",
              "generators": [[[1, 1], [0, 1]], [[2, 0], [0, 1]], [[0, 4], [1, 0]]]},
}
GENERATOR_FILE_DIGESTS = {
    ("GL1mod4", "G", 20): "f28f60be666cfe4ae6a54ce91991162fba2f0501102806969c5cb4f7dec03381",
    ("GL2F3-file", "G", 4): "bd85e74b4f218837db08e617bd51741d531a796d732bc7b841ca552fbba785de",
    ("GL2F3-file", "cosets", 4): "dbd32ad2cabf5330dcdf050c3d92cca8556bfc95aff9522baedb82495ac15158",
    ("GL2F3-file", "two", 4): "bd3c9f9b1f1b6988ce65bf527841cf4e1900b9ad438f238f43a7704879f0c8ef",
    ("GL2F5", "cosets", 1): "ee59397d43d5e9a963288f53a317d54f385b8d744510845e1b1df0a445da4f8b",
}


@pytest.mark.parametrize("group,model,samples", sorted(GENERATOR_FILE_DIGESTS))
def test_mackey_generator_file_certificate_digest(tmp_path, group, model, samples):
    gen_file = tmp_path / "gens.json"
    gen_file.write_text(json.dumps(GENERATOR_FILES[group]))
    code, _ = run_inproc(["mackey-test", "--generator-file", str(gen_file), "--model", model,
                          "--samples", str(samples)], tmp_path)
    assert code == 0
    digest = hashlib.sha256((tmp_path / "cert.json").read_bytes()).hexdigest()
    assert digest == GENERATOR_FILE_DIGESTS[group, model, samples]


def test_unknown_group_is_usage_error(tmp_path):
    out = tmp_path / "x.json"
    proc = run_cli(["mackey-test", "--group", "S5", "--out", str(out)])
    assert proc.returncode == 2
    assert "--group" in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("spec", [
    {"modulus": 4, "generators": [[[2]]]},                    # singular
    {"modulus": 5, "generators": [[[1, 2]]]},                 # not square
    {"modulus": 5, "generators": [[[2]], [[1, 0], [0, 1]]]},  # sizes differ
    {"modulus": 5, "generators": []},                         # no generator
    {"modulus": 1, "generators": [[[1]]]},                    # modulus below 2
    {"modulus": 5, "generators": [[[1.5]]]},                  # not an integer
    {"modulus": 5, "generators": [1, 2]},                     # not matrices
    {"generators": [[[1]]]},                                  # no modulus
    {"modulus": 10007, "generators": [[[1, 1], [0, 1]]]},     # order 10007
    {"modulus": 7, "generators": [[[1, 1], [0, 1]], [[3, 0], [0, 1]],
                                  [[0, 1], [1, 0]]]},         # GL2(F7), order 2016
])
def test_bad_generator_file_is_config_error(tmp_path, spec):
    gen_file = tmp_path / "gens.json"
    gen_file.write_text(json.dumps(spec))
    out = tmp_path / "x.json"
    proc = subprocess.run(
        [sys.executable, "-m", "tamenorm.cli", "mackey-test", "--generator-file",
         str(gen_file), "--samples", "2", "--out", str(out)],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2, proc.stderr
    assert "configuration error" in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("group", CATALOG_NAMES)
@pytest.mark.parametrize("model", ["G", "cosets", "two"])
def test_mackey_golden_certificate(tmp_path, group, model):
    # byte-exact certificates written by the engine on concrete tuple elements
    out = tmp_path / "cert.json"
    code = cli.main(["mackey-test", "--group", group, "--model", model, "--samples",
                     str(GOLDEN_SAMPLES[group]), "--seed", "1", "--out", str(out)])
    assert code == 0
    assert out.read_bytes() == (GOLDEN / f"mackey_{group}_{model}.json").read_bytes()


README_COMMANDS = {
    "coeffs": ["coeffs", "--n", "2", "--ell", "2"],
    "verify-incl-excl": ["verify-incl-excl", "--n", "3", "--ell", "3", "--depth", "2"],
    "mackey-test": ["mackey-test", "--group", "GL2F3", "--model", "cosets",
                    "--samples", "50", "--seed", "1"],
    "lfactor": ["lfactor", "--n", "1", "--ell", "5", "--alpha", "0:1", "1:2",
                "--chi-order", "2"],
    "classgroup": ["classgroup", "--disc", "-4", "--conductor", "5"],
    "tower": ["tower", "--disc", "-4", "--m", "1", "--ell", "5"],
    "norm-relation": ["norm-relation", "--n", "1", "--ell", "5", "--disc", "-4",
                      "--conductor", "1", "--alpha", "0:1", "0:1"],
}


@pytest.mark.parametrize("name", sorted(README_COMMANDS))
def test_readme_golden_certificate(tmp_path, name):
    # the README's example commands, byte for byte against stored certificates
    out = tmp_path / "cert.json"
    assert cli.main([*README_COMMANDS[name], "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / f"readme_{name}.json").read_bytes()


def test_stdout_certificate_equals_the_out_file(tmp_path, monkeypatch):
    # without --out the --out bytes go to stdout, and no CSV is written
    # (the child runs in an empty directory)
    monkeypatch.setenv("PYTHONPATH", str(Path(cli.__file__).parents[1]))
    monkeypatch.chdir(tmp_path)
    proc = run_cli(README_COMMANDS["coeffs"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDEN / "readme_coeffs.json").read_text()
    assert list(tmp_path.iterdir()) == []


def test_emit_streams_the_certificate(tmp_path):
    # emit writes the certificate as it walks it: no copy of the certificate
    # and no whole JSON string, so its peak is far below the file size
    cert = cli.DRIVERS["classgroup"](cli.build_parser().parse_args(
        ["classgroup", "--disc", "-100007"]))
    out = tmp_path / "cert.json"
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        assert cli.emit(str(out), cert) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = out.stat().st_size
    assert size > 1_000_000
    assert peak < size / 10, (peak, size)


def test_norm_relation_mid_size_golden_certificate(tmp_path):
    # 7 level-m characters, 28 level-ell m rows of both kinds, kernel order 4
    out = tmp_path / "cert.json"
    assert cli.main(["norm-relation", "--n", "1", "--ell", "5", "--disc", "-71",
                     "--alpha", "1:3", "2:3", "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / "norm_relation_d71.json").read_bytes()


def test_determinism_byte_identical(tmp_path):
    args = ["norm-relation", "--n", "1", "--ell", "5", "--disc", "-4",
            "--conductor", "1", "--alpha", "0:1", "0:1", "--seed", "3"]
    cli.main([*args, "--out", str(tmp_path / "a.json")])
    cli.main([*args, "--out", str(tmp_path / "b.json")])
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    args2 = ["mackey-test", "--group", "D8", "--samples", "30", "--seed", "5"]
    cli.main([*args2, "--out", str(tmp_path / "c.json")])
    cli.main([*args2, "--out", str(tmp_path / "d.json")])
    assert (tmp_path / "c.json").read_bytes() == (tmp_path / "d.json").read_bytes()


def test_json_roundtrip(tmp_path):
    code, cert = run_inproc(["coeffs", "--n", "1", "--ell", "3"], tmp_path)
    blob = json.dumps(cert, sort_keys=True)
    assert json.loads(blob) == cert


def test_seed_recorded_in_inputs(tmp_path):
    code, cert = run_inproc(
        ["mackey-test", "--group", "S3", "--samples", "10", "--seed", "42"],
        tmp_path,
    )
    assert cert["inputs"]["seed"] == 42


# discriminants of 22 digits: trial division up to sqrt|d_E| would run for
# hours, so the bound |D| <= MAX_DISC must be decided before any factoring
HUGE_DISC_COMMANDS = {
    "classgroup": ["classgroup", "--disc", "-1000000000000000000004"],
    "tower": ["tower", "--disc", "-1000000000000000000007", "--ell", "2"],
    "norm-relation": ["norm-relation", "--n", "1", "--ell", "2",
                      "--disc", "-1000000000000000000007", "--alpha", "0:1", "0:1"],
}


@pytest.mark.parametrize("name", sorted(HUGE_DISC_COMMANDS))
def test_huge_disc_is_refused_before_any_factoring(tmp_path, capsys, monkeypatch, name):
    real = classfield._squarefree

    def bounded(n):
        assert n <= classfield.MAX_DISC, f"_squarefree({n}) ran before the bound"
        return real(n)

    monkeypatch.setattr(classfield, "_squarefree", bounded)
    out = tmp_path / "x.json"
    assert cli.main([*HUGE_DISC_COMMANDS[name], "--out", str(out)]) == 2
    assert f"exceeds the bound {classfield.MAX_DISC}" in capsys.readouterr().err
    assert not out.exists()


def run_bare(args):
    """Run the CLI in a new interpreter without `site` (-S), so that only
    tamenorm and what it imports are loaded."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    return subprocess.run([sys.executable, "-S", *args], capture_output=True, text=True,
                          timeout=120, env=env, preexec_fn=_cap_address_space)


LAYERS = ("classfield", "exactnum", "fingroup", "hecke", "lattice", "lfactor", "mackey",
          "matrices", "qcomb", "trc")


def test_cli_import_loads_every_layer_and_no_idle_stdlib_module():
    # random and csv are imported by the one command that uses each, and no
    # layer uses dataclasses (which would bring in inspect)
    proc = run_bare(["-c", "import sys, tamenorm.cli; print(*sorted(sys.modules))"])
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert {f"tamenorm.{layer}" for layer in LAYERS} <= loaded
    assert loaded.isdisjoint({"dataclasses", "inspect", "random", "csv"}), loaded


COEFFS_CSV = (b"r,b_r,a_r,index_K_V1r,nu_image_order\r\n0,6,6,1,1\r\n"
              b"1,-18,-2,9,1\r\n2,12,2,6,1\r\n")


@pytest.mark.parametrize("name", ["coeffs", "mackey-test"])
def test_lazily_imported_commands_run_in_a_fresh_process(tmp_path, name):
    # mackey-test needs random and coeffs --out needs csv, each imported
    # inside the command
    out = tmp_path / "cert.json"
    proc = run_bare(["-m", "tamenorm.cli", *README_COMMANDS[name], "--out", str(out)])
    assert proc.returncode == 0, proc.stderr
    assert out.read_bytes() == (GOLDEN / f"readme_{name}.json").read_bytes()
    if name == "coeffs":
        assert (tmp_path / "cert.csv").read_bytes() == COEFFS_CSV
