"""End-to-end tests of the command-line interface."""

import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pptnet import cli

REPORT_KEYS = {
    "dims",
    "method",
    "power_sums",
    "power_sum_stderr",
    "spectrum",
    "lambda_min",
    "sigma",
    "classification",
    "shots_per_k",
    "seed",
    "copies_consumed",
    "tool_version",
}


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def gen(capsys, tmp_path, name, *argv):
    path = tmp_path / name
    code, _ = run(capsys, ["gen", *argv, "--out", str(path)])
    assert code == 0
    return str(path)


def test_check_bell(capsys, tmp_path):
    path = gen(capsys, tmp_path, "bell.json", "bell", "--which", "phi+")
    code, report = run(capsys, ["check", path])
    assert code == 0
    assert set(report) == REPORT_KEYS
    assert report["method"] == "exact"
    assert report["classification"] == "NPT_ENTANGLED"
    assert_allclose(report["lambda_min"], -0.5, atol=1e-10)
    assert_allclose(report["spectrum"], [0.5, 0.5, 0.5, -0.5], atol=1e-10)
    assert_allclose(report["power_sums"], [1.0, 1.0, 0.25, 0.25], atol=1e-10)
    assert report["copies_consumed"] == 0 and report["shots_per_k"] == 0
    assert report["seed"] is None


def test_check_werner_separable(capsys, tmp_path):
    path = gen(capsys, tmp_path, "w.json", "werner", "--p", "0.2")
    code, report = run(capsys, ["check", path])
    assert code == 0
    assert report["classification"] == "PPT_CONCLUSIVE_SEPARABLE"
    assert_allclose(report["lambda_min"], 0.1, atol=1e-10)


def test_check_separable_3x3_is_inconclusive(capsys, tmp_path):
    path = gen(
        capsys, tmp_path, "s.json", "separable", "--dims", "3", "3", "--terms", "5", "--seed", "4"
    )
    code, report = run(capsys, ["check", path])
    assert code == 0
    assert report["dims"] == [3, 3]
    assert report["classification"] == "PPT_INCONCLUSIVE"
    assert len(report["spectrum"]) == 9


def test_gen_random_deterministic(capsys, tmp_path):
    a = gen(capsys, tmp_path, "a.json", "random", "--dims", "2", "3", "--seed", "11")
    b = gen(capsys, tmp_path, "b.json", "random", "--dims", "2", "3", "--seed", "11")
    assert json.load(open(a)) == json.load(open(b))


def test_gen_mix(capsys, tmp_path):
    bell = gen(capsys, tmp_path, "bell.json", "bell", "--which", "phi+")
    mixed = gen(capsys, tmp_path, "mixed.json", "werner", "--p", "0")
    out = gen(
        capsys, tmp_path, "mix.json", "mix", "--inputs", bell, mixed, "--weights", "0.5", "0.5"
    )
    code, report = run(capsys, ["check", out])
    assert code == 0
    assert_allclose(report["lambda_min"], -0.125, atol=1e-10)
    assert report["classification"] == "NPT_ENTANGLED"


def test_gen_mix_rejects_mismatched_weights(capsys, tmp_path):
    bell = gen(capsys, tmp_path, "bell.json", "bell")
    path = tmp_path / "bad.json"
    code, _ = run(capsys, ["gen", "mix", "--inputs", bell, "--weights", "0.5", "0.5", "--out", str(path)])
    assert code == 1


def test_check_malformed_file(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text(json.dumps({"dims": [2, 2], "matrix": [[1.0] * 4] * 4}))
    code = cli.main(["check", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "matrix" in captured.err


def test_check_missing_file(capsys, tmp_path):
    code, _ = run(capsys, ["check", str(tmp_path / "nope.json")])
    assert code == 1


def test_simulate_exact_matches_check(capsys, tmp_path):
    path = gen(capsys, tmp_path, "w.json", "werner", "--p", "0.8")
    _, exact = run(capsys, ["check", path])
    code, sim = run(capsys, ["simulate", path, "--exact-probabilities"])
    assert code == 0
    assert sim["method"] == "locc_exact"
    assert sim["classification"] == exact["classification"] == "NPT_ENTANGLED"
    assert_allclose(sim["spectrum"], exact["spectrum"], atol=1e-8)


def test_simulate_shots_report(capsys, tmp_path):
    path = gen(capsys, tmp_path, "bell.json", "bell")
    argv = ["simulate", path, "--shots", "50000", "--seed", "3", "--bootstrap", "50"]
    code, report = run(capsys, argv)
    assert code == 0
    assert set(report) == REPORT_KEYS
    assert report["method"] == "locc_shots"
    assert report["shots_per_k"] == 50000 and report["seed"] == 3
    assert report["copies_consumed"] == 50000 * 9
    assert report["classification"] == "NPT_ENTANGLED"
    assert abs(report["lambda_min"] + 0.5) < 0.05
    assert report["sigma"] > 0
    code2, report2 = run(capsys, argv)
    assert report2 == report


def test_simulate_no_k2_shortcut(capsys, tmp_path):
    path = gen(capsys, tmp_path, "bell.json", "bell")
    code, report = run(
        capsys, ["simulate", path, "--shots", "20000", "--seed", "2", "--no-k2-shortcut"]
    )
    assert code == 0
    assert abs(report["power_sums"][1] - 1.0) < 0.05


def test_simulate_too_noisy_exits_2(capsys, tmp_path):
    path = gen(capsys, tmp_path, "mixed.json", "werner", "--p", "0")
    code = cli.main(["simulate", path, "--shots", "2", "--seed", "0", "--bootstrap", "0"])
    captured = capsys.readouterr()
    assert code == 2
    report = json.loads(captured.out)
    assert "error" in report
    assert report["classification"] is None
    assert report["power_sums"][0] == 1.0


def test_verify_passes(capsys):
    code, report = run(capsys, ["verify", "--dims", "2", "2", "--kmax", "3", "--trials", "2"])
    assert code == 0
    assert report["pass"] is True
    assert report["tolerance"] == 1e-10
    names = {row["identity"] for row in report["identities"]}
    assert {"transpose_power_B", "transpose_power_A", "conjugate_pair_reality",
            "combined_shift_power", "purity_equality"} <= names
    for row in report["identities"]:
        assert row["status"] == "pass"
        assert row["max_dev"] < 1e-10


def test_verify_rejects_empty_sweep(capsys):
    for argv in (["--kmax", "1"], ["--trials", "0"]):
        code = cli.main(["verify", *argv])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert argv[0] in captured.err


def test_verify_marks_guarded_checks_skipped(capsys):
    code, report = run(capsys, ["verify", "--dims", "2", "70", "--kmax", "2", "--trials", "1"])
    assert code == 0
    assert report["pass"] is True
    by_name = {row["identity"]: row for row in report["identities"]}
    assert by_name["shift_product_B"]["status"] == "skipped"
    assert by_name["shift_product_B"]["max_dev"] is None
    assert by_name["transpose_power_B"]["status"] == "pass"


def test_calibrate(capsys):
    code, report = run(capsys, ["calibrate", "--dims", "2", "2"])
    assert code == 0
    assert_allclose(report["eta_scale"], 2.0, atol=1e-9)
    assert all(row["residual"] < 1e-9 for row in report["states"])


def test_gen_rejects_bad_parameters(capsys, tmp_path):
    code, _ = run(capsys, ["gen", "werner", "--p", "1.5", "--out", str(tmp_path / "x.json")])
    assert code == 1
    code, _ = run(capsys, ["gen", "bell", "--which", "sigma+", "--out", str(tmp_path / "y.json")])
    assert code == 1
