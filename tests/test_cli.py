"""CLI: exit codes, artifact round-trips, reproducibility."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dualfx

from dualfx.catalog import get_model
from dualfx.cli import main, validate_config
from dualfx.errors import ConfigError, SchemeUnsupported
from dualfx.lattice import build_dual_tree, dump_tree, two_period_example
from dualfx.pricing import make_batches
from dualfx.sde import BLOCK, MCConfig
from tests.test_engine import csv_oracle


@pytest.fixture()
def example_tree_path(tmp_path):
    path = tmp_path / "two_period.json"
    dump_tree(two_period_example(), path)
    return path


def test_catalog_listing(capsys):
    assert main(["catalog"]) == 0
    out = capsys.readouterr().out
    assert "recip_bessel" in out and "nonintegrable" in out


def test_unknown_model_is_usage_error(tmp_path):
    assert main(["price", "--model", "unknown_model",
                 "--out-dir", str(tmp_path)]) == 1


def test_non_numeric_qnv_model_is_usage_error(tmp_path, capsys):
    assert main(["price", "--model", "qnv(x,0,0)", "--n", "100",
                 "--out-dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "qnv(x,0,0)" in err
    assert "Traceback" not in err
    assert not list(tmp_path.iterdir())


def test_price_report_schema(tmp_path, capsys):
    rc = main(["price", "--model", "recip_bessel", "--claim", "euro_forward",
               "--n", "20000", "--seed", "7", "--out-dir", str(tmp_path)])
    assert rc == 0
    payload = json.loads((tmp_path / "report_price.json").read_text())
    assert set(payload) == {"claim", "K", "classical", "classical_se",
                            "correction", "correction_se", "total_dollar",
                            "total_euro", "flags"}
    assert abs(payload["total_dollar"] - 1.0) < 0.05


def test_price_infinite_flag(tmp_path):
    rc = main(["price", "--model", "singular_timechange", "--claim",
               "self_quantoed", "--strike", "1.0", "--n", "5000",
               "--out-dir", str(tmp_path)])
    assert rc == 0
    payload = json.loads((tmp_path / "report_price.json").read_text())
    assert payload["total_dollar"] == "inf"
    assert payload["flags"] == {"analytic_infinite": True}


def test_lattice_verify_clean_tree(example_tree_path, tmp_path):
    rc = main(["lattice-verify", "--tree", str(example_tree_path),
               "--out-dir", str(tmp_path)])
    assert rc == 0
    report = json.loads((tmp_path / "report_lattice.json").read_text())
    assert all(r["residual"] in (0, "0") for r in report["residuals"])


def test_lattice_verify_csv_names_bayes_rho_node(example_tree_path, tmp_path):
    assert main(["lattice-verify", "--tree", str(example_tree_path),
                 "--out-dir", str(tmp_path)]) == 0
    with open(tmp_path / "report_lattice.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["subject"] for r in rows if r["check"] == "bayes"] \
        == ["r", "up", "dn"]


def test_lattice_verify_artifacts_ignore_hash_seed(example_tree_path, tmp_path):
    src = str(Path(dualfx.__file__).resolve().parents[1])
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")])))
        subprocess.run([sys.executable, "-m", "dualfx.cli", "lattice-verify",
                        "--tree", str(example_tree_path),
                        "--out-dir", str(tmp_path / seed)],
                       env=env, check=True, capture_output=True)
    for name in ("report_lattice.json", "report_lattice.csv"):
        assert (tmp_path / "1" / name).read_bytes() \
            == (tmp_path / "2" / name).read_bytes()


def test_lattice_verify_flags_incomplete_tree(tmp_path):
    """A trinomial node prices above the two-measure formula; the identity
    gate reports it with exit code 2."""
    tri = build_dual_tree({"x0": "1", "periods": 1, "nodes": [
        {"id": "r", "x": "1",
         "branches": [["a", "1/2"], ["b", "1/4"], ["c", "1/4"]]},
        {"id": "a", "x": "2"}, {"id": "b", "x": "1"}, {"id": "c", "x": "1/2"}]})
    path = tmp_path / "tri.json"
    dump_tree(tri, path)
    assert main(["lattice-verify", "--tree", str(path),
                 "--out-dir", str(tmp_path)]) == 2


def test_lattice_verify_rejects_invalid_tree(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"x0": "1", "periods": 1, "nodes": [
        {"id": "r", "x": "1", "branches": [["a", "1/2"], ["b", "1/2"]]},
        {"id": "a", "x": "2"}, {"id": "b", "x": "1/2"}]}))
    assert main(["lattice-verify", "--tree", str(path),
                 "--out-dir", str(tmp_path)]) == 1


def test_physical_command(example_tree_path, tmp_path):
    rc = main(["physical", "--tree", str(example_tree_path),
               "--out-dir", str(tmp_path)])
    assert rc == 0
    rep = json.loads((tmp_path / "report_physical.json").read_text())
    assert rep["p_explosion"] == "3/8"
    assert rep["interpretation_holds"] is True
    assert rep["support_checks_passed"] is True


def test_parity_and_defect_commands(tmp_path):
    assert main(["parity", "--model", "recip_bessel", "--strikes", "0.5,1",
                 "--n", "20000", "--seed", "3", "--out-dir", str(tmp_path)]) == 0
    assert (tmp_path / "report_parity.csv").exists()
    assert main(["defect", "--model", "recip_bessel", "--n", "20000",
                 "--seed", "3", "--out-dir", str(tmp_path)]) == 0


def test_intl_command(tmp_path):
    assert main(["intl", "--model", "exp_martingale_baseline",
                 "--strikes", "1", "--n", "20000", "--seed", "5",
                 "--out-dir", str(tmp_path)]) == 0


def test_convergence_command(tmp_path):
    rc = main(["convergence", "--model", "recip_bessel", "--levels", "8,32",
               "--n", "5000", "--seed", "1", "--out-dir", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "report_convergence.csv").read_text().splitlines()
    assert lines[0] == "steps,estimate,stderr,abs_diff"
    assert len(lines) == 3


def test_rerun_reproduces_csv_bytes(tmp_path):
    args = ["parity", "--model", "recip_bessel", "--strikes", "0.5,1",
            "--n", "20000", "--seed", "11"]
    main(args + ["--out-dir", str(tmp_path / "a")])
    main(args + ["--out-dir", str(tmp_path / "b")])
    assert (tmp_path / "a" / "report_parity.csv").read_bytes() \
        == (tmp_path / "b" / "report_parity.csv").read_bytes()


def test_price_sample_dump(tmp_path):
    rc = main(["price", "--model", "recip_bessel", "--n", "1000", "--seed", "3",
               "--dump-samples", "--out-dir", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "report_samples_euro.csv").read_text().splitlines()
    assert lines[0] == "x_T,hit_zero_time,hit_infinity"
    assert len(lines) == 1001
    assert any(row.split(",")[0] == "inf" for row in lines[1:])


def test_price_sample_dump_matches_row_oracle(tmp_path):
    n = BLOCK + 3
    for model in ("recip_bessel", "stopped_bm"):
        out = tmp_path / model
        assert main(["price", "--model", model, "--n", str(n), "--seed", "5",
                     "--dump-samples", "--out-dir", str(out)]) == 0
        batches = make_batches(get_model(model).model, MCConfig(n=n, seed=5))
        for leg, batch in zip(("dollar", "euro"), batches):
            assert (out / f"report_samples_{leg}.csv").read_bytes() \
                == csv_oracle(batch)


def test_run_command_with_config(tmp_path):
    cfg = {"command": "price", "model": "recip_bessel",
           "claim": "euro_forward", "n": 10_000, "seed": 2,
           "out_dir": str(tmp_path)}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", str(path)]) == 0
    assert (tmp_path / "report_price.json").exists()


def test_out_dir_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("DUALFX_OUT_DIR", str(tmp_path / "envout"))
    assert main(["defect", "--model", "singular_timechange",
                 "--n", "2000", "--seed", "1"]) == 0
    assert (tmp_path / "envout" / "report_defect.json").exists()


def test_config_validation_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        validate_config({"command": "price", "modell": "typo"})
    with pytest.raises(ConfigError):
        validate_config({"command": "frobnicate"})
    with pytest.raises(ConfigError):
        validate_config({"model": "recip_bessel"})


def test_config_validation_rejects_bad_mc_settings(tmp_path):
    for bad in ({"workers": 0}, {"workers": -3}, {"n": 0}, {"steps": 0}):
        with pytest.raises(ConfigError):
            validate_config({"command": "price", **bad})
    with pytest.raises(SchemeUnsupported):
        validate_config({"command": "price", "scheme": "bogus"})
    assert main(["price", "--model", "recip_bessel", "--workers", "0",
                 "--out-dir", str(tmp_path)]) == 1


@pytest.mark.parametrize("bad", [{"x0": "abc"}, {"horizon": None},
                                 {"n": 1.5}, {"model": 7}])
def test_run_command_rejects_mistyped_fields(tmp_path, capsys, bad):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"command": "price", "model": "recip_bessel",
                                "n": 100, "out_dir": str(tmp_path / "out"),
                                **bad}))
    assert main(["run", str(path)]) == 1
    err = capsys.readouterr().err
    key = next(iter(bad))
    assert err.startswith(f"error: config field {key!r} must be ")
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_config_validation_checks_field_types():
    for bad in ({"vol": True}, {"strike": "1"}, {"seed": "0"},
                {"workers": False}, {"steps": 64.0}, {"tree": ["t.json"]},
                {"claim": 1}, {"scheme": None}, {"tag": 3}, {"out_dir": 1},
                {"strikes": 1.0}, {"strikes": [1, "2"]}, {"levels": (32,)},
                {"levels": [32, 1.5]}, {"dump_samples": "yes"},
                {"command": ["price"]}):
        with pytest.raises(ConfigError, match=next(iter(bad))):
            validate_config({"command": "price", **bad})
    with pytest.raises(ConfigError):
        validate_config(["price"])
    cfg = validate_config({"command": "parity", "x0": 2, "strike": None,
                           "strikes": [1, 0.5], "levels": [8]})
    assert cfg.x0 == 2 and cfg.strikes == [1, 0.5]


@pytest.mark.parametrize("strike", ["nan", "inf"])
@pytest.mark.parametrize("args", [
    ["lattice-verify", "--tree", "{tree}", "--strikes", "1,{strike}"],
    ["parity", "--model", "recip_bessel", "--n", "100",
     "--strikes", "{strike}"],
    ["price", "--model", "recip_bessel", "--n", "100", "--claim", "call",
     "--strike", "{strike}"]])
def test_non_finite_strike_is_usage_error(args, strike, example_tree_path,
                                          tmp_path, capsys):
    argv = [a.format(tree=example_tree_path, strike=strike) for a in args]
    out = tmp_path / "out"
    assert main(argv + ["--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: strikes must be finite")
    assert "Traceback" not in err
    assert not out.exists()


def test_config_validation_rejects_non_finite_strikes():
    for bad in ({"strike": float("nan")}, {"strikes": [1, float("inf")]}):
        with pytest.raises(ConfigError, match="finite"):
            validate_config({"command": "intl", **bad})
    cfg = validate_config({"command": "parity", "strikes": [0, 10**400]})
    assert cfg.strikes == [0, 10**400]


def test_run_command_bad_config_exits_1(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"command": "price", "bogus_key": 1}))
    assert main(["run", str(path)]) == 1
    assert main(["run", str(tmp_path / "missing.json")]) == 1


@pytest.mark.parametrize("args", [
    ["price", "--scheme", "euler_absorbed"],
    ["convergence", "--levels", "8,32"],
    ["convergence", "--scheme", "euler_absorbed", "--levels", "8"]])
def test_euler_on_exact_only_model_is_usage_error(args, tmp_path, capsys):
    assert main(args + ["--model", "singular_timechange", "--n", "1000",
                        "--out-dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "exact-only" in err
    assert "Traceback" not in err
    assert not list(tmp_path.iterdir())
