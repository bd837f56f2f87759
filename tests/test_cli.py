"""CLI: exit codes, artifact round-trips, reproducibility."""

import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import dualfx

from dualfx import cli, pricing
from dualfx.catalog import MODEL_NAMES, get_model
from dualfx.cli import COMMANDS, main, validate_config
from dualfx.errors import ConfigError, SchemeUnsupported, StructureError
from dualfx.inputs import PAYOFFS
from dualfx.lattice import build_dual_tree, dump_tree, two_period_example
from dualfx.pricing import make_batches
from dualfx.sde import BLOCK, MCConfig
from tests.test_engine import csv_oracle
from tests.test_tree import HUGE_MASS_DOC, chain_doc, collision_doc


@pytest.fixture()
def example_tree_path(tmp_path):
    path = tmp_path / "two_period.json"
    dump_tree(two_period_example(), path)
    return path


def test_catalog_listing(capsys):
    """Each model line names its two exact samplers and its flags."""
    assert main(["catalog"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "recip_bessel: exact=bes3_reciprocal dual_exact=absorbed_bm "
        "flags={'self_quantoed': 'nonintegrable'}",
        "stopped_bm: exact=absorbed_bm dual_exact=bes3_reciprocal "
        "flags=all integrable",
        "singular_timechange: exact=singular_exact "
        "dual_exact=singular_dual_exact flags={'self_quantoed': 'nonintegrable'}",
        "exp_martingale_baseline: exact=gbm dual_exact=gbm "
        "flags={'self_quantoed': 'integrable'}",
        "qnv(a,b,c): quadratic diffusion family, exact samplers for "
        "(a,0,0), (0,b,0) and (0,0,c), euler scheme otherwise",
    ]


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


def test_qnv_clock_out_of_float_range_is_usage_error(tmp_path, capsys):
    """qnv(1e200,0,0) would run its sampler to the horizon 1e400 = inf."""
    assert main(["price", "--model", "qnv(1e200,0,0)", "--n", "100",
                 "--out-dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "clock" in err
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


@pytest.mark.parametrize("strike, exact", [("2.0000004", "5000001/2500000"),
                                           ("1e-7", "1/10000000")])
def test_lattice_verify_prices_the_exact_decimal_strike(
        strike, exact, example_tree_path, tmp_path):
    assert main(["lattice-verify", "--tree", str(example_tree_path),
                 "--strikes", strike, "--out-dir", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "report_lattice.json").read_text())
    assert [row["strike"] for row in report["parity"]] == [exact]
    assert f"call_{exact}" in report["prices"]
    assert all(r["residual"] == "0" for r in report["residuals"])


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


def test_lattice_verify_reports_a_normalization_past_the_digit_limit(
        tmp_path, capsys):
    path = tmp_path / "huge_mass.json"
    path.write_text(json.dumps(HUGE_MASS_DOC))
    assert main(["lattice-verify", "--tree", str(path),
                 "--out-dir", str(tmp_path)]) == 1
    assert capsys.readouterr().err == (
        "error: node 'r': derived dollar-measure masses sum to ~5e+4299, "
        "not 1\n")


def test_lattice_verify_refuses_huge_periods_at_once(tmp_path):
    """Three nodes and periods = 10**9: the absorption chains would add two
    billion nodes, so the document is refused before any is built.  The run
    gets 1 GiB of address space, so a missing bound fails the test instead
    of exhausting the host's memory."""
    import resource

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"x0": "1", "periods": 10**9, "nodes": [
        {"id": "r", "x": "1", "branches": [["u", "1"], ["d", "1"]]},
        {"id": "u", "x": "inf"}, {"id": "d", "x": "0"}]}))
    src = str(Path(dualfx.__file__).resolve().parents[1])
    # one BLAS thread, so that numpy's import fits the limit on any host
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-m", "dualfx.cli", "lattice-verify",
                          "--tree", str(path), "--out-dir", str(tmp_path)],
                         env=env, capture_output=True, text=True, timeout=60,
                         preexec_fn=limit_memory)
    assert out.returncode == 1
    assert out.stderr.startswith("error: absorption chains"), out


@pytest.mark.parametrize("command", ["lattice-verify", "physical"])
def test_deep_tree_commands_run(command, tmp_path, capsys):
    """A 1,500-period chain: deeper than the interpreter's recursion limit."""
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(chain_doc(1500)))
    assert main([command, "--tree", str(path),
                 "--out-dir", str(tmp_path)]) == 0
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("chain_first", [True, False])
def test_lattice_verify_refuses_a_chain_id_collision(chain_first, tmp_path,
                                                     capsys):
    path = tmp_path / "collision.json"
    path.write_text(json.dumps(collision_doc(chain_first)))
    assert main(["lattice-verify", "--tree", str(path),
                 "--out-dir", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith(
        "error: absorption id collision at 'e~2'")


# x0, the root state and its one child at 1e-4300: a valid one-period tree
# whose rationals have more digits than str() writes at the default limit
HUGE_STATE_DOC = {"x0": "1e-4300", "periods": 1, "nodes": [
    {"id": "r", "x": "1e-4300", "branches": [["a", "1"]]},
    {"id": "a", "x": "1e-4300"}]}


@pytest.mark.parametrize("command", ["lattice-verify", "physical"])
def test_tree_reports_round_past_the_digit_limit(command, tmp_path):
    """Both tree commands check the document and write their JSON report,
    where such a number is shown rounded, and exit 0 without a traceback."""
    path = tmp_path / "huge_state.json"
    path.write_text(json.dumps(HUGE_STATE_DOC))
    src = str(Path(dualfx.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-m", "dualfx.cli", command,
                          "--tree", str(path), "--out-dir", str(tmp_path)],
                         env=env, capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert "Traceback" not in out.stderr
    name = "lattice" if command == "lattice-verify" else "physical"
    json.loads((tmp_path / f"report_{name}.json").read_text())
    if command == "lattice-verify":
        assert "~1e-4300" in (tmp_path / "report_lattice.json").read_text()


def test_dump_tree_refuses_a_number_past_the_digit_limit(tmp_path):
    """A document must stay exact, so the writer names the node instead of
    rounding, and leaves no file."""
    path = tmp_path / "huge_state.json"
    with pytest.raises(StructureError,
                       match="node 'r' has a number past the int digit"):
        dump_tree(build_dual_tree(HUGE_STATE_DOC), path)
    assert not path.exists()


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


def test_parity_on_qnv_at_the_defaults(tmp_path):
    """qnv(1,0,0) is recip_bessel, on which parity holds under `auto`."""
    assert main(["parity", "--model", "qnv(1,0,0)",
                 "--out-dir", str(tmp_path)]) == 0


@pytest.mark.parametrize("argv", [
    ["parity", "--strikes", "0.1,1.4"],   # residual +-2.2e-16
    ["intl", "--strikes", "0.9"],         # lhs 0.1, rhs 0.10000000000000006
    ["defect", "--x0", "0.3"]])           # mean of 1000 copies of 0.3
def test_identities_hold_on_a_deterministic_rate(argv, tmp_path):
    """sigma = 0: X_T = x0 on every path, so put-call parity, the intl
    equivalence and a zero martingale defect hold exactly.  The compared
    means differ by rounding alone, against a standard error of about 0,
    which each identity floors at the rounding of its terms."""
    assert main([*argv, "--model", "qnv(0,0,0)", "--n", "1000",
                 "--out-dir", str(tmp_path)]) == 0


def test_infinite_values_keep_their_sign_in_reports():
    assert cli._plain([math.inf, -math.inf, 1.5]) == ["inf", "-inf", 1.5]


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


@pytest.mark.parametrize("command", ["parity", "intl"])
@pytest.mark.parametrize("strikes", [",", ""])
def test_empty_strike_list_is_refused_before_simulating(
        command, strikes, tmp_path, capsys, monkeypatch):
    """A table of no strike checks nothing, so it is no passing gate."""
    def refuse(*args):
        raise AssertionError("simulated")
    monkeypatch.setattr(pricing, "make_batches", refuse)
    assert main([command, "--model", "recip_bessel", "--strikes", strikes,
                 "--out-dir", str(tmp_path)]) == 1
    assert "needs at least one strike" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("how", ["option", "config"])
def test_lattice_verify_refuses_an_empty_strike_list(how, example_tree_path,
                                                     tmp_path, capsys):
    """Without a strike the parity, intl, classical-violation and call/put
    checks would be dropped, so no report is written."""
    out = tmp_path / "out"
    if how == "option":
        argv = ["lattice-verify", "--tree", str(example_tree_path),
                "--strikes", "", "--out-dir", str(out)]
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "command": "lattice-verify", "tree": str(example_tree_path),
            "strikes": [], "out_dir": str(out)}))
        argv = ["run", str(cfg)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "needs at least one strike" in err
    assert not list(out.glob("*"))


@pytest.mark.parametrize("argv,code", [
    (["lattice-verify", "--tree", "TREE", "--strikes", ""], 1),
    (["price", "--model", "recip_bessel", "--claim", "call"], 1),  # no strike
    (["catalog"], 0),                                  # writes no artifact
])
def test_a_run_that_writes_no_artifact_makes_no_out_dir(
        argv, code, example_tree_path, tmp_path, capsys):
    out = tmp_path / "new" / "dir"
    argv = [str(example_tree_path) if a == "TREE" else a for a in argv]
    assert main([*argv, "--out-dir", str(out)]) == code
    assert not (tmp_path / "new").exists()


def test_the_first_artifact_makes_the_nested_out_dir(example_tree_path,
                                                     tmp_path):
    out = tmp_path / "new" / "dir"
    assert main(["physical", "--tree", str(example_tree_path),
                 "--out-dir", str(out)]) == 0
    assert [p.name for p in out.iterdir()] == ["report_physical.json"]


def test_empty_level_list_is_refused_before_simulating(tmp_path, capsys,
                                                      monkeypatch):
    """A study of no level compares nothing, so it is no passing gate."""
    def refuse(*args):
        raise AssertionError("simulated")
    monkeypatch.setattr(pricing, "simulate", refuse)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"command": "convergence",
                                "model": "recip_bessel", "levels": [],
                                "n": 1000, "out_dir": str(tmp_path / "out")}))
    assert main(["run", str(path)]) == 1
    assert "needs at least one level" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [["price", "--bogus"],
                                  ["parity", "--strikes", "-inf"]])
def test_argparse_usage_error_exits_1(argv, capsys):
    # exit code 2 is reserved for a violated identity
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert capsys.readouterr().err.startswith("usage: dualfx")


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["price", "--help"])
    assert exc.value.code == 0
    assert "--claim" in capsys.readouterr().out


def test_config_validation_rejects_non_finite_strikes():
    for bad in ({"strike": float("nan")}, {"strikes": [1, float("inf")]}):
        with pytest.raises(ConfigError, match="finite"):
            validate_config({"command": "intl", **bad})
    cfg = validate_config({"command": "parity", "strikes": [0, 10**400]})
    assert cfg.strikes == [0, 10**400]


@pytest.mark.parametrize("bad", [
    {"x0": 10**400}, {"horizon": 10**400}, {"vol": 10**400},
    {"x0": 5e-324, "model": "qnv(1,0,0)"},      # the dual leg starts at inf
    {"horizon": 5e-324, "model": "qnv(1,0,0)", "steps": 4,
     "scheme": "euler_absorbed"},                # the Euler step is 0.0
    {"steps": 10**12}])     # n * steps is beyond MAX_PATH_STEPS
def test_model_parameter_out_of_float_range_exits_1(bad, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"command": "price",
                                "model": "exp_martingale_baseline", "n": 100,
                                "out_dir": str(tmp_path / "out"), **bad}))
    assert main(["run", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


# files json cannot read for a reason other than a syntax error
UNREADABLE_JSON = {
    "int beyond the digit limit": b'{"x0": ' + b"1" * 5000 + b"}",
    "not utf-8": b'{"x0": "\xff"}',
    "nesting beyond the recursion limit": b"[" * 100_000,
}


@pytest.mark.parametrize("content", UNREADABLE_JSON.values(),
                         ids=list(UNREADABLE_JSON))
@pytest.mark.parametrize("command", ["run", "lattice-verify", "physical"])
def test_unreadable_json_file_exits_1(command, content, tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_bytes(content)
    argv = ([command, str(path)] if command == "run" else
            [command, "--tree", str(path), "--out-dir", str(tmp_path / "out")])
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert [p for p in tmp_path.rglob("*") if p.is_file()] == [path]


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


# ---------------------------------------------------------------------------
# fuzzing: any config either runs or exits 1 with an error line
# ---------------------------------------------------------------------------

# numbers that are subnormal, beyond float range, nan, infinite, negative or
# of the wrong type; each replaces a valid one
_EDGE_NUMBERS = st.sampled_from([5e-324, 10**400, math.nan, math.inf,
                                 -math.inf, -1.5, True, "1"])
_JUNK = {"command": st.just("frobnicate"), "scheme": st.just("rk4"),
         "claim": st.just("bogus"),
         "model": st.sampled_from(["qnv(-1,0,0)", "qnv(nan,0,0)",
                                   "qnv(x,0,0)", "qnv(1,0)", "junk"]),
         "tree": st.sampled_from(["missing", "directory"])}


@st.composite
def _configs(draw):
    """A valid config over every key, then maybe an edge number for a model
    parameter, maybe one for a strike, and maybe one junk value, so that
    most configs run and the edges reach the models."""
    cfg = draw(st.fixed_dictionaries(
        {"command": st.sampled_from(COMMANDS),
         "model": st.sampled_from([*MODEL_NAMES, "qnv(1,0,0)", "qnv(1,1,0)",
                                   "qnv(0,1,0)", "qnv(1,1,1)"]),
         "tree": st.just("example"),
         "n": st.integers(1, 2000), "steps": st.integers(1, 16),
         "levels": st.lists(st.integers(1, 16), max_size=3)},
        optional={
            "claim": st.sampled_from(list(PAYOFFS)),
            "strike": st.floats(0.05, 4),
            "strikes": st.lists(st.floats(0.05, 4), max_size=3),
            "x0": st.floats(0.05, 4), "horizon": st.floats(0.05, 4),
            "vol": st.floats(0.05, 4), "seed": st.integers(0, 2**64),
            "scheme": st.sampled_from(["auto", "exact", "euler_absorbed"]),
            "workers": st.integers(1, 3),
            "tag": st.text(alphabet="ab_-", max_size=3),
            "dump_samples": st.booleans()}))
    if draw(st.booleans()):
        cfg[draw(st.sampled_from(["x0", "horizon", "vol"]))] = \
            draw(_EDGE_NUMBERS)
    if draw(st.booleans()):
        edge = draw(_EDGE_NUMBERS)
        cfg.update(draw(st.sampled_from([{"strike": edge},
                                         {"strikes": [1, edge]}])))
    if draw(st.booleans()):
        key = draw(st.sampled_from(list(_JUNK)))
        cfg[key] = draw(_JUNK[key])
    return cfg


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cfg=_configs())
@example(cfg={"command": "defect", "model": "recip_bessel", "tree": "example",
              "x0": 10**400, "n": 100})
@example(cfg={"command": "price", "model": "qnv(1,0,0)", "tree": "example",
              "horizon": 5e-324, "steps": 4, "n": 100})
@example(cfg={"command": "price", "model": "qnv(1,0,0)", "tree": "example",
              "steps": 10**400, "n": 100})
@example(cfg={"command": "price", "model": "qnv(1,0,0)", "tree": "example",
              "steps": 10**12, "n": 100})
@example(cfg={"command": "price", "model": "recip_bessel", "tree": "example",
              "x0": 1e-300, "workers": 2, "n": 100})
@example(cfg={"command": "price", "model": "recip_bessel", "tree": "example",
              "horizon": 1e308, "n": 100})
@example(cfg={"command": "price", "model": "stopped_bm", "tree": "example",
              "x0": 1e300, "n": 100})
@example(cfg={"command": "price", "model": "qnv(1,1,1)", "tree": "example",
              "x0": 1e-300, "n": 100})
@example(cfg={"command": "convergence", "model": "stopped_bm",
              "tree": "example", "x0": 1e300, "n": 200})
@example(cfg={"command": "intl", "model": "qnv(0,0,0)", "tree": "example",
              "x0": 1e12, "strikes": [1e300], "n": 100})
def test_any_config_runs_or_exits_1_with_an_error_line(cfg, tmp_path):
    tree = tmp_path / "example.json"
    if not tree.exists():
        dump_tree(two_period_example(), tree)
    trees = {"example": tree, "missing": tmp_path / "missing",
             "directory": tmp_path}
    cfg = {**cfg, "tree": str(trees[cfg["tree"]]),
           "out_dir": str(tmp_path / "out")}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        rc = main(["run", str(path)])
    assert rc in (0, 1, 2)
    if rc == 1:
        assert err.getvalue().startswith("error: "), err.getvalue()
    assert "Traceback" not in err.getvalue()
