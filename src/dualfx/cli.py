"""Batch front end: pricing runs, identity verification, convergence studies.

Every command builds an ExperimentConfig (unknown keys rejected), runs it, and
writes machine-readable artifacts.  Exit codes: 0 success, 1 usage or I/O
error, 2 a mathematical identity contract was violated (nonzero exact residual
or |z| > 3), so the tool can gate a CI pipeline on the whole suite.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import math
import numbers
import os
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from .catalog import get_model, list_models
from .errors import ConfigError, DualFXError
from .lattice import checks as lchecks
from .lattice import pricing as lpricing
from .lattice import tree as ltree
from .physical import build_physical, consistency_checks
from .pricing import (intl_equivalence_table, make_claim, martingale_defect,
                      parity_table, price, scheme_convergence)
from .sde.engine import MCConfig

COMMANDS = ("price", "parity", "intl", "defect", "lattice-verify", "physical",
            "convergence", "catalog")

ENV_OUT_DIR = "DUALFX_OUT_DIR"


@dataclass
class ExperimentConfig:
    command: str
    model: str | None = None
    tree: str | None = None
    claim: str | None = None
    strike: float | None = None
    strikes: list[float] = field(default_factory=lambda: [0.5, 1.0, 2.0])
    x0: float = 1.0
    horizon: float = 1.0
    vol: float = 0.5
    n: int = 100_000
    steps: int = 64
    seed: int = 0
    scheme: str = "auto"
    workers: int = 1
    levels: list[int] = field(default_factory=lambda: [32, 128, 512])
    out_dir: str | None = None
    tag: str = "report"
    dump_samples: bool = False

    def mc(self) -> MCConfig:
        return MCConfig(self.n, self.steps, self.seed, self.scheme, self.workers)


_REAL = ("a real number", numbers.Real)
_INT = ("an integer", int)
_STR = ("a string", str)
# the expected type of every ExperimentConfig field; a field whose default is
# None also takes None
_FIELD_TYPES = {
    **dict.fromkeys(("x0", "horizon", "vol", "strike"), _REAL),
    **dict.fromkeys(("n", "steps", "seed", "workers"), _INT),
    **dict.fromkeys(("command", "model", "tree", "claim", "scheme", "tag",
                     "out_dir"), _STR),
    "strikes": ("a list of real numbers", list, numbers.Real),
    "levels": ("a list of integers", list, int),
    "dump_samples": ("a boolean", bool),
}


def _is(value, kind) -> bool:
    # bool is an int (and a Real) in Python, but never a valid number here
    return isinstance(value, kind) and (kind is bool
                                        or not isinstance(value, bool))


def validate_config(raw: dict) -> ExperimentConfig:
    """The one boundary check of a config: keys, field types, command, finite
    strikes and the Monte Carlo settings; raises ConfigError
    (SchemeUnsupported for a bad scheme)."""
    if not isinstance(raw, dict):
        raise ConfigError(f"config must be a JSON object, got {raw!r}")
    fields = {f.name: f for f in dataclasses.fields(ExperimentConfig)}
    unknown = set(raw) - fields.keys()
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    if "command" not in raw:
        raise ConfigError("config needs a 'command'")
    for key, value in raw.items():
        if value is None and fields[key].default is None:
            continue
        what, kind, *items = _FIELD_TYPES[key]
        if not _is(value, kind) or not all(_is(v, t) for t in items
                                           for v in value):
            raise ConfigError(f"config field {key!r} must be {what}, "
                              f"got {value!r}")
    if raw["command"] not in COMMANDS:
        raise ConfigError(f"unknown command {raw['command']!r}")
    # abs(k) < inf is False on nan and inf, and exact on any int
    bad = [k for k in [*raw.get("strikes", ()), raw.get("strike") or 0]
           if not abs(k) < math.inf]
    if bad:
        raise ConfigError(f"strikes must be finite, got {bad[0]!r}")
    cfg = ExperimentConfig(**raw)
    cfg.mc()   # MCConfig validates n, steps, scheme and workers
    return cfg


# ---------------------------------------------------------------------------
# serialization helpers
# ---------------------------------------------------------------------------

def _plain(obj):
    if isinstance(obj, Fraction):
        return str(obj)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {k: _plain(v) for k, v in dataclasses.asdict(obj).items()}
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, float) and math.isinf(obj):
        return "inf"
    return obj


def _write_json(path: Path, payload) -> None:
    with open(path, "w") as fh:
        json.dump(_plain(payload), fh, indent=2)
        fh.write("\n")


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)


def _out_dir(cfg: ExperimentConfig) -> Path:
    base = cfg.out_dir or os.environ.get(ENV_OUT_DIR, ".")
    p = Path(base)
    p.mkdir(parents=True, exist_ok=True)
    return p


# ---------------------------------------------------------------------------
# command implementations
# ---------------------------------------------------------------------------

def _entry(cfg: ExperimentConfig):
    if not cfg.model:
        raise ConfigError("this command needs --model")
    return get_model(cfg.model, x0=cfg.x0, horizon=cfg.horizon, vol=cfg.vol)


def _price_payload(p) -> dict:
    return {
        "claim": p.claim,
        "K": p.strike,
        "classical": None if p.classical is None else p.classical.mean,
        "classical_se": None if p.classical is None else p.classical.stderr,
        "correction": None if p.correction is None else p.correction.mean,
        "correction_se": None if p.correction is None else p.correction.stderr,
        "total_dollar": p.total_dollar,
        "total_euro": p.total_euro,
        "flags": p.flags,
    }


def _run_price(cfg: ExperimentConfig, out: Path) -> int:
    from .pricing import make_batches
    from .sde.engine import dump_batch_csv

    entry = _entry(cfg)
    claim = make_claim(cfg.claim or "euro_forward", cfg.strike)
    batches = make_batches(entry.model, cfg.mc())
    result = price(entry.model, claim, cfg.mc(), batches)
    payload = _price_payload(result)
    _write_json(out / f"{cfg.tag}_price.json", payload)
    if cfg.dump_samples:
        dump_batch_csv(batches[0], out / f"{cfg.tag}_samples_dollar.csv")
        dump_batch_csv(batches[1], out / f"{cfg.tag}_samples_euro.csv")
    print(json.dumps(_plain(payload), indent=2))
    return 0


def _run_parity(cfg: ExperimentConfig, out: Path) -> int:
    entry = _entry(cfg)
    rows = parity_table(entry.model, cfg.strikes, cfg.mc())
    header = ["strike", "call_total", "put_total", "residual", "residual_se",
              "classical_violation", "violation_se", "minus_correction_mass"]
    csv_rows = [[r.strike, r.call.total_dollar, r.put.total_dollar, r.residual,
                 r.residual_stderr, r.classical_violation, r.violation_stderr,
                 r.minus_correction_mass] for r in rows]
    _write_csv(out / f"{cfg.tag}_parity.csv", header, csv_rows)
    _write_json(out / f"{cfg.tag}_parity.json",
                {"model": entry.name, "rows": rows})
    bad = [r for r in rows if abs(r.residual) > 3.0 * r.residual_stderr]
    for r in rows:
        print(f"K={r.strike:g}: call={r.call.total_dollar:.6f} "
              f"put={r.put.total_dollar:.6f} residual={r.residual:+.6f} "
              f"(se {r.residual_stderr:.2g})")
    return 2 if bad else 0


def _run_intl(cfg: ExperimentConfig, out: Path) -> int:
    entry = _entry(cfg)
    rows = intl_equivalence_table(entry.model, cfg.strikes, cfg.mc())
    header = ["strike", "call_lhs", "call_rhs", "z_call",
              "put_lhs", "put_rhs", "z_put"]
    csv_rows = [[r.strike, r.call_lhs, r.call_rhs, r.z_call,
                 r.put_lhs, r.put_rhs, r.z_put] for r in rows]
    _write_csv(out / f"{cfg.tag}_intl.csv", header, csv_rows)
    _write_json(out / f"{cfg.tag}_intl.json",
                {"model": entry.name, "rows": rows})
    for r in rows:
        print(f"K={r.strike:g}: z_call={r.z_call:+.3f} z_put={r.z_put:+.3f}")
    return 2 if any(abs(r.z_call) > 3 or abs(r.z_put) > 3 for r in rows) else 0


def _run_defect(cfg: ExperimentConfig, out: Path) -> int:
    entry = _entry(cfg)
    rep = martingale_defect(entry.model, cfg.mc())
    _write_json(out / f"{cfg.tag}_defect.json", rep)
    print(f"defect={rep.defect:.6f} dual_mass={rep.dual_mass:.6f} "
          f"z={rep.z:+.3f} strict={rep.strict}")
    return 2 if abs(rep.z) > 3 else 0


def _lattice_report(tree: ltree.DualTree, strikes: list[Fraction]) -> dict:
    residuals: list[dict] = []
    for t in range(tree.periods + 1):
        rule = ltree.period_rule(tree, t)
        residuals.append({"check": "numeraire", "tau": f"period_{t}",
                          "event": "all",
                          "residual": lchecks.verify_numeraire_identity(
                              tree, rule, rule)})
        for nid in sorted(rule):
            residuals.append({"check": "numeraire", "tau": f"period_{t}",
                              "event": nid,
                              "residual": lchecks.verify_numeraire_identity(
                                  tree, [nid], rule)})
    terminal = ltree.period_rule(tree, tree.periods)
    y = {n.id: (n.x.fraction if n.x.is_finite else Fraction(0))
         for n in tree.leaves()}
    for t in range(tree.periods):
        rho = ltree.period_rule(tree, t)
        for nid, res in lchecks.bayes_check(tree, y, rho, terminal).items():
            residuals.append({"check": "bayes", "rho": f"period_{t}",
                              "node": nid, "residual": res})

    claims = [lpricing.tree_claim(tree, kind)
              for kind in ("euro_forward", "digital_explosion")]
    claims += [lpricing.tree_claim(tree, kind, k)
               for k in strikes for kind in ("call", "put")]
    prices = {}
    for claim in claims:
        name = claim.kind
        p = lpricing.price_on_tree(tree, claim)
        residuals.append({"check": "price_identity", "claim": name,
                          "residual": p.total_euro
                          - (p.euro_classical + p.euro_correction)})
        sr_price, _ = lpricing.superreplicate_backward(tree, claim)
        residuals.append({"check": "superreplication", "claim": name,
                          "residual": sr_price - p.total_dollar})
        prices[name] = p
    parity_rows = lpricing.parity_and_equivalence_report(tree, strikes)
    for r in parity_rows:
        residuals.extend([
            {"check": "parity", "strike": r.strike,
             "residual": r.parity_residual},
            {"check": "intl_call", "strike": r.strike,
             "residual": r.intl_call_residual},
            {"check": "intl_put", "strike": r.strike,
             "residual": r.intl_put_residual},
            {"check": "classical_violation", "strike": r.strike,
             "residual": r.classical_violation + r.explosion_mass},
        ])
    return {"residuals": residuals, "prices": prices, "parity": parity_rows}


def _run_lattice_verify(cfg: ExperimentConfig, out: Path) -> int:
    if not cfg.tree:
        raise ConfigError("lattice-verify needs --tree")
    tree = ltree.load_tree(cfg.tree)
    strikes = [Fraction(str(k)).limit_denominator(10**6) for k in cfg.strikes]
    report = _lattice_report(tree, strikes)
    _write_json(out / f"{cfg.tag}_lattice.json", report)
    subjects = ("claim", "strike", "event", "node")
    rows = [[r["check"], next(r[k] for k in subjects if k in r), r["residual"]]
            for r in report["residuals"]]
    _write_csv(out / f"{cfg.tag}_lattice.csv",
               ["check", "subject", "residual"], rows)
    bad = [r for r in report["residuals"] if r["residual"] != 0]
    print(f"{len(report['residuals'])} residuals, {len(bad)} nonzero")
    return 2 if bad else 0


def _run_physical(cfg: ExperimentConfig, out: Path) -> int:
    if not cfg.tree:
        raise ConfigError("physical needs --tree")
    tree = ltree.load_tree(cfg.tree)
    rep = consistency_checks(build_physical(tree))
    _write_json(out / f"{cfg.tag}_physical.json", rep)
    print(f"p_explosion={rep.p_explosion} p_devaluation={rep.p_devaluation} "
          f"interpretation={rep.interpretation_holds} "
          f"support={rep.support_checks_passed} "
          f"replication={rep.replication_price_matches}")
    ok = (rep.interpretation_holds and rep.support_checks_passed
          and rep.replication_price_matches)
    return 0 if ok else 2


def _run_convergence(cfg: ExperimentConfig, out: Path) -> int:
    entry = _entry(cfg)
    ref, rows = scheme_convergence(entry.model, cfg.levels, cfg.mc())
    _write_csv(out / f"{cfg.tag}_convergence.csv",
               ["steps", "estimate", "stderr", "abs_diff"],
               [[r.steps, r.estimate, r.stderr, r.abs_diff] for r in rows])
    _write_json(out / f"{cfg.tag}_convergence.json",
                {"exact": ref, "levels": rows})
    print(f"exact estimate {ref.mean:.6f} (se {ref.stderr:.2g})")
    for r in rows:
        print(f"steps={r.steps}: estimate={r.estimate:.6f} |diff|={r.abs_diff:.6f}")
    return 0


def _run_catalog(cfg: ExperimentConfig, out: Path) -> int:
    for name in list_models():
        if name.startswith("qnv"):
            print(f"{name}: quadratic diffusion family, euler scheme only")
            continue
        entry = get_model(name, x0=cfg.x0, horizon=cfg.horizon, vol=cfg.vol)
        flags = dict(entry.model.dual_payoff_flags) or "all integrable"
        print(f"{name}: exact={entry.model.exact_scheme} "
              f"dual_exact={entry.model.dual_exact_scheme} flags={flags}")
    return 0


_RUNNERS = {
    "price": _run_price,
    "parity": _run_parity,
    "intl": _run_intl,
    "defect": _run_defect,
    "lattice-verify": _run_lattice_verify,
    "physical": _run_physical,
    "convergence": _run_convergence,
    "catalog": _run_catalog,
}


def run(cfg: ExperimentConfig) -> int:
    """Execute a validated experiment; returns the process exit code."""
    return _RUNNERS[cfg.command](cfg, _out_dir(cfg))


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", help="catalog model name")
    p.add_argument("--x0", type=float)
    p.add_argument("--T", dest="horizon", type=float)
    p.add_argument("--vol", type=float,
                   help="volatility of the lognormal baseline")
    p.add_argument("--n", type=int)
    p.add_argument("--steps", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--scheme", help="auto | exact | euler_absorbed")
    p.add_argument("--workers", type=int)
    p.add_argument("--out-dir", dest="out_dir")
    p.add_argument("--tag", help="artifact filename prefix")


def _strike_list(s: str) -> list[float]:
    return [float(tok) for tok in s.split(",") if tok.strip()]


def build_parser() -> argparse.ArgumentParser:
    """The command-line parser.  An option left out is left out of the
    namespace too, so ExperimentConfig's defaults are the only ones."""
    parser = argparse.ArgumentParser(
        prog="dualfx",
        description="two-measure FX pricing engine and verification suite")
    sub = parser.add_subparsers(dest="command", required=True)

    command = functools.partial(sub.add_parser,
                                argument_default=argparse.SUPPRESS)

    p = command("price", help="price one claim with the decomposition")
    _add_common(p)
    p.add_argument("--claim")
    p.add_argument("--strike", type=float)
    p.add_argument("--dump-samples", dest="dump_samples", action="store_true",
                   help="also write the raw terminal samples as CSV")

    p = command("parity", help="put-call parity table")
    _add_common(p)
    p.add_argument("--strikes", type=_strike_list)

    p = command("intl", help="international put-call equivalence table")
    _add_common(p)
    p.add_argument("--strikes", type=_strike_list)

    p = command("defect", help="martingale defect vs dual explosion mass")
    _add_common(p)

    p = command("lattice-verify", help="exact identity suite on a tree")
    p.add_argument("--tree", required=True, help="tree spec JSON path")
    p.add_argument("--strikes", type=_strike_list)
    p.add_argument("--out-dir", dest="out_dir")
    p.add_argument("--tag")

    p = command("physical", help="physical-measure checks on a tree")
    p.add_argument("--tree", required=True)
    p.add_argument("--out-dir", dest="out_dir")
    p.add_argument("--tag")

    p = command("convergence", help="euler vs exact scheme study")
    _add_common(p)
    p.add_argument("--levels", type=lambda s: [int(t) for t in s.split(",")])

    p = command("catalog", help="list catalog models")
    p.add_argument("--x0", type=float)
    p.add_argument("--T", dest="horizon", type=float)
    p.add_argument("--vol", type=float)
    p.add_argument("--out-dir", dest="out_dir")

    p = command("run", help="run an experiment config JSON file")
    p.add_argument("config_path")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        if ns.command == "run":
            with open(ns.config_path) as fh:
                cfg = validate_config(json.load(fh))
        else:
            cfg = validate_config(vars(ns))
        return run(cfg)
    except (DualFXError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
