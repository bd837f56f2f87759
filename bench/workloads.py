"""The three benchmark workloads: set-up, one operation, and its checks.

Each workload builds its inputs from the workload seed at set-up.  `op(tr)`
runs one operation, wrapping every call into a dualfx layer in a span named
after that layer; `check(res)` raises CheckFailed when an output is wrong;
`values(res)` gives one operation's per-layer counts and accuracy figures;
`times(res, ms)` its per-layer times from the span times, re-timing after the
operation, outside it, the parts a layer hides inside one call (the Euler
draws and `sigma`, and the simulation inside the table functions); and
`finish(agg)` adds the metrics derived from the per-operation means.

Statistical checks use 5 sigma: a benchmark check makes ~1e5 of them, so 3
sigma would fail runs routinely.  The tests keep their 3-sigma gates.

Under recip_bessel the rate X_T has P(X_T > x) ~ x^-3, so a dollar payoff
that grows like X_T has a finite variance but an infinite third moment.  Its
sample standard error then falls short of the true one in most batches (the
tail that carries the variance is seldom sampled), and the z-score has a
heavy left tail: over 12000 operations at n = 16384 the z-score of the intl
call equivalence at K = 2 had mean -0.15, skew -0.47 and minimum -5.31.  So
every z-score of exact_report whose standard error includes such a dollar
leg uses, for that leg, at least the true standard deviation over sqrt(n),
computed at set-up by quadrature (`_dollar_sd`); on the same operations that
z-score then had mean -0.06, skew -0.04 and largest |z| 3.50.  The gate
stays 5 sigma, now of the true standard error.
"""

from __future__ import annotations

import math
import random
import tempfile
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
from scipy.integrate import quad

from dualfx.catalog import get_model
from dualfx.lattice import (bayes_check, build_dual_tree, first_hit_rule,
                            martingale_transfer_check,
                            parity_and_equivalence_report, period_rule,
                            price_on_tree, random_claim,
                            random_complete_dual_tree, random_dual_tree,
                            random_rule_pair, random_terminal_values,
                            superreplicate_backward, tree_euro_forward,
                            tree_to_doc, verify_numeraire_identity,
                            verify_strategy)
from dualfx.physical import build_physical, consistency_checks
from dualfx.pricing import (CLAIM_KINDS, euro_correction_values,
                            euro_leg_values, make_batches, make_claim,
                            martingale_defect, parity_table, price,
                            price_euro_side, intl_equivalence_table,
                            tail_diagnostic)
from dualfx.sde import MCConfig, cross_measure_check, derive_dual_model
from dualfx.sde.engine import BLOCK, block_generator, dump_batch_csv, dual_seed

Z_GATE = 5.0
STRIKES = (0.5, 1.0, 2.0)


class CheckFailed(Exception):
    """An operation returned a wrong output."""


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def _z(value: float, truth: float, stderr: float) -> float:
    return (value - truth) / stderr if stderr > 0 else (
        0.0 if value == truth else math.inf)


def _require_z(z: float, what: str) -> None:
    _require(abs(z) <= Z_GATE, f"{what}: |z| = {abs(z):.2f} > {Z_GATE}")


def _stderr(values: np.ndarray) -> float:
    return float(values.std(ddof=1)) / math.sqrt(values.size)


def _mean_z(values: np.ndarray, truth: float, sd: float = 0.0) -> float:
    """z of the sample mean, its standard error at least sd / sqrt(n)."""
    se = max(_stderr(values), sd / math.sqrt(values.size))
    return _z(float(values.mean()), truth, se)


def _floored_z(z: float, total_se: float, part_se: float, sd: float,
               n: int) -> float:
    """`z`, whose standard error `total_se` is the root sum of squares of
    independent parts, one of them `part_se`, re-scaled to the standard
    error with that part raised to at least the true sd / sqrt(n)."""
    floor = sd / math.sqrt(n)
    if part_se >= floor:
        return z
    return z * total_se / math.sqrt(total_se ** 2 - part_se ** 2 + floor ** 2)


def _blocks(n: int) -> list[tuple[int, int]]:
    return [(b, min(BLOCK, n - b * BLOCK)) for b in range((n + BLOCK - 1) // BLOCK)]


def _recip_bessel_refs() -> tuple[float, float]:
    """(E[X_T], euro-measure explosion mass) of sigma(x) = x^2 from x0 = 1."""
    analytic = get_model("recip_bessel").analytic
    return analytic["expected_x"](), analytic["dual_absorption_prob"]()


def _dollar_sd(model, payoff) -> float:
    """Standard deviation of the dollar payoff `payoff(X_T)` under
    recip_bessel, by quadrature: E_Q$[h(X_T)] = x0 E[h(1/Y_T) Y_T; Y_T > 0]
    with Y Brownian motion from 1/x0 killed at zero, the change of measure
    the catalog's analytic E[X_T^2] uses."""
    a, s = 1.0 / model.x0, math.sqrt(model.horizon)
    c = 1.0 / (s * math.sqrt(2.0 * math.pi))

    def moment(p: int) -> float:
        def integrand(y: float) -> float:
            killed = c * (math.exp(-0.5 * ((y - a) / s) ** 2)
                          - math.exp(-0.5 * ((y + a) / s) ** 2))
            return float(payoff(np.array([1.0 / y]))[0]) ** p * y * killed
        return model.x0 * quad(integrand, 0.0, np.inf, limit=400)[0]

    m1 = moment(1)
    return math.sqrt(max(moment(2) - m1 * m1, 0.0))


def _mc_values(primal, dual, expected_x: float, call) -> dict[str, float]:
    return {
        "sde.engine.devalued_frac": float((primal.x == 0.0).mean()),
        "sde.engine.bias_z": _mean_z(primal.x, expected_x),
        "sde.engine.exploded_frac": float(dual.hit_infinity.mean()),
        "pricing.total_stderr": call.total_stderr,
    }


class _Workload:
    def __init__(self, seed: int):
        self._op_seeds = random.Random(seed)

    def next_seed(self) -> int:
        return self._op_seeds.getrandbits(62)

    def finish(self, agg: dict[str, float]) -> None:
        """Add the metrics derived from the per-operation means."""

    def close(self) -> None:
        pass


class EulerPaths(_Workload):
    """qnv(1,0,0), i.e. sigma(x) = x^2, by bridged Euler on both legs."""

    def __init__(self, seed: int, tiny: bool):
        super().__init__(seed)
        self.model = get_model("qnv(1,0,0)").model
        self.dual_model = derive_dual_model(self.model)
        self.expected_x, self.dual_mass = _recip_bessel_refs()
        self.n, self.steps = (1024, 8) if tiny else (16_384, 64)
        self.tail_ns = [64, 256] if tiny else [1024, 4096]
        self.ops = 0

    def config(self, seed: int, workers: int = 1) -> MCConfig:
        return MCConfig(n=self.n, steps=self.steps, seed=seed,
                        scheme="euler_absorbed", workers=workers)

    def op(self, tr) -> dict:
        cfg = self.config(self.next_seed())
        k = STRIKES[self.ops % len(STRIKES)]
        self.ops += 1
        with tr.span("sde.engine.simulate"):
            batches = make_batches(self.model, cfg)
        with tr.span("pricing.price"):
            call = price(self.model, make_claim("call", k), cfg, batches)
        with tr.span("pricing.defect"):
            defect = martingale_defect(self.model, cfg, batches)
        with tr.span("pricing.tail"):
            tail = tail_diagnostic(self.model, make_claim("self_quantoed", 1.0),
                                   self.tail_ns, replace(cfg, steps=16))
        return {"cfg": cfg, "batches": batches, "call": call,
                "defect": defect, "tail": tail}

    def check(self, res: dict) -> None:
        primal, dual = res["batches"]
        call, defect = res["call"], res["defect"]
        _require(np.isfinite(primal.x).all(), "non-finite primal X_T")
        _require(call.total_dollar == call.classical.mean + call.correction.mean,
                 "call total != classical + correction")
        _require(all(math.isfinite(v) for v in (
            call.total_dollar, call.total_stderr, defect.defect,
            defect.dual_mass, defect.z)), "non-finite price or defect")
        _require(all(math.isfinite(p.running_mean) for p in res["tail"]),
                 "non-finite tail diagnostic")
        # the dual coefficient is 1, where the bridged Euler scheme is exact
        _require_z(_mean_z(dual.hit_infinity.astype(float), self.dual_mass),
                   "dual explosion mass vs analytic")

    def values(self, res: dict) -> dict[str, float]:
        primal, dual = res["batches"]
        return _mc_values(primal, dual, self.expected_x, res["call"])

    def times(self, res: dict, ms: dict[str, float]) -> dict[str, float]:
        """Span times, plus a replay of exactly the operation's normals and
        uniforms and of both legs' sigma once per step and block, each timed
        on its own after the operation."""
        cfg = res["cfg"]
        primal, dual = res["batches"]
        legs = ((cfg.seed, self.model.sigma, primal.x),
                (dual_seed(cfg.seed), self.dual_model.sigma, dual.y))
        dt = self.model.horizon / self.steps
        t0 = time.perf_counter()
        for seed, _, _ in legs:
            for b, m in _blocks(self.n):
                gen = block_generator(seed, b)
                for _ in range(self.steps):
                    gen.standard_normal(m)
                    gen.random(m)
        t1 = time.perf_counter()
        for _, sigma, values in legs:
            for b, m in _blocks(self.n):
                x = values[b * BLOCK:b * BLOCK + m]
                x = np.where(x > 0.0, x, 1.0)
                for k in range(self.steps):
                    sigma(x, k * dt)
        t2 = time.perf_counter()
        return {
            "sde.engine.simulate_ms": ms["sde.engine.simulate"],
            "sde.engine.rng_ms": (t1 - t0) * 1e3,
            "sde.models.sigma_ms": (t2 - t1) * 1e3,
            "pricing.price_ms": ms["pricing.price"],
            "pricing.claims_ms": ms["pricing.price"],
            "pricing.defect_ms": ms["pricing.defect"],
            "pricing.tail_ms": ms["pricing.tail"],
        }

    def finish(self, agg: dict[str, float]) -> None:
        sim = agg["sde.engine.simulate_ms"]
        agg["sde.engine.step_ms"] = (sim - agg["sde.engine.rng_ms"]
                                     - agg["sde.models.sigma_ms"])
        agg["sde.engine.path_steps_per_s"] = (2 * self.n * self.steps
                                              / (sim / 1e3))


class ExactReport(_Workload):
    """recip_bessel with its exact samplers: the full two-measure report."""

    def __init__(self, seed: int, tiny: bool, scratch: Path):
        super().__init__(seed)
        self.model = get_model("recip_bessel").model
        self.expected_x, self.dual_mass = _recip_bessel_refs()
        self.n = 2048 if tiny else 16_384
        self.ops = 0
        # true standard deviations of the dollar legs the checks use
        self.x_sd = _dollar_sd(self.model, lambda x: x)
        self.claim_sd = {
            (kind, k): _dollar_sd(self.model,
                                  make_claim(kind, k).dollar_finite)
            for kind in CLAIM_KINDS if kind != "self_quantoed"
            for k in STRIKES}
        self._tmp = tempfile.TemporaryDirectory(dir=scratch)
        self.csv_path = Path(self._tmp.name) / "euro_batch.csv"

    def close(self) -> None:
        self._tmp.cleanup()

    def op(self, tr) -> dict:
        cfg = MCConfig(n=self.n, seed=self.next_seed())
        k = STRIKES[self.ops % len(STRIKES)]
        self.ops += 1
        with tr.span("sde.engine.simulate"):
            batches = make_batches(self.model, cfg)
        prices = {}
        with tr.span("pricing.claims"):
            for kind in CLAIM_KINDS:
                claim = make_claim(kind, k)
                with tr.span("pricing.price"):
                    p = price(self.model, claim, cfg, batches)
                euro = None
                if math.isfinite(p.total_dollar):
                    with tr.span("pricing.price_euro_side"):
                        euro = price_euro_side(self.model, claim, cfg, batches)
                prices[kind] = (p, euro)
        with tr.span("pricing.parity"):
            parity = parity_table(self.model, STRIKES, cfg)
        with tr.span("pricing.intl"):
            intl = intl_equivalence_table(self.model, STRIKES, cfg)
        with tr.span("pricing.defect"):
            defect = martingale_defect(self.model, cfg, batches)
        with tr.span("sde.engine.cross_check"):
            cross = cross_measure_check(self.model, lambda x: min(x, 1.0), cfg)
        with tr.span("sde.engine.csv"):
            dump_batch_csv(batches[1], self.csv_path)
        return {"cfg": cfg, "strike": k, "batches": batches, "prices": prices,
                "parity": parity, "intl": intl, "defect": defect,
                "cross": cross, "csv_bytes": self.csv_path.stat().st_size}

    def check(self, res: dict) -> None:
        primal, dual = res["batches"]
        x0, n, k = self.model.x0, self.n, res["strike"]
        _require_z(_mean_z(primal.x, self.expected_x, self.x_sd),
                   "E[X_T] vs analytic")
        _require_z(_mean_z(dual.hit_infinity.astype(float), self.dual_mass),
                   "dual explosion mass vs analytic")
        for kind, (p, euro) in res["prices"].items():
            if euro is None:
                _require(kind == "self_quantoed"
                         and p.flags.get("analytic_infinite") is True,
                         f"{kind}: unexpected infinite price")
                continue
            _require(p.total_dollar == p.classical.mean + p.correction.mean,
                     f"{kind}: total != classical + correction")
            euro_classical, deval = euro
            se = math.hypot(euro_classical.stderr, deval.stderr,
                            p.total_stderr / x0)
            z = _z(euro_classical.mean + deval.mean, p.total_euro, se)
            _require_z(_floored_z(z, se, p.classical.stderr / x0,
                                  self.claim_sd[kind, k] / x0, n),
                       f"{kind}: euro-side total vs dollar total / x0")
        # a parity row's violation_stderr is the standard error of its dollar
        # legs, X_T - K path by path; residual_stderr adds the explosion mass
        for row in res["parity"]:
            _require_z(_floored_z(_z(row.residual, 0.0, row.residual_stderr),
                                  row.residual_stderr, row.violation_stderr,
                                  self.x_sd, n),
                       f"parity residual at K={row.strike}")
            se = row.violation_stderr
            _require_z(_floored_z(_z(row.classical_violation,
                                     -x0 * self.dual_mass, se),
                                  se, se, self.x_sd, n),
                       f"classical parity violation at K={row.strike}")
        # z_call compares the dollar call (X_T - K)^+ with x0 times the dual
        # batch's correction minus K times the dollar put at 1/K's euro leg,
        # on the batches of the operation's seed
        for row in res["intl"]:
            call = make_claim("call", row.strike)
            put = make_claim("dollar_put", 1.0 / row.strike)
            se_a = _stderr(call.dollar_finite(primal.x))
            se_b = _stderr(x0 * (euro_correction_values(call, dual)
                                 - row.strike * euro_leg_values(put, dual)))
            _require_z(_floored_z(row.z_call, math.hypot(se_a, se_b), se_a,
                                  self.claim_sd["call", row.strike], n),
                       f"intl call equivalence at K={row.strike}")
            _require_z(row.z_put, f"intl put equivalence at K={row.strike}")
        d = res["defect"]
        _require_z(_floored_z(d.z, math.hypot(d.defect_stderr, d.mass_stderr),
                              d.defect_stderr, self.x_sd, n),
                   "martingale defect vs explosion mass")
        _require_z(res["cross"].z, "cross-measure check, f = min(x, 1)")
        self._check_csv(dual)

    def _check_csv(self, dual) -> None:
        text = self.csv_path.read_text()
        lines = text.splitlines()
        _require(len(lines) == self.n + 1 and
                 lines[0] == "x_T,hit_zero_time,hit_infinity", "CSV shape")
        i = self.ops % self.n
        x = float(lines[i + 1].split(",")[0])
        _require(x == dual.x[i] and lines[i + 1].endswith(
            f",{int(dual.hit_infinity[i])}"), f"CSV row {i}")

    def values(self, res: dict) -> dict[str, float]:
        primal, dual = res["batches"]
        out = _mc_values(primal, dual, self.expected_x,
                         res["prices"]["call"][0])
        out["sde.engine.csv_bytes"] = float(res["csv_bytes"])
        return out

    def times(self, res: dict, ms: dict[str, float]) -> dict[str, float]:
        """Span times; the table functions' self time subtracts the same-config
        make_batches each of them runs inside, timed here after the
        operation."""
        t0 = time.perf_counter()
        make_batches(self.model, res["cfg"])
        inner = (time.perf_counter() - t0) * 1e3
        return {
            "sde.engine.simulate_ms": ms["sde.engine.simulate"],
            "pricing.claims_ms": ms["pricing.claims"],
            "pricing.price_ms": ms["pricing.price"],
            "pricing.parity_ms": ms["pricing.parity"] - inner,
            "pricing.intl_ms": ms["pricing.intl"] - inner,
            "pricing.defect_ms": ms["pricing.defect"],
            "sde.engine.cross_check_ms": ms["sde.engine.cross_check"] - inner,
            "sde.engine.csv_ms": ms["sde.engine.csv"],
        }

    def finish(self, agg: dict[str, float]) -> None:
        agg["sde.engine.csv_rows_per_s"] = (self.n
                                            / (agg["sde.engine.csv_ms"] / 1e3))


class LatticeCorpus(_Workload):
    """Acceptance criteria 1, 2 and 9, one corpus tree per operation.

    The trees are the same for every workload seed (tree i is generated from
    seed i), so that the figures of different seeds compare: an operation's
    cost grows steeply with tree size (2 to ~200 nodes), so a corpus drawn
    afresh per seed would decide much of a run's figures.  The workload seed
    draws the order of the trees and each tree's rule pair, payoffs and
    claim.
    """

    def __init__(self, seed: int, tiny: bool):
        super().__init__(seed)
        count, periods = (16, 3) if tiny else (200, 6)
        self.corpus = []
        for i in range(count):
            # complete trees alternate with general ones; explosion and
            # devaluation are toggled in turn as in acceptance criterion 9
            toggle = (i // 2) % 4
            kw = {"allow_explosion": toggle not in (1, 3),
                  "allow_devaluation": toggle not in (2, 3)}
            complete = i % 2 == 0
            tree = (random_complete_dual_tree(i, periods, **kw) if complete
                    else random_dual_tree(i, periods, **kw))
            s = self.next_seed()
            rho, tau = random_rule_pair(tree, s)
            self.corpus.append({
                "doc": tree_to_doc(tree),
                "complete": complete,
                "rho": rho, "tau": tau,
                "y": random_terminal_values(tree, tau, s + 2),
                "process": random_terminal_values(tree, frozenset(tree.nodes),
                                                  s + 3),
                "claim": random_claim(tree, s + 4),
            })
        self._order: list[int] = []

    def op(self, tr) -> dict:
        # seeded shuffled passes: every tree is used once per pass
        if not self._order:
            self._order = list(range(len(self.corpus)))
            self._op_seeds.shuffle(self._order)
        item = self.corpus[self._order.pop()]
        with tr.span("lattice.tree.build"):
            tree = build_dual_tree(item["doc"])
        residuals = []
        with tr.span("lattice.checks.verify"):
            for t in range(tree.periods + 1):
                rule = period_rule(tree, t)
                residuals.append(verify_numeraire_identity(tree, rule, rule))
                for nid in rule:
                    residuals.append(verify_numeraire_identity(tree, [nid], rule))
            hit = first_hit_rule(tree, lambda n: not n.x.is_finite)
            residuals.append(verify_numeraire_identity(tree, hit, hit))
            residuals.extend(bayes_check(tree, item["y"], item["rho"],
                                         item["tau"]).values())
            transfer = martingale_transfer_check(
                tree, item["process"], period_rule(tree, tree.periods))
        with tr.span("lattice.pricing.formula"):
            rows = parity_and_equivalence_report(
                tree, [Fraction(1, 2), Fraction(2)])
            forward = price_on_tree(tree, tree_euro_forward(tree))
            formula = price_on_tree(tree, item["claim"]).total_dollar
        with tr.span("lattice.pricing.superrep"):
            cost, strategy = superreplicate_backward(tree, item["claim"])
            verify_strategy(tree, item["claim"], strategy,
                            require_equality=item["complete"])
        with tr.span("physical.checks"):
            physical = consistency_checks(build_physical(tree))
        return {"tree": tree, "complete": item["complete"],
                "residuals": residuals, "transfer": transfer, "rows": rows,
                "forward": forward, "formula": formula, "cost": cost,
                "strategy": strategy, "physical": physical}

    def check(self, res: dict) -> None:
        tree = res["tree"]
        bad = sum(1 for r in res["residuals"] if r != 0)
        _require(bad == 0, f"{bad} nonzero numeraire/Bayes residual(s)")
        _require(res["transfer"][0] == res["transfer"][1],
                 "martingale transfer: measures disagree")
        for row in res["rows"]:
            _require(row.parity_residual == 0 and row.intl_call_residual == 0
                     and row.intl_put_residual == 0
                     and row.classical_violation == -row.explosion_mass,
                     f"lattice parity/equivalence at K={row.strike}")
        fwd = res["forward"]
        _require(fwd.total_euro == fwd.euro_classical + fwd.euro_correction
                 and fwd.total_dollar == tree.x0, "euro forward price")
        if res["complete"]:
            _require(res["cost"] == res["formula"],
                     "superreplication cost != formula on a complete tree")
        else:
            _require(res["cost"] >= res["formula"],
                     "superreplication cost < formula")
        rep = res["physical"]
        _require(rep.support_checks_passed and rep.replication_price_matches
                 and rep.interpretation_holds
                 and (rep.p_explosion > 0) == (rep.defect_dollar > 0)
                 and (rep.p_devaluation > 0) == (rep.defect_euro > 0),
                 "physical-measure consistency")

    def values(self, res: dict) -> dict[str, float]:
        return {
            "lattice.tree.nodes": float(len(res["tree"].nodes)),
            # numeraire and Bayes residuals, four per parity row, and the
            # two euro-forward identities
            "lattice.checks.residuals": float(len(res["residuals"])
                                              + 4 * len(res["rows"]) + 2),
            "lattice.pricing.lp_solves": float(len(res["strategy"].holdings)),
        }

    def times(self, res: dict, ms: dict[str, float]) -> dict[str, float]:
        return {
            "lattice.tree.build_ms": ms["lattice.tree.build"],
            "lattice.checks.verify_ms": ms["lattice.checks.verify"],
            "lattice.pricing.formula_ms": ms["lattice.pricing.formula"],
            "lattice.pricing.superrep_ms": ms["lattice.pricing.superrep"],
            "physical.checks_ms": ms["physical.checks"],
        }
