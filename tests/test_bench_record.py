"""tools/bench_record.py: the reduction over seeds, the choice of the
previous BENCH file, the comparison and its printout, on synthetic records
only."""

import importlib.util
import json
import re
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_record.py"
_spec = importlib.util.spec_from_file_location("bench_record", _PATH)
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)


def _run(attempted, failed, **metrics):
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": "u"}
                        for k, v in metrics.items()}}


def _record(**workloads):
    return {"pr": 0, "seeds": [1, 2, 3], "seconds": 30,
            "workloads": workloads}


def test_summarize_takes_medians_over_seeds_per_section():
    runs = {"lattice_corpus": {
        0: [_run(10, 0, ops_per_s=100.0), _run(12, 1, ops_per_s=300.0),
            _run(11, 0, ops_per_s=120.0)],
        1: [_run(5, 0, **{"lattice.tree.build_ms": 2.0}),
            _run(5, 0, **{"lattice.tree.build_ms": 4.0})]}}
    got = bench_record.summarize(runs)["lattice_corpus"]
    assert got["end_to_end"] == {"ops_per_s": 120.0}
    assert got["per_layer"] == {"lattice.tree.build_ms": 3.0}
    assert (got["attempted"], got["failed"]) == (43, 1)


def test_previous_file_is_the_newest_below_the_pr(tmp_path):
    assert bench_record.previous_file(tmp_path, 11) is None
    for name in ("BENCH_3.json", "BENCH_10.json", "BENCH_11.json",
                 "BENCH_12.json", "BENCH_x.json", "BENCH_9.json.bak"):
        (tmp_path / name).write_text("{}")
    assert bench_record.previous_file(tmp_path, 11).name == "BENCH_10.json"
    assert bench_record.previous_file(tmp_path, 12).name == "BENCH_11.json"
    assert bench_record.previous_file(tmp_path, 3) is None


def test_compare_reports_relative_change():
    old = _record(lattice_corpus={
        "end_to_end": {"ops_per_s": 160.0, "op_p50_ms": 3.0,
                       "setup_s": 1.2, "peak_rss_mb": 0.0},
        "per_layer": {"lattice.pricing.formula_ms": 2.0}},
        euler_paths={"end_to_end": {"ops_per_s": 10.0}})
    new = _record(lattice_corpus={
        "end_to_end": {"ops_per_s": 200.0, "op_p50_ms": 2.4,
                       "setup_s": 1.2, "peak_rss_mb": 90.0, "extra": 1.0},
        "per_layer": {"lattice.pricing.formula_ms": 3.0}},
        exact_report={"end_to_end": {"ops_per_s": 20.0}})
    rows = {(w, s, n): (was, value, rel) for w, s, n, was, value, rel
            in bench_record.compare(old, new)}
    # only metrics both records carry; the unmatched workloads drop out
    assert set(rows) == {
        ("lattice_corpus", "end_to_end", "ops_per_s"),
        ("lattice_corpus", "end_to_end", "op_p50_ms"),
        ("lattice_corpus", "end_to_end", "setup_s"),
        ("lattice_corpus", "end_to_end", "peak_rss_mb"),
        ("lattice_corpus", "per_layer", "lattice.pricing.formula_ms")}
    key = ("lattice_corpus", "end_to_end")
    assert rows[key + ("ops_per_s",)] == (160.0, 200.0, pytest.approx(0.25))
    assert rows[key + ("op_p50_ms",)][2] == pytest.approx(-0.2)
    assert rows[key + ("setup_s",)][2] == 0.0
    # a zero baseline has no relative change
    assert rows[key + ("peak_rss_mb",)][2] is None
    assert rows[("lattice_corpus", "per_layer",
                 "lattice.pricing.formula_ms")][2] == pytest.approx(0.5)


@pytest.mark.parametrize("key, value", [("seeds", [1, 2, 4]),
                                        ("seconds", 10)])
def test_compare_refuses_records_of_other_seeds_or_length(key, value):
    old = _record(lattice_corpus={"end_to_end": {"ops_per_s": 1.0}})
    new = dict(old, **{key: value})
    with pytest.raises(ValueError, match=key):
        bench_record.compare(old, new)


def test_cli_wall_ms_takes_the_median_of_fresh_runs_per_command():
    """A stubbed runner stands in for the processes: each command's times
    are its argv's calls, and the median of five is kept, in ms."""
    calls = []
    times = iter([0.5, 0.1, 0.3, 0.2, 0.4] * len(bench_record.CLI_COMMANDS))

    def run(argv):
        calls.append(argv)
        return next(times)

    got = bench_record.cli_wall_ms(run, "t.json")
    assert got == {cmd: pytest.approx(300.0) for cmd in
                   ("price", "parity", "intl", "defect", "convergence",
                    "lattice-verify", "physical")}
    assert len(calls) == 5 * len(got)
    assert calls[0] == ["price", "--model", "recip_bessel"]
    assert ["physical", "--tree", "t.json"] in calls


def test_compare_includes_cli_rows_both_records_carry():
    old = _record(lattice_corpus={"end_to_end": {"ops_per_s": 1.0}})
    new = dict(_record(lattice_corpus={"end_to_end": {"ops_per_s": 2.0}}),
               cli={"price": 1500.0, "physical": 400.0})
    # an older record without CLI rows compares on the workloads alone
    assert [r[0] for r in bench_record.compare(old, new)] == ["lattice_corpus"]
    old["cli"] = {"price": 1000.0}
    assert bench_record.compare(old, new)[-1] == (
        "cli", "wall_ms", "price", 1000.0, 1500.0, pytest.approx(0.5))


def test_main_writes_the_record_and_prints_raw_changes_only(
        tmp_path, monkeypatch, capsys):
    """`main` end to end with the benchmark and the CLI stubbed: the record
    keeps its keys, and each printed row is old -> new and its raw change,
    with nothing derived beside it (the host probe moves 40 -> 30 ms, a
    ratio no row divides out)."""
    per_seed = {0: {"ops_per_s": [120.0, 125.0, 130.0]},
                1: {"lattice.tree.build_ms": [0.6, 0.6, 0.6],
                    "host.calib_ms": [30.0, 30.0, 30.0]}}

    def run_bench(checkout, workload, seed, seconds, trace):
        assert checkout == tmp_path and seconds == 30
        return _run(4, 0, **{k: v[seed - 1]
                             for k, v in per_seed[trace].items()})

    monkeypatch.setattr(bench_record, "run_bench", run_bench)
    monkeypatch.setattr(bench_record, "record_cli",
                        lambda: {"price": 1500.0})
    monkeypatch.setattr(bench_record, "ROOT", tmp_path)
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"run_seconds": 30}))
    old = dict(_record(lattice_corpus={
        "end_to_end": {"ops_per_s": 100.0},
        "per_layer": {"lattice.tree.build_ms": 0.8, "host.calib_ms": 40.0}}),
        cli={"price": 1000.0})
    (tmp_path / "BENCH_3.json").write_text(json.dumps(old))

    assert bench_record.main(["--pr", "4"]) == 0
    record = json.loads((tmp_path / "BENCH_4.json").read_text())
    # the keys of every committed BENCH file since the CLI rows came in
    assert set(record) == {"cli", "command", "host", "pr", "reduction",
                           "seconds", "seeds", "workloads"}
    assert record["workloads"]["lattice_corpus"]["end_to_end"] == {
        "ops_per_s": 125.0}
    assert record["cli"] == {"price": 1500.0}

    out = capsys.readouterr().out.splitlines()
    head = next(i for i, line in enumerate(out)
                if line.startswith("relative change against BENCH_3.json"))
    rows = {}
    for line in out[head + 1:]:
        m = re.fullmatch(r" +(\S+) +(\S+) +(\S+) +(\S+) -> +(\S+) +(\S+)",
                         line)
        assert m, line
        rows[m[1], m[3]] = m[4], m[5], m[6]
    assert rows == {
        ("lattice_corpus", "ops_per_s"): ("100", "125", "+25.0%"),
        ("lattice_corpus", "lattice.tree.build_ms"): ("0.8", "0.6", "-25.0%"),
        ("lattice_corpus", "host.calib_ms"): ("40", "30", "-25.0%"),
        ("cli", "price"): ("1000", "1500", "+50.0%")}


def test_main_prints_differences_for_percent_sigma_and_ratio_units(
        tmp_path, monkeypatch, capsys):
    """A metric whose BENCHMARK.json unit is %, sigma or ratio sits near 0 or
    is relative already, so its printed change is new - old; every other
    metric, and a CLI row, keeps its relative change."""
    units = {"trace.overhead_pct": "%", "sde.engine.bias_z": "sigma",
             "trace.coverage": "ratio", "sde.engine.step_ms": "ms"}
    new = {"trace.overhead_pct": 0.397, "sde.engine.bias_z": -0.0077,
           "trace.coverage": 0.99, "sde.engine.step_ms": 6.0}
    old = {"trace.overhead_pct": 0.036, "sde.engine.bias_z": -0.0086,
           "trace.coverage": 0.98, "sde.engine.step_ms": 5.0}
    monkeypatch.setattr(bench_record, "run_bench",
                        lambda checkout, workload, seed, seconds, trace: _run(
                            4, 0, **(new if trace else {"ops_per_s": 12.0})))
    monkeypatch.setattr(bench_record, "record_cli", lambda: {"price": 900.0})
    monkeypatch.setattr(bench_record, "ROOT", tmp_path)
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({
        "run_seconds": 30,
        "end_to_end": [{"name": "ops_per_s", "unit": "1/s"}],
        "per_layer": [{"name": k, "unit": u} for k, u in units.items()]}))
    (tmp_path / "BENCH_3.json").write_text(json.dumps(dict(
        _record(euler_paths={"end_to_end": {"ops_per_s": 10.0},
                             "per_layer": old}),
        cli={"price": 1000.0})))

    assert bench_record.main(["--pr", "4"]) == 0
    rows = (re.fullmatch(r" +\S+ +\S+ +(\S+) +\S+ -> +\S+ +(\S+)", line)
            for line in capsys.readouterr().out.splitlines())
    assert dict(m.groups() for m in rows if m) == {
        "ops_per_s": "+20.0%", "sde.engine.step_ms": "+20.0%",
        "trace.overhead_pct": "+0.361", "sde.engine.bias_z": "+0.0009",
        "trace.coverage": "+0.01", "price": "-10.0%"}


def _failing_checkout(root):
    """A checkout whose bench/run.py writes 30 lines of noise and then
    "boom" to stderr, and exits 3."""
    (root / "bench").mkdir()
    (root / "bench" / "run.py").write_text(
        "import sys\n"
        "for i in range(30):\n"
        "    print(f'noise {i}', file=sys.stderr)\n"
        "print('boom', file=sys.stderr)\n"
        "sys.exit(3)\n")
    return root


def test_a_failed_run_raises_with_its_checkout_seed_code_and_stderr_tail(
        tmp_path):
    checkout = _failing_checkout(tmp_path)
    with pytest.raises(RuntimeError) as info:
        bench_record.run_bench(checkout, "lattice_corpus", 7, 1.0, 0)
    msg = str(info.value)
    assert f"in {checkout} at seed 7 exited 3" in msg
    assert msg.endswith("noise 29\nboom") and "noise 0\n" not in msg
