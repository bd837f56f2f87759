"""tools/bench_pairs.py: the summary of alternating pairs and its printout,
on synthetic readings only."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

METRICS = [{"name": "ops_per_s", "better": "higher", "bound": 0.25},
           {"name": "op_p90_ms", "better": "lower", "bound": 0.25}]


def _pairs(base_ops, new_ops, base_p90, new_p90):
    return [({"ops_per_s": a, "op_p90_ms": c}, {"ops_per_s": b, "op_p90_ms": d})
            for a, b, c, d in zip(base_ops, new_ops, base_p90, new_p90)]


def test_medians_quartiles_and_change_per_metric():
    pairs = _pairs([100, 110, 90, 120, 105], [110, 121, 99, 132, 115.5],
                   [4, 4, 4, 4, 4], [3, 3, 3, 3, 3])
    got = bench_pairs.summarize(pairs, METRICS)
    assert got["ops_per_s"]["base"] == (100, 105, 110)
    assert got["ops_per_s"]["new"] == (110, 115.5, 121)
    assert got["ops_per_s"]["change"] == pytest.approx(0.1)
    assert got["op_p90_ms"]["change"] == pytest.approx(-0.25)
    # only the claimed metric counts wins
    assert "wins" not in got["ops_per_s"] and "wins" not in got["op_p90_ms"]


def test_wins_follow_the_better_direction_and_ties_count_for_neither():
    pairs = _pairs([100, 100, 100, 100], [101, 99, 100, 102],
                   [4, 4, 4, 4], [3, 5, 4, 4])
    higher = bench_pairs.summarize(pairs, METRICS, "ops_per_s")["ops_per_s"]
    assert (higher["wins"], higher["losses"], higher["ties"]) == (2, 1, 1)
    lower = bench_pairs.summarize(pairs, METRICS, "op_p90_ms")["op_p90_ms"]
    assert (lower["wins"], lower["losses"], lower["ties"]) == (1, 1, 2)


def test_a_gain_counts_beyond_the_base_iqr_only_when_wider():
    base = [100, 104, 96, 108, 92]      # q1 96, median 100, q3 104: IQR 8
    wide = bench_pairs.summarize(
        _pairs(base, [109] * 5, [1] * 5, [1] * 5), METRICS, "ops_per_s")
    narrow = bench_pairs.summarize(
        _pairs(base, [108] * 5, [1] * 5, [1] * 5), METRICS, "ops_per_s")
    worse = bench_pairs.summarize(
        _pairs(base, [91] * 5, [1] * 5, [1] * 5), METRICS, "ops_per_s")
    assert wide["ops_per_s"]["beyond_iqr"]
    assert not narrow["ops_per_s"]["beyond_iqr"]
    # a loss wider than the base's quartile distance is no gain
    assert not worse["ops_per_s"]["beyond_iqr"]
    assert "beyond base IQR: no" in bench_pairs.report(worse, 5)
    # nor on a metric that is better lower: only a fall counts
    p90_base = [4, 4.2, 3.8, 4.4, 3.6]  # q1 3.8, median 4, q3 4.2: IQR 0.4
    fall, rise = (bench_pairs.summarize(
        _pairs([1] * 5, [1] * 5, p90_base, [v] * 5), METRICS,
        "op_p90_ms")["op_p90_ms"]["beyond_iqr"] for v in (3.5, 4.5))
    assert fall and not rise


def test_a_median_worse_than_its_bound_is_flagged_in_either_direction():
    """ops_per_s is better higher and op_p90_ms better lower, both bound by
    25%: a 30% fall of ops and a 30% rise of p90 are flagged, a 20% move
    either way or any gain is not, and a zero base median gives no verdict."""
    got = bench_pairs.summarize(
        _pairs([100] * 3, [70] * 3, [4] * 3, [5.2] * 3), METRICS)
    assert got["ops_per_s"]["regressed"] and got["op_p90_ms"]["regressed"]
    lines = bench_pairs.report(got, 3).splitlines()
    assert all("worse than bound: yes" in line for line in lines)
    within = bench_pairs.summarize(
        _pairs([100] * 3, [80] * 3, [4] * 3, [4.8] * 3), METRICS)
    gains = bench_pairs.summarize(
        _pairs([100] * 3, [200] * 3, [4] * 3, [1] * 3), METRICS)
    for got in (within, gains):
        assert not got["ops_per_s"]["regressed"]
        assert not got["op_p90_ms"]["regressed"]
        assert "worse than bound: no" in bench_pairs.report(got, 3)
    zero = bench_pairs.summarize(_pairs([0], [5], [2], [2]), METRICS)
    assert zero["ops_per_s"]["regressed"] is None
    assert "worse than bound: n/a" in bench_pairs.report(zero, 1)


def test_one_pair_and_a_zero_base_median_are_summarized():
    got = bench_pairs.summarize(_pairs([0], [5], [2], [2]), METRICS,
                                "ops_per_s")
    assert got["ops_per_s"]["base"] == (0, 0, 0)
    assert got["ops_per_s"]["change"] is None
    assert got["ops_per_s"]["paired"] is None
    assert got["op_p90_ms"]["change"] == 0


def test_per_pair_changes_show_a_win_that_host_drift_hides():
    """The base drifts 590 -> 670 while every pair reads +7%: the medians'
    change is within the base's quartile distance, and the per-pair change
    reads +7% at each quartile."""
    base = [590, 592, 594, 596, 598, 662, 664, 666, 668, 670]
    pairs = _pairs(base, [b * 1.07 for b in base], [1] * 10, [1] * 10)
    got = bench_pairs.summarize(pairs, METRICS, "ops_per_s")
    ops = got["ops_per_s"]
    assert (ops["wins"], ops["losses"], ops["ties"]) == (10, 0, 0)
    assert not ops["beyond_iqr"]
    assert ops["paired"] == pytest.approx((0.07, 0.07, 0.07))
    assert got["op_p90_ms"]["paired"] == (0, 0, 0)
    assert "per pair +7.0% [+7.0%, +7.0%]" in bench_pairs.report(
        got, len(pairs)).splitlines()[0]


def test_report_prints_every_metric_and_the_claim_tally():
    pairs = _pairs([100, 100], [110, 100], [4, 4], [3, 3])
    text = bench_pairs.report(
        bench_pairs.summarize(pairs, METRICS, "ops_per_s"), len(pairs))
    ops, p90 = text.splitlines()
    assert ops.startswith("ops_per_s") and "+5.0%" in ops
    assert "wins 1/2 (losses 0, ties 1)" in ops
    assert p90.startswith("op_p90_ms") and "-25.0%" in p90
    assert "wins" not in p90


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
        bench_pairs.run_bench(checkout, "lattice_corpus", 7, 1.0)
    msg = str(info.value)
    assert f"in {checkout} at seed 7 exited 3" in msg
    assert msg.endswith("noise 29\nboom") and "noise 0\n" not in msg


def test_the_pairs_share_the_record_tools_run_bench():
    """One definition of a benchmark run serves both tools."""
    assert Path(bench_pairs.run_bench.__code__.co_filename).name == \
        "bench_record.py"
