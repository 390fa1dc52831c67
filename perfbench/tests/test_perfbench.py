"""Tests of the benchmark itself: metrics emitted, checks that bite, tracing
that neither changes results nor misses call sites.

    python3 -m pytest perfbench/tests -q
"""

import csv
import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

import run
import tracer as tracing
import workloads
from pbwpcn import (
    AuctionConfig,
    auction,
    auction_allocation,
    cli,
    coop,
    experiments,
    load_paper_instance,
    make_views,
    protocol,
    roots,
    run_auction,
    run_auction_protocol,
    run_coop_protocol,
    waterfill,
)

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as _fh:
    BENCHMARK = json.load(_fh)


def test_benchmark_json_lists_the_emitted_metrics():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["end_to_end"]] == [
        tuple(m) for m in run.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == [
        tuple(m) for m in tracing.PER_LAYER
    ]


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_every_metric_is_emitted_with_its_unit(workload):
    result, record = run.measure(workload, seed=3, seconds=0.01, trace=False, probes=1)
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        n: u for n, u, _ in run.END_TO_END
    }
    assert all(m["value"] > 0 for m in result["metrics"].values())
    text = run.summary(result, record)
    for name, unit, _ in run.END_TO_END + (("error_rate", "fraction", "lower"),):
        assert any(line.split()[:1] == [name] and unit in line.split()
                   for line in text.splitlines()), name
    assert record["samples"]["op_s"] == result["attempted"]
    for key in ("nproc", "cpu_model", "python", "numpy", "git_revision",
                "loadavg_start", "loadavg_end", "holdout_seed"):
        assert key in record

    result, record = run.measure(workload, seed=3, seconds=0.01, trace=True)
    assert result["correct"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        n: u for n, u, _ in tracing.PER_LAYER
    }
    assert os.path.isfile(record["trace_file"])


# -- output checks reject corrupted results --------------------------------


@pytest.fixture(scope="module")
def sweep_out(tmp_path_factory):
    wl = workloads.SweepPaper(seed=5, workdir=str(tmp_path_factory.mktemp("sweep")))
    inp = wl.inputs(0)
    code, outdir = wl.run(inp)
    assert workloads.check_sweep(code, outdir) == []
    return outdir


def _corrupt_fig(outdir, tmp_path, name, edit):
    target = str(tmp_path / "out")
    shutil.copytree(outdir, target)
    path = os.path.join(target, name)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    rows = edit(rows)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    return target


def _set_welfare(column, row, source, factor):
    """Set ``column`` of data row ``row`` to ``source``'s value there times ``factor``."""
    def edit(rows):
        header = rows[0]
        rows[row][header.index(column)] = repr(float(rows[row][header.index(source)]) * factor)
        return rows
    return edit


def test_sweep_check_rejects_nonzero_exit(sweep_out):
    assert "exit_code" in workloads.check_sweep(1, sweep_out)


def test_sweep_check_rejects_missing_csv(sweep_out, tmp_path):
    target = str(tmp_path / "out")
    shutil.copytree(sweep_out, target)
    os.remove(os.path.join(target, "fig4_time.csv"))
    assert "csv_missing" in workloads.check_sweep(0, target)


def test_sweep_check_rejects_missing_row(sweep_out, tmp_path):
    target = _corrupt_fig(sweep_out, tmp_path, "fig5_means.csv", lambda rows: rows[:-1])
    assert "csv_rows" in workloads.check_sweep(0, target)


def test_sweep_check_rejects_auction_above_coop(sweep_out, tmp_path):
    target = _corrupt_fig(sweep_out, tmp_path, "fig6_welfare.csv",
                          _set_welfare("welfare_auction", 4, "welfare_coop", 1 + 1e-6))
    assert "welfare_order" in workloads.check_sweep(0, target)


def test_sweep_check_rejects_nan_welfare(sweep_out, tmp_path):
    target = _corrupt_fig(sweep_out, tmp_path, "fig6_welfare.csv",
                          _set_welfare("welfare_coop", 5, "welfare_coop", float("nan")))
    assert "welfare_order" in workloads.check_sweep(0, target)


def test_sweep_check_rejects_decreasing_welfare(sweep_out, tmp_path):
    def edit(rows):
        col = rows[0].index("welfare_coop")
        rows[2][col] = repr(float(rows[3][col]) * 1.01)
        return rows

    target = _corrupt_fig(sweep_out, tmp_path, "fig6_welfare.csv", edit)
    assert "welfare_monotone" in workloads.check_sweep(0, target)


@pytest.fixture(scope="module")
def coop_case():
    wl = workloads.CoopDense(seed=5, workdir="")
    inp = wl.inputs(0)
    out = wl.run(inp)
    assert wl.check(inp, out) == []
    return inp, out


def _largest(values):
    return sorted(range(len(values)), key=lambda j: values[j], reverse=True)


def _scale_one(values, factor):
    """Scale the largest entry by ``factor``."""
    i = _largest(values)[0]
    return tuple(v * factor if j == i else v for j, v in enumerate(values))


def _shift(values, rel):
    """Move ``rel`` times the largest entry from the second largest to it; the
    sum stays the same."""
    i, j = _largest(values)[:2]
    out = list(values)
    out[i] += rel * values[i]
    out[j] -= rel * values[i]
    return tuple(out)


def test_coop_check_rejects_budget_miss(coop_case):
    (params, channels), (pooled, proto) = coop_case
    bad = dataclasses.replace(pooled, e_star=_scale_one(pooled.e_star, 1 + 1e-6))
    assert "budget" in workloads.check_coop(params, channels, bad, proto)


def test_coop_check_rejects_kkt_violation(coop_case):
    (params, channels), (pooled, proto) = coop_case
    bad = dataclasses.replace(pooled, nu=pooled.nu * (1 + 1e-5))
    bad_proto = dataclasses.replace(proto, nu=bad.nu)
    assert workloads.check_coop(params, channels, bad, bad_proto) == ["kkt"]


def test_coop_check_rejects_protocol_mismatch(coop_case):
    (params, channels), (pooled, proto) = coop_case
    bad = dataclasses.replace(proto, e_star=_scale_one(proto.e_star, 1 + 1e-9))
    assert workloads.check_coop(params, channels, pooled, bad) == ["pooled_vs_protocol"]


@pytest.fixture(scope="module")
def auction_case():
    wl = workloads.AuctionLadder(seed=5, workdir="")
    inp = wl.inputs(0)
    out = wl.run(inp)
    assert wl.check(inp, out) == []
    return inp[0], out


def test_auction_check_rejects_uncleared_budget(auction_case):
    params, (ladder, proto, fast) = auction_case
    bad = dataclasses.replace(ladder, e_final=_scale_one(ladder.e_final, 1 + 1e-6))
    assert "budget_clear" in workloads.check_auction(params, bad, proto, fast)


def test_auction_check_rejects_protocol_bid_change(auction_case):
    params, (ladder, proto, fast) = auction_case
    bad = dataclasses.replace(proto, e_final=_shift(proto.e_final, 1e-9))
    assert workloads.check_auction(params, ladder, bad, fast) == ["pooled_vs_protocol"]


def test_auction_check_rejects_nan_protocol_bid(auction_case):
    params, (ladder, proto, fast) = auction_case
    bad = dataclasses.replace(proto, e_final=(float("nan"),) + proto.e_final[1:])
    assert workloads.check_auction(params, ladder, bad, fast) == [
        "budget_clear", "pooled_vs_protocol"]


def test_auction_check_rejects_fast_path_mismatch(auction_case):
    params, (ladder, proto, fast) = auction_case
    bad = (_shift(fast[0], 1e-8),) + fast[1:]
    assert workloads.check_auction(params, ladder, proto, bad) == ["fast_vs_ladder"]


def test_auction_check_rejects_round_mismatch(auction_case):
    params, (ladder, proto, fast) = auction_case
    bad = fast[:3] + (fast[3] + 1,)
    assert workloads.check_auction(params, ladder, proto, bad) == ["rounds_equal"]


# -- tracing ---------------------------------------------------------------


def _all_results(params, channels, cfg):
    coop_res, coop_bus = run_coop_protocol(*make_views(params, channels))
    auc_res, auc_bus = run_auction_protocol(*make_views(params, channels), cfg)
    return (
        waterfill(params, channels),
        run_auction(params, channels, cfg),
        auction_allocation(params, channels, cfg),
        coop_res, coop_bus.transcript, auc_res, auc_bus.transcript,
    )


def _sweep_bytes(outdir):
    code = cli.main(["sweep", "--trials", "4", "--seed", "9", "--out", outdir])
    assert code == 0
    return {n: open(os.path.join(outdir, n), "rb").read() for n in workloads.SWEEP_CSVS}


def test_wrappers_leave_results_bit_identical(tmp_path):
    cfg = AuctionConfig(reserve_price=0.001, step=1e-3)
    cases = [load_paper_instance(e_b_tot=1.0), workloads.draw_instance(2, 0, 8, 0.4)]
    plain = [_all_results(p, c, cfg) for p, c in cases]
    plain_csv = _sweep_bytes(str(tmp_path / "plain"))

    t = tracing.Tracer()
    t.install()
    try:
        assert coop.solve_z.__wrapped__ is roots.solve_z.__wrapped__
        with t.op(0):
            wrapped = [_all_results(p, c, cfg) for p, c in cases]
            wrapped_csv = _sweep_bytes(str(tmp_path / "wrapped"))
    finally:
        t.uninstall()

    assert wrapped == plain
    assert wrapped_csv == plain_csv
    assert t.totals()["roots.solve_z"][0] > 0
    # every binding is restored
    for fn in (coop.solve_z, roots.solve_z, auction.gamma, experiments.derive_pair,
               cli.waterfill, protocol.Bus.send):
        assert not hasattr(fn, "__wrapped__")


def test_one_paper_waterfill_counts():
    params, channels = load_paper_instance(e_b_tot=1.0)
    t = tracing.Tracer()
    t.install()
    try:
        with t.op(0):
            coop.waterfill(params, channels)
    finally:
        t.uninstall()
    metrics = t.metrics(overhead_ratio=1.0)
    assert metrics["coop.derive_pair.calls"] == 3
    assert metrics["roots.lambert_w0.calls"] == 6
    assert metrics["coop.derive_pair.calls_per_pair"] == 1
    # self times partition the op's time
    totals = t.totals()
    op_total = totals["op"][1]
    assert sum(v[2] for v in totals.values()) == pytest.approx(op_total, rel=1e-9)


def test_calls_outside_an_op_are_not_recorded():
    params, channels = load_paper_instance(e_b_tot=1.0)
    t = tracing.Tracer()
    t.install()
    try:
        coop.waterfill(params, channels)
    finally:
        t.uninstall()
    assert t.totals() == {}


def test_run_without_program_source_fails(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.dirname(run.__file__), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "coop_dense", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
