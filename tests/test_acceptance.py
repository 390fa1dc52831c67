"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single pass/fail line; run with ``pytest -s`` to see them
inline.  Runtime budgets are asserted alongside the numerical tolerances.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from pbwpcn import (
    AuctionConfig,
    ExperimentConfig,
    auction_allocation,
    derive_pair,
    grad_s,
    load_paper_instance,
    run_auction,
    s_of_e,
    sweep,
    tau_of_e,
    throughput,
    waterfill,
)
from pbwpcn.protocol import PB_ID, make_views, run_auction_protocol, run_coop_protocol

from oracles import (
    convex_solver_welfare,
    grid_best_welfare,
    random_instance,
    weighted_rate_grid,
)

GOLDEN_ALPHA = (5.6834, 4.7802, 0.4543)
GOLDEN_E_LIM = (0.1676, 0.0989, 0.3299)
GOLDEN_E_OPT = (0.6325, 0.8307, 1.3247)


def report(name, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}")
    assert ok, name


def multiset_ok(computed, golden, rtol=1e-3):
    return all(
        math.isclose(a, b, rel_tol=rtol)
        for a, b in zip(sorted(computed), sorted(golden))
    )


def test_criterion_1_golden_constants(paper):
    params, channels = paper
    derive_pair(params, channels[0], 10.0)  # warm the code path
    t0 = time.perf_counter()
    ds = [derive_pair(params, ch, w) for ch, w in zip(channels, params.weights)]
    elapsed = time.perf_counter() - t0
    ok = (
        multiset_ok([d.alpha for d in ds], GOLDEN_ALPHA)
        and multiset_ok([d.e_lim for d in ds], GOLDEN_E_LIM)
        and multiset_ok([d.e_opt for d in ds], GOLDEN_E_OPT)
        and elapsed < 1e-3
    )
    report(f"criterion 1: golden pair constants ({elapsed * 1e6:.0f} us)", ok)


def test_criterion_2_waterfill(paper):
    params, channels = paper
    waterfill(params, channels)  # warm the code path
    t0 = time.perf_counter()
    tight = waterfill(params, channels)
    slack = waterfill(dataclasses.replace(params, e_b_tot=3.0), channels)
    elapsed = time.perf_counter() - t0
    ok = (
        0.4543 < tight.nu < 4.7802
        and abs(math.fsum(tight.e_star) - 1.0) <= 1e-10
        and elapsed < 10e-3
    )
    # elementwise against freshly derived optima at full precision
    ds = [derive_pair(params, ch, w) for ch, w in zip(channels, params.weights)]
    ok = ok and all(
        abs(e - d.e_opt) <= 1e-6 for e, d in zip(slack.e_star, ds)
    )
    report(f"criterion 2: water-filling allocations ({elapsed * 1e3:.1f} ms)", ok)


def test_criterion_3_auction(paper):
    params, channels = paper
    cfg = AuctionConfig(reserve_price=0.001, step=0.01)
    run_auction(params, channels, cfg)  # warm the code path
    t0 = time.perf_counter()
    outcome = run_auction(params, channels, cfg)
    elapsed = time.perf_counter() - t0
    ds = [derive_pair(params, ch, w) for ch, w in zip(channels, params.weights)]
    i_min = min(range(3), key=lambda i: ds[i].alpha)
    last_pos = None
    for row in outcome.transcript:
        bids = row.get("bids")
        if bids and bids[i_min] > 0.0:
            last_pos = bids[i_min]
    ok = (
        last_pos is not None
        and abs(last_pos - 0.3299) <= 2.0 * cfg.step + 1e-3
        and abs(math.fsum(outcome.e_final) - 1.0) <= 1e-12
        and outcome.rounds_used <= math.ceil((5.6834 - 0.001) / 0.01) + 1
        and elapsed < 0.1
    )
    report(f"criterion 3: clinching auction ({elapsed * 1e3:.1f} ms)", ok)


def test_criterion_4_efficiency_limit(paper):
    params, channels = paper
    coop = waterfill(params, channels)
    t0 = time.perf_counter()
    outcome = run_auction(
        params, channels, AuctionConfig(reserve_price=1e-6, step=1e-4)
    )
    elapsed = time.perf_counter() - t0
    ok = (
        all(abs(a - b) <= 1e-2 for a, b in zip(outcome.e_final, coop.e_star))
        and elapsed < 5.0
    )
    report(f"criterion 4: fine-ladder efficiency ({elapsed:.2f} s)", ok)


def test_criterion_5_oracle_equivalence():
    rng = np.random.default_rng(100)
    t0 = time.perf_counter()
    worst_rel = 0.0
    grid_ok = True
    for trial in range(50):
        n = int(rng.integers(2, 5))
        params, channels, ds = random_instance(rng, n)
        res = waterfill(params, channels)
        oracle = convex_solver_welfare(params, channels)
        worst_rel = max(worst_rel, abs(res.welfare - oracle) / abs(oracle))
        grid = grid_best_welfare(params, channels, ds, steps=200, rng=rng)
        grid_ok = grid_ok and res.welfare >= grid - 1e-9 * abs(grid)
    elapsed = time.perf_counter() - t0
    ok = worst_rel <= 1e-6 and grid_ok and elapsed < 30.0
    report(
        f"criterion 5: convex-oracle equivalence "
        f"(worst rel {worst_rel:.1e}, {elapsed:.1f} s)",
        ok,
    )


def test_criterion_6_closed_forms():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    tau_ok = grad_ok = concave_ok = True
    for trial in range(1000):
        params, channels, ds = random_instance(rng, 1)
        ch, d, w = channels[0], ds[0], params.weights[0]
        e = float(rng.uniform(0.0, 0.999 * d.e_opt))

        # best charging time beats a fine grid at the same energy
        t_star = tau_of_e(params, ch, d, e)
        lo = e / params.p_pb
        grid = np.arange(max(lo, 1e-5), 1.0, 1e-5)
        vals = weighted_rate_grid(params, ch, w, grid, e)
        best = w * throughput(params, ch, max(t_star, lo + 1e-12), e)
        tau_ok = tau_ok and best >= float(vals.max()) - 1e-6 * abs(best)

        # analytic gradient against central differences on either smooth branch
        knee_band = abs(e - d.e_lim) <= 1e-3 * d.e_opt
        if not knee_band and e <= 0.95 * d.e_opt:
            h = 1e-5 * d.e_opt
            if e - h > 0.0 and (e + h < d.e_lim or e - h > d.e_lim):
                fd = (
                    s_of_e(params, ch, d, e + h) - s_of_e(params, ch, d, e - h)
                ) / (2.0 * h)
                g = grad_s(params, ch, d, e)
                grad_ok = grad_ok and math.isclose(
                    g, fd, rel_tol=1e-6, abs_tol=1e-9 * d.alpha
                )

        if trial < 100:
            axis = np.linspace(0.0, d.e_opt * (1.0 - 1e-9), 200)
            curve = np.array([s_of_e(params, ch, d, float(x)) for x in axis])
            second = np.diff(curve, 2)
            concave_ok = concave_ok and bool(
                np.all(second <= 1e-9 * abs(curve).max())
            )
    elapsed = time.perf_counter() - t0
    ok = tau_ok and grad_ok and concave_ok and elapsed < 60.0
    report(
        f"criterion 6: closed forms vs brute force ({elapsed:.1f} s)",
        ok,
    )


def test_criterion_7_protocol_equivalence():
    rng = np.random.default_rng(102)
    t0 = time.perf_counter()
    ok = True
    for trial in range(20):
        n = int(rng.integers(1, 5))
        params, channels, _ = random_instance(rng, n)
        pooled = waterfill(params, channels)
        pb, aps = make_views(params, channels)
        dist, bus = run_coop_protocol(pb, aps)
        ok = ok and abs(dist.nu - pooled.nu) <= 1e-10
        ok = ok and all(
            abs(a - b) <= 1e-10 for a, b in zip(dist.e_star, pooled.e_star)
        )
        cfg = AuctionConfig(step=0.02)
        pooled_a = run_auction(params, channels, cfg)
        pb, aps = make_views(params, channels)
        dist_a, bus_a = run_auction_protocol(pb, aps, cfg)
        ok = ok and all(
            abs(a - b) <= 1e-10 for a, b in zip(dist_a.e_final, pooled_a.e_final)
        )
        for transcript in (bus.transcript, bus_a.transcript):
            ok = ok and not any(
                m.sender != PB_ID and m.receiver != PB_ID for m in transcript
            )
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 5.0
    report(f"criterion 7: protocol equivalence and locality ({elapsed:.1f} s)", ok)


def test_criterion_8_trend_reproduction():
    t0 = time.perf_counter()
    grid = (0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0)
    by_n = {}
    for n in (2, 3, 4):
        cfg = ExperimentConfig(
            n_pairs=n, trials=1000, seed=0, e_b_tot_grid=grid
        )
        by_n[n] = sweep(cfg)
    records = by_n[3]
    coop = [r.welfare_coop for r in records]
    auc = [r.welfare_auction for r in records]
    nopb = [r.welfare_nopb for r in records]

    # cooperative welfare climbs with the budget and flattens out
    nondecreasing = all(b >= a - 1e-9 for a, b in zip(coop, coop[1:]))
    early_gain = coop[1] - coop[0]
    late_gain = coop[-1] - coop[-2]
    saturating = late_gain < 0.1 * early_gain

    # the auction tracks the cooperative optimum while supply is scarce,
    # then collapses toward self-charging once the beacon starts quitting
    tracks = all(
        a >= 0.9 * (c - n0) + n0 for a, c, n0 in zip(auc[1:4], coop[1:4], nopb[1:4])
    )
    peak = max(auc)
    collapses = auc[-1] < peak and (auc[-1] - nopb[-1]) < 0.5 * (coop[-1] - nopb[-1])

    # denser networks extract more welfare at every budget (common random
    # numbers across n via per-pair substreams)
    monotone_in_n = all(
        by_n[2][j].welfare_coop - 1e-9
        <= by_n[3][j].welfare_coop - 1e-9
        <= by_n[4][j].welfare_coop
        for j in range(len(grid))
    )
    elapsed = time.perf_counter() - t0
    ok = (
        nondecreasing
        and saturating
        and tracks
        and collapses
        and monotone_in_n
        and elapsed < 300.0
    )
    report(f"criterion 8: desk-scale trend reproduction ({elapsed:.0f} s)", ok)
