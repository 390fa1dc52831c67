"""The batched kernel against the scalar solvers it replays, lane by lane."""

import dataclasses
import logging
import math
from statistics import fmean

import numpy as np
import pytest

from pbwpcn import (
    AuctionConfig,
    ExperimentConfig,
    SystemParams,
    auction_allocation,
    derive_pair,
    draw_channels,
    draw_trials,
    social_welfare,
    sweep,
    throughput,
    waterfill,
)
from pbwpcn.auction import MAX_LADDER_ROUNDS
from pbwpcn.batch import columns, ladder_close, ladder_rows, ladder_top, solve_lanes
from pbwpcn.coop import derive_pairs
from pbwpcn.errors import DomainError
from pbwpcn.experiments import _FIG4_BUDGETS, load_paper_instance, table_params
from oracles import demand_oracle, random_instance
from test_coop import defect_a_instance

RTOL = 1e-12


def rel_gap(a, b):
    """Largest |a - b| relative to the largest entry of either."""
    a, b = np.atleast_1d(np.asarray(a, dtype=float)), np.atleast_1d(np.asarray(b, dtype=float))
    scale = max(np.abs(a).max(), np.abs(b).max())
    gap = np.abs(a - b).max()
    return gap / scale if scale > 0.0 else gap


def solve_and_compare(params, trials, budgets, cfg=AuctionConfig()):
    """Run the kernel on every (budget, trial) and check each lane against
    ``waterfill`` and ``auction_allocation``; returns the kernel's lanes."""
    lanes = solve_lanes(params, trials, [derive_pairs(params, ch) for ch in trials], budgets, cfg)
    for k, budget in enumerate(budgets):
        p = dataclasses.replace(params, e_b_tot=budget)
        for t, channels in enumerate(trials):
            coop = waterfill(p, channels)
            e_fin, tau_fin, quit_, rounds = auction_allocation(p, channels, cfg)
            assert rel_gap(lanes.nu[k, t], coop.nu) <= RTOL
            assert rel_gap(lanes.e_star[k, t], coop.e_star) <= RTOL
            assert rel_gap(lanes.tau_star[k, t], coop.tau_star) <= RTOL
            assert lanes.welfare[k, t] == coop.welfare
            assert rel_gap(lanes.e_final[k, t], e_fin) <= RTOL
            assert rel_gap(lanes.tau_final[k, t], tau_fin) <= RTOL
            assert lanes.pb_quit[k, t] == quit_
            assert lanes.rounds_used[k, t] == rounds
            welfare_auc = math.fsum(
                w * throughput(p, ch, tf, e)
                for w, ch, tf, e in zip(p.weights, channels, tau_fin, e_fin)
            )
            assert lanes.welfare_auction[k, t] == welfare_auc
    return lanes


def kernel_line(caplog):
    [line] = [r.getMessage() for r in caplog.records if r.getMessage().startswith("lanes:")]
    return dict(field.split("=") for field in line.split()[1:])


class TestAgainstScalar:
    def test_defect_a_stops_at_ulp(self, caplog):
        caplog.set_level(logging.DEBUG, logger="pbwpcn")
        params, channels = defect_a_instance()
        solve_and_compare(params, [channels], [params.e_b_tot])
        assert kernel_line(caplog)["ulp"] == "1"

    def test_tie_clones_split_exactly(self, paper):
        params, channels = paper
        ch = channels[2]
        budget = 2.0 * derive_pair(params, ch, 10.0).e_lim * 0.7
        params2 = SystemParams(0.1, 1e-11, 0.5, 1.0, 2.0, (10.0, 10.0), 1.0)
        lanes = solve_and_compare(params2, [[ch, ch]], [budget])
        assert lanes.e_star[0, 0, 0] == lanes.e_star[0, 0, 1]

    def test_near_cap_instance(self):
        channels = draw_channels(ExperimentConfig(n_pairs=2, seed=0), 693)
        solve_and_compare(table_params(n_pairs=2), [channels], [1.0])

    def test_fig4_budgets(self, paper):
        params, channels = paper
        solve_and_compare(params, [channels], _FIG4_BUDGETS)

    def test_zero_budget_gives_exact_zeros(self, paper):
        params, channels = paper
        lanes = solve_and_compare(params, [channels], [0.0])
        assert lanes.e_star.tolist() == [[[0.0, 0.0, 0.0]]]
        assert lanes.e_final.tolist() == [[[0.0, 0.0, 0.0]]]

    def test_slack_budgets_quit(self, paper):
        params, channels = paper
        e_opt_sum = math.fsum(d.e_opt for d in derive_pairs(params, channels))
        lanes = solve_and_compare(params, [channels], [1.01 * e_opt_sum, 10.0])
        assert (lanes.nu == 0.0).all()
        assert lanes.pb_quit.all()

    def test_single_pair(self):
        cfg = ExperimentConfig(n_pairs=1, seed=4)
        trials = [draw_channels(cfg, t) for t in range(5)]
        solve_and_compare(table_params(n_pairs=1), trials, [0.0, 0.05, 0.3, 1.0, 5.0])

    def test_zero_reserve_price(self, paper):
        params, channels = paper
        solve_and_compare(params, [channels], [0.0, 0.4, 1.0, 2.5, 5.0], AuctionConfig(0.0, 1e-3))

    def test_walk_steps_on_a_fine_ladder(self, caplog, paper):
        # at a step far below the search's tolerance the first rung at or
        # above nu is off by whole steps: the close searches on past the
        # rounds either side of nu, to the walk's close
        caplog.set_level(logging.DEBUG, logger="pbwpcn")
        params, channels = paper
        budgets = [0.3, 0.7, 1.0, 1.9, 2.2]  # 0.3 and 0.7 close below, 1.9 above
        solve_and_compare(params, [channels], budgets, AuctionConfig(step=1e-14))
        assert int(kernel_line(caplog)["ladder_misses"]) > 0

    def test_logs_one_line_per_call(self, caplog, paper):
        caplog.set_level(logging.DEBUG, logger="pbwpcn")
        params, channels = paper
        solve_lanes(params, [channels], [derive_pairs(params, channels)], _FIG4_BUDGETS,
                    AuctionConfig())
        fields = kernel_line(caplog)
        assert list(fields) == ["n", "slack", "cap", "binds", "ulp", "rf_steps",
                                "newton_iters", "ladder_misses", "budget_residual"]
        assert fields["n"] == "18"
        assert sum(int(fields[r]) for r in ("slack", "cap", "binds", "ulp")) == 18
        assert int(fields["rf_steps"]) > 0 and int(fields["newton_iters"]) > 0
        assert float(fields["budget_residual"]) <= 1e-12


@pytest.mark.parametrize("n_pairs", [1, 5, 8])
@pytest.mark.parametrize("distance", [3.0, 30.0])
def test_sweep_matches_the_scalar_loop(n_pairs, distance):
    cfg = ExperimentConfig(n_pairs=n_pairs, d_ap_src=distance, d_pb_src=distance,
                           pathloss_zeta=3.0, price_step=1e-3, trials=4, seed=2,
                           e_b_tot_grid=(0.0, 1e-4, 0.01, 0.5, 4.0))
    base = table_params(n_pairs=n_pairs)
    trials = [draw_channels(cfg, t) for t in range(cfg.trials)]
    for r in sweep(cfg):
        params = dataclasses.replace(base, e_b_tot=r.e_b_tot)
        coop = [waterfill(params, ch) for ch in trials]
        auc = [auction_allocation(params, ch, cfg.auction_config) for ch in trials]
        expected = {
            "mean_e_coop": fmean([e for res in coop for e in res.e_star]),
            "mean_tau_coop": fmean([t for res in coop for t in res.tau_star]),
            "welfare_coop": fmean([res.welfare for res in coop]),
            "mean_e_auction": fmean([e for a in auc for e in a[0]]),
            "mean_tau_auction": fmean([t for a in auc for t in a[1]]),
            "welfare_auction": fmean([
                math.fsum(w * throughput(params, c, t, e)
                          for w, c, t, e in zip(params.weights, ch, a[1], a[0]))
                for ch, a in zip(trials, auc)
            ]),
        }
        for name, value in expected.items():
            assert getattr(r, name) == pytest.approx(value, rel=RTOL, abs=1e-300), name


@pytest.mark.parametrize("n_pairs", [3, 8])
def test_auction_lanes_equal_auction_allocation(n_pairs):
    # the lanes' ladder close prices each rung cold, as the walk and the
    # fast path do, so every auction lane has the scalar solve's bits
    cfg = ExperimentConfig(n_pairs=n_pairs, trials=6, seed=11)
    base = table_params(n_pairs=n_pairs)
    trials = [draw_channels(cfg, t) for t in range(cfg.trials)]
    lanes = solve_lanes(base, trials, [derive_pairs(base, ch) for ch in trials],
                        cfg.e_b_tot_grid, cfg.auction_config)
    for k, budget in enumerate(cfg.e_b_tot_grid):
        params = dataclasses.replace(base, e_b_tot=budget)
        for t, channels in enumerate(trials):
            e_fin, tau_fin, quit_, rounds = auction_allocation(params, channels, cfg.auction_config)
            assert lanes.e_final[k, t].tolist() == list(e_fin), (budget, t)
            assert lanes.tau_final[k, t].tolist() == list(tau_fin), (budget, t)
            assert lanes.pb_quit[k, t] == quit_
            assert lanes.rounds_used[k, t] == rounds


def test_coop_lanes_equal_waterfill():
    # the lanes take waterfill's decisions and compute tau and welfare by the
    # same array forms, so every cooperative lane has the scalar solve's bits,
    # and so does every auction lane's welfare: sweep lanes, and random
    # instances whose pairs are clones of a few, so that caps tie, at budgets
    # from 0 to past every pair's optimum
    cases = []
    for n_pairs in (3, 8, 20):
        cfg = ExperimentConfig(n_pairs=n_pairs, trials=25, seed=n_pairs)
        cases.append((table_params(n_pairs=n_pairs), draw_trials(cfg, range(cfg.trials)),
                      cfg.e_b_tot_grid))
    rng = np.random.default_rng(29)
    for _ in range(50):
        n_pairs = int(rng.integers(2, 31))
        _, originals, _ = random_instance(rng, int(rng.integers(1, n_pairs)))
        channels = [originals[i] for i in rng.integers(0, len(originals), size=n_pairs)]
        params = table_params(n_pairs=n_pairs)
        e_opt_sum = math.fsum(d.e_opt for d in derive_pairs(params, channels))
        cases.append((params, [channels], (np.linspace(0.0, 1.2, 9) * e_opt_sum).tolist()))
    n_lanes = 0
    for params, trials, budgets in cases:
        lanes = solve_lanes(params, trials, [derive_pairs(params, ch) for ch in trials],
                            budgets, AuctionConfig())
        for k, budget in enumerate(budgets):
            p = dataclasses.replace(params, e_b_tot=budget)
            for t, channels in enumerate(trials):
                coop = waterfill(p, channels)
                assert lanes.nu[k, t] == coop.nu, (budget, t)
                assert lanes.e_star[k, t].tolist() == list(coop.e_star), (budget, t)
                assert lanes.tau_star[k, t].tolist() == list(coop.tau_star), (budget, t)
                assert lanes.welfare[k, t] == coop.welfare, (budget, t)
                e_fin, tau_fin, _, _ = auction_allocation(p, channels, AuctionConfig())
                assert lanes.welfare_auction[k, t] == social_welfare(p, channels, tau_fin, e_fin), (
                    budget, t)
                n_lanes += 1
    assert n_lanes >= 1000


@pytest.mark.parametrize("step", [1e-9, 1e-12, 1e-14])
def test_fast_path_equals_the_lanes_where_the_walk_cannot_run(paper, step):
    # two independent closes: the fast path searches the ladder from round 0,
    # the lanes step from the dual price; no walk climbs a ladder this long
    cfg = AuctionConfig(step=step)
    rng = np.random.default_rng(53)
    instances = [paper] + [random_instance(rng, int(rng.integers(2, 6)))[:2] for _ in range(4)]
    for params, channels in instances:
        lanes = solve_lanes(params, [channels], [derive_pairs(params, channels)],
                            [params.e_b_tot], cfg)
        e_fin, tau_fin, quit_, rounds = auction_allocation(params, channels, cfg)
        assert rounds > MAX_LADDER_ROUNDS
        assert lanes.e_final[0, 0].tolist() == list(e_fin)
        assert lanes.tau_final[0, 0].tolist() == list(tau_fin)
        assert lanes.pb_quit[0, 0] == quit_
        assert lanes.rounds_used[0, 0] == rounds


@pytest.mark.parametrize("step", [1e-2, 1e-9])
def test_the_first_pass_is_only_a_hint(paper, step):
    # whatever rounds the first pass prices, each lane closes at the same
    # round with the same rows and split: good rounds only save passes
    cfg = AuctionConfig(step=step)
    rng = np.random.default_rng(59)
    instances = [paper] + [random_instance(rng, int(rng.integers(2, 6)))[:2] for _ in range(4)]
    for params, channels in instances:
        ds = derive_pairs(params, channels)
        top = ladder_top(ds, cfg)
        budgets = params.e_b_tot * np.array([0.0, 0.3, 1.0, 1.7, 1e9])
        cols = [np.repeat(c, budgets.size, axis=0) for c in columns([ds])]
        tops = np.full(budgets.size, top)
        expected = ladder_close(params.p_pb, cols, cfg, budgets, tops)
        t = expected[0][:, None]
        assert t[0] == top and 0 < t[1] < top and t[-1] == 0
        firsts = {
            "hit": [t - 1, t],
            "miss below": [t // 2, t - 2],
            "miss above": [t + 1, (t + top) // 2],
            "repeated": [t, t - 1, t, t - 1, t - 1],
        }
        for name, first in firsts.items():
            first = np.clip(np.hstack(first), -1, top)
            got = ladder_close(params.p_pb, cols, cfg, budgets, tops, first)
            for a, b in zip(got, expected):
                assert a.tobytes() == b.tobytes(), name


@pytest.mark.parametrize("weight, step", [(10.0, 1e-300), (1e300, 0.01)],
                         ids=["tiny-step", "huge-weights"])
def test_a_ladder_past_2_53_rounds_is_a_domain_error(paper, weight, step):
    # past 2**53 a round's index is no longer an exact double
    params, channels = paper
    params = dataclasses.replace(params, weights=(weight,) * len(channels))
    cfg = AuctionConfig(step=step)
    with pytest.raises(DomainError, match=r"2\*\*53"):
        auction_allocation(params, channels, cfg)
    with pytest.raises(DomainError, match=r"2\*\*53"):
        solve_lanes(params, [channels], [derive_pairs(params, channels)], [params.e_b_tot], cfg)


def test_the_longest_ladder_has_2_53_rounds(paper):
    params, channels = paper
    ds = derive_pairs(params, channels)
    step = max(d.alpha for d in ds) / 2**53
    assert ladder_top(ds, AuctionConfig(reserve_price=0.0, step=step)) == 2**53
    with pytest.raises(DomainError, match=r"2\*\*53"):
        ladder_top(ds, AuctionConfig(reserve_price=0.0, step=math.nextafter(step, 0.0)))


def ladders():
    """(params, channels, cfg) of the paper instance at two steps, 20 random
    instances, and a reserve price between the paper's caps."""
    params, channels = load_paper_instance()
    yield params, channels, AuctionConfig(step=0.01)
    yield params, channels, AuctionConfig(step=1e-3)
    rng = np.random.default_rng(41)
    for _ in range(20):
        p, chs, _ = random_instance(rng, int(rng.integers(1, 9)))
        yield p, chs, AuctionConfig(step=float(rng.uniform(0.005, 0.05)))
    caps = sorted(d.alpha for d in derive_pairs(params, channels))
    yield params, channels, AuctionConfig(reserve_price=0.5 * (caps[0] + caps[1]), step=0.01)


class TestLadderRows:
    def test_rows_match_the_scalar_oracles(self):
        # each round's bids as demand_oracle gives them walking up the ladder
        mixed = False
        for params, channels, cfg in ladders():
            ds = derive_pairs(params, channels)
            top = ladder_top(ds, cfg)
            rows = ladder_rows(params, ds, cfg, range(0, top + 1))
            assert rows.shape == (top + 1, len(ds))
            oracles = [demand_oracle(params, ch, d) for ch, d in zip(channels, ds)]
            for t, row in enumerate(rows):
                mu = cfg.reserve_price + t * cfg.step
                expected = np.array([bid(mu) for bid in oracles])
                assert np.array_equal(row == 0.0, expected == 0.0), (cfg, t)
                assert np.all(np.abs(row - expected) <= 1e-12 * expected), (cfg, t)
                mixed |= bool(row.any() and not row.all())
            assert not rows[-1].any()
        assert mixed  # some rows hold live and dropped pairs at once

    def test_a_row_has_the_same_bits_alone_and_in_any_block(self):
        rng = np.random.default_rng(43)
        for params, channels, cfg in ladders():
            ds = derive_pairs(params, channels)
            top = ladder_top(ds, cfg)
            whole = ladder_rows(params, ds, cfg, range(0, top + 1))
            for t in map(int, rng.integers(0, top + 1, size=10)):
                assert ladder_rows(params, ds, cfg, range(t, t + 1)).tobytes() == whole[t].tobytes()
            for _ in range(5):
                t0 = int(rng.integers(0, top + 1))
                t1 = int(rng.integers(t0 + 1, top + 2))
                assert ladder_rows(params, ds, cfg, range(t0, t1)).tobytes() == whole[t0:t1].tobytes()

    def test_a_row_has_the_same_bits_in_any_spread_of_rounds(self):
        # the fast path prices rounds spread over the ladder, not a block
        rng = np.random.default_rng(47)
        for params, channels, cfg in ladders():
            ds = derive_pairs(params, channels)
            top = ladder_top(ds, cfg)
            whole = ladder_rows(params, ds, cfg, range(0, top + 1))
            for _ in range(5):
                rounds = sorted(rng.choice(top + 1, size=min(top + 1, 64), replace=False))
                rows = ladder_rows(params, ds, cfg, [int(t) for t in rounds])
                assert rows.tobytes() == whole[rounds].tobytes()

    def test_rounds_past_the_top_bid_nothing(self, paper):
        params, channels = paper
        ds = derive_pairs(params, channels)
        cfg = AuctionConfig()
        top = ladder_top(ds, cfg)
        assert not ladder_rows(params, ds, cfg, range(top, top + 100)).any()
        assert ladder_rows(params, ds, cfg, range(5, 5)).shape == (0, 3)
