import dataclasses
import logging
import math

import mpmath
import numpy as np
import pytest

from pbwpcn import (
    DomainError,
    PairChannel,
    SystemParams,
    best_response,
    derive_pair,
    gamma,
    grad_s,
    respond_to_price,
    s_of_e,
    tau_of_e,
    throughput,
    waterfill,
)

from pbwpcn.coop import derive_pairs, pooled_bids
from pbwpcn.experiments import (
    ExperimentConfig,
    draw_channels,
    load_paper_instance,
    sweep,
    table_params,
)
from pbwpcn.model import social_welfare
from pbwpcn.protocol import make_views, run_coop_protocol
from pbwpcn.roots import _MAX_ITER

from oracles import (
    convex_solver_welfare,
    demand_oracle,
    mp_z_minus_1,
    random_instance,
    weighted_rate_grid,
)

GOLDEN_ALPHA = (0.4543, 4.7802, 5.6834)
GOLDEN_E_LIM = (0.0989, 0.1676, 0.3299)
GOLDEN_E_OPT = (0.6325, 0.8307, 1.3247)


def multiset_close(computed, golden, rtol=1e-3):
    a = sorted(computed)
    b = sorted(golden)
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert x == pytest.approx(y, rel=rtol)


class TestDerivePair:
    def test_golden_constants(self, paper):
        params, channels = paper
        ds = [derive_pair(params, ch, w) for ch, w in zip(channels, params.weights)]
        multiset_close([d.alpha for d in ds], GOLDEN_ALPHA)
        multiset_close([d.e_lim for d in ds], GOLDEN_E_LIM)
        multiset_close([d.e_opt for d in ds], GOLDEN_E_OPT)

    def test_paper_constants_against_mpmath(self, paper):
        params, channels = paper
        with mpmath.workdps(40):
            sig, eta = mpmath.mpf(params.noise_w), mpmath.mpf(params.eta)
            p_ap, p_pb = mpmath.mpf(params.p_ap), mpmath.mpf(params.p_pb)
            for ch, w in zip(channels, params.weights):
                d = derive_pair(params, ch, w)
                g, k = mpmath.mpf(ch.g_pow), mpmath.mpf(ch.k_pow)
                x = g * eta * (p_ap * g + p_pb * k) / sig
                u_dag = mp_z_minus_1(g * g * eta * p_ap / sig, 0)
                u_ddag = mp_z_minus_1(x, 0)
                lam_w = mpmath.mpf(w) * mpmath.mpf(params.bandwidth_mhz)
                expected = {
                    "alpha": lam_w * g * eta * k / ((1 + u_dag) * sig * mpmath.log(2)),
                    "e_lim": p_pb * u_dag / (u_dag + x),
                    "e_opt": p_pb * u_ddag / (u_ddag + x),
                }
                for name, value in expected.items():
                    assert abs(getattr(d, name) - value) <= 1e-14 * value, name

    def test_ordering_invariants(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            params, channels, ds = random_instance(rng, 1)
            d = ds[0]
            assert d.z_ddag > d.z_dag > 1.0
            assert 0.0 < d.e_lim < d.e_opt < params.p_pb
            assert d.alpha > 0.0

    def test_vanishing_beacon_channel(self, paper):
        # K -> 0 kills the marginal value of beacon energy
        params, channels = paper
        base = channels[0]
        alphas = []
        for scale in (1.0, 1e-3, 1e-6, 1e-9):
            d = derive_pair(params, PairChannel(base.g_pow, base.k_pow * scale), 10.0)
            alphas.append(d.alpha)
        assert all(b < a for a, b in zip(alphas, alphas[1:]))
        assert alphas[-1] < 1e-6 * alphas[0]

    def test_gains_beyond_solver_range(self, paper):
        # x_const = g*eta*(p_ap*g + p_pb*k)/sigma^2 must stay below 1e30
        params, _ = paper
        assert derive_pair(params, PairChannel(3e9, 1.0), 10.0).x_const < 1e30
        for g in (1e10, 1e200):  # x_const 5e30, and inf
            with pytest.raises(DomainError, match="x_const"):
                derive_pair(params, PairChannel(g, 1.0), 10.0)


class TestTauOfE:
    def test_continuous_at_knee(self, paper):
        params, channels = paper
        for ch, w in zip(channels, params.weights):
            d = derive_pair(params, ch, w)
            below = tau_of_e(params, ch, d, d.e_lim * (1.0 - 1e-9))
            at = tau_of_e(params, ch, d, d.e_lim)
            above = tau_of_e(params, ch, d, d.e_lim * (1.0 + 1e-9))
            assert at == pytest.approx(d.e_lim / params.p_pb, rel=1e-9)
            assert below == pytest.approx(at, rel=1e-6)
            assert above == pytest.approx(at, rel=1e-6)

    def test_zero_energy_against_grid(self, paper):
        params, channels = paper
        ch = channels[2]
        d = derive_pair(params, ch, params.weights[2])
        t_star = tau_of_e(params, ch, d, 0.0)
        assert t_star == pytest.approx(0.50, abs=0.01)
        grid = np.arange(1e-5, 1.0, 1e-5)
        vals = weighted_rate_grid(params, ch, params.weights[2], grid, 0.0)
        best = params.weights[2] * throughput(params, ch, t_star, 0.0)
        assert best >= vals.max() - 1e-7

    def test_second_branch_exact_ratio(self, paper):
        params, channels = paper
        ch = channels[1]
        d = derive_pair(params, ch, params.weights[1])
        e = 0.5 * (d.e_lim + d.e_opt)
        assert tau_of_e(params, ch, d, e) == e / params.p_pb

    def test_domain(self, paper):
        params, channels = paper
        d = derive_pair(params, channels[0], 10.0)
        with pytest.raises(DomainError):
            tau_of_e(params, channels[0], d, params.p_pb)

    def test_never_below_beacon_time(self):
        # the linear branch meets e / p_pb at the knee and lies above it
        # before; unclamped, it can round an ulp below there
        params = table_params()
        for trial in range(10):
            channels = draw_channels(ExperimentConfig(seed=0), trial)
            for ch, d in zip(channels, derive_pairs(params, channels)):
                e = d.e_lim
                for _ in range(61):
                    assert tau_of_e(params, ch, d, e) >= e / params.p_pb
                    e = math.nextafter(e, 0.0)

    def test_budget_at_a_knee(self):
        cfg = ExperimentConfig(n_pairs=3, seed=0)
        channels = draw_channels(cfg, 0)
        budget = 0.08244265259032821
        params = dataclasses.replace(table_params(), e_b_tot=budget)
        assert derive_pairs(params, channels)[1].e_lim == budget
        res = waterfill(params, channels)
        assert run_coop_protocol(*make_views(params, channels))[0] == res
        (record,) = sweep(dataclasses.replace(cfg, trials=1, e_b_tot_grid=(budget,)))
        assert record.welfare_coop == pytest.approx(res.welfare, rel=1e-12)


class TestSOfE:
    def test_zero_energy_matches_throughput(self, paper):
        params, channels = paper
        for ch, w in zip(channels, params.weights):
            d = derive_pair(params, ch, w)
            t0 = tau_of_e(params, ch, d, 0.0)
            assert s_of_e(params, ch, d, 0.0) == pytest.approx(
                w * throughput(params, ch, t0, 0.0), rel=1e-10
            )

    def test_composition_identity(self):
        # s_of_e must equal the weighted throughput at its own best time
        rng = np.random.default_rng(11)
        for _ in range(30):
            params, channels, ds = random_instance(rng, 1)
            ch, d = channels[0], ds[0]
            for frac in (0.0, 0.3, 0.8, 0.99):
                e = frac * d.e_opt
                t = tau_of_e(params, ch, d, e)
                expected = params.weights[0] * throughput(params, ch, t, e)
                assert s_of_e(params, ch, d, e) == pytest.approx(expected, rel=1e-10)

    def test_continuous_at_knee(self, paper):
        params, channels = paper
        for ch, w in zip(channels, params.weights):
            d = derive_pair(params, ch, w)
            below = s_of_e(params, ch, d, d.e_lim * (1.0 - 1e-10))
            above = s_of_e(params, ch, d, d.e_lim * (1.0 + 1e-10))
            assert below == pytest.approx(above, rel=1e-8)

    def test_peak_at_e_opt(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            params, channels, ds = random_instance(rng, 1)
            ch, d = channels[0], ds[0]
            peak = s_of_e(params, ch, d, d.e_opt)
            for delta in (-1e-3, 1e-3):
                e = d.e_opt * (1.0 + delta)
                if 0.0 <= e < params.p_pb:
                    assert s_of_e(params, ch, d, e) <= peak + 1e-12


class TestGradS:
    def test_equals_alpha_on_linear_branch(self, paper):
        params, channels = paper
        for ch, w in zip(channels, params.weights):
            d = derive_pair(params, ch, w)
            for frac in (0.0, 0.5, 1.0):
                assert grad_s(params, ch, d, frac * d.e_lim) == d.alpha

    def test_vanishes_at_e_opt(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            params, channels, ds = random_instance(rng, 1)
            g = grad_s(params, channels[0], ds[0], ds[0].e_opt)
            assert abs(g) <= 1e-9 * ds[0].alpha

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            params, channels, ds = random_instance(rng, 1)
            ch, d = channels[0], ds[0]
            # sample on the concave branch, away from the knee
            e = float(rng.uniform(1.05 * d.e_lim, 0.98 * d.e_opt))
            h = 1e-6 * d.e_opt
            fd = (s_of_e(params, ch, d, e + h) - s_of_e(params, ch, d, e - h)) / (2 * h)
            assert grad_s(params, ch, d, e) == pytest.approx(fd, rel=1e-5)

    def test_nonincreasing(self):
        rng = np.random.default_rng(15)
        params, channels, ds = random_instance(rng, 1)
        ch, d = channels[0], ds[0]
        grid = np.linspace(0.0, 0.999 * d.e_opt, 400)
        vals = [grad_s(params, ch, d, float(e)) for e in grid]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))


class TestGamma:
    def test_zero_price_gives_e_opt(self):
        rng = np.random.default_rng(16)
        for _ in range(20):
            params, channels, ds = random_instance(rng, 1)
            g = gamma(params, channels[0], ds[0], 0.0)
            assert g == pytest.approx(ds[0].e_opt, rel=1e-10)

    def test_price_near_cap_gives_e_lim(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            params, channels, ds = random_instance(rng, 1)
            d = ds[0]
            g = gamma(params, channels[0], d, d.alpha * (1.0 - 1e-9))
            assert g == pytest.approx(d.e_lim, rel=1e-6)

    def test_near_cap_against_mpmath(self):
        # within 1e-3 * alpha of the cap X - Y is ~1e-6 * X; scalar, and
        # through the pooled bids along falling prices as a price search moves
        params = table_params(n_pairs=2)
        ch = draw_channels(ExperimentConfig(n_pairs=2, seed=0), 693)[1]
        d = derive_pair(params, ch, params.weights[1])
        nus = [d.alpha * (1.0 - 1e-3 * (k + 0.5) / 50) for k in range(50)]
        bids_at = pooled_bids(params, [d], {"newton": 0})
        for nu in nus:
            with mpmath.workdps(40):
                y = mpmath.mpf(nu) * params.p_pb * mpmath.log(2) / d.lam_w
                u = mp_z_minus_1(d.x_const, y)
                expected = params.p_pb * u / (u + d.x_const)
            for e in (gamma(params, ch, d, nu), bids_at(nu)[0]):
                assert abs(e - expected) <= 1e-11 * expected, nu

    def test_inverts_gradient(self):
        rng = np.random.default_rng(18)
        for _ in range(50):
            params, channels, ds = random_instance(rng, 1)
            ch, d = channels[0], ds[0]
            nu = float(rng.uniform(0.0, d.alpha * 0.999))
            e = gamma(params, ch, d, nu)
            assert d.e_lim <= e <= d.e_opt * (1.0 + 1e-12)
            assert grad_s(params, ch, d, e) == pytest.approx(nu, abs=1e-8 * d.alpha)

    def test_domain(self, paper):
        params, channels = paper
        d = derive_pair(params, channels[0], 10.0)
        with pytest.raises(DomainError):
            gamma(params, channels[0], d, d.alpha)
        with pytest.raises(DomainError):
            gamma(params, channels[0], d, -0.1)


def search_prices(deriveds, rng, count):
    """A price search's kind of sequence: each cap, just below and above it,
    and random prices up to past the largest cap, shuffled."""
    caps = [d.alpha for d in deriveds if d.alpha > 0.0]
    prices = [0.0]
    for cap in rng.choice(caps, size=min(len(caps), 4), replace=False):
        prices += [cap * (1.0 - 1e-9), cap, cap * (1.0 + 1e-13)]
    prices += list(rng.uniform(0.0, 1.1 * max(caps), size=count - len(prices)))
    rng.shuffle(prices)
    return [float(p) for p in prices]


def pool_and_prices():
    """(params, deriveds, prices): 200 pairs and 16 prices of a search's kind."""
    params = table_params(n_pairs=200)
    channels = draw_channels(ExperimentConfig(n_pairs=200, seed=5), 0)
    ds = derive_pairs(params, channels)
    return params, ds, search_prices(ds, np.random.default_rng(23), 16)


class TestPooledBids:
    def test_a_pair_has_the_same_bits_alone_and_in_the_pool(self):
        # every root starts cold, so the pool changes no bit
        params, ds, prices = pool_and_prices()
        pool = pooled_bids(params, ds, {"newton": 0})
        alone = [pooled_bids(params, [d], {"newton": 0}) for d in ds]
        live = 0
        for nu in prices:
            row = pool(nu)
            assert all(isinstance(e, float) for e in row)
            for e, bids_at in zip(row, alone):
                [expected] = bids_at(nu)
                assert e.hex() == expected.hex(), nu
                live += e > 0.0
        assert 0 < live < len(prices) * len(ds)

    def test_a_bid_has_the_same_bits_whatever_was_asked_before(self):
        params, ds, prices = pool_and_prices()
        forwards = pooled_bids(params, ds, {"newton": 0})
        backwards = pooled_bids(params, ds, {"newton": 0})
        ahead = [forwards(nu) for nu in prices]
        behind = [backwards(nu) for nu in reversed(prices)][::-1]
        for nu, a, b in zip(prices, ahead, behind):
            assert [e.hex() for e in a] == [e.hex() for e in b], nu

    @pytest.mark.parametrize("n", [3, 50])
    def test_match_gamma_and_drop_out_at_the_cap(self, n):
        rng = np.random.default_rng(24 + n)
        for _ in range(10):
            params, channels, ds = random_instance(rng, n)
            bids_at = pooled_bids(params, ds, {"newton": 0})
            for nu in search_prices(ds, rng, 14):
                for ch, d, e in zip(channels, ds, bids_at(nu)):
                    if nu >= d.alpha:
                        assert e == 0.0
                    else:
                        expected = gamma(params, ch, d, nu)
                        assert abs(e - expected) <= 1e-12 * expected, (nu, d)

    def test_price_search_logs_the_worst_newton_count(self, caplog, paper):
        caplog.set_level(logging.DEBUG, logger="pbwpcn")
        waterfill(*paper)
        [line] = [r.getMessage() for r in caplog.records if r.name == "pbwpcn"]
        newton = int(line.rsplit(" newton_iters=", 1)[1])
        assert 1 <= newton <= _MAX_ITER


class TestRespondToPrice:
    def test_branches(self, paper):
        params, channels = paper
        ch = channels[0]
        d = derive_pair(params, ch, 10.0)
        assert respond_to_price(params, ch, d, 2.0 * d.alpha) == 0.0
        assert respond_to_price(params, ch, d, d.alpha) == d.e_lim
        low = respond_to_price(params, ch, d, 0.5 * d.alpha)
        assert d.e_lim < low < d.e_opt
        assert respond_to_price(params, ch, d, 0.0) == pytest.approx(d.e_opt, rel=1e-10)

    def test_negative_price(self, paper):
        params, channels = paper
        d = derive_pair(params, channels[0], 10.0)
        with pytest.raises(DomainError):
            respond_to_price(params, channels[0], d, -1.0)

    @pytest.mark.parametrize("f", [0.0, 0.5, 0.999, 1.0 - 1e-9, 1.0, 1.0 + 1e-13, 1.5])
    def test_one_shot_forms_match_the_oracle(self, paper, f):
        # at f*alpha both one-shot forms are bit-equal to a fresh oracle's bid,
        # except that respond_to_price reports e_lim within 1e-12 of the cap
        rng = np.random.default_rng(19)
        params, channels = paper
        cases = [(params, channels, derive_pairs(params, channels))]
        cases += [random_instance(rng, 1) for _ in range(20)]
        for params, channels, ds in cases:
            for ch, d in zip(channels, ds):
                nu = f * d.alpha
                e = demand_oracle(params, ch, d)(nu)
                at_cap = f in (1.0, 1.0 + 1e-13)
                assert respond_to_price(params, ch, d, nu) == (d.e_lim if at_cap else e)
                assert best_response(params, ch, d, nu) == (tau_of_e(params, ch, d, e), e)


class TestWaterfill:
    def test_paper_budget_one(self, paper):
        params, channels = paper
        res = waterfill(params, channels)
        assert math.fsum(res.e_star) == pytest.approx(1.0, abs=1e-10)
        # price settles strictly between the two smallest caps
        assert 0.4543 < res.nu < 4.7802
        for e, t in zip(res.e_star, res.tau_star):
            assert 0.0 <= e
            assert 0.0 < t < 1.0
        assert res.welfare > 0.0

    def test_welfare_is_social_welfare(self, paper):
        params, channels = paper
        for budget in (0.0, 0.3, 1.0, 5.0):
            p = dataclasses.replace(params, e_b_tot=budget)
            res = waterfill(p, channels)
            assert res.welfare == social_welfare(p, channels, res.tau_star, res.e_star)

    def test_paper_slack_budget(self, paper):
        params, channels = paper
        params = dataclasses.replace(params, e_b_tot=3.0)
        res = waterfill(params, channels)
        assert res.nu == 0.0
        multiset_close(res.e_star, GOLDEN_E_OPT, rtol=1e-3)
        assert math.fsum(res.e_star) < 3.0

    def test_zero_budget(self, paper):
        params, channels = paper
        params = dataclasses.replace(params, e_b_tot=0.0)
        res = waterfill(params, channels)
        assert res.e_star == (0.0, 0.0, 0.0)
        assert all(0.0 < t < 1.0 for t in res.tau_star)
        assert res.welfare > 0.0  # APs still self-charge

    def test_tie_breaking_identical_pairs(self, paper):
        # two clones must end up with equal energy when the price lands on
        # their shared cap
        params, channels = paper
        ch = channels[2]
        d = derive_pair(params, ch, 10.0)
        from pbwpcn import SystemParams

        budget = 2.0 * d.e_lim * 0.7
        params2 = SystemParams(0.1, 1e-11, 0.5, 1.0, 2.0, (10.0, 10.0), budget)
        res = waterfill(params2, [ch, ch])
        assert res.e_star[0] == pytest.approx(res.e_star[1], rel=1e-12)
        assert math.fsum(res.e_star) == pytest.approx(budget, abs=1e-12)
        assert res.nu == pytest.approx(d.alpha, rel=1e-9)

    def test_budget_binds_generically(self):
        rng = np.random.default_rng(19)
        for _ in range(30):
            params, channels, ds = random_instance(rng, int(rng.integers(2, 5)))
            res = waterfill(params, channels)
            assert math.fsum(res.e_star) == pytest.approx(
                params.e_b_tot, rel=1e-10
            )
            assert res.nu > 0.0

    def test_welfare_concave_in_budget(self, paper):
        # optimal value of a concave program is concave in the budget
        params, channels = paper
        budgets = np.linspace(0.1, 2.5, 25)
        vals = []
        for b in budgets:
            p = dataclasses.replace(params, e_b_tot=float(b))
            vals.append(waterfill(p, channels).welfare)
        second = np.diff(vals, 2)
        assert np.all(second <= 1e-9)

    def test_energy_monotone_in_budget(self, paper):
        params, channels = paper
        prev = None
        for b in (0.2, 0.5, 0.8, 1.2, 1.8, 2.4):
            p = dataclasses.replace(params, e_b_tot=b)
            res = waterfill(p, channels)
            if prev is not None:
                for e_new, e_old in zip(res.e_star, prev):
                    assert e_new >= e_old - 1e-9
            prev = res.e_star

    def test_round_count_is_sweep_plus_bisection(self, paper):
        params, channels = paper
        res = waterfill(params, channels)
        # at most one announcement per distinct cap, plus one bounded bisection
        assert res.rounds <= 3 + 200
        assert res.rounds >= 2
        assert [r for r, _, _ in res.log.rounds()] == list(range(1, res.rounds + 1))

    def test_rounds_logarithmic_in_caps(self):
        # a binary search over 200 sorted caps, then a bounded bisection;
        # sweeping the caps one round each takes well over 100 rounds here
        for seed in (1, 2, 3):
            channels = draw_channels(ExperimentConfig(n_pairs=200, seed=seed), 0)
            params = table_params(n_pairs=200)
            e_opt_sum = math.fsum(
                derive_pair(params, ch, w).e_opt
                for ch, w in zip(channels, params.weights)
            )
            for frac in (0.2, 0.5, 0.8):
                p = dataclasses.replace(params, e_b_tot=frac * e_opt_sum)
                res = waterfill(p, channels)
                assert res.rounds <= 50
                assert math.fsum(res.e_star) == pytest.approx(p.e_b_tot, rel=1e-10)


def defect_a_instance():
    """Four pairs whose budget is met only across the last ulp of the price."""
    params = SystemParams(
        0.0868, 2.372e-12, 0.7506, 8.912, 2.996,
        weights=(0.002919, 817.2, 0.5323, 1.130), e_b_tot=4.776,
    )
    channels = [
        PairChannel(1.762e-13, 2.517e-6),
        PairChannel(4.153e-8, 0.02288),
        PairChannel(1.298e-13, 4.986e-6),
        PairChannel(2.170e-11, 2.912e-5),
    ]
    return params, channels


def kkt_residual(params, channels, res):
    """Worst |grad_s(e) - nu| / nu over pairs above their knee."""
    worst = 0.0
    for ch, w, e in zip(channels, params.weights, res.e_star):
        d = derive_pair(params, ch, w)
        if d.e_lim < e:
            worst = max(worst, abs(grad_s(params, ch, d, e) - res.nu) / res.nu)
    return worst


class TestPriceStep:
    def test_defect_a_ulp_split(self):
        # demand crosses the budget within one ulp of the price; only the
        # pairs whose demand moves there may absorb the residual
        params, channels = defect_a_instance()
        res = waterfill(params, channels)
        assert math.fsum(res.e_star) == pytest.approx(params.e_b_tot, rel=1e-12)
        d1 = derive_pair(params, channels[1], params.weights[1])
        assert d1.alpha > 1e4 * res.nu
        assert res.e_star[1] == pytest.approx(d1.e_opt, rel=1e-9)
        assert res.welfare >= convex_solver_welfare(params, channels)

    def test_random_instances_bind_in_few_rounds(self):
        rng = np.random.default_rng(8)
        for n in (2, 3, 5, 10, 30, 100):
            for _ in range(20):
                params, channels, _ = random_instance(rng, n)
                res = waterfill(params, channels)
                assert res.rounds <= math.ceil(math.log2(n)) + 8
                assert math.fsum(res.e_star) == pytest.approx(
                    params.e_b_tot, rel=1e-12
                )
                assert kkt_residual(params, channels, res) <= 1e-9

    def test_near_cap_instance(self):
        # its last demand misses the budget by 1.4e-10 just above a cap
        channels = draw_channels(ExperimentConfig(n_pairs=2, seed=0), 693)
        res = waterfill(table_params(n_pairs=2, e_b_tot=1.0), channels)
        assert res.rounds <= 12
        assert math.fsum(res.e_star) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize(
        "instance, reason",
        [
            (lambda: load_paper_instance(e_b_tot=1.0), "binds"),
            (lambda: load_paper_instance(e_b_tot=3.0), "slack"),
            (defect_a_instance, "ulp"),
        ],
        ids=["paper-budget-1", "paper-budget-3", "defect-a"],
    )
    def test_logs_why_it_stopped(self, caplog, instance, reason):
        caplog.set_level(logging.DEBUG, logger="pbwpcn")
        res = waterfill(*instance())
        [line] = [r.getMessage() for r in caplog.records if r.name == "pbwpcn"]
        assert line.startswith(f"price search: rounds={res.rounds} stop={reason} ")
        assert "bracket=" in line and "budget_residual=" in line
