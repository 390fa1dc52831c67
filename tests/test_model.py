import math

import numpy as np
import pytest

from pbwpcn import (
    DomainError,
    PairChannel,
    SystemParams,
    social_welfare,
    throughput,
)
from pbwpcn.coop import derive_pair, tau_of_e

from oracles import random_instance, weighted_rate_grid


def make_params(n=1, e_b_tot=1.0):
    return SystemParams(0.1, 1e-11, 0.5, 1.0, 2.0, (10.0,) * n, e_b_tot)


class TestValidation:
    def test_eta_out_of_range(self):
        with pytest.raises(DomainError):
            SystemParams(0.1, 1e-11, 1.5, 1.0, 2.0, (10.0,), 1.0)

    def test_nonpositive_power(self):
        with pytest.raises(DomainError):
            SystemParams(0.1, -1e-11, 0.5, 1.0, 2.0, (10.0,), 1.0)

    def test_negative_budget(self):
        with pytest.raises(DomainError):
            SystemParams(0.1, 1e-11, 0.5, 1.0, 2.0, (10.0,), -1.0)

    def test_channel_gains(self):
        with pytest.raises(DomainError):
            PairChannel(0.0, 1.0)
        with pytest.raises(DomainError):
            PairChannel(1.0, -1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("field", range(7))
    def test_non_finite_params(self, field, bad):
        args = [0.1, 1e-11, 0.5, 1.0, 2.0, (10.0, 10.0), 1.0]
        args[field] = (10.0, bad) if field == 5 else bad
        with pytest.raises(DomainError):
            SystemParams(*args)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_gains(self, bad):
        with pytest.raises(DomainError):
            PairChannel(bad, 1e-5)
        with pytest.raises(DomainError):
            PairChannel(1e-6, bad)

    def test_allocation_ordering(self):
        # social_welfare needs 0 <= e_pb / p_pb <= tau < 1 on every pair
        params = make_params()
        ch = [PairChannel(1e-5, 1e-4)]
        for tau, e in ((0.2, 1.0), (1.0, 0.0), (1.5, 0.1), (0.5, -0.1), (math.nan, 0.0)):
            with pytest.raises(DomainError, match="tau < 1"):
                social_welfare(params, ch, (tau,), (e,))
        assert social_welfare(params, ch, (0.5,), (1.0,)) > 0.0  # e_pb / p_pb == tau

    def test_allocation_budget(self):
        params = make_params(n=2, e_b_tot=0.5)
        ch = [PairChannel(1e-5, 1e-4)] * 2
        with pytest.raises(DomainError, match="exceeds budget"):
            social_welfare(params, ch, (0.5, 0.5), (0.6, 0.6))
        # the budget check allows a relative 1e-9 of rounding
        social_welfare(params, ch, (0.5, 0.5), (0.25, 0.25 * (1.0 + 1e-9)))
        with pytest.raises(DomainError, match="exceeds budget"):
            social_welfare(params, ch, (0.5, 0.5), (0.25, 0.25 * (1.0 + 4e-9)))


class TestThroughput:
    def test_vanishing_at_small_tau(self):
        params = make_params()
        ch = PairChannel(1e-5, 1e-4)
        assert throughput(params, ch, 1e-9, 0.0) < 1e-8

    def test_vanishing_at_tau_one(self):
        params = make_params()
        ch = PairChannel(0.8628e-5, 0.4379e-4)
        vals = [throughput(params, ch, t, 0.0) for t in (0.99, 0.999, 0.9999)]
        assert vals[0] > vals[1] > vals[2]
        assert vals[2] < 0.05

    def test_paper_pair_peak_value(self, paper):
        # closed-form charging time against a dense grid of the same curve
        params, channels = paper
        ch = channels[2]
        d = derive_pair(params, ch, params.weights[2])
        tau_star = tau_of_e(params, ch, d, 0.0)
        grid = np.arange(1e-5, 1.0, 1e-5)
        vals = weighted_rate_grid(params, ch, params.weights[2], grid, 0.0)
        peak = params.weights[2] * throughput(params, ch, tau_star, 0.0)
        assert peak >= vals.max() - 1e-7
        assert peak == pytest.approx(1.12, abs=0.01)

    def test_increasing_in_energy(self):
        params = make_params()
        ch = PairChannel(1e-5, 1e-4)
        r = [throughput(params, ch, 0.4, e) for e in (0.0, 0.2, 0.4, 0.7)]
        assert all(b > a for a, b in zip(r, r[1:]))

    def test_unimodal_in_tau(self):
        params = make_params()
        ch = PairChannel(0.8628e-5, 0.4379e-4)
        d = derive_pair(params, ch, 10.0)
        t_star = tau_of_e(params, ch, d, 0.0)
        grid = np.arange(0.01, 0.99, 0.01)
        vals = weighted_rate_grid(params, ch, 10.0, grid, 0.0)
        diffs = np.diff(vals)
        # increasing before the peak, decreasing after
        assert np.all(diffs[grid[:-1] < t_star - 0.02] > 0)
        assert np.all(diffs[grid[1:] > t_star + 0.02] < 0)

    def test_domain(self):
        params = make_params()
        ch = PairChannel(1e-5, 1e-4)
        with pytest.raises(DomainError):
            throughput(params, ch, 0.0, 0.0)
        with pytest.raises(DomainError):
            throughput(params, ch, 0.3, 0.7)  # e_pb > tau * p_pb


class TestChargingTimeDominance:
    def test_raising_tau_to_tau_prime_never_hurts(self):
        # when the beacon charges longer than the AP, extending the AP's
        # charging time to match cannot lower the rate
        rng = np.random.default_rng(2)
        for _ in range(50):
            params, channels, _ = random_instance(rng, 1)
            ch = channels[0]
            tau_p = float(rng.uniform(0.1, 0.9))
            tau = float(rng.uniform(0.01, tau_p))
            e = tau_p * params.p_pb

            def rate(t):
                harvested = params.eta * (t * params.p_ap * ch.g_pow + e * ch.k_pow)
                snr = ch.g_pow * harvested / ((1.0 - tau_p) * params.noise_w)
                return (1.0 - tau_p) * params.bandwidth_mhz * math.log1p(snr)

            assert rate(tau_p) >= rate(tau)


class TestSocialWelfare:
    def test_zero_allocation(self):
        params = make_params(n=2)
        channels = [PairChannel(1e-5, 1e-4), PairChannel(2e-5, 3e-5)]
        assert social_welfare(params, channels, (0.0, 0.0), (0.0, 0.0)) == 0.0

    def test_single_pair_reduces_to_throughput(self):
        params = make_params(n=1)
        ch = PairChannel(1e-5, 1e-4)
        expected = params.weights[0] * throughput(params, ch, 0.5, 0.3)
        assert social_welfare(params, [ch], (0.5,), (0.3,)) == pytest.approx(expected)

    def test_dimension_mismatch(self):
        params = make_params(n=2)
        ch = PairChannel(1e-5, 1e-4)
        for channels, taus, energies in (
            ([ch] * 2, (0.5,), (0.2,)),
            ([ch] * 2, (0.5, 0.5), (0.2,)),
            ([ch] * 2, (0.5,), (0.2, 0.2)),
            ([ch], (0.5,), (0.2,)),
            ([ch] * 3, (0.5,) * 3, (0.2,) * 3),
        ):
            with pytest.raises(DomainError, match="sizes differ"):
                social_welfare(params, channels, taus, energies)
