import dataclasses
import hashlib
import math
import os
from statistics import fmean

import numpy as np
import pytest

from pbwpcn import (
    AuctionConfig,
    DomainError,
    ExperimentConfig,
    auction_allocation,
    derive_pair,
    draw_channels,
    draw_trials,
    load_paper_instance,
    sweep,
    tau_of_e,
    throughput,
    waterfill,
)
from pbwpcn.experiments import (
    _philox_keys,
    pathloss,
    table_params,
    write_instance_csvs,
    write_sweep_csvs,
)
from oracles import draw_channels_reference


class TestConfig:
    def test_defaults_valid(self):
        cfg = ExperimentConfig()
        assert cfg.trials == 1000
        assert cfg.n_pairs == 3

    def test_validation(self):
        with pytest.raises(DomainError):
            ExperimentConfig(pathloss_zeta=1.0)
        with pytest.raises(DomainError):
            ExperimentConfig(trials=0)
        with pytest.raises(DomainError):
            ExperimentConfig(e_b_tot_grid=(-1.0,))

    def test_seed_is_nonnegative(self):
        # SeedSequence takes no negative entropy: the config rejects it first
        with pytest.raises(DomainError, match="seed"):
            ExperimentConfig(seed=-1)
        assert ExperimentConfig(seed=0).seed == 0


class TestPathloss:
    def test_reference_distance(self):
        assert pathloss(1.0, 2.0) == pytest.approx(1e-3)

    def test_ten_meters_quadratic(self):
        assert pathloss(10.0, 2.0) == pytest.approx(1e-5)


class TestDrawChannels:
    def test_deterministic(self):
        cfg = ExperimentConfig(trials=1, seed=7)
        a = draw_channels(cfg, 0)
        b = draw_channels(cfg, 0)
        assert [(c.g_pow, c.k_pow) for c in a] == [(c.g_pow, c.k_pow) for c in b]

    def test_trials_differ(self):
        cfg = ExperimentConfig(seed=7)
        a = draw_channels(cfg, 0)
        b = draw_channels(cfg, 1)
        assert a[0].g_pow != b[0].g_pow

    def test_extra_pairs_keep_earlier_draws(self):
        # substreams are keyed per pair, so widening the network must not
        # reshuffle the channels of existing pairs
        small = ExperimentConfig(n_pairs=2, seed=3)
        large = ExperimentConfig(n_pairs=5, seed=3)
        a = draw_channels(small, 4)
        b = draw_channels(large, 4)
        for ca, cb in zip(a, b):
            assert ca.g_pow == cb.g_pow
            assert ca.k_pow == cb.k_pow

    def test_mean_gains_match_pathloss(self):
        # unit-mean fading: E[G] = L, E[K] = M * L
        cfg = ExperimentConfig(n_pairs=1, seed=11)
        draws = draw_trials(cfg, range(100_000))
        gs = [channels[0].g_pow for channels in draws]
        ks = [channels[0].k_pow for channels in draws]
        l_ref = pathloss(10.0, 2.0)
        assert np.mean(gs) == pytest.approx(l_ref, rel=0.02)
        assert np.mean(ks) == pytest.approx(cfg.antennas_m * l_ref, rel=0.02)


    def test_negative_trial_rejected(self):
        cfg = ExperimentConfig(seed=7)
        with pytest.raises(DomainError, match="trial"):
            draw_channels(cfg, -1)
        with pytest.raises(DomainError, match="trial"):
            draw_trials(cfg, [0, -1])


# seeds of one and of several 32-bit words, trial ranges of one word, across
# 2**32 and across 2**64, so that the entropy of a batch varies in length
SEEDS = [0, 7919, 2**32 - 1, 2**32, 2**64 + 5]
TRIAL_RANGES = [range(0, 4), range(2**32 - 2, 2**32 + 2), range(2**64 - 1, 2**64 + 1)]


@pytest.mark.parametrize("seed", SEEDS)
def test_keys_match_seed_sequence(seed):
    for trials in TRIAL_RANGES:
        keys = _philox_keys(seed, list(trials), 8)
        for i, trial in enumerate(trials):
            for pair in range(8):
                expected = np.random.SeedSequence((seed, trial, pair)).generate_state(2, np.uint64)
                assert keys[i, pair].tolist() == expected.tolist(), (trial, pair)


@pytest.mark.parametrize("seed", SEEDS)
def test_draw_trials_match_the_reference(seed):
    # every n_pairs and antennas_m from 1 to 8, in one batch and in any other
    for n_pairs in range(1, 9):
        cfg = ExperimentConfig(seed=seed, n_pairs=n_pairs, antennas_m=9 - n_pairs)
        for trials in TRIAL_RANGES[:2]:
            expected = [draw_channels_reference(cfg, t) for t in trials]
            assert draw_trials(cfg, trials) == expected
            assert [draw_channels(cfg, t) for t in trials] == expected
            assert draw_trials(cfg, list(trials)[::-1]) == expected[::-1]


class TestPaperInstance:
    def test_fields(self):
        params, channels = load_paper_instance()
        assert params.n_pairs == 3
        assert params.p_pb == 2.0
        assert params.p_ap == 1.0
        assert params.eta == 0.5
        assert params.noise_w == 1e-11
        assert params.bandwidth_mhz == 0.1
        assert params.weights == (10.0, 10.0, 10.0)
        assert len(channels) == 3

    def test_budget_override(self):
        params, _ = load_paper_instance(e_b_tot=2.5)
        assert params.e_b_tot == 2.5


class TestSweep:
    CFG = dict(trials=20, seed=1, e_b_tot_grid=(0.0, 0.5, 1.5, 4.0))

    def test_zero_budget_equals_no_beacon(self):
        records = sweep(ExperimentConfig(**self.CFG))
        r0 = records[0]
        assert r0.e_b_tot == 0.0
        assert r0.welfare_coop == pytest.approx(r0.welfare_nopb, rel=1e-12)
        assert r0.mean_e_coop == 0.0
        assert r0.mean_e_auction == 0.0

    def test_coop_dominates(self):
        records = sweep(ExperimentConfig(**self.CFG))
        for r in records:
            assert r.welfare_coop >= r.welfare_auction - 1e-9
            assert r.welfare_coop >= r.welfare_nopb - 1e-12

    def test_welfare_nondecreasing_in_budget(self):
        records = sweep(ExperimentConfig(**self.CFG))
        coop = [r.welfare_coop for r in records]
        assert all(b >= a - 1e-9 for a, b in zip(coop, coop[1:]))

    def test_records_match_per_trial_solves(self):
        # the batched sweep takes the per-trial public solves' decisions; its
        # records match them up to the round-off of its array arithmetic, and
        # its auction means bit for bit
        cfg = ExperimentConfig(trials=5, seed=3, e_b_tot_grid=(0.0, 0.7, 3.0))
        base = table_params(n_pairs=cfg.n_pairs)
        auc_cfg = AuctionConfig(reserve_price=cfg.reserve_price, step=cfg.price_step)
        trials = [draw_channels(cfg, t) for t in range(cfg.trials)]

        def welfare(params, channels, taus, energies):
            return math.fsum(
                w * throughput(params, ch, t, e)
                for w, ch, t, e in zip(params.weights, channels, taus, energies)
            )

        nopb = []
        for channels in trials:
            taus = [tau_of_e(base, ch, derive_pair(base, ch, w), 0.0)
                    for ch, w in zip(channels, base.weights)]
            nopb.append(welfare(base, channels, taus, [0.0] * len(channels)))
        records = sweep(cfg)
        assert [r.e_b_tot for r in records] == list(cfg.e_b_tot_grid)
        for r in records:
            params = dataclasses.replace(base, e_b_tot=r.e_b_tot)
            coop = [waterfill(params, channels) for channels in trials]
            assert r.mean_e_coop == pytest.approx(
                fmean([e for res in coop for e in res.e_star]), rel=1e-12
            )
            assert r.mean_tau_coop == pytest.approx(
                fmean([t for res in coop for t in res.tau_star]), rel=1e-12
            )
            assert r.welfare_coop == pytest.approx(fmean([res.welfare for res in coop]), rel=1e-12)
            assert r.welfare_nopb == fmean(nopb)
            assert r.trials == cfg.trials
            auc = [auction_allocation(params, channels, auc_cfg) for channels in trials]
            assert r.mean_e_auction == fmean([e for a in auc for e in a[0]])
            assert r.mean_tau_auction == fmean([t for a in auc for t in a[1]])
            assert r.welfare_auction == pytest.approx(
                fmean([welfare(params, ch, a[1], a[0]) for ch, a in zip(trials, auc)]),
                rel=1e-12,
            )

    def test_reproducible(self):
        a = sweep(ExperimentConfig(**self.CFG))
        b = sweep(ExperimentConfig(**self.CFG))
        assert a == b


class TestCsvOutputs:
    def test_sweep_files(self, tmp_path):
        cfg = ExperimentConfig(
            trials=5, seed=2, e_b_tot_grid=(0.0, 1.0), output_path=str(tmp_path)
        )
        sweep(cfg)
        means = (tmp_path / "fig5_means.csv").read_text().splitlines()
        welfare = (tmp_path / "fig6_welfare.csv").read_text().splitlines()
        assert means[0] == (
            "e_b_tot,mean_e_coop,mean_e_auction,mean_tau_coop,mean_tau_auction,trials"
        )
        assert welfare[0] == "e_b_tot,welfare_coop,welfare_auction,welfare_nopb,trials"
        assert len(means) == 3 and len(welfare) == 3

    def test_sweep_files_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            sweep(
                ExperimentConfig(
                    trials=5, seed=2, e_b_tot_grid=(0.5, 1.0), output_path=str(out)
                )
            )
        for name in ("fig5_means.csv", "fig6_welfare.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_instance_files(self, tmp_path):
        paths = write_instance_csvs(str(tmp_path))
        for p in paths:
            assert os.path.exists(p)
        conv = (tmp_path / "fig3_convergence.csv").read_text().splitlines()
        assert conv[0].startswith("scenario,round,price,bid_1")
        scenarios = {line.split(",")[0] for line in conv[1:]}
        assert scenarios == {"coop", "auction"}
        energy = (tmp_path / "fig4_energy.csv").read_text().splitlines()
        assert len(energy) == 19  # header + 18 budgets, 0 to 3.4 J

    def test_fig3_golden_digest(self, tmp_path):
        write_instance_csvs(str(tmp_path), AuctionConfig())
        data = (tmp_path / "fig3_convergence.csv").read_bytes()
        assert hashlib.sha256(data).hexdigest() == (
            "e1191a8a21d2fce8bdd3f520ff7f4d2d04e4275eeff86d7ebd26e5a4eaa7a7ea"
        )

    def test_atomic_write_leaves_no_temp(self, tmp_path):
        cfg = ExperimentConfig(
            trials=2, seed=0, e_b_tot_grid=(1.0,), output_path=str(tmp_path)
        )
        sweep(cfg)
        leftovers = [p for p in os.listdir(tmp_path) if p.endswith(".tmp")]
        assert leftovers == []
