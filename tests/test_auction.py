import dataclasses
import hashlib
import json
import math
from array import array

import numpy as np
import pytest

from pbwpcn import (
    AuctionConfig,
    DomainError,
    auction_allocation,
    best_response,
    cumulative_clinch,
    derive_pair,
    payment,
    run_auction,
    throughput,
    waterfill,
)
from pbwpcn import auction, batch, coop
from pbwpcn.auction import MAX_LADDER_ROUNDS

from oracles import bytes_per_round, jsonl, ladder_rows, random_instance


class TestBestResponse:
    def test_drops_out_at_cap(self, paper):
        params, channels = paper
        ch = channels[0]
        d = derive_pair(params, ch, 10.0)
        tau, e = best_response(params, ch, d, d.alpha)
        assert e == 0.0
        assert 0.0 < tau < 1.0

    def test_zero_price_demands_e_opt(self, paper):
        params, channels = paper
        for ch, w in zip(channels, params.weights):
            d = derive_pair(params, ch, w)
            tau, e = best_response(params, ch, d, 0.0)
            assert e == pytest.approx(d.e_opt, rel=1e-10)
            assert tau == pytest.approx(e / params.p_pb, rel=1e-12)

    def test_negative_price(self, paper):
        params, channels = paper
        d = derive_pair(params, channels[0], 10.0)
        with pytest.raises(DomainError):
            best_response(params, channels[0], d, -0.01)

    def test_against_grid_oracle(self):
        # quasilinear utility w*R(tau, e) - mu*e over a dense (tau, e) grid
        rng = np.random.default_rng(20)
        from oracles import LN2

        for _ in range(10):
            params, channels, ds = random_instance(rng, 1)
            ch, d = channels[0], ds[0]
            w = params.weights[0]
            mu = float(rng.uniform(0.0, 0.95 * d.alpha))
            tau_bs, e_bs = best_response(params, ch, d, mu)
            u_bs = w * throughput(params, ch, tau_bs, e_bs) - mu * e_bs

            taus = np.linspace(1e-4, 1.0 - 1e-4, 200)
            es = np.linspace(0.0, params.p_pb * (1.0 - 1e-6), 200)
            tg, eg = np.meshgrid(taus, es, indexing="ij")
            feas = eg <= tg * params.p_pb
            s = 1.0 - tg
            u = params.eta * (tg * params.p_ap * ch.g_pow + eg * ch.k_pow)
            rate = w * params.bandwidth_mhz * s * np.log1p(
                ch.g_pow * u / (s * params.noise_w)
            ) / LN2
            util = np.where(feas, rate - mu * eg, -np.inf)
            assert u_bs >= util.max() - 1e-4 * abs(u_bs)


class TestCumulativeClinch:
    def test_no_scarcity(self):
        assert cumulative_clinch(10.0, [1.0, 2.0, 3.0]) == [5.0, 6.0, 7.0]

    def test_others_absorb_everything(self):
        assert cumulative_clinch(1.0, [0.5, 0.8, 0.9]) == [0.0, 0.0, 0.0]

    def test_single_bidder(self):
        assert cumulative_clinch(1.0, [0.4]) == [1.0]

    def test_validation(self):
        with pytest.raises(DomainError):
            cumulative_clinch(1.0, [0.5, -0.1])

    def test_each_entry_is_the_clinch_rule(self):
        # entry i is the supply bidder i's rivals cannot absorb, with the
        # rivals' bids summed correctly rounded; budgets fall on both sides
        # of the aggregate bid, and some bids are zero as at a ladder top
        rng = np.random.default_rng(23)
        for n in range(1, 9):
            for _ in range(20):
                bids = [float(b) for b in rng.exponential(size=n)]
                bids[int(rng.integers(n))] *= float(rng.integers(2))
                total = math.fsum(bids)
                others = [
                    math.fsum(b for j, b in enumerate(bids) if j != i) for i in range(n)
                ]
                for budget in map(float, total * rng.uniform(0.0, 2.0, size=4)):
                    expected = [max(0.0, budget - o) for o in others]
                    assert cumulative_clinch(budget, bids) == expected
                bad = list(bids)
                bad[int(rng.integers(n))] = -float(rng.uniform(1e-300, 1.0))
                with pytest.raises(DomainError):
                    cumulative_clinch(total, bad)

    def test_screen_boundary(self):
        # budgets at each rival sum, 1-4 ulps either side of it, and within
        # 4 ulps of the total either side, where a screen that ignored the
        # rounding of total - b_i would go wrong; a dominant bid makes
        # total - b_i cancel, and repr tells a -0.0 from 0.0
        tiny = 1.5 * 2.0**-53  # 1 + tiny rounds up to 1 + 2**-52
        cases = [
            [1.0, tiny],
            [1.0, tiny, tiny],
            [1e16, 1.0, 3.0, 0.5],
            [1e16, 0.0, 1.0],
            # the rounded total - b_1 lies 0.5*eps*total above the float just
            # past the rivals' rounded sum
            [1.3560061484696735, 1.8926172348456938, 0.7536392093654576],
            [0.1, 0.2, 0.3],
            [0.1, 0.2, 0.3, 0.0],
            [0.0, 0.0, 0.7],
            [0.0, 0.0],
            [2.5],
            [5e-324, 1e-310, 0.0],
        ]
        for bids in cases:
            others = [math.fsum(bids[:i] + bids[i + 1:]) for i in range(len(bids))]
            total_ulp = math.ulp(math.fsum(bids))
            for rivals in others:
                budgets = {rivals + j * total_ulp / 16 for j in range(-64, 65)}
                for direction in (-math.inf, math.inf):
                    b = rivals
                    for _ in range(4):
                        b = math.nextafter(b, direction)
                        budgets.add(b)
                for budget in budgets:
                    expected = [repr(max(0.0, budget - o)) for o in others]
                    got = cumulative_clinch(budget, bids)
                    assert [repr(e) for e in got] == expected, (bids, budget)

    def test_screened_rows_clinch_nothing(self):
        # the walk's screen of whole rows is _clinch_vector's, entry by entry;
        # a row it clears clinches +0.0 everywhere
        rng = np.random.default_rng(24)
        for n in range(1, 9):
            rows = rng.exponential(size=(40, n))
            rows[rng.uniform(size=rows.shape) < 0.2] = 0.0
            totals = [math.fsum(r) for r in rows.tolist()]
            budgets = [float(b) for b in np.median(totals) * rng.uniform(0.0, 1.5, size=6)]
            # rival sums and the budgets one ulp either side, where the screen is tight
            for row in rows.tolist()[:5]:
                for i in range(n):
                    rivals = math.fsum(row[:i] + row[i + 1:])
                    budgets += [math.nextafter(rivals, -math.inf), rivals,
                                math.nextafter(rivals, math.inf)]
            for budget in budgets:
                screened = auction._screened_rows(budget, rows, totals)
                for row, total, cleared in zip(rows.tolist(), totals, screened):
                    cut = budget + auction._SCREEN_EPS * total
                    assert cleared == all(total - b > cut for b in row)
                    if cleared:
                        got = auction._clinch_vector(budget, row, total)
                        assert [repr(c) for c in got] == ["0.0"] * n


def prr(budget, last, prev):
    """``batch._prr`` of one row, its totals summed exactly."""
    got = batch._prr(budget, np.array(last), np.array(prev), math.fsum(last), math.fsum(prev))
    return got.tolist()


class TestFinalClinchPrr:
    """The final clinch's proportional-rationing split, ``batch._prr``."""

    def test_hand_example(self):
        # reductions (0.2, 0.4): residual 0.3 splits 0.1 / 0.2
        got = prr(0.9, [0.4, 0.2], [0.6, 0.6])
        assert got == pytest.approx([0.5, 0.4])
        assert math.fsum(got) == pytest.approx(0.9, abs=1e-15)

    def test_exact_clearing_keeps_bids(self):
        got = prr(0.7, [0.4, 0.3], [0.5, 0.5])
        assert got == [0.4, 0.3]

    def test_sums_to_budget(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            prev = rng.uniform(0.2, 1.0, size=4)
            last = prev * rng.uniform(0.3, 0.95, size=4)
            budget = float(rng.uniform(last.sum(), prev.sum() - 1e-9))
            got = prr(budget, list(last), list(prev))
            assert math.fsum(got) == pytest.approx(budget, abs=1e-12)
            for g, bl, bp in zip(got, last, prev):
                assert bl - 1e-12 <= g <= bp + 1e-12

    def test_validation(self):
        with pytest.raises(DomainError):
            prr(2.0, [0.4, 0.2], [0.6, 0.6])  # supply never crossed
        with pytest.raises(DomainError):
            prr(0.9, [0.7, 0.2], [0.6, 0.6])  # bid increased


class TestPayment:
    def test_single_round(self):
        assert payment([0.5], [[0.2, 0.4]]) == pytest.approx([0.1, 0.2])

    def test_single_jump(self):
        got = payment([0.1, 0.2], [[0.0, 0.0], [0.3, 0.5]])
        assert got == pytest.approx([0.06, 0.10])

    def test_telescoping_total(self):
        # each increment priced at its own round
        mus = [0.1, 0.2, 0.3]
        rows = [[0.1], [0.4], [0.9]]
        got = payment(mus, rows)
        assert got[0] == pytest.approx(0.1 * 0.1 + 0.2 * 0.3 + 0.3 * 0.5)

    def test_validation(self):
        with pytest.raises(DomainError):
            payment([0.1], [])
        with pytest.raises(DomainError):
            payment([0.1, 0.2], [[0.5], [0.4]])  # clinch decreased

    def test_rows_of_unequal_length(self):
        # a short row would misalign the bidders or drop one
        with pytest.raises(DomainError, match="one entry per bidder"):
            payment([0.1, 0.2], [[1.0, 2.0], [1.0]])
        with pytest.raises(DomainError, match="one entry per bidder"):
            payment([0.1, 0.2], [[1.0], [1.0, 2.0]])

    def test_keeps_the_input_numbers(self):
        # integers stay exact integers until the exact sum
        big = 2**60 + 1
        assert payment([3, 5], [[big], [big + 2]]) == [math.fsum([3 * big, 5 * 2])]


class TestRunAuction:
    def test_paper_instance_defaults(self, paper):
        params, channels = paper
        outcome = run_auction(params, channels, AuctionConfig())
        assert not outcome.pb_quit
        assert math.fsum(outcome.e_final) == pytest.approx(1.0, abs=1e-12)
        # ladder cannot run past the largest cap
        assert outcome.rounds_used <= math.ceil((5.6834 - 0.001) / 0.01) + 1
        assert outcome.pb_utility == pytest.approx(
            math.fsum(outcome.payment), abs=1e-15
        )

    def test_weakest_pair_exits_near_its_knee(self, paper):
        # the smallest-cap pair's last strictly positive bid approaches its
        # knee from above as the price climbs to its cap
        params, channels = paper
        cfg = AuctionConfig()
        outcome = run_auction(params, channels, cfg)
        ds = [derive_pair(params, ch, w) for ch, w in zip(channels, params.weights)]
        i_min = min(range(3), key=lambda i: ds[i].alpha)
        last_pos = None
        for row in outcome.transcript:
            bids = row.get("bids")
            if bids and bids[i_min] > 0.0:
                last_pos = bids[i_min]
        assert last_pos is not None
        assert abs(last_pos - 0.3299) <= 2.0 * cfg.step + 1e-3

    def test_transcript_replay(self, paper):
        # payments recomputed from the raw transcript match the outcome
        params, channels = paper
        outcome = run_auction(params, channels, AuctionConfig())
        mus = [row["price"] for row in outcome.transcript]
        rows = [row["clinch_cum"] for row in outcome.transcript]
        assert payment(mus, rows) == pytest.approx(list(outcome.payment), abs=1e-15)
        parsed = [json.loads(line) for line in jsonl(outcome.log.rows()).splitlines()]
        assert parsed == outcome.transcript

    def test_monotone_bids_and_clinches(self, paper):
        params, channels = paper
        outcome = run_auction(params, channels, AuctionConfig())
        rows = [r for r in outcome.transcript if "clinch_cum" in r]
        for prev, cur in zip(rows, rows[1:]):
            for b_prev, b_cur in zip(prev["bids"], cur["bids"]):
                assert b_cur <= b_prev + 1e-12
            for c_prev, c_cur in zip(prev["clinch_cum"], cur["clinch_cum"]):
                assert c_cur >= c_prev - 1e-12

    def test_individual_rationality(self, paper):
        # no bidder ends worse off than self-charging alone
        params, channels = paper
        outcome = run_auction(params, channels, AuctionConfig())
        ds = [derive_pair(params, ch, w) for ch, w in zip(channels, params.weights)]
        for i, (ch, d, w) in enumerate(zip(channels, ds, params.weights)):
            from pbwpcn import tau_of_e

            standalone = w * throughput(params, ch, tau_of_e(params, ch, d, 0.0), 0.0)
            assert outcome.ap_utility[i] >= standalone - 1e-9

    def test_quit_when_budget_slack(self, paper):
        params, channels = paper
        params = dataclasses.replace(params, e_b_tot=3.0)
        outcome = run_auction(params, channels, AuctionConfig())
        assert outcome.pb_quit
        assert outcome.e_final == (0.0, 0.0, 0.0)
        assert outcome.payment == (0.0, 0.0, 0.0)
        assert outcome.pb_utility == 0.0
        assert outcome.rounds_used == 1
        assert all(u > 0.0 for u in outcome.ap_utility)

    def test_fine_ladder_approaches_waterfill(self, paper):
        params, channels = paper
        coop = waterfill(params, channels)
        cfg = AuctionConfig(reserve_price=1e-6, step=1e-4)
        outcome = run_auction(params, channels, cfg)
        for e_auc, e_co in zip(outcome.e_final, coop.e_star):
            assert e_auc == pytest.approx(e_co, abs=1e-2)
        closing_price = cfg.reserve_price + (outcome.rounds_used - 1) * cfg.step
        assert closing_price == pytest.approx(coop.nu, abs=2e-4)

    def test_config_validation(self):
        with pytest.raises(DomainError):
            AuctionConfig(step=0.0)
        with pytest.raises(DomainError):
            AuctionConfig(reserve_price=-0.1)

    def test_config_is_finite_and_has_no_round_cap(self):
        for bad in (math.inf, math.nan):
            with pytest.raises(DomainError):
                AuctionConfig(step=bad)
            with pytest.raises(DomainError):
                AuctionConfig(reserve_price=bad)
        assert [f.name for f in dataclasses.fields(AuctionConfig)] == [
            "reserve_price", "step"
        ]

    def test_transcript_is_a_fresh_list_per_read(self, paper):
        params, channels = paper
        for budget in (1.0, 3.0):  # a trade and a quit
            p = dataclasses.replace(params, e_b_tot=budget)
            outcome = run_auction(p, channels, AuctionConfig())
            first, second = outcome.transcript, outcome.transcript
            assert first == second
            assert first is not second
            first[0]["bids"].append(1.0)
            first[-1]["price"] = -1.0
            first.append({})
            assert outcome.transcript == second
            assert jsonl(outcome.log.rows()) == "\n".join(map(json.dumps, second))

    def test_equality_compares_the_log(self, paper):
        params, channels = paper
        outcome = run_auction(params, channels, AuctionConfig())
        assert run_auction(params, channels, AuctionConfig()) == outcome
        log = dataclasses.replace(outcome.log, bids=array("d", outcome.log.bids))
        other = dataclasses.replace(outcome, log=log)
        assert other == outcome
        log.bids[0] += 1e-3
        assert other != outcome

    @pytest.mark.parametrize(
        "step, digest",
        [
            (0.01, "da00b828d5f13ea9b3c0b32223e76a16e0e409f7c99286e78be1e7b26e564519"),
            (1e-3, "82ba548741184ef396cd40a142a90a21074b316aec4a2b1058cf4a49ea04083b"),
        ],
        ids=["0.01", "0.001"],
    )
    def test_transcript_golden_digest(self, paper, step, digest):
        params, channels = paper
        outcome = run_auction(params, channels, AuctionConfig(step=step))
        assert hashlib.sha256(jsonl(outcome.log.rows()).encode()).hexdigest() == digest

    def test_memory_per_round(self, paper):
        # packed doubles: one price, 3 bids and 3 clinches, about 57 bytes a round
        params, channels = paper
        cfg = AuctionConfig(step=1e-3)
        held, peak = bytes_per_round(lambda: run_auction(params, channels, cfg))
        assert held <= 100.0
        assert peak <= 150.0


class TestAuctionAllocation:
    def test_matches_full_run_on_paper(self, paper):
        params, channels = paper
        cfg = AuctionConfig()
        full = run_auction(params, channels, cfg)
        e_fin, tau_fin, quit_, rounds = auction_allocation(params, channels, cfg)
        # the close reads the walk's rows: the same bits
        assert e_fin == full.e_final
        assert tau_fin == full.tau_final
        assert quit_ == full.pb_quit
        assert rounds == full.rounds_used

    def test_matches_full_run_random(self):
        rng = np.random.default_rng(22)
        for _ in range(15):
            params, channels, _ = random_instance(rng, int(rng.integers(2, 5)))
            cfg = AuctionConfig(step=float(rng.uniform(0.005, 0.05)))
            full = run_auction(params, channels, cfg)
            e_fin, tau_fin, quit_, rounds = auction_allocation(params, channels, cfg)
            assert quit_ == full.pb_quit
            assert rounds == full.rounds_used
            assert e_fin == full.e_final
            assert tau_fin == full.tau_final

    def test_quit_path(self, paper):
        params, channels = paper
        params = dataclasses.replace(params, e_b_tot=5.0)
        e_fin, tau_fin, quit_, rounds = auction_allocation(
            params, channels, AuctionConfig()
        )
        assert quit_
        assert e_fin == (0.0, 0.0, 0.0)
        assert rounds == 1

    def test_ladder_top_reaches_the_largest_cap(self, paper):
        # (alpha_max - mu0) / delta rounds to n, but mu0 + n * delta falls
        # one ulp short of alpha_max; the walk closes at round n + 1
        params, channels = paper
        params = dataclasses.replace(params, e_b_tot=0.05)
        ds = [derive_pair(params, ch, w) for ch, w in zip(channels, params.weights)]
        alpha_max = max(d.alpha for d in ds)
        n = next(
            n for n in range(71, 10_000)
            if n * (alpha_max / n) < alpha_max
            and math.ceil(alpha_max / (alpha_max / n)) == n
        )
        cfg = AuctionConfig(reserve_price=0.0, step=alpha_max / n)
        assert n * cfg.step < alpha_max
        full = run_auction(params, channels, cfg)
        assert full.rounds_used == n + 2
        e_fin, tau_fin, quit_, rounds = auction_allocation(params, channels, cfg)
        assert not quit_
        assert rounds == n + 2
        assert e_fin == full.e_final
        assert tau_fin == full.tau_final

    def test_accepts_a_ladder_too_long_to_walk(self, paper):
        params, channels = paper
        cfg = AuctionConfig(step=1e-9)
        e_fin, _, quit_, rounds = auction_allocation(params, channels, cfg)
        assert not quit_
        assert rounds > MAX_LADDER_ROUNDS
        assert math.fsum(e_fin) == pytest.approx(params.e_b_tot, abs=1e-12)

    def test_no_price_evaluated_twice(self, paper, monkeypatch):
        # the search reads each ladder round at most once, through lane_rows
        # as the walk does, and never runs the water-filling price search
        def forbidden(*args, **kwargs):
            raise AssertionError("the fast path must not run the price search")

        original_rows = batch.lane_rows
        calls = []

        def recording_rows(p_pb, cols, cfg, rounds):
            calls.append([int(t) for t in rounds])
            return original_rows(p_pb, cols, cfg, rounds)

        monkeypatch.setattr(coop, "price_search", forbidden)
        monkeypatch.setattr(coop, "pooled_bids", forbidden)
        monkeypatch.setattr(batch, "lane_rows", recording_rows)
        assert not hasattr(auction, "price_search") and not hasattr(auction, "pooled_bids")
        rng = np.random.default_rng(22)
        params, channels = paper
        cases = [(params, channels, AuctionConfig())]
        for _ in range(15):
            params, channels, _ = random_instance(rng, int(rng.integers(2, 5)))
            cfg = AuctionConfig(step=float(rng.uniform(0.005, 0.05)))
            cases.append((params, channels, cfg))
        # a zero reserve prices ladder round 0 at zero; near-slack budgets
        # put the close at round 0 or 1
        params, channels = paper
        cases.append((params, channels, AuctionConfig(reserve_price=0.0)))
        cases.append((dataclasses.replace(params, e_b_tot=5.0), channels,
                      AuctionConfig(reserve_price=0.0)))
        for _ in range(15):
            params, channels, _ = random_instance(
                rng, int(rng.integers(2, 5)), budget_frac=float(rng.uniform(0.9, 1.0))
            )
            cfg = AuctionConfig(reserve_price=0.0, step=float(rng.uniform(0.005, 0.05)))
            cases.append((params, channels, cfg))
        for params, channels, cfg in cases:
            calls.clear()
            _, _, _, used = auction_allocation(params, channels, cfg)
            rounds = [t for call in calls for t in call]
            t_top = auction.ladder_top(coop.derive_pairs(params, channels), cfg)
            assert len(set(rounds)) == len(rounds)
            close = used - 1
            assert close == 0 or close - 1 in rounds
            assert close == t_top or close in rounds
            assert len(calls) <= math.ceil(math.log(t_top + 1, 64)) + 1


class TestLadderBlocks:
    """Closes where the walk's blocks of rounds begin and end."""

    @staticmethod
    def budget_closing_at(params, channels, cfg, t, exact):
        """A budget whose walk closes at round ``t``: the demand of round t,
        or (``exact`` false) halfway to round t - 1's."""
        rows = ladder_rows(
            params, coop.derive_pairs(params, channels), cfg, range(max(t - 1, 0), t + 1))
        total = math.fsum(rows[-1].tolist())
        if exact or t == 0:
            return total
        return 0.5 * (total + math.fsum(rows[0].tolist()))

    def check_close(self, params, channels, cfg, t_close):
        full = run_auction(params, channels, cfg)
        assert full.rounds_used == t_close + 1
        assert full.pb_quit == (t_close == 0)
        fast = auction_allocation(params, channels, cfg)
        assert fast == (full.e_final, full.tau_final, full.pb_quit, full.rounds_used)
        ds = coop.derive_pairs(params, channels)
        rows = ladder_rows(params, ds, cfg, range(0, t_close + 1))
        assert full.log.bids.tobytes() == rows.tobytes()
        if full.pb_quit:
            assert len(full.log.clinched) == 0
            return
        n, log = len(channels), full.log
        clinch_rows = [log.clinched[t * n:(t + 1) * n].tolist() for t in range(t_close + 1)]
        for t in range(t_close):
            bids = rows[t].tolist()
            expected = auction._clinch_vector(params.e_b_tot, bids, math.fsum(bids))
            assert [repr(c) for c in clinch_rows[t]] == [repr(c) for c in expected], t
        assert clinch_rows[-1] == list(full.e_final)
        assert list(full.payment) == payment(list(log.prices), clinch_rows)

    @pytest.mark.parametrize("exact", [True, False], ids=["at-demand", "between"])
    @pytest.mark.parametrize("offset", [-1, 0, 1, 63, 64, 65])
    def test_close_at_a_block_edge(self, paper, offset, exact):
        params, channels = paper
        cfg = AuctionConfig()
        t = auction.LADDER_BLOCK + offset
        budget = self.budget_closing_at(params, channels, cfg, t, exact)
        self.check_close(dataclasses.replace(params, e_b_tot=budget), channels, cfg, t)

    def test_quit_at_round_zero(self, paper):
        params, channels = paper
        cfg = AuctionConfig()
        budget = self.budget_closing_at(params, channels, cfg, 0, True)
        self.check_close(dataclasses.replace(params, e_b_tot=budget), channels, cfg, 0)

    def test_close_at_the_ladder_top(self, paper):
        # with no budget every pair must drop out: the close is the ladder top
        params, channels = paper
        cfg = AuctionConfig()
        top = auction.ladder_top(coop.derive_pairs(params, channels), cfg)
        self.check_close(dataclasses.replace(params, e_b_tot=0.0), channels, cfg, top)

    @pytest.mark.parametrize("block", [1, 2, 7, 1000])
    def test_block_size_leaves_the_outcome(self, paper, monkeypatch, block):
        params, channels = paper
        for budget in (0.3, 1.0, 3.0):
            p = dataclasses.replace(params, e_b_tot=budget)
            expected = run_auction(p, channels, AuctionConfig())
            monkeypatch.setattr(auction, "LADDER_BLOCK", block)
            assert run_auction(p, channels, AuctionConfig()) == expected
            monkeypatch.undo()


class TestLadderLength:
    def test_too_long_ladder_is_rejected_before_bidding(self, paper, monkeypatch):
        params, channels = paper
        calls = []
        monkeypatch.setattr(auction, "gamma", lambda *a, **k: calls.append(a))
        monkeypatch.setattr(coop, "gamma", lambda *a, **k: calls.append(a))
        with pytest.raises(DomainError, match="ladder"):
            run_auction(params, channels, AuctionConfig(step=1e-9))
        assert calls == []

    def test_longest_allowed_ladder_is_accepted(self, paper, monkeypatch):
        # a ladder of exactly MAX_LADDER_ROUNDS rounds passes the check
        params, channels = paper
        cfg = AuctionConfig(reserve_price=0.0, step=1.0)
        top = auction.ladder_top(coop.derive_pairs(params, channels), cfg)
        monkeypatch.setattr(auction, "MAX_LADDER_ROUNDS", top + 1)
        assert run_auction(params, channels, cfg).rounds_used <= top + 1
        monkeypatch.setattr(auction, "MAX_LADDER_ROUNDS", top)
        with pytest.raises(DomainError):
            run_auction(params, channels, cfg)

    def test_no_finite_ladder(self, paper):
        params, channels = paper
        cfg = AuctionConfig(step=1e-320)
        with pytest.raises(DomainError):
            run_auction(params, channels, cfg)
        with pytest.raises(DomainError):
            auction_allocation(params, channels, cfg)
