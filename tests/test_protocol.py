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
    ProtocolError,
    SystemParams,
    auction_allocation,
    derive_pair,
    make_views,
    run_auction,
    run_auction_protocol,
    run_coop_protocol,
    waterfill,
)
from pbwpcn.coop import RoundLog
from pbwpcn.protocol import PB_ID, Bus, Message, MessageKind, PBView

from oracles import bytes_per_round, jsonl, random_instance


def ap_to_ap_count(bus):
    return sum(
        1
        for m in bus.transcript
        if m.sender != PB_ID and m.receiver != PB_ID
    )


class TestBus:
    def test_rejects_ap_to_ap(self):
        bus = Bus()
        with pytest.raises(ProtocolError):
            bus.send(Message(MessageKind.BID, 1, 2, 0.5, 0))
        assert bus.transcript == []

    def test_accepts_pb_endpoints(self):
        bus = Bus()
        bus.send(Message(MessageKind.BID, 1, PB_ID, 0.5, 0))
        bus.send(Message(MessageKind.PRICE_ANNOUNCE, PB_ID, 1, 0.2, 0))
        assert len(bus.transcript) == 2

    def test_jsonl_round_trip(self):
        bus = Bus()
        bus.send(Message(MessageKind.ALPHA_REPORT, 2, PB_ID, 1.25, 0))
        rec = json.loads(jsonl(m.to_record() for m in bus.messages()))
        assert rec == {
            "kind": "AlphaReport",
            "sender": 2,
            "receiver": 0,
            "payload": 1.25,
            "round": 0,
        }

    def test_message_is_immutable(self):
        msg = Message(MessageKind.BID, 1, PB_ID, 0.5, 0)
        for name in ("kind", "sender", "receiver", "payload", "round"):
            with pytest.raises(AttributeError):
                setattr(msg, name, None)
        assert msg == Message(MessageKind.BID, 1, PB_ID, 0.5, 0)

    def test_golden_lines(self):
        golden = [
            (Message(MessageKind.PRICE_ANNOUNCE, PB_ID, 1, 0.125, 3),
             '{"kind": "PriceAnnounce", "sender": 0, "receiver": 1, '
             '"payload": 0.125, "round": 3}'),
            (Message(MessageKind.ALPHA_REPORT, 2, PB_ID, 1.25, 0),
             '{"kind": "AlphaReport", "sender": 2, "receiver": 0, '
             '"payload": 1.25, "round": 0}'),
            (Message(MessageKind.ELIM_REPORT, 3, PB_ID, 0.1, 0),
             '{"kind": "ElimReport", "sender": 3, "receiver": 0, '
             '"payload": 0.1, "round": 0}'),
            (Message(MessageKind.BID, 1, PB_ID, 0.0, 7),
             '{"kind": "Bid", "sender": 1, "receiver": 0, '
             '"payload": 0.0, "round": 7}'),
            (Message(MessageKind.FINAL_ALLOCATION, PB_ID, 2, 1e-05, 8),
             '{"kind": "FinalAllocation", "sender": 0, "receiver": 2, '
             '"payload": 1e-05, "round": 8}'),
            (Message(MessageKind.QUIT, PB_ID, 3, 0.001, 1),
             '{"kind": "Quit", "sender": 0, "receiver": 3, '
             '"payload": 0.001, "round": 1}'),
        ]
        assert [m.kind for m, _ in golden] == list(MessageKind)
        bus = Bus()
        for msg, line in golden:
            assert json.dumps(msg.to_record()) == line
            bus.send(msg)
        assert jsonl(m.to_record() for m in bus.messages()) == "\n".join(
            line for _, line in golden
        )

    def test_relayed_rounds_expand_in_log_order(self):
        # a relayed run of bid rounds keeps its place among sent messages and
        # is expanded on each read
        bus = Bus()
        bus.relay((1, 2), RoundLog(2, 1, array("d", [0.5, 0.75]),
                                   array("d", [0.25, 0.0, 0.125, 0.0])))
        bus.send(Message(MessageKind.ALPHA_REPORT, 3, PB_ID, 1.5, 0))
        bus.relay([3], RoundLog(1, 4, array("d", [1.25]), array("d", [0.1])))
        A, B = MessageKind.PRICE_ANNOUNCE, MessageKind.BID
        expected = [
            Message(A, PB_ID, 1, 0.5, 1), Message(B, 1, PB_ID, 0.25, 1),
            Message(A, PB_ID, 2, 0.5, 1), Message(B, 2, PB_ID, 0.0, 1),
            Message(A, PB_ID, 1, 0.75, 2), Message(B, 1, PB_ID, 0.125, 2),
            Message(A, PB_ID, 2, 0.75, 2), Message(B, 2, PB_ID, 0.0, 2),
            Message(MessageKind.ALPHA_REPORT, 3, PB_ID, 1.5, 0),
            Message(A, PB_ID, 3, 1.25, 4), Message(B, 3, PB_ID, 0.1, 4),
        ]
        assert bus.transcript == expected
        assert list(bus.messages()) == expected


class TestCoopProtocol:
    def test_matches_pooled_on_paper(self, paper):
        params, channels = paper
        pooled = waterfill(params, channels)
        pb, aps = make_views(params, channels)
        dist, bus = run_coop_protocol(pb, aps)
        assert dist.nu == pytest.approx(pooled.nu, abs=1e-10)
        for a, b in zip(dist.e_star, pooled.e_star):
            assert a == pytest.approx(b, abs=1e-10)
        assert dist.welfare == pytest.approx(pooled.welfare, rel=1e-12)
        assert dist.rounds == pooled.rounds
        assert ap_to_ap_count(bus) == 0

    def test_matches_pooled_random(self):
        rng = np.random.default_rng(30)
        for _ in range(20):
            params, channels, _ = random_instance(rng, int(rng.integers(1, 5)))
            pooled = waterfill(params, channels)
            pb, aps = make_views(params, channels)
            dist, bus = run_coop_protocol(pb, aps)
            assert dist.nu == pytest.approx(pooled.nu, abs=1e-10)
            for a, b in zip(dist.e_star, pooled.e_star):
                assert a == pytest.approx(b, abs=1e-10)
            assert ap_to_ap_count(bus) == 0

    def test_message_budget(self, paper):
        # setup: 2 reports per AP; each search round: one announce and one
        # bid per AP; finalization: one allocation per AP
        params, channels = paper
        pb, aps = make_views(params, channels)
        dist, bus = run_coop_protocol(pb, aps)
        n = len(aps)
        assert len(bus.transcript) == 2 * n + dist.rounds * 2 * n + n

    def test_single_pair(self, paper):
        params, channels = paper
        params = dataclasses.replace(params, weights=(10.0,), e_b_tot=0.3)
        pb, aps = make_views(params, [channels[0]])
        dist, bus = run_coop_protocol(pb, aps)
        assert dist.e_star[0] == pytest.approx(0.3, rel=1e-9)
        pooled = waterfill(params, [channels[0]])
        assert dist.nu == pytest.approx(pooled.nu, abs=1e-10)

    def test_bit_equal_to_pooled(self, paper):
        # one price search over the same demand oracle: equal, not close,
        # also for a slack and an empty budget
        rng = np.random.default_rng(33)
        params, channels = paper
        cases = [
            (dataclasses.replace(params, e_b_tot=b), channels) for b in (1.0, 3.0, 0.0)
        ]
        for _ in range(20):
            params, channels, _ = random_instance(rng, int(rng.integers(1, 6)))
            cases.append((params, channels))
        for params, channels in cases:
            pooled = waterfill(params, channels)
            dist, _ = run_coop_protocol(*make_views(params, channels))
            assert dist.nu == pooled.nu
            assert dist.e_star == pooled.e_star
            assert dist.tau_star == pooled.tau_star
            assert dist.welfare == pooled.welfare
            assert dist.rounds == pooled.rounds

    def test_bus_keeps_its_own_rounds(self, paper):
        # the bus relays the result's own log; each read of its rounds builds
        # fresh bid lists, so editing one read leaves the bus as it was
        result, bus = run_coop_protocol(*make_views(*paper))
        before = bus.transcript
        for _, _, bids in result.log.rounds():
            bids[0] = -1.0
            bids.clear()
        assert bus.transcript == before

    def test_transcript_deterministic(self, paper):
        params, channels = paper
        pb, aps = make_views(params, channels)
        _, bus1 = run_coop_protocol(pb, aps)
        pb, aps = make_views(params, channels)
        _, bus2 = run_coop_protocol(pb, aps)
        assert jsonl(m.to_record() for m in bus1.messages()) == jsonl(
            m.to_record() for m in bus2.messages()
        )


class TestAuctionProtocol:
    def test_matches_pooled_on_paper(self, paper):
        params, channels = paper
        cfg = AuctionConfig()
        pooled = run_auction(params, channels, cfg)
        pb, aps = make_views(params, channels)
        dist, bus = run_auction_protocol(pb, aps, cfg)
        for a, b in zip(dist.e_final, pooled.e_final):
            assert a == pytest.approx(b, abs=1e-10)
        for a, b in zip(dist.payment, pooled.payment):
            assert a == pytest.approx(b, abs=1e-10)
        assert dist.rounds_used == pooled.rounds_used
        assert ap_to_ap_count(bus) == 0

    def test_matches_pooled_random(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            params, channels, _ = random_instance(rng, int(rng.integers(1, 4)))
            cfg = AuctionConfig(step=0.02)
            pooled = run_auction(params, channels, cfg)
            pb, aps = make_views(params, channels)
            dist, bus = run_auction_protocol(pb, aps, cfg)
            assert dist.pb_quit == pooled.pb_quit
            for a, b in zip(dist.e_final, pooled.e_final):
                assert a == pytest.approx(b, abs=1e-10)
            assert ap_to_ap_count(bus) == 0

    def test_bit_equal_to_pooled(self, paper):
        # one clinching engine over the same bid oracle: equal, not close
        rng = np.random.default_rng(32)
        params, channels = paper
        cases = [(params, channels, AuctionConfig())]
        # a slack budget takes the quit path
        slack = dataclasses.replace(params, e_b_tot=3.0)
        cases.append((slack, channels, AuctionConfig()))
        for _ in range(20):
            params, channels, _ = random_instance(rng, int(rng.integers(1, 6)))
            cfg = AuctionConfig(step=float(rng.uniform(0.005, 0.05)))
            cases.append((params, channels, cfg))
        for params, channels, cfg in cases:
            pooled = run_auction(params, channels, cfg)
            dist, _ = run_auction_protocol(*make_views(params, channels), cfg)
            assert dist.transcript == pooled.transcript
            assert dist.e_final == pooled.e_final
            assert dist.tau_final == pooled.tau_final
            assert dist.payment == pooled.payment
            assert dist.ap_utility == pooled.ap_utility
            assert dist.rounds_used == pooled.rounds_used
            assert dist.pb_quit == pooled.pb_quit

    def test_quit_broadcast(self, paper):
        params, channels = paper
        params = dataclasses.replace(params, e_b_tot=3.0)
        pb, aps = make_views(params, channels)
        dist, bus = run_auction_protocol(pb, aps, AuctionConfig())
        assert dist.pb_quit
        quits = [m for m in bus.transcript if m.kind is MessageKind.QUIT]
        assert len(quits) == len(aps)
        assert {m.receiver for m in quits} == {a.agent_id for a in aps}
        # exactly one bid round before quitting
        bids = [m for m in bus.transcript if m.kind is MessageKind.BID]
        assert len(bids) == len(aps)

    def test_message_budget(self, paper):
        params, channels = paper
        cfg = AuctionConfig()
        pb, aps = make_views(params, channels)
        dist, bus = run_auction_protocol(pb, aps, cfg)
        n = len(aps)
        # each round: one announce + one bid per AP; finalization: one
        # allocation per AP
        assert len(bus.transcript) == dist.rounds_used * 2 * n + n

    def test_views_carry_private_data_only(self, paper):
        params, channels = paper
        pb, aps = make_views(params, channels)
        assert not hasattr(pb, "channels")
        assert pb.e_b_tot == params.e_b_tot
        for v, ch in zip(aps, channels):
            assert v.channel is ch
            assert v.agent_id != PB_ID


@pytest.mark.parametrize("n_channels", [2, 4])
@pytest.mark.parametrize(
    "solve",
    [
        waterfill,
        lambda p, c: run_auction(p, c, AuctionConfig()),
        lambda p, c: auction_allocation(p, c, AuctionConfig()),
        lambda p, c: run_coop_protocol(*make_views(p, c)),
        lambda p, c: run_auction_protocol(*make_views(p, c), AuctionConfig()),
    ],
    ids=["waterfill", "run_auction", "auction_allocation", "coop_protocol",
         "auction_protocol"],
)
def test_channels_and_weights_sizes_must_match(paper, n_channels, solve):
    params, channels = paper
    channels = (channels * 2)[:n_channels]
    with pytest.raises(DomainError, match="sizes differ"):
        solve(params, channels)


PROTOCOLS = [
    pytest.param(run_coop_protocol, id="coop_protocol"),
    pytest.param(lambda pb, aps: run_auction_protocol(pb, aps, AuctionConfig()),
                 id="auction_protocol"),
]


@pytest.mark.parametrize("run", PROTOCOLS)
class TestProtocolInputs:
    def test_no_views(self, run):
        with pytest.raises(DomainError, match="at least one AP view"):
            run(PBView(1.0), [])

    def test_duplicate_agent_ids(self, paper, run):
        pb, aps = make_views(*paper)
        aps[2] = dataclasses.replace(aps[2], agent_id=aps[0].agent_id)
        with pytest.raises(DomainError, match="agent ids must be distinct"):
            run(pb, aps)

    def test_differing_params(self, paper, run):
        params, channels = paper
        pb, aps = make_views(params, channels)
        other = dataclasses.replace(params, p_ap=2.0 * params.p_ap)
        aps[1] = dataclasses.replace(aps[1], params=other)
        with pytest.raises(DomainError, match="same system params"):
            run(pb, aps)

    def test_too_few_views(self, paper, run):
        pb, aps = make_views(*paper)
        with pytest.raises(DomainError, match="sizes differ"):
            run(pb, aps[:2])

    def test_ap_with_the_beacon_id(self, paper, run):
        pb, aps = make_views(*paper)
        aps[1] = dataclasses.replace(aps[1], agent_id=PB_ID)
        with pytest.raises(DomainError, match="beacon's id"):
            run(pb, aps)

    def test_weight_differs_from_params(self, paper, run):
        # the AP would bid for one weight and be valued at another
        pb, aps = make_views(*paper)
        aps[0] = dataclasses.replace(aps[0], weight=10 * aps[0].weight)
        with pytest.raises(DomainError, match=r"params.weights\[0\]"):
            run(pb, aps)

    @pytest.mark.parametrize("budget", [0.5, 2.0])
    def test_beacon_budget_differs_from_params(self, paper, run, budget):
        # the solve would otherwise run at one of the two budgets silently
        params, channels = paper
        _, aps = make_views(params, channels)
        with pytest.raises(DomainError, match=rf"budget {budget} differs .* 1\.0"):
            run(PBView(budget), aps)

    def test_equal_params_need_not_be_one_object(self, paper, run):
        params, channels = paper
        pb, aps = make_views(params, channels)
        expected, _ = run(pb, aps)
        aps[1] = dataclasses.replace(aps[1], params=dataclasses.replace(params))
        got, _ = run(pb, aps)
        assert got == expected


def _bid_rounds(aps, rounds):
    """One announce/bid pair per AP for each (round, price, bids), in AP order."""
    out = []
    for r, price, bids in rounds:
        for ap, bid in zip(aps, bids):
            out.append(Message(MessageKind.PRICE_ANNOUNCE, PB_ID, ap.agent_id, price, r))
            out.append(Message(MessageKind.BID, ap.agent_id, PB_ID, bid, r))
    return out


def expected_coop_transcript(aps, result):
    """2N reports, the search's bid rounds, then N final allocations."""
    out = []
    for ap in aps:
        d = derive_pair(ap.params, ap.channel, ap.weight)
        out.append(Message(MessageKind.ALPHA_REPORT, ap.agent_id, PB_ID, d.alpha, 0))
        out.append(Message(MessageKind.ELIM_REPORT, ap.agent_id, PB_ID, d.e_lim, 0))
    out += _bid_rounds(aps, result.log.rounds())
    out += [
        Message(MessageKind.FINAL_ALLOCATION, PB_ID, ap.agent_id, e, result.rounds + 1)
        for ap, e in zip(aps, result.e_star)
    ]
    return out


def expected_auction_transcript(aps, outcome, cfg):
    """The ladder's bid rounds, then N closing messages."""
    out = _bid_rounds(aps, outcome.log.rounds())
    kind = MessageKind.QUIT if outcome.pb_quit else MessageKind.FINAL_ALLOCATION
    for ap, e in zip(aps, outcome.e_final):
        payload = cfg.reserve_price if outcome.pb_quit else e
        out.append(Message(kind, PB_ID, ap.agent_id, payload, outcome.rounds_used))
    return out


def test_transcript_rebuilt_from_outcome_rows(paper):
    # the bus transcript, expanded on read, is exactly the message sequence
    # that the outcome's own rows imply
    rng = np.random.default_rng(34)
    params, channels = paper
    slack = dataclasses.replace(params, e_b_tot=3.0)
    cases = [(params, channels, AuctionConfig()), (slack, channels, AuctionConfig())]
    for _ in range(10):
        params, channels, _ = random_instance(rng, int(rng.integers(1, 6)))
        cases.append((params, channels, AuctionConfig(step=0.02)))
    # two clones whose shared cap is the water-filling price: a tie
    ch = paper[1][2]
    budget = 2.0 * derive_pair(paper[0], ch, 10.0).e_lim * 0.7
    clones = SystemParams(0.1, 1e-11, 0.5, 1.0, 2.0, (10.0, 10.0), budget)
    cases.append((clones, [ch, ch], AuctionConfig()))
    for params, channels, cfg in cases:
        pb, aps = make_views(params, channels)
        result, bus = run_coop_protocol(pb, aps)
        assert bus.transcript == expected_coop_transcript(aps, result)
        outcome, bus = run_auction_protocol(pb, aps, cfg)
        expected = expected_auction_transcript(aps, outcome, cfg)
        read = bus.transcript
        assert read == expected
        read.append(read[0])
        assert bus.transcript == expected


def _held_per_round(run):
    return bytes_per_round(run).held


def test_protocol_memory_per_round_near_pooled(paper):
    # the bus keeps no copy of the bid rounds, only the walk's own log
    params, channels = paper
    cfg = AuctionConfig(step=1e-3)
    pooled = _held_per_round(lambda: run_auction(params, channels, cfg))
    proto = _held_per_round(
        lambda: run_auction_protocol(*make_views(params, channels), cfg)
    )
    assert proto <= pooled + 8.0


def test_protocol_memory_per_round(paper):
    # the bus relays the outcome's packed log: about 63 bytes held and 79 at
    # the peak per round on 3 pairs
    params, channels = paper
    cfg = AuctionConfig(step=1e-3)
    held, peak = bytes_per_round(
        lambda: run_auction_protocol(*make_views(params, channels), cfg)
    )
    assert held <= 70.0
    assert peak <= 90.0


@pytest.mark.parametrize(
    "step, digest",
    [
        (0.01, "db47f81bd198378e81a9fa67662cecdcf208496ff5ad502f0bed031dcd07ab1f"),
        (1e-3, "9c655fac8a9702d4271feded1b13be2f6859a30d5f76932c48bae3caf0960c8c"),
    ],
    ids=["0.01", "0.001"],
)
def test_auction_bus_golden_digest(paper, step, digest):
    params, channels = paper
    _, bus = run_auction_protocol(*make_views(params, channels), AuctionConfig(step=step))
    text = jsonl(m.to_record() for m in bus.messages())
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_coop_bus_golden_digest(paper):
    _, bus = run_coop_protocol(*make_views(*paper))
    text = jsonl(m.to_record() for m in bus.messages())
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "5cff621e24cee2fcfe2729200c1c06ae1e89ecd2fbfac5404c3a577946edc452"
    )
