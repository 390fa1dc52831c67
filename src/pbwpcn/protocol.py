"""Round-based message-passing harness for both allocation algorithms.

Agents exchange scalars over an in-process bus: the beacon (agent 0) only
ever sees reported caps, knees and bids, and the APs (agents 1..N) never see
each other's channels or bids.  The bus rejects AP-to-AP delivery outright,
so a transcript doubles as an audit that the algorithms use only locally
available information.
"""

from __future__ import annotations

import json
from array import array
from dataclasses import dataclass
from enum import Enum
from functools import partial
from typing import NamedTuple

from .auction import AuctionConfig, AuctionOutcome, clinch
from .coop import (
    WaterfillResult,
    demand_oracle,
    derive_pair,
    price_search,
    waterfill_result,
)
from .errors import DomainError, ProtocolError
from .model import PairChannel, SystemParams

PB_ID = 0


class MessageKind(Enum):
    PRICE_ANNOUNCE = "PriceAnnounce"
    ALPHA_REPORT = "AlphaReport"
    ELIM_REPORT = "ElimReport"
    BID = "Bid"
    FINAL_ALLOCATION = "FinalAllocation"
    QUIT = "Quit"


class Message(NamedTuple):
    """One immutable message, as ``Bus.transcript`` lists it."""

    kind: MessageKind
    sender: int
    receiver: int
    payload: float | tuple
    round: int

    def to_record(self) -> dict:
        return {
            "kind": self.kind.value,
            "sender": self.sender,
            "receiver": self.receiver,
            "payload": self.payload,
            "round": self.round,
        }


class _BidRounds(NamedTuple):
    """Consecutive bid rounds to one set of APs, packed: per round a price, a
    round number and one bid per AP."""

    agent_ids: tuple[int, ...]
    prices: array
    rounds: array
    bids: array


class Bus:
    """Synchronous-round bus: one append-only log, no AP-to-AP delivery.

    The log holds single messages and packed runs of bid rounds;
    ``transcript`` expands it into messages only when it is read.
    """

    def __init__(self):
        self._log: list[Message | _BidRounds] = []

    def send(self, msg: Message) -> None:
        if msg.sender != PB_ID and msg.receiver != PB_ID:
            raise ProtocolError(
                f"AP {msg.sender} may not message AP {msg.receiver} directly"
            )
        self._log.append(msg)

    def log_round(self, price: float, r: int, agent_ids, bids) -> None:
        """Log round ``r``: ``price`` went to each of ``agent_ids``, which answered ``bids``."""
        agent_ids = tuple(agent_ids)
        if len(bids) != len(agent_ids):
            raise ProtocolError(f"round {r}: {len(bids)} bids from {len(agent_ids)} APs")
        block = self._log[-1] if self._log else None
        if type(block) is not _BidRounds or block.agent_ids != agent_ids:
            block = _BidRounds(agent_ids, array("d"), array("q"), array("d"))
            self._log.append(block)
        block.prices.append(price)
        block.rounds.append(r)
        block.bids.extend(bids)

    @property
    def transcript(self) -> list[Message]:
        """Every message in send order: a bid round is a price announcement
        then a bid, AP by AP.  A fresh list on each read."""
        announce, bid_kind = MessageKind.PRICE_ANNOUNCE, MessageKind.BID
        out = []
        for entry in self._log:
            if type(entry) is not _BidRounds:
                out.append(entry)
                continue
            agent_ids, prices, rounds, bids = entry
            n = len(agent_ids)
            for k, (price, r) in enumerate(zip(prices, rounds)):
                for aid, bid in zip(agent_ids, bids[k * n:(k + 1) * n]):
                    out.append(Message(announce, PB_ID, aid, price, r))
                    out.append(Message(bid_kind, aid, PB_ID, bid, r))
        return out

    def transcript_jsonl(self) -> str:
        return "\n".join(json.dumps(m.to_record()) for m in self.transcript)


@dataclass
class APView:
    """What one AP knows: its own channel, weight and the shared constants."""

    agent_id: int
    params: SystemParams
    channel: PairChannel
    weight: float


@dataclass
class PBView:
    """What the beacon knows before any messages arrive."""

    e_b_tot: float


def make_views(params: SystemParams, channels) -> tuple[PBView, list[APView]]:
    if len(channels) != params.n_pairs:
        raise DomainError("channels and weights sizes differ")
    pb = PBView(e_b_tot=params.e_b_tot)
    aps = [
        APView(agent_id=i + 1, params=params, channel=ch, weight=w)
        for i, (ch, w) in enumerate(zip(channels, params.weights))
    ]
    return pb, aps


class APAgent:
    """Bidder logic: derives its own constants, answers price announcements."""

    def __init__(self, view: APView):
        self.view = view
        self.derived = derive_pair(view.params, view.channel, view.weight)
        # the warm-start hint of the demand oracle is this AP's own state
        self.bid = demand_oracle(view.params, view.channel, self.derived)


def _shared_params(ap_views) -> SystemParams:
    """The one ``SystemParams`` that every AP view holds.

    Rejects an empty view list, views whose params differ, a view count
    other than the params' pair count, an AP holding the beacon's id,
    repeated agent ids and a view whose weight is not the params' weight at
    its position; any of these would otherwise skew the outcome silently.
    """
    if not ap_views:
        raise DomainError("the protocol needs at least one AP view")
    params = ap_views[0].params
    if any(v.params is not params and v.params != params for v in ap_views):
        raise DomainError("every AP view must hold the same system params")
    if len(ap_views) != params.n_pairs:
        raise DomainError(
            f"AP views ({len(ap_views)}) and weights ({params.n_pairs}) sizes differ"
        )
    ids = [v.agent_id for v in ap_views]
    if PB_ID in ids:
        raise DomainError(f"AP agent ids must differ from the beacon's id {PB_ID}")
    if len(set(ids)) != len(ids):
        raise DomainError("AP agent ids must be distinct")
    for i, (v, w) in enumerate(zip(ap_views, params.weights)):
        if v.weight != w:
            raise DomainError(
                f"AP view {i} has weight {v.weight}, params.weights[{i}] is {w}"
            )
    return params


def _bid_round(bus: Bus, oracles, agent_ids, price: float, r: int) -> list[float]:
    """One round: announce the bare price to every AP and collect its bid."""
    bids = [bid(price) for bid in oracles]
    bus.log_round(price, r, agent_ids, bids)
    return bids


def _round_runner(bus: Bus, agents):
    """``bids_at(price, r)`` over the bus, with the oracles and ids bound once."""
    agent_ids = tuple(a.view.agent_id for a in agents)
    return partial(_bid_round, bus, [a.bid for a in agents], agent_ids)


def run_coop_protocol(
    pb_view: PBView, ap_views: list[APView]
) -> tuple[WaterfillResult, Bus]:
    """Water-filling price search executed as explicit message rounds."""
    params = _shared_params(ap_views)
    bus = Bus()
    agents = [APAgent(v) for v in ap_views]
    channels = [v.channel for v in ap_views]

    # setup round: every AP reports its cap and knee to the beacon
    for agent in agents:
        aid = agent.view.agent_id
        bus.send(Message(MessageKind.ALPHA_REPORT, aid, PB_ID, agent.derived.alpha, 0))
        bus.send(Message(MessageKind.ELIM_REPORT, aid, PB_ID, agent.derived.e_lim, 0))

    deriveds = [a.derived for a in agents]
    events: list = []
    bids_at = _round_runner(bus, agents)
    nu, e_star, rounds = price_search(deriveds, pb_view.e_b_tot, bids_at, events)

    for agent, e in zip(agents, e_star):
        aid = agent.view.agent_id
        bus.send(Message(MessageKind.FINAL_ALLOCATION, PB_ID, aid, e, rounds + 1))

    result = waterfill_result(params, channels, deriveds, nu, e_star, rounds, events)
    return result, bus


def run_auction_protocol(
    pb_view: PBView, ap_views: list[APView], cfg: AuctionConfig
) -> tuple[AuctionOutcome, Bus]:
    """Ascending clinching auction executed as explicit message rounds."""
    params = _shared_params(ap_views)
    bus = Bus()
    agents = [APAgent(v) for v in ap_views]
    channels = [v.channel for v in ap_views]
    deriveds = [a.derived for a in agents]
    bids_at = _round_runner(bus, agents)
    outcome = clinch(params, channels, deriveds, pb_view.e_b_tot, bids_at, cfg)

    # one closing message per AP: a quit carries the reserve price, a trade
    # the AP's final allocation
    kind = MessageKind.QUIT if outcome.pb_quit else MessageKind.FINAL_ALLOCATION
    r = outcome.rounds_used
    for agent, e in zip(agents, outcome.e_final):
        payload = cfg.reserve_price if outcome.pb_quit else e
        bus.send(Message(kind, PB_ID, agent.view.agent_id, payload, r))
    return outcome, bus
