"""Round-based message-passing harness for both allocation algorithms.

Agents exchange scalars over an in-process bus: the beacon (agent 0) only
ever sees reported caps, knees and bids, and the APs (agents 1..N) never see
each other's channels or bids.  The bus rejects AP-to-AP delivery outright,
so a transcript doubles as an audit that the algorithms use only locally
available information.
"""

from __future__ import annotations

import json
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
    """One immutable message; a named tuple is the cheapest record to build."""

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


class Bus:
    """Synchronous-round bus: append-only transcript, no AP-to-AP delivery."""

    def __init__(self):
        self.transcript: list[Message] = []

    def send(self, msg: Message) -> None:
        if msg.sender != PB_ID and msg.receiver != PB_ID:
            raise ProtocolError(
                f"AP {msg.sender} may not message AP {msg.receiver} directly"
            )
        self.transcript.append(msg)

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

    Rejects an empty view list, repeated agent ids and views whose params
    differ, any of which would otherwise skew the outcome silently.
    """
    if not ap_views:
        raise DomainError("the protocol needs at least one AP view")
    params = ap_views[0].params
    if any(v.params is not params and v.params != params for v in ap_views):
        raise DomainError("every AP view must hold the same system params")
    if len({v.agent_id for v in ap_views}) != len(ap_views):
        raise DomainError("AP agent ids must be distinct")
    return params


def _bid_round(bus: Bus, agents, price: float, r: int) -> list[float]:
    """One round: announce the bare price to every AP and collect its bid."""
    send, announce, bid_kind = bus.send, MessageKind.PRICE_ANNOUNCE, MessageKind.BID
    bids = []
    for agent in agents:
        aid = agent.view.agent_id
        send(Message(announce, PB_ID, aid, price, r))
        bid = agent.bid(price)
        send(Message(bid_kind, aid, PB_ID, bid, r))
        bids.append(bid)
    return bids


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
    bids_at = partial(_bid_round, bus, agents)
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
    bids_at = partial(_bid_round, bus, agents)
    outcome = clinch(params, channels, deriveds, pb_view.e_b_tot, bids_at, cfg)

    # one closing message per AP: a quit carries the reserve price, a trade
    # the AP's final allocation
    kind = MessageKind.QUIT if outcome.pb_quit else MessageKind.FINAL_ALLOCATION
    r = outcome.rounds_used
    for agent, e in zip(agents, outcome.e_final):
        payload = cfg.reserve_price if outcome.pb_quit else e
        bus.send(Message(kind, PB_ID, agent.view.agent_id, payload, r))
    return outcome, bus
