"""Round-based message-passing harness for both allocation algorithms.

Agents exchange scalars over an in-process bus: the beacon (agent 0) only
ever sees reported caps, knees and bids, and the APs (agents 1..N) never see
each other's channels or bids.  The beacon's solve is the pooled one, whose
decisions read only those caps, knees and bids; the bus relays the bid
rounds that solve logged.  It rejects AP-to-AP delivery outright, so a
transcript doubles as an audit that the algorithms use only locally
available information.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from .auction import AuctionConfig, AuctionOutcome, run_auction
from .coop import WaterfillResult, derive_pairs, pooled_waterfill
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


class Bus:
    """Synchronous-round bus: one append-only log, no AP-to-AP delivery.

    The log holds single messages and the bid rounds a solve relays;
    ``messages`` expands it into messages only as it is iterated.
    """

    def __init__(self):
        self._log: list = []

    def send(self, msg: Message) -> None:
        if msg.sender != PB_ID and msg.receiver != PB_ID:
            raise ProtocolError(
                f"AP {msg.sender} may not message AP {msg.receiver} directly"
            )
        self._log.append(msg)

    def relay(self, agent_ids, log) -> None:
        """Log the bid rounds a solve ran: ``log.rounds()`` yields (round,
        price, bids), the price announced to each of ``agent_ids`` and their bids."""
        self._log.append((tuple(agent_ids), log))

    def messages(self):
        """Every message in send order, built as it is iterated: a bid round
        is a price announcement then a bid, AP by AP."""
        announce, bid_kind = MessageKind.PRICE_ANNOUNCE, MessageKind.BID
        for entry in self._log:
            if type(entry) is Message:
                yield entry
                continue
            agent_ids, log = entry
            for r, price, bids in log.rounds():
                for aid, bid in zip(agent_ids, bids):
                    yield Message(announce, PB_ID, aid, price, r)
                    yield Message(bid_kind, aid, PB_ID, bid, r)

    @property
    def transcript(self) -> list[Message]:
        """``messages`` as a list, a fresh one on each read; perfbench counts it."""
        return list(self.messages())


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


def _shared_params(pb_view: PBView, ap_views) -> SystemParams:
    """The one ``SystemParams`` that every AP view holds.

    Rejects an empty view list, views whose params differ, a beacon budget
    other than the params' one, a view count other than the params' pair
    count, an AP holding the beacon's id, repeated agent ids and a view whose
    weight is not the params' weight at its position; any of these would
    otherwise skew the outcome silently.
    """
    if not ap_views:
        raise DomainError("the protocol needs at least one AP view")
    params = ap_views[0].params
    if any(v.params is not params and v.params != params for v in ap_views):
        raise DomainError("every AP view must hold the same system params")
    if pb_view.e_b_tot != params.e_b_tot:
        raise DomainError(
            f"the beacon's budget {pb_view.e_b_tot} differs from "
            f"params.e_b_tot {params.e_b_tot}"
        )
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


def run_coop_protocol(
    pb_view: PBView, ap_views: list[APView]
) -> tuple[WaterfillResult, Bus]:
    """Water-filling as message rounds: cap and knee reports, the price
    search's relayed bid rounds, then the final allocations."""
    params = _shared_params(pb_view, ap_views)
    deriveds = derive_pairs(params, [v.channel for v in ap_views])
    agent_ids = [v.agent_id for v in ap_views]
    bus = Bus()

    # setup round: every AP reports its cap and knee to the beacon
    for aid, alpha, e_lim in zip(agent_ids, deriveds.alpha.tolist(), deriveds.e_lim.tolist()):
        bus.send(Message(MessageKind.ALPHA_REPORT, aid, PB_ID, alpha, 0))
        bus.send(Message(MessageKind.ELIM_REPORT, aid, PB_ID, e_lim, 0))

    result = pooled_waterfill(params, deriveds)
    bus.relay(agent_ids, result.log)

    for aid, e in zip(agent_ids, result.e_star):
        bus.send(Message(MessageKind.FINAL_ALLOCATION, PB_ID, aid, e, result.rounds + 1))
    return result, bus


def run_auction_protocol(
    pb_view: PBView, ap_views: list[APView], cfg: AuctionConfig
) -> tuple[AuctionOutcome, Bus]:
    """The clinching auction as message rounds: the ladder walk's relayed bid
    rounds, then one closing message per AP."""
    params = _shared_params(pb_view, ap_views)
    outcome = run_auction(params, [v.channel for v in ap_views], cfg)
    agent_ids = [v.agent_id for v in ap_views]
    bus = Bus()
    bus.relay(agent_ids, outcome.log)

    # one closing message per AP: a quit carries the reserve price, a trade
    # the AP's final allocation
    kind = MessageKind.QUIT if outcome.pb_quit else MessageKind.FINAL_ALLOCATION
    r = outcome.rounds_used
    for aid, e in zip(agent_ids, outcome.e_final):
        payload = cfg.reserve_price if outcome.pb_quit else e
        bus.send(Message(kind, PB_ID, aid, payload, r))
    return outcome, bus
