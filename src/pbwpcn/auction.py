"""Ascending clinching auction for the beacon's energy.

The beacon is the auctioneer: it raises a unit price by a fixed step until
aggregate demand no longer exceeds its energy budget.  Along the way each
bidder irrevocably clinches whatever the others' demand cannot absorb, and
at the closing round the leftover supply is split by proportional rationing
so the budget clears exactly.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field

from .errors import DomainError
from .model import PairChannel, SystemParams, throughput
from .coop import (
    PairDerived,
    derive_pairs,
    final_clinch_prr,
    gamma,
    pooled_bids,
    price_search,
    tau_of_e,
)


# longest price ladder the walk climbs; a longer one is a configuration error,
# since the walk keeps a transcript row per round
MAX_LADDER_ROUNDS = 10_000_000
# margin of cumulative_clinch's screen, relative to the bids' total
_SCREEN_EPS = 4.0 * sys.float_info.epsilon


@dataclass(frozen=True)
class AuctionConfig:
    reserve_price: float = 0.001
    step: float = 0.01

    def __post_init__(self):
        if not 0.0 <= self.reserve_price < math.inf:
            raise DomainError("reserve_price must be nonnegative and finite")
        if not 0.0 < self.step < math.inf:
            raise DomainError("step must be positive and finite")


@dataclass
class AuctionOutcome:
    e_final: tuple[float, ...]
    tau_final: tuple[float, ...]
    payment: tuple[float, ...]
    ap_utility: tuple[float, ...]
    pb_utility: float
    rounds_used: int
    pb_quit: bool
    transcript: list = field(default_factory=list)

    def transcript_jsonl(self) -> str:
        return "\n".join(json.dumps(row) for row in self.transcript)


def best_response(
    params: SystemParams, ch: PairChannel, d: PairDerived, mu: float
) -> tuple[float, float]:
    """A bidder's utility-maximizing (charging time, energy demand) at price mu.

    Above the bidder's cap it drops out and keeps only its own AP's charging;
    below the cap it demands the point where marginal throughput value equals
    the price.
    """
    e = 0.0 if mu >= d.alpha else gamma(params, ch, d, mu)
    return tau_of_e(params, ch, d, e), e


def cumulative_clinch(e_b_tot: float, bids) -> list[float]:
    """Energy each bidder is guaranteed: supply the others cannot absorb.

    The rivals are summed exactly only where they might not absorb the budget.
    """
    if any(b < 0.0 for b in bids):
        raise DomainError("bids must be nonnegative")
    total = math.fsum(bids)
    # Screen.  With T the exact sum, R_i = T - b_i the rivals' exact sum and
    # u = eps/2: fsum rounds correctly, so |total - T| <= u*T <= eps*total, and
    # the rounded total - b_i is within u*total of its exact value.  Hence
    # R_i >= (total - b_i) - 1.5*eps*total.  A float above the rounded cut lies
    # above its exact value, so if total - b_i > cut then R_i > e_b_tot +
    # 2.5*eps*total >= e_b_tot, and fsum(rivals), correctly rounded, is >=
    # e_b_tot: max(0.0, e_b_tot - fsum(rivals)) is +0.0, as returned here.
    # Subnormal sums and differences are exact, and the 2.5*eps*total slack
    # covers the product's rounding there.  NaN and inf take the exact path.
    cut = e_b_tot + _SCREEN_EPS * total
    return [
        0.0 if total - b > cut else max(0.0, e_b_tot - math.fsum(bids[:i] + bids[i + 1:]))
        for i, b in enumerate(bids)
    ]


def payment(mu_sequence, clinch_sequence) -> list[float]:
    """Per-bidder payment: each clinch increment priced at its round's price.

    ``clinch_sequence`` holds one cumulative-clinch vector per round, aligned
    with ``mu_sequence``.
    """
    if len(mu_sequence) != len(clinch_sequence) or not mu_sequence:
        raise DomainError("price and clinch sequences must align and be non-empty")
    n = len(clinch_sequence[0])
    pay = []
    for i in range(n):
        track = [row[i] for row in clinch_sequence]
        if any(b > a * (1.0 + 1e-12) + 1e-300 for b, a in zip(track, track[1:])):
            raise DomainError(f"clinch sequence for bidder {i} is not nondecreasing")
        terms = [mu_sequence[0] * track[0]]
        terms += [
            mu_sequence[t] * (track[t] - track[t - 1])
            for t in range(1, len(track))
        ]
        pay.append(math.fsum(terms))
    return pay


def ladder_top(deriveds, cfg: AuctionConfig) -> int:
    """First ladder index whose price reaches every bidder's cap.

    Every bid there is zero, so aggregate demand has fallen to the budget.
    """
    alpha_max = max((d.alpha for d in deriveds), default=0.0)
    span = (alpha_max - cfg.reserve_price) / cfg.step
    if not span < math.inf:
        raise DomainError(f"price step {cfg.step} gives no finite ladder")
    t_top = math.ceil(max(span, 1.0))
    if cfg.reserve_price + t_top * cfg.step < alpha_max:
        t_top += 1  # the rounded quotient can leave the price one ulp short
    return t_top


def _outcome(
    params, channels, deriveds, e_final, pay, rounds_used, pb_quit, transcript
) -> AuctionOutcome:
    """Charging times and utilities of a final allocation and its payments."""
    tau_final = tuple(
        tau_of_e(params, ch, d, e) for ch, d, e in zip(channels, deriveds, e_final)
    )
    ap_util = tuple(
        w * throughput(params, ch, tf, e) - p
        for w, ch, tf, e, p in zip(params.weights, channels, tau_final, e_final, pay)
    )
    return AuctionOutcome(
        e_final=tuple(e_final),
        tau_final=tau_final,
        payment=tuple(pay),
        ap_utility=ap_util,
        pb_utility=math.fsum(pay),
        rounds_used=rounds_used,
        pb_quit=pb_quit,
        transcript=transcript,
    )


def clinch(
    params: SystemParams, channels, deriveds, budget: float, bids_at, cfg: AuctionConfig
) -> AuctionOutcome:
    """The ascending clinching auction: the ladder walk, its close and payments.

    ``bids_at(mu, t)`` gathers every bid at ladder round ``t``, priced ``mu``.
    Only the budget and the gathered bids drive the walk, so the pooled
    auction and its message-passing protocol differ only in ``bids_at``.
    """
    t_top = ladder_top(deriveds, cfg)
    if t_top + 1 > MAX_LADDER_ROUNDS:
        raise DomainError(
            f"a price ladder of {t_top + 1} rounds exceeds {MAX_LADDER_ROUNDS}"
        )
    transcript = []

    def record(t, mu, bids, clinched, **close):
        transcript.append(
            {"round": t, "price": mu, "bids": bids, "clinch_cum": clinched, **close}
        )

    prev_bids = None
    for t in range(t_top + 1):
        mu = cfg.reserve_price + t * cfg.step
        bids = bids_at(mu, t)
        if math.fsum(bids) <= budget:
            break
        record(t, mu, bids, cumulative_clinch(budget, bids))
        prev_bids = bids
    if prev_bids is None:
        # demand never exceeds supply at the reserve price: no trade
        transcript.append({"round": 0, "price": mu, "bids": bids, "quit": True})
        e_final = pay = (0.0,) * len(deriveds)
    else:
        record(t, mu, bids, final_clinch_prr(budget, bids, prev_bids), concluded=True)
        e_final = transcript[-1]["clinch_cum"]
        pay = payment(
            [row["price"] for row in transcript], [row["clinch_cum"] for row in transcript]
        )
    return _outcome(
        params, channels, deriveds, e_final, pay, t + 1, prev_bids is None, transcript
    )


def run_auction(params: SystemParams, channels, cfg: AuctionConfig) -> AuctionOutcome:
    """Full auction loop with per-round transcript and payments."""
    deriveds = derive_pairs(params, channels)
    bids_at = pooled_bids(params, channels, deriveds)
    return clinch(params, channels, deriveds, params.e_b_tot, bids_at, cfg)


def ladder_close(params, channels, deriveds, nu, bids_at, t_top, cfg, transcript=()):
    """Close the auction at the first ladder round priced at or above ``nu``.

    Both mechanisms share one demand, so the water-filling price locates the
    close; single steps keep it exact from any ``nu``.  ``bids_at(mu, t)``
    gathers round ``t``'s bids unless the search's ``transcript`` holds them.
    """
    gathered = {row["nu"]: row["bids"] for row in transcript if "bids" in row}

    def bids(t):
        mu = cfg.reserve_price + t * cfg.step
        if mu not in gathered:
            gathered[mu] = bids_at(mu, t)
        return gathered[mu]

    # every bid is zero at the ladder top, so demand there never exceeds the budget
    t = math.ceil(min(max((nu - cfg.reserve_price) / cfg.step, 0.0), t_top))
    while t < t_top and math.fsum(bids(t)) > params.e_b_tot:
        t += 1
    while t > 0 and math.fsum(bids(t - 1)) <= params.e_b_tot:
        t -= 1
    e_final = (0.0,) * len(deriveds)  # t == 0: supply meets demand at the reserve
    if t > 0:
        e_final = tuple(final_clinch_prr(params.e_b_tot, bids(t), bids(t - 1)))
    tau_final = tuple(
        tau_of_e(params, ch, d, e) for ch, d, e in zip(channels, deriveds, e_final)
    )
    return e_final, tau_final, t == 0, t + 1


def auction_allocation(params: SystemParams, channels, cfg: AuctionConfig):
    """Fast path to the final allocation only (no transcript, no payments).

    Price search, then round up to the ladder (``ladder_close``).  Returns
    (e_final, tau_final, pb_quit, rounds_used).
    """
    deriveds = derive_pairs(params, channels)
    t_top = ladder_top(deriveds, cfg)  # a bad ladder fails before any bid
    bids_at = pooled_bids(params, channels, deriveds)
    transcript: list = []
    nu, _, _ = price_search(deriveds, params.e_b_tot, bids_at, transcript)
    return ladder_close(params, channels, deriveds, nu, bids_at, t_top, cfg, transcript)
