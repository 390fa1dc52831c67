"""Ascending clinching auction for the beacon's energy.

The beacon is the auctioneer: it raises a unit price by a fixed step until
aggregate demand no longer exceeds its energy budget.  Along the way each
bidder irrevocably clinches whatever the others' demand cannot absorb, and
at the closing round the leftover supply is split by proportional rationing
so the budget clears exactly.
"""

from __future__ import annotations

import math
import sys
from array import array
from dataclasses import dataclass, field
from itertools import chain, pairwise

import numpy as np

from .batch import ladder_rows, ladder_top
from .errors import DomainError
from .model import PairChannel, SystemParams, throughput
from .coop import (
    PairDerived,
    RoundLog,
    derive_pairs,
    final_clinch_prr,
    gamma,
    tau_of_e,
)


# longest price ladder the walk climbs; a longer one is a configuration error,
# since the walk keeps every round in its log
MAX_LADDER_ROUNDS = 10_000_000
# ladder rounds the walk prices per ``ladder_rows`` call: each call has a
# fixed cost, and beyond about 64 rounds a block's temporaries outweigh the
# packed log in the walk's peak memory per round
LADDER_BLOCK = 64
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


@dataclass(frozen=True)
class LadderLog(RoundLog):
    """Every walked round, from round 0, with its cumulative clinches.

    ``clinched`` holds ``n`` entries per round.  The last round is the
    close.  A quit walks round 0 only and clinches nothing.
    """

    clinched: array = field(default_factory=lambda: array("d"))
    quit: bool = False

    def rows(self):
        """The transcript rows, one dict per round, built as they are iterated."""
        n, last = self.n, len(self.prices) - 1
        for t, mu, bids in self.rounds():
            row = {"round": t, "price": mu, "bids": bids}
            if self.quit:
                row["quit"] = True
            else:
                row["clinch_cum"] = self.clinched[t * n:(t + 1) * n].tolist()
                if t == last:
                    row["concluded"] = True
            yield row


@dataclass
class AuctionOutcome:
    e_final: tuple[float, ...]
    tau_final: tuple[float, ...]
    payment: tuple[float, ...]
    ap_utility: tuple[float, ...]
    pb_utility: float
    rounds_used: int
    pb_quit: bool
    log: LadderLog = field(default_factory=LadderLog)

    @property
    def transcript(self) -> list[dict]:
        """Rows rebuilt from ``log``, a fresh list on each read; perfbench counts them."""
        return list(self.log.rows())


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
    return _clinch_vector(e_b_tot, bids, math.fsum(bids))


def _clinch_vector(e_b_tot: float, bids, total: float) -> list[float]:
    """``cumulative_clinch`` of nonnegative ``bids`` whose ``math.fsum`` is ``total``."""
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


def _row_sums(rows) -> list[float]:
    """``math.fsum`` of each row of a 2-D array, read as one flat list: a
    list per row would leave a block's worth of them in the free lists."""
    flat, n = rows.ravel().tolist(), rows.shape[1]
    return [math.fsum(flat[i:i + n]) for i in range(0, len(flat), n)]


def _screened_rows(e_b_tot: float, rows, totals):
    """Which rows of the array ``rows``, whose ``math.fsum`` are ``totals``,
    clear ``_clinch_vector``'s screen on every entry and so clinch nothing."""
    total = np.array(totals)[:, None]
    return (total - rows > e_b_tot + _SCREEN_EPS * total).all(axis=1).tolist()


def payment(mu_sequence, clinch_sequence) -> list[float]:
    """Per-bidder payment: each clinch increment priced at its round's price.

    ``clinch_sequence`` holds one cumulative-clinch vector per round, aligned
    with ``mu_sequence``; every vector has one entry per bidder.
    """
    if len(mu_sequence) != len(clinch_sequence) or not mu_sequence:
        raise DomainError("price and clinch sequences must align and be non-empty")
    n = len(clinch_sequence[0])
    if any(len(row) != n for row in clinch_sequence):
        raise DomainError("every clinch vector must have one entry per bidder")
    return _payments(mu_sequence, [c for row in clinch_sequence for c in row], n)


def _payments(prices, clinched, n: int, start: int = 0) -> list[float]:
    """``payment`` over ``clinched``, the clinch vectors laid end to end.

    Rounds before ``start`` must clinch nothing: they add +0.0 to every payment.
    """
    prices = prices[start:]
    pay = []
    for i in range(n):
        track = clinched[start * n + i::n]
        if any(b > a * (1.0 + 1e-12) + 1e-300 for b, a in pairwise(track)):
            raise DomainError(f"clinch sequence for bidder {i} is not nondecreasing")
        # the first increment is the first clinch itself; subtracting the
        # integer 0 leaves every number as it is
        pay.append(math.fsum(
            mu * (c - c_prev) for mu, c, c_prev in zip(prices, track, chain((0,), track))
        ))
    return pay


def walk_top(deriveds, cfg: AuctionConfig) -> int:
    """``ladder_top`` of a ladder short enough for ``run_auction`` to walk."""
    t_top = ladder_top(deriveds, cfg)
    if t_top + 1 > MAX_LADDER_ROUNDS:
        raise DomainError(
            f"a price ladder of {t_top + 1} rounds exceeds {MAX_LADDER_ROUNDS}"
        )
    return t_top


def run_auction(params: SystemParams, channels, cfg: AuctionConfig) -> AuctionOutcome:
    """The ascending clinching auction: the ladder walk, its close and payments.

    The walk prices ``LADDER_BLOCK`` rounds at a time through ``ladder_rows``
    and stops at the first round whose bids fit the budget; only the budget
    and those (nonnegative) bids drive it.  Each round goes to a packed
    ``LadderLog``, which the message-passing protocol relays.
    """
    deriveds = derive_pairs(params, channels)
    t_top = walk_top(deriveds, cfg)
    budget = params.e_b_tot
    n = len(deriveds)
    prices, bid_log, clinched = array("d"), array("d"), array("d")
    start = None  # the first round that clinches anything
    prev_bids = None
    no_clinch = array("d", bytes(8 * n))
    for t0 in range(0, t_top + 1, LADDER_BLOCK):
        rounds = np.arange(t0, min(t0 + LADDER_BLOCK, t_top + 1))
        block = ladder_rows(params, deriveds, cfg, rounds)
        totals = _row_sums(block)
        # the walk closes at the first round whose bids fit the budget; every
        # bid is zero at the ladder top, so it closes there at the latest
        k = next((k for k, total in enumerate(totals) if total <= budget), len(totals))
        for i, cleared in enumerate(_screened_rows(budget, block[:k], totals[:k])):
            if cleared:
                clinched.extend(no_clinch)
                continue
            row = _clinch_vector(budget, block[i].tolist(), totals[i])
            if start is None and any(row):
                start = t0 + i
            clinched.extend(row)
        walked = min(k + 1, len(totals))  # the walked rounds and the close
        prices.extend(cfg.reserve_price + t * cfg.step for t in range(t0, t0 + walked))
        bid_log.frombytes(block[:walked].tobytes())
        if k:
            prev_bids = block[k - 1].tolist()
        if k < len(totals):
            bids, t = block[k].tolist(), t0 + k
            break
    if t == 0:
        # demand never exceeds supply at the reserve price: no trade
        e_final = pay = (0.0,) * n
    else:
        e_final = final_clinch_prr(budget, bids, prev_bids)
        clinched.extend(e_final)
        pay = _payments(prices, clinched, n, t if start is None else start)
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
        rounds_used=len(prices),
        pb_quit=t == 0,
        log=LadderLog(n, 0, prices, bid_log, clinched, t == 0),
    )


def auction_allocation(params: SystemParams, channels, cfg: AuctionConfig):
    """Fast path to the final allocation only (no transcript, no payments).

    The walk's close, found by search rather than by scan: each step prices
    ``LADDER_BLOCK`` evenly spaced rounds inside the bracket (``lo``, ``hi``)
    through ``ladder_rows`` and narrows it to the first that fits the budget
    by the walk's rule.  Totals never rise along the ladder, so that round is
    the walk's close, and its rows have the walk's bits.
    Returns (e_final, tau_final, pb_quit, rounds_used).
    """
    deriveds = derive_pairs(params, channels)
    budget, n = params.e_b_tot, len(deriveds)
    # round lo overflows the budget (or is -1) and round hi fits it; every
    # bid is zero at the ladder top, so its row needs no pricing
    lo, hi = -1, ladder_top(deriveds, cfg)
    row_lo, row_hi = None, [0.0] * n
    while hi - lo > 1:
        m = min(LADDER_BLOCK, hi - lo - 1)
        rounds = [lo + (hi - lo) * i // (m + 1) for i in range(1, m + 1)]
        block = ladder_rows(params, deriveds, cfg, rounds)
        k = next((k for k, total in enumerate(_row_sums(block)) if total <= budget), m)
        if k < m:
            hi, row_hi = rounds[k], block[k].tolist()
        if k:
            lo, row_lo = rounds[k - 1], block[k - 1].tolist()
    # hi == 0: demand never exceeds supply at the reserve price, no trade
    e_final = (0.0,) * n if hi == 0 else tuple(final_clinch_prr(budget, row_hi, row_lo))
    tau_final = tuple(
        tau_of_e(params, ch, d, e) for ch, d, e in zip(channels, deriveds, e_final)
    )
    return e_final, tau_final, hi == 0, hi + 1
