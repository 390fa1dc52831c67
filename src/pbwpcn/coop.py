"""Cooperative allocator: per-pair closed forms and the water-filling search.

Each pair's welfare contribution, as a function of the beacon energy E it
receives, is piecewise: linear with constant slope ``alpha`` up to the knee
``e_lim`` (the AP-dominated regime) and strictly concave above it, peaking at
``e_opt``.  A single dual price nu equalizes marginal values across pairs
subject to the beacon's energy budget.
"""

from __future__ import annotations

import logging
import math
import operator
from array import array
from dataclasses import dataclass, field, fields

import numpy as np

from .batch import _alpha_groups, _demand, _prr
from .errors import ConvergenceError, DomainError
from .model import LN2, PairChannel, SystemParams, charging_times, welfares
from .roots import lambert_w0, solve_z

log = logging.getLogger("pbwpcn")

# relative tolerance for treating an announced price as equal to a pair's cap
PRICE_EQ_RTOL = 1e-12
# x_const (and so a_const <= x_const) must stay below this for the root solver
# to be trusted; the paper's pairs sit near 41
_X_CONST_MAX = 1e30


@dataclass(frozen=True)
class PairDerived:
    """Constants of one pair's piecewise welfare curve, floats from
    ``derive_pair``; from ``derive_pairs`` each is a float64 array over
    (..., pair)."""

    a_const: float   # G^2 * eta * p_ap / sigma^2
    x_const: float   # G * eta * (p_ap * G + p_pb * K) / sigma^2
    z_dag: float
    z_ddag: float
    alpha: float     # marginal value of beacon energy on the linear segment
    e_lim: float     # knee where beacon charging time starts to dominate
    e_opt: float     # unconstrained per-pair optimum
    lam_w: float     # weight * bandwidth, the rate-to-utility scale
    g_pow: float     # the channel's gains, as ``PairChannel`` holds them
    k_pow: float


def derive_pair(params: SystemParams, ch: PairChannel, weight: float) -> PairDerived:
    """Compute the derived constants for one pair."""
    g, k = ch.g_pow, ch.k_pow
    sig = params.noise_w
    a_const = g * g * params.eta * params.p_ap / sig
    x_const = g * params.eta * (params.p_ap * g + params.p_pb * k) / sig
    lam_w = weight * params.bandwidth_mhz
    if not x_const < _X_CONST_MAX:
        raise DomainError(
            f"x_const={x_const} is not below {_X_CONST_MAX}: channel gains "
            "beyond the root solver's range"
        )

    z_dag = math.exp(lambert_w0((a_const - 1.0) / math.e) + 1.0)
    z_ddag = math.exp(lambert_w0((x_const - 1.0) / math.e) + 1.0)

    alpha = lam_w * g * params.eta * k / (z_dag * sig * LN2)
    e_lim = params.p_pb * (z_dag - 1.0) / (z_dag - 1.0 + x_const)
    e_opt = params.p_pb * (z_ddag - 1.0) / (z_ddag - 1.0 + x_const)

    if k > 0.0 and not (z_ddag > z_dag > 1.0 and 0.0 < e_lim < e_opt < params.p_pb):
        raise ConvergenceError("derived constants violate ordering invariants")
    return PairDerived(a_const, x_const, z_dag, z_ddag, alpha, e_lim, e_opt, lam_w, g, k)


_FIELDS = operator.attrgetter(*(f.name for f in fields(PairDerived)))


def derive_pairs(params: SystemParams, channels) -> PairDerived:
    """Derived constants of every pair, the one place channels meet weights:
    columns over (pair,) of one list of channels, or (trial, pair) of a list
    of such lists, each pair's row from ``derive_pair``."""
    one = not len(channels) or isinstance(channels[0], PairChannel)
    trials = [channels] if one else channels
    if any(len(chs) != params.n_pairs for chs in trials):
        raise DomainError("channels and weights sizes differ")
    rows = [_FIELDS(derive_pair(params, ch, w))
            for chs in trials for ch, w in zip(chs, params.weights)]
    shape = (-1, params.n_pairs) if one else (-1, len(trials), params.n_pairs)
    return PairDerived(*np.array(rows).T.reshape(shape))


def tau_of_e(params: SystemParams, ch: PairChannel, d: PairDerived, e_pb: float) -> float:
    """Optimal AP charging time for a beacon energy allotment: ``charging_times`` of one pair."""
    return charging_times(params, ch.g_pow, ch.k_pow, d.z_dag, d.e_lim, e_pb).item()


def s_of_e(params: SystemParams, ch: PairChannel, d: PairDerived, e_pb: float) -> float:
    """Best weighted throughput of one pair given beacon energy e_pb."""
    if not 0.0 <= e_pb < params.p_pb:
        raise DomainError(f"e_pb must lie in [0, p_pb), got {e_pb}")
    if e_pb <= d.e_lim:
        harvested = params.eta * (params.p_ap * ch.g_pow + e_pb * ch.k_pow)
        return d.lam_w * ch.g_pow * harvested / (d.z_dag * params.noise_w * LN2)
    ratio = d.x_const * e_pb / (params.p_pb - e_pb)
    return d.lam_w * (1.0 - e_pb / params.p_pb) * math.log1p(ratio) / LN2


def grad_s(params: SystemParams, ch: PairChannel, d: PairDerived, e_pb: float) -> float:
    """Marginal value of beacon energy; equals alpha up to the knee."""
    if not 0.0 <= e_pb < params.p_pb:
        raise DomainError(f"e_pb must lie in [0, p_pb), got {e_pb}")
    if e_pb <= d.e_lim:
        return d.alpha
    p_b = params.p_pb
    ratio = d.x_const * e_pb / (p_b - e_pb)
    return (
        -d.lam_w / p_b * math.log1p(ratio) / LN2
        + d.lam_w * d.x_const / ((p_b - e_pb + d.x_const * e_pb) * LN2)
    )


def gamma(params: SystemParams, ch: PairChannel, d: PairDerived, nu: float) -> float:
    """Energy demand at price nu on the strictly concave segment.

    Inverts grad_s on (e_lim, e_opt]; defined for 0 <= nu < alpha.
    """
    if not 0.0 <= nu < d.alpha:
        raise DomainError(f"gamma needs 0 <= nu < alpha={d.alpha}, got {nu}")
    y = nu * params.p_pb * LN2 / d.lam_w
    z = solve_z(d.x_const, y)
    return params.p_pb * (z - 1.0) / (z - 1.0 + d.x_const)


def respond_to_price(
    params: SystemParams, ch: PairChannel, d: PairDerived, nu: float
) -> float:
    """A pair's optimal energy request at the announced dual price.

    At nu within ``PRICE_EQ_RTOL`` of the pair's cap the demand set is the
    whole interval [0, e_lim]; the pair reports e_lim so the coordinator
    learns the interval.  Elsewhere it demands nothing at or above its cap
    and ``gamma(nu)`` below it.  A one-shot form: the solvers bid through
    ``pooled_bids`` and never call it.
    """
    if d.alpha > 0.0 and abs(nu - d.alpha) <= PRICE_EQ_RTOL * d.alpha:
        return d.e_lim
    return 0.0 if nu >= d.alpha else gamma(params, ch, d, nu)


def pooled_bids(params: SystemParams, deriveds, stats):
    """``bids_at(price)``: every pair's demand at the announced price.

    One ``batch._demand`` call per price: zero at or above a pair's cap,
    ``gamma`` below it from a cold root, so a bid depends on its pair and
    the price alone.  ``stats["newton"]`` keeps the worst Newton count.
    """
    d = deriveds

    def bids_at(price):
        with np.errstate(all="ignore"):
            return _demand(params.p_pb, d.x_const, d.alpha, d.lam_w, price, stats).tolist()

    return bids_at


@dataclass(frozen=True)
class RoundLog:
    """Every bid round as packed doubles: one announced price and ``n`` bids
    per round.  The solve that writes it numbers its rounds from ``first``:
    the ladder walk from 0, the price search from 1."""

    n: int = 0
    first: int = 0
    prices: array = field(default_factory=lambda: array("d"))
    bids: array = field(default_factory=lambda: array("d"))

    def rounds(self):
        """(round, price, bids list) of every round, built as they are iterated."""
        n = self.n
        for t, price in enumerate(self.prices):
            yield self.first + t, price, self.bids[t * n:(t + 1) * n].tolist()


@dataclass
class WaterfillResult:
    nu: float
    e_star: tuple[float, ...]
    tau_star: tuple[float, ...]
    welfare: float
    rounds: int
    log: RoundLog = field(default_factory=RoundLog)


def price_search(deriveds, e_b_tot, bids_at, round_log, stats):
    """Binary search over the sorted caps, then regula falsi; the water-filling loop.

    ``bids_at(nu)`` gathers every pair's demand, as a list, at the announced
    price ``nu``; ``round_log`` keeps each price and its bids.
    Aggregate demand is nonincreasing in the price, so a binary search over
    the caps brackets the dual price between two adjacent caps
    (sorted-breakpoint water-filling, Palomar & Fonollosa, IEEE TSP 2005),
    and ``_regula_falsi`` finds it inside that bracket.
    Only the caps, knees and gathered bids drive the decisions, which is
    what makes the distributed variant a drop-in replacement for the pooled
    one.  Logs why the search stopped at DEBUG, with ``stats["newton"]``,
    the bids' worst Newton iteration count as ``pooled_bids`` keeps it.

    Returns (nu, e_star list, rounds).
    """
    alphas, e_lims = deriveds.alpha.tolist(), deriveds.e_lim.tolist()
    n, groups = len(alphas), _alpha_groups(alphas)[::-1]
    rounds = 0

    def announce(nu):
        nonlocal rounds
        rounds += 1
        bids = bids_at(nu)
        round_log.prices.append(nu)
        round_log.bids.fromlist(bids)  # from a list: far faster than extend
        return bids

    def stop(nu, e_star, reason, width=0.0):
        total = math.fsum(e_star)
        log.debug(
            "price search: rounds=%d stop=%s bracket=%.3g budget_residual=%.3g "
            "newton_iters=%d", rounds, reason, width,
            abs(total - e_b_tot) / e_b_tot if e_b_tot > 0.0 else total, stats["newton"],
        )
        return nu, e_star, rounds

    if not groups:
        return stop(0.0, [0.0] * n, "slack")
    # a group's price is its largest cap; every pair bids zero at the top one
    prices = [0.0] + [alphas[group[0]] for group in groups]
    bids = announce(0.0)
    if math.fsum(bids) <= e_b_tot:
        return stop(0.0, list(bids), "slack")
    lo, lo_bids, hi, bids = 0, bids, len(groups), [0.0] * n
    while hi - lo > 1:
        mid = (lo + hi) // 2
        mid_bids = announce(prices[mid])
        if math.fsum(mid_bids) > e_b_tot:
            lo, lo_bids = mid, mid_bids
        else:
            hi, bids = mid, mid_bids
    group = groups[hi - 1]
    lim_sum = math.fsum(e_lims[i] for i in group)
    residual = e_b_tot - math.fsum(bids)
    if residual <= lim_sum:
        # price settles exactly at this cap; split the residual budget
        # across the tied pairs in proportion to their knees
        e_star = list(bids)
        for i in group:
            e_star[i] = residual * e_lims[i] / lim_sum
        return stop(prices[hi], e_star, "cap")
    # demand crosses the budget strictly between the two adjacent caps; just
    # below the upper one its group still bids its knees
    below_hi = list(bids)
    for i in group:
        below_hi[i] = e_lims[i]
    return stop(*_regula_falsi(
        prices[lo], lo_bids, prices[hi], below_hi, lim_sum - residual, e_b_tot, announce
    ))


def _regula_falsi(a, a_bids, b, b_bids, f_b, e_b_tot, announce):
    """Find nu in (a, b) where aggregate demand meets the budget.

    f(nu) = demand - budget is positive at ``a`` and ``f_b`` < 0 just below
    ``b``.  Regula falsi with the Anderson-Bjorck correction (BIT 13, 1973)
    needs no slope, only the aggregate demand each round gathers, and
    converges superlinearly.  When no double lies strictly inside the
    bracket, no price meets the budget: price ``b`` splits it between the
    two end demands by proportional rationing, so only pairs whose demand
    moves across that last ulp absorb the residual.

    Returns (nu, bids, stop reason, relative bracket width).
    """
    f_a = math.fsum(a_bids) - e_b_tot
    kept = None  # the end the previous step kept
    for _ in range(200):
        nu = b - f_b * (b - a) / (f_b - f_a)
        if not a < nu < b:
            nu = 0.5 * (a + b)
            if not a < nu < b:
                split = _prr(e_b_tot, np.array(b_bids), np.array(a_bids),
                             math.fsum(b_bids), math.fsum(a_bids))
                return b, split.tolist(), "ulp", (b - a) / b
        bids = announce(nu)
        f = math.fsum(bids) - e_b_tot
        if abs(f) <= 1e-12 * e_b_tot:
            return nu, bids, "binds", (b - a) / b
        # plain regula falsi keeps landing on one side; scaling down the value
        # of an end kept twice in a row pulls the next point toward that end
        if f > 0.0:
            if kept == "b":
                m = 1.0 - f / f_a
                f_b *= m if m > 0.0 else 0.5
            a, a_bids, f_a, kept = nu, bids, f, "b"
        else:
            if kept == "a":
                m = 1.0 - f / f_b
                f_a *= m if m > 0.0 else 0.5
            b, b_bids, f_b, kept = nu, bids, f, "a"
    raise ConvergenceError(f"price search stalled on bracket ({a}, {b})")


def pooled_waterfill(params: SystemParams, deriveds) -> WaterfillResult:
    """The one water-filling body.

    ``waterfill`` and the cooperative protocol run it; ``batch.solve_lanes``
    replays it over arrays.
    """
    # round 0 of the cooperative protocol is the cap and knee reports
    d, stats, round_log = deriveds, {"newton": 0}, RoundLog(deriveds.alpha.size, 1)
    bids_at = pooled_bids(params, d, stats)
    nu, e_star, rounds = price_search(d, params.e_b_tot, bids_at, round_log, stats)
    tau_star = charging_times(params, d.g_pow, d.k_pow, d.z_dag, d.e_lim, e_star)
    welfare = welfares(params, d.g_pow, d.k_pow, tau_star, e_star, params.e_b_tot).item()
    return WaterfillResult(nu, tuple(e_star), tuple(tau_star.tolist()), welfare, rounds, round_log)


def waterfill(params: SystemParams, channels) -> WaterfillResult:
    """Budget-constrained welfare maximization over beacon energy splits."""
    return pooled_waterfill(params, derive_pairs(params, channels))
