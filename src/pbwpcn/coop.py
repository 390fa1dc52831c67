"""Cooperative allocator: per-pair closed forms and the water-filling search.

Each pair's welfare contribution, as a function of the beacon energy E it
receives, is piecewise: linear with constant slope ``alpha`` up to the knee
``e_lim`` (the AP-dominated regime) and strictly concave above it, peaking at
``e_opt``.  A single dual price nu equalizes marginal values across pairs
subject to the beacon's energy budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import ConvergenceError, DomainError
from .model import LN2, Allocation, PairChannel, SystemParams, social_welfare
from .roots import lambert_w0, solve_z

# relative tolerance for treating an announced price as equal to a pair's cap
PRICE_EQ_RTOL = 1e-12


@dataclass(frozen=True)
class PairDerived:
    """Constants of one pair's piecewise welfare curve."""

    a_const: float   # G^2 * eta * p_ap / sigma^2
    x_const: float   # G * eta * (p_ap * G + p_pb * K) / sigma^2
    z_dag: float
    z_ddag: float
    alpha: float     # marginal value of beacon energy on the linear segment
    e_lim: float     # knee where beacon charging time starts to dominate
    e_opt: float     # unconstrained per-pair optimum
    lam_w: float     # weight * bandwidth, the rate-to-utility scale


def derive_pair(params: SystemParams, ch: PairChannel, weight: float) -> PairDerived:
    """Compute the derived constants for one pair."""
    g, k = ch.g_pow, ch.k_pow
    sig = params.noise_w
    a_const = g * g * params.eta * params.p_ap / sig
    x_const = g * params.eta * (params.p_ap * g + params.p_pb * k) / sig
    lam_w = weight * params.bandwidth_mhz

    z_dag = math.exp(lambert_w0((a_const - 1.0) / math.e) + 1.0)
    z_ddag = math.exp(lambert_w0((x_const - 1.0) / math.e) + 1.0)

    alpha = lam_w * g * params.eta * k / (z_dag * sig * LN2)
    e_lim = params.p_pb * (z_dag - 1.0) / (z_dag - 1.0 + x_const)
    e_opt = params.p_pb * (z_ddag - 1.0) / (z_ddag - 1.0 + x_const)

    if k > 0.0 and not (z_ddag > z_dag > 1.0 and 0.0 < e_lim < e_opt < params.p_pb):
        raise ConvergenceError("derived constants violate ordering invariants")
    return PairDerived(a_const, x_const, z_dag, z_ddag, alpha, e_lim, e_opt, lam_w)


def derive_pairs(params: SystemParams, channels) -> list[PairDerived]:
    """Derived constants of every pair; the one place channels meet weights."""
    if len(channels) != params.n_pairs:
        raise DomainError("channels and weights sizes differ")
    return [derive_pair(params, ch, w) for ch, w in zip(channels, params.weights)]


def tau_of_e(params: SystemParams, ch: PairChannel, d: PairDerived, e_pb: float) -> float:
    """Optimal AP charging time for a given beacon energy allotment."""
    if not 0.0 <= e_pb < params.p_pb:
        raise DomainError(f"e_pb must lie in [0, p_pb), got {e_pb}")
    if e_pb <= d.e_lim:
        sig = params.noise_w
        num = (d.z_dag - 1.0) * sig - ch.g_pow * params.eta * e_pb * ch.k_pow
        den = (d.z_dag - 1.0) * sig + ch.g_pow * ch.g_pow * params.eta * params.p_ap
        return num / den
    return e_pb / params.p_pb


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


def gamma(
    params: SystemParams,
    ch: PairChannel,
    d: PairDerived,
    nu: float,
    z_hint: float | None = None,
) -> float:
    """Energy demand at price nu on the strictly concave segment.

    Inverts grad_s on (e_lim, e_opt]; defined for 0 <= nu < alpha.
    """
    if not 0.0 <= nu < d.alpha:
        raise DomainError(f"gamma needs 0 <= nu < alpha={d.alpha}, got {nu}")
    y = nu * params.p_pb * LN2 / d.lam_w
    z = solve_z(d.x_const, y, z_hint=z_hint)
    return params.p_pb * (z - 1.0) / (z - 1.0 + d.x_const)


def respond_to_price(
    params: SystemParams,
    ch: PairChannel,
    d: PairDerived,
    nu: float,
    is_marginal: bool = False,
) -> float:
    """A pair's optimal energy request at the announced dual price.

    At nu exactly equal to the pair's cap the demand set is the whole
    interval [0, e_lim]; the pair reports e_lim so the coordinator learns
    the interval.  A one-shot form: the solvers bid through
    ``demand_oracle`` and never call it.
    """
    if nu < 0.0:
        raise DomainError(f"nu must be nonnegative, got {nu}")
    if d.alpha == 0.0:
        return 0.0  # no beacon channel, energy is worthless here
    if is_marginal or abs(nu - d.alpha) <= PRICE_EQ_RTOL * d.alpha:
        return d.e_lim
    if nu > d.alpha:
        return 0.0
    return gamma(params, ch, d, nu)


def demand_oracle(params: SystemParams, ch: PairChannel, d: PairDerived):
    """One pair's demand oracle: ``bid(nu) -> energy`` at an announced price.

    At or above its cap the pair demands nothing; below it the demand is
    ``gamma(nu)``, warm-started from this pair's previous root, so each pair
    needs its own oracle.  Water-filling, the auction and both protocols all
    bid through it.
    """
    z_hint = None

    def bid(nu: float) -> float:
        nonlocal z_hint
        if nu >= d.alpha:
            return 0.0
        e = gamma(params, ch, d, nu, z_hint=z_hint)
        z_hint = 1.0 + d.x_const * e / (params.p_pb - e)
        return e

    return bid


def pooled_bids(params: SystemParams, channels, deriveds):
    """``bids_at(price, r)``: every pair's demand, one oracle per pair."""
    bids = [demand_oracle(params, ch, d) for ch, d in zip(channels, deriveds)]
    return lambda price, r: [bid(price) for bid in bids]


def crossing_search(bids_at, budget, lo, lo_bids, hi, hi_bids):
    """Narrow an index bracket on a nonincreasing demand to adjacent indices.

    ``bids_at(t)`` gathers every bid at index ``t``; aggregate demand at
    ``lo`` exceeds the budget and at ``hi`` it does not.  Binary search keeps
    that invariant until ``hi == lo + 1``; returns (lo, lo_bids, hi, hi_bids)
    so that no index is gathered twice.
    """
    while hi - lo > 1:
        mid = (lo + hi) // 2
        bids = bids_at(mid)
        if math.fsum(bids) > budget:
            lo, lo_bids = mid, bids
        else:
            hi, hi_bids = mid, bids
    return lo, lo_bids, hi, hi_bids


@dataclass
class WaterfillResult:
    nu: float
    e_star: tuple[float, ...]
    tau_star: tuple[float, ...]
    welfare: float
    rounds: int
    transcript: list = field(default_factory=list)


def _alpha_groups(alphas):
    """Indices of pairs with alpha > 0, grouped by equal alpha, descending."""
    idx = [i for i, a in enumerate(alphas) if a > 0.0]
    idx.sort(key=lambda i: -alphas[i])
    groups = []
    for i in idx:
        if groups and math.isclose(alphas[groups[-1][0]], alphas[i], rel_tol=1e-9):
            groups[-1].append(i)
        else:
            groups.append([i])
    return groups


def price_search(deriveds, e_b_tot, bids_at, transcript):
    """Binary search over the sorted caps plus bisection; the water-filling loop.

    ``bids_at(nu, r)`` gathers every pair's demand at the price ``nu``
    announced in round ``r``.  Aggregate demand is nonincreasing in the
    price, so a binary search over the caps brackets the dual price between
    two adjacent caps (sorted-breakpoint water-filling, Palomar & Fonollosa,
    IEEE TSP 2005).  Only the caps, knees and gathered bids drive the
    decisions, which is what makes the distributed variant a drop-in
    replacement for the pooled one.

    Returns (nu, e_star list, rounds).
    """
    n = len(deriveds)
    groups = _alpha_groups([d.alpha for d in deriveds])[::-1]
    if not groups:
        return 0.0, [0.0] * n, 0
    # a group's price is its largest cap; every pair bids zero at the top one
    prices = [0.0] + [deriveds[group[0]].alpha for group in groups]
    rounds = 0

    def announce(nu):
        nonlocal rounds
        rounds += 1
        bids = bids_at(nu, rounds)
        transcript.append(
            {"round": rounds, "nu": nu, "bids": list(bids), "agg": math.fsum(bids)}
        )
        return bids

    bids = announce(0.0)
    if math.fsum(bids) <= e_b_tot:
        return 0.0, list(bids), rounds
    lo, _, hi, bids = crossing_search(
        lambda t: announce(prices[t]), e_b_tot, 0, bids, len(groups), [0.0] * n
    )
    group = groups[hi - 1]
    lim_sum = math.fsum(deriveds[i].e_lim for i in group)
    residual = e_b_tot - math.fsum(bids)
    if residual <= lim_sum:
        # price settles exactly at this cap; split the residual budget
        # across the tied pairs in proportion to their knees
        e_star = list(bids)
        if len(group) > 1:
            transcript.append({"tie": sorted(group), "nu": prices[hi]})
        for i in group:
            e_star[i] = residual * deriveds[i].e_lim / lim_sum
        return prices[hi], e_star, rounds
    # demand crosses the budget strictly between the two adjacent caps
    nu, bids = _bisect_price(prices[lo], prices[hi], e_b_tot, announce)
    return nu, bids, rounds


def _bisect_price(lo, hi, e_b_tot, announce):
    """Find nu in (lo, hi) with aggregate demand equal to the budget."""
    bids = None
    nu = 0.5 * (lo + hi)
    for _ in range(200):
        nu = 0.5 * (lo + hi)
        bids = announce(nu)
        agg = math.fsum(bids)
        if abs(agg - e_b_tot) <= 1e-10 * e_b_tot or hi - lo <= 1e-14:
            break
        if agg > e_b_tot:
            lo = nu
        else:
            hi = nu
    else:
        raise ConvergenceError(f"price bisection stalled on bracket ({lo}, {hi})")
    # distribute the residual rounding error proportionally so the budget
    # binds exactly
    total = math.fsum(bids)
    if total > 0.0:
        bids = [b * (e_b_tot / total) for b in bids]
    return nu, bids


def waterfill(params: SystemParams, channels) -> WaterfillResult:
    """Budget-constrained welfare maximization over beacon energy splits."""
    deriveds = derive_pairs(params, channels)
    bids_at = pooled_bids(params, channels, deriveds)
    transcript: list = []
    nu, e_star, rounds = price_search(deriveds, params.e_b_tot, bids_at, transcript)
    return waterfill_result(params, channels, deriveds, nu, e_star, rounds, transcript)


def waterfill_result(params, channels, deriveds, nu, e_star, rounds, transcript):
    """Charging times and welfare of a water-filling energy split."""
    tau_star = tuple(
        tau_of_e(params, ch, d, e) for ch, d, e in zip(channels, deriveds, e_star)
    )
    alloc = Allocation.from_energy(params, tau_star, e_star)
    welfare = social_welfare(params, channels, alloc)
    return WaterfillResult(
        nu=nu,
        e_star=tuple(e_star),
        tau_star=tau_star,
        welfare=welfare,
        rounds=rounds,
        transcript=transcript,
    )
