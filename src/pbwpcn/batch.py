"""Array demands: every pair's bid at a price, the auction's close and
water-filling, for a batch of (trial, budget) lanes.

``_demand`` is the one demand, every root started cold: a bid depends on its
pair and price alone.  ``coop.pooled_bids`` calls it once per price and
``lane_rows`` once per set of ladder rounds.  ``ladder_close`` is the one
search for the auction's close, and ``_prr`` the one rationing split.
``solve_lanes`` takes the decisions of ``price_search`` and of the auction's
close on every lane at once, over float64 arrays indexed by (lane, pair);
each scalar check is an array check raising the same error type.
"""

from __future__ import annotations

import logging
import math
from collections import namedtuple

import numpy as np

from .errors import ConvergenceError, DomainError
from .model import LN2, _row_sums, charging_times, welfares
from .roots import _ABS_TOL, _MAX_ITER

log = logging.getLogger("pbwpcn")

# ladder rounds one ``lane_rows`` call prices, in a block of the walk or a
# pass of ``ladder_close`` over all its lanes: each call has a fixed cost,
# and beyond about 64 rounds a block's temporaries outweigh the walk's packed
# log in its peak memory per round
LADDER_BLOCK = 64

# both mechanisms on every lane: arrays shaped (budget, trial) or (budget, trial, pair)
Lanes = namedtuple(
    "Lanes", "nu e_star tau_star welfare e_final tau_final pb_quit rounds_used welfare_auction"
)


def _sum(a):
    """Sums over the last axis in twice the working precision, then rounded
    (Ogita, Rump & Oishi, SIAM J. Sci. Comput. 2005, Sum2)."""
    s, c = a[..., 0], 0.0
    for x in np.moveaxis(a, -1, 0)[1:]:
        t = s + x
        z = t - s
        c, s = c + ((s - (t - z)) + (x - z)), t
    return s + c


def columns(records, fields=("x_const", "alpha", "lam_w")):
    """Each of ``fields`` over ``records``, equal-length lists of pair records,
    as a float array shaped (list, pair); by default the columns a bid reads."""
    return [np.array([[getattr(r, f) for r in rs] for rs in records], dtype=float)
            for f in fields]


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


def _solve_u(x, y, stats):
    """``solve_z(x, y) - 1.0`` elementwise, by the same safeguarded Newton
    from the same cold start.  Each step works in place, so a block of
    ladder rounds holds few temporaries."""
    if not np.all((y >= 0.0) & (x > y)):
        raise DomainError("solve_z needs x_target > y_coef >= 0")
    d = x - y
    lo, hi, tol = np.zeros_like(d), x + 1.0, _ABS_TOL * d
    u = np.where(d < 1.0, np.sqrt(2.0 * d), d / np.log1p(d))
    out, todo = np.empty_like(d), np.ones(d.shape, dtype=bool)
    for it in range(1, _MAX_ITER + 1):
        slope = np.log1p(u)
        resid = 1.0 + u
        resid *= slope
        resid -= u  # h(u) = (1 + u) * log1p(u) - u
        small = u < 1e-2
        if small.any():
            s = u[small]  # h by its series, as in solve_z: the closed form cancels
            resid[small] = s * s * (1 / 2 - s * (1 / 6 - s * (1 / 12 - s * (1 / 20 - s * (
                1 / 30 - s * (1 / 42 - s * (1 / 56 - s / 72)))))))
        resid += y * u
        resid -= d
        up = resid > 0.0
        np.copyto(hi, u, where=up)
        np.copyto(lo, u, where=~up)
        slope += y
        step = np.divide(resid, slope, out=slope)
        u_new = np.subtract(u, step, out=step)
        done = np.abs(resid) <= tol
        done &= todo
        np.copyto(out, u_new, where=done)
        todo ^= done
        if not todo.any():
            stats["newton"] = max(stats["newton"], it)
            out += 1.0
            out -= 1.0  # gamma reads z - 1 off z = 1 + u
            return out
        u = np.add(lo, hi, out=u)
        u *= 0.5
        inside = lo <= u_new
        inside &= u_new <= hi
        np.copyto(u, u_new, where=inside)
    raise ConvergenceError(f"solve_z did not converge on {todo.sum()} demands")


def _demand(p_pb, x, alpha, lam_w, nu, stats):
    """Every pair's bid at its row's price ``nu``: zero at or above its cap
    ``alpha``, ``gamma(nu)`` below it."""
    live = nu < alpha
    if not live.any():
        return np.zeros(live.shape)
    xs = np.broadcast_to(x, live.shape)[live]
    zm1 = _solve_u(xs, (nu * p_pb * LN2 / lam_w)[live], stats)
    e = np.zeros(live.shape)
    e[live] = p_pb * zm1 / (zm1 + xs)
    return e


def ladder_top(deriveds, cfg) -> int:
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
    if t_top > 2**53:
        # past 2**53 a round's index is no longer an exact double
        raise DomainError(f"price step {cfg.step} gives a ladder of more than 2**53 rounds")
    return t_top


def lane_rows(p_pb, cols, cfg, rounds):
    """Row i: every pair's bid in ladder round ``rounds[i]``, priced
    ``cfg.reserve_price + rounds[i] * cfg.step``, of the lane whose bid
    ``columns`` are row i of ``cols``, or their one row.  A row depends on
    its lane and round alone."""
    mu = cfg.reserve_price + np.asarray(rounds, dtype=float)[:, None] * cfg.step
    with np.errstate(all="ignore"):
        return _demand(p_pb, *cols, mu, {"newton": 0})


def ladder_rows(params, deriveds, cfg, rounds):
    """Every pair's bid in each ladder round of the integer sequence ``rounds``,
    shaped (len(rounds), n): ``lane_rows`` of one lane."""
    return lane_rows(params.p_pb, columns([deriveds]), cfg, rounds)


def _prr(budget, last, prev, s_last, s_prev):
    """Proportional rationing of each row's budget between bid rows ``last``
    and ``prev`` that straddle it, of exact (``math.fsum``) totals ``s_last``
    and ``s_prev``: each bidder keeps its ``last`` bid plus a share of the
    residual supply in proportion to its cut from ``prev``.  It closes the
    clinching auction and the price search's last ulp."""
    budget, s_last, s_prev = (np.asarray(v, dtype=float)[..., None]
                              for v in (budget, s_last, s_prev))
    if not np.all((s_last <= budget) & (budget < s_prev)):
        raise DomainError("supply not crossed between two bid vectors")
    if np.any(last > prev * (1.0 + 1e-12) + 1e-300):
        raise DomainError("bids must be elementwise nonincreasing between rounds")
    residual = budget - s_last
    split = last + (prev - last) / (s_prev - s_last) * residual
    return np.where(residual == 0.0, last, split)


def ladder_close(p_pb, cols, cfg, budgets, t_tops, first=None):
    """The walk's close on every lane, by search: the first ladder round
    whose bids' exact sum fits the lane's budget.

    Each lane's bracket (lo, hi), lo overflowing the budget (or -1) and hi
    fitting it, starts at (-1, ``t_tops``), where every bid is zero.  A pass
    prices each open bracket's share of ``LADDER_BLOCK`` rounds, at least
    one, evenly spaced, or the rounds of ``first`` (lane, k) in the first
    pass, and narrows each bracket to its first round that fits.  Where a
    lane's totals never rise along its ladder, any first rounds give the walk's
    close and rows: none rose at steps of 1e-6 to 1e-14, but on adjacent
    doubles some rose by up to 3.8e-16 relative, so at ulp steps it is unproved.
    Returns per lane the close, its ``_prr`` split, and the rows it split."""
    budgets = np.asarray(budgets, dtype=float)
    ends = np.stack([np.full(len(budgets), -1), t_tops])  # lo and hi
    rows, sums = np.zeros((2,) + cols[0].shape), np.zeros(ends.shape)  # of lo and hi
    r = None if first is None else np.sort(first, axis=1)
    while (ends[1] - ends[0] > 1).any():
        lo, hi = ends[:, :, None]
        if r is None:
            m = max(1, LADDER_BLOCK // np.count_nonzero(hi - lo > 1))
            r = lo + (hi - lo) * np.arange(1, m + 1) // (m + 1)
        keep = (lo < r) & (r < hi)
        keep[:, 1:] &= r[:, 1:] != r[:, :-1]  # a narrow bracket's rounds once each
        lanes, rounds, r = keep.nonzero()[0], r[keep], None
        got = lane_rows(p_pb, [c[lanes] for c in cols], cfg, rounds)
        totals = np.array(_row_sums(got))
        # each lane's first row that fits, else one past its last
        start = np.flatnonzero(np.diff(lanes, prepend=-1))
        end = np.append(start[1:], lanes.size)
        fit = np.where(totals <= budgets[lanes], np.arange(lanes.size), lanes.size)
        k = np.minimum(np.minimum.reduceat(fit, start), end)
        for side, j, ok in ((0, k - 1, k > start), (1, k, k < end)):
            i, j = lanes[start[ok]], j[ok]
            ends[side, i], rows[side, i], sums[side, i] = rounds[j], got[j], totals[j]
    close, e_fin = ends[1], np.zeros_like(rows[1])
    i = np.flatnonzero(close > 0)  # round 0 fits: no trade
    e_fin[i] = _prr(budgets[i], rows[1, i], rows[0, i], sums[1, i], sums[0, i])
    return close, e_fin, rows[1], rows[0]


def solve_lanes(params, channels, deriveds, budgets, cfg) -> Lanes:
    """Lane (k, t) takes the decisions ``waterfill`` and ``auction_allocation``
    take on trial t (``channels[t]``, ``deriveds[t]``) at budget ``budgets[k]``,
    not ``params.e_b_tot``, and its tau and welfare come from the same
    ``charging_times`` and ``welfares``: every field has their bits.  Logs one
    summary line at DEBUG."""
    n_t, n = len(deriveds), params.n_pairs
    p_pb, mu0, dmu = params.p_pb, cfg.reserve_price, cfg.step
    t_top = np.array([ladder_top(ds, cfg) for ds in deriveds])  # a bad ladder fails first
    g, k = columns(channels, ("g_pow", "k_pow"))
    x, z_dag, alpha, e_lim, lam_w = columns(
        deriveds, ("x_const", "z_dag", "alpha", "e_lim", "lam_w"))
    # the price search's levels: 0, then each group's cap ascending, then +inf padding
    prices, lim_sum, level = [], [], []  # level: each pair's group level; 0 when alpha = 0
    for ds in deriveds:
        groups = _alpha_groups([d.alpha for d in ds])[::-1]
        prices.append([0.0] + [ds[g[0]].alpha for g in groups] + [math.inf] * (n - len(groups)))
        lim_sum.append([1.0] + [math.fsum(ds[i].e_lim for i in g) for g in groups]
                       + [1.0] * (n - len(groups)))
        levels = [0] * n
        for m, group in enumerate(groups, 1):
            for i in group:
                levels[i] = m
        level.append(levels)
    prices, lim_sum, level = np.array(prices), np.array(lim_sum), np.array(level)
    stats = {"newton": 0}
    with np.errstate(all="ignore"):
        tr = np.tile(np.arange(n_t), len(budgets))
        budget = np.repeat(np.asarray(budgets, dtype=float), n_t)
        # demand at price 0 is the trial's alone: solved once, shared by its budgets
        e_0 = _demand(p_pb, x, alpha, lam_w, np.zeros((n_t, 1)), stats)
        e_lo, e_hi = e_0[tr], np.zeros((tr.size, n))

        def bids(i, nu):
            ti = tr[i]
            return _demand(p_pb, x[ti], alpha[ti], lam_w[ti], nu[:, None], stats)
        # binary search for the first level whose demand the budget covers
        lo, hi = np.zeros(tr.size, dtype=int), (np.isfinite(prices).sum(axis=1) - 1)[tr]
        slack = _sum(e_lo) <= budget
        i = np.flatnonzero(~slack & (hi - lo > 1))
        while i.size:
            mid = (lo[i] + hi[i]) // 2
            got = bids(i, prices[tr[i], mid])
            over = _sum(got) > budget[i]
            lo[i], hi[i] = np.where(over, mid, lo[i]), np.where(over, hi[i], mid)
            e_lo[i[over]], e_hi[i[~over]] = got[over], got[~over]
            i = i[hi[i] - lo[i] > 1]
        e_hi[slack] = e_lo[slack]
        # the cap settle: the residual split by the knees of the top group
        in_group = level[tr] == hi[:, None]
        lims, residual = lim_sum[tr, hi], budget - _sum(e_hi)
        cap = ~slack & (residual <= lims)
        nu = np.where(cap, prices[tr, hi], 0.0)
        settle = residual[:, None] * e_lim[tr] / lims[:, None]
        e_star = np.where(cap[:, None] & in_group, settle, e_hi)
        # Anderson-Bjorck regula falsi between the levels, as ``_regula_falsi``
        i = np.flatnonzero(~slack & ~cap)
        a, b, bud = prices[tr[i], lo[i]], prices[tr[i], hi[i]], budget[i]
        a_bids, b_bids = e_lo[i], np.where(in_group[i], e_lim[tr[i]], e_hi[i])
        f_a, f_b = _sum(a_bids) - bud, lims[i] - residual[i]
        kept = np.zeros(i.size, dtype=int)  # 1: the step before kept b, 2: kept a
        n_ulp = n_binds = rf_steps = 0
        while i.size:
            if rf_steps == 200:
                raise ConvergenceError(f"price search stalled on {i.size} lanes")
            rf_steps += 1
            mu = b - f_b * (b - a) / (f_b - f_a)
            mu = np.where((a < mu) & (mu < b), mu, 0.5 * (a + b))
            ulp = ~((a < mu) & (mu < b))  # no double inside: split the last ulp
            mu[ulp] = b[ulp]
            got = np.empty_like(a_bids)
            if ulp.any():
                got[ulp] = _prr(bud[ulp], b_bids[ulp], a_bids[ulp],
                                _row_sums(b_bids[ulp]), _row_sums(a_bids[ulp]))
            got[~ulp] = bids(i[~ulp], mu[~ulp])
            f = _sum(got) - bud
            done = ulp | (np.abs(f) <= 1e-12 * bud)
            nu[i[done]], e_star[i[done]] = mu[done], got[done]
            n_ulp, n_binds = n_ulp + ulp.sum(), n_binds + (done & ~ulp).sum()
            pos = f > 0.0
            m_b, m_a = 1.0 - f / f_a, 1.0 - f / f_b
            f_b = np.where(pos & (kept == 1), f_b * np.where(m_b > 0.0, m_b, 0.5), f_b)
            f_a = np.where(~pos & (kept == 2), f_a * np.where(m_a > 0.0, m_a, 0.5), f_a)
            a, f_a = np.where(pos, mu, a), np.where(pos, f, f_a)
            b, f_b = np.where(pos, b, mu), np.where(pos, f_b, f)
            a_bids = np.where(pos[:, None], got, a_bids)
            b_bids = np.where(pos[:, None], b_bids, got)
            kept = np.where(pos, 1, 2)
            if done.any():
                i, a, b, bud, f_a, f_b, kept, a_bids, b_bids = (
                    v[~done] for v in (i, a, b, bud, f_a, f_b, kept, a_bids, b_bids))
        # the ladder close, its first pass the rounds either side of nu
        t = np.ceil(np.maximum((nu - mu0) / dmu, 0.0)).astype(np.int64)
        close, e_fin, _, _ = ladder_close(p_pb, [v[tr] for v in (x, alpha, lam_w)], cfg,
                                          budget, t_top[tr], np.stack([t - 1, t], axis=1))
        # from here on (budget, trial, pair) arrays, broadcast against the trials'
        shape = (len(budgets), n_t)
        e_star, e_fin, budget = (v.reshape(shape + v.shape[1:]) for v in (e_star, e_fin, budget))
        tau_star, tau_fin = (charging_times(params, g, k, z_dag, e_lim, e) for e in (e_star, e_fin))
        w_star, w_fin = (welfares(params, g, k, tau, e, budget)
                         for tau, e in ((tau_star, e_star), (tau_fin, e_fin)))
        gap = np.abs(_sum(e_star) - budget) / np.where(budget > 0.0, budget, 1.0)
    log.debug(
        "lanes: n=%d slack=%d cap=%d binds=%d ulp=%d rf_steps=%d newton_iters=%d "
        "ladder_misses=%d budget_residual=%.3g", tr.size, slack.sum(), cap.sum(), n_binds,
        n_ulp, rf_steps, stats["newton"], (close != t).sum(),
        gap[~slack.reshape(shape)].max(initial=0.0))
    return Lanes(nu.reshape(shape), e_star, tau_star, w_star, e_fin, tau_fin,
                 (close == 0).reshape(shape), (close + 1).reshape(shape), w_fin)
