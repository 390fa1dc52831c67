"""Array demands: every pair's bid at a price, and water-filling and its
ladder close for a batch of (trial, budget) lanes.

``_demand`` is the one demand, every root started cold: a bid depends on its
pair and price alone.  ``coop.pooled_bids`` calls it once per price and
``ladder_rows`` once per set of ladder rounds.  ``solve_lanes`` takes the
decisions of ``price_search`` and of the auction's close on every lane at
once, over float64 arrays indexed by (lane, pair); each scalar check is an
array check raising the same error type.
"""

from __future__ import annotations

import logging
import math
from collections import namedtuple

import numpy as np

from .errors import ConvergenceError, DomainError
from .model import LN2
from .roots import _ABS_TOL, _MAX_ITER

log = logging.getLogger("pbwpcn")


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


def ladder_rows(params, deriveds, cfg, rounds):
    """Every pair's bid in each ladder round of the integer sequence ``rounds``,
    shaped (len(rounds), n); round t is priced ``cfg.reserve_price + t * cfg.step``.

    An entry depends on its pair and round alone: a row has the same bits
    whichever rounds it is read with.
    """
    x, alpha, lam_w = (np.array([getattr(d, f) for d in deriveds])
                       for f in ("x_const", "alpha", "lam_w"))
    mu = cfg.reserve_price + np.asarray(rounds, dtype=float)[:, None] * cfg.step
    with np.errstate(all="ignore"):
        return _demand(params.p_pb, x, alpha, lam_w, mu, {"newton": 0})


def _prr(budget, last, prev):
    """``final_clinch_prr`` on each row."""
    s_last, s_prev = _sum(last), _sum(prev)
    if not np.all((s_last <= budget) & (budget < s_prev)):
        raise DomainError("supply not crossed between two bid vectors")
    if np.any(last > prev * (1.0 + 1e-12) + 1e-300):
        raise DomainError("bids must be elementwise nonincreasing between rounds")
    residual = (budget - s_last)[:, None]
    split = last + (prev - last) / (s_prev - s_last)[:, None] * residual
    return np.where(residual == 0.0, last, split)


def solve_lanes(params, channels, deriveds, budgets, cfg) -> Lanes:
    """Lane (k, t) takes the decisions ``waterfill`` and ``auction_allocation``
    take on trial t (``channels[t]``, ``deriveds[t]``) at budget ``budgets[k]``,
    not ``params.e_b_tot``; its numbers differ from theirs only in round-off.
    Logs one summary line at DEBUG."""
    n_t, n = len(deriveds), params.n_pairs
    p_pb, eta, sig, mu0, dmu = params.p_pb, params.eta, params.noise_w, cfg.reserve_price, cfg.step
    t_top = np.array([ladder_top(ds, cfg) for ds in deriveds])  # a bad ladder fails first
    g, k = (np.array([[getattr(c, f) for c in chs] for chs in channels]).reshape(n_t, n)
            for f in ("g_pow", "k_pow"))
    x, z_dag, alpha, e_lim, lam_w = (
        np.array([[getattr(d, f) for d in ds] for ds in deriveds]).reshape(n_t, n)
        for f in ("x_const", "z_dag", "alpha", "e_lim", "lam_w"))
    # the price search's levels: 0, then each group's cap ascending, then +inf padding
    prices = np.hstack([np.zeros((n_t, 1)), np.full((n_t, n), np.inf)])
    lim_sum = np.ones((n_t, n + 1))
    level = np.zeros((n_t, n), dtype=int)  # each pair's group level; 0 when alpha = 0
    for t, ds in enumerate(deriveds):
        for m, group in enumerate(_alpha_groups(alpha[t].tolist())[::-1], 1):
            prices[t, m] = ds[group[0]].alpha
            level[t, group] = m
            lim_sum[t, m] = math.fsum(ds[i].e_lim for i in group)
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
            got[ulp] = _prr(bud[ulp], b_bids[ulp], a_bids[ulp])
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
            i, a, b, bud, f_a, f_b, kept, a_bids, b_bids = (
                v[~done] for v in (i, a, b, bud, f_a, f_b, kept, a_bids, b_bids))
        # the ladder close: single steps from the first rung priced at or above nu
        top = t_top[tr]
        t = np.ceil(np.minimum(np.maximum((nu - mu0) / dmu, 0.0), top)).astype(np.int64)
        cur, prev = bids(np.arange(tr.size), mu0 + t * dmu), np.zeros((tr.size, n))
        up = (t < top) & (_sum(cur) > budget)
        moved, moves = up.copy(), 0
        while up.any():
            i = np.flatnonzero(up)
            prev[i], t[i], moves = cur[i], t[i] + 1, moves + i.size
            cur[i] = bids(i, mu0 + t[i] * dmu)
            up[i] = (t[i] < top[i]) & (_sum(cur[i]) > budget[i])
        i = np.flatnonzero(~moved & (t > 0))
        prev[i] = bids(i, mu0 + (t[i] - 1) * dmu)
        down = ~moved & (t > 0) & (_sum(prev) <= budget)
        while down.any():
            i = np.flatnonzero(down)
            cur[i], t[i], moves = prev[i], t[i] - 1, moves + i.size
            j = i[t[i] > 0]
            prev[j] = bids(j, mu0 + (t[j] - 1) * dmu)
            down[i] = (t[i] > 0) & (_sum(prev[i]) <= budget[i])
        e_fin = np.zeros((tr.size, n))
        i = np.flatnonzero(t > 0)
        e_fin[i] = _prr(budget[i], cur[i], prev[i])
        # from here on (budget, trial, pair) arrays, broadcast against the trials'
        shape = (len(budgets), n_t)
        e_star, e_fin, budget = (v.reshape(shape + v.shape[1:]) for v in (e_star, e_fin, budget))

        def tau_of(e):
            if not np.all((0.0 <= e) & (e < p_pb)):
                raise DomainError("e_pb must lie in [0, p_pb)")
            zs, tau_p = (z_dag - 1.0) * sig, e / p_pb
            return np.where(e <= e_lim, np.maximum(
                (zs - g * eta * e * k) / (zs + g * g * eta * params.p_ap), tau_p), tau_p)

        def welfare(tau, e):
            # social_welfare's checks; its ordering check implies throughput's
            if not np.all((0.0 <= e / p_pb) & (e / p_pb <= tau) & (tau < 1.0)):
                raise DomainError("need 0 <= e_pb / p_pb <= tau < 1")
            if np.any(_sum(e) > budget * (1.0 + 1e-9) + 1e-12):
                raise DomainError("total beacon energy exceeds the budget")
            snr = g * (eta * (tau * params.p_ap * g + e * k)) / ((1.0 - tau) * sig)
            rate = (1.0 - tau) * params.bandwidth_mhz * np.log1p(snr) / LN2
            # no charging time, zero rate
            return _sum(np.where(tau != 0.0, np.asarray(params.weights) * rate, 0.0))
        tau_star, tau_fin = tau_of(e_star), tau_of(e_fin)
        w_star, w_fin = welfare(tau_star, e_star), welfare(tau_fin, e_fin)
        gap = np.abs(_sum(e_star) - budget) / np.where(budget > 0.0, budget, 1.0)
    log.debug(
        "lanes: n=%d slack=%d cap=%d binds=%d ulp=%d rf_steps=%d newton_iters=%d "
        "ladder_moves=%d budget_residual=%.3g", tr.size, slack.sum(), cap.sum(), n_binds,
        n_ulp, rf_steps, stats["newton"], moves, gap[~slack.reshape(shape)].max(initial=0.0))
    return Lanes(nu.reshape(shape), e_star, tau_star, w_star, e_fin, tau_fin,
                 (t == 0).reshape(shape), (t + 1).reshape(shape), w_fin)
