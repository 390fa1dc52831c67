"""Independent oracles and helpers shared across the test suite.

A plain module, not a ``conftest``: the tests import it by name, which a
second ``conftest`` elsewhere in one pytest run would shadow.
"""

import dataclasses
import gc
import json
import math
import tracemalloc
from typing import NamedTuple

import mpmath
import numpy as np
from scipy.optimize import Bounds, LinearConstraint, minimize

from pbwpcn import PairChannel, SystemParams, derive_pair, gamma
from pbwpcn.experiments import pathloss

LN2 = math.log(2.0)


def jsonl(records) -> str:
    """The records as JSON lines, joined without a trailing newline."""
    return "\n".join(json.dumps(r) for r in records)


class RoundBytes(NamedTuple):
    held: float  # bytes still allocated after the call, while its result is alive
    peak: float  # tracemalloc's peak during the call


def bytes_per_round(run) -> RoundBytes:
    """``tracemalloc`` bytes of ``run()`` per round of the auction it returns."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = run()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    outcome = result[0] if isinstance(result, tuple) else result
    return RoundBytes(
        (held - before) / outcome.rounds_used, (peak - before) / outcome.rounds_used
    )


def random_instance(rng, n_pairs, budget_frac=None):
    """Random Rayleigh-like instance at the default constants.

    budget_frac scales the beacon budget against the sum of per-pair optima;
    None draws it uniformly in (0.1, 0.9) so the budget binds.
    """
    g = 1e-5 * rng.exponential(size=n_pairs)
    k = 1e-5 * rng.gamma(4.0, size=n_pairs)
    channels = [PairChannel(float(a), float(b)) for a, b in zip(g, k)]
    params = SystemParams(
        bandwidth_mhz=0.1,
        noise_w=1e-11,
        eta=0.5,
        p_ap=1.0,
        p_pb=2.0,
        weights=(10.0,) * n_pairs,
        e_b_tot=1.0,
    )
    deriveds = [derive_pair(params, ch, w) for ch, w in zip(channels, params.weights)]
    e_opt_sum = math.fsum(d.e_opt for d in deriveds)
    frac = budget_frac if budget_frac is not None else float(rng.uniform(0.1, 0.9))
    params = dataclasses.replace(params, e_b_tot=frac * e_opt_sum)
    return params, channels, deriveds


def demand_oracle(params, ch, d):
    """One pair's scalar demand oracle: ``bid(nu) -> energy``.

    Zero at or above the pair's cap, ``gamma(nu)`` below it; the reference
    for the array bids.
    """

    def bid(nu):
        return 0.0 if nu >= d.alpha else gamma(params, ch, d, nu)

    return bid


def draw_channels_reference(cfg, trial):
    """One trial's channels, each pair from a fresh ``Philox`` seeded by
    ``SeedSequence((seed, trial, pair))``: the reference for ``draw_trials``,
    which derives the same keys in arrays."""
    l_ap = pathloss(cfg.d_ap_src, cfg.pathloss_zeta)
    l_pb = pathloss(cfg.d_pb_src, cfg.pathloss_zeta)
    channels = []
    for pair in range(cfg.n_pairs):
        rng = np.random.Generator(
            np.random.Philox(np.random.SeedSequence((cfg.seed, trial, pair)))
        )
        h = rng.standard_normal(2)
        g = l_ap * 0.5 * float(h @ h)
        hk = rng.standard_normal(2 * cfg.antennas_m)
        k = l_pb * 0.5 * float(hk @ hk)
        channels.append(PairChannel(g_pow=g, k_pow=k))
    return channels


def mp_z_minus_1(x_target, y_coef):
    """z - 1 for the root z > 1 of z*ln(z) + (Y - 1)*z + 1 = X, at 40 digits.

    With z = exp(t) the equation reads (t + Y - 1)*exp(t + Y - 1) =
    (X - 1)*exp(Y - 1), so t is a Lambert W away; an oracle for ``solve_z``
    that shares no code or method with it.  Inputs are taken as exact.
    """
    with mpmath.workdps(40):
        x, y = mpmath.mpf(x_target), mpmath.mpf(y_coef)
        w = mpmath.lambertw((x - 1) * mpmath.exp(y - 1))
        return mpmath.expm1(mpmath.re(w) + 1 - y)


def weighted_rate_grid(params, ch, weight, tau_grid, e_pb):
    """Vectorized weighted throughput over a grid of charging times."""
    s = 1.0 - tau_grid
    harvested = params.eta * (tau_grid * params.p_ap * ch.g_pow + e_pb * ch.k_pow)
    snr = ch.g_pow * harvested / (s * params.noise_w)
    return weight * params.bandwidth_mhz * s * np.log1p(snr) / LN2


def pair_value_grid(params, ch, d, weight, e_grid):
    """Vectorized best-time welfare of one pair over a grid of energies.

    Direct piecewise evaluation from the derived constants, independent of
    the scalar s_of_e implementation path.
    """
    e = np.asarray(e_grid, dtype=float)
    lam_w = weight * params.bandwidth_mhz
    lin = (
        lam_w * ch.g_pow * params.eta * (params.p_ap * ch.g_pow + e * ch.k_pow)
        / (d.z_dag * params.noise_w * LN2)
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = d.x_const * e / (params.p_pb - e)
        logpart = lam_w * (1.0 - e / params.p_pb) * np.log1p(ratio) / LN2
    return np.where(e <= d.e_lim, lin, logpart)


def convex_solver_welfare(params, channels):
    """Generic projected convex solve of the joint time/energy problem.

    SLSQP with analytic gradients on the raw weighted sum-throughput; used
    as the optimality oracle for the water-filling allocator.
    """
    n = len(channels)
    ppb = params.p_pb
    g = np.array([c.g_pow for c in channels])
    k = np.array([c.k_pow for c in channels])
    lam = np.array(params.weights)
    c = g * params.eta / params.noise_w
    scale = lam * params.bandwidth_mhz / LN2

    def neg_with_grad(xv):
        tau = np.clip(xv[:n], 1e-9, 1.0 - 1e-9)
        e = np.clip(xv[n:], 0.0, None)
        s = 1.0 - tau
        u = c * (tau * params.p_ap * g + e * k)
        val = scale * s * np.log1p(u / s)
        dtau = scale * (-np.log1p(u / s) + (c * params.p_ap * g * s + u) / (s + u))
        de = scale * c * k * s / (s + u)
        return -val.sum(), -np.concatenate([dtau, de])

    x0 = np.concatenate(
        [np.full(n, 0.5), np.full(n, min(params.e_b_tot / max(n, 1), 0.4))]
    )
    x0[n:] = np.minimum(x0[n:], 0.5 * ppb * x0[:n])
    a_mat = np.zeros((n + 1, 2 * n))
    for i in range(n):
        a_mat[i, i] = ppb
        a_mat[i, n + i] = -1.0
    a_mat[n, n:] = -1.0
    constraint = LinearConstraint(
        a_mat,
        np.concatenate([np.zeros(n), [-params.e_b_tot]]),
        np.full(n + 1, np.inf),
    )
    bounds = Bounds(
        np.concatenate([np.full(n, 1e-8), np.zeros(n)]),
        np.concatenate([np.full(n, 1.0 - 1e-8), np.full(n, ppb - 1e-9)]),
    )
    result = minimize(
        neg_with_grad,
        x0,
        jac=True,
        method="SLSQP",
        constraints=[constraint],
        bounds=bounds,
        options={"maxiter": 1000, "ftol": 1e-14},
    )
    return -result.fun


def grid_best_welfare(params, channels, deriveds, steps=200, rng=None):
    """Best welfare over a feasible grid of beacon-energy splits.

    Full cartesian grid for two pairs; for more pairs, random combinations
    of the same per-axis grid (a full cartesian product is combinatorially
    out of reach at this step count).
    """
    budget = params.e_b_tot
    n = len(channels)
    axis = np.linspace(0.0, budget, steps + 1)
    if n == 2:
        e1, e2 = np.meshgrid(axis, axis, indexing="ij")
        pts = np.stack([e1.ravel(), e2.ravel()], axis=1)
    else:
        rng = rng or np.random.default_rng(0)
        pts = axis[rng.integers(0, steps + 1, size=(40_000, n))]
    pts = pts[pts.sum(axis=1) <= budget + 1e-12]
    # clip each axis at the pair's own cap; larger energies are never optimal
    for i, d in enumerate(deriveds):
        np.minimum(pts[:, i], d.e_opt - 1e-12, out=pts[:, i])
    total = np.zeros(len(pts))
    for i, (ch, d, w) in enumerate(zip(channels, deriveds, params.weights)):
        total += pair_value_grid(params, ch, d, w, pts[:, i])
    return float(total.max())
