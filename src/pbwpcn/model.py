"""Physical layer model: harvested energy, uplink throughput, social welfare.

Units convention
----------------
Noise power is stored in Watt (e.g. -80 dBm -> 1e-11 W) and the bandwidth in
MHz, so throughput comes out in Mbps.  With the default parameters
(bandwidth 0.1 MHz, weight 10 per Mbps) the product weight * bandwidth is 1,
which is the normalization that reproduces the published per-pair price caps.
The block length is one second, so energy in Joule and power in Watt coincide
over a block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

LN2 = math.log(2.0)


@dataclass(frozen=True)
class SystemParams:
    """Global constants shared by every AP-source pair.

    bandwidth_mhz : channel bandwidth in MHz (Mbps convention, see module doc)
    noise_w       : noise power in Watt
    eta           : energy conversion efficiency, in (0, 1)
    p_ap          : transmit power of each AP, Watt
    p_pb          : per-band transmit power of the power beacon, Watt
    weights       : per-pair gain per unit throughput (utility per Mbps)
    e_b_tot       : total energy budget of the power beacon, Joule
    """

    bandwidth_mhz: float
    noise_w: float
    eta: float
    p_ap: float
    p_pb: float
    weights: tuple[float, ...]
    e_b_tot: float

    def __post_init__(self):
        if not 0.0 < self.eta < 1.0:
            raise DomainError(f"eta must be in (0, 1), got {self.eta}")
        for name in ("bandwidth_mhz", "noise_w", "p_ap", "p_pb"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise DomainError(f"{name} must be positive and finite")
        if len(self.weights) == 0 or any(not 0.0 < w < math.inf for w in self.weights):
            raise DomainError("weights must be positive, finite and non-empty")
        if not 0.0 <= self.e_b_tot < math.inf:
            raise DomainError(f"e_b_tot must be finite and >= 0, got {self.e_b_tot}")
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))

    @property
    def n_pairs(self) -> int:
        return len(self.weights)


@dataclass(frozen=True)
class PairChannel:
    """Equivalent power gains of one AP-source pair.

    g_pow : AP-to-source channel power gain
    k_pow : beacon-to-source gain, the squared norm of the MRT channel vector
    """

    g_pow: float
    k_pow: float

    def __post_init__(self):
        if not 0.0 < self.g_pow < math.inf:
            raise DomainError("g_pow must be positive and finite")
        if not 0.0 <= self.k_pow < math.inf:
            raise DomainError("k_pow must be nonnegative and finite")


def _row_sums(rows) -> list[float]:
    """``math.fsum`` of each row of a 2-D array, read as one flat list: a
    list per row would leave a block's worth of them in the free lists."""
    flat, n = rows.ravel().tolist(), rows.shape[1]
    return [math.fsum(flat[i:i + n]) for i in range(0, len(flat), n)]


def _require(ok, message: str, *values) -> None:
    """Raise ``DomainError(message)`` unless ``ok`` holds everywhere, filled
    with each of ``values`` at the first entry where it fails."""
    if not ok.all():
        raise DomainError(message.format(*(np.broadcast_to(v, ok.shape)[~ok][0] for v in values)))


def charging_times(params: SystemParams, g, k, z_dag, e_lim, e):
    """Optimal AP charging time of each pair for its beacon energy ``e``, over
    (..., pair) arrays of its gains and knee constants ``z_dag``, ``e_lim``."""
    e = np.asarray(e, dtype=float)
    _require((0.0 <= e) & (e < params.p_pb), "e_pb must lie in [0, p_pb), got {}", e)
    zs, tau_pb = (z_dag - 1.0) * params.noise_w, e / params.p_pb
    tau = (zs - g * params.eta * e * k) / (zs + g * g * params.eta * params.p_ap)
    # equal at the knee, where the quotient may round an ulp below e_pb / p_pb
    return np.where(e <= e_lim, np.maximum(tau, tau_pb), tau_pb)


def _rates(params: SystemParams, g, k, tau, e):
    harvested = params.eta * (tau * params.p_ap * g + e * k)
    snr = g * harvested / ((1.0 - tau) * params.noise_w)
    # log1p keeps precision when the SNR term is tiny
    return (1.0 - tau) * params.bandwidth_mhz * np.log1p(snr) / LN2


def rates(params: SystemParams, g, k, tau, e):
    """Achievable uplink rate in Mbps of each pair, over (..., pair) arrays: the
    source spends fraction ``tau`` charging, with beacon energy ``e``, and the
    rest transmitting with all it harvested."""
    tau, e = np.asarray(tau, dtype=float), np.asarray(e, dtype=float)
    _require((0.0 < tau) & (tau < 1.0), "tau must lie in (0, 1), got {}", tau)
    _require((0.0 <= e) & (e <= tau * params.p_pb * (1.0 + 1e-12)),
             "e_pb must lie in [0, tau * p_pb], got {}", e)
    return _rates(params, g, k, tau, e)


def welfares(params: SystemParams, g, k, tau, e, budget):
    """Weighted sum-throughput, by ``math.fsum``, of each row of (..., pair)
    AP charging times ``tau`` and beacon energies ``e``.  Every pair needs
    ``0 <= e / p_pb <= tau < 1`` (the beacon charges no longer than the AP),
    and a row's energies must fit its ``budget``.  A pair with ``tau == 0``
    has no charging time and adds nothing."""
    tau, e = np.asarray(tau, dtype=float), np.asarray(e, dtype=float)
    share, n = e / params.p_pb, e.shape[-1]
    _require((0.0 <= share) & (share <= tau) & (tau < 1.0),
             "need 0 <= e_pb / p_pb <= tau < 1, got tau={}, e_pb={}", tau, e)
    # a NumPy sum of n nonnegative terms is within (n - 1) u of their exact
    # total (Higham, Accuracy and Stability of Numerical Algorithms, 2002,
    # §4.2), so fsum has the verdict unless a row comes within 2 n eps of it
    limit = budget * (1.0 + 1e-9) + 1e-12
    if (e.sum(axis=-1) > limit * (1.0 - 2 * n * np.finfo(float).eps)).any():
        total = np.reshape(_row_sums(e.reshape(-1, n)), e.shape[:-1])
        _require(total <= limit, "total beacon energy {} exceeds budget {}", total, budget)
    # the ordering check implies ``rates``' checks wherever tau > 0
    rate = np.where(tau != 0.0, np.asarray(params.weights) * _rates(params, g, k, tau, e), 0.0)
    return np.reshape(_row_sums(rate.reshape(-1, n)), e.shape[:-1])


def throughput(params: SystemParams, ch: PairChannel, tau: float, e_pb: float) -> float:
    """Achievable uplink rate in Mbps for one pair: one entry of ``rates``."""
    return rates(params, ch.g_pow, ch.k_pow, tau, e_pb).item()


def social_welfare(params: SystemParams, channels, taus, energies) -> float:
    """Weighted sum-throughput over all pairs, after checking the allocation:
    ``welfares`` of one row, one entry per pair, at budget ``params.e_b_tot``."""
    if not len(params.weights) == len(channels) == len(taus) == len(energies):
        raise DomainError("weights, channels, taus and energies sizes differ")
    g, k = np.array([(ch.g_pow, ch.k_pow) for ch in channels]).T
    return welfares(params, g, k, taus, energies, params.e_b_tot).item()
