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


def throughput(params: SystemParams, ch: PairChannel, tau: float, e_pb: float) -> float:
    """Achievable uplink rate in Mbps for one pair.

    The source spends fraction ``tau`` charging and the rest transmitting
    with all harvested energy; ``e_pb`` is the beacon energy allotted to it.
    """
    if not 0.0 < tau < 1.0:
        raise DomainError(f"tau must lie in (0, 1), got {tau}")
    if e_pb < 0.0 or e_pb > tau * params.p_pb * (1.0 + 1e-12):
        raise DomainError(f"e_pb must lie in [0, tau * p_pb], got {e_pb}")
    harvested = params.eta * (tau * params.p_ap * ch.g_pow + e_pb * ch.k_pow)
    snr = ch.g_pow * harvested / ((1.0 - tau) * params.noise_w)
    # log1p keeps precision when the SNR term is tiny
    return (1.0 - tau) * params.bandwidth_mhz * math.log1p(snr) / LN2


def social_welfare(params: SystemParams, channels, taus, energies) -> float:
    """Weighted sum-throughput over all pairs, after checking the allocation.

    ``taus`` are the AP charging-time fractions and ``energies`` the beacon
    energies, one per pair.  Every pair needs ``0 <= e / p_pb <= tau < 1``
    (the beacon charges no longer than the AP), and the energies must fit the
    budget.  A pair with ``tau == 0`` has no charging time and adds nothing.
    """
    if not len(params.weights) == len(channels) == len(taus) == len(energies):
        raise DomainError("weights, channels, taus and energies sizes differ")
    for t, e in zip(taus, energies):
        if not 0.0 <= e / params.p_pb <= t < 1.0:
            raise DomainError(f"need 0 <= e_pb / p_pb <= tau < 1, got tau={t}, e_pb={e}")
    total = math.fsum(energies)
    if total > params.e_b_tot * (1.0 + 1e-9) + 1e-12:
        raise DomainError(f"total beacon energy {total} exceeds budget {params.e_b_tot}")
    return math.fsum(
        w * throughput(params, ch, t, e)
        for w, ch, t, e in zip(params.weights, channels, taus, energies)
        if t != 0.0
    )
