"""Channel generation and desk-scale Monte Carlo sweeps.

Channels are quasi-static flat Rayleigh with a distance path-loss of
1e-3 * d^-zeta (30 dB attenuation at 1 m).  Draws use counter-based Philox
substreams keyed by (seed, trial, pair), so results are reproducible and
adding trials or pairs never reshuffles earlier draws.
"""

from __future__ import annotations

import math
import os
import tempfile
from dataclasses import dataclass
from statistics import fmean

import numpy as np

from .auction import AuctionConfig, run_auction
from .batch import solve_lanes
from .coop import (  # derive_pair stays bound here: perfbench's tests restore it
    derive_pair, derive_pairs, tau_of_e, waterfill,
)
from .errors import DomainError
from .model import PairChannel, SystemParams, social_welfare


def table_params(e_b_tot: float = 1.0, n_pairs: int = 3) -> SystemParams:
    """Default system constants (Mbps units convention, see model docs)."""
    return SystemParams(
        bandwidth_mhz=0.1,
        noise_w=1e-11,
        eta=0.5,
        p_ap=1.0,
        p_pb=2.0,
        weights=(10.0,) * n_pairs,
        e_b_tot=e_b_tot,
    )


# the fixed 3-pair channel realization used for the single-instance figures
PAPER_G = (0.0446e-5, 0.1569e-5, 0.8628e-5)
PAPER_K = (0.1616e-4, 0.6486e-4, 0.4379e-4)


def load_paper_instance(e_b_tot: float = 1.0):
    """The fixed 3-pair instance with the default constants."""
    params = table_params(e_b_tot=e_b_tot, n_pairs=3)
    channels = [PairChannel(g, k) for g, k in zip(PAPER_G, PAPER_K)]
    return params, channels


@dataclass(frozen=True)
class ExperimentConfig:
    n_pairs: int = 3
    d_ap_src: float = 10.0
    d_pb_src: float = 10.0
    pathloss_zeta: float = 2.0
    antennas_m: int = 4
    trials: int = 1000
    seed: int = 0
    e_b_tot_grid: tuple[float, ...] = (0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0)
    output_path: str | None = None
    reserve_price: float = AuctionConfig.reserve_price
    price_step: float = AuctionConfig.step

    def __post_init__(self):
        if not 2.0 <= self.pathloss_zeta <= 5.0:
            raise DomainError("pathloss_zeta must lie in [2, 5]")
        if not (0.0 < self.d_ap_src < math.inf and 0.0 < self.d_pb_src < math.inf):
            raise DomainError("d_ap_src and d_pb_src must be positive and finite")
        for name in ("d_ap_src", "d_pb_src"):
            distance = getattr(self, name)
            try:
                loss = pathloss(distance, self.pathloss_zeta)
            except OverflowError:
                loss = math.inf
            if not 0.0 < loss < math.inf:
                raise DomainError(
                    f"{name}={distance} gives path loss {loss}, not a positive finite gain"
                )
        if self.trials < 1 or self.antennas_m < 1 or self.n_pairs < 1:
            raise DomainError("trials, antennas_m and n_pairs must be >= 1")
        if self.seed < 0:
            raise DomainError(f"seed must be >= 0, got {self.seed}")
        if not self.e_b_tot_grid or any(not 0.0 <= e < math.inf for e in self.e_b_tot_grid):
            raise DomainError("e_b_tot_grid must be non-empty, its entries nonnegative and finite")

    @property
    def auction_config(self) -> AuctionConfig:
        """The sweep's price ladder."""
        return AuctionConfig(reserve_price=self.reserve_price, step=self.price_step)


def pathloss(distance: float, zeta: float) -> float:
    return 1e-3 * distance ** (-zeta)


def draw_channels(cfg: ExperimentConfig, trial: int) -> list[PairChannel]:
    """One Rayleigh-fading realization for all pairs of a trial."""
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


@dataclass
class SweepRecord:
    e_b_tot: float
    mean_e_coop: float
    mean_e_auction: float
    mean_tau_coop: float
    mean_tau_auction: float
    welfare_coop: float
    welfare_auction: float
    welfare_nopb: float
    trials: int


def _nopb_welfare(params: SystemParams, channels, deriveds) -> float:
    """Welfare when the beacon stays silent; it does not depend on the budget."""
    taus = [tau_of_e(params, ch, d, 0.0) for ch, d in zip(channels, deriveds)]
    return social_welfare(params, channels, taus, [0.0] * len(channels))


def sweep(cfg: ExperimentConfig) -> list[SweepRecord]:
    """Monte Carlo means over the budget grid; writes CSVs when configured."""
    base = table_params(n_pairs=cfg.n_pairs)
    # derived constants do not depend on the budget: one table per trial
    all_channels = [draw_channels(cfg, t) for t in range(cfg.trials)]
    deriveds = [derive_pairs(base, channels) for channels in all_channels]
    welfare_nopb = fmean([_nopb_welfare(base, *trial) for trial in zip(all_channels, deriveds)])
    # every (trial, budget) in one batch; payments cancel between bidders and
    # the auctioneer, so the auction's welfare is its weighted sum-throughput
    lanes = solve_lanes(base, all_channels, deriveds, cfg.e_b_tot_grid, cfg.auction_config)
    # the lanes behind SweepRecord's means, in its field order
    columns = ("e_star", "e_final", "tau_star", "tau_final", "welfare", "welfare_auction")
    records = [
        SweepRecord(budget, *(fmean(getattr(lanes, c)[k].ravel().tolist()) for c in columns),
                    welfare_nopb, cfg.trials)
        for k, budget in enumerate(cfg.e_b_tot_grid)
    ]

    if cfg.output_path is not None:
        write_sweep_csvs(cfg, records)
    return records


def _atomic_write(path: str, chunks) -> None:
    # stream the text chunks to a sibling temp file and rename, so failures
    # leave no partial file
    directory = os.path.dirname(os.path.abspath(path))
    try:
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    except OSError as exc:  # a file in the directory's place, say
        raise DomainError(f"cannot write {path}: {exc.filename}: {exc.strerror}") from exc
    try:
        with os.fdopen(fd, "w") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException as exc:
        if os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, IsADirectoryError):  # a full disk, say, stays an OSError
            raise DomainError(f"cannot write {path}: {exc.strerror}") from exc
        raise


def _csv(rows):
    def fmt(v):
        if isinstance(v, float):
            return repr(v)  # shortest round-trip decimal
        return str(v)

    return (",".join(fmt(v) for v in row) + "\n" for row in rows)


def _write_csvs(outdir: str, tables) -> list[str]:
    """Write each (file name, rows) table under ``outdir``; returns the paths."""
    paths = []
    for name, rows in tables:
        path = os.path.join(outdir, name)
        _atomic_write(path, _csv(rows))
        paths.append(path)
    return paths


# the SweepRecord fields each sweep figure's CSV holds, in column order
_SWEEP_COLUMNS = (
    ("fig5_means.csv", ("e_b_tot", "mean_e_coop", "mean_e_auction",
                        "mean_tau_coop", "mean_tau_auction", "trials")),
    ("fig6_welfare.csv", ("e_b_tot", "welfare_coop", "welfare_auction",
                          "welfare_nopb", "trials")),
)


def write_sweep_csvs(cfg: ExperimentConfig, records) -> list[str]:
    """fig5 (per-pair means) and fig6 (welfare) data files."""
    return _write_csvs(cfg.output_path, [
        (name, [list(cols)] + [[getattr(r, c) for c in cols] for r in records])
        for name, cols in _SWEEP_COLUMNS
    ])


# the fig4 budgets: 0 to 3.4 J in steps of 0.2 J
_FIG4_BUDGETS = tuple(round(0.2 * k, 10) for k in range(0, 18))


def write_instance_csvs(outdir: str, auc_cfg: AuctionConfig = AuctionConfig()) -> list[str]:
    """fig3 (convergence traces) and fig4 (allocation vs budget) data files
    for the fixed 3-pair instance, the auction on the ladder ``auc_cfg``."""
    params, channels = load_paper_instance(e_b_tot=1.0)

    coop = waterfill(params, channels)
    auction = run_auction(params, channels, auc_cfg)
    n = params.n_pairs
    rows3 = [["scenario", "round", "price"] + [f"bid_{i+1}" for i in range(n)] + ["aggregate"]]
    for scenario, log in (("coop", coop.log), ("auction", auction.log)):
        for r, price, bids in log.rounds():
            rows3.append([scenario, r, price] + bids + [math.fsum(bids)])

    rows4e = [["e_b_tot"] + [f"e_coop_{i+1}" for i in range(n)] + [f"e_auction_{i+1}" for i in range(n)]]
    rows4t = [["e_b_tot"] + [f"tau_coop_{i+1}" for i in range(n)] + [f"tau_auction_{i+1}" for i in range(n)]]
    lanes = solve_lanes(
        params, [channels], [derive_pairs(params, channels)], _FIG4_BUDGETS, auc_cfg
    )
    for k, budget in enumerate(_FIG4_BUDGETS):
        rows4e.append([budget] + lanes.e_star[k, 0].tolist() + lanes.e_final[k, 0].tolist())
        rows4t.append([budget] + lanes.tau_star[k, 0].tolist() + lanes.tau_final[k, 0].tolist())

    return _write_csvs(outdir, [
        ("fig3_convergence.csv", rows3),
        ("fig4_energy.csv", rows4e),
        ("fig4_time.csv", rows4t),
    ])
