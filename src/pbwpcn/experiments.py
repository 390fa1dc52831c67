"""Channel generation and desk-scale Monte Carlo sweeps.

Channels are quasi-static flat Rayleigh with a distance path-loss of
1e-3 * d^-zeta (30 dB attenuation at 1 m).  Draws use counter-based Philox
substreams keyed by (seed, trial, pair) (Salmon et al., SC 2011), so results
are reproducible and adding trials or pairs never reshuffles earlier draws.
``draw_trials`` derives the keys of all its (trial, pair) streams at once by
``SeedSequence``'s two steps, ``mix_entropy`` and ``generate_state``, run over
arrays of streams, and re-keys one ``Philox`` for each stream;
``draw_channels`` is its one-trial view.
"""

from __future__ import annotations

import math
import operator
import os
import tempfile
from dataclasses import dataclass
from statistics import fmean

import numpy as np

from .auction import AuctionConfig, run_auction
from .batch import solve_lanes
from .coop import derive_pair, derive_pairs, waterfill  # perfbench's tests restore derive_pair
from .errors import DomainError
from .model import PairChannel, SystemParams, charging_times, welfares


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


# NumPy's SeedSequence (after M. E. O'Neill's seed_seq_fe): its hash
# multipliers with their starting values, and its mix multipliers
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R, _XSHIFT = 0xCA01F9DD, 0x4973F715, 16


def _seed_keys(entropy):
    """Column i: the two Philox key words ``SeedSequence`` makes of the uint32
    entropy words ``entropy[:, i]``, as (columns, 2) uint64.  The steps are
    ``mix_entropy`` and ``generate_state`` of ``numpy/random/bit_generator.pyx``,
    pool size 4, each word a uint32 array over the columns that wraps as C's."""
    hash_const = _INIT_A

    def hashmix(value, mult=_MULT_A):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * mult & _MASK32
        value *= hash_const
        value ^= value >> _XSHIFT
        return value

    def mix(x, y):
        result = x * _MIX_MULT_L - y * _MIX_MULT_R
        result ^= result >> _XSHIFT
        return result

    # mix_entropy: hash the entropy into the pool, zero past its end
    zero = np.zeros(entropy.shape[1], dtype=np.uint32)
    mixer = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(4)]
    # mix all bits together, so that late bits can affect earlier bits
    for i_src in range(4):
        for i_dst in range(4):
            if i_src != i_dst:
                mixer[i_dst] = mix(mixer[i_dst], hashmix(mixer[i_src]))
    # mix each entropy word past the pool into every pool word
    for i_src in range(4, len(entropy)):
        for i_dst in range(4):
            mixer[i_dst] = mix(mixer[i_dst], hashmix(entropy[i_src]))
    # generate_state: the pool hashed again, by the second hash; its uint32
    # words read as little-endian uint64 pairs
    hash_const = _INIT_B
    state = [hashmix(word, _MULT_B) for word in mixer]
    return np.stack(state, axis=1).astype("<u4", copy=False).view("<u8")


def _words(n):
    """The nonnegative int ``n`` in 32-bit words, low first, as SeedSequence
    splits an entropy int."""
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _philox_keys(seed, trials, n_pairs):
    """Key of stream (trial, pair) for each of ``trials`` and each pair below
    ``n_pairs``: ``SeedSequence((seed, trial, pair)).generate_state(2,
    np.uint64)``, as a (trials, pairs, 2) uint64 array."""
    seed_words, pair_words = _words(seed), [_words(p) for p in range(n_pairs)]
    rows = [seed_words + _words(t) + p for t in trials for p in pair_words]
    keys = np.empty((len(rows), 2), dtype=np.uint64)
    # seeds and trials from 2**32 up take more words: each entropy length apart
    for length in {len(r) for r in rows}:
        idx = [i for i, r in enumerate(rows) if len(r) == length]
        keys[idx] = _seed_keys(np.array([rows[i] for i in idx], dtype=np.uint32).T)
    return keys.reshape(len(trials), n_pairs, 2)


def draw_trials(cfg: ExperimentConfig, trials) -> list[list[PairChannel]]:
    """One Rayleigh-fading realization for all pairs of each of ``trials``,
    nonnegative trial indices; trial t's pairs draw the same bits in any
    batch."""
    trials = [operator.index(t) for t in trials]
    if any(t < 0 for t in trials):
        raise DomainError(f"trial indices must be >= 0, got {min(trials)}")
    l_ap = pathloss(cfg.d_ap_src, cfg.pathloss_zeta)
    l_pb = pathloss(cfg.d_pb_src, cfg.pathloss_zeta)
    bitgen = np.random.Philox(key=0)
    rng = np.random.Generator(bitgen)
    # each stream from its start: counter 0 and an empty output buffer
    state = {"bit_generator": "Philox", "state": {"counter": [0] * 4, "key": None},
             "buffer": [0] * 4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    draws = []
    for trial_keys in _philox_keys(cfg.seed, trials, cfg.n_pairs).tolist():
        channels = []
        for key in trial_keys:
            state["state"]["key"] = key
            bitgen.state = state
            h = rng.standard_normal(2)
            g = l_ap * 0.5 * float(h @ h)
            hk = rng.standard_normal(2 * cfg.antennas_m)
            k = l_pb * 0.5 * float(hk @ hk)
            channels.append(PairChannel(g_pow=g, k_pow=k))
        draws.append(channels)
    return draws


def draw_channels(cfg: ExperimentConfig, trial: int) -> list[PairChannel]:
    """One Rayleigh-fading realization for all pairs of a trial: the one-trial
    view of ``draw_trials``."""
    return draw_trials(cfg, (trial,))[0]


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


def sweep(cfg: ExperimentConfig) -> list[SweepRecord]:
    """Monte Carlo means over the budget grid; writes CSVs when configured."""
    base = table_params(n_pairs=cfg.n_pairs)
    # derived constants do not depend on the budget: one (trial, pair) table
    d = derive_pairs(base, draw_trials(cfg, range(cfg.trials)))
    # the welfare when the beacon stays silent does not depend on the budget
    silent = np.zeros(d.alpha.shape)
    taus = charging_times(base, d.g_pow, d.k_pow, d.z_dag, d.e_lim, silent)
    welfare_nopb = fmean(welfares(base, d.g_pow, d.k_pow, taus, silent, base.e_b_tot).tolist())
    # every (trial, budget) in one batch; payments cancel between bidders and
    # the auctioneer, so the auction's welfare is its weighted sum-throughput
    lanes = solve_lanes(base, d, cfg.e_b_tot_grid, cfg.auction_config)
    # the lanes behind SweepRecord's means, in its field order
    fields = ("e_star", "e_final", "tau_star", "tau_final", "welfare", "welfare_auction")
    records = [
        SweepRecord(budget, *(fmean(getattr(lanes, f)[k].ravel().tolist()) for f in fields),
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
    lanes = solve_lanes(params, derive_pairs(params, [channels]), _FIG4_BUDGETS, auc_cfg)
    for k, budget in enumerate(_FIG4_BUDGETS):
        rows4e.append([budget] + lanes.e_star[k, 0].tolist() + lanes.e_final[k, 0].tolist())
        rows4t.append([budget] + lanes.tau_star[k, 0].tolist() + lanes.tau_final[k, 0].tolist())

    return _write_csvs(outdir, [
        ("fig3_convergence.csv", rows3),
        ("fig4_energy.csv", rows4e),
        ("fig4_time.csv", rows4t),
    ])
