"""The three benchmark workloads: input generation, one op, and its output checks.

Every op calls into ``pbwpcn`` through module attributes (``coop.waterfill``,
never a name imported from it), so the tracing wrappers that ``tracer``
installs at those attributes see the calls.  Each ``check_*`` function returns
a list of failure names; an empty list means the op's outputs are correct.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import math
import os
import shutil

from pbwpcn import auction, cli, coop, experiments, protocol

SWEEP_TRIALS = 100
SWEEP_CSVS = (
    "fig3_convergence.csv",
    "fig4_energy.csv",
    "fig4_time.csv",
    "fig5_means.csv",
    "fig6_welfare.csv",
)
SWEEP_GRID_POINTS = len(experiments.ExperimentConfig().e_b_tot_grid)

COOP_PAIRS = 200
COOP_BUDGET_FRACTIONS = (0.2, 0.5, 0.8)

AUCTION_PAIRS = (3, 4, 5, 6, 7, 8)
AUCTION_BUDGET_FRACTION = 0.5
AUCTION_CFG = auction.AuctionConfig(reserve_price=0.001, step=1e-3)

# tolerances of the output checks
WELFARE_RTOL = 1e-9
COOP_BUDGET_RTOL = 1e-9
KKT_RTOL = 1e-6
COOP_AGREE_RTOL = 1e-10
AUCTION_BUDGET_RTOL = 1e-12
AUCTION_AGREE_RTOL = 1e-10
FAST_AGREE_RTOL = 1e-9


def max_rel_gap(a, b) -> float:
    """Largest elementwise |a - b|, relative to the largest magnitude in a or b;
    infinite when the lengths differ or a value is not finite."""
    if len(a) != len(b) or not all(math.isfinite(x) for x in (*a, *b)):
        return math.inf
    scale = max(max(abs(x) for x in a), max(abs(x) for x in b))
    gap = max(abs(x - y) for x, y in zip(a, b))
    return gap / scale if scale > 0.0 else gap


def draw_instance(seed: int, trial: int, n_pairs: int, budget_fraction: float):
    """(params, channels) of one trial, with budget = fraction * sum of E_opt."""
    channels = experiments.draw_channels(
        experiments.ExperimentConfig(n_pairs=n_pairs, seed=seed), trial=trial
    )
    params = experiments.table_params(n_pairs=n_pairs)
    e_opt_sum = math.fsum(
        coop.derive_pair(params, ch, w).e_opt for ch, w in zip(channels, params.weights)
    )
    return dataclasses.replace(params, e_b_tot=budget_fraction * e_opt_sum), channels


class Workload:
    """Op ``k`` runs on ``inputs(k)``; ``check`` names what its outputs got wrong."""

    name = ""

    def __init__(self, seed: int, workdir: str):
        self.seed = seed

    def inputs(self, k: int):
        raise NotImplementedError

    def run(self, inp):
        raise NotImplementedError

    def check(self, inp, out) -> list[str]:
        raise NotImplementedError

    def cleanup(self, inp):
        """Release what ``inputs`` made for one op."""

    def close(self):
        """Release what the workload made for the whole run."""


class SweepPaper(Workload):
    """``pbwpcn sweep`` at the paper configuration, in process, one op per seed."""

    name = "sweep_paper"

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        self.workdir = os.path.join(workdir, f"sweep-{os.getpid()}")

    def inputs(self, k: int):
        outdir = os.path.join(self.workdir, f"op{k}")
        shutil.rmtree(outdir, ignore_errors=True)
        os.makedirs(outdir)
        argv = ["sweep", "--trials", str(SWEEP_TRIALS), "--seed", str(self.seed + k),
                "--out", outdir]
        return argv, outdir

    def run(self, inp):
        argv, outdir = inp
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv), outdir

    def check(self, inp, out) -> list[str]:
        return check_sweep(*out)

    def cleanup(self, inp):
        shutil.rmtree(inp[1], ignore_errors=True)

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def check_sweep(exit_code: int, outdir: str) -> list[str]:
    failures = []
    if exit_code != 0:
        failures.append("exit_code")
    missing = [n for n in SWEEP_CSVS if not os.path.isfile(os.path.join(outdir, n))]
    if missing:
        return failures + ["csv_missing"]
    _, rows5 = _read_csv(os.path.join(outdir, "fig5_means.csv"))
    header6, rows6 = _read_csv(os.path.join(outdir, "fig6_welfare.csv"))
    if len(rows5) != SWEEP_GRID_POINTS or len(rows6) != SWEEP_GRID_POINTS:
        failures.append("csv_rows")
    col = {name: i for i, name in enumerate(header6)}
    w_coop = [float(r[col["welfare_coop"]]) for r in rows6]
    w_auc = [float(r[col["welfare_auction"]]) for r in rows6]
    w_nopb = [float(r[col["welfare_nopb"]]) for r in rows6]
    # written as "not all(... >= ...)" so that a NaN fails the check
    if not all(c >= max(a, n) - WELFARE_RTOL * max(abs(a), abs(n))
               for c, a, n in zip(w_coop, w_auc, w_nopb)):
        failures.append("welfare_order")
    if not all(b >= a - WELFARE_RTOL * abs(a) for a, b in zip(w_coop, w_coop[1:])):
        failures.append("welfare_monotone")
    return failures


class CoopDense(Workload):
    """One 200-pair instance solved by ``waterfill`` and by ``run_coop_protocol``."""

    name = "coop_dense"

    def inputs(self, k: int):
        frac = COOP_BUDGET_FRACTIONS[k % len(COOP_BUDGET_FRACTIONS)]
        return draw_instance(self.seed, k, COOP_PAIRS, frac)

    def run(self, inp):
        params, channels = inp
        pooled = coop.waterfill(params, channels)
        proto, _ = protocol.run_coop_protocol(*protocol.make_views(params, channels))
        return pooled, proto

    def check(self, inp, out) -> list[str]:
        return check_coop(*inp, *out)


def coop_residuals(params, channels, result) -> tuple[float, float]:
    """(relative budget residual, worst relative KKT residual over interior pairs)."""
    budget = params.e_b_tot
    budget_res = abs(math.fsum(result.e_star) - budget) / budget
    kkt = 0.0
    for ch, w, e in zip(channels, params.weights, result.e_star):
        d = coop.derive_pair(params, ch, w)
        if d.e_lim < e < params.p_pb and result.nu > 0.0:
            grad = coop.grad_s(params, ch, d, e)
            kkt = max(kkt, abs(grad - result.nu) / result.nu)
    return budget_res, kkt


def check_coop(params, channels, pooled, proto) -> list[str]:
    failures = []
    budget_res, kkt = coop_residuals(params, channels, pooled)
    if not budget_res <= COOP_BUDGET_RTOL:
        failures.append("budget")
    if not kkt <= KKT_RTOL:
        failures.append("kkt")
    if not (abs(pooled.nu - proto.nu) <= COOP_AGREE_RTOL * abs(pooled.nu)
            and max_rel_gap(pooled.e_star, proto.e_star) <= COOP_AGREE_RTOL):
        failures.append("pooled_vs_protocol")
    return failures


class AuctionLadder(Workload):
    """One 3..8-pair instance: ladder auction, its protocol, and the fast path."""

    name = "auction_ladder"

    def inputs(self, k: int):
        n = AUCTION_PAIRS[k % len(AUCTION_PAIRS)]
        return draw_instance(self.seed, k, n, AUCTION_BUDGET_FRACTION)

    def run(self, inp):
        params, channels = inp
        ladder = auction.run_auction(params, channels, AUCTION_CFG)
        proto, _ = protocol.run_auction_protocol(
            *protocol.make_views(params, channels), AUCTION_CFG
        )
        fast = auction.auction_allocation(params, channels, AUCTION_CFG)
        return ladder, proto, fast

    def check(self, inp, out) -> list[str]:
        return check_auction(inp[0], *out)


def check_auction(params, ladder, proto, fast) -> list[str]:
    failures = []
    e_fast, _, _, rounds_fast = fast
    budget = params.e_b_tot
    if not all(abs(math.fsum(e) - budget) <= AUCTION_BUDGET_RTOL * budget
               for e in (ladder.e_final, proto.e_final, e_fast)):
        failures.append("budget_clear")
    if not max_rel_gap(ladder.e_final, proto.e_final) <= AUCTION_AGREE_RTOL:
        failures.append("pooled_vs_protocol")
    if not max_rel_gap(ladder.e_final, e_fast) <= FAST_AGREE_RTOL:
        failures.append("fast_vs_ladder")
    if not ladder.rounds_used == proto.rounds_used == rounds_fast:
        failures.append("rounds_equal")
    return failures


WORKLOADS = {w.name: w for w in (SweepPaper, CoopDense, AuctionLadder)}
