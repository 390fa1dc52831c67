"""Command-line front end.

Subcommands: paper-instance, coop, auction, protocol, sweep.  A JSON config
file supplies defaults; command-line flags override it.  Exit codes: 0 on
success, 2 on configuration errors (an output path that cannot be written
among them), 1 on numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import math
import os
import sys

from .auction import AuctionConfig, run_auction, walk_top
from .coop import derive_pairs, waterfill
from .errors import ConvergenceError, DomainError, ProtocolError
from .experiments import (
    ExperimentConfig,
    _atomic_write,
    load_paper_instance,
    sweep,
    write_instance_csvs,
)
from .protocol import make_views, run_auction_protocol, run_coop_protocol

log = logging.getLogger("pbwpcn")

GOLDEN_ALPHA = (5.6834, 4.7802, 0.4543)
GOLDEN_E_LIM = (0.1676, 0.0989, 0.3299)
GOLDEN_E_OPT = (0.6325, 0.8307, 1.3247)

_CONFIG_KEYS = {
    "n_pairs": int,
    "d_ap_src": (int, float),
    "d_pb_src": (int, float),
    "pathloss_zeta": (int, float),
    "antennas_m": int,
    "trials": int,
    "seed": int,
    "e_b_tot_grid": list,
    "output_path": str,
    "reserve_price": (int, float),
    "price_step": (int, float),
    "e_b_tot": (int, float),
}


class ConfigError(Exception):
    pass


def load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:  # missing, a directory, unreadable
        raise ConfigError(f"cannot read config file {path}: {exc.strerror}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}: invalid JSON: {exc.msg}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top-level value must be an object")
    for key, value in data.items():
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"{path}: unknown config field {key!r}")
        # bool is an int subtype, but true is no trial count
        if isinstance(value, bool) or not isinstance(value, _CONFIG_KEYS[key]):
            raise ConfigError(
                f"{path}: field {key!r} has wrong type {type(value).__name__}"
            )
    if "e_b_tot_grid" in data:
        if not all(type(v) in (int, float) for v in data["e_b_tot_grid"]):
            raise ConfigError(f"{path}: e_b_tot_grid entries must be numbers")
        data["e_b_tot_grid"] = tuple(float(v) for v in data["e_b_tot_grid"])
    return data


def _multiset_close(computed, golden, rtol=1e-3) -> bool:
    a = sorted(computed)
    b = sorted(golden)
    return all(math.isclose(x, y, rel_tol=rtol) for x, y in zip(a, b))


def cmd_paper_instance(args, config) -> int:
    params, channels = load_paper_instance()
    deriveds = derive_pairs(params, channels)
    alphas = [d.alpha for d in deriveds]
    e_lims = [d.e_lim for d in deriveds]
    e_opts = [d.e_opt for d in deriveds]
    print("pair constants (index order):")
    print("  alpha  [utility/Joule]:", " ".join(f"{a:.4f}" for a in alphas))
    print("  E_lim  [Joule]        :", " ".join(f"{e:.4f}" for e in e_lims))
    print("  E_opt  [Joule]        :", " ".join(f"{e:.4f}" for e in e_opts))
    if args.check:
        ok = (
            _multiset_close(alphas, GOLDEN_ALPHA)
            and _multiset_close(e_lims, GOLDEN_E_LIM)
            and _multiset_close(e_opts, GOLDEN_E_OPT)
        )
        print("check:", "PASS" if ok else "FAIL")
        return 0 if ok else 1
    return 0


def _setting(flag, config, key, name=None) -> dict:
    """``{name: flag}``, else the config's ``key``, else {} for the callee's default."""
    value = flag if flag is not None else config.get(key)
    return {} if value is None else {name or key: value}


def cmd_coop(args, config) -> int:
    params, channels = load_paper_instance(**_setting(args.ebtot, config, "e_b_tot"))
    res = waterfill(params, channels)
    print(f"nu [utility/Joule]: {res.nu:.6f}")
    print("E* [Joule]        :", " ".join(f"{e:.6f}" for e in res.e_star))
    print("tau* [fraction]   :", " ".join(f"{t:.6f}" for t in res.tau_star))
    print(f"welfare [utility] : {res.welfare:.6f}")
    print(f"sum E* [Joule]    : {math.fsum(res.e_star):.10f}")
    return 0


def _auction_cfg(args, config) -> AuctionConfig:
    return AuctionConfig(
        **_setting(args.mu0, config, "reserve_price"),
        **_setting(args.delta, config, "price_step", "step"),
    )


def cmd_auction(args, config) -> int:
    params, channels = load_paper_instance(**_setting(args.ebtot, config, "e_b_tot"))
    outcome = run_auction(params, channels, _auction_cfg(args, config))
    if outcome.pb_quit:
        print("beacon quit the trade (aggregate demand within budget at reserve)")
    print("E~* [Joule]       :", " ".join(f"{e:.6f}" for e in outcome.e_final))
    print("tau~* [fraction]  :", " ".join(f"{t:.6f}" for t in outcome.tau_final))
    print("payments [utility]:", " ".join(f"{p:.6f}" for p in outcome.payment))
    print(f"beacon revenue    : {outcome.pb_utility:.6f}")
    print(f"rounds used       : {outcome.rounds_used}")
    if args.out:
        path = os.path.join(args.out, "auction_transcript.jsonl")
        _atomic_write(path, (json.dumps(row) + "\n" for row in outcome.log.rows()))
        print(f"transcript written to {path}")
    return 0


def cmd_protocol(args, config) -> int:
    params, channels = load_paper_instance(**_setting(args.ebtot, config, "e_b_tot"))
    pb_view, ap_views = make_views(params, channels)
    if args.which == "coop":
        result, bus = run_coop_protocol(pb_view, ap_views)
        print(f"nu: {result.nu:.6f}  rounds: {result.rounds}")
        print("E* [Joule]:", " ".join(f"{e:.6f}" for e in result.e_star))
    else:
        outcome, bus = run_auction_protocol(pb_view, ap_views, _auction_cfg(args, config))
        print(f"rounds: {outcome.rounds_used}  quit: {outcome.pb_quit}")
        print("E~* [Joule]:", " ".join(f"{e:.6f}" for e in outcome.e_final))
    lines = (json.dumps(m.to_record()) + "\n" for m in bus.messages())
    if args.out:
        path = os.path.join(args.out, f"protocol_{args.which}.jsonl")
        _atomic_write(path, lines)
        print(f"transcript written to {path}")
    else:
        sys.stdout.writelines(lines)
    return 0


def cmd_sweep(args, config) -> int:
    fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
    kwargs = {k: v for k, v in config.items() if k in fields}
    kwargs.update(_setting(args.trials, config, "trials"))
    kwargs.update(_setting(args.seed, config, "seed"))
    outdir = args.out or kwargs.get("output_path") or "out"
    kwargs["output_path"] = outdir
    cfg = ExperimentConfig(**kwargs)
    auc_cfg = cfg.auction_config
    # fig3 walks the sweep's ladder on the fixed instance: one too long to
    # walk is rejected here, before the sweep writes any CSV
    walk_top(derive_pairs(*load_paper_instance()), auc_cfg)
    log.info("sweep: %d trials, %d budget points", cfg.trials, len(cfg.e_b_tot_grid))
    records = sweep(cfg)
    write_instance_csvs(outdir, auc_cfg)
    print(f"{len(records)} sweep records written under {outdir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pbwpcn",
        description="Beacon-assisted wireless-powered network resource allocation",
    )
    parser.add_argument("--config", help="JSON config file")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("paper-instance", help="print the fixed-instance constants")
    p.add_argument("--check", action="store_true", help="verify against golden values")
    p.set_defaults(func=cmd_paper_instance)

    p = sub.add_parser("coop", help="water-filling allocation on the fixed instance")
    p.add_argument("--ebtot", type=float, help="beacon energy budget [Joule]")
    p.set_defaults(func=cmd_coop)

    ladder = argparse.ArgumentParser(add_help=False)
    ladder.add_argument("--ebtot", type=float, help="beacon energy budget [Joule]")
    ladder.add_argument("--delta", type=float, help="price step")
    ladder.add_argument("--mu0", type=float, help="reserve price")
    ladder.add_argument("--out", help="output directory for the transcript")

    p = sub.add_parser("auction", parents=[ladder],
                       help="clinching auction on the fixed instance")
    p.set_defaults(func=cmd_auction)

    p = sub.add_parser("protocol", parents=[ladder],
                       help="run the message-passing harness")
    p.add_argument("--which", choices=("coop", "auction"), default="coop")
    p.set_defaults(func=cmd_protocol)

    p = sub.add_parser("sweep", help="Monte Carlo sweep, CSV outputs")
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="output directory")
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    level = os.environ.get("PBWPCN_LOG", "WARNING")
    # getLevelName maps a level's name to its number, anything else to a string
    if not isinstance(logging.getLevelName(level.upper()), int):
        print(f"config error: PBWPCN_LOG={level!r} names no logging level", file=sys.stderr)
        return 2
    logging.basicConfig(level=level.upper())
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        return args.func(args, config)
    except (ConfigError, DomainError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ConvergenceError, ProtocolError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
