"""Outside-in tracing of pbwpcn's public functions, from the benchmark's own files.

The program is not edited.  Its modules import each other's functions by name
(``from .roots import solve_z``), so patching the defining module alone would
record nothing: ``Tracer.install`` replaces every module attribute of the
``pbwpcn`` package that is bound to a traced function, and ``Bus.send`` on its
class.  ``Tracer.uninstall`` puts the originals back.

A span covers one call: its name, start, end, the span that caused it and the
op (one workload operation) it belongs to.  Self time is a span's duration
minus the time its child spans cover.  Calls made once per pair and round are
aggregated per (name, parent name) instead of kept one span per call, so that
a traced run holds only thousands of spans in memory.  Spans are written out
when the run ends.

Counters that are not timings (rounds, messages, residuals) come from the
public outputs of the traced calls and are taken by hooks.  The time a hook and
the span bookkeeping take is excluded from every enclosing span.
"""

from __future__ import annotations

import contextlib
import importlib
import itertools
import json
import os
import sys
import time

from workloads import coop_residuals

# traced functions, "<module>.<attribute>" in the pbwpcn package
TRACED = (
    "roots.solve_z",
    "roots.lambert_w0",
    "coop.derive_pair",
    "coop.gamma",
    "coop.respond_to_price",
    "coop.price_search",
    "coop.waterfill",
    "auction.run_auction",
    "auction.best_response",
    "auction.cumulative_clinch",
    "auction.payment",
    "auction.auction_allocation",
    "protocol.run_coop_protocol",
    "protocol.run_auction_protocol",
    "protocol.Bus.send",
    "model.throughput",
    "model.social_welfare",
    "experiments.draw_channels",
    "experiments.sweep",
    "experiments.write_sweep_csvs",
    "experiments.write_instance_csvs",
    "cli.main",
)

# called per pair (and per round): aggregated per (name, parent name)
AGGREGATED = frozenset({
    "roots.solve_z",
    "roots.lambert_w0",
    "coop.derive_pair",
    "coop.gamma",
    "coop.respond_to_price",
    "auction.best_response",
    "auction.cumulative_clinch",
    "protocol.Bus.send",
    "model.throughput",
})

CALLS, SELF, RATIO = "calls/op", "s/op", "ratio"

# (name, unit, better) of every per-layer metric, in report order
PER_LAYER = (
    ("roots.solve_z.calls", CALLS, "lower"),
    ("roots.solve_z.self_s", SELF, "lower"),
    ("roots.lambert_w0.calls", CALLS, "lower"),
    ("roots.lambert_w0.self_s", SELF, "lower"),
    ("coop.derive_pair.calls", CALLS, "lower"),
    ("coop.derive_pair.self_s", SELF, "lower"),
    ("coop.derive_pair.calls_per_pair", "calls/pair", "lower"),
    ("coop.gamma.calls", CALLS, "lower"),
    ("coop.gamma.self_s", SELF, "lower"),
    ("coop.respond_to_price.calls", CALLS, "lower"),
    ("coop.respond_to_price.self_s", SELF, "lower"),
    ("coop.price_search.self_s", SELF, "lower"),
    ("coop.price_search.rounds_mean", "rounds", "lower"),
    ("coop.price_search.rounds_max", "rounds", "lower"),
    ("coop.waterfill.self_s", SELF, "lower"),
    ("coop.budget_residual_max", "fraction", "lower"),
    ("coop.kkt_residual_max", "fraction", "lower"),
    ("auction.run_auction.self_s", SELF, "lower"),
    ("auction.run_auction.rounds_mean", "rounds", "lower"),
    ("auction.best_response.calls", CALLS, "lower"),
    ("auction.best_response.self_s", SELF, "lower"),
    ("auction.cumulative_clinch.calls", CALLS, "lower"),
    ("auction.cumulative_clinch.self_s", SELF, "lower"),
    ("auction.payment.self_s", SELF, "lower"),
    ("auction.auction_allocation.self_s", SELF, "lower"),
    ("auction.auction_allocation.demand_evals", "evals/call", "lower"),
    ("auction.transcript_rows", "rows/call", "lower"),
    ("protocol.run_coop_protocol.self_s", SELF, "lower"),
    ("protocol.run_auction_protocol.self_s", SELF, "lower"),
    ("protocol.Bus.send.calls", CALLS, "lower"),
    ("protocol.Bus.send.self_s", SELF, "lower"),
    ("protocol.messages_per_round", "msgs/round", "lower"),
    ("model.throughput.calls", CALLS, "lower"),
    ("model.throughput.self_s", SELF, "lower"),
    ("model.social_welfare.self_s", SELF, "lower"),
    ("experiments.draw_channels.self_s", SELF, "lower"),
    ("experiments.sweep.self_s", SELF, "lower"),
    ("experiments.write_sweep_csvs.self_s", SELF, "lower"),
    ("experiments.write_instance_csvs.self_s", SELF, "lower"),
    ("experiments.csv_bytes", "bytes/op", "lower"),
    ("cli.main.self_s", SELF, "lower"),
    ("trace.overhead_ratio", RATIO, "lower"),
)


def _resolve(qualname):
    """(owner object, attribute name, original function) of a traced name."""
    module, _, attr = qualname.partition(".")
    owner = importlib.import_module(f"pbwpcn.{module}")
    if "." in attr:
        cls, attr = attr.split(".")
        owner = getattr(owner, cls)
    return owner, attr, getattr(owner, attr)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _mean(values):
    return sum(values) / len(values) if values else 0.0


class Tracer:
    """Spans and counters of the calls made inside ``op`` blocks."""

    def __init__(self):
        # (id, parent id, op, name, start, end, duration, self_s); duration
        # is end - start less the excluded hook and bookkeeping time
        self.spans = []
        self.aggregates = {}   # (name, parent name) -> [calls, total_s, self_s]
        self.ops = 0
        # the top frame None means "not recording": outside ops and in hooks
        self._stack = [None]
        self._next_id = itertools.count(1).__next__
        self._op = None
        self._restore = []
        self._op_pairs = set()
        self._fast_prices = set()
        self.distinct_pairs = 0
        self.price_rounds = []
        self.budget_residuals = []
        self.kkt_residuals = []
        self.auction_rounds = []
        self.transcript_rows = []
        self.demand_evals = []
        self.messages = 0
        self.protocol_rounds = 0
        self.csv_bytes = 0

    # -- installation -----------------------------------------------------

    def install(self):
        """Wrap every binding of every traced function; idempotent per tracer."""
        if self._restore:
            return
        hooks = {
            "coop.derive_pair": self._on_derive_pair,
            "coop.gamma": self._on_gamma,
            "coop.price_search": self._on_price_search,
            "coop.waterfill": self._on_waterfill,
            "auction.run_auction": self._on_run_auction,
            "auction.auction_allocation": self._on_auction_allocation,
            "protocol.run_coop_protocol": self._on_coop_protocol,
            "protocol.run_auction_protocol": self._on_auction_protocol,
            "experiments.write_sweep_csvs": self._on_csvs,
            "experiments.write_instance_csvs": self._on_csvs,
        }
        resolved = {qualname: _resolve(qualname) for qualname in TRACED}
        modules = [m for n, m in sys.modules.items()
                   if (n == "pbwpcn" or n.startswith("pbwpcn.")) and m is not None]
        for qualname, (owner, attr, original) in resolved.items():
            wrapper = self._wrap(qualname, original, hooks.get(qualname))
            owners = [owner] if isinstance(owner, type) else modules
            for target in owners:
                if target.__dict__.get(attr) is original:
                    setattr(target, attr, wrapper)
                    self._restore.append((target, attr, original))

    def uninstall(self):
        for target, attr, original in reversed(self._restore):
            setattr(target, attr, original)
        self._restore.clear()

    def _wrap(self, name, fn, hook):
        stack = self._stack
        clock = time.perf_counter
        aggregates = self.aggregates
        spans = self.spans
        next_id = self._next_id
        aggregated = name in AGGREGATED

        def traced(*args, **kwargs):
            parent = stack[-1]
            if parent is None:
                return fn(*args, **kwargs)
            # frame: name, start, child time, excluded time, span id
            frame = [name, 0.0, 0.0, 0.0, None if aggregated else next_id()]
            stack.append(frame)
            frame[1] = start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start - frame[3]
                self_s = duration - frame[2]
                parent[2] += duration
                parent[3] += frame[3]
                if aggregated:
                    agg = aggregates.get((name, parent[0]))
                    if agg is None:
                        aggregates[(name, parent[0])] = [1, duration, self_s]
                    else:
                        agg[0] += 1
                        agg[1] += duration
                        agg[2] += self_s
                else:
                    spans.append(
                        (frame[4], parent[4], self._op, name, start, end, duration, self_s))
            if hook is not None:
                stack.append(None)
                try:
                    hook(parent[0], args, kwargs, result)
                finally:
                    stack.pop()
            parent[3] += clock() - end
            return result

        traced.__wrapped__ = fn
        return traced

    # -- ops --------------------------------------------------------------

    @contextlib.contextmanager
    def op(self, k: int):
        """Record the calls made inside the block as spans of op ``k``."""
        root = ["op", 0.0, 0.0, 0.0, self._next_id()]
        self._op = k
        self._stack.append(root)
        root[1] = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            duration = end - root[1] - root[3]
            self.spans.append(
                (root[4], None, k, "op", root[1], end, duration, duration - root[2]))
            self.ops += 1
            self.distinct_pairs += len(self._op_pairs)
            self._op_pairs.clear()
            self._op = None

    # -- hooks: counters from the calls' public inputs and outputs --------

    def _on_derive_pair(self, parent, args, kwargs, result):
        ch = _arg(args, kwargs, 1, "ch")
        self._op_pairs.add((ch.g_pow, ch.k_pow, _arg(args, kwargs, 2, "weight")))

    def _on_gamma(self, parent, args, kwargs, result):
        if parent == "auction.auction_allocation":
            self._fast_prices.add(_arg(args, kwargs, 3, "nu"))

    def _on_auction_allocation(self, parent, args, kwargs, result):
        self.demand_evals.append(len(self._fast_prices))
        self._fast_prices.clear()

    def _on_price_search(self, parent, args, kwargs, result):
        self.price_rounds.append(result[2])

    def _record_coop(self, params, channels, result):
        # residuals are defined only where the budget binds
        if params.e_b_tot <= 0.0 or result.nu <= 0.0:
            return
        budget_res, kkt = coop_residuals(params, channels, result)
        self.budget_residuals.append(budget_res)
        self.kkt_residuals.append(kkt)

    def _on_waterfill(self, parent, args, kwargs, result):
        self._record_coop(
            _arg(args, kwargs, 0, "params"), _arg(args, kwargs, 1, "channels"), result
        )

    def _on_coop_protocol(self, parent, args, kwargs, result):
        result, bus = result
        views = _arg(args, kwargs, 1, "ap_views")
        self._record_coop(views[0].params, [v.channel for v in views], result)
        self.messages += len(bus.transcript)
        self.protocol_rounds += result.rounds

    def _on_run_auction(self, parent, args, kwargs, result):
        self.auction_rounds.append(result.rounds_used)
        self.transcript_rows.append(len(result.transcript))

    def _on_auction_protocol(self, parent, args, kwargs, result):
        outcome, bus = result
        self.messages += len(bus.transcript)
        self.protocol_rounds += outcome.rounds_used

    def _on_csvs(self, parent, args, kwargs, result):
        self.csv_bytes += sum(os.path.getsize(p) for p in result)

    # -- results ----------------------------------------------------------

    def totals(self):
        """name -> [calls, total_s, self_s] over every recorded call."""
        out = {}
        for _, _, _, name, _, _, duration, self_s in self.spans:
            t = out.setdefault(name, [0, 0.0, 0.0])
            t[0] += 1
            t[1] += duration
            t[2] += self_s
        for (name, _), (calls, total, self_s) in self.aggregates.items():
            t = out.setdefault(name, [0, 0.0, 0.0])
            t[0] += calls
            t[1] += total
            t[2] += self_s
        return out

    def metrics(self, overhead_ratio: float) -> dict:
        """Every PER_LAYER metric, as name -> value; calls and times per op."""
        ops = max(self.ops, 1)
        totals = self.totals()
        derived = {
            "coop.derive_pair.calls_per_pair":
                totals.get("coop.derive_pair", [0])[0] / max(self.distinct_pairs, 1),
            "coop.price_search.rounds_mean": _mean(self.price_rounds),
            "coop.price_search.rounds_max": max(self.price_rounds, default=0),
            "coop.budget_residual_max": max(self.budget_residuals, default=0.0),
            "coop.kkt_residual_max": max(self.kkt_residuals, default=0.0),
            "auction.run_auction.rounds_mean": _mean(self.auction_rounds),
            "auction.auction_allocation.demand_evals": _mean(self.demand_evals),
            "auction.transcript_rows": _mean(self.transcript_rows),
            "protocol.messages_per_round": self.messages / max(self.protocol_rounds, 1),
            "experiments.csv_bytes": self.csv_bytes / ops,
            "trace.overhead_ratio": overhead_ratio,
        }
        out = {}
        for name, unit, _ in PER_LAYER:
            if name in derived:
                out[name] = derived[name]
                continue
            func, _, field = name.rpartition(".")
            calls, _, self_s = totals.get(func, (0, 0.0, 0.0))
            out[name] = calls / ops if field == "calls" else self_s / ops
        return out

    def write(self, path: str):
        """Write every span and aggregate as JSON."""
        with open(path, "w") as fh:
            json.dump(
                {
                    "ops": self.ops,
                    "span_fields": ["id", "parent", "op", "name", "start", "end",
                                    "duration_s", "self_s"],
                    "spans": self.spans,
                    "aggregate_fields": ["name", "parent", "calls", "total_s", "self_s"],
                    "aggregates": [
                        [name, parent, *vals]
                        for (name, parent), vals in self.aggregates.items()
                    ],
                },
                fh,
            )
