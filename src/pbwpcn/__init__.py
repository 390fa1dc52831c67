"""Resource allocation for power-beacon-assisted wireless-powered networks.

A cooperative water-filling allocator and a non-cooperative ascending
clinching auction over the same physical model, plus a message-passing
harness and Monte Carlo experiment sweeps.
"""

from .model import PairChannel, SystemParams, social_welfare, throughput
from .roots import lambert_w0, solve_z
from .coop import (
    PairDerived,
    WaterfillResult,
    derive_pair,
    gamma,
    grad_s,
    respond_to_price,
    s_of_e,
    tau_of_e,
    waterfill,
)
from .auction import (
    AuctionConfig,
    AuctionOutcome,
    auction_allocation,
    best_response,
    cumulative_clinch,
    payment,
    run_auction,
)
from .protocol import make_views, run_auction_protocol, run_coop_protocol
from .experiments import (
    ExperimentConfig,
    SweepRecord,
    draw_channels,
    draw_trials,
    load_paper_instance,
    sweep,
)
from .errors import ConvergenceError, DomainError, ProtocolError

__version__ = "0.1.0"
