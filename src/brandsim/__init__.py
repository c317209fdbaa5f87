"""brandsim: a deterministic, seedable agent-based simulator of brand adoption.

Customers carry ragged wish profiles that evolve by verbatim slot copying
under peer, rank-gated and broadcast influence channels until the population
reaches consensus; brand dominance then follows from customer counts.
"""

from .config import (
    ConfigurationError,
    Mode,
    SimConfig,
    load_config,
    parse_config_text,
    shop_event_count,
)
from .dynamics import PairEvent, leader_step, shop_step, sweep
from .harness import (
    EnsembleSummary,
    RunResult,
    derive_child_seed,
    emit_csv,
    emit_summary,
    ensemble,
    run,
    sweep_param,
)
from .metrics import (
    TimeSeriesRecord,
    brand_shares,
    dominant_brand,
    fluctuation,
    snapshot,
)
from .model import (
    BrandProfile,
    NeedSchema,
    Population,
    distance,
    index_from_uniform,
    init_population,
    refresh_affiliations,
)

__version__ = "0.1.0"

__all__ = [
    "BrandProfile",
    "ConfigurationError",
    "EnsembleSummary",
    "Mode",
    "NeedSchema",
    "PairEvent",
    "Population",
    "RunResult",
    "SimConfig",
    "TimeSeriesRecord",
    "brand_shares",
    "derive_child_seed",
    "distance",
    "dominant_brand",
    "emit_csv",
    "emit_summary",
    "ensemble",
    "fluctuation",
    "index_from_uniform",
    "init_population",
    "leader_step",
    "load_config",
    "parse_config_text",
    "refresh_affiliations",
    "run",
    "shop_event_count",
    "shop_step",
    "snapshot",
    "sweep",
    "sweep_param",
    "__version__",
]
