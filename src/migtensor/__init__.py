"""Migration count tensors from geo-tagged event streams.

The package turns per-user event streams into monthly residence series,
detects country-to-country moves, aggregates them into a sparse
origin x destination x month count tensor, factorizes that tensor with a
non-negative Poisson CP decomposition, and ranks the recovered components
by how unevenly their activity concentrates in time.
"""

from .analysis import ComponentReport, DegenerateComponentWarning, gini, rank_components
from .ingestion import (
    CentroidTable,
    ConfigError,
    CountryRegistry,
    FilterPolicy,
    GeoEvent,
    InputError,
    filter_users,
    load_centroids,
    load_registry,
    parse_events,
    resolve_country,
    resolve_events,
    save_registry,
)
from .residence import (
    MigrationEvent,
    MonthCalendar,
    ResidenceSeries,
    detect_all,
    detect_migrations,
    monthly_residence,
)
from .solver import (
    FactorModel,
    FitConfig,
    FitTrace,
    fit,
    init_factors,
    load_model,
    log_likelihood,
    mode_update,
    save_model,
)
from .synth import PlantedComponent, SynthSpec, generate_synthetic, load_synth_spec
from .tensor import MigrationTensor, build_tensor, load_tensor, mode_marginals, save_tensor

__all__ = [
    "CentroidTable",
    "ComponentReport",
    "ConfigError",
    "CountryRegistry",
    "DegenerateComponentWarning",
    "FactorModel",
    "FilterPolicy",
    "FitConfig",
    "FitTrace",
    "GeoEvent",
    "InputError",
    "MigrationEvent",
    "MigrationTensor",
    "MonthCalendar",
    "PlantedComponent",
    "ResidenceSeries",
    "SynthSpec",
    "build_tensor",
    "detect_all",
    "detect_migrations",
    "filter_users",
    "fit",
    "generate_synthetic",
    "gini",
    "init_factors",
    "load_centroids",
    "load_model",
    "load_registry",
    "load_synth_spec",
    "load_tensor",
    "log_likelihood",
    "mode_marginals",
    "mode_update",
    "monthly_residence",
    "parse_events",
    "rank_components",
    "resolve_country",
    "resolve_events",
    "save_model",
    "save_registry",
    "save_tensor",
]

__version__ = "0.1.0"
