"""Migration count tensors from geo-tagged event streams.

The package turns per-user event streams into monthly residences,
detects country-to-country moves, aggregates them into a sparse
origin x destination x month count tensor, factorizes that tensor with a
non-negative Poisson CP decomposition, and ranks the recovered components
by how unevenly their activity concentrates in time.
"""

from .analysis import ComponentReport, DegenerateComponentWarning, gini, rank_components
from .events import (
    EventTable,
    InputError,
    read_events,
    write_events,
)
from .ingestion import (
    CentroidTable,
    ConfigError,
    CountryRegistry,
    FilterPolicy,
    filter_table,
    load_centroids,
    load_registry,
    save_registry,
)
from .residence import (
    MigrationEvent,
    MonthCalendar,
    detect_all,
    read_residences,
    residence_matrix,
)
from .solver import (
    FactorModel,
    FitConfig,
    FitTrace,
    fit,
    load_model,
    save_model,
)
from .synth import PlantedComponent, SynthSpec, generate_synthetic, load_synth_spec
from .tensor import MigrationTensor, build_tensor, load_tensor, save_tensor

__all__ = [
    "CentroidTable",
    "ComponentReport",
    "ConfigError",
    "CountryRegistry",
    "DegenerateComponentWarning",
    "EventTable",
    "FactorModel",
    "FilterPolicy",
    "FitConfig",
    "FitTrace",
    "InputError",
    "MigrationEvent",
    "MigrationTensor",
    "MonthCalendar",
    "PlantedComponent",
    "SynthSpec",
    "build_tensor",
    "detect_all",
    "filter_table",
    "fit",
    "generate_synthetic",
    "gini",
    "load_centroids",
    "load_model",
    "load_registry",
    "load_synth_spec",
    "load_tensor",
    "rank_components",
    "read_events",
    "read_residences",
    "residence_matrix",
    "save_model",
    "save_registry",
    "save_tensor",
    "write_events",
]

__version__ = "0.1.0"
