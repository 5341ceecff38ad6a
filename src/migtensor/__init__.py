"""Migration count tensors from geo-tagged event streams.

The package turns per-user event streams into monthly residences,
detects country-to-country moves, aggregates them into a sparse
origin x destination x month count tensor, factorizes that tensor with a
non-negative Poisson CP decomposition, and ranks the recovered components
by how unevenly their activity concentrates in time.

numpy runs single-threaded unless the environment says otherwise: the
package sets ``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` and
``MKL_NUM_THREADS`` to 1 where they are unset, before it imports numpy.
Its BLAS then starts no thread pool, the process keeps a single OS
thread, and ``fit`` and the event parser may share their work among
forked workers, one per usable CPU (see :mod:`migtensor.workers`). A
process that imported numpy before the package, or asked the environment
for BLAS threads, keeps those threads and does all its work in one
process.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

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
    "MigrationTensor",
    "MonthCalendar",
    "build_tensor",
    "detect_all",
    "filter_table",
    "fit",
    "gini",
    "load_centroids",
    "load_model",
    "load_registry",
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
