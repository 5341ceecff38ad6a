"""Run one migtensor CLI command with a span recorded around each layer call.

Usage (with ``PYTHONPATH`` pointing at the program's ``src``)::

    python bench/tracer.py SPANS_JSON RUN_ID -- <migtensor cli arguments>

Before the command runs, the public functions the pipeline calls are
replaced, on their modules and wherever the program holds another
reference to them (``from x import f`` names, the CLI's stage table), by
wrappers that record ``{name, start, end, parent, run_id}`` spans in
memory. The spans are written to SPANS_JSON when the command ends. Times
are ``time.perf_counter()`` seconds, which on Linux is CLOCK_MONOTONIC and
so comparable with the parent process's clock. A function the program no
longer has is skipped, and its spans are simply absent.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# (module, function) pairs wrapped: the functions a layer metric reads. The
# span name is "<module>.<function>", except for the stage functions, which
# become "pipeline.<stage>". Time a stage spends outside these spans
# (artifact I/O and glue) is its self time.
TRACED = (
    ("config", "load_config"),
    ("pipeline", "stage_ingest"),
    ("pipeline", "stage_residences"),
    ("pipeline", "stage_detect"),
    ("pipeline", "stage_tensorize"),
    ("pipeline", "stage_fit"),
    ("pipeline", "stage_analyze"),
    ("ingestion", "parse_events"),
    ("ingestion", "resolve_events"),
    ("ingestion", "filter_users"),
    ("ingestion", "serialize_events"),
    ("residence", "monthly_residence"),
    ("residence", "write_residences"),
    ("residence", "read_residences"),
    ("residence", "detect_migrations"),
    ("tensor", "build_tensor"),
    ("tensor", "save_tensor"),
    ("tensor", "load_tensor"),
    ("solver", "fit"),
    ("solver", "mode_update"),
    ("solver", "log_likelihood"),
    ("analysis", "rank_components"),
    ("analysis", "emit_reports"),
)

MODULES = ("cli", "config", "pipeline", "ingestion", "residence", "tensor",
           "solver", "analysis")


def _detail(name, args, kwargs, result):
    """Small per-call facts the layer metrics need, taken after the span ends."""
    if name == "solver.mode_update":
        return args[2] if len(args) > 2 else kwargs.get("mode")
    if name == "solver.log_likelihood":
        return result
    return None


class Tracer:
    """In-memory span recorder; spans are (name, start, end, parent, detail)."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []
        self._stack: list = []

    def wrap(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            index = len(self.spans)
            self.spans.append(None)
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent, None)
            self.spans[index] = (name, start, end, parent, _detail(name, args, kwargs, result))
            return result
        return traced

    def install(self, package: str = "migtensor") -> list:
        """Wrap every TRACED function; returns the names not found."""
        modules = [importlib.import_module(f"{package}.{m}") for m in MODULES]
        missing = []
        for module_name, attr in TRACED:
            module = importlib.import_module(f"{package}.{module_name}")
            fn = getattr(module, attr, None)
            if fn is None:
                missing.append(f"{module_name}.{attr}")
                continue
            name = (f"pipeline.{attr[len('stage_'):]}" if attr.startswith("stage_")
                    else f"{module_name}.{attr}")
            wrapped = self.wrap(fn, name)
            for namespace in [vars(m) for m in modules] + [
                    v for m in modules for v in vars(m).values() if isinstance(v, dict)]:
                for key, value in list(namespace.items()):
                    if value is fn:
                        namespace[key] = wrapped
        return missing

    def dump(self, path: str, missing: list) -> None:
        spans = [{"name": n, "start": s, "end": e, "parent": p, "run_id": self.run_id,
                  "detail": d} for n, s, e, p, d in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"run_id": self.run_id, "missing": missing, "spans": spans}, fh)


def main(argv: list) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    spans_path, run_id, cli_args = argv[0], argv[1], argv[3:]
    tracer = Tracer(run_id)
    missing = tracer.install()
    from migtensor import cli

    try:
        return cli.main(cli_args)
    finally:
        tracer.dump(spans_path, missing)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
