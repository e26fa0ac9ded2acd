"""The unified benchmark registry: versioned trajectory artifacts,
named benchmark runners, and the regression gate.

- :mod:`repro.bench.schema` -- entry/trajectory schemas, append-only
  IO and the compare gate.
- :mod:`repro.bench.registry` -- named benchmarks (``kernel.scale<N>``,
  ``chaos.storm``, ``mitigation.frontier``) that produce entries.
- :mod:`repro.bench.cli` -- ``repro bench run/compare/history/list``.
"""

from repro.bench.registry import (BENCHMARKS, UnknownBenchmark,
                                  benchmark_names, default_path,
                                  run_benchmark)
from repro.bench.schema import (DEFAULT_TOLERANCE, ENTRY_SCHEMA,
                                TRAJECTORY_SCHEMA, BenchSchemaError,
                                append_entry, best_entry,
                                comparable_entries, compare_entry,
                                empty_trajectory, history_rows,
                                load_trajectory, make_entry,
                                validate_entry, write_trajectory)

__all__ = [
    "BENCHMARKS", "BenchSchemaError", "DEFAULT_TOLERANCE",
    "ENTRY_SCHEMA", "TRAJECTORY_SCHEMA", "UnknownBenchmark",
    "append_entry", "benchmark_names", "best_entry",
    "comparable_entries", "compare_entry", "default_path",
    "empty_trajectory", "history_rows", "load_trajectory", "make_entry",
    "run_benchmark", "validate_entry", "write_trajectory",
]
