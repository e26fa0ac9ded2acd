"""Named benchmarks: one id -> one trajectory-entry producer.

The registry is what ``repro bench run --benchmark <id>`` dispatches
through.  Ids are dotted: the first segment is the **family** (which
picks the default ``BENCH_<family>.json`` trajectory file), the rest
names the cell.  ``kernel.scale<N>`` is parameterised -- any tenant
count is a valid id -- the rest are fixed cells with overridable
keyword parameters (``--set key=value`` on the CLI).
"""

import re
from typing import Any, Callable, Dict, List, Optional

from repro.bench.schema import make_entry

_KERNEL_SCALE = re.compile(r"^kernel\.scale(\d+)$")


class UnknownBenchmark(KeyError):
    """No registered benchmark matches the requested id."""


def default_path(benchmark: str) -> str:
    """The family trajectory file a benchmark appends to by default."""
    return f"BENCH_{benchmark.split('.', 1)[0]}.json"


# ---------------------------------------------------------------------------
# entry producers
# ---------------------------------------------------------------------------
def _kernel_benchmark(tenants: int, label: str, profile: bool,
                      **overrides: Any) -> Dict[str, Any]:
    from repro.analysis.benchkernel import kernel_entry, run_kernel_bench

    params = {"duration": 2.0, "seed": 1, "request_rate": 30.0,
              "repeats": 2}
    params.update(overrides)
    result = run_kernel_bench(tenants=tenants, profile=profile, **params)
    return kernel_entry(result, label=label)


def _names(value: Any) -> Any:
    """A ``--set`` comma-separated name list, as a tuple."""
    if isinstance(value, str):
        return tuple(name for name in value.split(",") if name)
    return value


def _campaign_kwargs(params: Dict[str, Any]) -> Dict[str, Any]:
    """Campaign-runner keywords for bench ``params``: the ``seeds``
    count and ``seed_base`` become the derived seed list."""
    from repro.sim.rng import derive_root_seed

    kwargs = dict(params)
    base, count = int(kwargs.pop("seed_base")), int(kwargs.pop("seeds"))
    kwargs["seeds"] = [derive_root_seed(base, i) for i in range(count)]
    return kwargs


def _chaos_benchmark(label: str, profile: bool,
                     **overrides: Any) -> Dict[str, Any]:
    from repro.analysis.chaos import chaos_entry, run_chaos_campaign

    params = {"seeds": 2, "seed_base": 101, "scenarios": ("single",),
              "duration": 3.0, "rate": 1.2, "jobs": 1}
    params.update(overrides)
    params["scenarios"] = _names(params["scenarios"])
    summary = run_chaos_campaign(profile=profile,
                                 **_campaign_kwargs(params))
    return chaos_entry(summary, params, label=label)


def _mitigation_benchmark(label: str, profile: bool,
                          **overrides: Any) -> Dict[str, Any]:
    from repro.analysis.mitigation import (mitigation_entry,
                                           mitigation_frontier)

    params = {"policies": ("stopwatch", "none"), "attacks": ("probe",),
              "duration": 3.0, "seeds": 1, "seed_base": 7, "bins": 10,
              "workload": "fileserver", "jobs": 1}
    params.update(overrides)
    params["policies"] = _names(params["policies"])
    params["attacks"] = _names(params["attacks"])
    summary = mitigation_frontier(**_campaign_kwargs(params))
    return mitigation_entry(summary, params, label=label)


def _storage_benchmark(label: str, profile: bool,
                       **overrides: Any) -> Dict[str, Any]:
    from repro.analysis.storage import (run_storage_repair_cell,
                                        storage_entry)

    params = {"seed": 7, "duration": 6.0, "k": 2, "n": 3,
              "object_size": 8192, "objects": 3, "crash_at": 1.2}
    params.update(overrides)
    return storage_entry(run_storage_repair_cell(profile=profile,
                                                 **params), label=label)


#: fixed-id benchmarks (parameterised families are resolved separately)
BENCHMARKS: Dict[str, Callable[..., Dict[str, Any]]] = {
    "chaos.storm": _chaos_benchmark,
    "mitigation.frontier": _mitigation_benchmark,
    "storage.repair": _storage_benchmark,
}


def benchmark_names() -> List[str]:
    return sorted(BENCHMARKS) + ["kernel.scale<N>"]


def run_benchmark(benchmark: str, label: str = "head",
                  profile: bool = False,
                  overrides: Optional[Dict[str, Any]] = None
                  ) -> Dict[str, Any]:
    """Run the named benchmark and return its trajectory entry."""
    overrides = dict(overrides or {})
    match = _KERNEL_SCALE.match(benchmark)
    if match:
        return _kernel_benchmark(int(match.group(1)), label=label,
                                 profile=profile, **overrides)
    runner = BENCHMARKS.get(benchmark)
    if runner is None:
        raise UnknownBenchmark(
            f"unknown benchmark {benchmark!r}; choose from "
            f"{benchmark_names()}")
    return runner(label=label, profile=profile, **overrides)


# re-exported for callers building ad-hoc entries
__all__ = ["BENCHMARKS", "UnknownBenchmark", "benchmark_names",
           "default_path", "make_entry", "run_benchmark"]
