"""Benchmark harness: Bonnie-derived workload, traces, histograms."""

from .bonnie import BenchmarkResult, SequentialWriteBenchmark
from .histogram import (
    PAPER_BIN_WIDTH_NS,
    PAPER_MAX_NS,
    Histogram,
    latency_histogram,
)
from .latency import LatencyTrace
from .runner import TestBed
from .workloads import (
    Workload,
    WorkloadOutcome,
    get_workload,
    register_workload,
    workload_names,
)

__all__ = [
    "BenchmarkResult",
    "SequentialWriteBenchmark",
    "LatencyTrace",
    "Histogram",
    "latency_histogram",
    "PAPER_BIN_WIDTH_NS",
    "PAPER_MAX_NS",
    "TestBed",
    "Workload",
    "WorkloadOutcome",
    "register_workload",
    "get_workload",
    "workload_names",
]
