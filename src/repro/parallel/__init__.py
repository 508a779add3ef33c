"""Parallel sweep execution over independent simulated worlds."""

from .executor import SweepExecutor, default_jobs

__all__ = ["SweepExecutor", "default_jobs"]
