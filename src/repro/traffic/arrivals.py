"""Arrival-time and size draws on named seeded streams.

Pure functions: given the same :class:`ArrivalSpec` and the same
stream, the returned draws are bit-identical — the foundation of
open-loop fleets' replay fingerprints.

Diurnal modulation uses Lewis–Shedler thinning against the peak rate:
candidates are drawn from a homogeneous Poisson process at
``lambda_max`` and accepted with probability ``lambda(t)/lambda_max``.
Crucially the *number and order* of RNG calls per candidate is fixed
(one exponential + one uniform), so changing only the load curve never
desynchronises the stream.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import List

from .spec import ArrivalSpec, SizeSpec

__all__ = ["arrival_times", "draw_size"]


def _multiplier(diurnal, t_ns: int, duration_ns: int) -> float:
    """The load-curve multiplier at ``t``: the curve is stretched
    uniformly over the spec duration (step function per segment)."""
    if not diurnal:
        return 1.0
    index = min(len(diurnal) - 1, int(t_ns * len(diurnal) / duration_ns))
    return diurnal[index]


def _mmpp_switches(spec: ArrivalSpec, rng) -> List[int]:
    """State-switch times (ns) covering the whole duration.

    The process starts idle; switch ``i`` flips the state, so the state
    at time ``t`` is ``bisect_right(switches, t) % 2`` (0=idle,
    1=burst).  Sojourns are drawn first, before any arrival candidates,
    so the stream layout is independent of how many arrivals land.
    """
    switches: List[int] = []
    t = 0.0
    means = (float(spec.mean_idle_ns), float(spec.mean_burst_ns))
    state = 0
    while t < spec.duration_ns:
        t += rng.expovariate(1.0 / means[state])
        switches.append(int(t))
        state ^= 1
    return switches


def arrival_times(spec: ArrivalSpec, rng) -> List[int]:
    """Session arrival offsets (integer ns, strictly within duration).

    ``rng`` is one named seeded stream; this function is its only
    consumer, so every draw sequence below is reproducible in
    isolation.
    """
    peak_mult = max(spec.diurnal) if spec.diurnal else 1.0
    if spec.process == "mmpp":
        switches = _mmpp_switches(spec, rng)
        state_rates = (spec.rate_per_s / 1e9, spec.burst_rate_per_s / 1e9)
        lam_max = max(state_rates) * peak_mult
    else:
        switches = []
        state_rates = (spec.rate_per_s / 1e9,) * 2
        lam_max = state_rates[0] * peak_mult

    out: List[int] = []
    t = 0.0
    while len(out) < spec.max_sessions:
        t += rng.expovariate(lam_max)
        if t >= spec.duration_ns:
            break
        t_ns = int(t)
        state = bisect_right(switches, t_ns) % 2 if switches else 0
        lam_t = state_rates[state] * _multiplier(
            spec.diurnal, t_ns, spec.duration_ns
        )
        # Always draw the acceptance uniform, even when lam_t == lam_max:
        # a fixed two-draws-per-candidate layout keeps streams aligned
        # across spec variations.
        if rng.random() < lam_t / lam_max:
            out.append(t_ns)
    return out


def draw_size(sizes: SizeSpec, rng) -> int:
    """One session-size draw (bytes), clamped to the spec's bounds."""
    if sizes.dist == "fixed":
        raw = float(sizes.bytes)
    elif sizes.dist == "lognormal":
        raw = rng.lognormvariate(math.log(sizes.bytes), sizes.sigma)
    else:  # pareto
        raw = sizes.bytes * rng.paretovariate(sizes.alpha)
    return max(sizes.min_bytes, min(sizes.max_bytes, int(raw)))
