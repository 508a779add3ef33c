"""Declarative arrival-process specs for open-loop traffic.

An :class:`ArrivalSpec` describes *when* sessions arrive (Poisson or
two-state MMPP, optionally modulated by a diurnal load curve), *how
big* they are (:class:`SizeSpec`: fixed, lognormal, or Pareto draws),
and *what* each one runs (:class:`MixEntry`: a weighted mix of
registered workload names).  Specs are frozen, picklable, and
JSON-round-trippable, so they ride inside :class:`FleetJobSpec`
fingerprints and chaos scenario files unchanged.

Specs carry no randomness themselves — all draws happen at plan time
(:func:`repro.traffic.openloop.plan_sessions`) on named seeded streams.
"""

from __future__ import annotations

import json
import re
from typing import Any, Dict, Tuple

from ..errors import ConfigError
from ..units import KIB, MIB, PAGE_SIZE, ms, seconds
from ..value import Value

__all__ = ["SizeSpec", "MixEntry", "ArrivalSpec", "parse_arrivals"]

_PROCESSES = ("poisson", "mmpp")
_SIZE_DISTS = ("fixed", "lognormal", "pareto")


class SizeSpec(Value):
    """How many bytes one session asks for.

    ``bytes`` is the exact size for ``fixed``, the *median* for
    ``lognormal`` (``sigma`` the log-space spread), and the scale
    (minimum) for ``pareto`` (``alpha`` the tail index — lower is
    heavier).  Draws clamp to ``[min_bytes, max_bytes]``.
    """

    dist: str = "fixed"
    bytes: int = 256 * KIB
    sigma: float = 1.0
    alpha: float = 1.5
    min_bytes: int = PAGE_SIZE
    max_bytes: int = 64 * MIB

    def __post_init__(self):
        if self.dist not in _SIZE_DISTS:
            raise ConfigError(
                f"size dist must be one of {_SIZE_DISTS}, got {self.dist!r}"
            )
        if self.bytes <= 0:
            raise ConfigError("size bytes must be positive")
        if self.sigma <= 0:
            raise ConfigError("lognormal sigma must be positive")
        if self.alpha <= 0:
            raise ConfigError("pareto alpha must be positive")
        if not 0 < self.min_bytes <= self.max_bytes:
            raise ConfigError("need 0 < min_bytes <= max_bytes")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "dist": self.dist,
            "bytes": self.bytes,
            "sigma": self.sigma,
            "alpha": self.alpha,
            "min_bytes": self.min_bytes,
            "max_bytes": self.max_bytes,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SizeSpec":
        return cls(**_known(cls, data, "sizes"))


class MixEntry(Value):
    """One weighted entry of a per-client workload mix.

    ``params`` pins workload parameters for every session of this
    entry; parameters the entry leaves open are filled at plan time
    (drawn ``file_bytes``, per-session file names and seeds).
    """

    workload: str = "sequential-write"
    weight: float = 1.0
    params: Tuple[Tuple[str, Any], ...] = ()

    def __post_init__(self):
        if not self.workload:
            raise ConfigError("mix entry needs a workload name")
        if self.weight <= 0:
            raise ConfigError("mix weight must be positive")
        if not isinstance(self.params, tuple):
            object.__setattr__(
                self, "params", tuple(sorted(dict(self.params).items()))
            )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "workload": self.workload,
            "weight": self.weight,
            "params": dict(self.params),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "MixEntry":
        data = _known(cls, data, "mix entry")
        params = data.get("params", ())
        if isinstance(params, dict):
            data["params"] = tuple(sorted(params.items()))
        return cls(**data)


class ArrivalSpec(Value):
    """An open-loop session arrival process for one fleet.

    ``poisson``: homogeneous rate ``rate_per_s``, optionally modulated
    by the ``diurnal`` multiplier curve (stretched over ``duration_ns``
    and applied by thinning, so the draw stream stays identical across
    runs).  ``mmpp``: a two-state Markov-modulated process alternating
    exponentially-distributed idle (rate ``rate_per_s``, mean sojourn
    ``mean_idle_ns``) and burst (``burst_rate_per_s``,
    ``mean_burst_ns``) states.

    Every client in the fleet runs an *independent* copy of this
    process on its own named streams — offered load scales with fleet
    size, which is exactly what an open-loop overload sweep wants.
    """

    process: str = "poisson"
    rate_per_s: float = 10.0
    duration_ns: int = seconds(1)
    sizes: SizeSpec = SizeSpec()
    mix: Tuple[MixEntry, ...] = (MixEntry(),)
    diurnal: Tuple[float, ...] = ()
    burst_rate_per_s: float = 0.0
    mean_burst_ns: int = ms(20)
    mean_idle_ns: int = ms(80)
    max_sessions: int = 4096

    def __post_init__(self):
        if self.process not in _PROCESSES:
            raise ConfigError(
                f"arrival process must be one of {_PROCESSES}, "
                f"got {self.process!r}"
            )
        if self.rate_per_s <= 0:
            raise ConfigError("rate_per_s must be positive")
        if self.duration_ns <= 0:
            raise ConfigError("duration_ns must be positive")
        if not self.mix:
            raise ConfigError("need at least one mix entry")
        if not isinstance(self.mix, tuple):
            object.__setattr__(self, "mix", tuple(self.mix))
        if not isinstance(self.diurnal, tuple):
            object.__setattr__(self, "diurnal", tuple(self.diurnal))
        if self.diurnal and (
            min(self.diurnal) < 0 or max(self.diurnal) <= 0
        ):
            raise ConfigError(
                "diurnal multipliers must be >= 0 with a positive peak"
            )
        if self.process == "mmpp":
            if self.burst_rate_per_s <= 0:
                raise ConfigError("mmpp needs a positive burst_rate_per_s")
            if self.mean_burst_ns <= 0 or self.mean_idle_ns <= 0:
                raise ConfigError("mmpp sojourn means must be positive")
        if self.max_sessions < 1:
            raise ConfigError("max_sessions must be at least 1")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "process": self.process,
            "rate_per_s": self.rate_per_s,
            "duration_ns": self.duration_ns,
            "sizes": self.sizes.to_dict(),
            "mix": [entry.to_dict() for entry in self.mix],
            "diurnal": list(self.diurnal),
            "burst_rate_per_s": self.burst_rate_per_s,
            "mean_burst_ns": self.mean_burst_ns,
            "mean_idle_ns": self.mean_idle_ns,
            "max_sessions": self.max_sessions,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ArrivalSpec":
        data = _known(cls, data, "arrivals")
        if isinstance(data.get("sizes"), dict):
            data["sizes"] = SizeSpec.from_dict(data["sizes"])
        if "mix" in data:
            data["mix"] = tuple(
                MixEntry.from_dict(e) if isinstance(e, dict) else e
                for e in data["mix"]
            )
        if "diurnal" in data:
            data["diurnal"] = tuple(data["diurnal"])
        return cls(**data)


def _known(cls, data: Dict[str, Any], what: str) -> Dict[str, Any]:
    """Copy ``data``, rejecting keys the spec does not define."""
    unknown = sorted(set(data) - set(cls.FIELDS))
    if unknown:
        raise ConfigError(f"unknown {what} key(s): {', '.join(unknown)}")
    return dict(data)


#: Compact-form keys -> how they land on the spec.
_COMPACT_KEYS = {
    "process": ("process", str),
    "rate": ("rate_per_s", float),
    "duration_ms": ("duration_ns", lambda v: ms(float(v))),
    "duration_ns": ("duration_ns", int),
    "burst_rate": ("burst_rate_per_s", float),
    "burst_ms": ("mean_burst_ns", lambda v: ms(float(v))),
    "idle_ms": ("mean_idle_ns", lambda v: ms(float(v))),
    "max_sessions": ("max_sessions", int),
}
_COMPACT_SIZE_KEYS = {
    "dist": ("dist", str),
    "bytes": ("bytes", int),
    "sigma": ("sigma", float),
    "alpha": ("alpha", float),
    "min_bytes": ("min_bytes", int),
    "max_bytes": ("max_bytes", int),
}


def parse_arrivals(text: str) -> ArrivalSpec:
    """Parse an arrival spec from JSON or the compact CLI form.

    JSON: the :meth:`ArrivalSpec.to_dict` shape.  Compact:
    comma- or space-separated ``key=value`` pairs, e.g.
    ``"process=poisson,rate=40,duration_ms=100,dist=lognormal,
    bytes=131072,sigma=1.2,workload=sequential-write,
    diurnal=0.5/1.0/2.0"``.
    """
    text = text.strip()
    if not text:
        raise ConfigError("empty arrival spec")
    if text.startswith("{"):
        try:
            return ArrivalSpec.from_dict(json.loads(text))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"bad arrival spec JSON: {exc}") from None

    spec_kwargs: Dict[str, Any] = {}
    size_kwargs: Dict[str, Any] = {}
    workload = None
    for pair in re.split(r"[,\s]+", text):
        pair = pair.strip()
        if not pair:
            continue
        if "=" not in pair:
            raise ConfigError(f"expected key=value, got {pair!r}")
        key, _, value = pair.partition("=")
        key, value = key.strip(), value.strip()
        try:
            if key in _COMPACT_KEYS:
                dest, conv = _COMPACT_KEYS[key]
                spec_kwargs[dest] = conv(value)
            elif key in _COMPACT_SIZE_KEYS:
                dest, conv = _COMPACT_SIZE_KEYS[key]
                size_kwargs[dest] = conv(value)
            elif key == "workload":
                workload = value
            elif key == "diurnal":
                spec_kwargs["diurnal"] = tuple(
                    float(v) for v in value.split("/") if v
                )
            else:
                raise ConfigError(f"unknown arrival spec key {key!r}")
        except ValueError:
            raise ConfigError(
                f"bad value {value!r} for arrival spec key {key!r}"
            ) from None
    if size_kwargs:
        if "bytes" in size_kwargs:
            size_kwargs.setdefault(
                "max_bytes", max(64 * MIB, size_kwargs["bytes"] * 16)
            )
        spec_kwargs["sizes"] = SizeSpec(**size_kwargs)
    spec = ArrivalSpec(**spec_kwargs)
    if workload is not None:
        spec = spec.replace(mix=(MixEntry(workload=workload),))
    return spec
