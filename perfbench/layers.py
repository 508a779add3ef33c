"""Per-layer cost of one simulator run, from the benchmark's own files.

Two instruments, both installed only in a traced run:

* :func:`layer_totals` folds a :mod:`cProfile` profile into self time
  and call counts per ``repro.<layer>`` package.  A function belongs to
  the package that defines it; a generator's resumes are profiled as
  calls of the generator function, so they count toward its own layer.
  Everything outside the named packages (builtins, the standard
  library, and ``repro`` modules such as ``units``, ``nfs3`` or ``hw``)
  is ``other``.  Frames from this benchmark's own files are harness,
  not program, and are left out.
* :class:`EntryCounter` counts invocations of a few public entry
  points by wrapping them on their class.  Most are generator
  functions, whose profiled call count would be resumes, not
  invocations, so the wrapper counts at call time instead.
"""

from __future__ import annotations

import functools
import importlib
import os
import pstats
from typing import Dict, Tuple

#: The ``repro`` subpackages reported as layers, in report order.
LAYERS = (
    "sim",
    "net",
    "rpc",
    "nfsclient",
    "kernel",
    "server",
    "topology",
    "obs",
    "traffic",
    "bench",
)
OTHER = "other"

#: Metric prefix -> (module, class, method) of each counted entry point.
ENTRY_POINTS: Dict[str, Tuple[str, str, str]] = {
    "sim.spawn": ("repro.sim.core", "Simulator", "spawn"),
    "sim.execute": ("repro.sim.cpu", "CpuSet", "execute"),
    "net.send": ("repro.net.link", "Link", "send"),
    "rpc.submit": ("repro.rpc.xprt", "UdpTransport", "submit"),
    "kernel.write": ("repro.kernel.syscalls", "SyscallLayer", "write"),
    "nfsclient.submit_write": ("repro.nfsclient.client", "NfsClient", "submit_write"),
    "server.handle": ("repro.server.base", "NfsServerBase", "handle"),
}

_HARNESS_DIR = os.path.dirname(os.path.abspath(__file__)) + os.sep


def layer_of(filename: str, package_dir: str) -> str:
    """The layer owning a profiled code object's ``filename``.

    ``package_dir`` is the ``repro`` package directory, ending in a
    path separator.
    """
    if filename.startswith(package_dir):
        head = filename[len(package_dir):].split(os.sep, 1)
        if len(head) == 2 and head[0] in LAYERS:
            return head[0]
    return OTHER


def layer_totals(profile, package_dir: str) -> Dict[str, Dict[str, float]]:
    """``{layer: {"self_s", "calls"}}`` plus ``repro`` (every function
    of the package, whichever layer) from a finished profile."""
    totals = {name: {"self_s": 0.0, "calls": 0} for name in LAYERS + (OTHER,)}
    in_package = {"self_s": 0.0, "calls": 0}
    for (filename, _line, _name), row in pstats.Stats(profile).stats.items():
        if filename.startswith(_HARNESS_DIR):
            continue
        calls, self_s = row[1], row[2]
        bucket = totals[layer_of(filename, package_dir)]
        bucket["self_s"] += self_s
        bucket["calls"] += calls
        if filename.startswith(package_dir):
            in_package["self_s"] += self_s
            in_package["calls"] += calls
    totals["repro"] = in_package
    return totals


class EntryCounter:
    """Counts calls of :data:`ENTRY_POINTS` once installed.

    Install before the topology is built, so that any bound method
    captured during construction is already the counting one.
    """

    def __init__(self):
        self.counts: Dict[str, int] = {name: 0 for name in ENTRY_POINTS}

    def install(self) -> None:
        for name, (module, cls_name, attr) in ENTRY_POINTS.items():
            cls = getattr(importlib.import_module(module), cls_name)
            setattr(cls, attr, self._counting(name, cls.__dict__[attr]))

    def _counting(self, name: str, original):
        counts = self.counts

        @functools.wraps(original)
        def counted(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        return counted
