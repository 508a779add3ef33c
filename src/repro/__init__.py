"""repro — a simulation reproduction of *Linux NFS Client Write
Performance* (Chuck Lever & Peter Honeyman, CITI TR 01-12 / USENIX 2002).

The package models the complete client/network/server system the paper
studies and reproduces its evaluation:

- :mod:`repro.sim` — deterministic discrete-event kernel
- :mod:`repro.nfsclient` — the Linux 2.4.4 NFS client write path and the
  paper's three patches (no threshold flushes, hash-table request index,
  BKL released around ``sock_sendmsg``)
- :mod:`repro.server` — NetApp F85 filer and Linux knfsd models
- :mod:`repro.bench` — the Bonnie-derived sequential write benchmark
- :mod:`repro.experiments` — Figures 1-7 and Table 1

Quickstart::

    from repro import TestBed
    bed = TestBed(target="netapp", client="stock")
    result = bed.run_sequential_write(40 * 1000 * 1000)
    print(result.summary())
    print("spikes:", len(result.trace.spikes()))
"""

import importlib
import sys

__version__ = "1.0.0"


def _lazy_surface(package, exports):
    """The PEP 562 ``__getattr__`` and ``__dir__`` of a package whose
    public names live in its submodules.

    ``exports`` maps each name to the relative submodule that defines
    it.  Nothing is imported until a name is first read; the value is
    then kept in the package, so later reads are plain lookups.
    """
    namespace = sys.modules[package].__dict__

    def __getattr__(name):
        try:
            module = exports[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(importlib.import_module(module, package), name)
        namespace[name] = value
        return value

    def __dir__():
        return sorted(set(namespace) | set(exports))

    return __getattr__, __dir__


#: Public name -> the submodule that defines it.  ``import repro.sim``
#: thus loads the event kernel alone, not the experiments or the sweep
#: executor.
_EXPORTS = {
    "TestBed": ".bench",
    "BenchmarkResult": ".bench",
    "LatencyTrace": ".bench",
    "latency_histogram": ".bench",
    "ClientHwConfig": ".config",
    "CpuCosts": ".config",
    "MountConfig": ".config",
    "NetConfig": ".config",
    "NfsClientConfig": ".config",
    "FilerConfig": ".config",
    "LinuxServerConfig": ".config",
    "LocalFsConfig": ".config",
    "scaled": ".config",
    "VARIANTS": ".nfsclient",
    "variant_config": ".nfsclient",
    "experiment_ids": ".experiments",
    "get_experiment": ".experiments",
    "ExecutionContext": ".experiments",
    "JobSpec": ".parallel",
    "PointResult": ".parallel",
    "SweepExecutor": ".parallel",
    "ResultCache": ".cache",
}

__all__ = [*_EXPORTS, "__version__"]
__getattr__, __dir__ = _lazy_surface(__name__, _EXPORTS)
