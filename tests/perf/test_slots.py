"""CI guard: hot-path classes in sim/, net/ and rpc/ stay dict-free.

A 1,024-client fleet materialises millions of frames, fragments, tasks
and RPC messages; a per-instance ``__dict__`` adds ~100 bytes and a
hash lookup to every attribute access on each of them.  Every class in
these packages must therefore declare ``__slots__`` through its whole
MRO — unless it is on the explicit allowlist of per-world singletons
below.  Adding a new class to one of these packages without slots (or
without consciously allowlisting it) fails this test.
"""

import importlib
import inspect
import pkgutil

import pytest

import repro.net
import repro.rpc
import repro.sim

#: Deliberately dict-ful classes, with why they are allowed to be.
ALLOWED_DICT_CLASSES = {
    # One per simulated world; never allocated on a hot path.
    "repro.sim.trace.Tracer",
    "repro.sim.profiler.SamplingProfiler",
    "repro.sim.rng.RngStreams",
    # One per host / per server / per client transport.
    "repro.sim.cpu.CpuSet",
    "repro.rpc.server.RpcServer",
    "repro.rpc.xprt.UdpTransport",
    # Per-inode synchronisation objects: the sanitizers monkey-patch
    # observer attributes onto them at attach time.
    "repro.sim.sync.Lock",
    "repro.sim.sync.MonitoredLock",
    "repro.sim.sync.Semaphore",
    "repro.sim.sync.WaitQueue",
}

PACKAGES = (repro.sim, repro.net, repro.rpc)


def _classes():
    for pkg in PACKAGES:
        for info in pkgutil.iter_modules(pkg.__path__):
            module = importlib.import_module(f"{pkg.__name__}.{info.name}")
            for _name, cls in inspect.getmembers(module, inspect.isclass):
                if cls.__module__ == module.__name__:
                    yield cls


def _has_instance_dict(cls) -> bool:
    return any("__dict__" in vars(klass) for klass in cls.__mro__)


def test_hot_classes_declare_slots():
    offenders = []
    for cls in _classes():
        qualname = f"{cls.__module__}.{cls.__name__}"
        if qualname in ALLOWED_DICT_CLASSES:
            continue
        if _has_instance_dict(cls):
            offenders.append(qualname)
    assert not offenders, (
        "classes without __slots__ on the hot packages (add slots, or "
        f"allowlist with a rationale): {sorted(set(offenders))}"
    )


def test_allowlist_entries_still_exist_and_still_need_exemption():
    stale = []
    for qualname in sorted(ALLOWED_DICT_CLASSES):
        module_name, _, cls_name = qualname.rpartition(".")
        module = importlib.import_module(module_name)
        cls = getattr(module, cls_name, None)
        if cls is None or not _has_instance_dict(cls):
            stale.append(qualname)
    assert not stale, f"allowlist entries no longer needed: {stale}"


@pytest.mark.parametrize(
    "qualname",
    [
        "repro.sim.task.Task",
        "repro.sim.core.EventHandle",
        "repro.net.link.Link",
        "repro.net.switch.Port",
        "repro.net.switch.Switch",
        "repro.net.packet.Datagram",
        "repro.net.packet.Fragment",
        "repro.net.host.Host",
        "repro.net.udp.UdpSocket",
        "repro.net.udp.UdpStack",
        "repro.rpc.messages.RpcCall",
        "repro.rpc.messages.RpcReply",
    ],
)
def test_known_hot_classes_reject_stray_attributes(qualname):
    module_name, _, cls_name = qualname.rpartition(".")
    cls = getattr(importlib.import_module(module_name), cls_name)
    assert not _has_instance_dict(cls), f"{qualname} grew a __dict__"
