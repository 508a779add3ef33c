"""Determinism across execution modes.

The contract the whole performance stack rests on: a sweep point is a
pure function of its :class:`~repro.topology.FleetJobSpec`.  Serial
in-process execution, process-pool execution, and a cache round-trip
must all yield bit-identical numbers — including each client's
latency-trace digest, not just the headline throughput.
"""

from concurrent.futures import ProcessPoolExecutor

from repro.cache import ResultCache
from repro.chaos import run_spec
from repro.config import FilerConfig, MountConfig, NetConfig
from repro.experiments import ExecutionContext
from repro.experiments.figure1 import run_sweep, sweep_specs
from repro.parallel import SweepExecutor
from repro.topology import ClientSpec, FleetJobSpec, ServerSpec
from repro.units import MIB, ms

from ..chaos import corpus_spec


def point(target, client, file_bytes, net=None, mount=None, config=None):
    """A one-client sweep point.  A client ``net`` also carries the
    server's port, as it does on a ``TestBed`` (but not linux-100)."""
    server_net = net if target in ("netapp", "linux") else None
    return FleetJobSpec(
        clients=(ClientSpec(client=client, net=net, mount=mount),),
        servers=(ServerSpec(target, config, net=server_net),),
        file_bytes=file_bytes,
    )


SPECS = [
    point(target, client, size)
    for target, client, size in (
        ("netapp", "stock", 2_000_000),
        ("linux", "enhanced", 2_000_000),
        ("local", "stock", 1_000_000),
    )
]

#: Runs with faults active: packet loss plus filer checkpoint pauses
#: (tiny NVRAM forces a mid-run pause) and a lossy knfsd run, each with
#: the fault-free point it is compared against.
FAULTED = [
    (
        ("netapp", "stock", 2_000_000),
        dict(
            net=NetConfig(loss_probability=0.02),
            mount=MountConfig(timeo_ns=ms(20), retrans=7),
            config=FilerConfig(nvram_bytes=2 * MIB),
        ),
    ),
    (
        ("linux", "enhanced", 1_000_000),
        dict(
            net=NetConfig(loss_probability=0.01),
            mount=MountConfig(timeo_ns=ms(20), retrans=7),
        ),
    ),
]
FAULTED_SPECS = [point(*args, **faults) for args, faults in FAULTED]


def assert_identical(a, b):
    assert a.client_mbps() == b.client_mbps()
    assert a.to_payload() == b.to_payload()
    assert a.run_fingerprint() == b.run_fingerprint()


def test_serial_vs_pool_bit_identical():
    serial = SweepExecutor(jobs=1).map(SPECS)
    pooled = SweepExecutor(jobs=2).map(SPECS)
    for s, p in zip(serial, pooled):
        assert_identical(s, p)


def test_serial_vs_cache_round_trip_bit_identical(tmp_path):
    cache = ResultCache(str(tmp_path))
    serial = SweepExecutor(jobs=1).map(SPECS)
    cold = SweepExecutor(jobs=1, cache=cache).map(SPECS)
    warm = SweepExecutor(jobs=1, cache=cache).map(SPECS)
    assert cache.stores == len(SPECS)
    assert cache.hits == len(SPECS)
    for s, c, w in zip(serial, cold, warm):
        assert_identical(s, c)
        assert_identical(s, w)


def test_pool_through_cache_round_trip(tmp_path):
    """Pooled misses stored, then served: still identical to serial."""
    cache = ResultCache(str(tmp_path))
    pooled = SweepExecutor(jobs=2, cache=cache).map(SPECS)
    warm = SweepExecutor(jobs=1, cache=cache).map(SPECS)
    serial = SweepExecutor(jobs=1).map(SPECS)
    for s, p, w in zip(serial, pooled, warm):
        assert_identical(s, p)
        assert_identical(s, w)


def test_figure_sweep_identical_across_contexts(tmp_path):
    """The fig1/fig7 sweep front end preserves identity too."""
    kwargs = dict(client_variant="stock", scale=32.0, quick=True)
    serial = run_sweep(**kwargs)
    pooled = run_sweep(**kwargs, context=ExecutionContext(jobs=2))
    ctx = ExecutionContext(cache=ResultCache(str(tmp_path)))
    cold = run_sweep(**kwargs, context=ctx)
    warm = run_sweep(**kwargs, context=ctx)
    assert serial == pooled == cold == warm


def test_faulted_runs_bit_identical_across_modes(tmp_path):
    """Fault injection must not break the determinism contract: a lossy,
    pause-ridden run replays bit-identically in-process, across a worker
    pool, and through the result cache."""
    serial = SweepExecutor(jobs=1).map(FAULTED_SPECS)
    pooled = SweepExecutor(jobs=2).map(FAULTED_SPECS)
    cache = ResultCache(str(tmp_path))
    cold = SweepExecutor(jobs=1, cache=cache).map(FAULTED_SPECS)
    warm = SweepExecutor(jobs=2, cache=cache).map(FAULTED_SPECS)
    clean = SweepExecutor(jobs=1).map([point(*args) for args, _ in FAULTED])
    for s, p, c, w, base in zip(serial, pooled, cold, warm, clean):
        # The faults really fired: loss + pauses cost wall-clock time.
        (faulted,), (fault_free,) = s.clients, base.clients
        faulted_total = faulted["write_elapsed_ns"] + faulted["flush_elapsed_ns"]
        assert faulted_total > (
            fault_free["write_elapsed_ns"] + fault_free["flush_elapsed_ns"]
        )
        assert_identical(s, p)
        assert_identical(s, c)
        assert_identical(s, w)


def test_fault_scenario_identical_in_process_and_in_worker():
    """A chaos scenario (burst loss + server checkpoint behaviour) is a
    pure function of (spec, seed), wherever it runs."""
    spec = corpus_spec("lossy-burst")
    first = run_spec(spec, seed=5, verify_determinism=False)
    second = run_spec(spec, seed=5, verify_determinism=False)
    with ProcessPoolExecutor(max_workers=2) as pool:
        remote = list(pool.map(run_spec, [spec] * 2, [5, 5], [False, False]))
    assert first.payload == second.payload == remote[0].payload == remote[1].payload
    assert first.fingerprint == remote[0].fingerprint == remote[1].fingerprint


def test_sweep_specs_cover_the_grid():
    sizes, specs = sweep_specs("stock", 8.0, True)
    assert len(specs) == 3 * len(sizes)
    assert {s.servers[0].kind for s in specs} == {"local", "netapp", "linux"}
    assert all(len(s.clients) == 1 for s in specs)
    assert all(s.clients[0].client == "stock" for s in specs)
