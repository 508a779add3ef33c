"""Topology assembly: N client stacks, M servers, one switch.

:class:`Topology` materialises a cluster from declarative specs.  Each
client is a full independent stack — host, page cache, NFS client (or
local ext2) and syscall layer, with its own variant and mount options —
wired through a shared :class:`~repro.net.switch.Switch` whose per-host
output ports are where multi-client contention physically happens, to
one or more servers whose FIFO ingest stations queue the aggregated
request streams.

The single-client build follows the exact assembly order of the
original ``TestBed`` (host → page cache → server → NFS client → syscall
layer → profiler → sanitizers → observability), so task creation — and
therefore every event timestamp downstream — is unchanged: a 1-client
Topology is bit-identical to the seed test bed, and ``TestBed`` itself
is now a thin shim over it.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Optional, Sequence, Union

from ..config import ClientHwConfig, MountConfig, NetConfig, NfsClientConfig
from ..errors import ConfigError
from ..kernel.pagecache import PageCache
from ..kernel.syscalls import SyscallLayer
from ..localfs import Ext2Fs
from ..net import Host, Switch
from ..nfsclient import NfsClient
from ..nfsclient.variants import variant_config
from ..obs.core import DISABLED
from ..server import LinuxNfsServer, NetappFiler
from ..sim import SamplingProfiler, Simulator
from ..units import us
from .spec import ClientSpec, ServerSpec, SwitchSpec

__all__ = ["Topology", "ClientStack"]


class ClientStack:
    """One assembled client machine inside a :class:`Topology`.

    Duck-type compatible with the single-client bed the sanitizers and
    benchmarks expect: exposes ``sim``, ``nfs``, ``ext2``, ``server``,
    ``syscalls``, ``pagecache`` and ``open_file``.
    """

    #: Not a pytest test class.
    __test__ = False

    def __init__(self, topology: "Topology", index: int, spec: ClientSpec):
        self.topology = topology
        self.index = index
        self.spec = spec
        self.sim = topology.sim
        if spec.name is not None:
            self.name = spec.name
        elif len(topology.client_specs) == 1:
            self.name = "client"
        else:
            self.name = f"client{index}"
        self.hw = spec.hw or ClientHwConfig()
        self.net = spec.net or NetConfig.gigabit()
        self.mount = spec.mount or MountConfig()
        if isinstance(spec.client, str):
            self.client_config = variant_config(spec.client)
        else:
            self.client_config = spec.client or NfsClientConfig()
        #: Filled in by the Topology build phases.
        self.host: Optional[Host] = None
        self.pagecache: Optional[PageCache] = None
        self.server = None
        self.nfs: Optional[NfsClient] = None
        self.ext2: Optional[Ext2Fs] = None
        self.syscalls: Optional[SyscallLayer] = None
        self.profiler: Optional[SamplingProfiler] = None
        self.sanitizer = None
        self.obs = DISABLED

    # -- phases (called by Topology in seed TestBed order) -------------------

    def _build_host(self) -> None:
        self.host = Host(
            self.sim,
            self.name,
            self.topology.switch,
            self.net,
            ncpus=self.hw.ncpus,
            costs=self.hw.costs,
        )
        self.pagecache = PageCache(
            self.sim,
            dirty_limit_bytes=self.hw.dirty_limit_bytes,
            background_bytes=self.hw.dirty_background_bytes,
        )

    def _build_stack(self, profile: bool) -> None:
        server_spec = self.topology.server_specs[self.spec.server]
        if server_spec.is_local:
            self.ext2 = Ext2Fs(
                self.host,
                self.pagecache,
                server_spec.config or _default_config(server_spec.kind),
            )
        else:
            self.server = self.topology.servers[self.spec.server]
            self.nfs = NfsClient(
                self.host,
                self.pagecache,
                server=server_spec.name,
                mount=self.mount,
                behavior=self.client_config,
            )
        self.syscalls = SyscallLayer(
            self.host, instrument=self.client_config.instrument_latency
        )
        if profile:
            self.profiler = SamplingProfiler(
                self.sim, self.host.cpus, period=us(100)
            )
            self.profiler.start()

    @property
    def target(self) -> str:
        """The server kind this client mounts (``TestBed.target``)."""
        return self.topology.server_specs[self.spec.server].kind

    # -- workload ------------------------------------------------------------

    def open_file(self, name: str = "testfile"):
        """Generator: create a fresh file on this client's target."""
        if self.nfs is not None:
            return (yield from self.nfs.open_new(name))
        return (yield from self.ext2.open_new(name))


def _default_config(kind: str):
    from .spec import _KIND_CONFIG

    return _KIND_CONFIG[kind]()


class Topology:
    """A materialised cluster: clients, servers, switch — one simulation."""

    __test__ = False

    def __init__(
        self,
        clients: Union[Sequence[ClientSpec], int] = 1,
        servers: Sequence[ServerSpec] = (ServerSpec(),),
        switch: SwitchSpec = SwitchSpec(),
        profile: bool = False,
        observe: bool = False,
    ):
        if isinstance(clients, int):
            clients = ClientSpec().replicate(clients)
        if not clients:
            raise ConfigError("a topology needs at least one client")
        if not servers:
            raise ConfigError("a topology needs at least one server")
        self.client_specs = tuple(clients)
        self.server_specs = tuple(_named_server_specs(servers))
        self.switch_spec = switch
        for i, spec in enumerate(self.client_specs):
            if spec.server >= len(self.server_specs):
                raise ConfigError(
                    f"client {i} mounts server {spec.server}, but only "
                    f"{len(self.server_specs)} server(s) are defined"
                )

        self.sim = Simulator()
        self.switch = Switch(self.sim, name=switch.name, seed=switch.seed)

        # Assembly phases in seed TestBed order: every client's host and
        # page cache, then the servers, then every client's filesystem
        # stack + profiler, then sanitizers, then observability.  For a
        # single client this is exactly the original construction
        # sequence, so task creation — and every event downstream — is
        # bit-identical to the historical TestBed.
        self.clients: List[ClientStack] = [
            ClientStack(self, i, spec) for i, spec in enumerate(self.client_specs)
        ]
        for stack in self.clients:
            stack._build_host()

        self.servers: List[Optional[object]] = []
        for spec in self.server_specs:
            self.servers.append(self._build_server(spec))

        for stack in self.clients:
            stack._build_stack(profile)

        # Runtime sanitizers (lock order, races, invariants) attach per
        # client stack — each stack duck-types as a one-client bed.
        from ..analysis.sanitize.runtime import attach_if_active

        self.sanitizers = []
        for stack in self.clients:
            stack.sanitizer = attach_if_active(stack)
            self.sanitizers.append(stack.sanitizer)

        # One observer per simulation; fleets get per-client scoped
        # views (metric keys prefixed with the client name).
        from ..obs.core import attach_topology_if_active

        self.obs = attach_topology_if_active(self, observe=observe)

    def _build_server(self, spec: ServerSpec):
        """One server on the switch from a resolved spec; local specs
        yield ``None`` (the client stack hosts an Ext2Fs instead)."""
        if spec.is_local:
            return None
        config = spec.config or _default_config(spec.kind)
        if spec.kind == "netapp":
            net = spec.net or NetConfig.gigabit()
            return NetappFiler(self.sim, self.switch, net, config)
        if spec.kind == "linux":
            net = spec.net or NetConfig.gigabit()
            return LinuxNfsServer(self.sim, self.switch, net, config)
        # linux-100: the same knfsd behind 100 Mbps Ethernet (§3.5).
        net = spec.net or NetConfig.fast_ethernet()
        return LinuxNfsServer(self.sim, self.switch, net, config)

    # -- convenience ---------------------------------------------------------

    def client(self, index: int = 0) -> ClientStack:
        return self.clients[index]

    def server(self, index: int = 0):
        return self.servers[index]

    def run_workload(
        self,
        name: str,
        params: Optional[Dict[str, Any]] = None,
        time_limit_ns: Optional[int] = None,
        client: int = 0,
    ):
        """Run one registered workload on one client (blocking).

        Returns the workload body's result (a ``BenchmarkResult`` for
        ``"sequential-write"``, a ``WorkloadOutcome`` otherwise).
        """
        from ..bench.workloads import get_workload, run_client_workload

        workload = get_workload(name, params)
        _start, _end, result = run_client_workload(
            self, workload, client=client, time_limit_ns=time_limit_ns
        )
        return result


def _named_server_specs(specs: Sequence[ServerSpec]) -> List[ServerSpec]:
    """Resolve server names: spec.name overrides config.name, and name
    collisions between servers get a deterministic ``-<index>`` suffix
    (two hosts may not share a switch port name)."""
    resolved: List[ServerSpec] = []
    used: dict = {}
    for index, spec in enumerate(specs):
        if spec.is_local:
            resolved.append(spec)
            continue
        config = spec.config or _default_config(spec.kind)
        name = spec.name or config.name
        if name in used:
            name = f"{name}-{index}"
        used[name] = index
        if name != config.name:
            config = dataclasses.replace(config, name=name)
        resolved.append(dataclasses.replace(spec, config=config, name=name))
    return resolved
