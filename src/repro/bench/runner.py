"""Test-bed assembly: one client machine wired to a chosen target.

:class:`TestBed` is the historical single-client surface, now a thin
shim over a one-client :class:`~repro.topology.Topology` — same public
attributes, same behaviour, bit-identical results.  New code (and
anything multi-client) should use the topology API directly; the
targets are unchanged:

* ``"netapp"`` — the F85 filer (NVRAM, FILE_SYNC, checkpoints),
* ``"linux"`` — the 4-way Linux knfsd (UNSTABLE + COMMIT, one disk),
* ``"linux-100"`` — the same knfsd behind 100 Mbps Ethernet (§3.5),
* ``"local"`` — client-local ext2 (no server at all).

A non-default server config is passed as
``server=ServerSpec(kind, config)``.
"""

from __future__ import annotations

from typing import Optional, Union

from ..config import ClientHwConfig, MountConfig, NetConfig, NfsClientConfig
from ..errors import ConfigError
from .bonnie import BenchmarkResult

__all__ = ["TestBed"]


class TestBed:
    """One simulated client/network/target assembly."""

    #: Not a pytest test class, despite the name.
    __test__ = False

    def __init__(
        self,
        target: Optional[str] = None,
        client: Union[str, NfsClientConfig, None] = "stock",
        hw: Optional[ClientHwConfig] = None,
        net: Optional[NetConfig] = None,
        mount: Optional[MountConfig] = None,
        profile: bool = False,
        observe: bool = False,
        server=None,
    ):
        # Imported lazily: repro.bench must stay importable before
        # repro.topology finishes loading (topology itself builds on
        # the benchmark classes in this package).
        from ..topology import ClientSpec, ServerSpec, Topology

        if server is None:
            server = ServerSpec(target or "netapp")
            # Historical behaviour: the server's switch port shares the
            # client's NetConfig (including injected loss), except for
            # linux-100's fixed fast Ethernet.
            if net is not None and server.kind in ("netapp", "linux"):
                server = server.replace(net=net)
        elif not isinstance(server, ServerSpec):
            raise ConfigError(
                f"server must be a ServerSpec, got {type(server).__name__}"
            )
        elif target is not None and target != server.kind:
            raise ConfigError(
                f"target {target!r} contradicts server kind {server.kind!r}"
            )

        spec = ClientSpec(
            client=client, hw=hw, net=net, mount=mount, name="client"
        )
        self.topology = Topology(
            clients=(spec,),
            servers=(server,),
            profile=profile,
            observe=observe,
        )
        stack = self.topology.clients[0]

        # The historical public surface, verbatim.
        self.target = server.kind
        self.hw = stack.hw
        self.net = stack.net
        self.mount = stack.mount
        self.client_config = stack.client_config
        self.sim = self.topology.sim
        self.switch = self.topology.switch
        self.client_host = stack.host
        self.pagecache = stack.pagecache
        self.server = stack.server
        self.nfs = stack.nfs
        self.ext2 = stack.ext2
        self.syscalls = stack.syscalls
        self.profiler = stack.profiler
        self.sanitizer = stack.sanitizer
        self.obs = self.topology.obs

    # -- convenience ---------------------------------------------------------

    def open_file(self, name: str = "testfile"):
        """Generator: create a fresh file on the active target."""
        return (yield from self.topology.clients[0].open_file(name))

    def run_sequential_write(
        self,
        file_bytes: int,
        chunk_bytes: int = 8192,
        do_fsync: bool = True,
        time_limit_ns: Optional[int] = None,
    ) -> BenchmarkResult:
        """Build, run and harvest one full benchmark run (blocking)."""
        return self.topology.run_workload(
            "sequential-write",
            {
                "file_bytes": file_bytes,
                "chunk_bytes": chunk_bytes,
                "do_fsync": do_fsync,
                "file_name": "testfile",
            },
            time_limit_ns=time_limit_ns,
        )
