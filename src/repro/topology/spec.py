"""Declarative cluster specifications.

A topology is described entirely by value objects — picklable frozen
:class:`~repro.value.Value` records that fingerprint cleanly through
:func:`repro.cache.fingerprint` — and materialised by :class:`repro.topology.Topology`:

* :class:`ClientSpec` — one client machine's stack (hardware, link,
  mount options, client variant),
* :class:`ServerSpec` — one target: kind (``netapp`` / ``linux`` /
  ``linux-100`` / ``local``) plus the matching config object,
* :class:`SwitchSpec` — the shared switch.

``ServerSpec`` is the one way to configure a server, ``TestBed``
included: a config of the wrong class for its kind is a
:class:`~repro.errors.ConfigError`.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

from ..config import (
    ClientHwConfig,
    FilerConfig,
    LinuxServerConfig,
    LocalFsConfig,
    MountConfig,
    NetConfig,
    NfsClientConfig,
)
from ..errors import ConfigError
from ..value import Value

__all__ = ["ClientSpec", "ServerSpec", "SwitchSpec", "SERVER_KINDS"]

#: The target kinds a :class:`ServerSpec` can name (the historical
#: ``TestBed`` targets).
SERVER_KINDS = ("netapp", "linux", "linux-100", "local")

#: Server kind -> the config class it accepts.
_KIND_CONFIG = {
    "netapp": FilerConfig,
    "linux": LinuxServerConfig,
    "linux-100": LinuxServerConfig,
    "local": LocalFsConfig,
}


class SwitchSpec(Value):
    """The shared switch every host plugs into."""

    name: str = "switch"
    #: Seed of the switch's loss RNG stream (fault injection).
    seed: int = 0


class ServerSpec(Value):
    """One target: a server machine, or client-local ext2.

    ``config`` must match ``kind`` (``FilerConfig`` for ``netapp``,
    ``LinuxServerConfig`` for ``linux``/``linux-100``, ``LocalFsConfig``
    for ``local``); ``None`` takes the kind's defaults.  ``net``
    overrides the server's link (``linux-100`` defaults to 100 Mbps
    fast Ethernet, everything else to the topology's default network).
    ``name`` overrides the server host name when several servers of the
    same kind share a switch.
    """

    kind: str = "netapp"
    config: Union[FilerConfig, LinuxServerConfig, LocalFsConfig, None] = None
    net: Optional[NetConfig] = None
    name: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in SERVER_KINDS:
            raise ConfigError(
                f"unknown server kind {self.kind!r} (expected one of {SERVER_KINDS})"
            )
        expected = _KIND_CONFIG[self.kind]
        if self.config is not None and not isinstance(self.config, expected):
            raise ConfigError(
                f"ServerSpec(kind={self.kind!r}) takes a {expected.__name__}, "
                f"got {type(self.config).__name__}"
            )

    @property
    def is_local(self) -> bool:
        """Client-local ext2: no server host, no network."""
        return self.kind == "local"


class ClientSpec(Value):
    """One client machine: host + page cache + syscall layer + NFS client.

    ``client`` is a variant name (``"stock"``, ``"enhanced"``, ...) or
    an explicit :class:`~repro.config.NfsClientConfig`.  ``server``
    picks which of the topology's servers this client mounts (by index).
    ``start_offset_ns`` delays this client's workload in fleet runs —
    staggered starts.  ``chunk_bytes`` overrides the fleet's write size
    for this client (mixed-size workloads); 0 means "use the fleet
    default".
    """

    client: Union[str, NfsClientConfig] = "stock"
    hw: Optional[ClientHwConfig] = None
    net: Optional[NetConfig] = None
    mount: Optional[MountConfig] = None
    name: Optional[str] = None
    server: int = 0
    start_offset_ns: int = 0
    chunk_bytes: int = 0

    def __post_init__(self) -> None:
        if self.server < 0:
            raise ConfigError(f"server index must be >= 0, got {self.server}")
        if self.start_offset_ns < 0:
            raise ConfigError("start_offset_ns must be >= 0")
        if self.chunk_bytes < 0:
            raise ConfigError("chunk_bytes must be >= 0")

    def replicate(self, count: int) -> Tuple["ClientSpec", ...]:
        """``count`` identical copies of this spec (a homogeneous fleet)."""
        if count < 1:
            raise ConfigError(f"client count must be >= 1, got {count}")
        return tuple(self for _ in range(count))
