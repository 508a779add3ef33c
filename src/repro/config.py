"""Configuration value objects and paper-derived calibration constants.

Every tunable of the simulated test bed lives here, so experiments can
describe themselves entirely in terms of configuration objects.  Default
values reproduce the paper's hardware (§3.1) and the costs it measured
(e.g. the 50 µs `sock_sendmsg` cost from §3.5).
"""

from __future__ import annotations

from .errors import ConfigError
from .units import MIB, PAGE_SIZE, gbit, mbit, mbps, us
from .value import Value

__all__ = [
    "CpuCosts",
    "ClientHwConfig",
    "NetConfig",
    "MountConfig",
    "NfsClientConfig",
    "FilerConfig",
    "LinuxServerConfig",
    "LocalFsConfig",
    "scaled",
    "MAX_REQUEST_SOFT",
    "MAX_REQUEST_HARD",
]

#: Per-inode pending-request count that triggers a synchronous flush in
#: the stock 2.4.4 client (§3.3).
MAX_REQUEST_SOFT = 192
#: Per-mount pending-request count that puts writers to sleep (§3.3).
MAX_REQUEST_HARD = 256


class CpuCosts(Value):
    """CPU time charged for the client-side operations we model.

    All values are nanoseconds.  Calibrated so that the healthy write
    path costs ~55 µs per 8 KB call (two pages), reproducing the
    140+ MBps memory-write throughput of Table 1, and so that the
    network-layer send cost matches the 50 µs the paper measured.
    """

    #: write() entry/exit: user->kernel crossing, fd lookup, VFS dispatch.
    syscall_overhead: int = us(4)
    #: Copying one page of user data into the page cache (PC133 SDRAM).
    page_copy: int = us(18)
    #: Fixed cost of nfs_update_request bookkeeping per page (allocate
    #: request, link into lists) excluding the index search.
    request_setup: int = us(3)
    #: Visiting one node of the per-inode sorted request list
    #: (pointer-chasing cache misses on a 933 MHz P3).
    list_node_visit: int = 17
    #: Hash bucket computation for the hash-table index.
    hash_lookup: int = 300
    #: Visiting one entry within a hash bucket.
    hash_node_visit: int = 60
    #: Allocating and queueing an async RPC task (paid at submit time
    #: whether or not the send happens inline).
    rpc_task_setup: int = us(1)
    #: Building an RPC WRITE request (XDR encode, headers).
    rpc_build: int = us(8)
    #: sock_sendmsg() for one RPC: "the kernel spends 50 microseconds per
    #: write request in the network layer" (§3.5).
    sock_sendmsg: int = us(50)
    #: rpciod/softirq work to process one RPC reply (locate task by xid,
    #: state machine, wake completion).
    reply_processing: int = us(12)
    #: NFS write completion per page request (unlink, page free, wakeups).
    request_complete: int = us(4)
    #: Hardware interrupt + driver work per received Ethernet frame.
    rx_frame_irq: int = us(5)
    #: Per-page cost of the local ext2 write path (buffer heads, balance
    #: checks) on top of the copy.
    ext2_page_overhead: int = us(3)
    #: do_gettimeofday + kernel-log write: cost of the paper's latency
    #: instrumentation, charged only when instrumentation is enabled.
    instrumentation: int = us(2)


class ClientHwConfig(Value):
    """The dual-processor client machine of §3.1."""

    ncpus: int = 2
    ram_bytes: int = 256 * MIB
    #: RAM not available to the page cache (kernel, daemons, benchmark).
    reserved_bytes: int = 48 * MIB
    #: Fraction of available page-cache RAM that may be dirty before the
    #: VM throttles writers.
    dirty_limit_fraction: float = 0.75
    #: Dirty fraction at which background writeback kicks in.
    dirty_background_fraction: float = 0.30
    costs: CpuCosts = CpuCosts()

    def __post_init__(self) -> None:
        if self.ncpus < 1:
            raise ConfigError("client needs at least one CPU")
        if self.reserved_bytes >= self.ram_bytes:
            raise ConfigError("reserved memory exceeds RAM")
        if not 0.0 < self.dirty_limit_fraction <= 1.0:
            raise ConfigError("dirty_limit_fraction must be in (0, 1]")

    @property
    def cache_bytes(self) -> int:
        """Page-cache capacity."""
        return self.ram_bytes - self.reserved_bytes

    @property
    def dirty_limit_bytes(self) -> int:
        return int(self.cache_bytes * self.dirty_limit_fraction)

    @property
    def dirty_background_bytes(self) -> int:
        return int(self.cache_bytes * self.dirty_background_fraction)


class NetConfig(Value):
    """One full-duplex Ethernet path client<->server through the switch."""

    bandwidth_bytes_per_sec: float = gbit(1)
    #: One-way propagation + switch store-and-forward latency.
    latency_ns: int = us(25)
    mtu: int = 1500
    #: Ethernet + IP + UDP header bytes per fragment on the wire.
    header_bytes: int = 46
    #: Per-fragment drop probability at the switch (fault injection;
    #: the test bed's dedicated switch drops nothing by default).
    loss_probability: float = 0.0

    def __post_init__(self) -> None:
        if self.mtu <= self.header_bytes:
            raise ConfigError("MTU smaller than headers")
        if not 0.0 <= self.loss_probability < 1.0:
            raise ConfigError("loss_probability must be in [0, 1)")

    @staticmethod
    def gigabit(jumbo: bool = False) -> "NetConfig":
        """The test bed's switched gigabit network (§3.1)."""
        return NetConfig(mtu=9000 if jumbo else 1500)

    @staticmethod
    def fast_ethernet() -> "NetConfig":
        """The 100 Mbps comparison network of §3.5."""
        return NetConfig(bandwidth_bytes_per_sec=mbit(100), latency_ns=us(60))


class MountConfig(Value):
    """NFS mount options (§3.1: NFSv3, rsize=wsize=8192)."""

    wsize: int = 8192
    rsize: int = 8192
    nfs_version: int = 3
    #: UDP retransmit timeout (Linux default: 0.7 s, exponential backoff).
    timeo_ns: int = 700_000_000
    #: Retransmissions before a *major* timeout.  On a hard mount the
    #: client logs "server not responding" and restarts the backoff
    #: cycle; on a soft mount the request fails with EIO.
    retrans: int = 5
    #: ``soft`` mount option: give up after ``retrans`` retransmissions
    #: and surface EIO to the caller.  Default (hard) retries forever.
    soft: bool = False
    #: Use Linux's per-op-class RTT estimation (srtt/rttvar, as in
    #: ``net/sunrpc/timer.c``) for the minor-timeout interval instead of
    #: the fixed ``timeo`` base.  Backoff and the retrans cap still apply.
    adaptive_timeo: bool = False
    #: Delay before retrying a call answered NFS3ERR_JUKEBOX
    #: (Linux: NFS_JUKEBOX_RETRY_TIME = 5 s).
    jukebox_delay_ns: int = 5_000_000_000
    #: Pages of sequential read-ahead past a faulting read (2.4 ramped
    #: its window up to 128 KB; we model the steady window).
    readahead_pages: int = 32

    def __post_init__(self) -> None:
        if self.wsize % PAGE_SIZE:
            raise ConfigError("wsize must be a multiple of the page size")
        if self.nfs_version not in (2, 3):
            raise ConfigError("only NFSv2/v3 modelled")
        if self.retrans < 1:
            raise ConfigError("retrans must be >= 1")
        if self.timeo_ns <= 0:
            raise ConfigError("timeo_ns must be positive")
        if self.jukebox_delay_ns < 0:
            raise ConfigError("jukebox_delay_ns must be >= 0")


class NfsClientConfig(Value):
    """Behavioural switches distinguishing the paper's client variants."""

    #: Apply the MAX_REQUEST_SOFT / MAX_REQUEST_HARD flush thresholds
    #: (stock 2.4.4) instead of caching until fsync/close/memory pressure.
    eager_flush_limits: bool = True
    max_request_soft: int = MAX_REQUEST_SOFT
    max_request_hard: int = MAX_REQUEST_HARD
    #: Index outstanding requests with the paper's hash table instead of
    #: the stock per-inode sorted list.
    hashtable_index: bool = False
    hash_buckets: int = 256
    #: Release the Big Kernel Lock around sock_sendmsg() (the SMP patch).
    release_bkl_for_send: bool = False
    #: RPC transport slot table size (Linux: 16 concurrent requests).
    rpc_slots: int = 16
    #: §3.4's suggested further improvement: fold the incompatible-request
    #: search and nfs_update_request's search into one pass.
    single_search: bool = False
    #: Record per-call latency (the benchmark instrumentation).
    instrument_latency: bool = True

    def label(self) -> str:
        """Short human-readable variant tag."""
        bits = []
        bits.append("stock-flush" if self.eager_flush_limits else "lazy-flush")
        bits.append("hash" if self.hashtable_index else "list")
        bits.append("nolock" if self.release_bkl_for_send else "bkl")
        return "+".join(bits)


class FilerConfig(Value):
    """The prototype Network Appliance F85 (§3.1).

    Sustained network write throughput ~38 MBps; writes land in NVRAM and
    are acknowledged FILE_SYNC; WAFL checkpoints briefly pause request
    processing (§3.5's explanation for the low-jitter gap in Fig. 4).
    """

    #: Per-8KB-write service demand: 8192 B / 38 MBps ≈ 215 µs.  Expressed
    #: as an ingest rate so other write sizes scale.
    ingest_bytes_per_sec: float = mbps(38)
    nvram_bytes: int = 64 * MIB
    #: RAID-4 volume drain rate (eight data spindles, WAFL full-stripe
    #: writes).  Sustained throughput is ingest-bound, not drain-bound.
    raid_drain_bytes_per_sec: float = mbps(45)
    #: Duration of the request-processing pause at each checkpoint.
    checkpoint_pause_ns: int = 45_000_000
    #: A checkpoint starts when the active NVRAM half fills.
    name: str = "netapp-f85"


class LinuxServerConfig(Value):
    """The four-way Linux 2.4.4 knfsd server (§3.1).

    Network ingest ~26 MBps (gigabit NIC in a 32-bit/33 MHz PCI slot);
    UNSTABLE writes into the page cache; COMMIT forces the single SCSI
    disk.
    """

    ingest_bytes_per_sec: float = mbps(26)
    ram_bytes: int = 512 * MIB
    disk_bytes_per_sec: float = mbps(25)
    disk_seek_ns: int = 6_000_000
    #: knfsd write gathering: hold a synchronous write briefly so
    #: adjacent sync writes share one disk pass (2.4's answer to the
    #: NFSv2 sync-write problem).
    write_gathering: bool = False
    gather_ns: int = 5_000_000
    name: str = "linux-nfsd"


class LocalFsConfig(Value):
    """Client-local ext2 on the IBM Deskstar EIDE drive (§3.1).

    The ServerWorks south bridge limits the IDE controller to multiword
    DMA mode 2 (16.6 MB/s burst); sustained sequential writes land a bit
    lower.
    """

    disk_bytes_per_sec: float = mbps(15)
    disk_seek_ns: int = 9_000_000
    name: str = "local-ext2"


def scaled(hw: ClientHwConfig, factor: float) -> ClientHwConfig:
    """Scale client memory down by ``factor`` (see DESIGN.md §5).

    Per-operation costs and the flush thresholds stay untouched; only
    capacity shrinks, preserving every ratio-driven phenomenon while
    cutting simulated event counts.
    """
    if factor <= 0:
        raise ConfigError("scale factor must be positive")
    return hw.replace(
        ram_bytes=int(hw.ram_bytes / factor),
        reserved_bytes=int(hw.reserved_bytes / factor),
    )
