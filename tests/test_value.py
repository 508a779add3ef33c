"""The value-object base: dataclass parity for the model's specs.

The configs and specs the model builds from derive from
:class:`repro.value.Value` instead of ``dataclasses``.  These checks pin
what callers relied on: frozen fields, value equality and hashing,
positional construction, validation on every construction and
``replace()``, the dataclass-style ``repr``, pickling, and the cache
fingerprints of job specs.
"""

import pickle

import pytest

from repro.cache import fingerprint
from repro.config import ClientHwConfig, CpuCosts, MountConfig, NetConfig
from repro.errors import ConfigError
from repro.topology import FleetJobSpec
from repro.topology.spec import ClientSpec, ServerSpec, SwitchSpec
from repro.traffic.spec import ArrivalSpec
from repro.units import KIB
from repro.value import Value

#: ``fingerprint(spec, version="pinned")`` as computed when these
#: classes were still frozen dataclasses.
PINNED_DIGESTS = {
    "fleet": "e366a843c3f1ea507361bc0549832d6ee73ddfc023e86c92711aecbbf918895a",
}


@pytest.mark.parametrize(
    "value, field",
    [
        (NetConfig(), "mtu"),
        (MountConfig(), "wsize"),
        (ServerSpec(), "kind"),
        (FleetJobSpec.homogeneous(2), "file_bytes"),
    ],
)
def test_assigning_or_deleting_a_field_raises(value, field):
    with pytest.raises(AttributeError, match=field):
        setattr(value, field, 1)
    with pytest.raises(AttributeError):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.not_a_field = 1


@pytest.mark.parametrize(
    "make, other",
    [
        (lambda: NetConfig(mtu=9000), lambda: NetConfig(mtu=1500)),
        (lambda: MountConfig(retrans=3), lambda: MountConfig(retrans=4)),
        (
            lambda: ServerSpec("linux", net=NetConfig.fast_ethernet()),
            lambda: ServerSpec("linux"),
        ),
        (
            lambda: FleetJobSpec.homogeneous(4, file_bytes=256 * KIB),
            lambda: FleetJobSpec.homogeneous(4, file_bytes=128 * KIB),
        ),
    ],
)
def test_equality_and_hash_go_by_value(make, other):
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a != other()
    # Different classes never compare equal, even with equal fields.
    assert SwitchSpec() != ServerSpec()
    assert NetConfig() != object()


def test_positional_construction_follows_field_order():
    assert NetConfig(1e8, 60_000, 9000) == NetConfig(
        bandwidth_bytes_per_sec=1e8, latency_ns=60_000, mtu=9000
    )
    assert MountConfig(16384, 16384, 2).nfs_version == 2
    spec = ServerSpec("linux", None, NetConfig(mtu=9000), "knfsd")
    assert (spec.kind, spec.net.mtu, spec.name) == ("linux", 9000, "knfsd")
    fleet = FleetJobSpec((ClientSpec(),), (ServerSpec("local"),))
    assert fleet.servers[0].is_local and fleet.file_bytes == 1 << 20


def test_construction_errors_are_type_errors():
    with pytest.raises(TypeError, match="unexpected keyword argument 'speed'"):
        NetConfig(speed=1)
    with pytest.raises(TypeError, match="multiple values for argument 'bandwidth"):
        NetConfig(1e8, bandwidth_bytes_per_sec=1e8)
    with pytest.raises(TypeError, match="positional arguments"):
        SwitchSpec("s", 0, "extra")
    with pytest.raises(TypeError, match="missing required argument 'clients'"):
        FleetJobSpec()


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: NetConfig(mtu=46), "MTU smaller than headers"),
        (lambda: NetConfig(loss_probability=1.0), r"loss_probability must be in \[0, 1\)"),
        (lambda: MountConfig(wsize=1000), "wsize must be a multiple of the page size"),
        (lambda: MountConfig(nfs_version=4), "only NFSv2/v3 modelled"),
        (lambda: MountConfig(retrans=0), "retrans must be >= 1"),
        (lambda: MountConfig(timeo_ns=0), "timeo_ns must be positive"),
        (lambda: MountConfig(jukebox_delay_ns=-1), "jukebox_delay_ns must be >= 0"),
        (lambda: ServerSpec("nfs4"), "unknown server kind 'nfs4'"),
        (
            lambda: ServerSpec("netapp", config=NetConfig()),
            r"ServerSpec\(kind='netapp'\) takes a FilerConfig, got NetConfig",
        ),
        (
            lambda: FleetJobSpec.homogeneous(
                2, workload=("database-fsync", {}), arrivals={"rate_per_s": 5.0}
            ),
            "give either workload or arrivals, not both",
        ),
    ],
)
def test_post_init_config_errors_are_unchanged(build, message):
    with pytest.raises(ConfigError, match=message):
        build()


def test_replace_copies_and_revalidates():
    net = NetConfig()
    jumbo = net.replace(mtu=9000)
    assert (net.mtu, jumbo.mtu) == (1500, 9000)
    assert jumbo == NetConfig(mtu=9000)
    with pytest.raises(ConfigError, match="MTU smaller than headers"):
        net.replace(mtu=40)
    with pytest.raises(ConfigError, match="retrans must be >= 1"):
        MountConfig().replace(retrans=0)
    with pytest.raises(ConfigError, match="unknown server kind"):
        ServerSpec().replace(kind="nfs4")
    with pytest.raises(TypeError, match="unexpected keyword argument"):
        MountConfig().replace(rsize_kb=8)
    fleet = FleetJobSpec.homogeneous(2)
    # __post_init__ normalises again: a dict of workload params becomes
    # a sorted tuple, as at construction.
    mixed = fleet.replace(workload=("database-fsync", {"transactions": 5}))
    assert mixed.workload == ("database-fsync", (("transactions", 5),))
    with pytest.raises(ConfigError, match="not both"):
        mixed.replace(arrivals={"rate_per_s": 5.0})


def test_repr_matches_the_dataclass_form():
    assert repr(ServerSpec("linux", name="knfsd")) == (
        "ServerSpec(kind='linux', config=None, net=None, name='knfsd')"
    )
    assert repr(NetConfig()) == (
        "NetConfig(bandwidth_bytes_per_sec=125000000.0, latency_ns=25000, "
        "mtu=1500, header_bytes=46, loss_probability=0.0)"
    )


def test_values_pickle_round_trip():
    spec = FleetJobSpec.homogeneous(
        3, target="linux", arrivals={"rate_per_s": 20.0, "duration_ns": 10**7}
    )
    revived = pickle.loads(pickle.dumps(spec))
    assert revived == spec and hash(revived) == hash(spec)
    assert isinstance(revived.arrivals, ArrivalSpec)
    with pytest.raises(AttributeError):
        revived.seed = 2


def test_fields_and_shared_defaults():
    assert NetConfig.FIELDS == (
        "bandwidth_bytes_per_sec",
        "latency_ns",
        "mtu",
        "header_bytes",
        "loss_probability",
    )
    assert FleetJobSpec.FIELDS[:3] == ("clients", "servers", "switch")
    # An immutable default is shared rather than rebuilt per instance.
    assert ClientHwConfig().costs is ClientHwConfig().costs == CpuCosts()


def test_subclasses_inherit_fields_and_may_override_defaults():
    class Base(Value):
        a: int
        b: int = 2

    class Child(Base):
        b: int = 3
        c: str = "x"

    assert Base.FIELDS == ("a", "b")
    assert Child.FIELDS == ("a", "b", "c")
    assert Child(1) == Child(a=1, b=3, c="x")
    assert Base(1).b == 2
    assert repr(Child(1, c="y")).endswith("Child(a=1, b=3, c='y')")


def test_job_spec_fingerprints_match_the_dataclass_digests():
    fleet = FleetJobSpec.homogeneous(4, target="netapp", file_bytes=256 * KIB)
    assert fingerprint(fleet, version="pinned") == PINNED_DIGESTS["fleet"]
