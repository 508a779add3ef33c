"""Spec validation: kinds, config matching, client replication."""

import pytest

from repro.config import FilerConfig, LinuxServerConfig, LocalFsConfig
from repro.errors import ConfigError
from repro.topology import SERVER_KINDS, ClientSpec, ServerSpec


def test_server_kinds_match_testbed():
    from repro.bench import TestBed

    assert SERVER_KINDS == ("netapp", "linux", "linux-100", "local")
    assert [TestBed(target=kind).target for kind in SERVER_KINDS] == list(
        SERVER_KINDS
    )


def test_unknown_kind_rejected():
    with pytest.raises(ConfigError, match="unknown server kind"):
        ServerSpec(kind="solaris")


@pytest.mark.parametrize(
    "kind,good,bad",
    [
        ("netapp", FilerConfig(), LinuxServerConfig()),
        ("linux", LinuxServerConfig(), FilerConfig()),
        ("linux-100", LinuxServerConfig(), LocalFsConfig()),
        ("local", LocalFsConfig(), FilerConfig()),
    ],
)
def test_config_type_must_match_kind(kind, good, bad):
    assert ServerSpec(kind, good).config is good
    with pytest.raises(ConfigError, match="takes a"):
        ServerSpec(kind, bad)


def test_client_spec_validation():
    with pytest.raises(ConfigError, match="server index"):
        ClientSpec(server=-1)
    with pytest.raises(ConfigError, match="start_offset_ns"):
        ClientSpec(start_offset_ns=-1)
    with pytest.raises(ConfigError, match="chunk_bytes"):
        ClientSpec(chunk_bytes=-4096)


def test_replicate_builds_homogeneous_fleets():
    specs = ClientSpec(client="enhanced").replicate(5)
    assert len(specs) == 5
    assert all(s.client == "enhanced" for s in specs)
    with pytest.raises(ConfigError, match="count"):
        ClientSpec().replicate(0)


def test_specs_are_picklable_and_fingerprintable():
    import pickle

    from repro.cache import fingerprint
    from repro.topology import FleetJobSpec

    spec = FleetJobSpec.homogeneous(3, target="linux", file_bytes=1 << 20)
    assert pickle.loads(pickle.dumps(spec)) == spec
    assert fingerprint(spec) == fingerprint(pickle.loads(pickle.dumps(spec)))
    other = FleetJobSpec.homogeneous(4, target="linux", file_bytes=1 << 20)
    assert fingerprint(spec) != fingerprint(other)
