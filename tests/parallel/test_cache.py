"""Unit tests for the content-addressed result cache."""

import json

import pytest

from repro.cache import (
    CACHE_DIR_ENV,
    ResultCache,
    code_version_token,
    default_cache_dir,
    fingerprint,
)
from repro.config import FilerConfig, NfsClientConfig
from repro.topology import ClientSpec, FleetJobSpec, ServerSpec


def spec(target="netapp", client="stock", config=None, file_bytes=2_000_000, **fields):
    """A one-client sweep point; ``fields`` are other FleetJobSpec fields."""
    return FleetJobSpec(
        clients=(ClientSpec(client=client),),
        servers=(ServerSpec(target, config),),
        file_bytes=file_bytes,
        **fields,
    )


class TestFingerprint:
    def test_stable_across_calls(self):
        assert spec().fingerprint() == spec().fingerprint()

    def test_differs_on_any_field(self):
        base = spec().fingerprint()
        assert spec(file_bytes=4_000_000).fingerprint() != base
        assert spec(target="linux").fingerprint() != base
        assert spec(client="enhanced").fingerprint() != base
        assert spec(do_fsync=False).fingerprint() != base

    def test_nested_config_fields_participate(self):
        a = spec(config=FilerConfig()).fingerprint()
        b = spec(config=FilerConfig(nvram_bytes=1 << 20)).fingerprint()
        assert a != b

    def test_explicit_config_object_vs_variant_name(self):
        named = spec(client="stock").fingerprint()
        explicit = spec(client=NfsClientConfig()).fingerprint()
        assert named != explicit

    def test_code_version_token_changes_key(self):
        assert (
            spec().fingerprint(version="aaaa")
            != spec().fingerprint(version="bbbb")
        )

    def test_token_is_cached_and_hexish(self):
        token = code_version_token()
        assert token == code_version_token()
        assert len(token) == 16
        int(token, 16)  # raises if not hex

    def test_unfingerprintable_value_rejected(self):
        with pytest.raises(TypeError):
            fingerprint(object(), version="x")


class TestResultCache:
    def test_miss_then_round_trip(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        key = spec().fingerprint(version="test")
        assert cache.get(key) is None
        payload = {"write_elapsed_ns": 123, "latencies_ns": [1, 2, 3]}
        cache.put(key, payload)
        assert cache.get(key) == payload
        assert cache.hits == 1 and cache.misses == 1 and cache.stores == 1

    def test_survives_new_instance(self, tmp_path):
        key = "ab" + "0" * 62
        ResultCache(str(tmp_path)).put(key, {"x": 1})
        assert ResultCache(str(tmp_path)).get(key) == {"x": 1}

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        key = "cd" + "0" * 62
        cache.put(key, {"x": 1})
        cache._path(key).write_text("{ not json")
        assert cache.get(key) is None

    def test_non_dict_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        key = "ef" + "0" * 62
        cache._path(key).parent.mkdir(parents=True)
        cache._path(key).write_text(json.dumps([1, 2]))
        assert cache.get(key) is None

    def test_len_and_clear(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        for i in range(3):
            cache.put(f"{i:02x}" + "0" * 62, {"i": i})
        assert len(cache) == 3
        assert cache.clear() == 3
        assert len(cache) == 0

    def test_no_temp_droppings(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cache.put("aa" + "0" * 62, {"x": 1})
        assert not list(tmp_path.rglob("*.tmp"))

    def test_default_dir_env_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "elsewhere"))
        assert default_cache_dir() == str(tmp_path / "elsewhere")
