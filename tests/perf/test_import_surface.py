"""What importing and running the simulator loads.

Every benchmark worker, example script and sweep process pays for its
imports before the first simulated event.  ``repro`` and ``repro.obs``
resolve their public names lazily, and the model never imports the
sweep executor, so building a run loads the model alone: no
experiments, no process pools, no exporters.  Each check runs in a
fresh interpreter, because this test process has imported everything.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro
from repro.experiments.bench import BUILD_IMPORTS

SRC = str(Path(repro.__file__).resolve().parents[1])

#: Modules no model run needs.
NOT_MODEL = (
    "repro.experiments",
    "repro.parallel",
    "repro.chaos",
    "repro.obs.export",
    "repro.obs.report",
    "repro.analysis.flow",
    "concurrent.futures",
    "multiprocessing",
)


def _run(code: str, *flags: str):
    """Run ``code`` in a fresh interpreter started with ``flags``;
    return what it prints as JSON."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, *flags, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return json.loads(proc.stdout)


def test_build_imports_load_only_the_model():
    loaded = _run(BUILD_IMPORTS + "import json, sys; print(json.dumps(sorted(sys.modules)))")
    assert [name for name in NOT_MODEL if name in loaded] == []


def test_build_imports_compile_no_dataclasses():
    # ``dataclasses`` execs generated methods for every class it
    # decorates, and importing it loads ``inspect`` (with ``ast``,
    # ``dis`` and ``tokenize``): about 60% of building a workload.  The
    # model's specs derive from ``repro.value.Value`` instead.
    loaded = _run(BUILD_IMPORTS + "import json, sys; print(json.dumps(sorted(sys.modules)))")
    assert [name for name in ("dataclasses", "inspect") if name in loaded] == []


def test_build_imports_skip_the_result_cache_file_store():
    # The model imports ``repro.cache`` for ``fingerprint`` alone; only
    # ``ResultCache`` and ``code_version_token`` need these.  ``-S``
    # keeps a host's ``site`` from having imported them already.
    code = "import sys\nbefore = set(sys.modules)\n" + BUILD_IMPORTS
    loaded = _run(
        code + "import json; print(json.dumps(sorted(set(sys.modules) - before)))",
        "-S",
    )
    assert "repro.cache" in loaded
    assert [name for name in ("tempfile", "pathlib") if name in loaded] == []


def test_import_sim_loads_only_the_event_kernel():
    loaded = _run(
        "import sys; before = set(sys.modules); import repro.sim, json; "
        "print(json.dumps(sorted(set(sys.modules) - before)))"
    )
    ours = [name for name in loaded if name.split(".")[0] == "repro"]
    assert ours and all(
        name in ("repro", "repro.errors", "repro.sim") or name.startswith("repro.sim.")
        for name in ours
    ), ours


def test_runs_import_nothing_after_set_up():
    # A module first imported during a run would move its import cost
    # from set-up into the run's wall time.
    first_imported = _run(
        BUILD_IMPORTS
        + """
import json, sys
from repro.units import KIB, MB

bed = TestBed(target="netapp", client="stock")
spec = FleetJobSpec.homogeneous(4, target="netapp", file_bytes=256 * KIB)
workload = FleetWorkload(
    Topology(clients=spec.clients, servers=spec.servers, switch=spec.switch),
    spec.file_bytes,
)
before = set(sys.modules)
bed.run_sequential_write(2 * MB)
reduce_fleet(workload.run())
print(json.dumps(sorted(set(sys.modules) - before)))
"""
    )
    assert first_imported == []


def test_lazy_names_resolve_and_fleet_payloads_revive_cold():
    result = _run(
        """
import json, sys, tempfile
import repro, repro.obs

cold = "repro.topology" not in sys.modules
from repro.topology import FleetJobSpec

spec = FleetJobSpec.homogeneous(1)
with tempfile.TemporaryDirectory() as tmp:
    cache = repro.ResultCache(tmp)
    cache.put(
        spec.fingerprint(),
        {"__kind__": "fleet", "clients": [], "servers": [], "events_processed": 7},
    )
    (point,) = repro.SweepExecutor(cache=cache).map([spec])
missing = [
    f"{package.__name__}.{name}"
    for package in (repro, repro.obs)
    for name in package.__all__
    if not hasattr(package, name)
]
print(json.dumps([cold, type(point).__name__, point.events_processed, missing]))
"""
    )
    assert result == [True, "FleetPointResult", 7, []]
