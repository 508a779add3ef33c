"""Tests for the whole-program flow analysis (repro.analysis.flow)."""

import io
import json
import textwrap

import pytest

from repro.analysis.flow import (
    DEFAULT_CONFIG,
    FLOW_RULES,
    FlowConfig,
    REPORT_SCHEMA,
    analyze,
    run_flow,
)
from repro.analysis.flow.baseline import (
    BASELINE_SCHEMA,
    apply_baseline,
    load_baseline,
    save_baseline,
)
from repro.experiments.cli import main as cli_main


def codes(report):
    return [f.code for f in report.findings]


def fixture_config():
    """Config for the synthetic ``pkg`` fixture packages built below."""
    return FlowConfig(
        root_package="pkg",
        owned_module_prefixes=("pkg.obs",),
        entry_module_prefixes=("pkg.obs",),
        entry_exclude=frozenset(),
    )


SIM_PY = textwrap.dedent(
    """
    class Server:
        def __init__(self):
            self.dirty = False
            self.count = 0

    class Simulator:
        def __init__(self):
            self.now = 0.0

        def call_after(self, delay, fn):
            return (delay, fn)
    """
)

OBS_CLEAN = textwrap.dedent(
    """
    from .sim import Server, Simulator

    class Obs:
        def __init__(self):
            self.count = 0
            self.server = Server()
            self.sim = Simulator()

        def on_write(self, nbytes):
            self.count += 1
    """
)


def build_pkg(tmp_path, files):
    root = tmp_path / "pkg"
    root.mkdir()
    (root / "__init__.py").write_text("")
    for name, src in files.items():
        (root / name).write_text(src)
    return root


def analyze_pkg(tmp_path, files):
    root = build_pkg(tmp_path, files)
    return analyze(root, config=fixture_config())


# -- PUR5xx pure-observer -----------------------------------------------------


def test_clean_observer_has_no_findings(tmp_path):
    report = analyze_pkg(tmp_path, {"sim.py": SIM_PY, "obs.py": OBS_CLEAN})
    assert codes(report) == []


def test_pur501_catches_injected_obs_hook_mutation(tmp_path):
    # The acceptance fixture: an observer hook that writes simulation
    # state through a typed self attribute must be caught.
    obs = OBS_CLEAN + textwrap.dedent(
        """
        def on_flush(obs: Obs):
            obs.server.dirty = True
        """
    )
    report = analyze_pkg(tmp_path, {"sim.py": SIM_PY, "obs.py": obs})
    found = codes(report)
    assert "PUR501" in found
    finding = next(f for f in report.findings if f.code == "PUR501")
    assert "Server" in finding.message
    assert finding.severity == "error"


def test_pur501_catches_mutation_via_self_attribute(tmp_path):
    obs = OBS_CLEAN.replace(
        "self.count += 1",
        "self.count += 1\n        self.server.count = nbytes",
    )
    report = analyze_pkg(tmp_path, {"sim.py": SIM_PY, "obs.py": obs})
    assert "PUR501" in codes(report)


def test_pur501_reaches_through_helper_calls(tmp_path):
    # The write sits two calls below the hook; propagation must carry it
    # back up to the observer region.
    obs = OBS_CLEAN + textwrap.dedent(
        """
        class Deep(Obs):
            def on_commit(self):
                self._note()

            def _note(self):
                self._really_note()

            def _really_note(self):
                self.server.count = 7
        """
    )
    report = analyze_pkg(tmp_path, {"sim.py": SIM_PY, "obs.py": obs})
    assert "PUR501" in codes(report)


def test_pur503_flags_observer_scheduling(tmp_path):
    obs = OBS_CLEAN + textwrap.dedent(
        """
        class Ticker(Obs):
            def on_tick(self):
                self.sim.call_after(1.0, self.on_write)
        """
    )
    report = analyze_pkg(tmp_path, {"sim.py": SIM_PY, "obs.py": obs})
    assert "PUR503" in codes(report)


def test_observer_writes_to_owned_state_stay_clean(tmp_path):
    obs = OBS_CLEAN + textwrap.dedent(
        """
        class Histo(Obs):
            def on_sample(self, value):
                self.count += value
                self.last = value
        """
    )
    report = analyze_pkg(tmp_path, {"sim.py": SIM_PY, "obs.py": obs})
    assert "PUR501" not in codes(report)
    assert "PUR503" not in codes(report)


# -- DET15x interprocedural taint ---------------------------------------------


def test_det151_clock_taint_reaches_fingerprint(tmp_path):
    src = textwrap.dedent(
        """
        import time

        def fingerprint(x):
            return hash(x)

        def stamp():
            t = time.time()
            return fingerprint(t)
        """
    )
    report = analyze_pkg(tmp_path, {"sim.py": SIM_PY, "det.py": src})
    assert "DET151" in codes(report)


def test_det151_taint_flows_through_returns(tmp_path):
    src = textwrap.dedent(
        """
        import time

        def fingerprint(x):
            return hash(x)

        def now_ms():
            return time.time() * 1000.0

        def stamp():
            return fingerprint(now_ms())
        """
    )
    report = analyze_pkg(tmp_path, {"sim.py": SIM_PY, "det.py": src})
    assert "DET151" in codes(report)


@pytest.mark.parametrize(
    "imports, source",
    [
        ("import random", "random.gammavariate(2.0, 1.0)"),
        ("from datetime import datetime", "datetime.now()"),
    ],
)
def test_det151_every_syntactic_source_taints(tmp_path, imports, source):
    # Taint sources are exactly the calls DET101/DET102 flag.
    src = textwrap.dedent(
        f"""
        {imports}

        def fingerprint(x):
            return hash(x)

        def stamp():
            return fingerprint({source})
        """
    )
    report = analyze_pkg(tmp_path, {"sim.py": SIM_PY, "det.py": src})
    assert "DET151" in codes(report)


def test_det152_rng_taint_reaches_scheduler(tmp_path):
    src = textwrap.dedent(
        """
        import random

        from .sim import Simulator

        def jitter(sim: Simulator, fn):
            sim.call_after(random.random(), fn)
        """
    )
    report = analyze_pkg(tmp_path, {"sim.py": SIM_PY, "det.py": src})
    assert "DET152" in codes(report)


def test_det153_tainted_state_write_is_warning(tmp_path):
    src = textwrap.dedent(
        """
        import time

        class Node:
            def __init__(self):
                self.last = 0.0

            def touch(self):
                self.last = time.time()
        """
    )
    report = analyze_pkg(tmp_path, {"sim.py": SIM_PY, "det.py": src})
    found = [f for f in report.findings if f.code == "DET153"]
    assert found and all(f.severity == "warning" for f in found)


def test_seeded_stream_is_not_a_taint_source(tmp_path):
    src = textwrap.dedent(
        """
        import random

        def fingerprint(x):
            return hash(x)

        def stamp(seed):
            rng = random.Random(seed)
            return fingerprint(rng.random())
        """
    )
    report = analyze_pkg(tmp_path, {"sim.py": SIM_PY, "det.py": src})
    assert "DET151" not in codes(report)


def test_sorted_kills_set_order_taint(tmp_path):
    src = textwrap.dedent(
        """
        def fingerprint(x):
            return hash(x)

        def good(items):
            keys = set(items)
            return fingerprint(tuple(sorted(keys)))
        """
    )
    report = analyze_pkg(tmp_path, {"sim.py": SIM_PY, "det.py": src})
    assert "DET151" not in codes(report)


# -- LCK7xx lock discipline ---------------------------------------------------


def test_lck701_break_all_without_reacquire(tmp_path):
    src = textwrap.dedent(
        """
        def bad_send(bkl):
            depth = bkl.break_all()
            return depth
        """
    )
    report = analyze_pkg(tmp_path, {"sim.py": SIM_PY, "lck.py": src})
    found = [f for f in report.findings if f.code == "LCK701"]
    assert found and found[0].slug == "missing-reacquire"


def test_lck701_reacquire_outside_finally(tmp_path):
    src = textwrap.dedent(
        """
        def risky_send(bkl, wire):
            depth = bkl.break_all()
            wire.send(b"x")
            bkl.reacquire(depth)
        """
    )
    report = analyze_pkg(tmp_path, {"sim.py": SIM_PY, "lck.py": src})
    found = [f for f in report.findings if f.code == "LCK701"]
    assert found and found[0].slug == "no-try-finally"


def test_lck701_accepts_finally_protected_idiom(tmp_path):
    src = textwrap.dedent(
        """
        def good_send(bkl, wire):
            depth = bkl.break_all()
            try:
                wire.send(b"x")
            finally:
                bkl.reacquire(depth)
        """
    )
    report = analyze_pkg(tmp_path, {"sim.py": SIM_PY, "lck.py": src})
    assert "LCK701" not in codes(report)


def test_lck702_blocking_call_in_generator_handler(tmp_path):
    src = textwrap.dedent(
        """
        import time

        def handler():
            time.sleep(0.1)
            yield 1
        """
    )
    report = analyze_pkg(tmp_path, {"sim.py": SIM_PY, "lck.py": src})
    assert "LCK702" in codes(report)


def test_lck702_ignores_blocking_calls_outside_handlers(tmp_path):
    src = textwrap.dedent(
        """
        import time

        def host_side_setup():
            time.sleep(0.1)
        """
    )
    report = analyze_pkg(tmp_path, {"sim.py": SIM_PY, "lck.py": src})
    assert "LCK702" not in codes(report)


# -- SIM6xx simulator-API misuse ----------------------------------------------


def test_sim601_negative_constant_delay(tmp_path):
    src = textwrap.dedent(
        """
        from .sim import Simulator

        def oops(sim: Simulator, fn):
            sim.call_after(1.0 - 2.0, fn)
        """
    )
    report = analyze_pkg(tmp_path, {"sim.py": SIM_PY, "use.py": src})
    assert "SIM601" in codes(report)


def test_sim601_positive_delay_is_clean(tmp_path):
    src = textwrap.dedent(
        """
        from .sim import Simulator

        def fine(sim: Simulator, fn):
            sim.call_after(2.0 - 1.0, fn)
        """
    )
    report = analyze_pkg(tmp_path, {"sim.py": SIM_PY, "use.py": src})
    assert "SIM601" not in codes(report)


def test_sim602_schedule_on_possibly_none_attr(tmp_path):
    src = textwrap.dedent(
        """
        class Box:
            def __init__(self):
                self.sim = None

            def go(self, fn):
                self.sim.call_after(1.0, fn)
        """
    )
    report = analyze_pkg(tmp_path, {"sim.py": SIM_PY, "use.py": src})
    assert "SIM602" in codes(report)


def test_sim603_dropped_coroutine(tmp_path):
    src = textwrap.dedent(
        """
        def work():
            yield 1

        def run():
            work()
        """
    )
    report = analyze_pkg(tmp_path, {"sim.py": SIM_PY, "use.py": src})
    assert "SIM603" in codes(report)


def test_sim603_not_flagged_when_iterated(tmp_path):
    src = textwrap.dedent(
        """
        def work():
            yield 1

        def run():
            yield from work()

        def collect():
            return list(work())
        """
    )
    report = analyze_pkg(tmp_path, {"sim.py": SIM_PY, "use.py": src})
    assert "SIM603" not in codes(report)


# -- FLW00x / SUP401: syntax, suppressions, baseline hygiene ------------------


def test_flw001_reports_unparsable_file(tmp_path):
    report = analyze_pkg(
        tmp_path, {"sim.py": SIM_PY, "broken.py": "def oops(:\n"}
    )
    assert "FLW001" in codes(report)


def test_noqa_flow_suppresses_named_code(tmp_path):
    src = textwrap.dedent(
        """
        def work():
            yield 1

        def run():
            work()  # noqa: SIM603
        """
    )
    report = analyze_pkg(tmp_path, {"sim.py": SIM_PY, "use.py": src})
    assert "SIM603" not in codes(report)
    assert "SUP401" not in codes(report)


def test_noqa_flow_wrong_code_does_not_suppress(tmp_path):
    src = textwrap.dedent(
        """
        def work():
            yield 1

        def run():
            work()  # noqa: LCK701
        """
    )
    report = analyze_pkg(tmp_path, {"sim.py": SIM_PY, "use.py": src})
    found = codes(report)
    assert "SIM603" in found
    # The unused suppression itself goes stale.
    assert "SUP401" in found


def test_flw003_stale_noqa_flow(tmp_path):
    src = "X = 1  # noqa: SIM601\n"
    report = analyze_pkg(tmp_path, {"sim.py": SIM_PY, "use.py": src})
    found = [f for f in report.findings if f.code == "SUP401"]
    assert found and "SIM601" in found[0].message


# -- baseline round-trip ------------------------------------------------------


def broken_pkg_files():
    src = textwrap.dedent(
        """
        def work():
            yield 1

        def run():
            work()
        """
    )
    return {"sim.py": SIM_PY, "use.py": src}


def test_baseline_round_trip_masks_known_findings(tmp_path):
    root = build_pkg(tmp_path, broken_pkg_files())
    baseline = tmp_path / "baseline.json"
    report = analyze(root, config=fixture_config())
    assert codes(report) == ["SIM603"]
    save_baseline(baseline, report.findings)

    entries = load_baseline(baseline)
    kept, matched, stale = apply_baseline(report.findings, entries)
    assert kept == []
    assert matched == 1
    assert stale == []


def test_baseline_keys_are_line_number_free(tmp_path):
    root = build_pkg(tmp_path, broken_pkg_files())
    report = analyze(root, config=fixture_config())
    key = report.findings[0].key
    assert "SIM603" in key and "::pkg.use.run::" in key
    assert str(report.findings[0].line) + ":" not in key


def test_stale_baseline_entry_is_flw002_error(tmp_path):
    root = build_pkg(tmp_path, {"sim.py": SIM_PY})
    baseline = tmp_path / "baseline.json"
    baseline.write_text(
        json.dumps(
            {
                "schema": BASELINE_SCHEMA,
                "entries": [
                    {
                        "code": "SIM603",
                        "key": "SIM603::pkg/use.py::pkg.use.run::drop:work",
                        "justification": "legacy",
                    }
                ],
            }
        )
    )
    out = io.StringIO()
    rc = run_flow(
        root=str(root),
        baseline=str(baseline),
        out=out,
        config=fixture_config(),
    )
    assert rc == 1
    assert "FLW002" in out.getvalue()


def test_write_baseline_keeps_existing_justifications(tmp_path):
    root = build_pkg(tmp_path, broken_pkg_files())
    baseline = tmp_path / "baseline.json"
    rc = run_flow(
        root=str(root),
        write_baseline=str(baseline),
        out=io.StringIO(),
        config=fixture_config(),
    )
    assert rc == 0
    data = json.loads(baseline.read_text())
    data["entries"][0]["justification"] = "reviewed: generator drop is a test prop"
    baseline.write_text(json.dumps(data))

    rc = run_flow(
        root=str(root),
        write_baseline=str(baseline),
        out=io.StringIO(),
        config=fixture_config(),
    )
    assert rc == 0
    regenerated = json.loads(baseline.read_text())
    assert regenerated["entries"][0]["justification"] == (
        "reviewed: generator drop is a test prop"
    )


def test_new_finding_fails_despite_baseline(tmp_path):
    root = build_pkg(tmp_path, broken_pkg_files())
    baseline = tmp_path / "baseline.json"
    out = io.StringIO()
    rc = run_flow(
        root=str(root),
        write_baseline=str(baseline),
        out=out,
        config=fixture_config(),
    )
    assert rc == 0

    # A new dropped coroutine appears: the baseline must not mask it.
    (root / "use.py").write_text(
        (root / "use.py").read_text()
        + "\n\ndef run_again():\n    work()\n"
    )
    out = io.StringIO()
    rc = run_flow(
        root=str(root),
        baseline=str(baseline),
        out=out,
        config=fixture_config(),
    )
    assert rc == 1
    assert "run_again" in out.getvalue()


# -- run_flow CLI contract ----------------------------------------------------


def test_run_flow_exit_zero_on_clean_package(tmp_path):
    root = build_pkg(tmp_path, {"sim.py": SIM_PY, "obs.py": OBS_CLEAN})
    out = io.StringIO()
    rc = run_flow(root=str(root), strict=True, out=out, config=fixture_config())
    assert rc == 0
    assert "0 finding(s)" in out.getvalue()


def test_run_flow_exit_one_on_error_finding(tmp_path):
    root = build_pkg(tmp_path, broken_pkg_files())
    out = io.StringIO()
    rc = run_flow(root=str(root), out=out, config=fixture_config())
    assert rc == 1


def test_run_flow_warnings_fail_only_under_strict(tmp_path):
    src = textwrap.dedent(
        """
        import time

        class Node:
            def __init__(self):
                self.last = 0.0

            def touch(self):
                self.last = time.time()
        """
    )
    root = build_pkg(tmp_path, {"sim.py": SIM_PY, "det.py": src})
    # The clock read is also a DET102 error; select the warning under test.
    rc = run_flow(
        root=str(root), select="DET153", out=io.StringIO(), config=fixture_config()
    )
    assert rc == 0
    rc = run_flow(
        root=str(root),
        strict=True,
        select="DET153",
        out=io.StringIO(),
        config=fixture_config(),
    )
    assert rc == 1


def test_run_flow_unknown_select_is_usage_error(tmp_path):
    root = build_pkg(tmp_path, {"sim.py": SIM_PY})
    out = io.StringIO()
    rc = run_flow(
        root=str(root), select="NOPE999", out=out, config=fixture_config()
    )
    assert rc == 2
    assert "unknown rule code" in out.getvalue()


def test_run_flow_select_filters_codes(tmp_path):
    root = build_pkg(tmp_path, broken_pkg_files())
    out = io.StringIO()
    rc = run_flow(
        root=str(root), select="LCK701", out=out, config=fixture_config()
    )
    assert rc == 0  # the SIM603 finding is filtered out


def test_run_flow_bad_baseline_is_usage_error(tmp_path):
    root = build_pkg(tmp_path, {"sim.py": SIM_PY})
    baseline = tmp_path / "baseline.json"
    baseline.write_text("{not json")
    out = io.StringIO()
    rc = run_flow(
        root=str(root), baseline=str(baseline), out=out, config=fixture_config()
    )
    assert rc == 2
    assert "cannot load baseline" in out.getvalue()


def test_run_flow_json_payload_is_schema_stable(tmp_path):
    root = build_pkg(tmp_path, broken_pkg_files())
    out = io.StringIO()
    rc = run_flow(root=str(root), fmt="json", out=out, config=fixture_config())
    assert rc == 1
    payload = json.loads(out.getvalue())
    assert payload["schema"] == REPORT_SCHEMA
    assert set(payload) == {"schema", "root", "stats", "baseline", "findings"}
    finding = payload["findings"][0]
    assert set(finding) == {
        "code",
        "path",
        "line",
        "severity",
        "message",
        "scope",
        "key",
    }
    assert finding["code"] == "SIM603"


# -- self-analysis: the repository is its own fixture -------------------------


def test_repo_has_no_pur501_errors(repo_report):
    # The headline contract: no observer-reachable write to non-observer
    # state anywhere in the tree, without any baseline help.
    assert [f.render() for f in repo_report.findings if f.code == "PUR501"] == []


def test_repo_is_clean_under_committed_baseline():
    import pathlib

    repo = pathlib.Path(__file__).resolve().parents[2]
    out = io.StringIO()
    rc = run_flow(
        strict=True, baseline=str(repo / "flow-baseline.json"), out=out
    )
    assert rc == 0, out.getvalue()


def test_repo_analysis_is_fast_enough(repo_report):
    assert repo_report.stats["elapsed_ms"] < 30_000


def test_rule_table_is_consistent():
    for code, rule in FLOW_RULES.items():
        assert rule.code == code
        assert rule.severity in ("error", "warning")
        assert rule.summary


# -- CLI wiring ---------------------------------------------------------------


def test_cli_flow_subcommand_runs(tmp_path, capsys):
    root = build_pkg(tmp_path, broken_pkg_files())
    rc = cli_main(["flow", str(root)])
    captured = capsys.readouterr()
    # Fixture package analysed under repo defaults: entry/owned prefixes
    # don't match, but SIM603 is structural and still fires.
    assert rc == 1
    assert "SIM603" in captured.out


def test_cli_flow_select_unknown_code_exits_two(tmp_path):
    root = build_pkg(tmp_path, {"sim.py": SIM_PY})
    rc = cli_main(["flow", str(root), "--select", "ZZZ000"])
    assert rc == 2
