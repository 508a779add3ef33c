"""Tests for the per-module determinism rules of ``repro-nfs flow``.

Each fixture is one module, ``pkg/mod.py``, analysed by the same
:func:`~repro.analysis.flow.analyze` run that checks the whole tree.
"""

import io
import json

import pytest

from repro.analysis.flow import FLOW_RULES, analyze, run_flow
from repro.experiments.cli import main as cli_main

from .test_flow import fixture_config

SYNTACTIC_CODES = ("DET101", "DET102", "DET103", "DET104", "DET105", "MUT201", "DEAD301")


def write_pkg(tmp_path, src):
    """The fixture package ``pkg`` with ``src`` as its one module."""
    root = tmp_path / "pkg"
    root.mkdir(exist_ok=True)
    (root / "__init__.py").write_text("")
    (root / "mod.py").write_text(src)
    return root


def findings_for(tmp_path, src):
    return analyze(write_pkg(tmp_path, src), config=fixture_config()).findings


def run_on(tmp_path, src, **kwargs):
    """``run_flow`` over a one-module package; returns (exit code, output)."""
    out = io.StringIO()
    rc = run_flow(
        root=str(write_pkg(tmp_path, src)), out=out, config=fixture_config(), **kwargs
    )
    return rc, out.getvalue()


def codes(findings):
    return [f.code for f in findings]


# -- DET101: unseeded global RNG ----------------------------------------------


def test_det101_flags_global_random_calls(tmp_path):
    src = "import random\nx = random.random()\ny = random.randint(1, 6)\n"
    found = codes(findings_for(tmp_path, src))
    assert found.count("DET101") == 2


def test_det101_not_flagged_for_stream_methods(tmp_path):
    # Calls on a named stream object are the sanctioned pattern.
    src = "def f(stream):\n    return stream.random()\n"
    assert "DET101" not in codes(findings_for(tmp_path, src))


def test_det101_suppressed(tmp_path):
    src = "import random\nx = random.random()  # noqa: DET101\n"
    assert "DET101" not in codes(findings_for(tmp_path, src))


# -- DET102: wall-clock reads -------------------------------------------------


def test_det102_flags_time_time_and_datetime_now(tmp_path):
    src = (
        "import time\nimport datetime\n"
        "a = time.time()\n"
        "b = time.monotonic()\n"
        "c = datetime.datetime.now()\n"
    )
    assert codes(findings_for(tmp_path, src)).count("DET102") == 3


def test_det102_suppressed(tmp_path):
    src = "import time\nstarted = time.time()  # noqa: DET102 wall clock\n"
    assert "DET102" not in codes(findings_for(tmp_path, src))


# -- DET103: iteration over unordered sets ------------------------------------


def test_det103_flags_for_over_set_call(tmp_path):
    src = "for item in set(items):\n    handle(item)\n"
    assert "DET103" in codes(findings_for(tmp_path, src))


def test_det103_flags_set_literal_comprehension(tmp_path):
    src = "out = [f(x) for x in {1, 2, 3}]\n"
    assert "DET103" in codes(findings_for(tmp_path, src))


def test_det103_allows_sorted_sets(tmp_path):
    src = "for item in sorted(set(items)):\n    handle(item)\n"
    assert "DET103" not in codes(findings_for(tmp_path, src))


def test_det103_allows_plain_dict_iteration(tmp_path):
    # Dicts iterate in insertion order — deterministic, not flagged.
    src = "for key in mapping:\n    handle(key)\n"
    assert "DET103" not in codes(findings_for(tmp_path, src))


def test_det103_suppressed(tmp_path):
    src = "for item in set(items):  # noqa: DET103\n    handle(item)\n"
    assert "DET103" not in codes(findings_for(tmp_path, src))


# -- DET104: id() in orderings/hashes -----------------------------------------


def test_det104_flags_id_in_sort_key(tmp_path):
    src = "items.sort(key=lambda t: id(t))\n"
    assert "DET104" in codes(findings_for(tmp_path, src))


def test_det104_flags_id_in_hash(tmp_path):
    src = "h = hash((id(node), 3))\n"
    assert "DET104" in codes(findings_for(tmp_path, src))


def test_det104_plain_id_call_not_flagged(tmp_path):
    src = "label = id(task)\n"
    assert "DET104" not in codes(findings_for(tmp_path, src))


def test_det104_suppressed(tmp_path):
    src = "items.sort(key=lambda t: id(t))  # noqa: DET104\n"
    assert "DET104" not in codes(findings_for(tmp_path, src))


# -- DET105: stray random import ----------------------------------------------


def test_det105_flags_import_random(tmp_path):
    assert "DET105" in codes(findings_for(tmp_path, "import random\n"))
    assert "DET105" in codes(findings_for(tmp_path, "from random import Random\n"))


def test_det105_suppressed(tmp_path):
    src = "import random  # noqa: DET105 typing only\n"
    assert "DET105" not in codes(findings_for(tmp_path, src))


# -- MUT201: mutable defaults -------------------------------------------------


def test_mut201_flags_mutable_defaults(tmp_path):
    src = "def f(a, b=[], c={}, d=set()):\n    return a\n"
    assert codes(findings_for(tmp_path, src)).count("MUT201") == 3


def test_mut201_allows_immutable_defaults(tmp_path):
    src = "def f(a=None, b=(), c=0, d='x'):\n    return a\n"
    assert "MUT201" not in codes(findings_for(tmp_path, src))


def test_mut201_suppressed(tmp_path):
    src = "def f(a=[]):  # noqa: MUT201\n    return a\n"
    assert "MUT201" not in codes(findings_for(tmp_path, src))


# -- DEAD301: unreachable code ------------------------------------------------


def test_dead301_flags_code_after_return(tmp_path):
    src = "def f():\n    return 1\n    do_cleanup()\n"
    found = findings_for(tmp_path, src)
    assert "DEAD301" in codes(found)
    message = next(f.message for f in found if f.code == "DEAD301")
    assert "line 2" in message  # points at the terminating statement


def test_dead301_flags_code_after_raise_in_loop(tmp_path):
    src = "def f():\n    for x in items:\n        raise ValueError(x)\n        x += 1\n"
    assert "DEAD301" in codes(findings_for(tmp_path, src))


def test_dead301_allows_generator_marker_yield(tmp_path):
    # The deliberate `return; yield` idiom that makes a function a
    # generator (used throughout the lock layer) is exempt.
    src = "def gen():\n    if fast_path:\n        return\n        yield\n    yield work\n"
    assert "DEAD301" not in codes(findings_for(tmp_path, src))


def test_dead301_flags_statements_after_generator_marker(tmp_path):
    src = "def gen():\n    return\n    yield\n    cleanup()\n"
    assert "DEAD301" in codes(findings_for(tmp_path, src))


def test_dead301_suppressed(tmp_path):
    src = "def f():\n    return 1\n    cleanup()  # noqa: DEAD301\n"
    assert "DEAD301" not in codes(findings_for(tmp_path, src))


# -- SUP401 / suppression mechanics -------------------------------------------


def test_noqa_must_name_the_code_it_silences(tmp_path):
    # A bare noqa, a noqa naming another rule, and the retired
    # flow-only marker each leave the wall-clock read reported.
    src = (
        "import time\n"
        "a = time.time()  # noqa\n"
        "b = time.time()  # noqa: SIM603\n"
        "c = time.time()  # noqa-flow: SIM603\n"
    )
    found = findings_for(tmp_path, src)
    assert [f.line for f in found if f.code == "DET102"] == [2, 3, 4]


def test_sup401_reports_stale_own_code_in_strict_only(tmp_path):
    src = "x = 1  # noqa: DET101\n"
    found = findings_for(tmp_path, src)
    assert codes(found) == ["SUP401"] and found[0].severity == "warning"
    # A stale suppression is a warning: it fails the run only under --strict.
    assert run_on(tmp_path, src)[0] == 0
    assert run_on(tmp_path, src, strict=True)[0] == 1


def test_sup401_ignores_foreign_codes_and_bare_noqa(tmp_path):
    src = "try:\n    pass\nexcept Exception:  # noqa: BLE001\n    pass\nx = 1  # noqa\n"
    assert "SUP401" not in codes(findings_for(tmp_path, src))


# -- syntax errors ------------------------------------------------------------


def test_syn001_on_syntax_error(tmp_path):
    found = findings_for(tmp_path, "def broken(:\n")
    assert codes(found) == ["FLW001"]


# -- engine: select, repo-wide ------------------------------------------------


def test_select_filters_codes(tmp_path):
    src = "import time\nimport random\nt = time.time()\n"
    _, out = run_on(tmp_path, src, select="DET102", fmt="json")
    assert [f["code"] for f in json.loads(out)["findings"]] == ["DET102"]


def test_every_rule_has_code_name_and_severity():
    assert set(SYNTACTIC_CODES) | {"SUP401"} <= FLOW_RULES.keys()
    for code, rule in FLOW_RULES.items():
        assert rule.code == code
        assert rule.name
        assert rule.severity in ("error", "warning")


def test_repo_is_lint_clean_in_strict_mode(repo_report):
    # The shipped sources pass the per-module rules, with every
    # suppression live.
    wanted = SYNTACTIC_CODES + ("SUP401",)
    assert [f.render() for f in repo_report.findings if f.code in wanted] == []


# -- run_flow / CLI -----------------------------------------------------------


def test_run_lint_exit_codes(tmp_path):
    assert run_on(tmp_path, "x = 1\n")[0] == 0
    assert run_on(tmp_path, "import time\nt = time.time()\n")[0] == 1
    # Warnings fail only under --strict.
    assert run_on(tmp_path, "x = 1  # noqa: DET101\n")[0] == 0
    assert run_on(tmp_path, "x = 1  # noqa: DET101\n", strict=True)[0] == 1
    # Unknown --select codes are a usage error.
    assert run_on(tmp_path, "x = 1\n", select="NOPE999")[0] == 2


def test_run_lint_text_output(tmp_path):
    _, text = run_on(tmp_path, "import time\nt = time.time()\n")
    assert "mod.py:2:" in text
    assert "DET102" in text
    assert "1 error(s)" in text


def test_run_lint_json_output(tmp_path):
    _, out = run_on(tmp_path, "import random\nx = random.random()\n", fmt="json")
    findings = json.loads(out)["findings"]
    # Sorted by line: the stray import on line 1, the draw on line 2.
    assert [f["code"] for f in findings] == ["DET105", "DET101"]
    assert findings[1]["line"] == 2


def test_cli_lint_subcommand(tmp_path, capsys):
    # `flow` is the one static-analysis command; `lint` is gone.
    with pytest.raises(SystemExit) as exc:
        cli_main(["lint"])
    assert exc.value.code == 2
    capsys.readouterr()
    root = write_pkg(tmp_path, "import time\nt = time.time()\n")
    assert cli_main(["flow", str(root)]) == 1
    assert "DET102" in capsys.readouterr().out
    write_pkg(tmp_path, "x = 1\n")
    assert cli_main(["flow", str(root), "--strict"]) == 0
    capsys.readouterr()


def test_cli_lint_select_and_format(tmp_path, capsys):
    root = write_pkg(tmp_path, "import time\nimport random\nt = time.time()\n")
    assert cli_main(["flow", str(root), "--select", "DET105", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [f["code"] for f in payload["findings"]] == ["DET105"]


# -- DET103 regressions: comprehensions feeding order-insensitive sinks -------


def test_det103_allows_genexp_over_set_into_sorted(tmp_path):
    src = "out = sorted(x for x in {1, 2, 3})\n"
    assert "DET103" not in codes(findings_for(tmp_path, src))


def test_det103_allows_genexp_over_set_call_into_sum(tmp_path):
    src = "def f(ys):\n    return sum(1 for x in set(ys))\n"
    assert "DET103" not in codes(findings_for(tmp_path, src))


def test_det103_allows_listcomp_over_set_into_min_max(tmp_path):
    src = "lo = min([x for x in {3, 1}])\nhi = max([x for x in {3, 1}])\n"
    assert "DET103" not in codes(findings_for(tmp_path, src))


def test_det103_still_flags_bare_listcomp_over_set(tmp_path):
    # Not fed to an order-insensitive consumer: order leaks out.
    src = "out = [x for x in {1, 2, 3}]\n"
    assert "DET103" in codes(findings_for(tmp_path, src))


def test_det103_still_flags_list_call_over_set(tmp_path):
    src = "out = list({1, 2, 3})\n"
    assert "DET103" in codes(findings_for(tmp_path, src))


def test_det103_still_flags_for_loop_over_set(tmp_path):
    src = "def f(ys):\n    for x in set(ys):\n        print(x)\n"
    assert "DET103" in codes(findings_for(tmp_path, src))


def test_det103_nested_comprehension_exemption_is_per_iter(tmp_path):
    # Only the genexp handed to sorted() is exempt; the sibling
    # comprehension over a set still fires.
    src = (
        "a = sorted(x for x in {1, 2})\n"
        "b = [x for x in {1, 2}]\n"
    )
    assert codes(findings_for(tmp_path, src)).count("DET103") == 1


# -- --fix-suppressions -------------------------------------------------------


def test_fix_suppressions_write_rewrites_file(tmp_path):
    src = "import time\nt = time.time()  # noqa: DET102\nx = 1  # noqa: DET101\n"
    rc, out = run_on(tmp_path, src, fix_suppressions=True)
    assert rc == 0
    text = (tmp_path / "pkg" / "mod.py").read_text()
    # The live suppression survives; the stale one is stripped.
    assert "noqa: DET102" in text
    assert "noqa: DET101" not in text
    assert text.endswith("x = 1\n")
    assert "removed 1 stale suppression(s) in 1 file(s)" in out


def test_fix_suppressions_clean_tree_exits_zero(tmp_path):
    rc, out = run_on(tmp_path, "x = 1\n", fix_suppressions=True)
    assert rc == 0
    assert "removed 0 stale suppression(s) in 0 file(s)" in out
    assert (tmp_path / "pkg" / "mod.py").read_text() == "x = 1\n"


def test_fix_suppressions_partially_live_noqa_untouched(tmp_path):
    # One comment carrying a live code never fires SUP401, so the fixer
    # must leave it alone even when a second listed code is stale.
    src = "import time\nt = time.time()  # noqa: DET102,DET101\n"
    rc, _ = run_on(tmp_path, src, fix_suppressions=True)
    assert rc == 0
    assert "noqa: DET102,DET101" in (tmp_path / "pkg" / "mod.py").read_text()


def test_cli_lint_fix_suppressions(tmp_path, capsys):
    root = write_pkg(tmp_path, "x = 1  # noqa: DET101\n")
    assert cli_main(["flow", str(root), "--fix-suppressions"]) == 0
    assert "removed stale `# noqa: DET101`" in capsys.readouterr().out
    assert (root / "mod.py").read_text() == "x = 1\n"


# -- exit-code contract on broken input ---------------------------------------


def test_run_lint_broken_file_is_syn001_exit_one(tmp_path):
    rc, out = run_on(tmp_path, "def oops(:\n")
    assert rc == 1
    assert "FLW001" in out
