"""Doc hygiene: repro.* symbols and repo paths named in the docs must resolve.

Runs tools/check_doc_symbols.py over docs/*.md + README.md so renames
and removals can't silently strand the documentation.
"""

import importlib.util
import pathlib

import pytest

REPO_ROOT = pathlib.Path(__file__).parent.parent
TOOL = REPO_ROOT / "tools" / "check_doc_symbols.py"

spec = importlib.util.spec_from_file_location("check_doc_symbols", TOOL)
check_doc_symbols = importlib.util.module_from_spec(spec)
spec.loader.exec_module(check_doc_symbols)


def test_default_targets_include_all_docs():
    targets = [p.name for p in check_doc_symbols.default_targets(REPO_ROOT)]
    assert "observability.md" in targets
    assert "architecture.md" in targets
    assert "policy-language.md" in targets
    assert "README.md" in targets


@pytest.mark.parametrize(
    "target", check_doc_symbols.default_targets(REPO_ROOT),
    ids=lambda p: p.name,
)
def test_doc_symbols_resolve(target):
    errors = check_doc_symbols.check_file(target)
    assert errors == []


def test_checker_flags_bogus_symbols():
    text = "prose\n```python\nfrom repro.no_such_module import thing\n```\n"
    errors = check_doc_symbols.check_text(text, origin="bogus.md")
    assert len(errors) == 1
    assert "repro.no_such_module" in errors[0]


def test_checker_flags_bogus_attributes():
    errors = check_doc_symbols.check_text(
        "see `repro.core.syrupd.Syrupd.no_such_method` here",
        origin="bogus.md",
    )
    assert len(errors) == 1
    assert "no_such_method" in errors[0]


def test_checker_resolves_methods_and_ignores_paths():
    # method path resolves through module -> class -> attribute
    assert check_doc_symbols.check_text(
        "`repro.core.syrupd.Syrupd.status`"
    ) == []
    # package-relative file references are out of scope
    assert check_doc_symbols.check_text(
        "```\nsee repro/ebpf/vm.py for details\n```"
    ) == []
    # prose outside code spans is not scanned
    assert check_doc_symbols.check_text(
        "the repro.not_a_module package (prose, unchecked)"
    ) == []


def test_checker_resolves_repo_paths_and_skips_globs():
    assert check_doc_symbols.check_text(
        "run `python tools/check_doc_symbols.py`, see `tests/`, "
        "`tests/test_doc_hygiene.py::test_doc_symbols_resolve`, "
        "`src/repro/ebpf/vm.py:12`, `benchmarks/results/*.txt` and "
        "`benchmarks/perf/out/trace_<workload>.json`.\n"
        "```\npython benchmarks/perf/run.py --workload fleet_rack\n```\n"
    ) == []


def test_checker_flags_missing_repo_paths():
    assert check_doc_symbols.check_text(
        "gated by `python tools/no_such_tool.py --smoke` against "
        "`benchmarks/no_such_dir/`; `repro/tools/x.py` and prose "
        "tools/also_missing.py are not checked", origin="bogus.md",
    ) == ["bogus.md:1: tools/no_such_tool.py -> no such path",
          "bogus.md:1: benchmarks/no_such_dir/ -> no such path"]
