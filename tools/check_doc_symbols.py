#!/usr/bin/env python
"""Doc hygiene: every ``repro.*`` symbol and repo path named in the docs
must resolve.

Documentation rots silently: a module gets renamed, a function moves, and
the docs keep naming the old path until a reader hits it.  This script
scans markdown files for dotted ``repro.*`` names — inside fenced code
blocks and inline code spans — and verifies each one resolves via
importlib: the longest importable module prefix is imported and the
remaining parts are resolved with ``getattr``.  Back-ticked repo-relative
paths beginning ``tools/``, ``tests/``, ``benchmarks/``, ``examples/``,
``docs/`` or ``src/`` must exist (globs are skipped).

Run standalone (exit 1 on failures)::

    python tools/check_doc_symbols.py            # docs/*.md + README.md
    python tools/check_doc_symbols.py docs/x.md  # specific files

or via the test suite (``tests/test_doc_hygiene.py``), which keeps CI
honest.  Package-relative references (``repro/ebpf/vm.py``) are out of
scope.
"""

import importlib
import pathlib
import re
import sys

__all__ = ["check_file", "check_text", "default_targets", "main", "resolve"]

#: A dotted name rooted at the repro package: ``repro.x``, ``repro.x.y``...
SYMBOL = re.compile(r"\brepro(?:\.[A-Za-z_][A-Za-z0-9_]*)+")

#: A repo-relative path token: ``tools/x.py``, ``tests/test_x.py::test_y``.
REPO_PATH = re.compile(
    r"(?<![\w./-])(?:tools|tests|benchmarks|examples|docs|src)/[^\s`'\"(),;]*"
)
GLOB = re.compile(r"[*?\[<{$]")
REPO_ROOT = pathlib.Path(__file__).parent.parent

FENCE = re.compile(r"^(```|~~~)")
INLINE_CODE = re.compile(r"`([^`\n]+)`")


def _iter_code_text(text):
    """Yield (line_number, code_text) for fenced blocks and inline spans."""
    in_fence = False
    for lineno, line in enumerate(text.splitlines(), start=1):
        if FENCE.match(line.strip()):
            in_fence = not in_fence
            continue
        if in_fence:
            yield lineno, line
        else:
            for match in INLINE_CODE.finditer(line):
                yield lineno, match.group(1)


def resolve(symbol):
    """Resolve a dotted ``repro.*`` name; raise on failure.

    Tries the longest module prefix first, then walks the rest with
    getattr — so ``repro.core.syrupd.Syrupd.status`` resolves via the
    ``repro.core.syrupd`` module, the ``Syrupd`` class, and its
    ``status`` method.
    """
    parts = symbol.split(".")
    last_error = None
    for split in range(len(parts), 0, -1):
        module_name = ".".join(parts[:split])
        try:
            obj = importlib.import_module(module_name)
        except ImportError as exc:
            last_error = exc
            continue
        for attr in parts[split:]:
            try:
                obj = getattr(obj, attr)
            except AttributeError as exc:
                raise AttributeError(
                    f"{symbol}: module {module_name!r} has no "
                    f"attribute path {'.'.join(parts[split:])!r}"
                ) from exc
        return obj
    raise ImportError(f"{symbol}: no importable module prefix ({last_error})")


def check_text(text, origin="<text>"):
    """Error strings for unresolvable symbols and missing paths in ``text``."""
    errors = []
    seen = set()
    for lineno, code in _iter_code_text(text):
        for match in REPO_PATH.finditer(code):
            # a ::test or :line suffix is not part of the path; globs and
            # <placeholder> patterns are skipped
            path = match.group(0).split(":", 1)[0].rstrip(".")
            if path in seen or GLOB.search(match.group(0)):
                continue
            seen.add(path)
            if not (REPO_ROOT / path).exists():
                errors.append(f"{origin}:{lineno}: {path} -> no such path")
        for match in SYMBOL.finditer(code):
            symbol = match.group(0)
            if symbol in seen:
                continue
            seen.add(symbol)
            try:
                resolve(symbol)
            except Exception as exc:  # noqa: BLE001 - report, don't crash
                errors.append(f"{origin}:{lineno}: {symbol} -> {exc}")
    return errors


def check_file(path):
    path = pathlib.Path(path)
    return check_text(path.read_text(), origin=str(path))


def default_targets(root=None):
    """docs/*.md plus README.md, relative to the repo root."""
    root = pathlib.Path(root) if root else REPO_ROOT
    targets = sorted((root / "docs").glob("*.md"))
    readme = root / "README.md"
    if readme.exists():
        targets.append(readme)
    return targets


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    targets = [pathlib.Path(a) for a in argv] or default_targets()
    errors = []
    checked = 0
    for target in targets:
        errors.extend(check_file(target))
        checked += 1
    if errors:
        print(f"doc hygiene: {len(errors)} unresolvable symbol(s) or "
              f"path(s) in {checked} file(s):")
        for error in errors:
            print(f"  {error}")
        return 1
    print(f"doc hygiene: OK ({checked} file(s) checked)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
