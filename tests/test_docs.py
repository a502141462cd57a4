"""Docs-consistency gate: what the docs mention must actually exist.

Four classes of reference across ``README.md``, ``DESIGN.md``, and
``docs/*.md`` are machine-checked so prose cannot silently rot:

* ``python -m repro.<module> …`` invocations — the module must import,
  and every ``--flag`` on the invocation line must appear literally in
  that module's source tree (argparse definitions live there) or, for
  ``repro.bench``, be an alias the bench registry generates;
* backticked dotted names (``repro.mpi.backend_proc``,
  ``repro.bench.registry.run_gate``, …) and ``src/repro/...`` /
  ``tests/...`` style paths — must resolve to an importable module (+
  attribute chain) or an existing file; a backticked ``Cls.attr`` whose
  ``Cls`` is a class defined at the top level of a ``repro`` module must
  name an attribute of that class (see :func:`_class_has`);
* relative markdown links ``](...)`` — must point at an existing file
  or directory;
* the baseline catalogue in ``docs/benchmarks.md`` — every bench
  registry entry with a baseline file must have a row naming the file
  and its gate alias.

The checks are deliberately literal: a flag renamed in ``cli.py`` or a
module moved in a refactor fails this test until the docs catch up.
"""

from __future__ import annotations

import ast
import dataclasses
import functools
import importlib
import inspect
import pathlib
import re

import pytest

from repro.bench.registry import BENCHES

REPO = pathlib.Path(__file__).resolve().parents[1]

DOC_FILES = sorted(
    [REPO / "README.md", REPO / "DESIGN.md"] + list((REPO / "docs").glob("*.md"))
)

assert DOC_FILES, "doc set must not be empty"


def _doc_id(path: pathlib.Path) -> str:
    return str(path.relative_to(REPO))


# ---------------------------------------------------------------------------
# CLI invocations: python -m repro.X --flag ...
# ---------------------------------------------------------------------------

_INVOCATION = re.compile(r"python\s+-m\s+(repro(?:\.\w+)*)([^\n`]*)")
_FLAG = re.compile(r"(--[a-z0-9][a-z0-9-]*)")


def _package_sources(module_name: str) -> str:
    """Concatenated source of the module (or package tree) behind ``-m``.

    Thin shims (``repro.sanitize`` re-exporting ``repro.sanitizer.cli``)
    are followed through their ``main`` callable so flags are looked up
    where the argparse definitions actually live.
    """
    mod = importlib.import_module(module_name)
    origin = pathlib.Path(mod.__file__)
    if origin.name == "__init__.py":
        files = sorted(origin.parent.rglob("*.py"))
    else:
        files = [origin]
    main = getattr(mod, "main", None)
    impl = getattr(main, "__module__", module_name)
    if impl != module_name and impl.startswith("repro."):
        impl_origin = pathlib.Path(importlib.import_module(impl).__file__)
        files.extend(
            sorted(impl_origin.parent.rglob("*.py"))
            if impl_origin.name == "__init__.py"
            else [impl_origin]
        )
    source = "\n".join(f.read_text() for f in files)
    if module_name == "repro.bench":
        # the --<name>-smoke aliases are generated from the registry
        source += "\n" + "\n".join(b.alias for b in BENCHES.values())
    return source


@pytest.mark.parametrize("doc", DOC_FILES, ids=_doc_id)
def test_cli_invocations_resolve(doc):
    text = doc.read_text()
    problems = []
    for match in _INVOCATION.finditer(text):
        module_name, rest = match.group(1), match.group(2)
        try:
            source = _package_sources(module_name)
        except ImportError as exc:
            problems.append(f"`python -m {module_name}`: module not importable ({exc})")
            continue
        for flag in _FLAG.findall(rest):
            if flag not in source:
                problems.append(
                    f"`python -m {module_name} … {flag}`: flag not found in "
                    f"{module_name}'s sources"
                )
    assert not problems, f"{_doc_id(doc)}:\n" + "\n".join(f"  - {p}" for p in problems)


# ---------------------------------------------------------------------------
# backticked dotted names and file paths
# ---------------------------------------------------------------------------

_CODE_SPAN = re.compile(r"`([^`\n]+)`")
_DOTTED = re.compile(r"^repro(?:\.[A-Za-z_][A-Za-z0-9_]*)+$")
_PATHLIKE = re.compile(r"^(?:src|tests|docs|benchmarks|examples)/[\w./\-]+$")


def _resolves_as_module(dotted: str) -> bool:
    """Import the longest module prefix, then walk attributes."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        try:
            for attr in parts[cut:]:
                obj = getattr(obj, attr)
        except AttributeError:
            return False
        return True
    return False


_CLASS_ATTR = re.compile(r"^([A-Za-z_]\w*)\.([A-Za-z_]\w*)$")


@functools.cache
def _repro_classes() -> "dict[str, list[str]]":
    """Class name -> the ``repro`` modules defining it at their top level
    (read from the sources, so no module is imported to find them)."""
    src = REPO / "src"
    classes: "dict[str, list[str]]" = {}
    for path in sorted((src / "repro").rglob("*.py")):
        module = ".".join(path.relative_to(src).with_suffix("").parts)
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef):
                classes.setdefault(node.name, []).append(module.removesuffix(".__init__"))
    return classes


def _class_has(cls: type, attr: str) -> bool:
    """``attr`` is a class attribute (methods, properties and ``__slots__``
    included), a dataclass field, or assigned as ``self.attr`` in the
    source of a ``repro`` class of ``cls``'s MRO."""
    if hasattr(cls, attr):
        return True
    if dataclasses.is_dataclass(cls) and attr in {f.name for f in dataclasses.fields(cls)}:
        return True
    assigned = re.compile(rf"\bself\.{attr}\s*(?::[^=\n]+)?=(?!=)")
    return any(
        assigned.search(inspect.getsource(klass))
        for klass in cls.__mro__
        if klass.__module__.startswith("repro")
    )


def _resolves_as_class_attr(name: str, attr: str) -> bool:
    return any(
        _class_has(getattr(importlib.import_module(module), name), attr)
        for module in _repro_classes()[name]
    )


@pytest.mark.parametrize("doc", DOC_FILES, ids=_doc_id)
def test_code_spans_resolve(doc):
    text = doc.read_text()
    problems = []
    for span in _CODE_SPAN.findall(text):
        token = span.strip().rstrip("()")
        if _DOTTED.match(token):
            if not _resolves_as_module(token):
                problems.append(f"`{span}`: dotted name does not resolve")
        elif (m := _CLASS_ATTR.match(token)) and m.group(1) in _repro_classes():
            if not _resolves_as_class_attr(*m.groups()):
                problems.append(f"`{span}`: no such attribute of class {m.group(1)}")
        elif _PATHLIKE.match(token):
            if not (REPO / token).exists():
                problems.append(f"`{span}`: path does not exist")
    assert not problems, f"{_doc_id(doc)}:\n" + "\n".join(f"  - {p}" for p in problems)


# ---------------------------------------------------------------------------
# relative markdown links
# ---------------------------------------------------------------------------

_LINK = re.compile(r"\]\(([^)\s]+)\)")


@pytest.mark.parametrize("doc", DOC_FILES, ids=_doc_id)
def test_relative_links_resolve(doc):
    text = doc.read_text()
    problems = []
    for target in _LINK.findall(text):
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        rel = target.split("#", 1)[0]
        if not rel:
            continue
        if not (doc.parent / rel).exists():
            problems.append(f"]({target}): broken relative link")
    assert not problems, f"{_doc_id(doc)}:\n" + "\n".join(f"  - {p}" for p in problems)


# ---------------------------------------------------------------------------
# the baseline catalogue covers the bench registry
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "bench", [b for b in BENCHES.values() if b.baseline], ids=lambda b: b.name
)
def test_catalogue_has_a_row_per_registry_baseline(bench):
    rows = [
        line
        for line in (REPO / "docs" / "benchmarks.md").read_text().splitlines()
        if line.startswith(f"| `benchmarks/{bench.baseline}` |")
    ]
    assert len(rows) == 1, f"benchmarks/{bench.baseline}: {len(rows)} catalogue rows"
    (row,) = rows
    assert f"python -m repro.bench {bench.name} --write" in row
    assert f"python -m repro.bench {bench.alias}" in row
