"""The API surface the linter understands, as AST-level classification.

The analyzer is *value-tracking*: it only reasons about objects whose
construction is visible in the function being analyzed (``armci =
Armci.init(comm)``, ``win, buf = Win.allocate(...)``, ``ptrs =
armci.malloc(...)``).  Objects that arrive through parameters, helper
calls, or attributes are unknown, and every rule stays silent about
them — that asymmetry is what keeps the whole-repo gate at zero false
positives while still catching each misuse pattern where it is visible.
"""

from __future__ import annotations

import ast

__all__ = [
    "ARMCI_INIT_CLASSES",
    "ARMCI_COMM_METHODS",
    "WIN_OP_METHODS",
    "WIN_REQ_METHODS",
    "dotted_name",
    "base_name",
    "expr_text",
    "is_pytest_raises",
]

#: classes whose ``.init(comm)`` classmethod yields an ARMCI handle
ARMCI_INIT_CLASSES = {"Armci", "NativeArmci", "DataServerArmci"}

#: ARMCI methods that communicate through a GMR's window — issuing one
#: while a direct-local-access epoch is open on the same GMR reproduces
#: the §V-E double-lock hazard the dynamic LOCK_WHILE_DLA rule catches
ARMCI_COMM_METHODS = {
    "put", "get", "acc",
    "put_s", "get_s", "acc_s",
    "putv", "getv", "accv",
    "nb_put", "nb_get", "nb_acc",
    "rmw", "fence", "all_fence",
}

#: Win data-movement methods that require an access epoch
WIN_OP_METHODS = {"put", "get", "accumulate", "fetch_and_op", "compare_and_swap"}

#: request-based Win methods (MPI-3): the returned request must be
#: completed with wait/test before the epoch closes
WIN_REQ_METHODS = {"rput", "rget"}


def dotted_name(node: ast.expr) -> "tuple[str, ...] | None":
    """``a.b.c`` as ``('a', 'b', 'c')``, or None for non-name chains."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return None


def base_name(node: ast.expr) -> "str | None":
    """The root variable of ``ptrs[0]`` / ``ptrs[i].x`` / ``ptrs`` chains."""
    while isinstance(node, (ast.Subscript, ast.Attribute, ast.Starred)):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


def expr_text(node: "ast.expr | None") -> str:
    """Stable textual key for an expression (epoch targets, mutex ids)."""
    if node is None:
        return "?"
    try:
        return ast.unparse(node)
    except Exception:  # pragma: no cover - unparse is total on parsed trees
        return "?"


def is_pytest_raises(node: ast.expr) -> bool:
    """True for ``pytest.raises(...)`` / ``raises(...)`` context managers.

    Bodies under them are *expected* to misuse the API — the analyzer
    skips them entirely (diagnostics and state effects both)."""
    if not isinstance(node, ast.Call):
        return False
    d = dotted_name(node.func)
    return d is not None and d[-1] == "raises"
