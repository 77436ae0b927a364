"""SHD01 — shard-purity checking for ``shard_safe`` path elements.

The shard cut logic (net/network.py) keeps a path element on a cut link
only when the element declares ``shard_safe = True``; everything else is
colocated so both endpoints land in one shard.  The declaration is a
*promise* (net/path.py): a shard-safe element must be a pure synchronous
transform — the merged cut driver interleaves shard sub-simulators
through it, and the planned process-per-shard cut support will clone it
into workers, so hidden instance state silently diverges (the ns-3
MPTCP-model papers show exactly this failure mode corrupting multipath
results).  Two checks enforce the promise:

* **Purity.**  A class declaring ``shard_safe = True`` at class level
  must not write instance or class attributes outside ``__init__``:
  assignments, augmented assignments, subscript stores, ``del``, and
  container-mutator calls on ``self``/``cls`` state are all findings.
  Pure *counters* that shards may accumulate independently (and that
  reporting merges) are declared in a class-level ``shard_stats`` tuple
  and tolerated; anything else needs a fix or a waiver with rationale.
* **Static declarability.**  ``self.shard_safe = <expr>`` with a
  non-constant expression (the old ``stripper.py`` pattern) defeats the
  static check *and* the cut-time consultation — the declaration must
  be a class-level constant; runtime refinement goes through the
  ``PathElement.shard_safe_now()`` hook, which the cut logic calls.

Live ``Segment`` objects crossing the federation process boundary are
FED01's concern (:mod:`repro.analyze.federation`).
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.analyze.core import FileContext, Finding

MUTATORS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "add",
        "update",
        "setdefault",
        "pop",
        "popitem",
        "clear",
        "remove",
        "discard",
        "sort",
        "reverse",
        "appendleft",
        "extendleft",
    }
)


def _constant_bool(expr: ast.expr) -> Optional[bool]:
    if isinstance(expr, ast.Constant) and isinstance(expr.value, bool):
        return expr.value
    return None


def _class_flag(cls: ast.ClassDef, name: str) -> Optional[ast.expr]:
    """The value of a class-level ``name = ...`` assignment, if any."""
    for node in cls.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id == name:
                    return node.value
        elif isinstance(node, ast.AnnAssign):
            if (
                isinstance(node.target, ast.Name)
                and node.target.id == name
                and node.value is not None
            ):
                return node.value
    return None


def _shard_stats(cls: ast.ClassDef) -> set[str]:
    value = _class_flag(cls, "shard_stats")
    stats: set[str] = set()
    if isinstance(value, (ast.Tuple, ast.List)):
        for element in value.elts:
            if isinstance(element, ast.Constant) and isinstance(element.value, str):
                stats.add(element.value)
    return stats


def _state_root(expr: ast.expr) -> Optional[tuple[str, str]]:
    """(receiver, attribute) when ``expr`` is rooted at self.X / cls.X."""
    node = expr
    while isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        if node.value.id in ("self", "cls"):
            return node.value.id, node.attr
    return None


def _methods(cls: ast.ClassDef) -> Iterator[ast.FunctionDef]:
    for node in cls.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def check_file(rule, ctx: FileContext, project) -> Iterator[Finding]:
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.ClassDef):
            yield from _check_class(rule, ctx, node)
    yield from _check_dynamic_declarations(rule, ctx)


def _check_class(rule, ctx: FileContext, cls: ast.ClassDef) -> Iterator[Finding]:
    declared = _class_flag(cls, "shard_safe")
    if declared is None or _constant_bool(declared) is not True:
        if declared is not None and _constant_bool(declared) is None:
            yield rule.finding(
                ctx,
                declared,
                f"class {cls.name} declares a non-constant 'shard_safe' — "
                "the cut logic needs a statically checkable class-level "
                "constant; refine at runtime via shard_safe_now()",
            )
        return
    stats = _shard_stats(cls)
    for method in _methods(cls):
        if method.name == "__init__":
            continue
        for node in ast.walk(method):
            yield from _check_statement(rule, ctx, cls, method, stats, node)


def _check_statement(rule, ctx, cls, method, stats, node) -> Iterator[Finding]:
    suffix = (
        "— a shard-safe element must be stateless outside __init__ "
        "(declare merged counters in shard_stats, or fix/waive)"
    )
    if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        for target in targets:
            root = _state_root(target) if target is not None else None
            if root is None:
                continue
            receiver, attr = root
            if attr in stats or attr == "shard_safe":
                continue  # shard_safe writes get the dedicated finding
            yield rule.finding(
                ctx,
                node,
                f"shard_safe class {cls.name} writes '{receiver}.{attr}' in "
                f"{method.name}() {suffix}",
            )
    elif isinstance(node, ast.Delete):
        for target in node.targets:
            root = _state_root(target)
            if root is not None and root[1] not in stats:
                yield rule.finding(
                    ctx,
                    node,
                    f"shard_safe class {cls.name} deletes "
                    f"'{root[0]}.{root[1]}' in {method.name}() {suffix}",
                )
    elif (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in MUTATORS
    ):
        root = _state_root(node.func.value)
        if root is not None and root[1] not in stats:
            yield rule.finding(
                ctx,
                node,
                f"shard_safe class {cls.name} mutates '{root[0]}.{root[1]}' "
                f"via .{node.func.attr}(...) in {method.name}() {suffix}",
            )


def _check_dynamic_declarations(rule, ctx: FileContext) -> Iterator[Finding]:
    """``self.shard_safe = <non-constant>`` anywhere defeats the static
    declaration the cut logic and this rule both rely on."""
    for node in ast.walk(ctx.tree):
        if not isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            continue
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        for target in targets:
            if (
                isinstance(target, ast.Attribute)
                and target.attr == "shard_safe"
                and isinstance(target.value, ast.Name)
                and target.value.id in ("self", "cls")
            ):
                value = getattr(node, "value", None)
                if isinstance(node, ast.AugAssign) or (
                    value is not None and _constant_bool(value) is None
                ):
                    yield rule.finding(
                        ctx,
                        node,
                        "dynamic shard_safe assignment — not statically "
                        "checkable and invisible to the cut-time check; "
                        "declare shard_safe as a class-level constant and "
                        "override shard_safe_now() for runtime gating",
                    )
