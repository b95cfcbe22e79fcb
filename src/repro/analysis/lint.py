"""Convention-enforcing AST lint for the repro source tree.

Run as ``python tools/lint_repro.py src`` (CI does) or programmatically via
:func:`run_lint`.  The rules encode repo conventions that plain style
linters cannot see:

``kernel-counts``
    Every public module-level function in a *kernel module* (the
    instrumented compute kernels of ``sparse``/``amg``/``dist``) must
    charge the performance model — call
    :func:`repro.perf.counters.count` (or log prebuilt records through
    ``count_record`` / ``SimComm.record_on_ranks``) directly or
    (transitively) call another kernel that does.  An uncharged kernel silently corrupts the
    modeled times the whole reproduction is built on.
``no-scipy``
    No ``scipy`` imports under ``src/``: the library is from-scratch by
    design; scipy is a test oracle only.
``seeded-random``
    No unseeded randomness: ``np.random.default_rng()`` without a seed and
    every legacy ``np.random.*`` global-state call are flagged.
    Reproducibility (PMIS tie-breaking, fault plans) depends on explicit
    seeds everywhere.
``no-bare-except``
    No bare ``except:`` handlers (they swallow ``KeyboardInterrupt`` and
    mask :class:`~repro.analysis.errors.InvariantViolation`).
``no-borrowed-mutation``
    No in-place mutation of the ``data``/``indices``/``indptr`` arrays of
    a CSR matrix received as a function parameter: CSR constructors share
    (borrow) array references, so mutating a borrowed array corrupts the
    lender.  Kernels must copy first (``indptr.copy()``) or build fresh
    arrays.
``no-count-in-hot-loop``
    No per-iteration performance counting in the compute tree: a
    ``count(...)`` call lexically inside a ``for``/``while`` body under
    ``sparse``/``amg``/``dist`` charges the model once per Python
    iteration — the pattern the compiled solve phase exists to eliminate.
    Hot paths must precompute a record template (``make_record`` +
    ``count_record``) or bulk-append (``count_batch``); loops that are
    genuinely per-invocation (per-rank setup) carry a justified waiver.
``lockset``
    In any class that documents a lock by assigning ``self._lock``
    (the serving tier, :class:`~repro.amg.cache.HierarchyCache`), every
    write to a private (underscore) attribute — rebinding, subscript or
    augmented assignment, deletion, or a mutating container-method call —
    must happen lexically inside ``with self._lock``, or inside a private
    method whose *every* call site holds the lock (a per-class fixpoint;
    ``__init__`` is exempt as thread-confined).  Public attributes such as
    the virtual clock are single-writer by design and out of scope.

Waivers live in a JSON file (default ``tools/lint_waivers.json``) mapping
rule id to a list of ``fnmatch`` patterns over ``path`` or
``path::symbol``; every waiver entry must justify itself with a comment
key (``"# why"``-style keys are ignored by the loader).
"""

from __future__ import annotations

import ast
import fnmatch
import json
import sys
from dataclasses import dataclass
from pathlib import Path

__all__ = ["LintFinding", "run_lint", "main", "RULES"]

RULES = (
    "kernel-counts",
    "no-scipy",
    "seeded-random",
    "no-bare-except",
    "no-borrowed-mutation",
    "no-count-in-hot-loop",
    "lockset",
)

#: Path fragments of the compute tree scanned by ``no-count-in-hot-loop``.
_HOT_TREES = ("repro/sparse/", "repro/amg/", "repro/dist/")

#: Modules whose public module-level functions are instrumented kernels
#: (matched as path suffixes, POSIX separators).
KERNEL_MODULES = (
    "repro/sparse/spmv.py",
    "repro/sparse/spgemm.py",
    "repro/sparse/transpose.py",
    "repro/sparse/triple_product.py",
    "repro/sparse/blas1.py",
    "repro/sparse/reorder.py",
    "repro/sparse/accumulator.py",
    "repro/amg/strength.py",
    "repro/amg/pmis.py",
    "repro/amg/coarsen_rs.py",
    "repro/amg/truncation.py",
    "repro/amg/interp_classical.py",
    "repro/amg/interp_direct.py",
    "repro/amg/interp_extended.py",
    "repro/amg/interp_multipass.py",
    "repro/amg/interp_twostage.py",
    "repro/dist/spmv.py",
    "repro/dist/spgemm.py",
    "repro/dist/transpose.py",
    "repro/dist/strength.py",
    "repro/dist/renumber.py",
    "repro/dist/rowgather.py",
    "repro/dist/pmis.py",
    "repro/dist/interp.py",
)

#: Legacy ``np.random`` attributes that use unseeded module-global state.
_LEGACY_RANDOM = {
    "rand", "randn", "randint", "random", "random_sample", "ranf", "sample",
    "choice", "shuffle", "permutation", "seed", "normal", "standard_normal",
    "uniform", "poisson", "exponential", "binomial", "bytes",
}

#: ndarray methods that mutate in place.
_MUTATING_METHODS = {"sort", "fill", "partition", "put", "resize", "setfield"}

_CSR_ARRAYS = {"data", "indices", "indptr"}


@dataclass(frozen=True)
class LintFinding:
    rule: str
    path: str
    line: int
    symbol: str
    message: str

    def format(self) -> str:
        sym = f" [{self.symbol}]" if self.symbol else ""
        return f"{self.path}:{self.line}: {self.rule}{sym}: {self.message}"


# ---------------------------------------------------------------------------
# Per-file AST walks
# ---------------------------------------------------------------------------

def _call_target_names(node: ast.Call) -> str | None:
    """The called name: ``f(...)`` -> ``f``, ``m.f(...)`` -> ``f``."""
    f = node.func
    if isinstance(f, ast.Name):
        return f.id
    if isinstance(f, ast.Attribute):
        return f.attr
    return None


def _np_random_attr(node: ast.AST) -> str | None:
    """``np.random.X`` / ``numpy.random.X`` attribute name, else None."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Attribute)
        and node.value.attr == "random"
        and isinstance(node.value.value, ast.Name)
        and node.value.value.id in ("np", "numpy")
    ):
        return node.attr
    return None


def _scan_simple_rules(tree: ast.Module, path: str) -> list[LintFinding]:
    """All single-file rules (everything except kernel-counts)."""
    findings: list[LintFinding] = []
    scopes: list[str] = []
    func_params: list[set[str]] = []

    def symbol() -> str:
        return ".".join(scopes)

    def visit(node: ast.AST) -> None:
        entered = False
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scopes.append(node.name)
            entered = True
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = node.args
                names = {
                    p.arg
                    for p in (*a.posonlyargs, *a.args, *a.kwonlyargs)
                } - {"self", "cls"}
                func_params.append(names)

        if isinstance(node, (ast.Import, ast.ImportFrom)):
            mods = (
                [n.name for n in node.names]
                if isinstance(node, ast.Import)
                else [node.module or ""]
            )
            for mod in mods:
                if mod == "scipy" or mod.startswith("scipy."):
                    findings.append(LintFinding(
                        "no-scipy", path, node.lineno, symbol(),
                        f"import of {mod!r}: scipy is a test oracle, not a "
                        f"library dependency"))
        elif isinstance(node, ast.ExceptHandler) and node.type is None:
            findings.append(LintFinding(
                "no-bare-except", path, node.lineno, symbol(),
                "bare 'except:' swallows KeyboardInterrupt and masks "
                "invariant violations; name the exception types"))
        elif isinstance(node, ast.Call):
            attr = _np_random_attr(node.func)
            if attr == "default_rng" and not node.args and not node.keywords:
                findings.append(LintFinding(
                    "seeded-random", path, node.lineno, symbol(),
                    "np.random.default_rng() without a seed breaks "
                    "reproducibility; pass an explicit seed"))
            elif attr == "RandomState" and not node.args and not node.keywords:
                findings.append(LintFinding(
                    "seeded-random", path, node.lineno, symbol(),
                    "np.random.RandomState() without a seed breaks "
                    "reproducibility; pass an explicit seed"))
            elif attr in _LEGACY_RANDOM:
                findings.append(LintFinding(
                    "seeded-random", path, node.lineno, symbol(),
                    f"np.random.{attr} uses unseeded module-global state; "
                    f"use a seeded np.random.default_rng(seed)"))
        if func_params:
            _scan_borrowed_mutation(node, path, symbol(), func_params[-1],
                                    findings)

        for child in ast.iter_child_nodes(node):
            visit(child)
        if entered:
            scopes.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                func_params.pop()

    visit(tree)
    return findings


def _param_csr_array(node: ast.AST, params: set[str]) -> str | None:
    """``<param>.data`` / ``.indices`` / ``.indptr`` access, else None."""
    if (
        isinstance(node, ast.Attribute)
        and node.attr in _CSR_ARRAYS
        and isinstance(node.value, ast.Name)
        and node.value.id in params
    ):
        return f"{node.value.id}.{node.attr}"
    return None


def _scan_borrowed_mutation(
    node: ast.AST, path: str, symbol: str, params: set[str],
    findings: list[LintFinding],
) -> None:
    targets: list[ast.AST] = []
    why = ""
    if isinstance(node, ast.Assign):
        targets = node.targets
        why = "assignment"
    elif isinstance(node, (ast.AugAssign,)):
        targets = [node.target]
        why = "in-place update"
    elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        if node.func.attr in _MUTATING_METHODS:
            targets = [node.func.value]
            why = f".{node.func.attr}() call"
    for t in targets:
        # x.data[...] = / x.data.sort(): unwrap one subscript layer.
        inner = t.value if isinstance(t, ast.Subscript) else t
        name = _param_csr_array(inner, params)
        if name is None and isinstance(t, ast.Attribute):
            name = _param_csr_array(t, params)
        if name is not None:
            findings.append(LintFinding(
                "no-borrowed-mutation", path, node.lineno, symbol,
                f"{why} mutates {name}, a CSR array borrowed through a "
                f"parameter; CSR constructors share array references, so "
                f"copy before mutating"))


# ---------------------------------------------------------------------------
# no-count-in-hot-loop (per-iteration model charges in the compute tree)
# ---------------------------------------------------------------------------

def _scan_count_in_loop(tree: ast.Module, path: str) -> list[LintFinding]:
    """Flag ``count(...)`` calls lexically inside ``for``/``while`` bodies."""
    if not any(frag in Path(path).as_posix() for frag in _HOT_TREES):
        return []
    findings: list[LintFinding] = []
    scopes: list[str] = []

    def visit(node: ast.AST, loop_depth: int) -> None:
        entered = False
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scopes.append(node.name)
            entered = True
            # A nested def starts a fresh call boundary: its body only runs
            # per loop iteration if the closure is *called* there, which the
            # call-site scan sees.
            loop_depth = 0
        if isinstance(node, ast.Call) and _call_target_names(node) == "count":
            if loop_depth > 0:
                findings.append(LintFinding(
                    "no-count-in-hot-loop", path, node.lineno,
                    ".".join(scopes),
                    "count() inside a loop body charges the model once per "
                    "Python iteration; precompute a template "
                    "(make_record + count_record) or bulk-append "
                    "(count_batch)"))
        child_depth = loop_depth + (1 if isinstance(node, (ast.For, ast.While))
                                    else 0)
        for child in ast.iter_child_nodes(node):
            visit(child, child_depth)
        if entered:
            scopes.pop()

    visit(tree, 0)
    return findings


# ---------------------------------------------------------------------------
# lockset (per-class lock-discipline analysis)
# ---------------------------------------------------------------------------

#: Container methods that mutate their receiver in place.
_MUTATING_CONTAINER = {
    "append", "add", "clear", "discard", "extend", "insert", "move_to_end",
    "pop", "popitem", "remove", "setdefault", "update",
}


def _self_private_attr(node: ast.AST) -> str | None:
    """``self._x`` attribute name for a private (non-lock) attribute."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
        and node.attr.startswith("_")
        and node.attr != "_lock"
    ):
        return node.attr
    return None


def _is_self_lock(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
        and node.attr == "_lock"
    )


def _lockset_writes(node: ast.AST) -> list[tuple[str, str]]:
    """``(attr, why)`` pairs for shared-state writes performed by *node*."""
    out: list[tuple[str, str]] = []

    def tgt(t: ast.AST, why: str) -> None:
        # self._x[...] = / del self._x[...]: unwrap one subscript layer.
        inner = t.value if isinstance(t, ast.Subscript) else t
        attr = _self_private_attr(inner)
        if attr is not None:
            out.append((attr, why))

    if isinstance(node, ast.Assign):
        for t in node.targets:
            for el in (t.elts if isinstance(t, ast.Tuple) else [t]):
                tgt(el, "assignment")
    elif isinstance(node, ast.AugAssign):
        tgt(node.target, "in-place update")
    elif isinstance(node, ast.Delete):
        for t in node.targets:
            tgt(t, "deletion")
    elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        if node.func.attr in _MUTATING_CONTAINER:
            attr = _self_private_attr(node.func.value)
            if attr is not None:
                out.append((attr, f".{node.func.attr}() call"))
    return out


def _scan_class_lockset(
    cls: ast.ClassDef, path: str, findings: list[LintFinding]
) -> None:
    methods = {
        n.name: n for n in cls.body
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    owns_lock = any(
        isinstance(sub, ast.Assign)
        and any(_is_self_lock(t) for t in sub.targets)
        for m in methods.values()
        for sub in ast.walk(m)
    )
    if not owns_lock:
        return

    #: method -> unguarded (attr, why, lineno) writes
    writes: dict[str, list[tuple[str, str, int]]] = {}
    #: callee -> [(caller, caller held the lock at the call site)]
    call_sites: dict[str, list[tuple[str, bool]]] = {}

    def walk(node: ast.AST, method: str, in_lock: bool) -> None:
        if isinstance(node, ast.With):
            guarded = in_lock or any(
                _is_self_lock(item.context_expr) for item in node.items
            )
            for item in node.items:
                walk(item.context_expr, method, in_lock)
            for child in node.body:
                walk(child, method, guarded)
            return
        if not in_lock:
            for attr, why in _lockset_writes(node):
                writes.setdefault(method, []).append((attr, why, node.lineno))
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "self"
            and node.func.attr in methods
        ):
            call_sites.setdefault(node.func.attr, []).append((method, in_lock))
        for child in ast.iter_child_nodes(node):
            walk(child, method, in_lock)

    for name, m in methods.items():
        for stmt in m.body:
            walk(stmt, name, False)

    # Fixpoint: a private helper is lock-held-on-entry iff every one of its
    # self-call sites is lexically in-lock, in __init__ (thread-confined),
    # or in another lock-held helper.  Public and dunder methods are
    # externally callable, so they never qualify.
    lock_held: set[str] = set()
    changed = True
    while changed:
        changed = False
        for name in methods:
            if (
                name in lock_held
                or not name.startswith("_")
                or name.startswith("__")
            ):
                continue
            sites = call_sites.get(name)
            if sites and all(
                in_lock or caller == "__init__" or caller in lock_held
                for caller, in_lock in sites
            ):
                lock_held.add(name)
                changed = True

    for name in sorted(writes):
        if name == "__init__" or name in lock_held:
            continue
        for attr, why, lineno in writes[name]:
            findings.append(LintFinding(
                "lockset", path, lineno, f"{cls.name}.{name}",
                f"{why} writes self.{attr} outside 'with self._lock' in a "
                f"lock-guarded class; shared mutable state must be written "
                f"under the documented lock (or only from lock-held "
                f"private callers)"))


def _scan_lockset(tree: ast.Module, path: str) -> list[LintFinding]:
    findings: list[LintFinding] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            _scan_class_lockset(node, path, findings)
    return findings


# ---------------------------------------------------------------------------
# kernel-counts (cross-module charge analysis)
# ---------------------------------------------------------------------------

def _module_key(path: Path) -> str:
    """Stable module id: POSIX path suffix starting at ``repro/``."""
    parts = path.as_posix().split("/")
    if "repro" in parts:
        return "/".join(parts[parts.index("repro"):])
    return path.as_posix()


def _resolve_relative(key: str, level: int, module: str | None) -> str | None:
    """Resolve ``from .foo import f`` inside module *key* to a module id."""
    pkg = key.rsplit("/", 1)[0].split("/")  # package dirs of this module
    if level > len(pkg):
        return None
    base = pkg[: len(pkg) - (level - 1)]
    if module:
        base = base + module.split(".")
    return "/".join(base) + ".py"


#: Calls that put kernel records into a perf log.
_CHARGING_CALLS = {"count", "count_record", "record_on_ranks"}


class _ModuleInfo:
    def __init__(self, key: str, tree: ast.Module) -> None:
        self.key = key
        #: public module-level functions: name -> lineno
        self.public: dict[str, int] = {}
        #: every module-level function name -> called names (local view)
        self.calls: dict[str, set[str]] = {}
        #: functions that charge directly: ``count(...)`` (or
        #: ``...counters.count``), a prebuilt record through
        #: ``count_record(...)``, or per-rank rows through
        #: ``comm.record_on_ranks(...)``.
        self.direct: set[str] = set()
        #: imported name -> (module id, original name)
        self.imports: dict[str, tuple[str, str]] = {}

        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                target = _resolve_relative(key, node.level, node.module)
                if target is None:
                    continue
                for alias in node.names:
                    self.imports[alias.asname or alias.name] = (
                        target, alias.name
                    )
            elif isinstance(node, ast.FunctionDef):
                if not node.name.startswith("_"):
                    self.public[node.name] = node.lineno
                called = set()
                charges = False
                for sub in ast.walk(node):
                    if isinstance(sub, ast.Call):
                        name = _call_target_names(sub)
                        if name in _CHARGING_CALLS:
                            charges = True
                        elif name is not None:
                            called.add(name)
                self.calls[node.name] = called
                if charges:
                    self.direct.add(node.name)


def _scan_kernel_counts(
    modules: dict[str, tuple[ast.Module, str]]
) -> list[LintFinding]:
    infos = {
        key: _ModuleInfo(key, tree) for key, (tree, _path) in modules.items()
    }
    kernel_keys = {
        key for key in infos
        if any(key.endswith(suffix) for suffix in KERNEL_MODULES)
    }
    # Fixpoint: (module, func) charges if it calls count() directly or calls
    # a charging function (same module, or imported from another module).
    charging: set[tuple[str, str]] = {
        (key, fn) for key, info in infos.items() for fn in info.direct
    }
    changed = True
    while changed:
        changed = False
        for key, info in infos.items():
            for fn, called in info.calls.items():
                if (key, fn) in charging:
                    continue
                for name in called:
                    if (key, name) in charging:
                        charging.add((key, fn))
                        changed = True
                        break
                    target = info.imports.get(name)
                    if target is not None and target in charging:
                        charging.add((key, fn))
                        changed = True
                        break
    findings = []
    for key in sorted(kernel_keys):
        info = infos[key]
        path = modules[key][1]
        for fn, lineno in sorted(info.public.items(), key=lambda kv: kv[1]):
            if (key, fn) not in charging:
                findings.append(LintFinding(
                    "kernel-counts", path, lineno, fn,
                    f"public kernel {fn}() never charges "
                    f"perf.counters.count(), directly or through another "
                    f"kernel; uncharged kernels corrupt the modeled times"))
    return findings


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def _load_waivers(path: Path | None) -> dict[str, list[str]]:
    if path is None or not path.exists():
        return {}
    with open(path) as f:
        raw = json.load(f)
    return {
        rule: [p for p in pats]
        for rule, pats in raw.items()
        if not rule.startswith("#")
    }


def _waived(finding: LintFinding, waivers: dict[str, list[str]]) -> bool:
    pats = waivers.get(finding.rule, ())
    path = Path(finding.path).as_posix()
    qualified = f"{path}::{finding.symbol}" if finding.symbol else path
    # A relative waiver pattern also matches as a path suffix, so waivers
    # written repo-relative keep working when lint is invoked with
    # absolute paths (CI, tests).
    return any(
        fnmatch.fnmatch(path, pat)
        or fnmatch.fnmatch(qualified, pat)
        or (not pat.startswith(("/", "*"))
            and (fnmatch.fnmatch(path, "*/" + pat)
                 or fnmatch.fnmatch(qualified, "*/" + pat)))
        for pat in pats
    )


def run_lint(
    paths: list[str | Path],
    *,
    waivers: dict[str, list[str]] | None = None,
    rules: set[str] | None = None,
) -> list[LintFinding]:
    """Lint every ``.py`` file under *paths*; returns unwaived findings."""
    waivers = waivers or {}
    active = set(rules) if rules is not None else set(RULES)
    files: list[Path] = []
    for p in paths:
        p = Path(p)
        if p.is_dir():
            files.extend(sorted(p.rglob("*.py")))
        else:
            files.append(p)

    findings: list[LintFinding] = []
    modules: dict[str, tuple[ast.Module, str]] = {}
    for path in files:
        if "__pycache__" in path.parts:
            continue
        try:
            tree = ast.parse(path.read_text(), filename=str(path))
        except SyntaxError as exc:
            findings.append(LintFinding(
                "syntax", str(path), exc.lineno or 0, "",
                f"failed to parse: {exc.msg}"))
            continue
        modules[_module_key(path)] = (tree, str(path))
        simple = _scan_simple_rules(tree, str(path))
        findings.extend(f for f in simple if f.rule in active)
        if "no-count-in-hot-loop" in active:
            findings.extend(_scan_count_in_loop(tree, str(path)))
        if "lockset" in active:
            findings.extend(_scan_lockset(tree, str(path)))
    if "kernel-counts" in active:
        findings.extend(_scan_kernel_counts(modules))
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return [f for f in findings if not _waived(f, waivers)]


def main(argv: list[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="lint_repro",
        description="Repo-convention AST lint (see repro.analysis.lint).",
    )
    parser.add_argument("paths", nargs="+", help="files or directories to lint")
    parser.add_argument(
        "--waivers", default=None,
        help="JSON waiver file (default: tools/lint_waivers.json if present)")
    parser.add_argument(
        "--rule", action="append", default=None, choices=RULES,
        help="run only this rule (repeatable)")
    args = parser.parse_args(argv)

    waiver_path = (
        Path(args.waivers)
        if args.waivers is not None
        else Path("tools/lint_waivers.json")
    )
    waivers = _load_waivers(waiver_path)
    findings = run_lint(
        args.paths,
        waivers=waivers,
        rules=set(args.rule) if args.rule else None,
    )
    for f in findings:
        print(f.format())
    if findings:
        print(f"{len(findings)} finding(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
