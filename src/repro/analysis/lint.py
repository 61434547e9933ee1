"""Repo-specific AST lint pass (the static prong of the sanitizers).

Generic linters cannot know that counter names must live under a
registered section, or that kernels reach a GPU through one launcher.
This module encodes such invariants as AST rules and runs them over the
source tree::

    python -m repro.analysis.lint src          # exit 0 when clean
    python -m repro.analysis.lint --rules      # rule catalogue

Rules
-----

A rule stays only while it kills a mutant of live code that the rest of
the tier-1 suite, ``ruff`` and the merger soak all pass; each entry names
that mutant, and ``tests/analysis/test_lint.py::LIVE_SITES`` applies it.
IDs are stable and never reused.

REPRO004 *unknown-counter-section*
    A counter-name literal ``/section/...`` whose first component is not
    registered in :data:`repro.runtime.counters.KNOWN_SECTIONS`, or a
    full literal without the ``/section/name`` shape (``"/solves"``).  A
    typo such as ``/thread/executed`` silently creates a parallel section
    no report aggregates.  An f-string whose literal head ends before the
    section is complete (``f"/{section}/x"``) is out of static reach.
    *Only it kills:* ``"/distmsh/restorations"`` in ``core/distmesh.py``
    (no test reads that counter).

REPRO006 *unaggregated-enqueue*
    A direct ``stream.enqueue(...)`` or ``pool.launch(...)`` call in any
    package above ``runtime/`` (``network`` ... ``analysis``).  The
    GPU-else-CPU rule is written once, in
    :meth:`repro.runtime.aggregate.AggregationRegion._flush`, and kernels
    reach it through :meth:`repro.core.exec.ExecutionEngine.map`; any
    other launch is unaggregated and uncounted.  *Only it kills:* a
    ``gpu.streams[1].enqueue(...)`` beside the engine in
    ``resilience/merger.py``.

REPRO007 *unaccounted-halo*
    In a ``core/`` module that imports from ``repro.network``: a direct
    ``Channel.set(...)``; a function that writes one block's or box's
    slab straight into another's (``boxes[a][ghost] = boxes[b][layer]``,
    or a call to the direct copier ``_copy_halos``) without booking it
    with ``tally_local``; a function that packs block or box slabs into
    a buffer (``payload[lo:hi]... = boxes[b][layer]``) without
    ``transport.send``; or a function that unpacks buffer slices into
    boxes (``boxes[a][ghost] = payload[lo:hi]...``) without draining a
    future (``fut.get()``).  The
    :class:`repro.network.transport.HaloTransport` is where both halo
    routes are counted, so each of these moves bytes beside it.
    ``_copy_halos``'s own body is the one exempt box-to-box write; the
    node-level ``core/mesh.py`` imports no network layer and is out of
    scope.  *Only it kills:* remote halos unpacked from the sender's
    buffer by a helper, while the route is still sent and drained: the
    counters reconcile and the bytes are equal, but none crossed the
    wire.

REPRO008 *alloc-in-hot-kernel*
    An ``np.empty`` / ``np.zeros`` / ``np.empty_like`` /
    ``np.zeros_like`` / ``np.concatenate`` call in a ``core/gravity/``
    or ``core/hydro/`` function that takes an ``out=`` or ``ws``
    parameter, outside any branch conditioned on those parameters: the
    caller supplied scratch, and the kernel allocates per stage anyway.
    Allocation in the fallback branch (``if ws is None: ...`` / ``x if
    out is not None else np.empty(...)``) is fine.  *Only it kills:*
    ``core/hydro/riemann.py``'s scratch helper returning
    ``np.empty(shape, dtype)`` whatever ``ws`` holds.

REPRO009 *unverified-checkpoint-record*
    ``resilience/checkpoint.py`` alone knows the record format, so
    outside it nothing constructs a ``MeshCheckpoint`` or a
    ``ManifestRecord`` (checksum stamping bypassed) or mutates a
    ``BuddyReplicatedStore``'s ``_shards`` / ``_manifests`` (method
    call, assignment, augmented assignment or deletion: the
    write-then-commit protocol bypassed).  Snapshot through
    ``CheckpointManager.save``, restore through ``restore_latest`` or
    ``RecoveryCoordinator.recover``.  *Only it kills:* a global rollback
    that assembles its ``MeshCheckpoint`` from ``recovery_plan`` /
    ``fetch`` / ``restore_state`` beside ``store.restore``, which keeps
    the abandoned timeline's newer generations in the store.

REPRO011 *layering*
    An import — top-level *or* function-local — against the package
    direction ``sanitize <- runtime <- network <- core | simulator <-
    resilience <- validation <- analysis``: a package imports only from
    packages to its left (``core`` and ``simulator`` are peers).  A
    function-local import does not break a cycle, it hides one.  There
    is no exception list.  *Only it kills:* a function-local ``from
    ..resilience.faults import TransientActionFault`` in
    ``runtime/cuda.py`` (a top-level one already fails at import).

Retired
-------

REPRO001 and REPRO002 went with the constructs they inspected.  These
went because other checks already kill every mutant they were written
for:

* REPRO003 *nondeterminism-in-kernel* (wall clock or random numbers in
  ``core/``): the bit-identity and protocol tests of ``tests/core``;
* REPRO005 *bare-except* (in ``runtime/`` and ``resilience/``):
  ``ruff``'s E722, selected in ``pyproject.toml``, over every tree;
* REPRO010 *unsanitized-task-buffer-write* (a task body writing an
  engine buffer without declaring a shadow access):
  ``tests/core/test_distmesh.py::TestRaceDeclarations``.
"""

from __future__ import annotations

import argparse
import ast
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

from ..runtime.counters import KNOWN_SECTIONS

__all__ = ["Violation", "RULES", "LAYERS", "lint_source", "lint_file",
           "lint_paths", "main"]


@dataclass(frozen=True)
class Violation:
    """One rule hit: where, which rule, and what to do about it."""

    path: str
    line: int
    rule: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: {self.rule} {self.message}"


#: rule id -> (slug, one-line description) — the ``--rules`` catalogue
RULES: dict[str, tuple[str, str]] = {
    "REPRO004": ("unknown-counter-section",
                 "counter names are /section/name with a registered section "
                 "(see repro.runtime.counters.KNOWN_SECTIONS)"),
    "REPRO006": ("unaggregated-enqueue",
                 "direct stream.enqueue or StreamPool.launch above "
                 "runtime/ is a second launch path beside the aggregation "
                 "region; route kernels through ExecutionEngine.map / "
                 "AggregationRegion"),
    "REPRO007": ("unaccounted-halo",
                 "a direct Channel.set, a box-to-box ghost write in a "
                 "function that tallies nothing, a packed payload never "
                 "handed to transport.send or an unpack outside the "
                 "function that drains the route's future, in a network-"
                 "aware core/ module bypasses the halo accounting; send "
                 "remote halos through HaloTransport.send, tally local "
                 "copies with HaloTransport.tally_local"),
    "REPRO008": ("alloc-in-hot-kernel",
                 "core/gravity/ and core/hydro/ kernels taking out=/ws "
                 "must not allocate unconditionally via np.empty/np.zeros/"
                 "np.concatenate; allocate only in the no-workspace branch"),
    "REPRO009": ("unverified-checkpoint-record",
                 "checkpoint records round-trip through the verified store: "
                 "no MeshCheckpoint / ManifestRecord construction or "
                 "_shards / _manifests mutation outside "
                 "resilience/checkpoint.py"),
    "REPRO011": ("layering",
                 "imports (top-level or function-local) follow sanitize <- "
                 "runtime <- network <- core|simulator <- resilience <- "
                 "validation <- analysis, without exceptions"),
}

#: package -> layer (REPRO011): a package imports only from lower layers
LAYERS = {"sanitize": 0, "runtime": 1, "network": 2, "core": 3,
          "simulator": 3, "resilience": 4, "validation": 5, "analysis": 6}

#: registry methods taking a counter-name literal
_COUNTER_METHODS = {"increment", "set_gauge", "value"}

#: numpy allocators banned from unconditional hot-kernel paths (REPRO008)
_ALLOC_FUNCS = {"empty", "zeros", "empty_like", "zeros_like", "concatenate"}
#: parameter names that mark a function as workspace-aware
_SCRATCH_PARAMS = {"out", "ws"}

#: the checkpoint store's record attributes and the container methods
#: that mutate them in place (REPRO009)
_CKPT_RECORDS = {"_shards", "_manifests"}
_CKPT_MUTATORS = {"append", "pop", "clear", "extend", "insert", "remove",
                  "update", "setdefault", "popitem"}


def _is_ckpt_records(node: ast.AST) -> bool:
    """``x._shards``, ``x._manifests[loc]``, ...: the store's records."""
    while isinstance(node, ast.Subscript):
        node = node.value
    return isinstance(node, ast.Attribute) and node.attr in _CKPT_RECORDS


def _counter_name_literal(node: ast.expr) -> tuple[str, bool] | None:
    """``(literal prefix, is the whole name)`` of a counter-name argument,
    if statically known.

    Handles plain strings and f-strings whose *first* chunk is a literal
    (``f"/cuda/{name}/busy"`` yields ``("/cuda/", False)``).
    """
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value, True
    if isinstance(node, ast.JoinedStr) and node.values:
        head = node.values[0]
        if isinstance(head, ast.Constant) and isinstance(head.value, str):
            return head.value, False
    return None


def _imports_network(tree: ast.AST) -> bool:
    """Does the module import from the ``network`` package (any spelling:
    ``repro.network...``, ``from ..network... import``)?"""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any("network" in alias.name.split(".")
                   for alias in node.names):
                return True
        elif isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if "network" in parts:
                return True
            if node.level and any(alias.name == "network"
                                  for alias in node.names):
                return True
    return False


def _looks_like_channel(expr: ast.expr) -> bool:
    """Heuristic: does this receiver expression name a channel?"""
    tail = ast.unparse(expr).lower().split(".")[-1]
    return tail == "ch" or "chan" in tail


def _slab_kind(expr: ast.expr) -> str | None:
    """``"block"`` for a slab of mesh storage — a block or a box of
    blocks — ``"buffer"`` for a slice of anything else, both possibly
    seen through method calls (``payload[lo:hi].reshape(shape)[...]``,
    ``boxes[b][layer].copy()``); ``None`` for an expression that slices
    nothing."""
    sliced = False
    while True:
        if isinstance(expr, ast.Subscript):
            sliced, expr = True, expr.value
        elif (isinstance(expr, ast.Call)
                and isinstance(expr.func, ast.Attribute)):
            expr = expr.func.value
        else:
            break
    if not sliced:
        return None
    tail = ast.unparse(expr).lower().split(".")[-1]
    storage = ("block", "blk", "box")
    return "block" if any(word in tail for word in storage) else "buffer"


def _calls_method(sub: ast.AST, attr: str, receiver: str) -> bool:
    """Is ``sub`` a ``<...receiver...>.attr(...)`` call?"""
    return (isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute)
            and sub.func.attr == attr and receiver in
            ast.unparse(sub.func.value).lower().split(".")[-1])


class _Linter(ast.NodeVisitor):
    def __init__(self, path: str, rel: str, imports_network: bool = False):
        self.path = path
        #: repo-relative path with forward slashes, for scoped rules
        self.rel = rel.replace("\\", "/")
        self.violations: list[Violation] = []
        self.in_core = "/core/" in f"/{self.rel}"
        #: per-step hot-kernel directories (REPRO008 scope)
        self.hot_kernel_scope = ("/core/gravity/" in f"/{self.rel}"
                                 or "/core/hydro/" in f"/{self.rel}")
        #: the module pulls in the network layer, so its channel traffic
        #: may cross localities (REPRO007 scope)
        self.imports_network = imports_network
        #: everywhere except the verified store itself (REPRO009 scope)
        self.outside_ckpt_store = not self.rel.endswith(
            "resilience/checkpoint.py")
        #: path components below ``repro/`` (REPRO011 resolves imports
        #: against them)
        parts = self.rel.split("/")
        self.parts = (parts[parts.index("repro") + 1:] if "repro" in parts
                      else parts)
        #: a package layered above ``runtime/`` (REPRO006 scope)
        self.above_runtime = LAYERS.get(self.parts[0], 0) > LAYERS["runtime"]

    def _hit(self, node: ast.AST, rule: str, message: str) -> None:
        self.violations.append(
            Violation(self.path, getattr(node, "lineno", 0), rule, message))

    # -- REPRO008 ---------------------------------------------------------

    @staticmethod
    def _is_np_alloc(node: ast.expr) -> bool:
        return (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _ALLOC_FUNCS
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in ("np", "numpy"))

    def _check_hot_kernel_allocs(self, fn) -> None:
        """REPRO008: unconditional numpy allocations in out=/ws kernels.

        Only functions that *take* an ``out`` or ``ws`` parameter are in
        scope; an allocation is tolerated anywhere lexically inside an
        ``if``/conditional expression whose test mentions one of those
        parameters (the fallback branch for callers without scratch).
        Nested function definitions are checked independently against
        their own signatures.
        """
        if not self.hot_kernel_scope:
            return
        args = fn.args
        params = {a.arg for a in (args.posonlyargs + args.args
                                  + args.kwonlyargs)}
        scratch = params & _SCRATCH_PARAMS
        if not scratch:
            return

        def test_mentions_scratch(test: ast.expr) -> bool:
            return any(isinstance(sub, ast.Name) and sub.id in scratch
                       for sub in ast.walk(test))

        def walk(node: ast.AST, guarded: bool) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef,
                                      ast.AsyncFunctionDef)):
                    continue                # judged by its own signature
                g = guarded
                if (isinstance(child, (ast.If, ast.IfExp))
                        and test_mentions_scratch(child.test)):
                    g = True
                if not g and self._is_np_alloc(child):
                    names = "/".join(sorted(scratch))
                    self._hit(child, "REPRO008",
                              f"np.{child.func.attr}() in a hot kernel "
                              f"that takes {names}: write into the "
                              "caller's scratch, or allocate only in a "
                              f"branch conditioned on {names}")
                walk(child, g)

        walk(fn, False)

    # -- REPRO007 (direct copies, packed routes) ---------------------------

    def _check_halo_accounting(self, fn) -> None:
        """REPRO007, per function of a network-aware ``core/`` module.
        Box-to-box slab writes (``_copy_halos`` calls included) need
        one ``tally_local`` call anywhere in the body; block slabs packed
        into a buffer need a ``transport.send``; buffer slices unpacked
        into blocks need a drained future (``fut.get()``).  The copier
        ``_copy_halos`` itself is exempt: its calls are the direct writes
        its callers must book."""
        if not (self.in_core and self.imports_network) \
                or fn.name == "_copy_halos":
            return
        direct, packs, unpacks = [], [], []
        tallied = sent = drained = False
        for sub in ast.walk(fn):
            if isinstance(sub, ast.Call):
                tallied |= (isinstance(sub.func, ast.Attribute)
                            and sub.func.attr == "tally_local")
                sent |= _calls_method(sub, "send", "transport")
                drained |= _calls_method(sub, "get", "fut")
                if getattr(sub.func, "attr", None) == "_copy_halos":
                    direct.append(sub)
            elif isinstance(sub, ast.Assign):
                kinds = {(_slab_kind(t), _slab_kind(sub.value))
                         for t in sub.targets}
                for kind, hits in ((("block", "block"), direct),
                                   (("buffer", "block"), packs),
                                   (("block", "buffer"), unpacks)):
                    if kind in kinds:
                        hits.append(sub)
        for hits, ok, what, fix in (
                (direct, tallied, "direct box-to-box ghost write",
                 "no transport tally: the halo is counted on neither "
                 "route; book it with HaloTransport.tally_local"),
                (packs, sent, "box slab packed into a send buffer",
                 "no transport.send: the payload crosses a locality "
                 "uncharged (or never leaves); hand it to "
                 "HaloTransport.send"),
                (unpacks, drained, "buffer slice unpacked into a box",
                 "no drained future: the bytes were delivered by no "
                 "route; unpack where the route's fut.get() is")):
            for sub in () if ok else hits:
                self._hit(sub, "REPRO007",
                          f"{what} in {fn.name!r} of a network-aware "
                          f"core/ module with {fix}")

    # -- visitors ---------------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        # REPRO006: above runtime/, kernels launch through the region only
        if self.above_runtime and isinstance(func, ast.Attribute):
            base = ast.unparse(func.value)
            if (func.attr == "enqueue" and "stream" in base.lower()
                    or func.attr == "launch" and "pool" in base.lower()):
                self._hit(node, "REPRO006",
                          f"direct {func.attr}() on {base!r} above runtime/ "
                          "bypasses the aggregation region (and its launch "
                          "accounting); use ExecutionEngine.map or an "
                          "AggregationRegion")
        # REPRO007: channel sends in network-aware core/ modules must be
        # routed (and charged) through the halo transport
        if (self.in_core and self.imports_network
                and isinstance(func, ast.Attribute) and func.attr == "set"
                and _looks_like_channel(func.value)):
            self._hit(node, "REPRO007",
                      f"direct {ast.unparse(func.value)}.set() in a "
                      "network-aware core/ module bypasses the parcelport "
                      "accounting (remote charge, eager/rendezvous tally); "
                      "send through HaloTransport.send instead")
        # REPRO009: checkpoint records must round-trip through the store
        if self.outside_ckpt_store:
            ctor = (func.id if isinstance(func, ast.Name)
                    else func.attr if isinstance(func, ast.Attribute)
                    else None)
            if ctor in ("MeshCheckpoint", "ManifestRecord"):
                self._hit(node, "REPRO009",
                          f"constructing {ctor} outside "
                          "resilience/checkpoint.py bypasses checksum "
                          "stamping (the record could never fail "
                          "verification) and forks the record format; "
                          "snapshot through CheckpointManager.save")
            if (isinstance(func, ast.Attribute)
                    and func.attr in _CKPT_MUTATORS
                    and _is_ckpt_records(func.value)):
                self._hit(node, "REPRO009",
                          f"{func.attr}() on a checkpoint store's records "
                          "bypasses the write-then-commit protocol and the "
                          "fallback accounting; go through "
                          "CheckpointManager.save / restore_latest")
        # REPRO004: counter-name sections
        if (isinstance(func, ast.Attribute) and func.attr in _COUNTER_METHODS
                and node.args):
            name_arg = node.args[0]
            found = _counter_name_literal(name_arg)
            if found is not None and found[0].startswith("/"):
                literal, whole = found
                section, sep, name = literal[1:].partition("/")
                if whole and not (section and name):
                    self._hit(name_arg, "REPRO004",
                              f"counter name {literal!r} is not of the "
                              "form /section/name")
                elif sep and section not in KNOWN_SECTIONS:
                    self._hit(name_arg, "REPRO004",
                              f"counter section {section!r} (in "
                              f"{literal!r}) is not registered in "
                              "repro.runtime.counters.KNOWN_SECTIONS")
        self.generic_visit(node)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_hot_kernel_allocs(node)
        self._check_halo_accounting(node)
        self.generic_visit(node)

    # REPRO009: assignment / deletion targets that rewrite a checkpoint
    # store's records in place (``store._shards = ...``,
    # ``store._shards[loc][gen, key] =``, ``del store._manifests[loc]``,
    # ``store._manifests[loc] |= ...``)

    def _check_ckpt_store_target(self, target: ast.AST) -> None:
        if not self.outside_ckpt_store:
            return
        for sub in ast.walk(target):
            if isinstance(sub, ast.Attribute) and sub.attr in _CKPT_RECORDS:
                self._hit(sub, "REPRO009",
                          f"rewriting a checkpoint store's {sub.attr} "
                          "bypasses the write-then-commit protocol and the "
                          "fallback accounting; go through "
                          "CheckpointManager.save / restore_latest")
                return

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_ckpt_store_target(target)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_ckpt_store_target(node.target)
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            self._check_ckpt_store_target(target)
        self.generic_visit(node)

    # -- REPRO011 ---------------------------------------------------------

    def _check_layering(self, node: ast.AST, modules: list[str]) -> None:
        """``modules`` are dotted paths under ``repro`` (``"runtime.faults"``)
        that ``node`` imports."""
        parts = self.parts
        if len(parts) < 2 or parts[0] not in LAYERS:
            return
        for dotted in modules:
            target = dotted.split(".")[0]
            if (target == parts[0] or target not in LAYERS
                    or LAYERS[target] < LAYERS[parts[0]]):
                continue
            self._hit(node, "REPRO011",
                      f"{parts[0]}/ imports repro.{dotted}, which is not a "
                      "lower layer; move the shared piece down or inject it")

    def visit_Import(self, node: ast.Import) -> None:
        self._check_layering(node, [a.name[len("repro."):]
                                    for a in node.names
                                    if a.name.startswith("repro.")])

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        module = node.module.split(".") if node.module else []
        if node.level == 0:
            if module[:1] != ["repro"]:
                return
            base = module[1:]
        else:
            # the file's package path below repro/, climbed level-1 times
            up = len(self.parts) - node.level
            if up < 0:
                return
            base = self.parts[:up] + module
        # ``from .. import sanitize`` names sub-packages in the alias list
        self._check_layering(node, [".".join(base)] if base else
                             [a.name for a in node.names])


def lint_source(source: str, path: str = "<string>",
                rel: str | None = None) -> list[Violation]:
    """Lint one source string; ``rel`` scopes the path-dependent rules."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [Violation(path, exc.lineno or 0, "REPRO000",
                          f"syntax error: {exc.msg}")]
    linter = _Linter(path, rel if rel is not None else path,
                     imports_network=_imports_network(tree))
    linter.visit(tree)
    return sorted(linter.violations, key=lambda v: (v.line, v.rule))


def lint_file(path: Path, root: Path | None = None) -> list[Violation]:
    rel = str(path.relative_to(root)) if root else str(path)
    return lint_source(path.read_text(encoding="utf-8"), str(path), rel)


def _iter_files(paths: Iterable[str]) -> Iterator[tuple[Path, Path]]:
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            for f in sorted(p.rglob("*.py")):
                yield f, p
        elif p.suffix == ".py":
            yield p, p.parent


def lint_paths(paths: Iterable[str]) -> list[Violation]:
    return [v for f, root in _iter_files(paths) for v in lint_file(f, root)]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.lint",
        description="repo-specific AST lint pass (see --rules)")
    parser.add_argument("paths", nargs="*", default=["src"],
                        help="files or directories to lint (default: src)")
    parser.add_argument("--rules", action="store_true",
                        help="print the rule catalogue and exit")
    args = parser.parse_args(argv)
    if args.rules:
        for rule_id, (slug, desc) in sorted(RULES.items()):
            print(f"{rule_id}  {slug}: {desc}")
        return 0
    violations = lint_paths(args.paths)
    for v in violations:
        print(v)
    print(f"{len(violations)} violation(s) in "
          f"{len(set(v.path for v in violations))} file(s)"
          if violations else "clean")
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
