"""Repo-specific AST lint pass (the static prong of the sanitizers).

Generic linters cannot know that this codebase's solver layer is
bit-identical by contract, or that counter names must live under a
registered section.  This module encodes those invariants as AST rules
and runs them over the source tree::

    python -m repro.analysis.lint src          # exit 0 when clean
    python -m repro.analysis.lint --rules      # rule catalogue

Rules
-----

Every rule inspects a construct that ``src/`` contains
(``tests/analysis/test_lint.py`` breaks each one's live site on
purpose); a rule whose construct leaves the tree goes with it.  IDs are
stable: REPRO001 and REPRO002, retired that way, are not reused.

REPRO003 *nondeterminism-in-kernel*
    Wall-clock (``time.time`` / ``time.time_ns``) or random-number calls
    in ``core/`` — the solver layer is bit-identical by contract
    (futurized and serial executions must produce the same bits), so
    kernels must not read nondeterministic sources.

REPRO004 *unknown-counter-section*
    A counter-name literal ``/section/...`` whose first component is not
    registered in :data:`repro.runtime.counters.KNOWN_SECTIONS`, or a
    full literal without the ``/section/name`` shape (``"/solves"``).  A
    typo such as ``/thread/executed`` silently creates a parallel section
    no dashboard aggregates; new sections must be registered
    deliberately.  An f-string whose literal head ends before the section
    is complete (``f"/{section}/x"``) is out of static reach.

REPRO005 *bare-except*
    A bare ``except:`` in ``runtime/`` or ``resilience/``.  The runtime
    redistributes failures on purpose (futures carry exceptions, the
    supervisor replays tasks); a bare except also traps
    ``KeyboardInterrupt``/``SystemExit`` and turns shutdown into a hang.
    Catch a concrete type, or ``BaseException`` *with* re-dispatch.

REPRO006 *unaggregated-enqueue*
    A direct ``stream.enqueue(...)`` or ``pool.launch(...)`` call in any
    package above ``runtime/`` (``network`` ... ``analysis``).  The
    GPU-else-CPU rule is written once, in
    :meth:`repro.runtime.aggregate.AggregationRegion._flush` — the one
    sanctioned launcher — and kernel launches reach it through
    :meth:`repro.core.exec.ExecutionEngine.map`, so they are coalesced
    into aggregated launches and counted by the engine's placement
    accounting; a bypassing launch or enqueue is a second launch path:
    unaggregated, uncounted.

REPRO007 *unaccounted-halo*
    In a ``core/`` module that imports from ``repro.network``: a direct
    ``Channel.set(...)``; a function that writes one block's slab
    straight into another's (``blocks[a][ghost] = blocks[b][layer]``, or
    a call to the direct copier ``DistBlockMesh._copy_halos``) without
    booking anything with the transport (``tally_local`` /
    ``charge_onesided``); a
    function that packs block slabs into a send buffer
    (``payload[lo:hi]... = blocks[b][layer]``) without handing it to
    ``transport.send``; or a function that unpacks buffer slices into
    blocks (``blocks[a][ghost] = payload[lo:hi]...``) without draining a
    future (``fut.get()``).  Such a module is distribution-aware: the
    route of each of its halos depends on who owns the two blocks, and
    the :class:`repro.network.transport.HaloTransport` is where both
    routes are counted — a direct set is a cross-locality halo the
    parcelport never charged, an untallied direct copy a same-locality
    halo nobody counted, a packed payload that is not sent (or an unpack
    of something no route delivered) cross-locality bytes that moved
    beside the wire, and either way the ``/distmesh/*`` vs ``/parcels/*``
    reconciliation silently rots.  Pack, ``transport.send(channel, ...)``,
    drain and unpack a route in the one function that owns the exchange;
    copy local halos with ``DistBlockMesh._copy_halos`` — whose own body
    is the one exempt block-to-block write, booked by its callers — and
    tally them.  The node-level ``core/mesh.py`` moves no halos (its
    blocks are views of one box), does not import the network layer and
    is deliberately out of scope.

REPRO008 *alloc-in-hot-kernel*
    An ``np.empty`` / ``np.zeros`` / ``np.empty_like`` /
    ``np.zeros_like`` / ``np.concatenate`` call in a ``core/gravity/``
    or ``core/hydro/`` function that takes an ``out=`` or ``ws``
    (workspace) parameter, outside any branch conditioned on those
    parameters.  Such functions are the per-step hot kernels: when the
    caller supplies scratch, allocating anyway reintroduces exactly the
    per-stage churn the workspace plumbing removed.  Allocation is fine
    in the fallback branch for workspace-less callers (``if ws is
    None: ...`` / ``x if out is not None else np.empty(...)``) — the
    rule only fires on unconditional allocations.  Reference kernels
    without an ``out=``/``ws`` parameter are out of scope by
    construction.

REPRO009 *unverified-checkpoint-record*
    ``resilience/checkpoint.py`` is the only module that knows the
    record format (a ``ManifestRecord`` header + ``{block: interior}``
    payloads in a ``MeshCheckpoint``), so records must round-trip through
    its verified store API: constructing a ``MeshCheckpoint`` or a
    ``ManifestRecord`` directly bypasses checksum stamping (the record
    would never fail verification, however damaged), and mutating a
    manager's ``_checkpoints`` list — append/pop/assignment/deletion —
    bypasses the write-then-commit protocol and the fallback accounting.
    Both are flagged everywhere outside ``resilience/checkpoint.py``;
    snapshot through ``CheckpointManager.save`` and restore through
    ``restore_latest`` (or ``restore_state`` with a fetched record).

REPRO010 *unsanitized-task-buffer-write*
    A ``core/`` function that is dispatched as an engine/scheduler task
    (its name appears as the callable argument of some ``.map(...)`` /
    ``.submit(...)`` call anywhere in the linted tree) mutates an
    engine-owned buffer — an ``out``/``outs`` parameter, a buffer taken
    from a workspace (``ws.take(...)``, ``self._ws...``) or the
    futurized output pool (``_pool_out``), or any local alias of one —
    via subscript assignment, in-place ``+=``, or ``np.copyto``,
    without declaring a single shadow access
    (:func:`repro.sanitize.racecheck.access`) anywhere in its body.
    Such writes run concurrently on worker threads; without the paired
    ``sanitize.access`` declaration the race detector is blind to them,
    so an aliasing bug between two tasks would ship silently.  Declaring
    one access in the function (``_racecheck.access(buf, "w", ...)``)
    brings every buffer it touches under the happens-before check and
    silences the rule.  (Collection is a two-pass affair: ``lint_paths``
    first gathers dispatched-callable names over the whole tree, then
    lints each file against that set; single-file ``lint_source`` runs
    collect the same-file dispatches only.)

REPRO011 *layering*
    An import — top-level *or* function-local — against the package
    direction ``sanitize <- runtime <- network <- core | simulator <-
    resilience <- validation <- analysis``: a package may import only
    from packages to its left (``core`` and ``simulator`` are peers and
    import neither each other nor anything above).  A function-local
    import does not break a cycle, it hides one: ``import repro.runtime``
    must never drag in ``repro.resilience``.  Move the shared piece down
    a layer (as the fault exception types live in ``runtime/faults.py``
    and ``RetryPolicy`` in ``network/retry.py``) or inject it.  There is
    no exception list: ``sanitize/`` hands its tallies out as plain data
    (``sanitize.tallies()``) instead of writing into ``runtime/counters``.
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
    "REPRO003": ("nondeterminism-in-kernel",
                 "core/ kernels are bit-identical by contract: no wall-clock "
                 "or random-number reads"),
    "REPRO004": ("unknown-counter-section",
                 "counter names are /section/name with a registered section "
                 "(see repro.runtime.counters.KNOWN_SECTIONS)"),
    "REPRO005": ("bare-except",
                 "bare `except:` in runtime/ or resilience/ swallows "
                 "shutdown signals; name the exception type"),
    "REPRO006": ("unaggregated-enqueue",
                 "direct stream.enqueue or StreamPool.launch above "
                 "runtime/ is a second launch path beside the aggregation "
                 "region; route kernels through ExecutionEngine.map / "
                 "AggregationRegion"),
    "REPRO007": ("unaccounted-halo",
                 "a direct Channel.set, a block-to-block ghost write in a "
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
                 "_checkpoints mutation outside resilience/checkpoint.py"),
    "REPRO010": ("unsanitized-task-buffer-write",
                 "core/ task bodies mutating engine-owned buffers (out=/ws/"
                 "_pool_out and aliases) must declare sanitize.access so the "
                 "race detector sees the write"),
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

#: wall-clock / randomness calls banned from core/ (REPRO003)
_NONDET_TIME = {"time", "time_ns"}

#: numpy allocators banned from unconditional hot-kernel paths (REPRO008)
_ALLOC_FUNCS = {"empty", "zeros", "empty_like", "zeros_like", "concatenate"}
#: parameter names that mark a function as workspace-aware
_SCRATCH_PARAMS = {"out", "ws"}

#: list methods that mutate a checkpoint store in place (REPRO009)
_CKPT_MUTATORS = {"append", "pop", "clear", "extend", "insert", "remove"}

#: call methods whose first positional argument is dispatched as a task
#: body on worker threads (REPRO010 collection pass)
_DISPATCH_METHODS = {"map", "submit"}
#: parameter names that hand a function an engine-owned output buffer
_ENGINE_BUFFER_PARAMS = {"out", "outs", "rhs"}
#: receiver spellings that mark a call result as workspace/pool-backed
_WS_RECEIVERS = {"ws", "_ws"}


def _collect_task_names(tree: ast.AST) -> set[str]:
    """Names of callables handed to ``.map(...)`` / ``.submit(...)``.

    The terminal identifier is collected for both ``engine.map(fn, ...)``
    (yields ``fn``) and ``engine.map(self._kernel, ...)`` (yields
    ``_kernel``); lambdas and other expressions are out of static reach.
    """
    names: set[str] = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _DISPATCH_METHODS and node.args):
            fn = node.args[0]
            if isinstance(fn, ast.Name):
                names.add(fn.id)
            elif isinstance(fn, ast.Attribute):
                names.add(fn.attr)
    return names


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
    """``"block"`` for a slab of a mesh block, ``"buffer"`` for a slice
    of anything else, both possibly seen through method calls
    (``payload[lo:hi].reshape(shape)[...]``, ``blocks[b][layer].copy()``);
    ``None`` for an expression that slices nothing."""
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
    return "block" if "block" in tail or "blk" in tail else "buffer"


def _calls_method(sub: ast.AST, attr: str, receiver: str) -> bool:
    """Is ``sub`` a ``<...receiver...>.attr(...)`` call?"""
    return (isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute)
            and sub.func.attr == attr and receiver in
            ast.unparse(sub.func.value).lower().split(".")[-1])


#: transport calls that book a direct (channel-less) halo copy
_HALO_TALLIES = ("tally_local", "charge_onesided")


class _Linter(ast.NodeVisitor):
    def __init__(self, path: str, rel: str, imports_network: bool = False,
                 task_names: set[str] | None = None):
        self.path = path
        #: repo-relative path with forward slashes, for scoped rules
        self.rel = rel.replace("\\", "/")
        self.violations: list[Violation] = []
        self.in_core = "/core/" in f"/{self.rel}"
        self.guarded_scope = ("/runtime/" in f"/{self.rel}"
                              or "/resilience/" in f"/{self.rel}")
        #: per-step hot-kernel directories (REPRO008 scope)
        self.hot_kernel_scope = ("/core/gravity/" in f"/{self.rel}"
                                 or "/core/hydro/" in f"/{self.rel}")
        #: the module pulls in the network layer, so its channel traffic
        #: may cross localities (REPRO007 scope)
        self.imports_network = imports_network
        #: everywhere except the verified store itself (REPRO009 scope)
        self.outside_ckpt_store = not self.rel.endswith(
            "resilience/checkpoint.py")
        #: engine-dispatched callable names from the collection pass
        #: (REPRO010 scope: core/ functions with one of these names)
        self.task_names = task_names or set()
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

    # -- REPRO010 ---------------------------------------------------------

    @staticmethod
    def _root_name(expr: ast.expr) -> str | None:
        """The base ``Name`` under any chain of subscripts/attributes."""
        while isinstance(expr, (ast.Subscript, ast.Attribute)):
            expr = expr.value
        return expr.id if isinstance(expr, ast.Name) else None

    def _is_engine_buffer(self, value: ast.expr, owned: set[str]) -> bool:
        """Does this assignment RHS yield an engine-owned buffer?

        True for aliases of already-owned names (``x = out``,
        ``x = out[sl]``), either arm of a conditional alias
        (``out if out is not None else ...``), and workspace/pool
        allocations (``ws.take(...)``, ``self._ws.buf(...)``,
        ``self._pool_out(...)``).
        """
        if isinstance(value, (ast.Name, ast.Subscript)):
            return self._root_name(value) in owned
        if isinstance(value, ast.IfExp):
            return (self._is_engine_buffer(value.body, owned)
                    or self._is_engine_buffer(value.orelse, owned))
        if (isinstance(value, ast.Call)
                and isinstance(value.func, ast.Attribute)):
            if value.func.attr == "_pool_out":
                return True
            tail = ast.unparse(value.func.value).split(".")[-1]
            return tail in _WS_RECEIVERS
        return False

    def _check_task_buffer_writes(self, fn) -> None:
        """REPRO010: engine-task writes invisible to the race detector.

        Scope: ``core/`` functions whose name was collected as a
        dispatched callable.  A single ``.access(...)`` call anywhere in
        the body exempts the whole function — it participates in the
        shadow-access contract, and the dynamic detector takes over from
        there.
        """
        if not self.in_core or fn.name not in self.task_names:
            return
        for sub in ast.walk(fn):
            if (isinstance(sub, ast.Call)
                    and isinstance(sub.func, ast.Attribute)
                    and sub.func.attr == "access"):
                return
        args = fn.args
        owned = {a.arg for a in (args.posonlyargs + args.args
                                 + args.kwonlyargs)
                 if a.arg in _ENGINE_BUFFER_PARAMS}
        # alias propagation to a fixpoint: ws/pool allocations seed new
        # owned names, plain/conditional aliases spread them
        changed = True
        while changed:
            changed = False
            for sub in ast.walk(fn):
                if not (isinstance(sub, ast.Assign)
                        and len(sub.targets) == 1
                        and isinstance(sub.targets[0], ast.Name)):
                    continue
                tgt = sub.targets[0].id
                if tgt not in owned and self._is_engine_buffer(sub.value,
                                                               owned):
                    owned.add(tgt)
                    changed = True
        if not owned:
            return

        def hit(node: ast.AST, what: str, name: str) -> None:
            self._hit(node, "REPRO010",
                      f"{what} engine-owned buffer {name!r} in task body "
                      f"{fn.name!r} without a sanitize.access declaration; "
                      "the race detector cannot see this write — declare "
                      f"racecheck.access({name}, \"w\", owner=...) in the "
                      "function")

        for sub in ast.walk(fn):
            if isinstance(sub, ast.Assign):
                for t in sub.targets:
                    if isinstance(t, ast.Subscript):
                        name = self._root_name(t)
                        if name in owned:
                            hit(sub, "subscript assignment to", name)
            elif isinstance(sub, ast.AugAssign):
                t = sub.target
                name = (self._root_name(t)
                        if isinstance(t, (ast.Subscript, ast.Name))
                        else None)
                if name in owned:
                    hit(sub, "in-place update of", name)
            elif (isinstance(sub, ast.Call)
                    and isinstance(sub.func, ast.Attribute)
                    and sub.func.attr == "copyto"
                    and isinstance(sub.func.value, ast.Name)
                    and sub.func.value.id in ("np", "numpy") and sub.args):
                name = self._root_name(sub.args[0])
                if name in owned:
                    hit(sub, "np.copyto into", name)

    # -- REPRO007 (direct copies, packed routes) ---------------------------

    def _check_halo_accounting(self, fn) -> None:
        """REPRO007, per function of a network-aware ``core/`` module.
        Block-to-block slab writes (``_copy_halos`` calls included) need
        one ``tally_local`` /
        ``charge_onesided`` call anywhere in the body; block slabs packed
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
                            and sub.func.attr in _HALO_TALLIES)
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
                (direct, tallied, "direct block-to-block ghost write",
                 "no transport tally: the halo is counted on neither "
                 "route; book it with HaloTransport.tally_local (or "
                 "charge_onesided for a one-sided read)"),
                (packs, sent, "block slab packed into a send buffer",
                 "no transport.send: the payload crosses a locality "
                 "uncharged (or never leaves); hand it to "
                 "HaloTransport.send"),
                (unpacks, drained, "buffer slice unpacked into a block",
                 "no drained future: the bytes were delivered by no "
                 "route; unpack where the route's fut.get() is")):
            for sub in () if ok else hits:
                self._hit(sub, "REPRO007",
                          f"{what} in {fn.name!r} of a network-aware "
                          f"core/ module with {fix}")

    # -- visitors ---------------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        # REPRO003: nondeterminism in core kernels
        if self.in_core and isinstance(func, ast.Attribute):
            base = ast.unparse(func.value)
            if base == "time" and func.attr in _NONDET_TIME:
                self._hit(node, "REPRO003",
                          f"time.{func.attr}() in core/ breaks bit-identical "
                          "execution; take timestamps in the runtime layer")
            elif base in ("random", "np.random", "numpy.random"):
                self._hit(node, "REPRO003",
                          f"{base}.{func.attr}() in core/ breaks "
                          "bit-identical execution; inject a seeded "
                          "generator from the caller instead")
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
                    and isinstance(func.value, ast.Attribute)
                    and func.value.attr == "_checkpoints"):
                self._hit(node, "REPRO009",
                          f"{func.attr}() on a manager's _checkpoints list "
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
        self._check_task_buffer_writes(node)
        self._check_halo_accounting(node)
        self.generic_visit(node)

    # REPRO009: assignment / deletion targets that rewrite a checkpoint
    # store in place (``mgr._checkpoints = ...``, ``mgr._checkpoints[i] =``,
    # ``del mgr._checkpoints[:]``, ``mgr._checkpoints += ...``)

    def _check_ckpt_store_target(self, target: ast.AST) -> None:
        if not self.outside_ckpt_store:
            return
        for sub in ast.walk(target):
            if isinstance(sub, ast.Attribute) and sub.attr == "_checkpoints":
                self._hit(sub, "REPRO009",
                          "rewriting a manager's _checkpoints list bypasses "
                          "the write-then-commit protocol and the fallback "
                          "accounting; go through CheckpointManager.save / "
                          "restore_latest / reset")
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

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if self.guarded_scope and node.type is None:
            self._hit(node, "REPRO005",
                      "bare `except:` traps KeyboardInterrupt/SystemExit "
                      "and hides faults from the supervisor; catch a "
                      "concrete exception type")
        self.generic_visit(node)


def lint_source(source: str, path: str = "<string>",
                rel: str | None = None,
                task_names: set[str] | None = None) -> list[Violation]:
    """Lint one source string; ``rel`` scopes the path-dependent rules.

    ``task_names`` extends the REPRO010 collection set with dispatched
    callables found elsewhere in the tree; same-file dispatches are
    always collected.
    """
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [Violation(path, exc.lineno or 0, "REPRO000",
                          f"syntax error: {exc.msg}")]
    names = _collect_task_names(tree) | (task_names or set())
    linter = _Linter(path, rel if rel is not None else path,
                     imports_network=_imports_network(tree),
                     task_names=names)
    linter.visit(tree)
    return sorted(linter.violations, key=lambda v: (v.line, v.rule))


def lint_file(path: Path, root: Path | None = None,
              task_names: set[str] | None = None) -> list[Violation]:
    rel = str(path.relative_to(root)) if root else str(path)
    return lint_source(path.read_text(encoding="utf-8"), str(path), rel,
                       task_names=task_names)


def _iter_files(paths: Iterable[str]) -> Iterator[tuple[Path, Path]]:
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            for f in sorted(p.rglob("*.py")):
                yield f, p
        elif p.suffix == ".py":
            yield p, p.parent


def lint_paths(paths: Iterable[str]) -> list[Violation]:
    files = list(_iter_files(paths))
    # pass 1 (REPRO010): gather dispatched-callable names over the whole
    # tree, so a core/ kernel is matched against dispatches anywhere
    task_names: set[str] = set()
    for f, _root in files:
        try:
            task_names |= _collect_task_names(
                ast.parse(f.read_text(encoding="utf-8"), filename=str(f)))
        except SyntaxError:
            pass  # pass 2 reports it as REPRO000
    out: list[Violation] = []
    for f, root in files:
        out.extend(lint_file(f, root, task_names=task_names))
    return out


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
