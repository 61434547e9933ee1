"""The repo-specific lint pass: every rule fires on its fixture and on a
pinned edit of the live code it guards, the repo's own source tree stays
clean, and the CLI exit codes are right."""

import ast
import textwrap
from pathlib import Path

import pytest

from repro.analysis.lint import (RULES, _collect_task_names, lint_paths,
                                 lint_source, main)

SRC = Path(__file__).resolve().parents[2] / "src"


def _lint(src, rel="repro/somewhere/mod.py"):
    return lint_source(textwrap.dedent(src), path=rel, rel=rel)


# -- REPRO003: nondeterminism in core kernels -----------------------------

def test_repro003_wall_clock_in_core():
    vs = _lint("""
        import time
        def kernel(U):
            return U * time.time()
    """, rel="repro/core/hydro.py")
    assert [v.rule for v in vs] == ["REPRO003"]
    assert "bit-identical" in vs[0].message


def test_repro003_random_in_core():
    vs = _lint("""
        import random
        import numpy as np
        def kernel(U):
            return U + random.random() + np.random.rand()
    """, rel="repro/core/hydro.py")
    assert [v.rule for v in vs] == ["REPRO003", "REPRO003"]


def test_repro003_only_applies_to_core():
    src = "import time\nx = time.time()\n"
    assert _lint(src, rel="repro/runtime/trace_util.py") == []
    assert [v.rule for v in _lint(src, rel="repro/core/mesh2.py")] \
        == ["REPRO003"]


def test_repro003_perf_counter_allowed_in_core():
    assert _lint("import time\nt = time.perf_counter()\n",
                 rel="repro/core/mesh2.py") == []


# -- REPRO004: counter-name sections --------------------------------------

def test_repro004_unknown_section():
    vs = _lint("registry.increment('/thread/executed')")
    assert [v.rule for v in vs] == ["REPRO004"]
    assert "'thread'" in vs[0].message


def test_repro004_fstring_head_is_checked():
    vs = _lint('registry.set_gauge(f"/gpu/{name}/busy", 1.0)')
    assert [v.rule for v in vs] == ["REPRO004"]


def test_repro004_sectionless_name_fires():
    vs = lint_source('reg.increment("/solves")', rel="repro/core/x.py")
    assert [v.rule for v in vs] == ["REPRO004"]
    assert "/section/name" in vs[0].message
    assert [v.rule for v in _lint("reg.increment('/fmm/')")] == ["REPRO004"]
    # an f-string whose literal head stops before the section is complete
    # is out of static reach
    assert _lint('reg.increment(f"/{section}/solves")') == []
    assert _lint('reg.increment(f"/fm{x}/solves")') == []


def test_repro004_known_sections_and_helpers_clean():
    assert _lint("""
        registry.increment('/threads/executed')
        registry.set_gauge(f"/cuda/{name}/busy", 1.0)
        registry.increment('/resilience/retries')
        registry.set_gauge('/sanitize/findings', 0.0)
        registry.increment('/fmm/solve')
        registry.value('/hydro/steps')
    """) == []


def test_repro004_non_counter_strings_ignored():
    assert _lint("path.startswith('/not/a/counter')") == []


# -- REPRO005: bare except in runtime/resilience --------------------------

def test_repro005_bare_except_in_runtime():
    vs = _lint("""
        try:
            f()
        except:
            pass
    """, rel="repro/runtime/worker.py")
    assert [v.rule for v in vs] == ["REPRO005"]


def test_repro005_typed_except_and_other_dirs_clean():
    typed = """
        try:
            f()
        except BaseException as exc:
            record(exc)
    """
    assert _lint(typed, rel="repro/runtime/worker.py") == []
    bare = "try:\n    f()\nexcept:\n    pass\n"
    assert _lint(bare, rel="repro/analysis/tool.py") == []
    assert [v.rule for v in _lint(bare, rel="repro/resilience/sup.py")] \
        == ["REPRO005"]


# -- REPRO006: launches beside the aggregation region ----------------------

def test_repro006_direct_stream_enqueue_in_core():
    vs = _lint("self.stream.enqueue([(kernel, (dR, m))])",
               rel="repro/core/solver.py")
    assert [v.rule for v in vs] == ["REPRO006"]
    assert "aggregation region" in vs[0].message


def test_repro006_pool_launch_in_core():
    vs = _lint("fut = self.pool.launch(items)",
               rel="repro/core/gravity/fmm.py")
    assert [v.rule for v in vs] == ["REPRO006"]
    assert "launch()" in vs[0].message


def test_repro006_covers_every_package_above_runtime():
    vs = _lint("stream.enqueue(items)",
               rel="repro/resilience/supervisor.py")
    assert [v.rule for v in vs] == ["REPRO006"]
    # the region is the one sanctioned launcher: even a checked launch
    # above runtime/ is a second launch path
    vs = _lint("""
        def launch(self, items):
            fut = self.pool.launch(items)
            return fut if fut is not None else run_inline(items)
    """, rel="repro/analysis/profile.py")
    assert [v.rule for v in vs] == ["REPRO006"]
    assert _lint("fut = self.pool.launch(items)",
                 rel="repro/runtime/aggregate.py") == []


def test_repro006_clean_outside_core_and_for_other_bases():
    # the runtime layer implements aggregation, so it may launch directly
    assert _lint("stream.enqueue(items)",
                 rel="repro/runtime/aggregate.py") == []
    # only stream enqueues and pool launches are launch paths
    assert _lint("queue.enqueue(item)", rel="repro/core/mesh.py") == []
    assert _lint("rocket.launch()", rel="repro/core/mesh.py") == []
    # engine-mediated dispatch is the sanctioned route
    assert _lint("engine.map(fn, argtuples)", rel="repro/core/mesh.py") == []


# -- REPRO007: unaccounted channel set in network-aware core/ -------------

_NETWORK_IMPORT = "from ..network.transport import HaloTransport\n"


def test_repro007_direct_set_in_network_aware_core_module():
    vs = _lint(_NETWORK_IMPORT + "ch.set(halo, generation)",
               rel="repro/core/distmesh.py")
    assert [v.rule for v in vs] == ["REPRO007"]
    assert "HaloTransport" in vs[0].message


def test_repro007_matches_channel_spellings():
    for recv in ("ch", "chan", "channel", "self._channel((nb, off))",
                 "halo_channel"):
        vs = _lint(_NETWORK_IMPORT + f"{recv}.set(v, g)",
                   rel="repro/core/distmesh.py")
        assert [v.rule for v in vs] == ["REPRO007"], recv


def test_repro007_clean_without_network_import():
    # core/mesh.py is node-level: no network import, direct sets are fine
    assert _lint("ch.set(halo, generation)", rel="repro/core/mesh.py") == []


def test_repro007_clean_outside_core_and_for_other_receivers():
    # the network layer itself delivers into channels — that IS the route
    assert _lint(_NETWORK_IMPORT + "ch.set(v, g)",
                 rel="repro/network/transport.py") == []
    # non-channel .set() receivers in network-aware core/ are untouched
    assert _lint(_NETWORK_IMPORT + "flags.set(True)",
                 rel="repro/core/distmesh.py") == []
    # transport-mediated sends are the sanctioned route
    assert _lint(_NETWORK_IMPORT + "transport.send(ch, v, g, src, dst)",
                 rel="repro/core/distmesh.py") == []


def test_repro007_absolute_import_spelling_also_counts():
    vs = _lint("import repro.network.parcelport as pp\nch.set(v, g)",
               rel="repro/core/distmesh.py")
    assert [v.rule for v in vs] == ["REPRO007"]


_DIRECT_COPY = """
def _halo_exchange(self, blocks, generation):
    for dst, ghost, src, layer, nbytes in self._fill_plan.pairs:
        blocks[dst][ghost] = blocks[src][layer]
"""


def test_repro007_untallied_block_to_block_ghost_write():
    vs = _lint(_NETWORK_IMPORT + _DIRECT_COPY, rel="repro/core/distmesh.py")
    assert [v.rule for v in vs] == ["REPRO007"]
    assert "tally_local" in vs[0].message
    assert "_halo_exchange" in vs[0].message
    # other spellings of a block slab
    vs = _lint(_NETWORK_IMPORT + "def f(self, blk, ip, sl):\n"
               "    self.blocks[ip][sl] = blk[sl]",
               rel="repro/core/distmesh.py")
    assert [v.rule for v in vs] == ["REPRO007"]
    # the distributed mesh's copier writes block to block on the
    # caller's behalf ...
    vs = _lint(_NETWORK_IMPORT + "def f(self, blocks, plan):\n"
               "    self._copy_halos(blocks, plan.local)",
               rel="repro/core/distmesh.py")
    assert [v.rule for v in vs] == ["REPRO007"]
    # ... so its own body is the one exempt write
    assert _lint(_NETWORK_IMPORT + "def _copy_halos(blocks, halos):\n"
                 "    for dst, ghost, src, layer, _ in halos:\n"
                 "        blocks[dst][ghost] = blocks[src][layer]",
                 rel="repro/core/distmesh.py") == []


def test_repro007_tallied_or_out_of_scope_ghost_writes_are_clean():
    # booking the copies with the transport is the sanctioned route ...
    for tally in ("self.transport.tally_local(n, nbytes)",
                  "transport.charge_onesided(nbytes, a, b)"):
        assert _lint(_NETWORK_IMPORT + _DIRECT_COPY + f"    {tally}\n",
                     rel="repro/core/distmesh.py") == []
    # ... the node-level mesh has no transport to book with ...
    assert _lint(_DIRECT_COPY, rel="repro/core/mesh.py") == []
    assert _lint(_NETWORK_IMPORT + _DIRECT_COPY,
                 rel="repro/resilience/durability.py") == []
    # ... and a received payload is not another block's memory
    assert _lint(_NETWORK_IMPORT + "def f(blocks, dst, ghost, fut):\n"
                 "    blocks[dst][ghost] = fut.get()\n"
                 "    blocks[dst][ghost] = data",
                 rel="repro/core/distmesh.py") == []


_PACK = """
def _halo_exchange(self, blocks, generation):
    for route in self._routes().routes:
        payload = np.empty(route.size)
        for _, _, src, layer, lo, hi, shape in route.slabs:
            payload[lo:hi].reshape(shape)[...] = blocks[src][layer]
"""

_UNPACK = """
def _unpack(self, blocks, route, payload):
    for dst, ghost, _, _, lo, hi, shape in route.slabs:
        blocks[dst][ghost] = payload[lo:hi].reshape(shape)
"""


def test_repro007_packed_payload_never_sent():
    """Planted: a route's slabs are packed and the payload goes nowhere
    near the transport (here: straight into the channel's future)."""
    vs = _lint(_NETWORK_IMPORT + _PACK + "        promise.set_value(payload)",
               rel="repro/core/distmesh.py")
    assert [v.rule for v in vs] == ["REPRO007"]
    assert "transport.send" in vs[0].message
    assert "_halo_exchange" in vs[0].message
    # flat spellings of the same pack
    vs = _lint(_NETWORK_IMPORT + "def pack(self, blk, buf, sl, lo, hi):\n"
               "    buf[lo:hi] = blk[sl].ravel()",
               rel="repro/core/distmesh.py")
    assert [v.rule for v in vs] == ["REPRO007"]
    # handing the payload to the transport is the sanctioned route
    assert _lint(_NETWORK_IMPORT + _PACK + "        self.transport.send("
                 "route.channel, payload, generation, route.src, route.dst)",
                 rel="repro/core/distmesh.py") == []
    assert _lint(_PACK, rel="repro/core/mesh.py") == []


def test_repro007_unpack_outside_the_function_that_drains_the_future():
    """Planted: ghost slabs written from a buffer no route future
    delivered — bytes that reached the block beside the wire."""
    vs = _lint(_NETWORK_IMPORT + _UNPACK, rel="repro/core/distmesh.py")
    assert [v.rule for v in vs] == ["REPRO007"]
    assert "fut.get()" in vs[0].message
    assert "_unpack" in vs[0].message
    # a dict lookup or a posted receive is not a drained future
    vs = _lint(_NETWORK_IMPORT + _UNPACK
               + "    fut = self.channels.get(pair).get(generation)",
               rel="repro/core/distmesh.py")
    assert [v.rule for v in vs] == ["REPRO007"]
    for drain in ("fut.get()", "pending_futures[i].get(timeout=1.0)"):
        assert _lint(_NETWORK_IMPORT + "def f(self, blocks, route, fut):\n"
                     f"    payload = {drain}\n"
                     "    for dst, ghost, lo, hi, shape in route.slabs:\n"
                     "        blocks[dst][ghost] = "
                     "payload[lo:hi].reshape(shape)",
                     rel="repro/core/distmesh.py") == []
    assert _lint(_UNPACK, rel="repro/core/mesh.py") == []


# -- REPRO008: unconditional allocations in out=/ws hot kernels -----------

def test_repro008_unconditional_alloc_with_out_param():
    vs = _lint("""
        def pair_kernel(dR, m, out=None):
            scratch = np.empty(len(dR))
            out[...] = scratch
            return out
    """, rel="repro/core/gravity/kernels.py")
    assert [v.rule for v in vs] == ["REPRO008"]
    assert "caller's scratch" in vs[0].message


def test_repro008_all_banned_allocators_fire():
    vs = _lint("""
        def rhs(U, ws):
            a = np.zeros(3)
            b = np.empty_like(U)
            c = np.zeros_like(U)
            d = np.concatenate([a, b])
            return a, b, c, d
    """, rel="repro/core/hydro/solver.py")
    assert [v.rule for v in vs] == ["REPRO008"] * 4


def test_repro008_guarded_fallback_branches_are_clean():
    # if/elif chain conditioned on out / ws
    assert _lint("""
        def rhs(U, out=None, ws=None):
            if out is not None:
                r = out
            elif ws is not None:
                r = ws.buf("rhs", U.shape)
            else:
                r = np.empty(U.shape)
            return r
    """, rel="repro/core/hydro/solver.py") == []
    # conditional expression on ws
    assert _lint("""
        def scratch(ws, shape):
            return ws.buf("x", shape) if ws is not None else np.empty(shape)
    """, rel="repro/core/hydro/riemann.py") == []


def test_repro008_out_of_scope_cases_are_clean():
    # reference kernels without out=/ws allocate freely
    assert _lint("""
        def reference(dR):
            return np.empty(len(dR))
    """, rel="repro/core/gravity/kernels.py") == []
    # same code outside core/gravity|hydro is untouched
    assert _lint("""
        def pair_kernel(dR, out=None):
            return np.empty(len(dR))
    """, rel="repro/core/mesh.py") == []
    # nested helpers are judged by their own signature, not the parent's
    assert _lint("""
        def solve(self, out=None):
            def fresh(n):
                return np.empty(n)
            return fresh(4) if out is None else out
    """, rel="repro/core/gravity/fmm.py") == []


def test_repro008_nested_def_with_own_out_param_fires():
    vs = _lint("""
        def driver(x):
            def kernel(dR, out=None):
                t = np.zeros(3)
                return t
            return kernel(x)
    """, rel="repro/core/gravity/fmm.py")
    assert [v.rule for v in vs] == ["REPRO008"]


# -- REPRO009: checkpoint records bypassing the verified store ------------

def test_repro009_mesh_checkpoint_construction_outside_store():
    vs = _lint("cp = MeshCheckpoint(header, {key: blk.copy()})")
    assert [v.rule for v in vs] == ["REPRO009"]
    assert "checksum stamping" in vs[0].message
    # the qualified spelling counts too
    vs = _lint("cp = checkpoint.MeshCheckpoint(header, blocks)")
    assert [v.rule for v in vs] == ["REPRO009"]
    # ...and so does the header: the stamps live there
    vs = _lint("man = ManifestRecord(gen, step, time, 0, dict(crcs), crc)")
    assert [v.rule for v in vs] == ["REPRO009"]
    assert "ManifestRecord" in vs[0].message


def test_repro009_checkpoint_list_mutation_fires():
    for src in ("mgr._checkpoints.append(cp)",
                "mgr._checkpoints.pop()",
                "mgr._checkpoints.clear()",
                "mgr._checkpoints = [cp]",
                "mgr._checkpoints[0] = cp",
                "mgr._checkpoints += [cp]",
                "del mgr._checkpoints[:-1]"):
        vs = _lint(src)
        assert [v.rule for v in vs] == ["REPRO009"], src


def test_repro009_store_module_and_reads_are_clean():
    # the verified store itself implements the protocol
    assert _lint("""
        cp = MeshCheckpoint(ManifestRecord(0, 0, 0.0, 0, stamps), blocks)
        self._checkpoints.append(cp)
        del self._checkpoints[:-self.keep]
    """, rel="repro/resilience/checkpoint.py") == []
    # read-only access is fine everywhere (tests inspect the store)
    assert _lint("n = len(mgr._checkpoints)") == []
    assert _lint("newest = mgr._checkpoints[-1].step") == []
    # unrelated attributes with similar shape stay clean
    assert _lint("mgr._records.append(x)") == []
    assert _lint("mgr._checkpoint = cp") == []


# -- REPRO010: task-body buffer writes invisible to the race detector -----

def test_repro010_subscript_write_to_out_param():
    vs = _lint("""
        def kern(x, out):
            out[...] = x * 2

        engine.map(kern, [(1,)])
    """, rel="repro/core/hydro/mod.py")
    assert [v.rule for v in vs] == ["REPRO010"]
    assert "race detector" in vs[0].message
    assert "sanitize.access" in vs[0].message


def test_repro010_workspace_pool_and_alias_mutations_fire():
    for body in ("acc = ws.take('acc', 8)\n    acc += x",
                 "buf = self._ws.buf('b', 8)\n    buf[0] = x",
                 "o = self._pool_out('m2l', slot, n)\n    np.copyto(o, x)",
                 "rhs2 = out\n    rhs2[...] = x",
                 "r = out if out is not None else alloc()\n    r[...] = x"):
        src = (f"def kern(x, out, slot=0, n=1):\n    {body}\n\n"
               "engine.submit(kern, 1)\n")
        vs = lint_source(src, rel="repro/core/gravity/mod.py")
        assert [v.rule for v in vs] == ["REPRO010"], body


def test_repro010_batched_task_body_writing_pooled_scratch():
    # a batched kernel (a list of blocks per task) that stages its pencils
    # in pooled workspace scratch and fills the chunk output, undeclared
    batched = """
        def batched_rhs(blocks, out, ws):
            {declare}
            Wp = ws.buf("rhs:pencil", (14, len(blocks), 8, 8))
            for b, U in enumerate(blocks):
                np.copyto(Wp[:, b], U)
            out[...] = Wp.sum(axis=0)

        for chunk, out in zip(chunks, outs):
            engine.submit(batched_rhs, chunk, out, ws, use_device=False)
    """
    vs = _lint(batched.format(declare="pass"), rel="repro/core/hydro/mod.py")
    # both writes: the pooled pencil scratch and the chunk output
    assert [v.rule for v in vs] == ["REPRO010", "REPRO010"]
    # one shadow-access declaration brings the body under the detector
    assert _lint(batched.format(
        declare='_racecheck.access(out, "w", owner="hydro/rhs-out")'),
        rel="repro/core/hydro/mod.py") == []


def test_repro010_sweep_task_body_writing_its_partial():
    # a dense-M2L style task: zeroes and fills the slot's pooled partial
    # over a group of shifted-slice tiles, staging in workspace scratch
    sweep = """
        def _compute_entry(self, i, slot):
            entry = self._plan[i]
            outs = self._pool_out(entry, slot)
            part = outs[0]
            {declare}
            part[...] = 0.0
            for tgt, src, mask in entry.tiles:
                G = self._ws.buf("m2l:G", (16,) + mask.shape)
                G[0] = mask
                part[tgt] += G[0].sum(axis=-1)
            return part

        futs = engine.map(self._compute_entry, [(i, i) for i in range(n)])
    """
    vs = _lint(sweep.format(declare="pass"), rel="repro/core/gravity/fmm.py")
    # the pooled partial (zeroed, then accumulated) and the scratch block
    assert [v.rule for v in vs] == ["REPRO010"] * 3
    assert _lint(sweep.format(
        declare='_racecheck.access(part, "w", owner="fmm/m2l-out")'),
        rel="repro/core/gravity/fmm.py") == []


def test_repro010_access_declaration_exempts_the_function():
    assert _lint("""
        def kern(x, out):
            _racecheck.access(out, "w", owner="k")
            out[...] = x * 2

        engine.map(kern, [(1,)])
    """, rel="repro/core/hydro/mod.py") == []


def test_repro010_out_of_scope_cases_are_clean():
    # not dispatched through an engine: plain helper, rule silent
    assert _lint("""
        def helper(x, out):
            out[...] = x
    """, rel="repro/core/hydro/mod.py") == []
    # dispatched but outside core/: the runtime orders its own writes
    assert _lint("""
        def kern(x, out):
            out[...] = x

        engine.map(kern, [(1,)])
    """, rel="repro/runtime/mod.py") == []
    # dispatched core/ kernel mutating only its own locals: clean
    assert _lint("""
        def kern(x, out):
            tmp = [0]
            tmp[0] = x
            return tmp

        engine.map(kern, [(1,)])
    """, rel="repro/core/hydro/mod.py") == []


def test_repro010_collection_crosses_files(tmp_path):
    """The dispatch site and the kernel live in different files; the
    two-pass lint_paths still connects them."""
    pkg = tmp_path / "core" / "hydro"
    pkg.mkdir(parents=True)
    (pkg / "kern.py").write_text(
        "def remote_kern(x, out):\n    out[...] = x\n")
    (tmp_path / "driver.py").write_text(
        "engine.map(remote_kern, [(1,)])\n")
    vs = lint_paths([str(tmp_path)])
    assert [v.rule for v in vs] == ["REPRO010"]
    # single-file lint of the kernel alone cannot see the dispatch
    assert lint_paths([str(pkg / "kern.py")]) == []


# -- REPRO011: package layering -------------------------------------------

def test_repro011_lazy_import_against_the_direction_is_flagged():
    vs = _lint("""
        def _consume_poison(self):
            from ..resilience.faults import FaultInjector
            return FaultInjector(0)
    """, rel="repro/runtime/cuda.py")
    assert [v.rule for v in vs] == ["REPRO011"]
    assert "runtime/ imports repro.resilience.faults" in vs[0].message


def test_repro011_every_import_spelling_counts():
    for src, rel in [
            ("from repro.resilience.retry import ResilientParcelSender",
             "repro/network/parcelport.py"),
            ("import repro.resilience.retry", "repro/simulator/distributed.py"),
            ("from .. import resilience", "repro/core/stepper.py"),
            ("from ...resilience import faults", "repro/core/hydro/solver.py"),
            ("from ..simulator.events import EventQueue",
             "repro/core/mesh.py"),       # peers do not import each other
    ]:
        assert [v.rule for v in _lint(src, rel=rel)] == ["REPRO011"], src


def test_repro011_downward_and_same_package_imports_are_clean():
    assert _lint("""
        from ..core.stepper import evolve
        from ..runtime.faults import InjectedFault
        from ..simulator.events import EventQueue
        from .checkpoint import CheckpointManager
        import numpy as np
    """, rel="repro/resilience/guard.py") == []
    assert _lint("from ...sanitize import racecheck\nfrom ..grid import NF",
                 rel="repro/core/hydro/solver.py") == []
    # top-level modules and files outside the package are out of scope
    assert _lint("from . import analysis, core", rel="repro/__init__.py") == []
    assert _lint("from repro.resilience import evolve",
                 rel="tests/core/test_x.py") == []


def test_repro011_named_exceptions_cannot_grow():
    """There is no exception list: the sanitizers' old way into the
    registry (a function-local counters import) fires in every file."""
    planted = ("def publish():\n"
               "    from ..runtime.counters import default_registry")
    for mod in ("__init__", "state", "racecheck", "schedules"):
        vs = _lint(planted, rel=f"repro/sanitize/{mod}.py")
        assert [v.rule for v in vs] == ["REPRO011"], mod
        assert "sanitize/ imports repro.runtime.counters" in vs[0].message
    vs = _lint("from ..runtime.scheduler import _TLS",
               rel="repro/sanitize/futuregraph.py")
    assert [v.rule for v in vs] == ["REPRO011"]


# -- syntax errors, repo cleanliness, CLI ---------------------------------

def test_syntax_error_is_reported_not_raised():
    vs = _lint("def broken(:\n")
    assert [v.rule for v in vs] == ["REPRO000"]


def test_repo_source_tree_is_clean():
    assert lint_paths([str(SRC)]) == []


def test_cli_exit_codes(tmp_path, capsys):
    assert main(["--rules"]) == 0
    assert set(RULES) <= set(capsys.readouterr().out.split())
    clean = tmp_path / "clean.py"
    clean.write_text("x = 1\n")
    assert main([str(clean)]) == 0
    assert "clean" in capsys.readouterr().out
    dirty = tmp_path / "dirty.py"
    dirty.write_text("registry.increment('/thread/executed')\n")
    assert main([str(dirty)]) == 1
    out = capsys.readouterr().out
    assert "REPRO004" in out and "1 violation" in out


# -- every rule guards live code --------------------------------------------

#: rule -> (file under src/repro, pinned text, replacement): an edit of
#: the live code the rule exists for, which the rule must catch
LIVE_SITES = {
    "REPRO003": ("core/mesh.py", "    mesh.time += dt\n",
                 "    mesh.time = time.time()\n"),
    "REPRO004": ("core/distmesh.py",
                 'self.registry.increment("/distmesh/migrations")',
                 'self.registry.increment("/distmsh/migrations")'),
    "REPRO005": ("runtime/scheduler.py", "        except BaseException:\n",
                 "        except:\n"),
    "REPRO006": ("core/exec.py", "region.push(fn, args, promise)",
                 "self.pool.launch([(fn, args)])"),
    # a route's payload set straight into its channel, beside the wire
    "REPRO007": ("core/distmesh.py",
                 "            transport.send(route.channel, payload, "
                 "generation, route.src,\n"
                 "                           route.dst)\n",
                 "            route.channel.set(payload, generation)\n"),
    "REPRO008": ("core/hydro/riemann.py",
                 "return ws.buf(name, shape) if ws is not None "
                 "else np.empty(shape)", "return np.empty(shape)"),
    "REPRO009": ("resilience/durability.py", "self.manager.reset()",
                 "self.manager._checkpoints.clear()"),
    # the compute_rhs task body's whole shadow-access declaration
    "REPRO010": ("core/hydro/solver.py",
                 "    if _sanitize_state.ACTIVE:\n"
                 "        # shadow-access declarations: this task body reads "
                 "its conserved\n"
                 "        # blocks (and their gravity) and overwrites the "
                 "shared out= buffer\n"
                 "        for blk, acc in zip(U, gravity):\n"
                 "            _racecheck.access(blk, \"r\", owner=\"hydro/U\")\n"
                 "            if acc is not None:\n"
                 "                _racecheck.access(acc, \"r\", "
                 "owner=\"hydro/gravity\")\n"
                 "        _racecheck.access(out, \"w\", "
                 "owner=\"hydro/rhs-out\")\n", ""),
    "REPRO011": ("runtime/cuda.py", "from .faults import TransientActionFault",
                 "from ..resilience.faults import TransientActionFault"),
}


@pytest.fixture(scope="module")
def tree_task_names():
    names = set()
    for f in sorted(SRC.rglob("*.py")):
        names |= _collect_task_names(ast.parse(f.read_text()))
    return names


def test_every_rule_has_a_live_site():
    assert sorted(LIVE_SITES) == sorted(RULES)
    assert "REPRO001" not in RULES and "REPRO002" not in RULES


@pytest.mark.parametrize("rule", sorted(LIVE_SITES))
def test_rule_fires_on_an_edit_of_its_live_site(rule, tree_task_names):
    rel, old, new = LIVE_SITES[rule]
    text = (SRC / "repro" / rel).read_text()
    assert text.count(old) == 1, f"{rule}: live site moved in {rel}"
    rel = f"repro/{rel}"
    assert lint_source(text, rel=rel, task_names=tree_task_names) == []
    edited = lint_source(text.replace(old, new), rel=rel,
                         task_names=tree_task_names)
    assert {v.rule for v in edited} == {rule}
