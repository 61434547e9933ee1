"""Every option has a caller, and every function has a caller.

A defaulted constructor parameter (or defaulted field of a frozen config
dataclass) in ``src/repro`` must be set by some call site in ``src/``,
``examples/`` or ``benchmarks/`` — tests do not count.  One that nobody
sets is a second configuration nobody runs: make it a module constant or
delete it.  The exceptions are listed, each with its reason, in
``ALLOWED``; the table's length is pinned so it cannot grow silently.

The same holds for code, against a narrower set of callers: every
top-level function and class, every non-dunder method and every
``__all__`` name in ``src/repro`` needs a caller in ``src/``,
``examples/`` or ``benchmarks/ledger/`` — a load of the name, an
attribute of that name, or a string equal to it (``getattr``, the
ledger's ``spans.TARGETS``) outside the definition's own body; imports
and ``__all__`` lists do not count.  The microbenchmarks do not count:
code that only an instrument times is not production code.  Neither do
tests, except for the names defined under ``validation/``: the oracles
and analytic solutions there exist for the tests that judge the solver
against them.  The audit is by name, so a dead method that shares its
name with a live one is out of its reach.  Its exceptions are
``CALLERS_ALLOWED``, pinned the same way.
"""

import ast
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]
SRC = REPO / "src" / "repro"
OPTION_ROOTS = (REPO / "src", REPO / "examples", REPO / "benchmarks")
CALLER_ROOTS = (REPO / "src", REPO / "examples", REPO / "benchmarks" / "ledger")
VALIDATION = SRC / "validation"
#: the callers of a name defined under ``VALIDATION``, besides ``CALLER_ROOTS``
ORACLE_ROOTS = (REPO / "tests",)

ALLOWED = {
    # deliberately configurable: the caller is a test, and has to be
    ("DistBlockMesh", "partition"):
        "the partition-independence property test varies it",
    ("HydroOptions", "spin_correction"):
        "False is the ablation reference for the Despres-Labourasse claim",
    ("HydroOptions", "cfl"):
        "validated boundary input; its range tests need both ends",
    ("Octree", "origin"):
        "ROADMAP \"The merger the paper ran\" (AMR gravity) places trees "
        "off-origin",
    ("Octree", "subgrid_n"):
        "ROADMAP \"The merger the paper ran\"; the FMM depth follows it",
    ("AgasRuntime", "executor"):
        "HPX semantic model (actions run as scheduler tasks); one test "
        "drives it",
    # set, but through a spelling the walk cannot see
    ("FaultPlan", "kill_after_steps"):
        "merger_soak --kill-after, via replace(plan, **overrides)",
    ("FaultPlan", "seed"): "merger_soak --seed, via replace(plan, **overrides)",
    # data, not an option
    ("Finding", "timestamp"): "state: default_factory stamps the finding",
    ("GpuSpec", "n_streams"):
        "hardware datum (Sec. 5.1: 128 streams per GPU) every platform shares",
}

CALLERS_ALLOWED = {
    # test oracles: what the tests judge the solver against
    "acquired_before_edges": "sanitizer self-test oracle: the lockdep tests "
                             "read the recorded order graph",
    "held_classes": "sanitizer self-test oracle: the locks this thread holds",
    # ROADMAP "The merger the paper ran": self-gravity on the AMR tree
    # and regridding
    "fmm_levels": "ROADMAP \"The merger the paper ran\": feeds "
                  "FmmSolver.from_levels from an Octree",
    "coarsen": "ROADMAP \"The merger the paper ran\" (b): regridding "
               "derefines with it",
    "refine_by": "ROADMAP \"The merger the paper ran\" (b): "
                 "density-threshold regridding",
    # the sanitizer harness that tests/conftest.py and the CI jobs drive
    "scope": "sanitizer harness: conftest's finding guard captures with it",
    "configure": "sanitizer harness: tests shrink the stall timeout with it",
    "reset_graphs": "sanitizer harness: conftest isolates tests with it",
    "uninstall": "schedule-explorer harness: conftest removes the explorer",
    "run_under_seeds": "schedule-explorer harness: replays a body per seed",
    "locked": "TrackedLock stands in for the threading.Lock that make_lock "
              "returns with the sanitizers off, so it keeps Lock's API",
    # paper tables and claims that DESIGN.md / EXPERIMENTS.md map to code
    "node_level_table": "Table 2 reproduction",
    "fraction_of_peak": "Table 2's fraction-of-peak column",
    "subgrid_table": "Table 4 reproduction",
    "startup_speedup": "Sec. 6.3 claim: libfabric cuts start-up ~10x",
    "parallel_efficiency": "Sec. 6.3 efficiency relative to level 14 on one "
                           "node",
    "scf_single_star": "SCF verification: the one-component case of the "
                       "loop scf_binary runs, whose non-rotating star "
                       "converges to Lane-Emden",
}


def _trees(root):
    for path in sorted(root.rglob("*.py")):
        yield ast.parse(path.read_text(), str(path))


def _is_frozen_dataclass(cls):
    for dec in cls.decorator_list:
        if isinstance(dec, ast.Call) and getattr(dec.func, "id", None) == "dataclass":
            return any(k.arg == "frozen" and getattr(k.value, "value", False)
                       for k in dec.keywords)
    return False


def _is_init_false_field(value):
    return (isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field"
            and any(k.arg == "init" and getattr(k.value, "value", True) is False
                    for k in value.keywords))


def _declared():
    """{class: (positional parameter names, {defaulted option names})}."""
    out = {}
    for tree in _trees(SRC):
        for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
            init = next((n for n in cls.body if isinstance(n, ast.FunctionDef)
                         and n.name == "__init__"), None)
            if init is not None:
                a = init.args
                positional = [p.arg for p in a.posonlyargs + a.args][1:]
                options = set(positional[len(positional) - len(a.defaults):])
                options |= {p.arg for p, d in zip(a.kwonlyargs, a.kw_defaults)
                            if d is not None}
            elif _is_frozen_dataclass(cls):
                fields = [n for n in cls.body if isinstance(n, ast.AnnAssign)
                          and not _is_init_false_field(n.value)]
                positional = [f.target.id for f in fields]
                options = {f.target.id for f in fields if f.value is not None}
            else:
                continue
            prev = out.setdefault(cls.name, (positional, set()))
            prev[1].update(options)
    return out


def _set_somewhere(declared):
    """{(class, param)} set positionally or by keyword by a non-test call
    (``Class(...)``, ``mod.Class(...)``, or ``replace(obj, field=...)`` /
    ``Mesh.retile(src, param=...)``, which forward their keywords to the
    constructor of whatever class they are handed)."""
    used = set()
    for root in OPTION_ROOTS:
        for tree in _trees(root):
            for call in (n for n in ast.walk(tree) if isinstance(n, ast.Call)):
                name = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
                keywords = {k.arg for k in call.keywords}
                if name in ("replace", "retile"):
                    used |= {(cls, k) for cls in declared for k in keywords}
                elif name in declared:
                    positional = declared[name][0][:len(call.args)]
                    used |= {(name, p) for p in keywords | set(positional)}
    return used


@pytest.fixture(scope="module")
def audit():
    declared = _declared()
    return declared, _set_somewhere(declared)


def test_every_option_has_a_caller(audit):
    declared, used = audit
    unset = sorted(f"{cls}.{p}" for cls, (_, options) in declared.items()
                   for p in options
                   if (cls, p) not in used and (cls, p) not in ALLOWED)
    assert not unset, (
        "options no call site in src/, examples/ or benchmarks/ sets "
        f"(make each a constant, delete it, or justify it in ALLOWED): {unset}")


def test_allowed_table_is_exact(audit):
    declared, used = audit
    assert len(ALLOWED) == 10
    assert all(reason for reason in ALLOWED.values())
    stale = sorted(f"{cls}.{p}" for cls, p in ALLOWED
                   if p not in declared.get(cls, ((), ()))[1] or (cls, p) in used)
    assert not stale, f"ALLOWED entries that are gone or now have a caller: {stale}"


# -- every function has a caller ---------------------------------------------

def _is_all(node):
    return (isinstance(node, (ast.Assign, ast.AugAssign))
            and any(getattr(t, "id", None) == "__all__" for t in
                    (node.targets if isinstance(node, ast.Assign)
                     else [node.target])))


def _subjects(root=SRC):
    """Top-level defs and classes, non-dunder methods (``visit_*`` of an
    ``ast.NodeVisitor`` aside) and ``__all__`` names under ``root``."""
    subpackages = {p.name for p in SRC.iterdir() if p.is_dir()}
    names = set()
    for path in sorted(root.rglob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.add(node.name)
            if isinstance(node, ast.ClassDef):
                visitor = any(getattr(b, "attr", getattr(b, "id", None))
                              == "NodeVisitor" for b in node.bases)
                names |= {m.name for m in node.body
                          if isinstance(m, ast.FunctionDef)
                          and not (m.name.startswith("__")
                                   and m.name.endswith("__"))
                          and not (visitor and m.name.startswith("visit_"))}
            if _is_all(node):
                names |= {c.value for c in ast.walk(node.value)
                          if isinstance(c, ast.Constant)
                          and isinstance(c.value, str)
                          and not (path == SRC / "__init__.py"
                                   and c.value in subpackages)}
    return names


def _own_stores(tree):
    """The ``ast.Name`` nodes (by ``id()``) through which a module writes
    into one of its own top-level names outside any def or class
    (``TABLE[i, j] = v``): a module initialising its own table is not a
    caller of it."""
    own = {node.name for node in tree.body
           if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    own |= {t.id for node in tree.body if isinstance(node, ast.Assign)
            for target in node.targets for t in ast.walk(target)
            if isinstance(t, ast.Name)}
    found = set()

    def visit(node):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            return
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            found.update(id(n) for target in targets for n in ast.walk(target)
                         if isinstance(n, ast.Name) and n.id in own)
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(tree)
    return found


def _called(roots):
    """Names loaded, read as an attribute or spelled as a string under
    ``roots``, outside a definition of the same name (so recursion does
    not count) and outside the stores of the module that defines the
    name into it (see :func:`_own_stores`)."""
    seen = set()

    def walk(node, enclosing, skip):
        if _is_all(node):
            return
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            name = None if id(node) in skip else node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            name = node.value
        else:
            name = None
        if name is not None and name not in enclosing:
            seen.add(name)
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            enclosing = enclosing | {node.name}
        for child in ast.iter_child_nodes(node):
            walk(child, enclosing, skip)

    for root in roots:
        for tree in _trees(root):
            walk(tree, frozenset(), _own_stores(tree))
    return seen


@pytest.fixture(scope="module")
def callers():
    oracles = _subjects(VALIDATION) & _called(ORACLE_ROOTS)
    return _subjects(), _called(CALLER_ROOTS) | oracles


def test_every_function_has_a_caller(callers):
    subjects, called = callers
    orphans = sorted(subjects - called - set(CALLERS_ALLOWED))
    assert not orphans, (
        "definitions no code in src/, examples/ or benchmarks/ledger/ "
        "uses (nor, for validation/, a test) "
        f"(delete each, or justify it in CALLERS_ALLOWED): {orphans}")


def test_callers_allowed_table_is_exact(callers):
    subjects, called = callers
    assert len(CALLERS_ALLOWED) == 17
    assert all(reason for reason in CALLERS_ALLOWED.values())
    stale = sorted(n for n in CALLERS_ALLOWED
                   if n not in subjects or n in called)
    assert not stale, (
        f"CALLERS_ALLOWED entries that are gone or now have a caller: {stale}")


# -- the oracles live in validation/ -----------------------------------------

def _oracle_name(name):
    return (name.endswith("_reference") or name.startswith("direct_")
            or name == "apply_boundary")


def test_core_neither_defines_nor_imports_an_oracle():
    """A kernel and the oracle it is judged against live apart, so a
    change to one cannot change the other: ``core/`` defines and imports
    no ``*_reference``, ``direct_*`` or ``apply_boundary``."""
    found = []
    for path in sorted((SRC / "core").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            found += [f"{path.relative_to(SRC)}: {n}" for n in names
                      if _oracle_name(n)]
    assert not found
