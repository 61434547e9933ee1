"""Every option has a caller.

A defaulted constructor parameter (or defaulted field of a frozen config
dataclass) in ``src/repro`` must be set by some call site in ``src/``,
``examples/`` or ``benchmarks/`` — tests do not count.  One that nobody
sets is a second configuration nobody runs: make it a module constant or
delete it.  The exceptions are listed, each with its reason, in
``ALLOWED``; the table's length is pinned so it cannot grow silently.
"""

import ast
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]
SRC = REPO / "src" / "repro"
CALLER_ROOTS = (REPO / "src", REPO / "examples", REPO / "benchmarks")

ALLOWED = {
    # deliberately configurable: the caller is a test, and has to be
    ("DistBlockMesh", "partition"):
        "the partition-independence property test varies it",
    ("StreamPool", "lease_timeout"):
        "safety mechanism; its reclaim tests need a short value",
    ("GuardedStepper", "max_restores"):
        "safety budget; exhaustion tests need a small value",
    ("GuardedStepper", "max_halvings"):
        "safety budget; exhaustion tests need a small value",
    ("GuardedStepper", "checkpoint_interval"):
        "guard tests roll back one step at a time; production passes "
        "checkpoints=",
    ("HydroOptions", "spin_correction"):
        "False is the ablation reference for the Despres-Labourasse claim",
    ("HydroOptions", "cfl"):
        "validated boundary input; its range tests need both ends",
    ("Octree", "origin"): "ROADMAP item 4 (AMR gravity) places trees off-origin",
    ("Octree", "subgrid_n"): "ROADMAP item 4; the FMM depth follows it",
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
    for root in CALLER_ROOTS:
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
    assert len(ALLOWED) == 14
    assert all(reason for reason in ALLOWED.values())
    stale = sorted(f"{cls}.{p}" for cls, p in ALLOWED
                   if p not in declared.get(cls, ((), ()))[1] or (cls, p) in used)
    assert not stale, f"ALLOWED entries that are gone or now have a caller: {stale}"
