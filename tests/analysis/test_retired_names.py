"""Retired names stay retired: no second spelling of a deleted launch
path, stream lease, option, module, profiling CLI, timer, runtime
feature, migration callback, mesh storage, FMM pair-list engine,
checkpoint record list or recovery policy comes back.

``retired_names.txt`` holds one regular expression per line; every line
of every ``*.py`` file under ``src``, ``examples``, ``benchmarks`` and
``tests`` is searched for any of them.  Retire a name by adding a line.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
PATTERNS = [line for line in (Path(__file__).with_name("retired_names.txt")
                              .read_text(encoding="utf-8").splitlines())
            if line]
TREES = ("src", "examples", "benchmarks", "tests")


def scan(root: Path) -> list[str]:
    """``path:line: text`` of every line under ``root``'s trees that
    spells a retired name."""
    retired = re.compile("|".join(PATTERNS))
    return [f"{path}:{n}: {line.strip()}"
            for tree in TREES for path in sorted((root / tree).rglob("*.py"))
            for n, line in enumerate(
                path.read_text(encoding="utf-8").splitlines(), 1)
            if retired.search(line)]


def test_no_retired_name_comes_back():
    assert scan(ROOT) == []


def test_a_planted_retired_name_is_caught(tmp_path):
    # a plain-word pattern, so this file never spells a retired name
    name = next(p for p in PATTERNS if re.escape(p) == p)
    planted = tmp_path / "examples" / "planted.py"
    planted.parent.mkdir()
    planted.write_text(f"x = 1\ny = {name}()\n")
    assert scan(tmp_path) == [f"{planted}:2: y = {name}()"]
