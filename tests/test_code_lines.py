"""Tests of tools/code_lines.py, the per-module code-line count."""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
TOOL = [sys.executable, str(ROOT / "tools" / "code_lines.py")]

SOURCE = '''"""Module docstring,
over two lines."""

import math  # a comment on a code line

# a comment line


class A:
    """Class docstring."""

    x = """a string that is no docstring,
over two lines"""

    def f(self):
        """Function docstring."""
        return (1 +
                2)


async def g():
    \'\'\'Async docstring.\'\'\'
    "a second string statement"
'''


def fake_tree(root, modules):
    package = root / "src" / "dhtplan"
    package.mkdir(parents=True)
    for name, text in modules.items():
        (package / (name + ".py")).write_text(text)
    return root


def run(*trees):
    done = subprocess.run(TOOL + [str(t) for t in trees], capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0, done.stderr
    return [line.split() for line in done.stdout.splitlines()]


def test_counts_code_lines_only(tmp_path):
    # import, class, x's two lines, def, return's two lines, async def and
    # the second string: no docstring, comment line or blank line
    tree = fake_tree(tmp_path, {"m": SOURCE, "empty": ""})
    assert run(tree) == [["empty", "0"], ["m", "9"], ["total", "9"]]


def test_base_and_head_side_by_side(tmp_path):
    base = fake_tree(tmp_path / "base", {"m": SOURCE, "gone": "x = 1\n"})
    head = fake_tree(tmp_path / "head", {"m": SOURCE + "y = 2\n", "new": "z = 3\nw = 4\n"})
    assert run(base, head) == [["module", "base", "head", "change"],
                               ["gone", "1", "0", "-1"],
                               ["m", "9", "10", "+1"],
                               ["new", "0", "2", "+2"],
                               ["total", "10", "12", "+2"]]


def test_this_tree_against_itself():
    rows = run(ROOT, ROOT)
    modules = {path.stem for path in (ROOT / "src" / "dhtplan").glob("*.py")}
    assert {row[0] for row in rows[1:-1]} == modules
    assert all(row[3] == "+0" for row in rows[1:])
    assert int(rows[-1][1]) == sum(int(row[1]) for row in rows[1:-1]) > 0


def test_a_tree_without_the_package_exits_one(tmp_path):
    done = subprocess.run(TOOL + [str(tmp_path)], capture_output=True, text=True, timeout=60)
    assert done.returncode == 1 and "has no src/dhtplan" in done.stderr
