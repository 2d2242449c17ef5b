"""The code-line counter in tools/ (stdlib only, not part of the package)."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import fcic

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_counts_only_code(tmp_path):
    """Docstrings (module, class, function), comments and blank lines are
    left out; a string that is not a docstring and each line of a
    multi-line statement are code."""
    source = tmp_path / "sample.py"
    source.write_text(
        '"""Module\n'
        'docstring."""\n'
        "\n"
        "# a comment\n"
        "class A:\n"
        '    """Class docstring."""\n'
        "\n"
        "    def f(self):  # a trailing comment\n"
        '        """Function\n'
        '        docstring."""\n'
        '        text = """not a\n'
        '        docstring"""\n'
        "        return (text,\n"
        "                1)\n"
    )
    assert load_tool().code_lines(source) == 6


def test_code_lines_covers_every_package_module(capsys):
    """With no argument the tool counts every module of `fcic`, one row
    each, and a total that is their sum."""
    tool = load_tool()
    assert tool.main([]) == 0
    *rows, total = capsys.readouterr().out.splitlines()
    counts = {Path(path).resolve(): int(n) for n, path in map(str.split, rows)}
    package = Path(fcic.__file__).resolve().parent
    assert set(counts) == set(package.glob("*.py"))
    assert all(0 < n <= len(path.read_text().splitlines()) for path, n in counts.items())
    assert total == f"{sum(counts.values())} total"


def test_a_closed_stdout_stops_the_tool_quietly():
    """Into a pipe whose reader has already closed, as under `| head -1`,
    the tool exits 1 with nothing on stderr, not a BrokenPipeError
    traceback."""
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run([sys.executable, str(TOOL)], stdout=write,
                              stderr=subprocess.PIPE, timeout=60)
    finally:
        os.close(write)
    assert (done.returncode, done.stderr) == (1, b"")
