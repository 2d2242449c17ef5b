"""The code-line counter in tools/ (stdlib only, not part of the package)."""

import importlib.util
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
