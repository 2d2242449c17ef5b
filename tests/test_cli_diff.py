"""The parent-versus-change CLI comparison in tools/ (stdlib only, not part
of the package)."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "cli_diff.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("cli_diff", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_repo_matches_itself(capsys):
    """Two cases, one with a sign file, run on this tree against itself:
    exit 0 and no output."""
    tool = load_tool()
    assert tool.main([str(ROOT), str(ROOT), "--case", "gdof", "--case", "qsym-p5"]) == 0
    assert capsys.readouterr() == ("", "")


def test_a_changed_stdout_is_reported(capsys, tmp_path):
    """A tree whose `python -m fcic` prints something else differs in
    stdout alone: exit 1, naming the case and the field."""
    fake = tmp_path / "src" / "fcic"
    fake.mkdir(parents=True)
    (fake / "__init__.py").write_text("")
    (fake / "__main__.py").write_text("print('alpha,d_fb,d_nofb')\n")
    tool = load_tool()
    assert tool.main([str(ROOT), str(tmp_path), "--case", "gdof"]) == 1
    out = capsys.readouterr().out
    assert out.startswith("gdof: stdout differs\n")
    assert "differs" not in out.split("\n", 1)[1]
