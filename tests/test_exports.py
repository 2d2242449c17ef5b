import ast
import importlib
import pathlib
import pkgutil
import re

import pytest

import fcic

MODULES = sorted(
    info.name for info in pkgutil.iter_modules(fcic.__path__) if not info.name.startswith("_")
)


@pytest.mark.parametrize("name", MODULES)
def test_every_all_name_exists(name):
    """A deleted public name must leave no stale entry in its module's __all__."""
    module = importlib.import_module(f"fcic.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_reexports_resolve():
    """Every name fcic/__init__.py imports exists on its module and is the
    object the package exposes."""
    tree = ast.parse(pathlib.Path(fcic.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"fcic.{node.module}")
        for alias in node.names:
            assert hasattr(module, alias.name), f"fcic.{node.module}.{alias.name}"
            assert getattr(fcic, alias.asname or alias.name) is getattr(module, alias.name)


@pytest.mark.parametrize("name", MODULES)
def test_public_names_are_defined_where_listed(name):
    """A class or function in a module's __all__ is that module's own, so a
    moved name cannot linger as a re-export from its old module."""
    module = importlib.import_module(f"fcic.{name}")
    public = [getattr(module, n) for n in module.__all__]
    assert [obj.__qualname__ for obj in public
            if callable(obj) and obj.__module__ != module.__name__] == []


def test_readme_python_blocks_run():
    """Every ```python block of README.md runs, in order, in one namespace,
    so the documented API cannot drift from the package."""
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, flags=re.M | re.S)
    assert len(blocks) >= 2
    namespace = {}
    for n, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {n}", "exec"), namespace)


def test_package_exposes_its_api_and_version():
    """The names `import fcic` gives, beyond its submodules, and a version
    that is the one pyproject.toml declares."""
    pyproject = (pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    assert fcic.__version__ == re.search(r'^version = "(.+)"$', pyproject, flags=re.M)[1]
    names = {n for n, v in vars(fcic).items()
             if not n.startswith("_") and not isinstance(v, type(fcic))}
    assert names == {
        "DetParams", "Scheme", "Transcript", "apply_channel", "run_feedback_session",
        "EffectiveChannelStats", "MCConfig", "NestedLattice1D", "make_lattice", "mod_lattice",
        "simulate_strong_two_block", "sum_decode_check", "zero_forcing_signal_coef",
        "SingularSystem", "is_prime",
        "GapFact", "GaussParams", "RegimeMismatch", "SecrecyBound", "alpha_one_upper",
        "det_converse", "gap_grid", "gap_report", "gauss_achievable", "gdof_fb", "gdof_nofb",
        "gdof_slope_estimate", "secrecy_bound",
        "AlignmentSolution", "NoSolution", "VerifyReport", "build_scheme", "moderate_scheme",
        "qsym_solve", "select_prime", "verify_scheme",
    }
