"""The package's public surface."""

import ast
import functools
import importlib
import re
from pathlib import Path

import xmal
from xmal.data import DATASET_VERSION, EMBEDDING_VERSION
from xmal.model import ModelConfig, param_specs
from xmal.trainer import CHECKPOINT_VERSION


def test_every_export_resolves():
    assert [name for name in xmal.__all__ if not hasattr(xmal, name)] == []
    assert len(set(xmal.__all__)) == len(xmal.__all__)


def test_readme_file_format_rows_state_the_current_versions():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    for magic, version in (
        ("XMAL", DATASET_VERSION), ("XEMB", EMBEDDING_VERSION), ("XCKP", CHECKPOINT_VERSION)
    ):
        rows = re.findall(rf"^\| [^|]+ \| `{magic}` \| version (\d+):", readme, re.MULTILINE)
        assert rows == [str(version)], (magic, rows)


def _definitions(tree: ast.Module):
    """The module's top-level functions and classes, and the methods and
    properties of its classes, but not dunder methods, which Python calls."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, kinds):
            yield node
        if isinstance(node, ast.ClassDef):
            yield from (
                member for member in node.body
                if isinstance(member, kinds) and not re.fullmatch(r"__\w+__", member.name)
            )


def _opens_for_writing(call: ast.Call) -> bool:
    """Whether `call` is an `open(...)` or `x.open(...)` whose mode writes,
    appends, creates or updates (`w`, `a`, `x`, `+`); a mode that is not a
    literal counts as writing."""
    func = call.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    if name != "open":
        return False
    modes = [kw.value for kw in call.keywords if kw.arg == "mode"] + call.args[1:2]
    if not modes:
        return False
    mode = modes[0]
    return not isinstance(mode, ast.Constant) or any(c in str(mode.value) for c in "wax+")


def test_only_data_write_file_opens_a_file_for_writing():
    """Every output goes through `data.write_file`, which replaces its target
    whole, so no other code of `src/xmal` opens a file to write it."""
    package = Path(xmal.__file__).resolve().parent
    inside, elsewhere = [], []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        writer = {
            id(node)
            for top in tree.body
            if path.name == "data.py" and getattr(top, "name", None) == "write_file"
            for node in ast.walk(top)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and _opens_for_writing(node):
                (inside if id(node) in writer else elsewhere).append(f"{path.name}:{node.lineno}")
    assert len(inside) == 1 and elsewhere == [], (inside, elsewhere)


def test_every_top_level_definition_is_named_elsewhere_or_exported():
    """A top-level function or class of `src/xmal`, or a method or property
    of one of its classes, that no other line of the package names and
    `xmal.__all__` does not export is dead code."""
    package = Path(xmal.__file__).resolve().parent
    lines = {path: path.read_text(encoding="utf-8").splitlines() for path in package.glob("*.py")}
    dead = []
    for path, source in lines.items():
        for node in _definitions(ast.parse("\n".join(source))):
            if node.name in xmal.__all__:
                continue
            word = re.compile(rf"\b{re.escape(node.name)}\b")
            if not any(
                word.search(line)
                for other, text in lines.items()
                for number, line in enumerate(text, start=1)
                if (other, number) != (path, node.lineno)
            ):
                dead.append(f"{path.name}:{node.lineno} {node.name}")
    assert dead == []


def test_docs_name_only_code_that_exists():
    """Every backticked `module.name` (or `xmal.module.name`) in README.md
    and in the package's docstrings whose first part is a package module
    resolves by attribute lookup; parameter names such as `factors.text`
    are not code."""
    root = Path(__file__).resolve().parents[1]
    package = Path(xmal.__file__).resolve().parent
    modules = {path.stem for path in package.glob("*.py")} - {"__init__"}
    params = set(param_specs(ModelConfig(embed_dim=8, factor_count=2)))
    texts = [(root / "README.md").read_text(encoding="utf-8")]
    kinds = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, kinds) and (doc := ast.get_docstring(node)):
                texts.append(doc)
    names = [
        name
        for text in texts
        for name in re.findall(r"`(?:xmal\.)?([a-z_]\w*(?:\.\w+)+)`", text)
        if name.split(".")[0] in modules and name not in params
    ]
    missing = []
    for name in names:
        module, *attributes = name.split(".")
        try:
            functools.reduce(getattr, attributes, importlib.import_module(f"xmal.{module}"))
        except AttributeError:
            missing.append(name)
    assert len(names) > 30 and missing == []
