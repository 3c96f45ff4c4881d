"""Static checks on the package source, standing in for a linter: every
module-level import is used, every name in `__all__` is defined, every
function, method and class is named somewhere, nothing imports scipy, and
the README's config key table lists the keys of the config schema."""

import ast
import pathlib
import re

import pytest

from isingdec import cli

ROOT = pathlib.Path(__file__).parents[1]
SOURCES = sorted((ROOT / "src" / "isingdec").glob("*.py"))
# where a definition may be used: the package, its tests and the benchmark
CORPUS = SOURCES + sorted((ROOT / "tests").glob("*.py")) + sorted(
    (ROOT / "perfbench").glob("*.py"))


def parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def exported(tree) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return list(ast.literal_eval(node.value))
    return []


def imported(tree) -> dict[str, int]:
    """Name bound by each module-level import -> its line."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def defined(tree) -> set[str]:
    names = set(imported(tree))
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {n.id for t in targets for n in ast.walk(t)
                      if isinstance(n, ast.Name)}
    return names


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_module_level_imports_are_used(path):
    tree = parse(path)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used |= set(exported(tree))  # a re-export counts as a use
    unused = [f"{name} (line {line})" for name, line in imported(tree).items()
              if name not in used]
    assert not unused, f"{path.name}: unused imports: {', '.join(unused)}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_all_names_are_defined(path):
    tree = parse(path)
    missing = [name for name in exported(tree) if name not in defined(tree)]
    assert not missing, f"{path.name}: __all__ names not defined: {missing}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_scipy_import(path):
    # scipy is a test dependency only: importing it, even inside a function,
    # puts its start-up cost on a CLI run
    found = []
    for node in ast.walk(parse(path)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        found += [f"{m} (line {node.lineno})" for m in modules
                  if m.split(".")[0] == "scipy"]
    assert not found, f"{path.name} imports scipy: {', '.join(found)}"


def test_every_definition_is_named_elsewhere():
    # a function, method or class whose name appears, as a whole word, on
    # no line but its own definitions is dead code
    lines = {}
    for path in CORPUS:
        for no, line in enumerate(path.read_text().splitlines(), start=1):
            for word in set(re.findall(r"\w+", line)):
                lines.setdefault(word, set()).add((path, no))
    definitions = {}
    for path in SOURCES:
        for node in ast.walk(parse(path)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) \
                    and not (node.name.startswith("__") and node.name.endswith("__")):
                definitions.setdefault(node.name, set()).add((path, node.lineno))
    dead = sorted(name for name, own in definitions.items()
                  if not lines.get(name, set()) - own)
    assert not dead, f"defined but never named elsewhere: {', '.join(dead)}"


def test_readme_key_table_matches_the_config_schema():
    # a key cannot be added or dropped without its row in the README table
    text = (ROOT / "README.md").read_text()
    table = re.search(r"^\| Key \|.*\n((?:\|.*\n)*)", text, flags=re.MULTILINE)
    documented = re.findall(r"^\| `(\w+)\.(\w+)` \|", table.group(1),
                            flags=re.MULTILINE)
    assert len(documented) == len(set(documented)), "a key is listed twice"
    assert set(documented) == set(cli._SCHEMA)
