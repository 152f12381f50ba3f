"""No dead library code: every module-level function and class of
``src/dgframes`` is read by the library or is a root.

The roots are the console script of ``pyproject.toml``, the names of
``dgframes.__all__``, and every name that a Python file under ``benchmark/``
names: an identifier, an attribute, an imported name, or a dotted name
written as a string, as the benchmark tracer writes its targets.  A
definition is read when a module-level statement, or a function or class
that is itself a root or read, loads its name.  Each name is resolved in
the module that loads it, through that module's own definitions and its
``from .module import name`` lines.  Methods are not judged.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "dgframes"
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _package_sources():
    return {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}


def _benchmark_names():
    names = set()
    for path in sorted((ROOT / "benchmark").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.update(node.name.split("."))
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                if re.fullmatch(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*", node.value):
                    names.update(node.value.split("."))
    return names


def _console_scripts():
    """(module, function) of each ``[project.scripts]`` entry of pyproject.toml."""
    section = re.search(r"^\[project\.scripts\]\n(.*?)(?:^\[|\Z)", (ROOT / "pyproject.toml").read_text(), re.M | re.S)
    return [tuple(target.split(":")) for target in re.findall(r'=\s*"dgframes\.(\w+:\w+)"', section.group(1))]


def _unread(sources):
    """The (module, name) of each module-level function or class of the
    package ``sources`` ({module: text}) that no root reaches."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    defs = {(module, node.name): node for module, tree in trees.items() for node in tree.body if isinstance(node, DEFINITIONS)}
    imports = {module: {} for module in trees}
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                for alias in node.names:
                    imports[module][alias.asname or alias.name] = (node.module, alias.name)

    def resolve(module, name):
        while (module, name) not in defs:
            if name not in imports.get(module, {}):
                return None
            module, name = imports[module][name]
        return module, name

    def reads(module, nodes):
        loads = {n.id for node in nodes for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        return [key for key in (resolve(module, name) for name in loads) if key is not None]

    named = _benchmark_names()
    todo = [key for key in defs if key[1] in named]
    todo += [resolve(*script) for script in _console_scripts()]
    init = trees["__init__"]
    exported = next(node.value for node in init.body if isinstance(node, ast.Assign) and node.targets[0].id == "__all__")
    todo += [resolve("__init__", name) for name in ast.literal_eval(exported)]
    for module, tree in trees.items():
        todo += reads(module, [node for node in tree.body if not isinstance(node, DEFINITIONS)])
    reached = set()
    while todo:
        key = todo.pop()
        if key not in reached:
            reached.add(key)
            todo += reads(key[0], [defs[key]])
    return sorted(set(defs) - reached)


def test_every_module_level_definition_is_read_or_a_root():
    assert _unread(_package_sources()) == []


def test_the_guard_finds_definitions_left_without_a_reader():
    """A function with no caller fails the guard, as does a helper that only
    such a function reads, and so does a class nothing names."""
    sources = _package_sources()
    sources["frames"] += (
        "\n\ndef solve_retraction(iota):\n    return _checked(iota)\n"
        "\n\ndef _checked(iota):\n    return _retraction_system(iota)\n"
        "\n\nclass Unused:\n    pass\n"
    )
    assert _unread(sources) == [("frames", "Unused"), ("frames", "_checked"), ("frames", "solve_retraction")]
