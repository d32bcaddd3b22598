"""Every private function, method or class and every module-level constant
of the package is referenced somewhere in the package, and every defaulted
parameter of the package is passed by some caller in the package, the
benchmarks or the demos."""
import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "nlgc").rglob("*.py"))
CALLERS = PACKAGE + [p for d in ("benchmarks", "demos") for p in sorted((ROOT / d).glob("*.py"))]


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def definitions(tree: ast.Module) -> list[str]:
    """_-prefixed functions, methods and classes at module or class level, and
    upper-case names assigned at module level; dunders are exempt."""
    out = []
    scopes = [tree.body] + [node.body for node in tree.body if isinstance(node, ast.ClassDef)]
    for body in scopes:
        for node in body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and node.name.startswith("_") and not _is_dunder(node.name)):
                out.append(node.name)
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else (
            [node.target] if isinstance(node, ast.AnnAssign) else [])
        out += [t.id for t in targets
                if isinstance(t, ast.Name) and t.id.isupper() and not _is_dunder(t.id)]
    return out


def references(tree: ast.Module) -> set[str]:
    """Names a module reads, the attributes it reads and the names it imports."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


def unreferenced(sources: dict[str, str]) -> list[str]:
    """module:name for every definition that no module of sources references."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    used = set().union(*(references(tree) for tree in trees.values()))
    return sorted(f"{module}:{name}" for module, tree in trees.items()
                  for name in definitions(tree) if name not in used)


def test_the_scan_finds_unreferenced_definitions():
    sources = {
        "a": "LIMIT = 3\nUSED = 4\n_DONE = 5\n\n"
             "def _helper():\n    return USED\n\n"
             "def _called():\n    pass\n\n"
             "class _Box:\n    def _peek(self):\n        pass\n\n"
             "    def _open(self):\n        self._shut()\n\n"
             "    def _shut(self):\n        pass\n\n"
             "    def __len__(self):\n        return 0\n",
        "b": "from a import _called\n_called()\n",
    }
    assert unreferenced(sources) == ["a:LIMIT", "a:_Box", "a:_DONE", "a:_helper",
                                     "a:_open", "a:_peek"]


def test_every_private_name_and_constant_is_referenced():
    sources = {str(p.relative_to(ROOT)): p.read_text(encoding="utf-8") for p in PACKAGE}
    assert unreferenced(sources) == []


def defaulted(tree: ast.Module) -> list[tuple[str, int | None, str]]:
    """(name a call uses, position in that call or None, parameter) of every
    defaulted parameter of a function or method; a class's __init__ goes by
    the class name, and a method's positions skip self or cls."""
    out = []

    def visit(body, cls):
        for node in body:
            if isinstance(node, ast.ClassDef):
                visit(node.body, node.name)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in node.decorator_list)
                skip = 1 if cls and not static else 0
                name = cls if cls and node.name == "__init__" else node.name
                a = node.args
                params = a.posonlyargs + a.args
                first = len(params) - len(a.defaults)
                out.extend((name, i - skip, params[i].arg) for i in range(first, len(params)))
                out.extend((name, None, p.arg) for p, d in zip(a.kwonlyargs, a.kw_defaults)
                           if d is not None)
                visit(node.body, None)
    visit(tree.body, None)
    return out


def passes(call: ast.Call, position: int | None, param: str) -> bool:
    """Whether a call passes the parameter: by keyword, by **mapping, by
    position, or by a *sequence at or before its position."""
    if any(k.arg in (param, None) for k in call.keywords):
        return True
    return position is not None and any(
        i == position or (i <= position and isinstance(arg, ast.Starred))
        for i, arg in enumerate(call.args))


def unpassed(definitions: dict[str, str], callers: dict[str, str]) -> list[str]:
    """name(parameter) for every defaulted parameter of definitions that no
    call of that name in callers passes."""
    calls = {}
    for text in callers.values():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    return sorted({f"{name}({param})" for text in definitions.values()
                   for name, position, param in defaulted(ast.parse(text))
                   if not any(passes(c, position, param) for c in calls.get(name, []))})


def test_the_option_scan_finds_parameters_no_caller_passes():
    definitions = {
        "a": "def f(x, y=1, z=2, *, k=3, m=4):\n    pass\n\n"
             "def g(x, y=1):\n    pass\n\n"
             "def h(x=1, y=2):\n    pass\n\n"
             "class Box:\n    def __init__(self, size=1, kind=None):\n        pass\n\n"
             "    def fill(self, amount=0, how=None):\n        pass\n\n"
             "    @staticmethod\n    def make(size=1):\n        pass\n",
    }
    callers = {
        "b": "f(0, 5, k=1)\ng(0)\nh(*pair)\nBox(2)\nbox.fill(**opts)\nBox.make(3)\n",
    }
    assert unpassed(definitions, callers) == ["Box(kind)", "f(m)", "f(z)", "g(y)"]


def test_every_defaulted_parameter_is_passed_by_some_caller():
    definitions = {str(p.relative_to(ROOT)): p.read_text(encoding="utf-8") for p in PACKAGE}
    callers = {str(p.relative_to(ROOT)): p.read_text(encoding="utf-8") for p in CALLERS}
    assert unpassed(definitions, callers) == []
