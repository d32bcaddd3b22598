"""Every private function, method or class and every module-level constant
of the package is referenced somewhere in the package."""
import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "nlgc").rglob("*.py"))


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
