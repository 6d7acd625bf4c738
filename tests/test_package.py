"""The package's names: every name in ``multirees.__all__`` is defined, so
a name that leaves the package must leave the list too; every module
uses what it imports, so an import that outlives its last use goes too;
every module uses its own private names, so a helper that outlives its
last caller goes too; and every attribute the package stores is read, so
a field that outlives its last reader goes too."""
import ast
from pathlib import Path

import multirees


def test_every_public_name_resolves():
    missing = [name for name in multirees.__all__ if not hasattr(multirees, name)]
    assert missing == []
    assert len(set(multirees.__all__)) == len(multirees.__all__)


def test_every_module_import_is_used():
    # __init__.py imports names to re-export them
    unused = []
    for path in sorted(Path(multirees.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Import):
                names = [alias.asname or alias.name.partition(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                names = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            unused += ["%s: %s" % (path.name, name) for name in names if name not in used]
    assert unused == []


def test_every_private_name_is_used_in_its_module():
    # a module-level function, class or assigned name with one leading
    # underscore; a use inside its own definition does not count
    unused = []
    for path in sorted(Path(multirees.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [target.id for target in node.targets if isinstance(target, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                continue
            loads = {
                sub.id
                for other in tree.body
                if other is not node
                for sub in ast.walk(other)
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)
            }
            unused += [
                "%s: %s" % (path.name, name)
                for name in names
                if name.startswith("_") and not name.startswith("__") and name not in loads
            ]
    assert unused == []


def test_every_stored_attribute_is_read():
    # each dataclass field and each ``self.x = ...`` of the package must be
    # read as an attribute somewhere in the package, its tests or perfbench
    package = Path(multirees.__file__).parent
    root = package.parent.parent
    trees = {
        path: ast.parse(path.read_text(encoding="utf-8"))
        for folder in (package, root / "tests", root / "perfbench")
        for path in sorted(folder.glob("*.py"))
    }
    read = {
        node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    stored = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(trees[path]):
            if isinstance(node, ast.ClassDef) and any(
                getattr(getattr(d, "func", d), "id", None) == "dataclass" for d in node.decorator_list
            ):
                stored += [
                    (path.name, item.target.id)
                    for item in node.body
                    if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
                ]
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Store)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"
            ):
                stored.append((path.name, node.attr))
    unread = sorted({"%s: %s" % (name, attr) for name, attr in stored if attr not in read})
    assert unread == []
