"""The package's names: every name in ``multirees.__all__`` is defined, so
a name that leaves the package must leave the list too; every module
uses what it imports, so an import that outlives its last use goes too;
and every module uses its own private names, so a helper that outlives
its last caller goes too."""
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
