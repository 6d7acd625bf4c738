"""The package's names: every name in ``multirees.__all__`` is defined, so
a name that leaves the package must leave the list too, and every module
uses what it imports, so an import that outlives its last use goes too."""
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
