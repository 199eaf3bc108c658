import ast
import importlib
import pathlib
import pkgutil

import weylgas


def test_every_exported_name_exists():
    # ``from weylgas.X import *`` fails on a name in __all__ that is gone
    for info in pkgutil.iter_modules(weylgas.__path__):
        mod = importlib.import_module(f"weylgas.{info.name}")
        missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
        assert not missing, f"weylgas.{info.name}.__all__ names missing {missing}"


def test_no_module_imports_a_name_it_never_uses():
    # __init__ imports to re-export; every other module imports to use
    for path in sorted(pathlib.Path(weylgas.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(a.asname or a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update(a.asname or a.name for a in node.names)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused = sorted(imported - used)
        assert not unused, f"weylgas.{path.stem} imports {unused} and never uses them"
