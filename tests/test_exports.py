import importlib
import pkgutil

import weylgas


def test_every_exported_name_exists():
    # ``from weylgas.X import *`` fails on a name in __all__ that is gone
    for info in pkgutil.iter_modules(weylgas.__path__):
        mod = importlib.import_module(f"weylgas.{info.name}")
        missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
        assert not missing, f"weylgas.{info.name}.__all__ names missing {missing}"
