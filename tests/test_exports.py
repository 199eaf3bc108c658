import ast
import importlib
import pathlib
import pkgutil

import pytest

import weylgas
from weylgas import algebra, berezin, gibbsmc, spectrum, states, testfn
from weylgas.errors import DomainViolation, InvalidSpec


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


_HUGE = 10 ** 400
_BOX = spectrum.BoxSpectrum(L=1.0, nu=3, cutoff=8)


@pytest.mark.parametrize("call, error", [
    (lambda: gibbsmc.GaussianMeasureSpec(eigenvalues=(_HUGE,), beta=1.0), InvalidSpec),
    (lambda: gibbsmc.GaussianMeasureSpec(eigenvalues=(1.0,), beta=_HUGE), InvalidSpec),
    (lambda: states.StateSpec(kind="ClassicalInfVol", beta=_HUGE, mu=-1.0), InvalidSpec),
    (lambda: states.StateSpec(kind="ClassicalInfVol", beta=1.0, mu=-_HUGE), InvalidSpec),
    (lambda: testfn.gaussian(_HUGE, (0.0, 0.0, 0.0), 1.0), DomainViolation),
    (lambda: testfn.gaussian(1.0, (_HUGE, 0.0, 0.0), 1.0), DomainViolation),
    (lambda: berezin.WavePacket(1.0, (_HUGE,), (1.0,), (0.0,)), DomainViolation),
    (lambda: algebra.weyl((_HUGE,)), DomainViolation),
    (lambda: algebra.weyl((1.0,), hbar=_HUGE), DomainViolation),
    (lambda: spectrum.trace_h_power(_HUGE, _BOX), DomainViolation),
    (lambda: states.critical_density(_HUGE, 1.0), DomainViolation),
], ids=["gibbs-eigenvalue", "gibbs-beta", "state-beta", "state-mu", "gaussian-amp",
        "gaussian-centre", "packet-centre", "weyl-label", "weyl-hbar", "trace-exponent",
        "critical-density-beta"])
def test_an_integer_beyond_the_float_range_raises_a_validation_error(call, error):
    # the same error the site raises for a non-finite float, not a bare OverflowError
    with pytest.raises(error):
        call()
