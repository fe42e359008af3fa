"""The package holds at most ``LIMIT`` public defaulted parameters and fields.

Every default is a setting that a reader has to know and a test has to
reach.  Stdlib only (``inspect``), like ``test_unused_imports.py``.  Counted:
each parameter with a default of a public function, public method or
non-dataclass ``__init__`` defined in a module of the package, and each
dataclass field with a default or a default factory.

Raise ``LIMIT`` only in a change that adds a capability, and say so in
CHANGES.md; a change that removes a default lowers it.
"""

import dataclasses
import importlib
import inspect
import pkgutil
import types

import weylgas

LIMIT = 33

MODULES = [importlib.import_module(f"weylgas.{info.name}")
           for info in pkgutil.iter_modules(weylgas.__path__)]


def _defaulted_params(fn, where: str) -> list[str]:
    return [f"{where}({p.name})" for p in inspect.signature(fn).parameters.values()
            if p.default is not p.empty]


def _defaulted_options(module) -> list[str]:
    found = []
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue  # private, or imported from elsewhere
        where = f"{module.__name__}.{name}"
        if inspect.isfunction(obj):
            found += _defaulted_params(obj, where)
        elif inspect.isclass(obj):
            is_dc = dataclasses.is_dataclass(obj)
            if is_dc:
                found += [f"{where}.{f.name}" for f in dataclasses.fields(obj)
                          if f.default is not dataclasses.MISSING
                          or f.default_factory is not dataclasses.MISSING]
            for attr, member in vars(obj).items():
                counted = not attr.startswith("_") or (attr == "__init__" and not is_dc)
                if counted and inspect.isfunction(member):
                    found += _defaulted_params(member, f"{where}.{attr}")
    return found


SAMPLE = '''
import dataclasses
from json import dumps

@dataclasses.dataclass
class Spec:
    a: int
    b: int = 1
    c: list = dataclasses.field(default_factory=list)

    def scaled(self, f=2.0):
        return self.a * f

    def _hidden(self, g=1):
        return g

class Box:
    def __init__(self, n, m=3):
        self.n = n

def run(x, y=0, *, z=None):
    return x

def _private(q=1):
    return q
'''


def test_guard_counts_defaults_of_functions_methods_and_fields():
    module = types.ModuleType("sample")
    exec(SAMPLE, module.__dict__)
    assert _defaulted_options(module) == [
        "sample.Spec.b", "sample.Spec.c", "sample.Spec.scaled(f)",
        "sample.Box.__init__(m)", "sample.run(y)", "sample.run(z)"]


def test_public_defaults_stay_within_the_limit():
    found = [opt for module in MODULES for opt in _defaulted_options(module)]
    assert len(found) <= LIMIT, "\n".join(found)
