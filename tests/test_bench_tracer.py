"""The bench's per-layer tracer must find every function it wraps.

perfbench/tracer.py names the traced functions and methods by module and
qualified name and reads each one with vars(owner)[attr], so renaming or
deleting one of them breaks only ``perfbench/run.py --trace 1``.  This test
installs the tracer on every gzlie module and removes it again.
"""

import importlib
import importlib.util
import os
import pkgutil

import gzlie

TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                      "tracer.py")


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_tracer_installs_on_every_traced_function():
    tracer_mod = _load_tracer()
    for info in pkgutil.iter_modules(gzlie.__path__):
        importlib.import_module("gzlie." + info.name)
    modules = tracer_mod.gzlie_modules()
    before = {name: dict(vars(m)) for name, m in modules.items()}
    tracer = tracer_mod.Tracer(modules)
    # a traced name that is gone raises AttributeError or KeyError here
    tracer.install()
    tracer.uninstall()
    for name, m in modules.items():
        now = vars(m)
        assert all(now[k] is v for k, v in before[name].items()), name
