"""The bench's per-layer tracer must find every function it wraps.

perfbench/tracer.py names the traced functions and methods by module and
qualified name and reads each one with vars(owner)[attr], so renaming or
deleting one of them breaks only ``perfbench/run.py --trace 1``.  The first
test installs the tracer on every gzlie module and removes it again; the
second runs the traced Jacobian and analysis paths, whose elimination entry
points the tracer reads entry by entry (``ELIM_SIZES``), and the
generator-value readers, the coincidence count and the samplers, none of
which runs Faddeev-LeVerrier (matrices.char_poly_fl).
"""

import importlib
import importlib.util
import os
import pkgutil

import gzlie
from gzlie import docio, invariants, korbits, liealg, rand, regularity

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


def test_traced_jacobian_and_analysis_paths_run():
    # a Gaussian-integer row handed to a wrapped Q(i) entry point (rank,
    # rank_rows, nullspace) would raise in the tracer's size reader
    tracer_mod = _load_tracer()
    tracer = tracer_mod.Tracer(tracer_mod.gzlie_modules())
    tracer.install()
    try:
        for kind, n in [("gl", 4), ("so", 6)]:
            ctx = liealg.make_algebra(kind, n)
            s = rand.Sampler("tracer/%s%d" % (kind, n))
            x = s.algebra_element(ctx)
            regularity.is_nsreg(ctx, x)
            regularity.kostant_jacobian_rank(ctx, x)
            regularity.full_map_jacobian_rank(ctx, x)
            docio.analysis_report(ctx, x)
            invariants.partial_kw(ctx, x)
            invariants.full_kw(ctx, x)
            invariants.coincidence_count(ctx, x)
            # each sampler accepts its first draw of this stream
            korbits.sample_g0(ctx, s)
            korbits.sample_chain_disjoint(ctx, s)
    finally:
        tracer.uninstall()
    # every chain reader, the coincidence count and sample_g0 (which reads
    # it) included, reads the level's powers (invariants._level_powers):
    # Faddeev-LeVerrier is left to char_poly and det, which no chain reader
    # calls
    assert tracer.calls["matrices.char_poly"] == 0
