"""The three workloads: how their inputs are drawn and what one item does.

Every workload is a closed loop with one caller: items run back to back.
``setup`` draws all inputs from the seed with the package's public samplers;
``<name>_round`` yields ``(meta, thunk)`` pairs, one per item, and every round
repeats exactly the same operations.  Item thunks look package functions up
on their modules at call time, so the tracer's wrappers are seen.
"""

from __future__ import annotations

import importlib
import random
import sys
from types import SimpleNamespace

MODULES = ("scalars", "matrices", "polys", "liealg", "invariants",
           "regularity", "korbits", "rand", "docio")

# (kind, n, sets): each set draws one element of every family.  Small
# algebras get more sets so that every workload has >= 100 items while the
# large algebras (which dominate the time) still appear in every family.
KOSTANT_ALGEBRAS = [("gl", 3, 8), ("gl", 4, 6), ("gl", 5, 2),
                    ("so", 4, 8), ("so", 5, 6), ("so", 6, 2), ("so", 7, 2)]
_KOSTANT = ("generic", "borel", "nilfibre", "xi", "g0", "coincident")
KOSTANT_FAMILIES = {"gl": _KOSTANT, "so": _KOSTANT}

ANALYZE_ALGEBRAS = [("gl", 3, 4), ("gl", 4, 3), ("gl", 5, 1),
                    ("so", 4, 12), ("so", 5, 4), ("so", 6, 3), ("so", 7, 1)]
# no nilfibre family on gl: "never nsreg" is a claim about so(n), n >= 4
ANALYZE_FAMILIES = {"gl": ("chain", "generic", "g0", "borel"),
                    "so": ("chain", "generic", "nilfibre", "g0", "borel")}

TABLE_SIZES = range(3, 13)
# draws per orbit for the sections of so(n)
SECTION_DRAWS = {5: 4, 6: 5, 7: 5, 8: 4, 9: 3}


def load_gzlie():
    """Import (or re-import) the package modules used here."""
    for name in [m for m in sys.modules
                 if m == "gzlie" or m.startswith("gzlie.")]:
        del sys.modules[name]
    return SimpleNamespace(**{m: importlib.import_module("gzlie." + m)
                              for m in MODULES})


# --- families ------------------------------------------------------------

def borel_basis(g, ctx):
    if ctx.kind == "gl":
        return [b for b, (i, j) in zip(ctx.basis, ctx.basis_positions)
                if i <= j]
    return (list(ctx.cartan_basis)
            + [g.liealg.root_vector(ctx, r) for r in ctx.positive_roots])


def draw(g, ctx, s, family, rep):
    """One element of ``family``; ``rep`` picks the nilfibre component.
    gl has no patterned xi family and draws a second partially coincident
    element in its place, as the kostant suite does."""
    if family == "generic":
        return s.algebra_element(ctx)
    if family == "borel":
        return s.span_element(borel_basis(g, ctx))
    if family == "nilfibre":
        if ctx.kind == "so":
            comps = g.korbits.nilfibre_components(ctx)
            return g.korbits.sample_nilfibre(ctx, s, rep % len(comps))
        return s.span_element([b for b, (i, j) in
                               zip(ctx.basis, ctx.basis_positions) if i < j])
    if family == "xi" and ctx.kind == "so":
        i = s.rnd.randint(0, g.korbits.xi_slot_count(ctx))
        pattern = "".join(s.rnd.choice("UL") for _ in range(i))
        return g.korbits.sample_xi(ctx, i, pattern, s)
    if family == "g0":
        return g.korbits.sample_g0(ctx, s)
    if family == "chain":
        return g.korbits.sample_chain_disjoint(ctx, s)
    # K-conjugate of a partially coincident semisimple element
    vals = [s.nonzero_rational() for _ in range(max(ctx.l // 2, 1))]
    x = g.matrices.Mat.zeros(ctx.n)
    for a in range(ctx.l):
        x = x + vals[a % len(vals)] * ctx.cartan_basis[a]
    return g.liealg.adjoint(s.subgroup_element(ctx), x)


def _draw_items(g, seed, workload, algebras, families):
    """Items of every algebra, in a seeded shuffled order: a slow spell of
    the machine then hits a mix of algebras instead of one of them."""
    items = []
    for kind, n, sets in algebras:
        ctx = g.liealg.make_algebra(kind, n)
        s = g.rand.Sampler("%d/%s/%s%d" % (seed, workload, kind, n))
        for rep in range(sets):
            for family in families[kind]:
                items.append({"ctx": ctx, "family": family,
                              "x": draw(g, ctx, s, family, rep)})
    random.Random("%d/%s/order" % (seed, workload)).shuffle(items)
    return items


# --- kostant -------------------------------------------------------------

def kostant_setup(g, seed):
    return _draw_items(g, seed, "kostant", KOSTANT_ALGEBRAS, KOSTANT_FAMILIES)


def kostant_round(g, items):
    reg = g.regularity
    for it in items:
        yield it, (lambda it=it: (reg.is_nsreg(it["ctx"], it["x"]),
                                  reg.kostant_jacobian_rank(it["ctx"],
                                                            it["x"])))


# --- analyze -------------------------------------------------------------

def analyze_setup(g, seed):
    items = _draw_items(g, seed, "analyze", ANALYZE_ALGEBRAS,
                        ANALYZE_FAMILIES)
    for it in items:
        it["doc"] = g.docio.emit_matrix_doc(it["ctx"], it["x"])
    return items


def analyze_round(g, items):
    docio = g.docio

    def item(doc):
        ctx, mat = docio.parse_matrix_doc(doc)
        return docio.analysis_report(ctx, mat)

    for it in items:
        yield it, (lambda doc=it["doc"]: item(doc))


# --- orbit-sections --------------------------------------------------------

def orbit_setup(g, seed):
    return {"seed": seed,
            "ctx": {n: g.liealg.make_algebra("so", n) for n in TABLE_SIZES}}


def orbit_round(g, plan):
    ko, inv = g.korbits, g.invariants
    tables = {}

    def table(n):
        tables[n] = ko.enumerate_orbits(plan["ctx"][n])
        return tables[n]

    def section(ctx, orbit, s):
        x = ko.sample_yq(ctx, orbit, s)
        return (x, inv.coincidence_count(ctx, x),
                inv.partial_kw(ctx, x).values)

    for n in TABLE_SIZES:
        yield {"kind": "table", "n": n}, (lambda n=n: table(n))
    # sections in a seeded shuffled order; each orbit's sampler still
    # serves its own draws in turn
    slots, samplers = [], {}
    for n, draws in SECTION_DRAWS.items():
        for orbit in tables[n][0]:
            samplers[n, orbit.name] = g.rand.Sampler(
                "%d/sections/so%d/%s" % (plan["seed"], n, orbit.name))
            slots.extend([(n, orbit)] * draws)
    random.Random("%d/sections/order" % plan["seed"]).shuffle(slots)
    done = {}
    for n, orbit in slots:
        ctx, s = plan["ctx"][n], samplers[n, orbit.name]
        d = done[n, orbit.name] = done.get((n, orbit.name), -1) + 1
        meta = {"kind": "section", "n": n, "ctx": ctx, "orbit": orbit.name,
                "codim": orbit.codim, "draw": d}
        yield meta, (lambda c=ctx, o=orbit, s=s: section(c, o, s))


def orbit_summary(meta, out):
    if meta["kind"] == "table":
        orbits, edges = out
        return {"orbits": [(o.name, o.codim, o.closed) for o in orbits],
                "edges": sorted(set(edges))}
    x, cc, values = out
    return {"x": x, "coincidence": cc, "values": values}


def plain_summary(meta, out):
    return out


# name -> (setup, round, summary of one item's output for the checks)
WORKLOADS = {
    "kostant": (kostant_setup, kostant_round, plain_summary),
    "analyze": (analyze_setup, analyze_round, plain_summary),
    "orbit-sections": (orbit_setup, orbit_round, orbit_summary),
}
