"""Per-layer tracing of gzlie from outside the package.

The tracer replaces public functions and methods of the gzlie modules with
wrappers.  The modules import each other's functions by name, so a wrapper is
installed on every module attribute that is bound to the original function,
not only where it is defined.

Two kinds of wrapper:

* a span records wall time.  A layer's self time is the total duration of
  its spans minus the part covered by their child spans (of any layer);
  ``calls`` counts the outermost entries into the layer, i.e. calls made
  while no span of the same layer is open;
* a counter only counts calls (QI ``*`` and ``/``, ``monoid_action``); its
  time stays in the enclosing span's self time.

Elimination entry points also record the system size (rows x cols) and the
largest numerator or denominator bit length of the entries.  That scan is
excluded from every span's self time.
"""

from __future__ import annotations

import sys
import time

# layer -> list of (module, qualified attribute) that open a span of it
SPAN_LAYERS = {
    "matrices.rank": [("matrices", "rank"), ("matrices", "rank_rows"),
                      ("matrices", "row_space_contains"),
                      ("matrices", "intersection_dim")],
    "matrices.nullspace": [("matrices", "nullspace")],
    "matrices.char_poly": [("matrices", "char_poly_fl"),
                           ("matrices", "char_poly")],
    "matrices.pfaffian": [("matrices", "pfaffian")],
    "matrices.matmul": [("matrices", "Mat.__mul__")],
    "matrices.inverse": [("matrices", "inverse"), ("matrices", "det")],
    "polys.gcd": [("polys", "gcd")],
    "liealg.make_algebra": [("liealg", "make_algebra")],
    "liealg.project": [("liealg", "project_to_subalgebra"),
                       ("liealg", "AlgebraContext.down")],
    "liealg.embed": [("liealg", "embed_from_subalgebra"),
                     ("liealg", "AlgebraContext.up")],
    "invariants.partial_kw": [("invariants", "partial_kw")],
    "invariants.coincidence_count": [("invariants", "coincidence_count")],
    "regularity.joint_centralizer": [("regularity", "joint_centralizer")],
    "regularity.jacobian": [("regularity", "partial_map_jacobian"),
                            ("regularity", "_level_gradient_rows")],
    "regularity.is_sreg": [("regularity", "is_sreg"),
                           ("regularity", "chain_centralizers")],
    "korbits.enumerate_orbits": [("korbits", "enumerate_orbits")],
    "korbits.sample_yq": [("korbits", "sample_yq")],
    "rand.sampler": [("rand", "Sampler.%s" % m) for m in (
        "rational", "nonzero_rational", "small_rational", "algebra_element",
        "distinct_square_free", "group_element", "subgroup_element",
        "span_element")],
    "docio.parse_matrix_doc": [("docio", "parse_matrix_doc")],
    "docio.analysis_report": [("docio", "analysis_report")],
}

COUNT_LAYERS = {
    "scalars.mul": [("scalars", "QI.__mul__"), ("scalars", "QI.__rmul__")],
    "scalars.div": [("scalars", "QI.__truediv__")],
    "korbits.monoid_action": [("korbits", "monoid_action")],
}

# elimination primitives whose input size is recorded: attr -> arg reader
ELIM_SIZES = {
    "rank": lambda a: (a[0].a, a[0].n),
    "rank_rows": lambda a: (a[0], a[1]),
    "nullspace": lambda a: (a[0].a, a[0].n),
}


def _max_bits(rows):
    best = 0
    for row in rows:
        for z in row:
            for q in (z.re, z.im):
                b = max(q.numerator.bit_length(), q.denominator.bit_length())
                if b > best:
                    best = b
    return best


class Tracer:
    """Spans and counters over the gzlie modules in ``modules`` (name ->
    module).  ``install`` wraps, ``uninstall`` restores."""

    def __init__(self, modules):
        self.modules = modules
        self.calls = {}
        self.self_s = {}
        self.elim_cells = 0
        self.elim_max_bits = 0
        self._stack = []       # open spans: [layer, child seconds]
        self._open = {}        # layer -> number of open spans
        self._undo = []

    # --- installation ------------------------------------------------------

    def _resolve(self, mod, qual):
        owner = self.modules[mod]
        parts = qual.split(".")
        for p in parts[:-1]:
            owner = getattr(owner, p)
        return owner, parts[-1]

    def _rebind(self, owner, attr, orig, wrapped):
        """Bind ``wrapped`` wherever ``orig`` is bound: on its owner and on
        every gzlie module that imported it by name."""
        targets = [(owner, attr)]
        for m in self.modules.values():
            for name, val in list(vars(m).items()):
                if val is orig and (m, name) != (owner, attr):
                    targets.append((m, name))
        for obj, name in targets:
            self._undo.append((obj, name, orig))
            setattr(obj, name, wrapped)

    def install(self):
        for layer, specs in SPAN_LAYERS.items():
            self.calls[layer] = 0
            self.self_s[layer] = 0.0
            self._open[layer] = 0
            for mod, qual in specs:
                owner, attr = self._resolve(mod, qual)
                orig = vars(owner)[attr]
                self._rebind(owner, attr, orig,
                             self._span(layer, orig, ELIM_SIZES.get(attr)))
        for layer, specs in COUNT_LAYERS.items():
            self.calls[layer] = 0
            for mod, qual in specs:
                owner, attr = self._resolve(mod, qual)
                orig = vars(owner)[attr]
                self._rebind(owner, attr, orig, self._counter(layer, orig))

    def uninstall(self):
        for obj, name, orig in reversed(self._undo):
            setattr(obj, name, orig)
        self._undo = []

    # --- wrappers -----------------------------------------------------------

    def _counter(self, layer, orig):
        calls = self.calls

        def counted(*args, **kw):
            calls[layer] += 1
            return orig(*args, **kw)
        return counted

    def _span(self, layer, orig, sizes):
        stack, opened, calls, self_s = (self._stack, self._open, self.calls,
                                        self.self_s)
        clock = time.perf_counter
        tracer = self

        def spanned(*args, **kw):
            if sizes is not None:
                t = clock()
                rows, ncols = sizes(args)
                tracer.elim_cells += len(rows) * ncols
                bits = _max_bits(rows)
                if bits > tracer.elim_max_bits:
                    tracer.elim_max_bits = bits
                if stack:
                    stack[-1][1] += clock() - t
            if not opened[layer]:
                calls[layer] += 1
            opened[layer] += 1
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return orig(*args, **kw)
            finally:
                dur = clock() - t0
                stack.pop()
                opened[layer] -= 1
                self_s[layer] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
        return spanned

    # --- reading ------------------------------------------------------------

    def snapshot(self):
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "elim_cells": self.elim_cells,
                "elim_max_bits": self.elim_max_bits}


def per_round(setup, end, rounds):
    """Layer totals for one set-up plus one round of the timed phase, from
    snapshots taken after set-up and after ``rounds`` identical rounds.
    Raises if a count is not the same in every round."""
    def split(a, b):
        d = b - a
        if d % rounds:
            raise RuntimeError("a layer count differs between rounds")
        return a + d // rounds

    calls = {k: split(setup["calls"][k], end["calls"][k])
             for k in end["calls"]}
    self_s = {k: setup["self_s"][k]
              + (end["self_s"][k] - setup["self_s"][k]) / rounds
              for k in end["self_s"]}
    return {"calls": calls, "self_s": self_s,
            "elim_cells": split(setup["elim_cells"], end["elim_cells"]),
            "elim_max_bits": end["elim_max_bits"]}


def gzlie_modules():
    return {name.split(".", 1)[1]: mod for name, mod in sys.modules.items()
            if name.startswith("gzlie.")}
