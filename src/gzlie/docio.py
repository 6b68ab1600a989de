"""External document formats: matrix documents, invariant vectors and
analysis reports.  All scalars travel as exact strings 'a/b+c/d*i'.

An analysis report reads the centralizer ranks of every chain level from
one nested elimination of the top system of the Gaussian-integer image of
x (regularity.chain_centralizer_ranks), certified mod p where the ranks
reach their proven bounds, and takes one integer step down
(AlgebraContext.walk) for the level data of x_(n-1), read with that of x
as partial_kw reads them (invariants._level_data).
The values it prints are checked to fit Python's integer-to-string limit
before any of that work (see analysis_report)."""

from __future__ import annotations

import sys
from itertools import islice

from .scalars import parse_scalar, format_scalar
from .matrices import Mat, zi_matrix, _certified_rank
from .liealg import analyzable_algebra
from .invariants import (InvariantVector, _level_data, level_values,
                         coincidence_of)
from .regularity import (_chain_ranks, _level_gradient_rows,
                         _coefficient_gradients)


class DocumentError(ValueError):
    pass


def _doc_algebra(doc):
    """The context named by the 'algebra' and 'n' fields of a document,
    which must be a JSON object."""
    if not isinstance(doc, dict):
        raise DocumentError("document must be a JSON object")
    kind = doc.get("algebra")
    if kind not in ("so", "gl"):
        raise DocumentError("field 'algebra' must be 'so' or 'gl'")
    try:
        return analyzable_algebra(kind, doc.get("n"))
    except ValueError as exc:
        raise DocumentError("field 'n': %s" % exc)


def _scalar(text, where, *at):
    try:
        return parse_scalar(text)
    except (ValueError, TypeError) as exc:
        raise DocumentError("%s: %s" % (where % at, exc))


def parse_matrix_doc(doc):
    """{'algebra': 'so'|'gl', 'n': int, 'entries': [[scalar-str,..],..]}
    -> (context, matrix).  Raises DocumentError with the offending location."""
    ctx = _doc_algebra(doc)
    n = ctx.n
    entries = doc.get("entries")
    if (not isinstance(entries, list) or len(entries) != n
            or any(not isinstance(r, list) or len(r) != n for r in entries)):
        raise DocumentError("field 'entries' must be an %dx%d array" % (n, n))
    mat = Mat([[_scalar(cell, "entry (%d,%d)", i + 1, j + 1)
                for j, cell in enumerate(row)]
               for i, row in enumerate(entries)])
    bad = ctx.membership_violations(mat)
    if bad:
        raise DocumentError("not an element of %s: %s"
                            % (ctx.describe(), "; ".join(bad[:3])))
    return ctx, mat


def emit_matrix_doc(ctx, mat):
    return {"algebra": ctx.kind, "n": ctx.n,
            "entries": [[format_scalar(v) for v in row] for row in mat.a]}


def emit_invariant_doc(vec):
    return {"algebra": vec.algebra, "n": vec.n, "kind": vec.kind,
            "values": [format_scalar(v) for v in vec.values]}


def parse_invariant_doc(doc):
    """{'algebra': 'so'|'gl', 'n': int, 'kind': 'partial'|'full',
    'values': [scalar-str,..]} -> InvariantVector, with one value per
    generator of levels n-1 and n (partial) or of every level (full)."""
    ctx = _doc_algebra(doc)
    kind = doc.get("kind")
    if kind not in ("partial", "full"):
        raise DocumentError("field 'kind' must be 'partial' or 'full'")
    levels = ctx.levels[:2] if kind == "partial" else ctx.levels
    count = sum(lvl.invariant_rank() for lvl in levels)
    values = doc.get("values")
    if not isinstance(values, list) or len(values) != count:
        raise DocumentError("field 'values' must be an array of %d values"
                            % count)
    return InvariantVector(ctx.kind, ctx.n, kind,
                           [_scalar(v, "value %d", i + 1)
                            for i, v in enumerate(values)])


# Digits, beyond n times the digits of the larger of d and M, that a
# printed value of a report can need (see _check_printable).
VALUE_DIGIT_SLACK = 40


def _check_printable(ctx, image):
    """DocumentError unless every value of the report of x fits the
    integer-to-string limit (sys.get_int_max_str_digits, 0: none).

    With x = X/d, d the common denominator and M the largest integer part
    of X, a generator value of level m <= n is a homogeneous polynomial of
    degree k <= m in the entries over d^k: its numerator is at most
    C(n, k) (2k)^(k/2) M^k (principal minors, Hadamard's bound for
    Gaussian entries) and its denominator at most d^k.  One level down the
    entries are at most 16 M over 2d.  So n times the digits of max(d, M),
    plus VALUE_DIGIT_SLACK for the factors, bounds every printed part."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        return
    re, im, d = image
    big = max([d] + [abs(v) for part in (re, im or []) for row in part
                     for v in row])
    digits = big.bit_length() * 30103 // 100000 + 1
    if ctx.n * digits + VALUE_DIGIT_SLACK > limit:
        raise DocumentError(
            "entries too large to report: over their common denominator an "
            "entry of %s has %d digits, and %d * %d + %d exceeds the limit "
            "of %d digits for printing an integer"
            % (ctx.describe(), digits, ctx.n, digits, VALUE_DIGIT_SLACK,
               limit))


def analysis_report(ctx, mat):
    """Full regularity analysis of one element: one nested elimination of
    the top centralizer system gives, at every chain level, dim z_(g_m)(x_m)
    and whether x_m is nsreg (regularity.chain_centralizer_ranks); sreg is
    nsreg at every level above the floor.

    The chain is walked on Gaussian integers down to x_(n-1): x and x_(n-1)
    give their level data (invariants._level_data), whose coefficients and
    pf(S x_m) give the values and the coincidence count, as in partial_kw
    and coincidence_count, and whose auxiliary matrices and sub-Pfaffian
    memo give the coefficient gradient rows of partial_map_jacobian
    (regularity._coefficient_gradients), whose rank is that of
    kostant_jacobian_rank's power gradient rows; it is certified mod p
    when it reaches the row count (matrices._certified_rank).
    Raises DocumentError, before any of that, when a value of the report
    could exceed the integer-to-string limit (_check_printable)."""
    image = zi_matrix(mat.a)
    _check_printable(ctx, image)
    ranks = _chain_ranks(ctx, image)
    dims = [lvl.dim - grank for lvl, (_, grank) in zip(ctx.levels, ranks)]
    nsreg = [krank == lvl.k_dim() for lvl, (krank, _) in
             zip(ctx.levels[:-1], ranks)]
    coeffs, values, rows = [], [], []
    top, below = islice(ctx.walk(image), 2)
    for lvl, img in (below, top):
        b, aux, minors, pf = _level_data(lvl, img)
        rows += [row for row, _ in _level_gradient_rows(
            ctx, lvl, _coefficient_gradients(lvl, aux, minors))]
        values += level_values(lvl, b, pf)
        coeffs.append(b)
    jrank = _certified_rank(rows, ctx.dim, len(rows))
    return {
        "algebra": ctx.kind,
        "n": ctx.n,
        "coincidence": coincidence_of(ctx, coeffs[1], coeffs[0]),
        "regular": dims[0] == ctx.invariant_rank(ctx.n),
        "nsreg": nsreg[0],
        "sreg": all(nsreg),
        "jacobian_rank": jrank,
        "jacobian_full_rank": (jrank == ctx.invariant_rank(ctx.n)
                               + ctx.invariant_rank(ctx.n - 1)),
        "centralizer_dims": dims[::-1],
        "partial_values": [format_scalar(v) for v in values],
    }


def analysis_text(report):
    lines = ["%s(%d) element analysis" % (report["algebra"], report["n"]),
             "coincidence count : %d" % report["coincidence"],
             "regular           : %s" % report["regular"],
             "n-strongly regular (nsreg) : %s" % report["nsreg"],
             "strongly regular (sreg)    : %s" % report["sreg"],
             "partial-map jacobian rank : %d%s"
             % (report["jacobian_rank"],
                " (full)" if report["jacobian_full_rank"] else ""),
             "centralizer dims by level : %s"
             % report["centralizer_dims"],
             "partial-map values : %s" % report["partial_values"]]
    return "\n".join(lines)
