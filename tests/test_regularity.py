import functools
import json
import os

import pytest
from hypothesis import given, settings, strategies as st

from gzlie.scalars import QI, rat, ZERO
from gzlie.matrices import (Mat, rank_rows, rank_zi_rows, nullspace,
                            nested_pivots_zi_rows, zi_matrix, qi_matrix, _qi)
from gzlie.invariants import pfaffian_minors
from gzlie.liealg import (make_algebra, MAX_N, project_to_subalgebra,
                          embed_from_subalgebra)
from gzlie.regularity import (joint_centralizer,
                              nsreg_intersection, is_nsreg,
                              partial_map_jacobian,
                              kostant_jacobian_rank, full_map_jacobian_rank,
                              chain_centralizers, is_sreg,
                              chain_centralizer_ranks,
                              _level_gradient_rows, _pfaffian_gradient,
                              _coefficient_gradients, _gradients_at,
                              _centralizer_system, _chain_data)
from gzlie.korbits import (sample_chain_disjoint, nilfibre_components,
                           sample_nilfibre)
from gzlie.docio import parse_matrix_doc
from gzlie.suites import _mixed_sample
from gzlie.rand import Sampler
from qi_reference import (partial_map_jacobian_jet, echelon,
                          centralizer_system_by_brackets, trace_against,
                          char_poly_fl, form,
                          centralizer_system_qi,
                          level_gradient_rows_by_trace,
                          pfaffian_gradient_by_cofactors, pfaffian,
                          pfaffian_generator, k_system_by_theta_split,
                          nsreg_intersection_by_theta_split,
                          chain_centralizer_ranks_per_level,
                          centralizer_dims, contains, from_ints)

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def diag_cartan(ctx, vals):
    m = Mat.zeros(ctx.n)
    for c, h in zip(vals, ctx.cartan_basis):
        m = m + rat(c) * h
    return m


def is_regular(ctx, x):
    """x is regular when its centralizer in g has the dimension of the
    invariant rank (the "regular" field of docio.analysis_report)."""
    return centralizer_dims(ctx, x)[-1] == ctx.invariant_rank()


def test_gl3_principal_nilpotent_centralizer():
    # N = E12 + E23: centralizer is span{I, N, N^2}, dimension 3 by hand
    ctx = make_algebra("gl", 3)
    n = from_ints([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    z = joint_centralizer(ctx, [n])
    assert len(z) == 3
    assert is_regular(ctx, n)
    assert not is_regular(ctx, Mat.zeros(3))
    assert len(joint_centralizer(ctx, [Mat.zeros(3)])) == 9


def test_gl2_nilpotent_is_nsreg():
    # x = E12; k = gl(1) = span{E11}; [E11, E12] = E12 != 0, so the joint
    # centralizer in k is trivial
    ctx = make_algebra("gl", 2)
    x = from_ints([[0, 1], [0, 0]])
    assert is_regular(ctx, x)
    assert nsreg_intersection(ctx, x) == []
    assert is_nsreg(ctx, x)
    # the zero matrix is never nsreg (for dim k > 0)
    assert not is_nsreg(ctx, Mat.zeros(2))


def test_joint_centralizer_shrinks():
    ctx = make_algebra("gl", 3)
    a = diag_cartan(ctx, [1, 2, 3])
    b = from_ints([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    za = joint_centralizer(ctx, [a])
    zab = joint_centralizer(ctx, [a, b])
    assert len(za) == 3
    assert len(zab) == 1      # only scalars commute with both


def test_jacobian_rank_at_zero():
    # at x = 0 only the two trace rows survive for gl; every so generator
    # is quadratic or higher, so the so jacobian vanishes
    gl = make_algebra("gl", 3)
    assert kostant_jacobian_rank(gl, Mat.zeros(3)) == 2
    so = make_algebra("so", 5)
    assert kostant_jacobian_rank(so, Mat.zeros(5)) == 0


@pytest.mark.parametrize("kind,n", [("gl", 3), ("so", 5), ("so", 6)])
def test_adjugate_gradients_match_jet_reference(kind, n):
    ctx = make_algebra(kind, n)
    s = Sampler(n + 5)
    for _ in range(3):
        x = s.algebra_element(ctx)
        assert partial_map_jacobian(ctx, x) == partial_map_jacobian_jet(
            ctx, x)


@pytest.mark.parametrize("kind,n", [("gl", 3), ("gl", 4), ("so", 4),
                                    ("so", 5), ("so", 6)])
def test_nsreg_iff_full_jacobian_rank(kind, n):
    ctx = make_algebra(kind, n)
    full = ctx.invariant_rank(n) + ctx.invariant_rank(n - 1)
    s = Sampler(n * 7)
    seen_true = seen_false = False
    trials = [s.algebra_element(ctx) for _ in range(8)]
    trials.append(Mat.zeros(n))
    for x in trials:
        nsreg = is_nsreg(ctx, x)
        fullrank = kostant_jacobian_rank(ctx, x) == full
        assert nsreg == fullrank
        seen_true |= nsreg
        seen_false |= not nsreg
    assert seen_true and seen_false


def test_pfaffian_generator_is_needed_for_the_differential():
    # on so(4), replacing the Pfaffian generator by the determinant
    # coefficient c_2 = pf^2 kills the rank wherever pf vanishes while the
    # Pfaffian gradient itself survives
    ctx = make_algebra("so", 4)
    x = ctx.from_coordinates([rat(c) for c in [1, -1, 3, 1, -1, 0]])
    assert pfaffian_generator(ctx, x) == ZERO
    rows = partial_map_jacobian(ctx, x)
    assert rank_rows(rows, ctx.dim) == 3    # full: r_3 + r_4 = 1 + 2
    # same jacobian with the last row built from c_2 instead of pf
    _, aux = char_poly_fl(x)
    det_row = [-trace_against(aux[3], v) for v in ctx.basis]
    assert rank_rows(rows[:-1] + [det_row], ctx.dim) == 2
    assert any(v for v in rows[-1])
    assert not any(det_row)


def test_full_map_rank_bounds():
    ctx = make_algebra("so", 6)
    s = Sampler(31)
    x = s.algebra_element(ctx)
    total = sum(ctx.invariant_rank(m) for m in range(2, 7))
    assert full_map_jacobian_rank(ctx, x) <= total
    assert full_map_jacobian_rank(ctx, x) >= kostant_jacobian_rank(ctx, x)


@pytest.mark.parametrize("kind,n", [("gl", 4), ("so", 5), ("so", 6)])
def test_chain_disjoint_sample_is_sreg(kind, n):
    ctx = make_algebra(kind, n)
    s = Sampler(n)
    x = sample_chain_disjoint(ctx, s)
    zs = chain_centralizers(ctx, x)
    assert is_sreg(ctx, x)
    # strong regularity forces regularity of every projection
    for m in range(ctx.chain_floor(), n + 1):
        assert len(zs[m]) == ctx.invariant_rank(m)
    assert not is_sreg(ctx, Mat.zeros(n))


def test_centralizer_at_level_embeds():
    ctx = make_algebra("so", 6)
    s = Sampler(2)
    x = s.algebra_element(ctx)
    levels = {lvl.n: (lvl, xm) for lvl, xm in ctx.chain(x)}
    for m in (4, 5, 6):
        lvl, xm = levels[m]
        zs = joint_centralizer(lvl, [xm])
        assert all(z.n == m for z in zs)
        assert len(zs) >= ctx.invariant_rank(m)


def _sreg_by_definition(ctx, x):
    """Strong regularity as defined: the embedded centralizers of every two
    consecutive chain levels meet trivially, i.e. their ranks add."""
    zs = chain_centralizers(ctx, x)
    return all(rank_rows(zs[m] + zs[m + 1], ctx.n * ctx.n)
               == len(zs[m]) + len(zs[m + 1])
               for m in range(ctx.chain_floor(), ctx.n))


_algebra = functools.lru_cache(maxsize=None)(make_algebra)


@given(st.sampled_from([("gl", n) for n in range(3, 7)]
                       + [("so", n) for n in range(4, 8)]),
       st.integers(0, 2 ** 32 - 1), st.integers(0, 5))
@settings(max_examples=30, deadline=None)
def test_sreg_is_nsreg_at_every_chain_level(algebra, seed, t):
    # the mixed stream of the kostant suite: generic, Borel, nilpotent,
    # patterned, coincidence-free and partially coincident elements
    ctx = _algebra(*algebra)
    x = _mixed_sample(ctx, Sampler(seed), t)
    assert is_sreg(ctx, x) == _sreg_by_definition(ctx, x)


def test_sreg_identity_on_zero_and_so3_witness():
    for kind, n in [("gl", 3), ("so", 4), ("so", 5)]:
        ctx = make_algebra(kind, n)
        zero = Mat.zeros(n)
        assert not is_sreg(ctx, zero) and not _sreg_by_definition(ctx, zero)
    with open(os.path.join(FIXTURES, "so3_sreg_witness.json")) as fh:
        ctx, x = parse_matrix_doc(json.load(fh))
    assert is_sreg(ctx, x) and _sreg_by_definition(ctx, x)


def _divided(row, scale):
    """A Gaussian-integer row [re, im] divided by its scale, over Q(i)."""
    re, im = row
    return [_qi(x, y, scale) for x, y in zip(re, im or [0] * len(re))]


def _gradient_rows(ctx, lvl, xm):
    # the level's coefficient gradient rows, from the auxiliary matrices
    # built on its powers and its sub-Pfaffian memo as partial_map_jacobian
    # computes them; each row over Q(i), its Gaussian integers divided by
    # its scale
    return [_divided(row, scale) for row, scale in _level_gradient_rows(
        ctx, lvl,
        _gradients_at(_coefficient_gradients, lvl, zi_matrix(xm.a)))]


def _assert_gradients_match_jets(ctx, x):
    for lvl, xm in ctx.chain(x):
        assert (_gradient_rows(ctx, lvl, xm)
                == partial_map_jacobian_jet(ctx, x, [lvl.n]))


@given(st.sampled_from([("gl", n) for n in range(3, 7)]
                       + [("so", n) for n in range(4, 9)]),
       st.integers(0, 2 ** 32 - 1), st.integers(0, 5))
@settings(max_examples=12, deadline=None)
def test_level_gradient_rows_match_jets_at_every_level(algebra, seed, t):
    # every chain level down to the floor (so(2): the 0x0 cofactor), on the
    # mixed stream, which reaches singular Pfaffian points (nilfibre)
    ctx = _algebra(*algebra)
    _assert_gradients_match_jets(ctx, _mixed_sample(ctx, Sampler(seed), t))


def test_level_gradient_rows_match_jets_at_zero_and_so3_witness():
    for kind, n in [("gl", 3), ("so", 4), ("so", 5), ("so", 6)]:
        _assert_gradients_match_jets(make_algebra(kind, n), Mat.zeros(n))
    with open(os.path.join(FIXTURES, "so3_sreg_witness.json")) as fh:
        _assert_gradients_match_jets(*parse_matrix_doc(json.load(fh)))


@given(st.sampled_from([("gl", n) for n in range(3, 7)]
                       + [("so", n) for n in range(4, 9)]),
       st.integers(0, 2 ** 32 - 1), st.integers(0, 5))
@settings(max_examples=15, deadline=None)
def test_level_gradient_rows_match_dense_trace_at_every_level(algebra, seed,
                                                              t):
    # gradients paired through the basis supports, embedded by index
    # lists, against dense embedding and a trace with every basis matrix
    ctx = _algebra(*algebra)
    x = _mixed_sample(ctx, Sampler(seed), t)
    for lvl, xm in ctx.chain(x):
        assert (_gradient_rows(ctx, lvl, xm)
                == level_gradient_rows_by_trace(ctx, x, lvl.n)), lvl.n


# Above this dimension a jet pass per basis direction takes seconds to
# minutes per element (so(10): about a minute of jets).
JET_DIM = 25


def _assert_integer_rows_match_references(ctx, x):
    # at every chain level the Gaussian-integer rows, each divided by its
    # scale, against the dense-trace rows and, up to JET_DIM, the jet rows,
    # entry by entry; then both Jacobian ranks against rank_rows of the
    # reference rows
    ref = {}
    for lvl, xm in ctx.chain(x):
        got = _gradient_rows(ctx, lvl, xm)
        ref[lvl.n] = level_gradient_rows_by_trace(ctx, x, lvl.n)
        assert got == ref[lvl.n], lvl.n
        if ctx.dim <= JET_DIM:
            assert got == partial_map_jacobian_jet(ctx, x, [lvl.n]), lvl.n
    partial = ref[ctx.n - 1] + ref[ctx.n]
    assert partial_map_jacobian(ctx, x) == partial
    assert kostant_jacobian_rank(ctx, x) == rank_rows(partial, ctx.dim)
    assert (full_map_jacobian_rank(ctx, x)
            == rank_rows([r for rows in ref.values() for r in rows],
                         ctx.dim))


@given(st.sampled_from([("gl", n) for n in range(2, 8)]
                       + [("so", n) for n in range(3, 11)]),
       st.integers(0, 2 ** 32 - 1), st.integers(0, 5), st.booleans())
@settings(max_examples=30, deadline=None)
def test_integer_gradient_rows_match_references(algebra, seed, t, gaussian):
    # the mixed stream; up to JET_DIM optionally plus i times a generic
    # element, so that the recurrence runs on Gaussian integers
    ctx = _algebra(*algebra)
    s = Sampler(seed)
    x = _mixed_sample(ctx, s, t)
    if gaussian and ctx.dim <= JET_DIM:
        x = x + s.algebra_element(ctx).scale(QI(0, 1))
    _assert_integer_rows_match_references(ctx, x)


def test_integer_gradient_rows_match_references_at_zero_and_so3_witness():
    for kind, n in [("gl", 2), ("gl", 3), ("so", 3), ("so", 4), ("so", 6)]:
        _assert_integer_rows_match_references(make_algebra(kind, n),
                                              Mat.zeros(n))
    with open(os.path.join(FIXTURES, "so3_sreg_witness.json")) as fh:
        _assert_integer_rows_match_references(
            *parse_matrix_doc(json.load(fh)))


@given(st.integers(4, 12), st.integers(0, 2 ** 32 - 1), st.integers(0, 5))
@settings(max_examples=10, deadline=None)
def test_pfaffian_gradient_matches_cofactor_expansion(n, seed, t):
    # S x read by index (x with its rows reversed) and one memo of its
    # sub-Pfaffians, against the dense product S x and one expansion per
    # cofactor, at every even level of the mixed stream of so(n)
    ctx = _algebra("so", n)
    x = _mixed_sample(ctx, Sampler(seed), t)
    for lvl, xm in ctx.chain(x):
        if lvl.n % 2 == 0:
            assert (_pfaffian_gradient_of(lvl, xm)
                    == pfaffian_gradient_by_cofactors(form(lvl.n) * xm))


def _pfaffian_gradient_of(lvl, xm):
    # the Gaussian-integer gradient of pf(S X), X = d x_m, over the
    # d^((m-2)/2) of its cofactors: the gradient of pf(S x_m)
    image = zi_matrix(xm.a)
    re, im = _pfaffian_gradient(pfaffian_minors(lvl, image), lvl.n)
    return qi_matrix(re, im, image.d ** ((lvl.n - 2) // 2))


@pytest.mark.parametrize("n", range(2, 17, 2))
def test_pfaffian_read_from_gradient_memo(n):
    # the analysis report reads pf(S x) from the memo that the Pfaffian
    # gradient filled; it must be the ring-generic Pfaffian of the dense S x
    ctx = make_algebra("so", n)
    s = Sampler("pf-memo/%d" % n)
    for x in [s.algebra_element(ctx), s.span_element(ctx.borel_basis),
              s.algebra_element(ctx) + s.algebra_element(ctx).scale(
                  QI(0, 1)), Mat.zeros(n)]:
        image = zi_matrix(x.a)
        minors = pfaffian_minors(ctx, image)
        _pfaffian_gradient(minors, n)
        assert (_qi(*minors(tuple(range(n))), image.d ** (n // 2))
                == pfaffian(form(ctx.n) * x))


def _assert_systems_match_brackets(ctx, x):
    # ambient g, k, and g at the level below.  [y, x] lies in g, so the
    # system is the bracket rows at the basis positions, entry by entry;
    # every other bracket row is zero (the so antidiagonal) or minus the
    # kept row at its mirror cell (n-1-j, n-1-i)
    for lvl, mats, supports, ambient in [
            (ctx, [x], ctx.basis_supports, "g"),
            (ctx, [x], ctx.k_supports, "k"),
            (ctx.child, [ctx.down(x)], ctx.child.basis_supports, "g")]:
        n = lvl.n
        kept = set(lvl.basis_positions)
        dense = centralizer_system_by_brackets(lvl, mats, ambient)
        blocks = [dense[b * n * n:(b + 1) * n * n] for b in range(len(mats))]
        assert centralizer_system_qi(lvl, mats, supports) == [
            block[i * n + j] for block in blocks
            for i, j in lvl.basis_positions]
        for block in blocks:
            for i in range(n):
                for j in range(n):
                    if (i, j) in kept:
                        continue
                    row, mirror = block[i * n + j], (n - 1 - j, n - 1 - i)
                    if mirror == (i, j):
                        assert not any(row), (i, j)
                    else:
                        assert mirror in kept, (i, j)
                        assert row == [-v for v in block[mirror[0] * n
                                                         + mirror[1]]]


@given(st.sampled_from([("gl", n) for n in range(3, 7)]
                       + [("so", n) for n in range(4, 9)]),
       st.integers(0, 2 ** 32 - 1), st.integers(0, 5))
@settings(max_examples=20, deadline=None)
def test_centralizer_system_matches_brackets(algebra, seed, t):
    ctx = _algebra(*algebra)
    _assert_systems_match_brackets(ctx, _mixed_sample(ctx, Sampler(seed), t))


def test_centralizer_system_matches_brackets_at_zero_and_so3_witness():
    for kind, n in [("gl", 3), ("so", 4), ("so", 5), ("so", 6)]:
        _assert_systems_match_brackets(make_algebra(kind, n), Mat.zeros(n))
    with open(os.path.join(FIXTURES, "so3_sreg_witness.json")) as fh:
        _assert_systems_match_brackets(*parse_matrix_doc(json.load(fh)))


def _support_rows(n, supports):
    """The flattened matrices with the entry c at (i, j) for each (i, j, c)
    of each support."""
    rows = []
    for support in supports:
        row = [ZERO] * (n * n)
        for i, j, c in support:
            row[i * n + j] = rat(c)
        rows.append(row)
    return rows


def _assert_chain_ranks_match_brackets(ctx, x):
    # the nested elimination against the dense bracket systems over k and
    # over g (all n^2 rows) of every level; the k basis completed to a
    # basis of g is the column order of the per-level reference
    ranks = chain_centralizer_ranks(ctx, x)
    assert len(ranks) == len(ctx.levels)
    for (lvl, xm), got in zip(ctx.chain(x), ranks):
        adapted = _support_rows(lvl.n,
                                lvl.k_supports + lvl.completion_supports)
        assert adapted[:lvl.k_dim()] == [b.flatten() for b in lvl.k_basis]
        assert len(adapted) == lvl.dim == rank_rows(adapted, lvl.n ** 2)
        want = (rank_rows(centralizer_system_by_brackets(lvl, [xm], "k"),
                          lvl.k_dim()),
                rank_rows(centralizer_system_by_brackets(lvl, [xm], "g"),
                          lvl.dim))
        assert got == want, lvl.describe()


@pytest.mark.parametrize("kind,n", [("gl", n) for n in range(2, MAX_N + 1)]
                         + [("so", n) for n in range(3, MAX_N + 1)])
def test_chain_centralizer_ranks_match_brackets_per_size(kind, n):
    # one Borel draw per size, down its whole chain: the dense reference
    # costs dim g products of size n per level whatever x is, and a Borel
    # element keeps its elimination small at n = MAX_N
    ctx = _algebra(kind, n)
    _assert_chain_ranks_match_brackets(
        ctx, Sampler(n).span_element(ctx.borel_basis))


@given(st.sampled_from([("gl", n) for n in range(2, 7)]
                       + [("so", n) for n in range(3, 9)]),
       st.integers(0, 2 ** 32 - 1), st.integers(0, 5))
@settings(max_examples=20, deadline=None)
def test_chain_centralizer_ranks_match_brackets(algebra, seed, t):
    ctx = _algebra(*algebra)
    _assert_chain_ranks_match_brackets(ctx,
                                       _mixed_sample(ctx, Sampler(seed), t))


def test_chain_centralizer_ranks_match_brackets_at_zero_and_so3_witness():
    for kind, n in [("gl", 2), ("gl", 3), ("so", 3), ("so", 4), ("so", 5),
                    ("so", 6)]:
        _assert_chain_ranks_match_brackets(make_algebra(kind, n),
                                           Mat.zeros(n))
    with open(os.path.join(FIXTURES, "so3_sreg_witness.json")) as fh:
        _assert_chain_ranks_match_brackets(*parse_matrix_doc(json.load(fh)))


def _assert_nsreg_matches_theta_split(ctx, x):
    # for y in k, [y, x_k] and [y, x_p] are the k- and p-parts of [y, x],
    # so the one-matrix system and the theta-split one share a row space
    rows = centralizer_system_qi(ctx, [x], ctx.k_supports)
    split = k_system_by_theta_split(ctx, x)
    r = rank_rows(rows, ctx.k_dim())
    assert r == rank_rows(split, ctx.k_dim())
    assert r == rank_rows(rows + split, ctx.k_dim())
    assert is_nsreg(ctx, x) == (r == ctx.k_dim())
    assert nsreg_intersection(ctx, x) == nsreg_intersection_by_theta_split(
        ctx, x)


@given(st.sampled_from([("gl", n) for n in range(2, 7)]
                       + [("so", n) for n in range(3, 9)]),
       st.integers(0, 2 ** 32 - 1), st.integers(0, 5))
@settings(max_examples=30, deadline=None)
def test_nsreg_system_matches_theta_split(algebra, seed, t):
    ctx = _algebra(*algebra)
    _assert_nsreg_matches_theta_split(ctx,
                                      _mixed_sample(ctx, Sampler(seed), t))


def test_nsreg_system_matches_theta_split_at_zero_and_so3_witness():
    for kind, n in [("gl", 2), ("gl", 3), ("so", 3), ("so", 4), ("so", 5),
                    ("so", 6)]:
        _assert_nsreg_matches_theta_split(make_algebra(kind, n),
                                          Mat.zeros(n))
    with open(os.path.join(FIXTURES, "so3_sreg_witness.json")) as fh:
        _assert_nsreg_matches_theta_split(*parse_matrix_doc(json.load(fh)))


def _assert_integer_system_matches_qi_writer(ctx, x):
    # at every chain level, the one writer (the Gaussian integers of x_m,
    # each row divided by its content, zero rows left out) against the Q(i)
    # writer it replaced: identical pivot columns over the basis of g, of k
    # and the k-adapted basis, so identical k- and g-ranks, and identical
    # nullspace bases for joint_centralizer and nsreg_intersection
    for lvl, xm in ctx.chain(x):
        image = zi_matrix(xm.a)
        for supports in (lvl.basis_supports, lvl.k_supports,
                         lvl.k_supports + lvl.completion_supports):
            ncols = len(supports)
            want, _ = echelon(
                centralizer_system_qi(lvl, [xm], supports), ncols)
            got = next(nested_pivots_zi_rows(
                [_centralizer_system(lvl, [image], supports)], ncols))
            assert got == want, (lvl.describe(), ncols)
        for basis, supports, got in [
                (lvl.basis, lvl.basis_supports, joint_centralizer(lvl, [xm])),
                (lvl.k_basis, lvl.k_supports, nsreg_intersection(lvl, xm))]:
            ns = nullspace(Mat(centralizer_system_qi(lvl, [xm], supports)))
            assert got == [sum((c * b for c, b in zip(v, basis) if c),
                               Mat.zeros(lvl.n)) for v in ns], lvl.describe()


# Gaussian draws stop at this dimension to bound the test's time: one
# Gaussian draw, with the Q(i) references, takes about 1 s on gl(5) and
# so(7), and 3-5 s on so(8) and gl(6), mostly in elimination on entries
# of several hundred bits.
GAUSSIAN_DIM = 25


@given(st.sampled_from([("gl", n) for n in range(2, 7)]
                       + [("so", n) for n in range(3, 9)]),
       st.integers(0, 2 ** 32 - 1), st.integers(0, 5), st.booleans())
@settings(max_examples=30, deadline=None)
def test_integer_centralizer_rows_match_qi_writer(algebra, seed, t, gaussian):
    # the mixed stream, up to GAUSSIAN_DIM optionally plus i times a
    # generic element
    ctx = _algebra(*algebra)
    s = Sampler(seed)
    x = _mixed_sample(ctx, s, t)
    if gaussian and ctx.dim <= GAUSSIAN_DIM:
        x = x + s.algebra_element(ctx).scale(QI(0, 1))
    _assert_integer_system_matches_qi_writer(ctx, x)


def test_integer_centralizer_rows_match_qi_writer_at_zero_and_so3_witness():
    for kind, n in [("gl", 2), ("gl", 3), ("so", 3), ("so", 4), ("so", 5),
                    ("so", 6)]:
        _assert_integer_system_matches_qi_writer(make_algebra(kind, n),
                                                 Mat.zeros(n))
    with open(os.path.join(FIXTURES, "so3_sreg_witness.json")) as fh:
        _assert_integer_system_matches_qi_writer(
            *parse_matrix_doc(json.load(fh)))


def _nsreg_by_qi_reference(lvl, xm):
    # z_k(x_m) = 0: the Q(i) system of [y, x_m] = 0 over k has rank dim k
    # under Gauss-Jordan on Q(i) scalars
    pivots, _ = echelon(centralizer_system_qi(lvl, [xm], lvl.k_supports),
                        lvl.k_dim())
    return len(pivots) == lvl.k_dim()


@pytest.mark.parametrize("family", range(7))
@given(st.sampled_from([("gl", n) for n in range(2, 8)]
                       + [("so", n) for n in range(3, 9)]),
       st.integers(0, 2 ** 32 - 1), st.booleans())
@settings(max_examples=20, deadline=None)
def test_nsreg_and_sreg_match_the_qi_reference(family, algebra, seed,
                                               gaussian):
    # the full-rank answers of is_nsreg and is_sreg (every level above the
    # floor) against the Q(i) centralizer reference, on every sampler
    # family: the six of the mixed stream and chain-disjoint draws, up to
    # GAUSSIAN_DIM optionally plus i times a generic element
    ctx = _algebra(*algebra)
    s = Sampler(seed)
    x = (_mixed_sample(ctx, s, family) if family < 6
         else sample_chain_disjoint(ctx, s))
    if gaussian and ctx.dim <= GAUSSIAN_DIM:
        x = x + s.algebra_element(ctx).scale(QI(0, 1))
    assert is_nsreg(ctx, x) == _nsreg_by_qi_reference(ctx, x)
    assert is_sreg(ctx, x) == all(_nsreg_by_qi_reference(lvl, xm)
                                  for lvl, xm in ctx.chain(x)
                                  if lvl.child is not None)


def _assert_power_ranks_match_coefficient_rows(ctx, x):
    # the two rank readers, on power-sum gradient rows, against the rank of
    # the coefficient gradient rows: those of partial_map_jacobian, and
    # those of every chain level
    assert (kostant_jacobian_rank(ctx, x)
            == rank_rows(partial_map_jacobian(ctx, x), ctx.dim)), ctx.n
    assert full_map_jacobian_rank(ctx, x) == rank_zi_rows(
        [row for lvl, image in ctx.walk(zi_matrix(x.a))
         for row, _ in _level_gradient_rows(
             ctx, lvl, _gradients_at(_coefficient_gradients, lvl, image))],
        ctx.dim), ctx.n


@pytest.mark.parametrize("family", range(7))
@given(st.sampled_from([("gl", n) for n in range(2, 9)]
                       + [("so", n) for n in range(3, 13)]),
       st.integers(0, 2 ** 32 - 1), st.booleans())
@settings(max_examples=25, deadline=None)
def test_power_sum_ranks_match_coefficient_rows(family, algebra, seed,
                                                gaussian):
    # every sampler family, as in test_nsreg_and_sreg_match_the_qi_reference,
    # up to GAUSSIAN_DIM optionally plus i times a generic element
    ctx = _algebra(*algebra)
    s = Sampler(seed)
    x = (_mixed_sample(ctx, s, family) if family < 6
         else sample_chain_disjoint(ctx, s))
    if gaussian and ctx.dim <= GAUSSIAN_DIM:
        x = x + s.algebra_element(ctx).scale(QI(0, 1))
    _assert_power_ranks_match_coefficient_rows(ctx, x)


@pytest.mark.parametrize("kind,n", [("gl", n) for n in range(2, 9)]
                         + [("so", n) for n in range(3, 13)])
def test_power_sum_ranks_match_coefficient_rows_at_zero_and_nilfibre(kind,
                                                                     n):
    # zero, and a draw from each nilfibre component on so (strictly upper
    # triangular on gl): points where the Jacobians lose rank
    ctx = _algebra(kind, n)
    s = Sampler(n)
    _assert_power_ranks_match_coefficient_rows(ctx, Mat.zeros(n))
    for c in range(len(nilfibre_components(ctx)) if kind == "so" else 1):
        _assert_power_ranks_match_coefficient_rows(
            ctx, _mixed_sample(ctx, s, 2) if kind == "gl"
            else sample_nilfibre(ctx, s, c))


def _assert_nested_ranks_match_per_level(ctx, x):
    assert (chain_centralizer_ranks(ctx, x)
            == chain_centralizer_ranks_per_level(ctx, x)), ctx.describe()


@given(st.sampled_from([("gl", n) for n in range(2, 10)]
                       + [("so", n) for n in range(3, 15)]),
       st.integers(0, 2 ** 32 - 1), st.integers(0, 5), st.booleans())
@settings(max_examples=40, deadline=None)
def test_nested_chain_ranks_match_per_level_reference(algebra, seed, t,
                                                     gaussian):
    # the one nested elimination of the top system against one integer
    # step down and one forward pass per level, on the mixed stream, up to
    # GAUSSIAN_DIM optionally plus i times a generic element
    ctx = _algebra(*algebra)
    s = Sampler(seed)
    x = _mixed_sample(ctx, s, t)
    if gaussian and ctx.dim <= GAUSSIAN_DIM:
        x = x + s.algebra_element(ctx).scale(QI(0, 1))
    _assert_nested_ranks_match_per_level(ctx, x)


def test_nested_chain_ranks_match_per_level_at_zero_and_so3_witness():
    for kind, n in [("gl", 2), ("gl", 3), ("gl", 9), ("so", 3), ("so", 4),
                    ("so", 5), ("so", 6), ("so", 14)]:
        _assert_nested_ranks_match_per_level(make_algebra(kind, n),
                                             Mat.zeros(n))
    with open(os.path.join(FIXTURES, "so3_sreg_witness.json")) as fh:
        _assert_nested_ranks_match_per_level(*parse_matrix_doc(json.load(fh)))


@pytest.mark.parametrize("kind,n", [("gl", n) for n in range(2, MAX_N + 1)]
                         + [("so", n) for n in range(3, MAX_N + 1)])
def test_chain_data_is_adapted_to_every_level(kind, n):
    # the chain dims, the size of the chain data (a permutation on gl; on so
    # at most 4 entries per column, 2 terms per recipe and weights of 64),
    # the columns of each level inside the image of that level (a round
    # trip down to it and back up is the identity), and the recipes of the
    # levels up to m reading a basis of the dual of g_m on its columns
    ctx = make_algebra(kind, n)
    columns, recipes, dims = _chain_data(ctx)
    assert dims == tuple(lvl.dim for lvl in reversed(ctx.levels))
    lows = (0,) + dims[:-1]
    assert [len(r) for r in recipes] == [
        d - e for d, e in zip(dims, lows)]
    assert len(columns) == ctx.dim
    weights = ([c for col in columns for _, _, c in col]
               + [w for level in recipes for terms in level
                  for _, w in terms])
    if kind == "gl":
        assert all(len(col) == 1 for col in columns)
        assert all(len(terms) == 1 for level in recipes
                   for terms in level)
        assert set(weights) == {1}
    else:
        assert max(map(len, columns)) <= 4
        assert max(len(terms) for level in recipes
                   for terms in level) <= 2
        assert max(map(abs, weights)) <= 64
    dense = []
    for k, col in enumerate(columns):
        a = [[0] * n for _ in range(n)]
        for i, j, c in col:
            a[i][j] = c
        x = qi_matrix(a, None, 1)
        assert contains(ctx, x)
        m = next(lvl.n for lvl, d, e in zip(reversed(ctx.levels), dims, lows)
                 if e <= k < d)
        assert embed_from_subalgebra(
            ctx, project_to_subalgebra(ctx, x, m), m) == x
        dense.append(a)
    so_far = []
    for level, d in zip(recipes, dims):
        so_far += level
        read = [[sum(w * a[i][j] for r, w in terms
                     for i, j in [ctx.basis_positions[r]])
                 for a in dense[:d]] for terms in so_far]
        assert rank_zi_rows([[row, None] for row in read], d) == d
