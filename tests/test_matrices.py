import itertools
from bisect import bisect_left
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from gzlie.scalars import rat, ZERO, ONE, I
from gzlie import matrices
from gzlie.matrices import (Mat, bracket, rank, rank_rows, nullspace, det,
                            solve, inverse, char_poly, char_poly_fl,
                            pfaffian, row_space_contains, intersection_dim,
                            last_rref_row, rank_zi_rows, full_rank_zi_rows,
                            nested_pivots_zi_rows, nullspace_zi_rows,
                            zi_matrix, _zi_rows, _qi)

import qi_reference
from qi_reference import Jet, jet_mat, qi, from_ints, transpose, trace

ints = st.integers(-6, 6)


def _mat3(vals):
    return from_ints([vals[0:3], vals[3:6], vals[6:9]])


def test_basic_algebra():
    a = from_ints([[1, 2], [3, 4]])
    b = from_ints([[0, 1], [1, 0]])
    assert (a * b).a[0][1] == qi(1)
    assert (a + b - a) == b
    assert trace(rat(2) * a) == qi(10)
    assert bracket(a, b) == a * b - b * a
    assert transpose(a).a[0][1] == qi(3)


def test_rank_complex_oracle():
    # [[1, i], [i, -1]]: second row = i * first row, so rank 1
    m = Mat([[ONE, I], [I, -ONE]])
    assert rank(m) == 1
    assert rank(Mat.identity(4)) == 4
    assert rank(Mat.zeros(3)) == 0
    assert last_rref_row(Mat.zeros(2, 3).a) == []
    assert last_rref_row([[ONE, I], [I, -ONE]]) == [ONE, I]


def test_nullspace_is_deterministic_kernel_basis():
    m = from_ints([[1, 2, 3], [2, 4, 6]])
    ns = nullspace(m)
    assert len(ns) == 2
    for v in ns:
        col = Mat([[x] for x in v])
        assert (m * col).is_zero()
    # free coordinates are set to one, in column order
    assert ns[0][1] == ONE and ns[1][2] == ONE
    assert ns == nullspace(m)


def test_cancelled_product_entries_are_the_shared_zero():
    a = Mat([[ONE, ONE, ZERO], [rat(2), ZERO, I]])
    b = Mat([[ONE, ZERO], [-ONE, ZERO], [ZERO, ONE]])
    p = a * b
    assert p.a[0][0] is ZERO           # 1 - 1
    assert p.a[0][1] is ZERO           # never written
    assert p.a[1] == [rat(2), I]
    # the same on first-order jets: eps * eps = 0
    eps = Jet(ZERO, ONE)
    assert (Mat([[eps]]) * Mat([[eps]])).a[0][0] is ZERO


def test_det_solve_inverse():
    a = from_ints([[2, 1], [1, 1]])
    assert det(a) == ONE
    assert inverse(a) * a == Mat.identity(2)
    x = solve(a, from_ints([[3], [2]]))
    assert x == from_ints([[1], [1]])
    assert solve(from_ints([[1, 1], [1, 1]]),
                 from_ints([[0], [1]])) is None
    # consistent but underdetermined: the free coordinate is set to 0
    assert solve(from_ints([[1, 1], [1, 1]]),
                 from_ints([[2], [2]])) == from_ints([[2], [0]])
    with pytest.raises(ValueError):
        inverse(from_ints([[1, 1], [1, 1]]))
    # one row swap flips the sign
    assert det(from_ints([[0, 1], [1, 0]])) == -ONE
    # sizes 0 and 1: the empty product, and the entry itself
    for a in (Mat([]), Mat([[qi(3) + I]]), Mat([[rat(-2, 7)]]),
              Mat([[ZERO]])):
        assert det(a) == qi_reference.det(a)
    assert det(Mat([])) == ONE
    assert det(Mat([[qi(3) + I]])) == qi(3) + I


# small entry set: zeros make singular matrices and row swaps common
KERNEL_ENTRIES = [ZERO, ZERO, ZERO, ONE, -ONE, qi(2), I, rat(1, 2), ONE + I]


@st.composite
def _kernel_case(draw):
    n = draw(st.integers(1, 4))
    k = draw(st.integers(1, 2))
    cell = st.sampled_from(KERNEL_ENTRIES)
    a = Mat([[draw(cell) for _ in range(n)] for _ in range(n)])
    b = Mat([[draw(cell) for _ in range(k)] for _ in range(n)])
    return a, b


def _leibniz(m):
    total = ZERO
    for perm in itertools.permutations(range(m.n)):
        term = ONE
        for i, j in enumerate(perm):
            term = term * m.a[i][j]
        odd = sum(perm[p] > perm[q] for p in range(m.n)
                  for q in range(p + 1, m.n)) % 2
        total = total - term if odd else total + term
    return total


@given(_kernel_case())
@settings(max_examples=200, deadline=None)
def test_elimination_kernel_properties(case):
    a, b = case
    n = a.n
    d = det(a)
    assert d == _leibniz(a)
    r = rank(a)
    ns = nullspace(a)
    assert r + len(ns) == n
    assert r == rank(transpose(a))
    # free columns: those in the span of the columns before them
    cols = transpose(a).a
    free = [c for c in range(n)
            if rank_rows(cols[:c + 1], n) == rank_rows(cols[:c], n)]
    assert len(free) == len(ns)
    for v, fc in zip(ns, free):
        assert (a * Mat([[x] for x in v])).is_zero()
        assert [v[c] for c in free] == [ONE if c == fc else ZERO
                                        for c in free]
    if d:
        assert inverse(a) * a == Mat.identity(n)
    else:
        with pytest.raises(ValueError):
            inverse(a)
    x = solve(a, b)
    augmented = Mat([ra + rb for ra, rb in zip(a.a, b.a)])
    assert (x is None) == (rank(augmented) > r)
    if x is not None:
        assert a * x == b


# entries for pinning the Gaussian-integer kernel to the Q(i) reference:
# mixed denominators, Gaussian parts and numerators above 2^70; rows of
# small Gaussian integers make pivots that divide the entries below them
_PIN_MIXED = st.one_of(
    st.just(ZERO),
    st.builds(rat, st.integers(-4, 4), st.integers(1, 6)),
    st.builds(lambda a, b, c: rat(a, c) + rat(b, c + 1) * I,
              st.integers(-3, 3), st.integers(-3, 3), st.integers(1, 4)),
    st.builds(lambda s, v, d: rat(s * v, d), st.sampled_from([1, -1]),
              st.integers(2 ** 70, 2 ** 90), st.integers(1, 2 ** 72)),
)
_PIN_SMALL = st.sampled_from([ZERO, ZERO, ONE, -ONE, qi(2), qi(-3), I,
                              ONE + I])


@st.composite
def _pin_case(draw):
    """(A, B): A is m x n with m = n half of the time, B is m x 2.  Half of
    the cases may have zero rows and multiples of earlier rows."""
    n = draw(st.integers(1, 8))
    m = n if draw(st.booleans()) else draw(st.integers(1, 8))
    kinds = ["small", "mixed"]
    if draw(st.booleans()):
        kinds += ["zero", "copy"]
    rows = []
    for _ in range(m):
        kind = draw(st.sampled_from(kinds))
        if kind == "zero":
            rows.append([ZERO] * n)
        elif kind == "copy" and rows:
            c = draw(_PIN_MIXED)
            rows.append([c * v for v in draw(st.sampled_from(rows))])
        else:
            cell = _PIN_SMALL if kind == "small" else _PIN_MIXED
            rows.append([draw(cell) for _ in range(n)])
    rhs = Mat([[draw(_PIN_MIXED) for _ in range(2)] for _ in range(m)])
    return Mat(rows), rhs


def _or_error(fn, *args):
    try:
        return fn(*args)
    except ValueError:
        return "ValueError"


@given(_pin_case())
@settings(max_examples=150, deadline=None)
def test_kernel_matches_qi_reference(case):
    a, b = case
    assert rank(a) == qi_reference.rank(a)
    assert nullspace(a) == qi_reference.nullspace(a)
    assert solve(a, b) == qi_reference.solve(a, b)
    # the last nonzero row of the reduced form of [A | B]
    rows = [list(r) + list(s) for r, s in zip(a.a, b.a)]
    got = last_rref_row(rows)
    pivots, _ = qi_reference.echelon(rows, len(rows[0]), reduced=True)
    assert got == (rows[len(pivots) - 1] if pivots else [])
    if a.m == a.n:
        assert det(a) == qi_reference.det(a)
        assert _or_error(inverse, a) == _or_error(qi_reference.inverse, a)
        coeffs, _ = qi_reference.char_poly_fl(a)
        assert char_poly_fl(a) == coeffs
        assert char_poly(a) == coeffs[::-1] + [ONE]


# Gaussian factors of small norm: a row or a pivot that carries one of
# them is what the kernel's division by the gcd in Z[i] removes
_GAUSS_FACTORS = [ONE, ONE + I, ONE - I, qi(2) + I, qi(2) - I, ONE + qi(2) * I,
                  qi(3), qi(3) + qi(2) * I, I]
_GAUSS_SMALL = st.builds(lambda a, b: qi(a) + qi(b) * I,
                         st.integers(-3, 3), st.integers(-3, 3))


@st.composite
def _gaussian_case(draw):
    """(A, B): A is m x n with Gaussian-integer entries (Gaussian rationals
    for a fifth of the rows), each row times a product of small Gaussian
    factors, m = n half of the time; B is m x 2.  Some rows repeat an
    earlier row times a Gaussian factor."""
    n = draw(st.integers(1, 9))
    m = n if draw(st.booleans()) else draw(st.integers(1, 9))
    rows = []
    for _ in range(m):
        if rows and draw(st.integers(0, 4)) == 0:
            row = list(draw(st.sampled_from(rows)))
        else:
            row = [draw(_GAUSS_SMALL) for _ in range(n)]
            if draw(st.integers(0, 4)) == 0:
                row = [v * rat(1, draw(st.integers(1, 6))) for v in row]
        for _ in range(draw(st.integers(0, 3))):
            c = draw(st.sampled_from(_GAUSS_FACTORS))
            row = [c * v for v in row]
        rows.append(row)
    rhs = Mat([[draw(_GAUSS_SMALL) for _ in range(2)] for _ in range(m)])
    return Mat(rows), rhs


def _unreduced_rows(mat):
    """The rows of mat as pairs [re, im] of int lists over one common
    denominator, im None on a real row, neither made primitive nor with
    the zero rows left out: the kernel's entry points take such rows too."""
    re, im, _ = zi_matrix(mat.a)
    return [[r, s if s is not None and any(s) else None]
            for r, s in zip(re, im or [None] * len(re))]


@given(_gaussian_case())
@settings(max_examples=150, deadline=None)
def test_gaussian_kernel_matches_qi_reference(case):
    # every entry point of the elimination kernel against Gauss-Jordan on
    # Q(i) scalars, on rows whose entries share Gaussian factors
    a, b = case
    assert rank(a) == qi_reference.rank(a)
    pivots, _ = qi_reference.echelon([list(r) for r in a.a], a.n)
    assert next(nested_pivots_zi_rows([_unreduced_rows(a)], a.n)) == pivots
    assert nullspace(a) == qi_reference.nullspace(a)
    assert solve(a, b) == qi_reference.solve(a, b)
    rows = [list(r) + list(s) for r, s in zip(a.a, b.a)]
    got = last_rref_row(rows)
    pivots, _ = qi_reference.echelon(rows, len(rows[0]), reduced=True)
    assert got == (rows[len(pivots) - 1] if pivots else [])
    if a.m == a.n:
        assert det(a) == qi_reference.det(a)


@st.composite
def _zi_rows_case(draw):
    """(rows, B): m x n Q(i) rows, m from 0, each zero, Gaussian, real over
    mixed denominators, or integers with a content above 1; B is m x 2."""
    n = draw(st.integers(1, 6))
    m = draw(st.integers(0, 6))
    rows = []
    for _ in range(m):
        kind = draw(st.sampled_from(["zero", "gaussian", "mixed", "content"]))
        if kind == "zero":
            row = [ZERO] * n
        elif kind == "gaussian":
            row = [draw(_GAUSS_SMALL) * rat(1, draw(st.integers(1, 4)))
                   for _ in range(n)]
        elif kind == "mixed":
            row = [rat(draw(ints), draw(st.integers(1, 6)))
                   for _ in range(n)]
        else:
            c = draw(st.integers(2, 6))
            row = [qi(c * draw(ints)) for _ in range(n)]
        rows.append(row)
    rhs = Mat([[draw(_GAUSS_SMALL) for _ in range(2)] for _ in range(m)])
    return rows, rhs


@given(_zi_rows_case())
@settings(max_examples=150, deadline=None)
def test_zi_rows_are_primitive_and_nonzero(case):
    # every Q(i) row enters the kernel as a primitive nonzero row: a
    # positive rational multiple of itself, the zero rows left out, im None
    # exactly on a real row; the kernel's readings match the references
    rows, b = case
    got = _zi_rows(rows)
    nonzero = [r for r in rows if any(r)]
    assert len(got) == len(nonzero)
    for (re, im), row in zip(got, nonzero):
        assert gcd(*re, *(im or ())) == 1
        assert (im is None) == all(not z.im for z in row)
        vals = [_qi(x, 0, 1) for x in re] if im is None else [
            _qi(x, y, 1) for x, y in zip(re, im)]
        k = next(c for c, z in enumerate(row) if z)
        scale = vals[k] / row[k]
        assert not scale.im and scale.re > 0
        assert vals == [scale * z for z in row]
    if not rows:
        return
    a = Mat(rows)
    assert rank(a) == qi_reference.rank(a)
    assert nullspace(a) == qi_reference.nullspace(a)
    assert solve(a, b) == qi_reference.solve(a, b)
    aug = [list(r) + list(s) for r, s in zip(a.a, b.a)]
    got = last_rref_row(aug)
    pivots, _ = qi_reference.echelon(aug, len(aug[0]), reduced=True)
    assert got == (aug[len(pivots) - 1] if pivots else [])


@st.composite
def _row_order_case(draw):
    """(rows, ncols, order): Gaussian-integer rows (real ones in half the
    cases, Gaussian rationals for a fifth of the new rows) with zero rows,
    repeated rows and Gaussian multiples of earlier rows, and a
    permutation of them."""
    n = draw(st.integers(1, 7))
    real = draw(st.booleans())
    cell = (st.builds(qi, st.integers(-9, 9)) if real else _GAUSS_SMALL)
    rows = []
    for _ in range(draw(st.integers(1, 9))):
        kind = draw(st.sampled_from(["new", "new", "zero", "repeat",
                                     "multiple"]))
        if kind == "zero":
            row = [ZERO] * n
        elif kind == "repeat" and rows:
            row = list(draw(st.sampled_from(rows)))
        elif kind == "multiple" and rows:
            c = draw(st.sampled_from(_GAUSS_FACTORS[1:]))
            row = [c * v for v in draw(st.sampled_from(rows))]
        else:
            row = [draw(cell) for _ in range(n)]
            if draw(st.integers(0, 4)) == 0:
                row = [v * rat(1, draw(st.integers(2, 6))) for v in row]
        rows.append(row)
    return rows, n, draw(st.permutations(range(len(rows))))


@given(_row_order_case())
@settings(max_examples=200, deadline=None)
def test_rank_does_not_depend_on_row_order(case):
    # the rank entries and the readers of the reduced form eliminate on
    # rows ordered by size; their results depend only on the row space
    rows, n, order = case
    want_rank = qi_reference.rank(Mat(rows))
    want_pivots, _ = qi_reference.echelon([list(r) for r in rows], n)
    want_nullspace = qi_reference.nullspace(Mat(rows))
    reduced = [list(r) for r in rows]
    pivots, _ = qi_reference.echelon(reduced, n, reduced=True)
    want_last = reduced[len(pivots) - 1] if pivots else []
    for mat in (Mat(rows), Mat([rows[k] for k in order])):
        assert rank(mat) == want_rank
        assert rank_rows(mat.a, n) == want_rank
        assert rank_zi_rows(_unreduced_rows(mat), n) == want_rank
        assert next(nested_pivots_zi_rows([_unreduced_rows(mat)],
                                          n)) == want_pivots
        assert nullspace(mat) == want_nullspace
        assert nullspace_zi_rows(_unreduced_rows(mat), n) == want_nullspace
        assert last_rref_row(mat.a) == want_last


@given(st.lists(_row_order_case(), min_size=1, max_size=4))
@settings(max_examples=100, deadline=None)
def test_nested_pivots_match_one_pass_over_the_rows_so_far(cases):
    # after each block, the pivots of the rows of that block and every
    # block before it, whatever the blocks' sizes and orders
    n = min(ncols for _, ncols, _ in cases)
    blocks = [[row[:n] for row in rows] for rows, _, _ in cases]
    got = list(nested_pivots_zi_rows(
        (_unreduced_rows(Mat(rows)) for rows in blocks), n))
    so_far = []
    for rows, pivots in zip(blocks, got):
        so_far += rows
        assert pivots == qi_reference.echelon([list(r) for r in so_far],
                                              n)[0]


@st.composite
def _full_rank_case(draw):
    """(rows, ncols): real or Gaussian rows (Gaussian rationals for a fifth
    of the new rows), with zero rows, repeated rows and Gaussian multiples
    of earlier rows; the row count is ncols - 1, ncols or ncols + 1 in
    three cases of four, so both answers of the full-rank question and
    the stops at its boundary are drawn."""
    n = draw(st.integers(1, 6))
    m = draw(st.sampled_from([n - 1, n, n + 1, draw(st.integers(0, 9))]))
    real = draw(st.booleans())
    cell = (st.builds(qi, st.integers(-9, 9)) if real else _GAUSS_SMALL)
    rows = []
    for _ in range(m):
        kind = draw(st.sampled_from(["new"] * 6 + ["zero", "repeat",
                                                   "multiple"]))
        if kind == "zero":
            row = [ZERO] * n
        elif kind == "repeat" and rows:
            row = list(draw(st.sampled_from(rows)))
        elif kind == "multiple" and rows:
            c = draw(st.sampled_from(_GAUSS_FACTORS[1:]))
            row = [c * v for v in draw(st.sampled_from(rows))]
        else:
            row = [draw(cell) for _ in range(n)]
            if draw(st.integers(0, 4)) == 0:
                row = [v * rat(1, draw(st.integers(2, 6))) for v in row]
        rows.append(row)
    return rows, n


@given(_full_rank_case(), st.integers(0, 9))
@settings(max_examples=300, deadline=None)
def test_row_by_row_entries_match_qi_reference(case, cut):
    # the full-rank entry, the rank and the nested pivots of the row-by-row
    # pass against Gauss-Jordan on Q(i) scalars; the nested pass also with
    # its rows cut into two blocks
    rows, n = case
    pivots, _ = qi_reference.echelon([list(r) for r in rows], n)
    assert len(pivots) == qi_reference.rank(Mat(rows))
    assert full_rank_zi_rows(_unreduced_rows(Mat(rows)), n) == (
        len(pivots) == n)
    assert rank_zi_rows(_unreduced_rows(Mat(rows)), n) == len(pivots)
    assert next(nested_pivots_zi_rows([_unreduced_rows(Mat(rows))],
                                      n)) == pivots
    blocks = [rows[:cut], rows[cut:]]
    assert list(nested_pivots_zi_rows(
        [_unreduced_rows(Mat(block)) for block in blocks], n)) == [
            qi_reference.echelon([list(r) for r in blocks[0]], n)[0], pivots]


def _logged_pass(monkeypatch):
    """A log of the row-by-row pass: ("pivot", column) for each new pivot
    row and ("update", column) for each call of the one row update."""
    log = []
    pivot, update = matrices._pivot, matrices._update

    def logged_pivot(row, pc):
        log.append(("pivot", pc))
        return pivot(row, pc)

    def logged_update(row, piv, start):
        log.append(("update", piv[0]))
        return update(row, piv, start)

    monkeypatch.setattr(matrices, "_pivot", logged_pivot)
    monkeypatch.setattr(matrices, "_update", logged_update)
    return log


def test_row_by_row_pass_stops_once_decided(monkeypatch):
    # unit rows are the smallest, so they go first and decide full rank;
    # no row update follows the ncols-th pivot and the dense rows stay as
    # they were, in the rank entries and in later blocks of the nested one
    log = _logged_pass(monkeypatch)
    n = 4
    units = [[[int(i == j) for j in range(n)], None] for i in range(n)]
    dense = [[[7, -5, 3, 2], [1, 0, 2, 1]], [[9, 8, -7, 6], None]]

    def rows():
        return [[list(re), im and list(im)] for re, im in units + dense]

    def after_last_pivot():
        k = max(i for i, (what, _) in enumerate(log) if what == "pivot")
        return log[k + 1:]

    for entry, want in ((full_rank_zi_rows, True), (rank_zi_rows, n)):
        log.clear()
        given_rows = rows()
        assert entry(given_rows, n) == want
        assert sum(what == "pivot" for what, _ in log) == n
        assert not after_last_pivot()
        assert given_rows[n:] == rows()[n:]
    log.clear()
    given_rows = rows()
    assert list(nested_pivots_zi_rows([given_rows[:n], given_rows[n:]],
                                      n)) == [[0, 1, 2, 3]] * 2
    assert not after_last_pivot() and given_rows[n:] == rows()[n:]
    # a full-rank question answers False, untouched rows left, once the
    # pivots plus the rows left fall below ncols: e_1 is the pivot, 2 e_1
    # goes to zero (the one update), and 1 + 1 < 3 stops the pass
    log.clear()
    given_rows = [[[1, 0, 0], None], [[2, 0, 0], None], [[5, 7, 9], None]]
    assert not full_rank_zi_rows(given_rows, 3)
    assert log == [("pivot", 0), ("update", 0)]
    assert given_rows[2] == [[5, 7, 9], None]


@pytest.mark.parametrize("n", range(1, 9))
def test_char_poly_fl_takes_n_minus_2_products(n, monkeypatch):
    # X M_1 = X needs no product, and every b_k is read as tr(X M_k)
    # without one
    calls = []
    product = matrices._imatmul

    def counted(a, b):
        calls.append((a, b))
        return product(a, b)

    monkeypatch.setattr(matrices, "_imatmul", counted)
    a = Mat([[rat((3 * i + 5 * j) % 11 - 5, 1 + (i * j) % 3)
              for j in range(n)] for i in range(n)])
    got = char_poly_fl(a)
    assert len(calls) == max(n - 2, 0)
    assert got == qi_reference.char_poly_fl(a)[0]
    # a Gaussian input takes the same steps, four real products each
    b = a + Mat([[qi(0, (i + 2 * j) % 3 - 1) for j in range(n)]
                 for i in range(n)])
    del calls[:]
    got = char_poly_fl(b)
    assert len(calls) == 4 * max(n - 2, 0)
    assert got == qi_reference.char_poly_fl(b)[0]


def test_char_poly_oracle():
    # [[1,2],[3,4]]: t^2 - 5t - 2, checked by hand
    p = char_poly(from_ints([[1, 2], [3, 4]]))
    assert p == [qi(-2), qi(-5), qi(1)]
    # diag(1, 2, 3): (t-1)(t-2)(t-3) = t^3 - 6t^2 + 11t - 6
    d = from_ints([[1, 0, 0], [0, 2, 0], [0, 0, 3]])
    assert char_poly(d) == [qi(-6), qi(11), qi(-6), qi(1)]


@given(st.lists(ints, min_size=9, max_size=9))
@settings(max_examples=25, deadline=None)
def test_char_poly_satisfied_by_matrix(vals):
    # Cayley-Hamilton as an independent check of the coefficients
    a = _mat3(vals)
    p = char_poly(a)
    acc = Mat.zeros(3)
    power = Mat.identity(3)
    for c in p:
        acc = acc + c * power
        power = power * a
    assert acc.is_zero()


def test_fl_gradient_matches_jets():
    # d b_k(A; V) = -tr(M_k V), M_k the reference loop's auxiliary
    # matrices, must agree with a jet pass through FL
    a = _mat3([1, 2, 0, -1, 3, 1, 0, 2, -2])
    v = _mat3([0, 1, 1, 2, 0, -1, 1, 1, 0])
    coeffs = char_poly_fl(a)
    _, aux = qi_reference.char_poly_fl(a)
    jcoeffs, _ = qi_reference.char_poly_fl(jet_mat(a, v))
    for k in range(3):
        grad = -trace(aux[k] * v)
        assert jcoeffs[k].val == coeffs[k]
        assert jcoeffs[k].eps == grad


def test_pfaffian_oracles():
    two = Mat([[ZERO, qi(5)], [qi(-5), ZERO]])
    assert pfaffian(two) == qi(5)
    # 4x4: pf = a12*a34 - a13*a24 + a14*a23 by the textbook formula
    a12, a13, a14 = qi(1), qi(2), rat(1, 2)
    a23, a24, a34 = qi(-3), qi(4), qi(7)
    rows = [[ZERO, a12, a13, a14],
            [-a12, ZERO, a23, a24],
            [-a13, -a23, ZERO, a34],
            [-a14, -a24, -a34, ZERO]]
    m = Mat(rows)
    expect = a12 * a34 - a13 * a24 + a14 * a23
    assert pfaffian(m) == expect
    assert pfaffian(m) ** 2 == det(m)
    with pytest.raises(ValueError):
        pfaffian(from_ints([[0, 1], [1, 0]]))
    with pytest.raises(ValueError):
        pfaffian(Mat.zeros(3))
    with pytest.raises(ValueError, match="not antisymmetric"):
        pfaffian(from_ints([[0, 1, 0, 0], [-1, 0, 0, 0]]))


@given(st.integers(0, 4), st.lists(_GAUSS_SMALL, min_size=45, max_size=45),
       st.sampled_from([ONE, I, rat(1, 2), rat(2, 3) + rat(1, 5) * I]))
@settings(max_examples=40, deadline=None)
def test_pfaffian_matches_ring_generic_reference(k, vals, scale):
    # the memo on the integers of A against the expansion on Q(i) scalars
    n = 2 * k
    m = Mat.zeros(n)
    it = iter(vals)
    for p in range(n):
        for q in range(p + 1, n):
            v = next(it) * scale
            m.a[p][q], m.a[q][p] = v, -v
    assert pfaffian(m) == qi_reference.pfaffian(m)


def test_pfaffian_over_jets():
    m = Mat([[ZERO, qi(2)], [qi(-2), ZERO]])
    v = Mat([[ZERO, qi(3)], [qi(-3), ZERO]])
    pj = qi_reference.pfaffian(jet_mat(m, v))
    assert pj.val == qi(2) and pj.eps == qi(3)


def test_row_space_and_intersection():
    e1 = [ONE, ZERO, ZERO]
    e2 = [ZERO, ONE, ZERO]
    e3 = [ZERO, ZERO, ONE]
    assert row_space_contains([e1, e2], [qi(2), qi(-1), ZERO], 3)
    assert not row_space_contains([e1], e2, 3)
    assert intersection_dim([e1, e2], [e2, e3], 3) == 1
    assert intersection_dim([e1], [e2], 3) == 0
    assert rank_rows([e1, e1], 3) == 1
    # a zero vector adds no pivot, so it is in every span, the empty one
    # included; zero basis rows span nothing
    zero = [ZERO] * 3
    assert row_space_contains([e1, e2], zero, 3)
    assert row_space_contains([], zero, 3)
    assert not row_space_contains([zero, e1], e2, 3)
    # the row entry points take any iterable of rows
    assert row_space_contains(iter([e1, e2]), e1, 3)
    assert rank_rows(iter([e1, e2, e3]), 3) == 3
    assert intersection_dim(iter([e1, e2]), [e2], 3) == 1
    assert zi_matrix(iter([e1, e2])) == zi_matrix([e1, e2])


@st.composite
def _span_case(draw):
    """(basis, vec, other, n): Gaussian rows of width n, a fifth of them
    scaled by a rational; the basis may be empty.  vec is a Gaussian
    combination of the basis rows half of the time, else a random row;
    other mixes combinations of the basis rows with random rows."""
    n = draw(st.integers(1, 6))

    def row():
        r = [draw(_GAUSS_SMALL) for _ in range(n)]
        if draw(st.integers(0, 4)) == 0:
            r = [v * rat(1, draw(st.integers(2, 6))) for v in r]
        return r

    def combination(rows):
        out = [ZERO] * n
        for r in rows:
            c = draw(_GAUSS_SMALL)
            out = [v + c * x for v, x in zip(out, r)]
        return out

    basis = [row() for _ in range(draw(st.integers(0, 5)))]
    inside = basis and draw(st.booleans())
    vec = combination(basis) if inside else row()
    other = [combination(basis) if basis and draw(st.booleans()) else row()
             for _ in range(draw(st.integers(0, 5)))]
    return basis, vec, other, n


def _reference_rank(rows, ncols):
    return len(qi_reference.echelon([list(r) for r in rows], ncols)[0])


@given(_span_case())
@settings(max_examples=150, deadline=None)
def test_membership_and_intersection_match_reference_ranks(case):
    # one nested pass each, against ranks of Gauss-Jordan on Q(i) scalars
    basis, vec, other, n = case
    rank_b = _reference_rank(basis, n)
    assert row_space_contains(basis, vec, n) == (
        _reference_rank(basis + [vec], n) == rank_b)
    assert intersection_dim(basis, other, n) == (
        rank_b + _reference_rank(other, n) - _reference_rank(basis + other, n))


# --- the modular filter ------------------------------------------------------

# Gaussian integers sent to 0 mod p by i -> s: p, s - i and p (2 + i)
_MOD_ZEROS = [qi(matrices._P), qi(matrices._S) - I,
              qi(2 * matrices._P) + qi(matrices._P) * I]


@st.composite
def _modular_case(draw):
    """(rows, ncols, cut): real or Gaussian integer rows built to make the
    modular pass lose rank, with Gaussian multiples of earlier rows, rows
    and entries sent to 0 mod p, and rows that differ from an earlier row
    by a multiple of p in one entry, so that a minor is a multiple of p;
    cut splits the rows into two blocks."""
    n = draw(st.integers(1, 6))
    real = draw(st.booleans())
    cell = st.builds(qi, st.integers(-9, 9)) if real else _GAUSS_SMALL
    zero = st.sampled_from(_MOD_ZEROS[:1] if real else _MOD_ZEROS)
    rows = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(["new", "new", "multiple", "zero",
                                     "entry", "near"]))
        if kind == "multiple" and rows:
            c = draw(st.sampled_from(_GAUSS_FACTORS[1:]))
            row = [c * v for v in draw(st.sampled_from(rows))]
        elif kind == "near" and rows:
            row = list(draw(st.sampled_from(rows)))
            k = draw(st.integers(0, n - 1))
            row[k] = row[k] + draw(zero)
        else:
            row = [draw(cell) for _ in range(n)]
            if kind == "zero":
                c = draw(zero)
                row = [c * v for v in row]
            elif kind == "entry":
                k = draw(st.integers(0, n - 1))
                row[k] = row[k] * draw(zero)
        rows.append(row)
    return rows, n, draw(st.integers(0, len(rows)))


@given(_modular_case())
@settings(max_examples=200, deadline=None)
def test_modular_ranks_are_lower_bounds_and_certify_exactly(case):
    # at every column prefix, in one block and in two, the modular pass has
    # no more pivots than the exact one and leaves its rows as they were;
    # a certified rank is the exact rank under any upper bound
    rows, n, cut = case
    for blocks in ([rows], [rows[:cut], rows[cut:]]):
        zi = [_unreduced_rows(Mat(block)) for block in blocks]
        given_rows = [[list(re), im and list(im)] for b in zi for re, im in b]
        modular = list(matrices._mod_pivots(zi, n))
        assert [row for b in zi for row in b] == given_rows
        for mod, exact in zip(modular, nested_pivots_zi_rows(zi, n)):
            for c in range(n + 1):
                assert bisect_left(mod, c) <= bisect_left(exact, c)
    want = rank_zi_rows(_unreduced_rows(Mat(rows)), n)
    for bound in {want, want + 1, n, len(rows)} - set(range(want)):
        assert matrices._certified_rank(_unreduced_rows(Mat(rows)), n,
                                        bound) == want


def test_certified_rank_falls_back_when_p_divides_a_pivot():
    # [1, 0], [1, p] and [1, 0], [0, s - i]: rank 2 with a 2x2 minor sent
    # to 0, so the modular rank is 1 and the exact pass answers
    p, s = matrices._P, matrices._S
    for rows in ([[[1, 0], None], [[1, p], None]],
                 [[[1, 0], None], [[0, s], [0, -1]]]):
        assert list(matrices._mod_pivots([rows], 2)) == [[0]]
        assert matrices._certified_rank(rows, 2, 2) == 2
