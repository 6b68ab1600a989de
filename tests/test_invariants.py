from collections import Counter
from fractions import Fraction
from math import lcm

import pytest

from gzlie.scalars import QI, rat, ZERO, ONE, I
from gzlie.matrices import Mat, zi_matrix
from gzlie.liealg import make_algebra, adjoint, project_to_subalgebra
from gzlie.invariants import (InvariantVector, reduced_char,
                              pfaffian_minors, level_values,
                              partial_kw, full_kw, coincidence_count,
                              coincidence_of, stratum_of_value,
                              _poly_from_values)
from gzlie.rand import Sampler
from gzlie.suites import _mixed_sample
from gzlie import polys

from qi_reference import (divmod_exact, pfaffian_generator, coefficients,
                          level_values_qi, chain_down_dense, qi,
                          as_fraction, from_ints)


def spectrum_pairs(ctx, mat, m=None):
    """Rational pair representatives of the spectrum at a chain level, when
    the reduced polynomial splits over Q (raises otherwise).
    so: roots u of q give eigenvalue pairs +-sqrt(u) -- returned as the u's.
    gl: plain eigenvalue list."""
    m = ctx.n if m is None else m
    q = reduced_char(ctx.level(m), project_to_subalgebra(ctx, mat, m))
    return _rational_roots(q)


def _rational_roots(q):
    roots = []
    rem = list(q)
    while polys.degree(rem) > 0:
        found = None
        if not rem[0]:
            found = ZERO
        else:
            # rational root theorem on the integer-cleared polynomial
            fracs = [as_fraction(c) for c in rem]
            mult = lcm(*[f.denominator for f in fracs])
            ints = [f * mult for f in fracs]
            a0, ak = abs(ints[0].numerator), abs(ints[-1].numerator)
            for p in _divisors(a0):
                for d in _divisors(ak):
                    for s in (1, -1):
                        z = QI(Fraction(s * p, d))
                        # remainder theorem: z is a root iff x - z divides
                        if not divmod_exact(rem, [-z, ONE])[1]:
                            found = z
                            break
                    if found:
                        break
                if found:
                    break
        if found is None:
            raise ValueError("polynomial has an irrational root")
        roots.append(found)
        rem, r = divmod_exact(rem, [-found, ONE])
        assert not r
    return roots


def _divisors(v):
    v = abs(int(v))
    if v == 0:
        return [0]
    out = []
    d = 1
    while d * d <= v:
        if v % d == 0:
            out.append(d)
            out.append(v // d)
        d += 1
    return sorted(set(out))


def diag_cartan(ctx, vals):
    m = Mat.zeros(ctx.n)
    for c, h in zip(vals, ctx.cartan_basis):
        m = m + rat(c) * h
    return m


def matching_oracle(top_vals, sub_vals):
    """Maximum matching between two multisets with equality edges."""
    a, b = Counter(top_vals), Counter(sub_vals)
    return sum(min(a[k], b[k]) for k in a)


def test_gl3_generators_oracle():
    # diag(1,2,3): elementary symmetric values 6, 11, 6 by hand
    ctx = make_algebra("gl", 3)
    x = diag_cartan(ctx, [1, 2, 3])
    # and the level 2 projection keeps eigenvalues 1, 2: values 3, 2
    assert partial_kw(ctx, x).values == [qi(3), qi(2),
                                         qi(6), qi(11), qi(6)]


def test_so5_generators_oracle():
    # diag cartan (a,b)=(2,3): q(u) = (u-4)(u-9), c1=-13, c2=36 by hand
    ctx = make_algebra("so", 5)
    x = diag_cartan(ctx, [2, 3])
    assert partial_kw(ctx, x).values[2:] == [qi(-13), qi(36)]    # r_4 = 2
    assert reduced_char(ctx, x) == [qi(36), qi(-13), qi(1)]


def test_so4_pfaffian_generator():
    ctx = make_algebra("so", 4)
    x = diag_cartan(ctx, [2, 3])
    vals = partial_kw(ctx, x).values[1:]                         # r_3 = 1
    assert len(vals) == 2
    assert vals[0] == qi(-13)            # c1 = -(4+9)
    assert vals[1] ** 2 == qi(36)        # pf^2 = det-root product
    so5 = make_algebra("so", 5)
    assert pfaffian_minors(so5, zi_matrix(diag_cartan(so5, [1, 2]).a)) is None


def test_level_values_check_parity_and_pfaffian_square():
    # the checks that partial_kw and the analysis report share
    ctx = make_algebra("so", 4)
    x = diag_cartan(ctx, [2, 3])
    b = [qi(0), qi(-13), qi(0), qi(36)]
    pf = pfaffian_generator(ctx, x)
    assert level_values(ctx, b, pf) == partial_kw(ctx, x).values[1:]
    with pytest.raises(ValueError):         # odd coefficient on so
        level_values(ctx, [qi(1)] + b[1:], pf)
    with pytest.raises(AssertionError):     # pf^2 != b_4
        level_values(ctx, b, pf + ONE)
    not_antisymmetric = from_ints([[0, 0, 1, 1], [1, 1, 0, -1],
                                   [0, 0, -1, 0], [0, 1, -1, 0]])
    for reader in (partial_kw, full_kw):
        with pytest.raises(ValueError, match="not antisymmetric"):
            reader(ctx, not_antisymmetric)


def test_vector_shapes():
    for kind, n in [("gl", 4), ("so", 5), ("so", 6)]:
        ctx = make_algebra(kind, n)
        x = Sampler(1).algebra_element(ctx)
        pv = partial_kw(ctx, x)
        assert pv.kind == "partial"
        assert len(pv.values) == (ctx.invariant_rank(n - 1)
                                  + ctx.invariant_rank(n))
        fv = full_kw(ctx, x)
        assert len(fv.values) == sum(ctx.invariant_rank(m)
                                     for m in range(ctx.chain_floor(), n + 1))


@pytest.mark.parametrize("kind,n", [("gl", 3), ("so", 5), ("so", 6)])
def test_partial_map_is_k_invariant(kind, n):
    ctx = make_algebra(kind, n)
    s = Sampler(n + 100)
    for _ in range(5):
        x = s.algebra_element(ctx)
        k = s.subgroup_element(ctx)
        assert partial_kw(ctx, adjoint(k, x)).values == partial_kw(
            ctx, x).values


@pytest.mark.parametrize("kind,n,coords", [
    ("gl", 4, [1, 1, 2, 5]),
    ("gl", 4, [3, 3, 3, 3]),
    ("gl", 3, [0, 0, 1]),
    ("so", 5, [2, 2]),
    ("so", 5, [2, -2]),        # squares coincide
    ("so", 6, [1, 2, 3]),
    ("so", 6, [2, 3, 2]),
    ("so", 7, [0, 1, 1]),
])
def test_coincidence_matches_brute_force(kind, n, coords):
    ctx = make_algebra(kind, n)
    s = Sampler(n * 13 + len(coords))
    x = diag_cartan(ctx, coords)
    # conjugate by a K-point so the matrix is not diagonal; the projection
    # spectra are unchanged
    y = adjoint(s.subgroup_element(ctx), x)
    top = spectrum_pairs(ctx, y, n)
    sub = spectrum_pairs(ctx, y, n - 1)
    assert coincidence_count(ctx, y) == matching_oracle(top, sub)


def test_spectrum_pairs_oracle_and_irrational():
    ctx = make_algebra("gl", 3)
    x = diag_cartan(ctx, [1, 2, 3])
    assert sorted(as_fraction(v) for v in spectrum_pairs(ctx, x)) == [1, 2, 3]
    irr = from_ints([[0, 2], [1, 0]])   # eigenvalues +-sqrt(2)
    with pytest.raises(ValueError):
        spectrum_pairs(make_algebra("gl", 2), irr)


@pytest.mark.parametrize("kind,n", [("gl", 4), ("so", 5), ("so", 6),
                                    ("so", 7)])
def test_stratum_of_value_agrees_with_element(kind, n):
    ctx = make_algebra(kind, n)
    s = Sampler(n + 17)
    for _ in range(8):
        x = s.algebra_element(ctx)
        assert stratum_of_value(ctx, partial_kw(ctx, x)) == \
            coincidence_count(ctx, x)


@pytest.mark.parametrize("kind,n", [("gl", 4), ("so", 5), ("so", 6)])
def test_zero_value_stratum_is_maximal(kind, n):
    # the fibre over 0 consists of chain-nilpotent elements: every
    # coincidence that can happen does happen
    ctx = make_algebra(kind, n)
    r_sub = ctx.invariant_rank(n - 1)
    r_top = ctx.invariant_rank(n)
    zero = InvariantVector(kind, n, "partial", [ZERO] * (r_sub + r_top))
    assert stratum_of_value(ctx, zero) == r_sub
    with pytest.raises(ValueError):
        stratum_of_value(ctx, full_kw(ctx, Mat.zeros(n)))


def test_stratum_of_value_rejects_a_vector_of_another_shape():
    so5 = make_algebra("so", 5)
    vec = partial_kw(so5, Sampler(7).algebra_element(so5))
    assert len(vec.values) == 4
    for bad in (vec._replace(values=vec.values[:2]),       # too few
                vec._replace(values=vec.values + [ONE]),   # too many
                vec._replace(n=6),                         # another size
                partial_kw(make_algebra("so", 6),
                           Sampler(8).algebra_element(make_algebra("so",
                                                                   6)))):
        with pytest.raises(ValueError, match="so\\(5\\) has 4 values"):
            stratum_of_value(so5, bad)
    # another algebra with the same count: gl(4) and so(8) both have 7
    gl4 = make_algebra("gl", 4)
    other = partial_kw(gl4, Sampler(9).algebra_element(gl4))
    with pytest.raises(ValueError, match="so\\(8\\) has 7 values"):
        stratum_of_value(make_algebra("so", 8), other)
    assert stratum_of_value(gl4, other) == coincidence_count(
        gl4, Sampler(9).algebra_element(gl4))


def test_cartan_coincidence_counts_retained_coordinates():
    # so(6) -> so(5) drops the last Cartan coordinate; with distinct
    # square-free coordinates exactly the two retained squares match
    ctx = make_algebra("so", 6)
    s = Sampler(23)
    vals = s.distinct_square_free(3)
    x = Mat.zeros(6)
    for c, h in zip(vals, ctx.cartan_basis):
        x = x + c * h
    assert coincidence_count(ctx, x) == 2


def test_generic_element_has_zero_coincidence():
    for kind, n in [("gl", 4), ("so", 5), ("so", 6)]:
        ctx = make_algebra(kind, n)
        s = Sampler(41)
        hits = sum(1 for _ in range(10)
                   if coincidence_count(ctx, s.algebra_element(ctx)) == 0)
        assert hits == 10


def _qi_levels(ctx, x):
    """(level, x_m) from the top down, each x_m the dense Q(i) step
    PD x TD (chain_down_dense) of the last."""
    out = [(ctx, x)]
    for lvl in ctx.levels[1:]:
        out.append((lvl, chain_down_dense(*out[-1])))
    return out


def _assert_walk_readers_match_qi_reference(ctx, x):
    levels = _qi_levels(ctx, x)
    values = [level_values_qi(lvl, xm) for lvl, xm in levels]
    assert partial_kw(ctx, x).values == values[1] + values[0]
    assert full_kw(ctx, x).values == sum(values[::-1], [])
    assert coincidence_count(ctx, x) == coincidence_of(
        ctx, coefficients(x), coefficients(levels[1][1]))
    # the reduced polynomial rebuilt from the reference values of a level
    for (lvl, image), (_, xm), vals in zip(ctx.walk(zi_matrix(x.a)), levels,
                                           values):
        want = _poly_from_values(lvl, vals)
        assert reduced_char(lvl, image) == want, lvl.describe()
        assert reduced_char(lvl, xm) == want, lvl.describe()


@pytest.mark.parametrize("algebra", [("gl", n) for n in range(2, 10)]
                         + [("so", n) for n in range(3, 13)],
                         ids=lambda a: "%s%d" % a)
def test_walk_readers_match_qi_reference(algebra):
    # partial_kw, full_kw, coincidence_count and reduced_char read the
    # integer walk; the reference takes Q(i) steps and reads the
    # ring-generic Faddeev-LeVerrier loop and Pfaffian at every level
    ctx = make_algebra(*algebra)
    s = Sampler("walk-readers/%s%d" % algebra)
    for x in [_mixed_sample(ctx, s, ctx.n),
              s.algebra_element(ctx) + s.algebra_element(ctx).scale(I),
              Mat.zeros(ctx.n)]:
        _assert_walk_readers_match_qi_reference(ctx, x)
