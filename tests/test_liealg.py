import json
import os
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from gzlie import liealg
from gzlie.scalars import QI, rat, ZERO, ONE, I, parse_scalar
from gzlie.matrices import Mat, bracket, char_poly_fl, zi_matrix, qi_matrix
from gzlie.liealg import (make_algebra, Root, root_vector, root_value,
                          sl2_triple, weyl_representative, cayley_element,
                          adjoint, project_to_subalgebra,
                          embed_from_subalgebra, MAX_N, CHAIN_FLOOR,
                          MINUS_ONE)
from gzlie.invariants import coincidence_count, partial_kw
from gzlie.korbits import enumerate_orbits, sample_yq
from gzlie.rand import Sampler
from gzlie.suites import SuiteConfig, run_all
from qi_reference import (k_basis_by_nullspace, chain_down_dense,
                          chain_up_dense, group_up_dense, theta_fixed_part,
                          qi, mat_copy, transpose, contains, coordinates,
                          cartan_coordinates, preserves_form, form)

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def diag_cartan(ctx, vals):
    m = Mat.zeros(ctx.n)
    for c, h in zip(vals, ctx.cartan_basis):
        m = m + rat(c) * h
    return m


@pytest.mark.parametrize("kind,n,dim", [
    ("gl", 1, 1), ("gl", 3, 9), ("gl", 4, 16),
    ("so", 2, 1), ("so", 3, 3), ("so", 4, 6), ("so", 5, 10),
    ("so", 6, 15), ("so", 7, 21),
])
def test_dimensions(kind, n, dim):
    ctx = make_algebra(kind, n)
    assert ctx.dim == dim
    assert len(ctx.cartan_basis) == ctx.l
    assert ctx.dim == len(ctx.roots) + ctx.l


def test_root_counts_and_simples():
    so5 = make_algebra("so", 5)
    assert len(so5.positive_roots) == 4
    assert {r.coords for r in so5.simple_roots} == {(1, -1), (0, 1)}
    so6 = make_algebra("so", 6)
    assert len(so6.positive_roots) == 6
    assert {r.coords for r in so6.simple_roots} == {
        (1, -1, 0), (0, 1, -1), (0, 1, 1)}
    gl3 = make_algebra("gl", 3)
    assert len(gl3.positive_roots) == 3


def test_membership_and_coordinates():
    ctx = make_algebra("so", 5)
    s = Sampler(3)
    x = s.algebra_element(ctx)
    assert contains(ctx, x)
    assert ctx.from_coordinates(coordinates(ctx, x)) == x
    # corrupt one entry and check the diagnostic carries a location
    bad = mat_copy(x)
    bad.a[0][1] = bad.a[0][1] + ONE
    msgs = ctx.membership_violations(bad)
    assert msgs and "(1,2)" in msgs[0]
    # every basis matrix satisfies Z^T S + S Z = 0
    for b in ctx.basis:
        assert (transpose(b) * form(5) + form(5) * b).is_zero()


def test_theta_is_involutive_automorphism():
    for kind, n in [("so", 5), ("so", 6), ("gl", 3)]:
        ctx = make_algebra(kind, n)
        s = Sampler(n)
        x, y = s.algebra_element(ctx), s.algebra_element(ctx)
        assert ctx.theta(ctx.theta(x)) == x
        assert ctx.theta(bracket(x, y)) == bracket(ctx.theta(x), ctx.theta(y))
        fixed = theta_fixed_part(ctx, x)
        anti = x - fixed
        assert fixed + anti == x
        assert ctx.theta(fixed) == fixed and ctx.theta(anti) == -anti


@pytest.mark.parametrize("kind,n", [("so", 5), ("so", 6), ("gl", 4)])
def test_fixed_subalgebra_dimension(kind, n):
    ctx = make_algebra(kind, n)
    child = make_algebra(kind, n - 1)
    assert ctx.k_dim() == child.dim


@pytest.mark.parametrize("kind,n", [("so", 5), ("so", 6), ("so", 7),
                                    ("gl", 3)])
def test_chain_projection_is_homomorphism(kind, n):
    ctx = make_algebra(kind, n)
    child = ctx.child
    s = Sampler(7)
    for _ in range(5):
        x = s.span_element(ctx.k_basis)
        y = s.span_element(ctx.k_basis)
        dx, dy = ctx.down(x), ctx.down(y)
        assert contains(child, dx)
        assert ctx.down(bracket(x, y)) == bracket(dx, dy)
        # up is a section of down on the fixed part
        assert ctx.down(ctx.up(dx)) == dx
        assert ctx.up(dx) == x


def _pinned_mat(entry):
    if entry is None:
        return None
    out = Mat.zeros(*entry["shape"])
    for i, j, v in entry["nonzeros"]:
        out.a[i][j] = parse_scalar(v)
    return out


def test_chain_maps_match_fixture():
    # chain_maps.json holds chain_TD, chain_PD (null at the chain floor)
    # and theta_mat of every context, as shape plus nonzero entries
    with open(os.path.join(FIXTURES, "chain_maps.json")) as fh:
        pinned = json.load(fh)
    seen = 0
    for kind, floor in CHAIN_FLOOR.items():
        for n in range(floor, MAX_N + 1):
            ctx = make_algebra(kind, n)
            want = pinned["%s(%d)" % (kind, n)]
            for name in ("chain_TD", "chain_PD", "theta_mat"):
                assert getattr(ctx, name) == _pinned_mat(want[name]), (
                    kind, n, name)
            seen += 1
    assert seen == len(pinned)


@pytest.mark.parametrize("kind", ["gl", "so"])
def test_chain_step_needs_no_theta_averaging(kind):
    # theta fixes the columns of TD and the rows of PD up to one common
    # sign, so PD theta(x) TD = PD x TD for every square matrix x: the
    # projection of x equals that of its theta-fixed part.  theta and k,
    # read as a signed relabeling, match conjugation by theta_mat and the
    # nullspace of Theta - id
    s = Sampler(kind)
    for n in range(CHAIN_FLOOR[kind] + 1, MAX_N + 1):
        ctx = make_algebra(kind, n)
        assert ctx.chain_PD * ctx.chain_TD == Mat.identity(n - 1)
        x = Mat([[s.rational() for _ in range(n)] for _ in range(n)])
        assert kind == "gl" or not contains(ctx, x)
        assert ctx.down(ctx.theta(x)) == ctx.down(x)
        assert ctx.down(theta_fixed_part(ctx, x)) == ctx.down(x)
        t = ctx.theta_mat
        assert ctx.theta(x) == t * x * t
        assert ctx.k_basis == k_basis_by_nullspace(ctx)


def _gaussian_matrix(rnd, m, n):
    """An m x n matrix of Q(i) entries, about a third of them zero and half
    of the rest with an imaginary part."""
    def entry():
        if rnd.random() < 0.3:
            return ZERO
        im = rnd.random() < 0.5
        return qi(Fraction(rnd.randint(-9, 9), rnd.randint(1, 4)),
                  Fraction(rnd.randint(-9, 9), rnd.randint(1, 4)) if im else 0)
    return Mat([[entry() for _ in range(n)] for _ in range(m)])


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=8, deadline=None)
def test_chain_step_matches_dense_products(seed):
    # down and up, read from the index lists of PD and TD, equal the dense
    # products PD x TD and TD y PD entry by entry, for every chain step up
    # to MAX_N and on square matrices outside the algebra too
    rnd = random.Random(seed)
    for kind, floor in sorted(CHAIN_FLOOR.items()):
        for n in range(floor + 1, MAX_N + 1):
            ctx = make_algebra(kind, n)
            x = _gaussian_matrix(rnd, n, n)
            y = _gaussian_matrix(rnd, n - 1, n - 1)
            assert ctx.down(x) == chain_down_dense(ctx, x), (kind, n)
            assert ctx.up(y) == chain_up_dense(ctx, y), (kind, n)


def test_down_coords_match_dense_step_of_every_basis_vector():
    # down_coords[k] / down_scale are the coordinates of PD b_k TD over the
    # child's basis, for every basis vector of every chain step up to MAX_N;
    # each step's scale has gcd 1 with its weights, so it is their least
    # common denominator
    for kind, floor in sorted(CHAIN_FLOOR.items()):
        for n in range(floor + 1, MAX_N + 1):
            ctx = make_algebra(kind, n)
            s = ctx.down_scale
            assert s == ctx._up_scale == (
                2 if kind == "so" and n % 2 == 0 else 1)
            for cells in (ctx._down_cells, ctx._up_cells):
                assert gcd(s, *(w for crow in cells for terms in crow
                                for _, _, w in terms)) == 1, (kind, n)
            for b, pairs in zip(ctx.basis, ctx.down_coords):
                coords = [ZERO] * ctx.child.dim
                for l, w in pairs:
                    coords[l] = rat(w, s)
                assert (ctx.child.from_coordinates(coords)
                        == chain_down_dense(ctx, b)), (kind, n)


def test_cancelled_chain_step_entries_are_the_shared_zero():
    # on even so the middle entry of PD x TD is a sum of four entries of x
    # that cancels for every x in the algebra
    for n in (4, 6, 8):
        ctx = make_algebra("so", n)
        x = Sampler(n).algebra_element(ctx)
        assert ctx.down(x).a[n // 2 - 1][n // 2 - 1] is ZERO


def test_basis_rows_stay_shared_and_read_only():
    # the basis matrices of one size share a single zero row, and their -1
    # entries one scalar; the standard Borel basis is made of those same
    # matrices.  An orbit-sections round (orbit tables of so(3..12),
    # sections on so(5..9)) and a verify run must write into none of them
    for n in range(3, 13):
        ctx = make_algebra("so", n)
        orbits, _ = enumerate_orbits(ctx)
        if 5 <= n <= 9:
            s = Sampler(n)
            for orbit in orbits:
                x = sample_yq(ctx, orbit, s)
                coincidence_count(ctx, x)
                partial_kw(ctx, x)
    run_all(SuiteConfig("all", seed=0, n_max=5))
    for n, row in liealg._ZERO_ROWS.items():
        assert len(row) == n and all(v is ZERO for v in row)
    for (kind, n), ctx in liealg._CONTEXTS.items():
        shared = {id(b) for b in ctx.basis}
        assert all(id(b) in shared for b in ctx.borel_basis)
        for mats, supports in ((ctx.basis, ctx.basis_supports),
                               (ctx.k_basis, ctx.k_supports)):
            for b, support in zip(mats, supports):
                want = Mat.zeros(n)
                for i, j, c in support:
                    want.a[i][j] = rat(c)
                    assert b.a[i][j] is (ONE if c == 1 else MINUS_ONE)
                assert b == want, (kind, n)
                held = {i for i, _, _ in support}
                assert all(r is liealg._ZERO_ROWS[n]
                           for i, r in enumerate(b.a) if i not in held)


def test_projection_embedding_round_trip():
    ctx = make_algebra("so", 7)
    s = Sampler(11)
    y = s.algebra_element(ctx.level(4))
    top = embed_from_subalgebra(ctx, y, 4)
    assert contains(ctx, top)
    assert project_to_subalgebra(ctx, top, 4) == y
    # iterated single steps agree with the convenience wrapper
    x = s.algebra_element(ctx)
    step = ctx.child.child.down(ctx.child.down(ctx.down(x)))
    assert step == project_to_subalgebra(ctx, x, 4)


def _dense_chain(ctx, x):
    """x, then PD x TD composed one level at a time down to the floor: the
    dense reference of the walk (qi_reference.chain_down_dense)."""
    out = [x]
    for step in ctx.levels[:-1]:
        out.append(chain_down_dense(step, out[-1]))
    return out


@pytest.mark.parametrize("kind", ["gl", "so"])
def test_chain_walk_matches_projection_at_every_size(kind):
    # levels is the chain of shared contexts, top first; chain(x) yields
    # each level with x projected there, the floor included.  The walk,
    # project_to_subalgebra and embed_from_subalgebra all read the integer
    # steps, so each is pinned to the dense products PD x TD and TD y PD
    # composed level by level
    floor = CHAIN_FLOOR[kind]
    s = Sampler("chain-walk/" + kind)
    for n in range(floor, MAX_N + 1):
        ctx = make_algebra(kind, n)
        assert len(ctx.levels) == n - floor + 1
        for k, lvl in enumerate(ctx.levels):
            assert lvl is make_algebra(kind, n - k)
        x = s.algebra_element(ctx)
        dense = _dense_chain(ctx, x)
        walk = list(ctx.chain(x))
        assert walk == list(zip(ctx.levels, dense))
        assert walk == [(ctx.level(m), project_to_subalgebra(ctx, x, m))
                        for m in range(n, floor - 1, -1)]
        for k, (lvl, xm) in enumerate(walk):
            top = xm
            for step in reversed(ctx.levels[:k]):
                top = chain_up_dense(step, top)
            assert embed_from_subalgebra(ctx, xm, lvl.n) == top, (n, lvl.n)
            assert project_to_subalgebra(
                ctx, embed_from_subalgebra(ctx, xm, lvl.n), lvl.n) == xm
        for m in (floor - 1, n + 1):
            for call in (ctx.level,
                         lambda m: project_to_subalgebra(ctx, x, m),
                         lambda m: embed_from_subalgebra(ctx, x, m)):
                with pytest.raises(ValueError):
                    call(m)


@pytest.mark.parametrize("kind", ["gl", "so"])
def test_integer_step_down_matches_the_qi_step(kind):
    # at every level of gl(2..MAX_N) and so(3..MAX_N), for a real x and for
    # x plus i times another element: the walk's image (re, im, d) over d is
    # the dense Q(i) step PD x TD, composed level by level, entry by entry;
    # d is the least common denominator (gcd of d and every part is 1), so
    # the image is zi_matrix of the Q(i) step, and its Faddeev-LeVerrier
    # integers are those of char_poly_fl(x_m)
    s = Sampler("zi-step/" + kind)
    for n in range(CHAIN_FLOOR[kind] + 1, MAX_N + 1):
        ctx = make_algebra(kind, n)
        real = s.algebra_element(ctx)
        for x in (real, real + s.algebra_element(ctx).scale(QI(0, 1))):
            walk = ctx.walk(zi_matrix(x.a))
            for (lvl, image), xm in zip(walk, _dense_chain(ctx, x)):
                re, im, d = image
                assert qi_matrix(re, im, d) == xm, lvl.describe()
                parts = [v for part in (re, im or []) for row in part
                         for v in row]
                assert gcd(d, *parts) == 1, lvl.describe()
                assert image == zi_matrix(xm.a), lvl.describe()
                assert (char_poly_fl(image)[1].ints
                        == char_poly_fl(xm)[1].ints), lvl.describe()


def test_chain_walk_steps_down_only_when_asked(monkeypatch):
    # chain(x) is a view of the integer walk: each step is one down_zi
    ctx = make_algebra("so", 7)
    x = Sampler(4).algebra_element(ctx)
    steps = []
    down = liealg.AlgebraContext.down_zi
    monkeypatch.setattr(liealg.AlgebraContext, "down_zi",
                        lambda self, image: steps.append(self.n)
                        or down(self, image))
    walk = ctx.chain(x)
    assert next(walk) == (ctx, x) and steps == []
    assert next(walk)[0] is ctx.child and steps == [7]
    assert [lvl.n for lvl, _ in walk] == [5, 4, 3, 2]
    assert steps == [7, 6, 5, 4, 3]


def test_root_vectors_are_ad_eigenvectors():
    for kind, n in [("so", 5), ("so", 6), ("gl", 3)]:
        ctx = make_algebra(kind, n)
        h = diag_cartan(ctx, range(1, ctx.l + 1))
        coords = cartan_coordinates(ctx, h)
        for r in ctx.roots:
            e = root_vector(ctx, r)
            assert bracket(h, e) == root_value(r, coords) * e
    with pytest.raises(ValueError):
        root_vector(make_algebra("so", 5), Root((3, 3)))
    with pytest.raises(ValueError):
        cartan_coordinates(make_algebra("so", 5),
                           root_vector(make_algebra("so", 5), Root((1, -1))))


def test_sl2_triples():
    ctx = make_algebra("so", 6)
    for r in ctx.simple_roots:
        e, f, h = sl2_triple(ctx, r)
        assert bracket(e, f) == h
        assert bracket(h, e) == rat(2) * e
        assert bracket(h, f) == rat(-2) * f


def test_weyl_representative_reflects_cartan():
    ctx = make_algebra("so", 5)
    h = diag_cartan(ctx, [3, 7])
    # s_{e1-e2} swaps the first two Cartan coordinates
    v = weyl_representative(ctx, Root((1, -1)))
    assert preserves_form(ctx, v)
    assert cartan_coordinates(ctx, adjoint(v, h)) == [qi(7), qi(3)]
    # s_{e2} flips the second coordinate
    w = weyl_representative(ctx, Root((0, 1)))
    assert cartan_coordinates(ctx, adjoint(w, h)) == [qi(3), qi(-7)]


def test_cayley_element_lies_in_the_group():
    ctx = make_algebra("so", 5)
    u = cayley_element(ctx, Root((0, 1)))
    assert preserves_form(ctx, u)
    # genuinely complex: not defined over the rationals
    assert any(v.im for row in u.a for v in row)
    with pytest.raises(ValueError):
        cayley_element(ctx, Root((1, -1)))  # long root
    with pytest.raises(ValueError):
        cayley_element(make_algebra("gl", 3), Root((1, -1, 0)))


def test_group_up_lands_in_the_group():
    # group_up(g) = up(g) + (I - TD PD) is the dense TD (g - I) PD + I at
    # every chain step up to MAX_N, on a group element and on a Gaussian
    # matrix; on so it preserves the form, and Ad of a subgroup element
    # preserves the algebra
    for kind, floor in sorted(CHAIN_FLOOR.items()):
        for n in range(floor + 1, MAX_N + 1):
            ctx = make_algebra(kind, n)
            s = Sampler(5)
            g = s.group_element(ctx.child)
            lifted = ctx.group_up(g)
            assert lifted == group_up_dense(ctx, g), (kind, n)
            y = Mat([[s.rational() + s.small_rational() * I
                      for _ in range(n - 1)] for _ in range(n - 1)])
            assert ctx.group_up(y) == group_up_dense(ctx, y), (kind, n)
            if kind == "so":
                assert preserves_form(ctx, lifted), n
    for kind, n in [("so", 5), ("so", 6)]:
        ctx = make_algebra(kind, n)
        s = Sampler(5)
        g = s.subgroup_element(ctx)
        assert preserves_form(ctx, g)
        # Ad(g) preserves the algebra and commutes with projection
        x = s.algebra_element(ctx)
        assert contains(ctx, adjoint(g, x))


def test_basis_and_k_supports_are_disjoint():
    # from_coordinates writes each vector's entries by assignment, which
    # is the sum of the c_k b_k only when no position belongs to two
    # vectors of one support list; the centralizer bases are written
    # through the k supports that way
    for kind, floor in sorted(CHAIN_FLOOR.items()):
        for n in range(floor, MAX_N + 1):
            ctx = make_algebra(kind, n)
            for supports in (ctx.basis_supports, ctx.k_supports):
                cells = [(i, j) for sup in supports for i, j, _ in sup]
                assert len(cells) == len(set(cells)), (kind, n)
    for kind, n in [("gl", 4), ("so", 5), ("so", 6)]:
        ctx = make_algebra(kind, n)
        s = Sampler(n)
        coords = [s.rational() + s.rational() * I
                  for _ in range(ctx.k_dim())]
        total = Mat.zeros(n)
        for c, b in zip(coords, ctx.k_basis):
            total = total + c * b
        assert ctx.from_coordinates(coords, ctx.k_supports) == total


def test_adjoint_action_is_automorphism():
    ctx = make_algebra("so", 6)
    s = Sampler(9)
    g = s.group_element(ctx)
    x, y = s.algebra_element(ctx), s.algebra_element(ctx)
    assert adjoint(g, bracket(x, y)) == bracket(adjoint(g, x), adjoint(g, y))


def test_make_algebra_rejects_bad_args():
    with pytest.raises(ValueError):
        make_algebra("sp", 4)
    with pytest.raises(ValueError):
        make_algebra("so", 1)
    with pytest.raises(ValueError):
        make_algebra("gl", 0)
    with pytest.raises(ValueError, match="n <= %d" % MAX_N):
        make_algebra("so", MAX_N + 1)


def test_contexts_are_shared_down_the_chain():
    so7 = make_algebra("so", 7)
    assert make_algebra("so", 7) is so7
    assert so7.child is make_algebra("so", 6)
    assert so7.child.child is make_algebra("so", 5)
    assert make_algebra("gl", 4).child is make_algebra("gl", 3)
