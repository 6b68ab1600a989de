import pytest

from gzlie.scalars import ZERO, ONE, I
from gzlie import korbits, rand
from gzlie.matrices import Mat, bracket, inverse, row_space_contains
from gzlie.liealg import make_algebra, Root, adjoint, MAX_N
from gzlie.invariants import partial_kw, coincidence_count
from gzlie.regularity import nsreg_intersection, is_nsreg
from gzlie.korbits import (COMPACT, NONCOMPACT, COMPLEX_STABLE,
                           COMPLEX_UNSTABLE, classify_root_type,
                           closed_orbits, enumerate_orbits,
                           orbit_by_name, orbit_graph,
                           orbit_graph_text, stable_parabolic,
                           nilfibre_components, nilfibre_overlap_vector,
                           sample_nilfibre, sample_yq, sample_g0,
                           sample_chain_disjoint, xi_slot_count, sample_xi,
                           xi_shape, xi_flip_element, _theta_q_data)
from gzlie.rand import Sampler
from gzlie.suites import _mixed_sample
from qi_reference import (theta_q_data_by_conjugation,
                          borel_basis_by_conjugation,
                          orbit_codim_by_intersection, contains,
                          preserves_form, degenerate_to_levi, from_ints,
                          sample_xi_by_sums, xi_shape_by_span,
                          in_parabolic_by_span, sample_g0_by_euclid,
                          sample_chain_disjoint_by_euclid,
                          mixed_sample_by_sums)


@pytest.mark.parametrize("n", range(3, 10))
def test_orbit_counts_and_codims(n):
    # B_l: l+2 orbits (two closed at codim l); D_l: l orbits (one closed
    # at codim l-1); codimension counts follow from dim K/B_K
    ctx = make_algebra("so", n)
    orbits, edges = enumerate_orbits(ctx)
    l = ctx.l
    if n % 2 == 1:
        assert len(orbits) == l + 2
        closed = [o for o in orbits if o.closed]
        assert len(closed) == 2 and all(o.codim == l for o in closed)
        assert sorted(o.codim for o in orbits) == [0] + list(range(1, l)) \
            + [l, l]
    else:
        assert len(orbits) == l
        closed = [o for o in orbits if o.closed]
        assert len(closed) == 1 and closed[0].codim == l - 1
        assert sorted(o.codim for o in orbits) == list(range(l))
    # there is exactly one open orbit and every non-closed orbit is reached
    assert sum(1 for o in orbits if o.codim == 0) == 1
    reached = {t for (_, _, t) in edges}
    for o in orbits:
        if not o.closed:
            assert o.name in reached


@pytest.mark.parametrize("n", range(3, 13))
def test_orbit_records_match_conjugation(n):
    # the monomial reading of theta_Q against conjugating the Cartan and
    # the imaginary root vectors with the matrix theta_Q; the sections
    # Ad(k v)y, y in the standard Borel, against Ad(k) of a draw over the
    # conjugated Borel Ad(v)b, draw for draw from equal seeds
    ctx = make_algebra("so", n)
    s, ref = Sampler(n), Sampler(n)
    for o in enumerate_orbits(ctx)[0]:
        v, v_inv = o.conjugator, inverse(o.conjugator)
        assert (o.action, o.compact_signs) == theta_q_data_by_conjugation(
            ctx, v, v_inv)
        borel = borel_basis_by_conjugation(ctx, v, v_inv)
        for _ in range(2):
            y = ref.span_element(borel)
            assert sample_yq(ctx, o, s) == adjoint(
                ref.subgroup_element(ctx), y)


@pytest.mark.parametrize("n", range(3, MAX_N + 1))
def test_orbit_codim_matches_intersection_reference(n):
    # the codimension read off theta_Q against dim k - dim(k meet Ad(v)b)
    ctx = make_algebra("so", n)
    for o in enumerate_orbits(ctx)[0]:
        assert o.codim == orbit_codim_by_intersection(ctx, o.conjugator)


def test_theta_q_data_rejects_a_conjugator_off_the_normalizer():
    for n in (5, 6):
        ctx = make_algebra("so", n)
        g = Sampler(n).group_element(ctx)
        with pytest.raises(AssertionError):
            _theta_q_data(ctx, g, inverse(g))
        with pytest.raises(AssertionError):
            theta_q_data_by_conjugation(ctx, g, inverse(g))


def test_so5_graph_shape():
    ctx = make_algebra("so", 5)
    graph = orbit_graph(ctx)
    names = {nd["name"] for nd in graph["nodes"]}
    assert names == {"Q+", "Q-", "Q1", "Q0"}
    arcs = {(e["from"], e["to"]) for e in graph["edges"]}
    # the two closed orbits merge into the codim-1 orbit, then a path down
    assert ("Q+", "Q1") in arcs and ("Q-", "Q1") in arcs
    assert ("Q1", "Q0") in arcs
    text = orbit_graph_text(graph)
    assert "Q+" in text and "alpha_" in text


def test_so6_graph_shape():
    ctx = make_algebra("so", 6)
    graph = orbit_graph(ctx)
    names = {nd["name"] for nd in graph["nodes"]}
    assert names == {"Q+", "Q1", "Q0"}
    arcs = [(e["from"], e["to"]) for e in graph["edges"]]
    # the two complex-stable simple roots give two distinct edges out of Q+
    assert arcs.count(("Q+", "Q1")) == 2
    assert ("Q1", "Q0") in arcs


def test_root_types_on_base_orbit_odd():
    # identity conjugator for so(5): long roots compact, short noncompact
    ctx = make_algebra("so", 5)
    q = closed_orbits(ctx)[0]
    want = {(1, -1): COMPACT, (1, 1): COMPACT, (1, 0): NONCOMPACT,
            (0, 1): NONCOMPACT}
    assert {c: classify_root_type(q.action, q.compact_signs, Root(c))
            for c in want} == want


def test_root_types_on_base_orbit_even():
    # so(6): theta swaps the middle pair, so e3 changes sign: roots through
    # e3 are complex, the rest compact imaginary
    ctx = make_algebra("so", 6)
    q = closed_orbits(ctx)[0]
    want = {(1, -1, 0): COMPACT, (1, 1, 0): COMPACT,
            (0, 1, -1): COMPLEX_STABLE, (0, -1, 1): COMPLEX_UNSTABLE}
    assert {c: classify_root_type(q.action, q.compact_signs, Root(c))
            for c in want} == want


def test_orbit_lookup():
    ctx = make_algebra("so", 5)
    assert orbit_by_name(ctx, "Q0").codim == 0
    with pytest.raises(ValueError,
                       match=r"^no orbit named 'Q9' in so\(5\): "
                             r"Q\+, Q-, Q1, Q0$"):
        orbit_by_name(ctx, "Q9")
    with pytest.raises(ValueError):
        enumerate_orbits(make_algebra("gl", 3))


@pytest.mark.parametrize("n,i", [(5, 0), (5, 1), (6, 0), (6, 1), (7, 2),
                                 (8, 2)])
def test_stable_parabolic_structure(n, i):
    ctx = make_algebra("so", n)
    par = stable_parabolic(ctx, i)
    assert par.levi_tag == ("so", n - 2 * i)
    assert len(par.z_basis) == i
    assert len(par.r_basis) == len(par.z_basis) + len(par.lss_basis) \
        + len(par.nilradical_basis)
    # closed under bracket, theta-stable, nilradical is an ideal
    rrows = [b.flatten() for b in par.r_basis]
    sz = ctx.n * ctx.n
    for a in par.r_basis[:6]:
        assert row_space_contains(rrows, ctx.theta(a).flatten(), sz)
        for b in par.r_basis[:6]:
            assert row_space_contains(rrows, bracket(a, b).flatten(), sz)
    nilrows = [b.flatten() for b in par.nilradical_basis]
    full = nilrows + [ZERO]  # keep shape when nilradical empty
    for a in par.r_basis[:6]:
        for u in par.nilradical_basis[:6]:
            assert row_space_contains(nilrows, bracket(a, u).flatten(), sz)


def test_stable_parabolic_rejects_bad_index():
    ctx = make_algebra("so", 6)
    with pytest.raises(ValueError):
        stable_parabolic(ctx, 2)        # limit is l-2 = 1 for D
    with pytest.raises(ValueError):
        stable_parabolic(make_algebra("gl", 4), 0)


@pytest.mark.parametrize("n,i", [(5, 1), (6, 1), (7, 1), (7, 2)])
def test_degeneration_preserves_partial_map(n, i):
    ctx = make_algebra("so", n)
    par = stable_parabolic(ctx, i)
    s = Sampler(n * i + 1)
    for _ in range(4):
        x = s.span_element(par.r_basis)
        y = degenerate_to_levi(ctx, x, i)
        assert partial_kw(ctx, y).values == partial_kw(ctx, x).values
    # an element with a negative non-Levi root coordinate is rejected
    low = ctx.basis[ctx.root_index[(-1, 1) + (0,) * (ctx.l - 2)]]
    with pytest.raises(ValueError):
        degenerate_to_levi(ctx, low, i)


def test_nilfibre_components_and_overlap():
    for n in (5, 6, 7):
        ctx = make_algebra("so", n)
        comps = nilfibre_components(ctx)
        assert len(comps) == (2 if n % 2 == 1 else 1)
        s = Sampler(n)
        for ci in range(len(comps)):
            x = sample_nilfibre(ctx, s, ci)
            assert contains(ctx, x)
            # the whole fibre maps to zero
            assert all(v == ZERO for v in partial_kw(ctx, x).values)


def test_nilfibre_bases_are_built_once_per_context():
    for n in range(3, 10):
        ctx = make_algebra("so", n)
        comps = nilfibre_components(ctx)
        assert nilfibre_components(ctx) is comps
        assert nilfibre_components.__wrapped__(ctx) == comps
        for comp in range(len(comps) if n > 3 else 0):
            line = nilfibre_overlap_vector(ctx, comp)
            assert nilfibre_overlap_vector(ctx, comp) is line
            assert nilfibre_overlap_vector.__wrapped__(ctx, comp) == line


def test_sample_chain_disjoint_refuses_a_draw_at_its_first_common_root(
        monkeypatch):
    ctx = make_algebra("so", 7)
    good = sample_chain_disjoint(ctx, Sampler(3))
    s = Sampler(3)
    draws = iter([Mat.zeros(7), good])
    monkeypatch.setattr(s, "algebra_element", lambda c: next(draws))
    walked = []
    read = korbits.reduced_char

    def counted(lvl, image):
        walked.append(lvl.n)
        return read(lvl, image)
    monkeypatch.setattr(korbits, "reduced_char", counted)
    assert sample_chain_disjoint(ctx, s) is good
    # zero has a common root at the top pair: levels 7 and 6 only
    assert walked == [7, 6] + [lvl.n for lvl in ctx.levels]


def test_group_element_gives_up_after_max_tries(monkeypatch):
    # a kernel that never answers full rank raises instead of hanging
    calls = []

    def never(rows, ncols):
        calls.append(ncols)
        return False
    monkeypatch.setattr(rand, "full_rank_zi_rows", never)
    with pytest.raises(RuntimeError, match="invertible Cayley transform"):
        Sampler(1).group_element(make_algebra("so", 5))
    # one question per draw whose I + a is invertible
    assert 0 < len(calls) <= rand.MAX_TRIES


def test_overlap_vector_obstructs_nsreg():
    for n, comp in [(5, 0), (5, 1), (6, 0), (7, 0)]:
        ctx = make_algebra("so", n)
        s = Sampler(n + comp)
        comps = nilfibre_components(ctx)
        vec = nilfibre_overlap_vector(ctx, comp).flatten()
        for _ in range(3):
            x = s.span_element(comps[comp], nonzero=True)
            inter = nsreg_intersection(ctx, x)
            assert inter, "nilfibre elements are never nsreg here"
            assert row_space_contains([z.flatten() for z in inter], vec,
                                      ctx.n * ctx.n)
            assert not is_nsreg(ctx, x)


def test_yq_and_g0_samplers():
    ctx = make_algebra("so", 5)
    s = Sampler(77)
    q1 = orbit_by_name(ctx, "Q1")
    y = sample_yq(ctx, q1, s)
    assert contains(ctx, y)
    assert coincidence_count(ctx, y) >= q1.codim
    g = sample_g0(ctx, s)
    assert coincidence_count(ctx, g) == 0


def test_chain_disjoint_sampler():
    ctx = make_algebra("so", 6)
    x = sample_chain_disjoint(ctx, Sampler(5))
    assert contains(ctx, x)
    assert coincidence_count(ctx, x) == 0


@pytest.mark.parametrize("n", [5, 6, 7])
def test_xi_patterns_round_trip(n):
    ctx = make_algebra("so", n)
    slots = xi_slot_count(ctx)
    assert slots == (ctx.l if n % 2 == 1 else ctx.l - 1)
    s = Sampler(n)
    for i in range(slots + 1):
        for mask in range(2 ** i):
            pat = "".join("U" if (mask >> j) & 1 else "L" for j in range(i))
            x = sample_xi(ctx, i, pat, s)
            assert contains(ctx, x)
            assert xi_shape(ctx, x, i) == pat
    with pytest.raises(ValueError):
        sample_xi(ctx, 1, "X", s)
    with pytest.raises(ValueError):
        sample_xi(ctx, 2, "U", s)


@pytest.mark.parametrize("n", [5, 6])
def test_xi_flip_elements(n):
    # conjugation by the flip element turns an L in slot j into a U
    ctx = make_algebra("so", n)
    s = Sampler(n + 3)
    slots = xi_slot_count(ctx)
    for j in range(slots):
        pat = list("U" * slots)
        pat[j] = "L"
        pat = "".join(pat)
        x = sample_xi(ctx, slots, pat, s)
        g = xi_flip_element(ctx, j)
        assert preserves_form(ctx, g)
        y = adjoint(g, x)
        got = xi_shape(ctx, y, slots)
        assert got is not None and got[j] == "U"


def test_xi_shape_rejects_outsiders():
    ctx = make_algebra("so", 5)
    x = sample_xi(ctx, 1, "U", Sampler(4))
    # adding a long-root vector leaves the patterned span
    x2 = x + ctx.basis[ctx.root_index[(1, -1)]]
    assert xi_shape(ctx, x2, 1) is None


def test_xi_shape_refuses_a_slot_count_out_of_range():
    ctx = make_algebra("so", 5)
    x = sample_xi(ctx, 1, "U", Sampler(4))
    for i in (3, -1):
        with pytest.raises(ValueError, match="slot count"):
            xi_shape(ctx, x, i)
    assert xi_shape(ctx, x, 2) is None        # slot 2 is generic


def _read_back(ctx, mat, supports):
    """korbits._span_coordinates, checked to give the same coordinates with
    every support reversed, so that an entry -1 leads."""
    coords = korbits._span_coordinates(ctx, mat, supports)
    flipped = [sup[::-1] for sup in supports]
    assert korbits._span_coordinates(ctx, mat, flipped) == coords
    return coords


@pytest.mark.parametrize("n", range(3, 13))
def test_xi_family_matches_qi_sums_and_flattened_spans(n):
    # sample_xi writes x once through the supports, and xi_shape and the
    # xi-families parabolic check read coordinates back at leading entries:
    # the same draws and random calls as the Q(i) sums they replaced, the
    # same answers as span membership on flattened matrices, on every
    # pattern, on the flipped elements and on elements off the family
    ctx = make_algebra("so", n)
    slots = xi_slot_count(ctx)
    limit = ctx.l - 1 if n % 2 == 1 else ctx.l - 2
    parabolic = [korbits._supports(ctx.borel_basis if i > limit else
                                   stable_parabolic(ctx, i).r_basis)
                 for i in range(slots + 1)]
    family = sum(korbits._xi_supports(ctx), [])
    # basis vectors off the family's span: on even so, the halves e and
    # theta(e) of the slot vectors too (so(3) is the family's span)
    outside = [b for b in ctx.basis if xi_shape_by_span(ctx, b, 0) is None]
    assert bool(outside) == (n > 3)
    extra = Sampler("xi-off/%d" % n)
    answers = set()
    for i in range(slots + 1):
        for mask in range(2 ** i):
            pat = "".join("U" if (mask >> j) & 1 else "L" for j in range(i))
            seed = "xi/%d/%s/%d" % (n, pat, i)
            s, ref = Sampler(seed), Sampler(seed)
            x = sample_xi(ctx, i, pat, s)
            assert x == sample_xi_by_sums(ctx, i, pat, ref)
            assert s.rnd.getstate() == ref.rnd.getstate()
            assert contains(ctx, x) and xi_shape(ctx, x, i) == pat
            gen = extra.algebra_element(ctx)
            mats = [x, x.scale(ONE + I), gen,
                    gen + extra.algebra_element(ctx).scale(I)]
            if outside:
                mats.append(x + outside[mask % len(outside)])
            if "L" in pat:
                mats.append(adjoint(xi_flip_element(ctx, pat.index("L")),
                                    x))
            for y in mats:
                _read_back(ctx, y, family)
                for k in {i, slots}:
                    assert xi_shape(ctx, y, k) == xi_shape_by_span(ctx, y, k)
                inside = _read_back(ctx, y, parabolic[i]) is not None
                assert inside == in_parabolic_by_span(ctx, y, i)
                answers.add(inside)
    assert answers == {True, False}


@pytest.mark.parametrize("kind,n", [("gl", 3), ("gl", 4), ("gl", 5),
                                    ("so", 4), ("so", 5), ("so", 6),
                                    ("so", 7)])
def test_family_draws_match_qi_references(kind, n):
    # the same elements and the same random calls in the same order as the
    # Q(i) sums and the Euclidean gcd tests they replaced
    ctx = make_algebra(kind, n)
    for seed in range(3):
        pairs = [(lambda s, t=t: _mixed_sample(ctx, s, t),
                  lambda s, t=t: mixed_sample_by_sums(ctx, s, t))
                 for t in (3, 4, 5)]
        pairs += [(lambda s: sample_g0(ctx, s),
                   lambda s: sample_g0_by_euclid(ctx, s)),
                  (lambda s: sample_chain_disjoint(ctx, s),
                   lambda s: sample_chain_disjoint_by_euclid(ctx, s))]
        for draw, ref_draw in pairs:
            s, ref = Sampler(seed), Sampler(seed)
            assert draw(s) == ref_draw(ref)
            assert s.rnd.getstate() == ref.rnd.getstate()


def test_samplers_refuse_planted_coincidences(monkeypatch):
    ctx = make_algebra("gl", 3)
    # eigenvalues 1, 2, 3 over a gl(2) block with 1, 2: coincident on top
    top = from_ints([[1, 1, 0], [0, 2, 1], [0, 0, 3]])
    # the gl(2) block [[1, 1], [0, 2]] shares 1 with the gl(1) corner, and
    # det(t - x) is -3 at t = 1 and -4 at t = 2: coincident at the last
    # pair only
    bottom = from_ints([[1, 1, 0], [0, 2, 1], [3, 1, 5]])
    good = sample_chain_disjoint(ctx, Sampler(3))
    assert coincidence_count(ctx, top) == 2
    assert coincidence_count(ctx, bottom) == 0
    assert coincidence_count(ctx.child, ctx.down(bottom)) == 1
    for g0, chain in ((sample_g0, sample_chain_disjoint),
                      (sample_g0_by_euclid, sample_chain_disjoint_by_euclid)):
        s = Sampler(3)
        draws = iter([top, bottom])
        monkeypatch.setattr(s, "algebra_element", lambda c: next(draws))
        assert g0(ctx, s) is bottom
        draws = iter([top, bottom, good])
        assert chain(ctx, s) is good
