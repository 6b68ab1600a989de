import pytest
from hypothesis import given, settings, strategies as st

from gzlie.scalars import QI, rat, ZERO, ONE, I
from gzlie import polys

import qi_reference
from qi_reference import qi

coeffs = st.lists(st.builds(rat, st.integers(-9, 9),
                            st.integers(1, 5)), max_size=5)
# Gaussian coefficients; a list may be empty (the zero polynomial), one
# entry long (a constant) or end in zeros
gaussian_coeffs = st.lists(
    st.builds(lambda a, b, d: rat(a, d) + rat(b, d) * I,
              st.integers(-4, 4), st.integers(-2, 2), st.integers(1, 3)),
    max_size=4)
# roots with repeats, 0 among them (u^k divides the reduced characteristic
# polynomials of nilpotent elements)
root_lists = st.lists(st.sampled_from([ZERO, ZERO, ONE, qi(-2), I, ONE + I,
                                       rat(1, 2)]), max_size=4)


def from_roots(roots):
    p = [ONE]
    for r in roots:
        rr = r if isinstance(r, QI) else QI(r)
        p = qi_reference.mul(p, [-rr, ONE])
    return p


def evaluate(p, x):
    acc = ZERO
    for c in reversed(p):
        acc = acc * x + c
    return acc


def test_degree_and_normalize():
    assert polys.degree([]) == -1
    assert polys.normalize([ZERO, ZERO]) == []
    assert polys.degree([qi(1), qi(0), qi(2)]) == 2


def test_mul_and_from_roots():
    # (x-1)(x-2) = x^2 - 3x + 2
    assert from_roots([1, 2]) == [qi(2), qi(-3), qi(1)]
    p = qi_reference.mul([qi(1), qi(1)], [qi(-1), qi(1)])
    assert p == [qi(-1), qi(0), qi(1)]


def test_divmod_exact():
    a = from_roots([1, 2, 3])
    b = from_roots([2])
    q, r = qi_reference.divmod_exact(a, b)
    assert r == []
    assert q == from_roots([1, 3])
    q2, r2 = qi_reference.divmod_exact(a, [qi(1), qi(1)])  # divide by x+1
    assert qi_reference.add(qi_reference.mul(q2, [qi(1), qi(1)]), r2) == a


def test_gcd_oracle():
    # gcd((x-1)^2 (x-2), (x-1)(x-3)) = x - 1, computed by hand
    a = from_roots([1, 1, 2])
    b = from_roots([1, 3])
    assert polys.gcd(a, b) == [qi(-1), qi(1)]
    # coprime pair
    assert polys.gcd(from_roots([1]), from_roots([2])) == [qi(1)]
    assert polys.gcd([], []) == []


@given(coeffs, coeffs)
@settings(max_examples=40)
def test_gcd_divides_both(a, b):
    g = polys.gcd(a, b)
    for p in (a, b):
        p = polys.normalize(p)
        if g:
            _, r = qi_reference.divmod_exact(p, g)
            assert r == []
        else:
            assert p == []


@given(root_lists, root_lists, gaussian_coeffs, gaussian_coeffs)
@settings(max_examples=150, deadline=None)
def test_gcd_matches_euclid(shared, extra, p, q):
    # products with the shared factor, and the raw cofactors themselves
    f, h = from_roots(shared), from_roots(extra)
    a = qi_reference.mul(f, p)
    b = qi_reference.mul(qi_reference.mul(f, h), q)
    for u, v in ((a, b), (p, q), (f, h), (p, [])):
        assert polys.gcd(u, v) == qi_reference.gcd(u, v)


@given(root_lists, root_lists, root_lists, st.booleans())
@settings(max_examples=150, deadline=None)
def test_gcd_degree_matches_gcd_with_planted_roots(shared, left, right,
                                                   gaussian):
    # polynomials with planted common roots, real or with i among their
    # roots, and scaled by a Gaussian rational; the zero polynomial too
    extra = [I, ONE + I] if gaussian else []
    c = rat(3, 2) + I if gaussian else rat(-2, 3)
    a = [c * v for v in from_roots(shared + left + extra)]
    b = from_roots(shared + right + extra[:1])
    for u, v in ((a, b), (b, a), (a, a), (a, []), ([], b), ([], [])):
        assert polys.gcd_degree(u, v) == polys.degree(polys.gcd(u, v))
    assert polys.gcd_degree(a, b) >= len(shared) + len(extra[:1])


def test_evaluate():
    p = from_roots([rat(1, 2), 3])
    assert evaluate(p, rat(1, 2)) == ZERO
    assert evaluate(p, qi(0)) == rat(3, 2)


def test_even_part():
    # x^4 - 5x^2 + 4 = q(x^2) with q(m) = m^2 - 5m + 4
    p = [qi(4), ZERO, qi(-5), ZERO, qi(1)]
    assert polys.even_part(p, 0) == [qi(4), qi(-5), qi(1)]
    # x^3 - 2x = x * q(x^2), q(m) = m - 2
    assert polys.even_part([ZERO, qi(-2), ZERO, qi(1)], 1) == [qi(-2), qi(1)]
    with pytest.raises(ValueError):
        polys.even_part([qi(1), qi(1)], 0)

