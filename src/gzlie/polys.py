"""Dense univariate polynomials over Q(i), coefficient lists low degree first.

Zero is the empty list.  gcds are returned monic so that common-root counting
by gcd degree is well defined.
"""

from __future__ import annotations

from .scalars import ZERO, ONE


def normalize(p):
    n = len(p)
    while n and not p[n - 1]:
        n -= 1
    return p[:n]


def degree(p):
    return len(p) - 1  # -1 for the zero polynomial


def add(a, b):
    if len(a) < len(b):
        a, b = b, a
    res = list(a)
    for k in range(len(b)):
        res[k] = res[k] + b[k]
    return normalize(res)


def sub(a, b):
    return add(a, [-c for c in b])


def scale(a, c):
    if not c:
        return []
    return [c * x for x in a]


def mul(a, b):
    if not a or not b:
        return []
    res = [ZERO] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if not ai:
            continue
        for j, bj in enumerate(b):
            res[i + j] = res[i + j] + ai * bj
    return normalize(res)


def divmod_exact(a, b):
    """Field division with remainder: a = q*b + r, deg r < deg b."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    r = list(a)
    q = [ZERO] * max(len(a) - len(b) + 1, 0)
    db = degree(b)
    lead = b[-1]
    while len(normalize(r)) - 1 >= db:
        r = normalize(r)
        k = len(r) - 1 - db
        c = r[-1] / lead
        q[k] = c
        for j in range(len(b)):
            r[k + j] = r[k + j] - c * b[j]
        r = r[:-1]
    return normalize(q), normalize(r)


def monic(p):
    if not p:
        return []
    lead = p[-1]
    if lead == ONE:
        return list(p)
    return [c / lead for c in p]


def gcd(a, b):
    """Monic gcd by the Euclidean algorithm; gcd(0, 0) = 0."""
    a, b = normalize(list(a)), normalize(list(b))
    while b:
        _, r = divmod_exact(a, b)
        a, b = b, r
    return monic(a)


def even_part(p, parity):
    """For p(x) with p(-x) = (-1)**parity * p(x), return q with
    p(x) = x**parity * q(x**2).  Raises if p lacks the claimed parity."""
    p = normalize(list(p))
    if not p:
        return []
    for k, c in enumerate(p):
        if (k - parity) % 2 != 0 and c:
            raise ValueError("polynomial does not have parity %d" % parity)
    return [p[k] for k in range(parity, len(p), 2)]

