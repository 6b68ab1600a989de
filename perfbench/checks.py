"""Correctness checks for the workloads, run outside the timed phase.

They come from the paper's theorems and from sympy, which serves as a
computation made apart from the package: characteristic polynomials, gcds,
determinants and ranks are recomputed with ``sympy.polys.matrices`` over
Q(i).  Only data is read from the package's contexts (bases, the involution
and the chain matrices), never a computed answer.

Each ``check_*`` takes the records ``[(meta, summary), ...]`` of one round
and returns ``{record index: [problem, ...]}``.  Item checks run on every
record, or on ``only`` when given; the costly recomputations run on
``sample`` (default: a fixed subsample of the workload); group checks always
run on all records.
"""

from __future__ import annotations

from fractions import Fraction

from sympy import QQ, QQ_I, Poly, symbols
from sympy.polys.matrices import DomainMatrix

_U = symbols("u")


# --- sympy reference ---------------------------------------------------------

def to_qqi(z):
    return QQ_I(QQ(int(z.re.numerator), int(z.re.denominator)),
                QQ(int(z.im.numerator), int(z.im.denominator)))


def to_dm(mat):
    return DomainMatrix([[to_qqi(v) for v in row] for row in mat.a],
                        (mat.m, mat.n), QQ_I)


def fmt(z):
    """A Q(i) value in the package's document syntax: '0', '-1/2',
    '1/2+3*i', '-2*i'."""
    re = Fraction(int(z.x.numerator), int(z.x.denominator))
    im = Fraction(int(z.y.numerator), int(z.y.denominator))
    if im == 0:
        return str(re)
    imtxt = "%s*i" % im
    if re == 0:
        return imtxt
    return "%s%s%s" % (re, "+" if im > 0 else "", imtxt)


def project(ctx, x, m):
    """x (a DomainMatrix in ctx) projected to chain level m: at every step
    x -> P_D ((x + theta x theta) / 2) T_D with the level's matrices."""
    half = QQ_I(QQ(1, 2), QQ(0))
    cur = ctx
    while cur.n > m:
        t = to_dm(cur.theta_mat)
        x = to_dm(cur.chain_PD) * ((x + t * x * t) * half) * to_dm(
            cur.chain_TD)
        cur = cur.child
    return x


def _pfaffian(a, idx):
    if not idx:
        return QQ_I.one
    i, rest = idx[0], idx[1:]
    s = QQ_I.zero
    for t, j in enumerate(rest):
        if a[i][j]:
            term = a[i][j] * _pfaffian(a, rest[:t] + rest[t + 1:])
            s = s - term if t % 2 else s + term
    return s


def level_data(kind, xm):
    """(generator values, reduced characteristic polynomial, problems) of a
    level-m element, with the conventions of gzlie.invariants:
    gl: f_j = (-1)^j b_j of det(tI - x) = t^m + sum b_j t^(m-j);
    so(2k+1): det = t q(t^2), values c_1..c_k of q;
    so(2k): det = q(t^2), values c_1..c_(k-1) and pf(S x), c_k = (-1)^k pf^2.
    The reduced polynomial is returned highest degree first."""
    m = xm.shape[0]
    b = xm.charpoly()               # [1, b_1, ..., b_m]
    if kind == "gl":
        return [b[j] if j % 2 == 0 else -b[j] for j in range(1, m + 1)], b, []
    problems = ["odd coefficient of the so characteristic polynomial"]
    if not any(b[j] for j in range(1, m + 1, 2)):
        problems = []
    q = [b[j] for j in range(0, m + 1, 2)]
    k = len(q) - 1
    if m % 2:
        return q[1:], q, problems
    s_x = xm.to_list()[::-1]        # S x: S reverses the rows
    pf = _pfaffian(s_x, tuple(range(m)))
    if pf * pf != DomainMatrix(s_x, (m, m), QQ_I).det():
        problems.append("Pfaffian squared is not det(S x)")
    if q[k] != (pf * pf if k % 2 == 0 else -(pf * pf)):
        problems.append("constant coefficient is not (-1)^k pf^2")
    return q[1:k] + [pf], q, problems


def partial_reference(ctx, x):
    """(partial values as strings, coincidence count, problems)."""
    xd = to_dm(x)
    vs, qs, ps = level_data(ctx.kind, project(ctx, xd, ctx.n - 1))
    vt, qt, pt = level_data(ctx.kind, xd)
    gcd = Poly(qs, _U, domain=QQ_I).gcd(Poly(qt, _U, domain=QQ_I))
    return [fmt(v) for v in vs + vt], gcd.degree(), ps + pt


def nsreg_dim_reference(ctx, x):
    """dim(z_k(x_k) meet z_g(x)) by an exact sympy rank over the k basis."""
    xd = to_dm(x)
    t = to_dm(ctx.theta_mat)
    xk = (xd + t * xd * t) * QQ_I(QQ(1, 2), QQ(0))
    n = ctx.n
    cols = []
    for b in ctx.k_basis:
        bd = to_dm(b)
        col = []
        for y in (xd, xk):
            col.extend((bd * y - y * bd).to_list_flat())
        cols.append(col)
    rows = [list(r) for r in zip(*cols)]
    sysm = DomainMatrix(rows, (2 * n * n, len(cols)), QQ_I)
    return len(cols) - sysm.rank()


def _add(failed, i, why):
    failed.setdefault(i, []).append(why)


def _full_counts(ctx):
    return (ctx.invariant_rank(ctx.n) + ctx.invariant_rank(ctx.n - 1),
            sum(ctx.invariant_rank(m)
                for m in range(ctx.chain_floor(), ctx.n + 1)))


# --- kostant -----------------------------------------------------------------

def first_per_family(records):
    """First element of every (algebra, family) pair."""
    seen, out = set(), []
    for i, (meta, _) in enumerate(records):
        key = (meta["ctx"].describe(), meta["family"])
        if key not in seen:
            seen.add(key)
            out.append(i)
    return out


def check_kostant(g, records, only=None, sample=None):
    failed = {}
    idx = range(len(records)) if only is None else only
    for i in idx:
        meta, (nsreg, jrank) = records[i]
        full, _ = _full_counts(meta["ctx"])
        if nsreg != (jrank == full):
            _add(failed, i, "nsreg=%s but jacobian rank %d of %d"
                 % (nsreg, jrank, full))
    for i in (first_per_family(records) if sample is None else sample):
        meta, (nsreg, _) = records[i]
        dim = nsreg_dim_reference(meta["ctx"], meta["x"])
        if nsreg != (dim == 0):
            _add(failed, i, "nsreg=%s but sympy intersection dim %d"
                 % (nsreg, dim))
    by_alg = {}
    for i, (meta, (nsreg, _)) in enumerate(records):
        by_alg.setdefault(meta["ctx"].describe(), []).append((i, nsreg))
    for alg, outs in by_alg.items():
        if len({v for _, v in outs}) != 2:
            for i, _ in outs:
                _add(failed, i, "only one nsreg outcome on %s" % alg)
    return failed


# --- analyze -----------------------------------------------------------------

def check_analyze(g, records, only=None, sample=None):
    """The sympy recomputation runs on every checked item; the package's
    full chain Jacobian (slower than the item itself) only on ``sample``."""
    failed = {}
    idx = range(len(records)) if only is None else only
    jac_sample = set(first_per_family(records) if sample is None
                     else sample)
    for i in idx:
        meta, rep = records[i]
        ctx, fam = meta["ctx"], meta["family"]
        full, chain_full = _full_counts(ctx)
        floor = ctx.chain_floor()
        if rep["jacobian_full_rank"] != (rep["jacobian_rank"] == full):
            _add(failed, i, "jacobian_full_rank disagrees with the rank")
        if rep["nsreg"] != rep["jacobian_full_rank"]:
            _add(failed, i, "nsreg != jacobian_full_rank")
        if rep["regular"] != (rep["centralizer_dims"][-1]
                              == ctx.invariant_rank(ctx.n)):
            _add(failed, i, "regular disagrees with the centralizer dim")
        if fam == "chain" and not rep["sreg"]:
            _add(failed, i, "chain-disjoint element is not sreg")
        if rep["sreg"]:
            want = [ctx.invariant_rank(m) for m in range(floor, ctx.n + 1)]
            if rep["centralizer_dims"] != want:
                _add(failed, i, "sreg but centralizer dims %s != %s"
                     % (rep["centralizer_dims"], want))
            if i in jac_sample and g.regularity.full_map_jacobian_rank(
                    ctx, meta["x"]) != chain_full:
                _add(failed, i, "sreg but the chain jacobian is not full")
        if fam == "g0" and not rep["nsreg"]:
            _add(failed, i, "coincidence-free element is not nsreg")
        if fam == "nilfibre" and (rep["nsreg"] or any(
                v != "0" for v in rep["partial_values"])):
            _add(failed, i, "nilfibre element is nsreg or maps off zero")
    for i in idx:
        meta, rep = records[i]
        values, cc, problems = partial_reference(meta["ctx"], meta["x"])
        for p in problems:
            _add(failed, i, "sympy: " + p)
        if rep["partial_values"] != values:
            _add(failed, i, "partial values differ from sympy")
        if rep["coincidence"] != cc:
            _add(failed, i, "coincidence %d, sympy says %d"
                 % (rep["coincidence"], cc))
    return failed


# --- orbit-sections ----------------------------------------------------------

def _flag_dim(m):
    """Number of positive roots of so(m)."""
    k = m // 2
    return k * k if m % 2 else k * (k - 1)


def _expected_table(n):
    l = n // 2
    if n % 2:
        codims = sorted([l, l] + list(range(l)))
        top = l - 1
        edges = {("Q+", l - 1, "Q%d" % top), ("Q-", l - 1, "Q%d" % top)}
    else:
        codims = sorted([l - 1] + list(range(l - 1)))
        top = l - 2
        edges = {("Q+", l - 2, "Q%d" % top), ("Q+", l - 1, "Q%d" % top)}
    for i in range(top, 0, -1):
        edges.add(("Q%d" % i, i - 1, "Q%d" % (i - 1)))
    return codims, 2 if n % 2 else 1, edges


def orbit_sample(records):
    """First draw of every orbit."""
    return [i for i, (meta, _) in enumerate(records)
            if meta["kind"] == "section" and meta["draw"] == 0]


def check_orbit(g, records, only=None, sample=None):
    failed = {}
    idx = range(len(records)) if only is None else only
    for i in idx:
        meta, out = records[i]
        if meta["kind"] == "section":
            if out["coincidence"] < meta["codim"]:
                _add(failed, i, "coincidence %d below codim %d"
                     % (out["coincidence"], meta["codim"]))
            continue
        n = meta["n"]
        codims, closed, edges = _expected_table(n)
        got = out["orbits"]
        if len(got) != (n // 2 + 2 if n % 2 else n // 2):
            _add(failed, i, "so(%d) has %d orbits" % (n, len(got)))
        if sorted(c for _, c, _ in got) != codims:
            _add(failed, i, "so(%d) codims differ" % n)
        if sum(cl for _, _, cl in got) != closed:
            _add(failed, i, "so(%d) closed-orbit count differs" % n)
        if set(out["edges"]) != edges:
            _add(failed, i, "so(%d) monoid edges differ" % n)
        for name, codim, cl in got:
            if cl and _flag_dim(n) - codim != _flag_dim(n - 1):
                _add(failed, i, "closed orbit %s has the wrong dim" % name)
    for i in (orbit_sample(records) if sample is None else sample):
        meta, out = records[i]
        if meta["kind"] != "section":
            continue
        values, cc, problems = partial_reference(meta["ctx"], out["x"])
        for p in problems:
            _add(failed, i, "sympy: " + p)
        if [str(v) for v in out["values"]] != values:
            _add(failed, i, "partial values differ from sympy")
        if out["coincidence"] != cc:
            _add(failed, i, "coincidence %d, sympy says %d"
                 % (out["coincidence"], cc))
    # genericity: every orbit reaches coincidence == codim on some draw, and
    # more than half of each algebra's draws do (a per-orbit majority would
    # fail on some seeds: up to 13% of one orbit's draws are non-generic)
    by_orbit, by_alg = {}, {}
    for i, (meta, out) in enumerate(records):
        if meta["kind"] == "section":
            exact = out["coincidence"] == meta["codim"]
            by_orbit.setdefault((meta["n"], meta["orbit"]), []).append(
                (i, exact))
            by_alg.setdefault(meta["n"], []).append((i, exact))
    for key, outs in by_orbit.items():
        if not any(e for _, e in outs):
            for i, _ in outs:
                _add(failed, i, "no draw of so(%d) %s is generic" % key)
    for n, outs in by_alg.items():
        if 2 * sum(e for _, e in outs) <= len(outs):
            for i, _ in outs:
                _add(failed, i, "most so(%d) sections are not generic" % n)
    return failed


CHECKS = {"kostant": check_kostant, "analyze": check_analyze,
          "orbit-sections": check_orbit}


# --- self-test ---------------------------------------------------------------

def _flip_nsreg(summary):
    if isinstance(summary, tuple):
        return (not summary[0], summary[1])
    return dict(summary, nsreg=not summary["nsreg"])


def _bump_coincidence(summary):
    return dict(summary, coincidence=summary["coincidence"] + 1)


def _drop_orbit(summary):
    return dict(summary, orbits=summary["orbits"][:-1])


def self_test(name, g, records):
    """Feed the checker one deliberately wrong answer per corruption and
    return the corruptions it failed to count as failed."""
    corruptions = {
        "kostant": [("flipped nsreg", _flip_nsreg, lambda m: True)],
        "analyze": [("flipped nsreg", _flip_nsreg, lambda m: True),
                    ("coincidence off by one", _bump_coincidence,
                     lambda m: True)],
        "orbit-sections": [
            ("dropped orbit", _drop_orbit, lambda m: m["kind"] == "table"),
            ("coincidence off by one", _bump_coincidence,
             lambda m: m["kind"] == "section" and m["draw"] == 0)],
    }[name]
    check = CHECKS[name]
    missed = []
    for what, corrupt, where in corruptions:
        i = next(k for k, (m, _) in enumerate(records) if where(m))
        bad = list(records)
        bad[i] = (records[i][0], corrupt(records[i][1]))
        if i not in check(g, bad, only=[i], sample=[i]):
            missed.append(what)
    return missed
