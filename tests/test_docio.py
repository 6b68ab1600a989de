import json
import os
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gzlie import scalars
from gzlie.matrices import Mat
from gzlie.liealg import make_algebra, root_vector
from gzlie.invariants import partial_kw, full_kw, coincidence_count
from gzlie.regularity import kostant_jacobian_rank
from gzlie.docio import (DocumentError, parse_matrix_doc, emit_matrix_doc,
                         emit_invariant_doc, parse_invariant_doc,
                         analysis_report, analysis_text)
from gzlie.korbits import (sample_nilfibre, sample_g0,
                           sample_chain_disjoint)
from gzlie.rand import Sampler
from gzlie.suites import _mixed_sample
from qi_reference import from_ints


def test_matrix_doc_round_trip():
    ctx = make_algebra("so", 5)
    x = Sampler(8).algebra_element(ctx)
    doc = emit_matrix_doc(ctx, x)
    ctx2, y = parse_matrix_doc(doc)
    assert y == x and ctx2.describe() == "so(5)"


@pytest.mark.parametrize("doc,fragment", [
    ([1, 2], "JSON object"),
    ({"algebra": "sp", "n": 4, "entries": []}, "'algebra'"),
    ({"algebra": "so", "n": 0, "entries": []}, "'n'"),
    ({"algebra": "so", "n": 3, "entries": [["0"] * 3] * 2}, "3x3"),
    ({"algebra": "gl", "n": 2, "entries": [["0", "zzz"], ["0", "0"]]},
     "(1,2)"),
    # below the chain floor: there is no level to project to
    ({"algebra": "gl", "n": 1, "entries": [["1"]]}, "gl(1)"),
    ({"algebra": "so", "n": 2, "entries": [["1", "0"], ["0", "-1"]]},
     "so(2)"),
    # above the size bound: refused before the entries are read
    ({"algebra": "so", "n": 10 ** 6, "entries": None}, "n <= "),
])
def test_matrix_doc_errors_carry_location(doc, fragment):
    with pytest.raises(DocumentError) as err:
        parse_matrix_doc(doc)
    assert fragment in str(err.value)


def test_matrix_doc_membership_enforced():
    doc = {"algebra": "so", "n": 3,
           "entries": [["1", "0", "0"], ["0", "0", "0"], ["0", "0", "1"]]}
    with pytest.raises(DocumentError) as err:
        parse_matrix_doc(doc)
    assert "not an element" in str(err.value)


def _so3(corner, mirror):
    return {"algebra": "so", "n": 3,
            "entries": [[corner, "0", "0"], ["0", "0", "0"],
                        ["0", "0", mirror]]}


def test_membership_reads_values_not_spellings():
    # (1,1) and its mirror (3,3): 1/2 against -2/4 is minus itself
    _, x = parse_matrix_doc(_so3("1/2", "-2/4"))
    assert x == parse_matrix_doc(_so3("1/2", "-1/2"))[1]
    _, x = parse_matrix_doc(_so3("+02/4-3*i", "-1/2+06/2*i"))
    assert x == parse_matrix_doc(_so3("1/2-3*i", "-1/2+3*i"))[1]


@pytest.mark.parametrize("doc,message", [
    # the real parts are opposite, the imaginary parts are not
    (_so3("1+i", "-1+i"),
     "not an element of so(3): entry (1,1)=1+1*i violates Z^T S + S Z = 0 "
     "against (3,3)=-1+1*i; entry (3,3)=-1+1*i violates Z^T S + S Z = 0 "
     "against (1,1)=1+1*i"),
    # an antidiagonal cell is its own mirror, so it must be zero
    ({"algebra": "so", "n": 4,
      "entries": [["0", "0", "0", "1"]] + [["0"] * 4] * 3},
     "not an element of so(4): entry (1,4)=1 violates Z^T S + S Z = 0 "
     "against (1,4)=1"),
])
def test_membership_messages(doc, message):
    with pytest.raises(DocumentError) as err:
        parse_matrix_doc(doc)
    assert str(err.value) == message


def test_non_ascii_digits_are_refused_in_documents():
    with pytest.raises(DocumentError) as err:
        parse_matrix_doc(_so3("\u0663", "-3"))
    assert str(err.value) == "entry (1,1): bad scalar syntax: '\u0663'"


def test_invariant_doc_round_trip():
    for kind, n in [("so", 6), ("so", 3), ("gl", 4), ("gl", 2)]:
        ctx = make_algebra(kind, n)
        x = Sampler(3).algebra_element(ctx)
        for vec in (partial_kw(ctx, x), full_kw(ctx, x)):
            assert parse_invariant_doc(emit_invariant_doc(vec)) == vec


def _invariant_doc(kind="partial", values=("1", "2", "3", "4"), **fields):
    return {"algebra": "so", "n": 5, "kind": kind, "values": values} | fields


@pytest.mark.parametrize("doc,fragment", [
    ([1, 2], "JSON object"),
    ("values", "JSON object"),
    (_invariant_doc(algebra="sp"), "'algebra'"),
    (_invariant_doc(algebra=None), "'algebra'"),
    (_invariant_doc(n="5"), "'n'"),
    (_invariant_doc(n=2), "'n'"),                  # so(2): no level below
    (_invariant_doc(n=10 ** 6), "n <= "),
    (_invariant_doc(kind="other"), "'kind'"),
    # a string is not read one character at a time
    (_invariant_doc(values="1234"), "array of 4 values"),
    (_invariant_doc(values=["1", "2"]), "array of 4 values"),
    (_invariant_doc(values=["0"] * 5), "array of 4 values"),
    # so(5): ranks 1 + 1 + 2 + 2 over so(2) .. so(5)
    (_invariant_doc(kind="full"), "array of 6 values"),
    (_invariant_doc(algebra="gl", n=3), "array of 5 values"),
    (_invariant_doc(values=["1", "??", "3", "4"]), "value 2"),
    (_invariant_doc(values=["1", 2, "3", "4"]), "value 2"),
])
def test_invariant_doc_errors_carry_location(doc, fragment):
    with pytest.raises(DocumentError) as err:
        parse_invariant_doc(doc)
    assert fragment in str(err.value)


def test_analysis_report_fields_and_text():
    ctx = make_algebra("so", 5)
    x = Sampler(21).algebra_element(ctx)
    rep = analysis_report(ctx, x)
    for key in ("coincidence", "regular", "nsreg", "sreg", "jacobian_rank",
                "jacobian_full_rank", "centralizer_dims", "partial_values"):
        assert key in rep
    assert len(rep["centralizer_dims"]) == 4     # levels 2..5
    text = analysis_text(rep)
    assert "so(5)" in text and "coincidence" in text
    # deterministic given the same element
    assert analysis_report(ctx, x) == rep


def _assert_report_matches_separate(ctx, x):
    # the report reads one Faddeev-LeVerrier run and one Pfaffian memo per
    # level; the public functions each compute their own
    rep = analysis_report(ctx, x)
    assert rep["coincidence"] == coincidence_count(ctx, x)
    assert rep["partial_values"] == emit_invariant_doc(
        partial_kw(ctx, x))["values"]
    assert rep["jacobian_rank"] == kostant_jacobian_rank(ctx, x)


@given(st.sampled_from([("gl", n) for n in range(2, 8)]
                       + [("so", n) for n in range(3, 10)]),
       st.integers(0, 2 ** 32 - 1), st.integers(0, 5))
@settings(max_examples=40, deadline=None)
def test_analysis_report_matches_separate_computations(algebra, seed, t):
    # the mixed stream: generic, Borel, nilpotent, patterned, coincidence-
    # free and partially coincident elements
    ctx = make_algebra(*algebra)
    _assert_report_matches_separate(ctx, _mixed_sample(ctx, Sampler(seed), t))


@pytest.mark.parametrize("kind,n", [("gl", 2), ("gl", 5), ("so", 3),
                                    ("so", 4), ("so", 6), ("so", 9)])
def test_analysis_report_matches_separate_at_zero_and_nilpotent(kind, n):
    ctx = make_algebra(kind, n)
    nilpotent = _mixed_sample(ctx, Sampler("nilpotent/%s%d" % (kind, n)), 2)
    for x in [Mat.zeros(n), nilpotent]:
        _assert_report_matches_separate(ctx, x)


def test_analysis_report_keeps_the_generator_checks():
    # not elements of so(4): an odd characteristic coefficient, and an even
    # characteristic polynomial with S x not antisymmetric (the sub-Pfaffian
    # memo refuses it before pf(S x)^2 is compared with det x)
    ctx = make_algebra("so", 4)
    with pytest.raises(ValueError, match="parity"):
        analysis_report(ctx, from_ints([[1, 0, 0, 0], [0, 1, 0, 0],
                                        [0, 0, 1, 0], [0, 0, 0, 1]]))
    with pytest.raises(ValueError, match="not antisymmetric"):
        analysis_report(ctx, from_ints([[0, 0, 1, 1], [1, 1, 0, -1],
                                        [0, 0, -1, 0], [0, 1, -1, 0]]))


# --- the analysis fingerprint ------------------------------------------------

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
ANALYZE_ALGEBRAS = [("gl", 3), ("gl", 4), ("gl", 5),
                    ("so", 4), ("so", 5), ("so", 6), ("so", 7)]
ANALYZE_FAMILIES = {"gl": ("chain", "generic", "g0", "borel"),
                    "so": ("chain", "generic", "nilfibre", "g0", "borel")}


def _draw(ctx, family, s):
    if family == "generic":
        return s.algebra_element(ctx)
    if family == "borel":
        if ctx.kind == "gl":
            return s.span_element([b for b, (i, j) in zip(
                ctx.basis, ctx.basis_positions) if i <= j])
        return s.span_element(list(ctx.cartan_basis) + [
            root_vector(ctx, r) for r in ctx.positive_roots])
    if family == "nilfibre":
        return sample_nilfibre(ctx, s, 0)
    if family == "g0":
        return sample_g0(ctx, s)
    return sample_chain_disjoint(ctx, s)


def analyze_fingerprint():
    """One sampled element per (algebra, family) with its analysis report,
    keyed 'so6/nilfibre'."""
    out = {}
    for kind, n in ANALYZE_ALGEBRAS:
        ctx = make_algebra(kind, n)
        for family in ANALYZE_FAMILIES[kind]:
            x = _draw(ctx, family, Sampler("fingerprint/%s%d/%s"
                                           % (kind, n, family)))
            out["%s%d/%s" % (kind, n, family)] = {
                "doc": emit_matrix_doc(ctx, x),
                "report": analysis_report(ctx, x)}
    return out


def test_analysis_reports_match_fixture():
    with open(os.path.join(FIXTURES, "analyze_reports.json")) as fh:
        expect = json.load(fh)
    assert analyze_fingerprint() == expect


class _StrictMpq(Fraction):
    """A stand-in for gmpy2.mpq: a Fraction that, like mpq, refuses a
    string with a leading '+'."""

    def __new__(cls, numerator=0, denominator=None):
        if isinstance(numerator, str) and numerator.lstrip().startswith("+"):
            raise ValueError("invalid digits: %r" % numerator)
        return super().__new__(cls, numerator, denominator)


def test_reports_and_jacobian_ranks_under_an_mpq_stand_in(monkeypatch):
    # gmpy2 is not installed here, so its path runs on a stand-in bound on
    # every module that imported _mpq, not only scalars
    bound = [m for name, m in sys.modules.items()
             if name.startswith("gzlie.") and vars(m).get("_mpq")
             is scalars._mpq]
    assert scalars in bound and len(bound) > 1
    for m in bound:
        monkeypatch.setattr(m, "_mpq", _StrictMpq)
    with open(os.path.join(FIXTURES, "analyze_reports.json")) as fh:
        expect = json.load(fh)
    for key, item in expect.items():
        ctx, x = parse_matrix_doc(item["doc"])
        assert all(isinstance(z.re, _StrictMpq) for z in x.flatten() if z)
        assert analysis_report(ctx, x) == item["report"], key
        assert (kostant_jacobian_rank(ctx, x)
                == item["report"]["jacobian_rank"]), key
