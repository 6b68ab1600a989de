import contextlib
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

import gzlie
from gzlie import cli, suites
from gzlie.cli import main
from gzlie.scalars import BACKEND, QI
from gzlie.docio import emit_matrix_doc
from gzlie.liealg import MAX_N, CHAIN_FLOOR, make_algebra
from gzlie.rand import Sampler
from gzlie.suites import SuiteConfig, SUITE_NAMES, run_suite, run_all

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_usage_errors(capsys):
    assert run(capsys, "analyze", "--input", "/no/such/file")[0] == 2
    assert run(capsys, "orbits", "--kind", "gl", "--n", "4")[0] == 2
    assert run(capsys, "orbits", "--n", "2")[0] == 2
    assert run(capsys, "sample", "--what", "yq", "--kind", "so",
               "--n", "5")[0] == 2
    assert main(["bogus-subcommand"]) == 2


def test_orbits_text_and_json(capsys):
    code, out, _ = run(capsys, "orbits", "--n", "5")
    assert code == 0
    assert "Q+" in out and "codim" in out
    code, out, _ = run(capsys, "orbits", "--n", "6", "--format", "json")
    assert code == 0
    graph = json.loads(out)
    assert graph["n"] == 6 and len(graph["nodes"]) == 3


def test_sample_then_analyze(tmp_path, capsys):
    code, out, _ = run(capsys, "sample", "--what", "chain", "--kind", "so",
                       "--n", "5", "--seed", "3")
    assert code == 0
    doc = tmp_path / "x.json"
    doc.write_text(out)
    code, out, _ = run(capsys, "analyze", "--input", str(doc), "--json")
    assert code == 0
    rep = json.loads(out)
    assert rep["sreg"] is True and rep["coincidence"] == 0
    # plain-text rendering of the same report
    code, out, _ = run(capsys, "analyze", "--input", str(doc))
    assert code == 0 and "strongly regular" in out


def test_sample_is_seed_deterministic(capsys):
    a = run(capsys, "sample", "--what", "xi", "--kind", "so", "--n", "6",
            "--pattern", "UL", "--seed", "9")
    b = run(capsys, "sample", "--what", "xi", "--kind", "so", "--n", "6",
            "--pattern", "UL", "--seed", "9")
    c = run(capsys, "sample", "--what", "xi", "--kind", "so", "--n", "6",
            "--pattern", "UL", "--seed", "10")
    assert a == b
    assert a[1] != c[1]


def test_sample_rejects_bad_family_args(capsys):
    code, out, err = run(capsys, "sample", "--what", "yq", "--kind", "so",
                         "--n", "5", "--orbit", "Q9")
    assert code == 2 and out == ""
    assert err == "error: no orbit named 'Q9' in so(5): Q+, Q-, Q1, Q0\n"
    assert run(capsys, "sample", "--what", "xi", "--kind", "so", "--n", "5",
               "--pattern", "XX")[0] == 2


def test_sample_nilfibre_component_out_of_range(capsys):
    # so(5) has two nilfibre components, so(6) one
    for n, bad, valid in [("5", "7", "0..1"), ("5", "-1", "0..1"),
                          ("6", "1", "0..0")]:
        code, out, err = run(capsys, "sample", "--what", "nilfibre",
                             "--n", n, "--component", bad)
        assert code == 2 and out == ""
        assert valid in err and len(err.strip().splitlines()) == 1
    code, out, _ = run(capsys, "sample", "--what", "nilfibre", "--n", "5",
                       "--component", "1")
    assert code == 0 and json.loads(out)["n"] == 5


def test_so_only_samplers_refuse_gl(capsys):
    # the patterned families and the nilfibre components follow the root
    # system of so(n); on gl they exit 2 with one line naming so(n)
    for what in ("xi", "nilfibre"):
        for n in ("3", "4", "5"):
            code, out, err = run(capsys, "sample", "--what", what,
                                 "--kind", "gl", "--n", n)
            assert code == 2 and out == ""
            assert "so(n)" in err and "gl(%s)" % n in err
            assert len(err.strip().splitlines()) == 1


def test_analyze_below_chain_floor(tmp_path, capsys):
    for doc in ({"algebra": "gl", "n": 1, "entries": [["1"]]},
                {"algebra": "so", "n": 2,
                 "entries": [["1", "0"], ["0", "-1"]]}):
        path = tmp_path / "x.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "analyze", "--input", str(path))
        assert code == 2 and out == ""
        assert "chain stops" in err and len(err.strip().splitlines()) == 1
    # sample refuses to emit a document that analyze would reject
    for kind, n in (("so", "2"), ("gl", "1")):
        code, out, err = run(capsys, "sample", "--what", "chain",
                             "--kind", kind, "--n", n)
        assert code == 2 and out == ""
        assert "chain stops" in err and len(err.strip().splitlines()) == 1


def test_sizes_above_the_bound_are_refused(tmp_path, capsys):
    # one above the bound: refused before any context is built
    big = str(MAX_N + 1)
    path = tmp_path / "x.json"
    path.write_text(json.dumps({"algebra": "gl", "n": MAX_N + 1,
                                "entries": "never parsed"}))
    for argv in (("orbits", "--n", big),
                 ("sample", "--what", "chain", "--kind", "gl", "--n", big),
                 ("analyze", "--input", str(path))):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert "n <= %d" % MAX_N in err
        assert len(err.strip().splitlines()) == 1


def test_analyze_refuses_non_ascii_digits(tmp_path, capsys):
    # an Arabic-Indic three, then a fullwidth two in a denominator
    for cell in ("\u0663", "1/\uff12"):
        path = tmp_path / "x.json"
        path.write_text(json.dumps({"algebra": "gl", "n": 2,
                                    "entries": [[cell, "0"], ["0", "1"]]}))
        code, out, err = run(capsys, "analyze", "--input", str(path))
        assert code == 2 and out == ""
        assert "entry (1,1)" in err and len(err.strip().splitlines()) == 1


def test_analyze_refuses_values_too_large_to_print(tmp_path, capsys):
    # gl(5) with diagonal 10^999 + i: its determinant has about 5000
    # digits, above the integer-to-string limit; refused before the
    # analysis, and the limit is left as it is
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("no integer-to-string limit in this interpreter")
    entries = [["0"] * 5 for _ in range(5)]
    for i in range(5):
        entries[i][i] = str(10 ** 999 + i)
        if i < 4:
            entries[i][i + 1] = "1"
    path = tmp_path / "x.json"
    path.write_text(json.dumps({"algebra": "gl", "n": 5,
                                "entries": entries}))
    code, out, err = run(capsys, "analyze", "--input", str(path))
    assert code == 2 and out == ""
    assert "too large" in err and len(err.strip().splitlines()) == 1
    assert sys.get_int_max_str_digits() == limit


def test_analyze_of_a_gaussian_gl7_element_ends(tmp_path):
    # a generic gl(7) element plus i times another: its centralizer and
    # Jacobian systems have Gaussian rows, which the elimination kernel
    # must keep small (it takes about 1 s; without the division of a row by
    # its gcd in Z[i] it did not end in a minute)
    ctx = make_algebra("gl", 7)
    s = Sampler(12345)
    x = suites._mixed_sample(ctx, s, 0) + s.algebra_element(ctx).scale(
        QI(0, 1))
    path = tmp_path / "x.json"
    path.write_text(json.dumps(emit_matrix_doc(ctx, x)))
    src = os.path.dirname(os.path.dirname(os.path.abspath(gzlie.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from gzlie.cli import main; "
         "sys.exit(main(sys.argv[1:]))",
         "analyze", "--json", "--input", str(path)],
        capture_output=True, env=dict(os.environ, PYTHONPATH=src),
        timeout=60)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["n"] == 7 and len(report["centralizer_dims"]) == 7


def test_analyze_of_a_dense_real_gl11_element_ends(tmp_path):
    # a partially coincident conjugate in gl(11): dense entries at every
    # chain level, whose centralizer ranks took seconds per level when
    # each level eliminated its own system; one nested elimination of the
    # top system reads them all
    ctx = make_algebra("gl", 11)
    x = suites._mixed_sample(ctx, Sampler(12345), 3)
    path = tmp_path / "x.json"
    path.write_text(json.dumps(emit_matrix_doc(ctx, x)))
    src = os.path.dirname(os.path.dirname(os.path.abspath(gzlie.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from gzlie.cli import main; "
         "sys.exit(main(sys.argv[1:]))",
         "analyze", "--json", "--input", str(path)],
        capture_output=True, env=dict(os.environ, PYTHONPATH=src),
        timeout=60)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["n"] == 11 and len(report["centralizer_dims"]) == 11


def test_verify_rejects_negative_trials(capsys):
    code, out, err = run(capsys, "verify", "--suite", "gzero-nsreg",
                         "--trials", "-5")
    assert code == 2 and out == ""
    assert "--trials" in err and len(err.strip().splitlines()) == 1
    # negative sizes, an empty range, and a range missing the suite's sizes
    for argv, fragment in ((("--n-min", "-1"), "--n-min"),
                           (("--n-max", "-3"), "--n-max"),
                           (("--n-min", "9", "--n-max", "3"),
                            "--n-min <= --n-max"),
                           (("--n-min", "9"), "gl(3..5), so(4..7)")):
        code, out, err = run(capsys, "verify", "--suite", "gzero-nsreg",
                             *argv)
        assert code == 2 and out == ""
        assert fragment in err and len(err.strip().splitlines()) == 1
    code, out, err = run(capsys, "verify", "--suite", "dimension-identities",
                         "--n-min", "13")
    assert code == 2 and out == ""
    assert "gl(2..12), so(3..12)" in err


def test_verify_rejects_too_few_trials_for_a_majority(capsys):
    # a yq-strata claim holds when most of its trials agree; --suite all
    # runs yq-strata too
    for suite in ("yq-strata", "all"):
        for trials in ("1", "2"):
            code, out, err = run(capsys, "verify", "--suite", suite,
                                 "--trials", trials, "--n-min", "5",
                                 "--n-max", "5")
            assert code == 2 and out == ""
            assert "at least 3" in err and len(err.strip().splitlines()) == 1
    code, out, _ = run(capsys, "verify", "--suite", "yq-strata", "--trials",
                       "3", "--n-min", "5", "--n-max", "5")
    assert code == 0 and "PASS" in out


def test_version_names_the_backend(capsys):
    code, out, _ = run(capsys, "--version")
    assert code == 0
    assert out.strip() == "gzlie %s (%s)" % (gzlie.__version__, BACKEND)


def test_closed_stdout_exits_one_without_a_traceback():
    # the reader of stdout is gone before anything is written, as when
    # `gzlie verify ... | head -1` has read its line
    src = os.path.dirname(os.path.dirname(os.path.abspath(gzlie.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; from gzlie.cli import main; "
             "sys.exit(main(sys.argv[1:]))",
             "verify", "--suite", "yq-strata", "--trials", "3", "--n-min",
             "5", "--n-max", "5"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == b""


def test_verify_json_and_exit_code(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "dimension-identities",
                       "--trials", "2", "--n-max", "6", "--json")
    assert code == 0
    reports = json.loads(out)
    assert reports[0]["passed"] is True
    assert reports[0]["backend"] == BACKEND
    assert all(c["ok"] for c in reports[0]["claims"])
    code, out, _ = run(capsys, "verify", "--suite", "nosuch")
    assert code == 2


def test_verify_reports_are_reproducible():
    cfg = SuiteConfig("xi-families", trials=2, seed=5, n_min=0, n_max=6)
    a = run_suite(cfg).to_dict(include_timing=False)
    b = run_suite(cfg).to_dict(include_timing=False)
    assert a == b
    c = run_suite(SuiteConfig("xi-families", trials=2, seed=6,
                              n_min=0, n_max=6)).to_dict(include_timing=False)
    assert a != c


def test_every_suite_states_its_sizes():
    assert list(suites.SIZES) == list(suites.SUITES) == SUITE_NAMES


def test_run_all_covers_every_suite():
    from gzlie.suites import SUITE_NAMES
    cfg = SuiteConfig("all", trials=1, seed=0, n_min=0, n_max=5)
    reports = run_all(cfg)
    assert [r.suite for r in reports] == SUITE_NAMES
    assert all(r.passed for r in reports)
    # the behavioural fingerprint: claims, trials, passes and witnesses of
    # every suite at this configuration, pinned across refactors
    got = json.loads(json.dumps([r.to_dict(include_timing=False)
                                 for r in reports]))
    with open(os.path.join(FIXTURES, "run_all_seed0_nmax5.json")) as fh:
        assert got == json.load(fh)


def test_verify_nilfibre_honours_the_size_range(capsys):
    # the so(3) exception claim runs only when 3 is in the requested range
    code, out, err = run(capsys, "verify", "--suite", "nilfibre",
                         "--n-min", "9")
    assert code == 2 and out == ""
    assert "so(3..8)" in err and len(err.strip().splitlines()) == 1
    code, out, _ = run(capsys, "verify", "--suite", "nilfibre", "--trials",
                       "1", "--n-min", "4", "--n-max", "4", "--json")
    assert code == 0
    assert [c["claim"] for c in json.loads(out)[0]["claims"]] == [
        "nilfibre-so4"]


def test_sampler_failure_exits_one(capsys, monkeypatch):
    def give_up(ctx, sampler):
        raise RuntimeError("could not sample a coincidence-free element")

    monkeypatch.setattr(cli, "sample_g0", give_up)
    monkeypatch.setattr(suites, "sample_g0", give_up)
    for argv in (("sample", "--what", "g0", "--n", "4"),
                 ("verify", "--suite", "gzero-nsreg", "--trials", "1")):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert "coincidence-free" in err
        assert len(err.strip().splitlines()) == 1


def test_gzero_nsreg_witness_carries_the_joint_stabilizer_dimension(
        monkeypatch):
    # the claim decides with is_nsreg; only a failure builds z_k(x)
    monkeypatch.setattr(suites, "is_nsreg", lambda ctx, x: False)
    report = run_suite(SuiteConfig("gzero-nsreg", trials=2, n_min=4,
                                   n_max=4))
    claims = {c.claim: c for c in report.claims}
    witness = claims["gzero-nsreg-so4"].failures[1]
    assert witness["trial"] == 1 and witness["dim"] == 0
    assert set(witness) == {"trial", "matrix", "dim"}


# --- fuzzing: every input ends in exit 0, 1 or 2, never in a traceback -------

_SCALARS = st.sampled_from(["0", "1", "-2", "1/2", "-1/3*i", "2+i", "3*i"])
_CELLS = st.one_of(
    _SCALARS,
    st.sampled_from([" 4 ", "1/0", "0/0", "1/0*i", "2+3/00*i", "1/-2", "x",
                     "", "1e5", "--1", "i*i", "9" * 5000]),
    st.integers(-2, 2), st.floats(), st.none(), st.booleans(),
    st.lists(st.just("1"), max_size=2), st.just({"re": "1"}))


@st.composite
def _matrix_docs(draw):
    """A document of one of these cases, drawn about equally often."""
    case = draw(st.sampled_from(["member", "member", "spoiled", "square",
                                 "ragged", "n", "kind", "missing", "other"]))
    if case == "other":
        return draw(st.one_of(st.lists(st.integers(), max_size=2),
                              st.text(max_size=3), st.none()))
    kind = draw(st.sampled_from(sorted(CHAIN_FLOOR)))
    n = draw(st.integers(CHAIN_FLOOR[kind] + 1, 5))
    ctx = make_algebra(kind, n)
    x = Sampler(draw(st.integers(0, 99))).algebra_element(ctx)
    doc = {"algebra": kind, "n": n,
           "entries": emit_matrix_doc(ctx, x)["entries"]}
    if case == "spoiled":
        doc["entries"][draw(st.integers(0, n - 1))][
            draw(st.integers(0, n - 1))] = draw(_CELLS)
    elif case == "square":             # on so, mostly not a member
        doc["entries"] = draw(st.lists(
            st.lists(_SCALARS, min_size=n, max_size=n), min_size=n,
            max_size=n))
    elif case == "ragged":
        doc["entries"] = draw(st.one_of(
            st.lists(st.lists(_CELLS, max_size=n + 1), max_size=n + 1),
            st.none(), st.text(max_size=3), st.integers()))
    elif case == "n":
        doc["n"] = draw(st.sampled_from([-1, 0, 1, CHAIN_FLOOR[kind],
                                         n + 1, MAX_N + 1, 10 ** 9, 3.0,
                                         "3", None, True, [3]]))
    elif case == "kind":
        doc["algebra"] = draw(st.sampled_from(["sp", "GL", None, 1]))
    elif case == "missing":
        del doc[draw(st.sampled_from(sorted(doc)))]
    return doc


_DOCS = _matrix_docs().map(lambda d: json.dumps(d).encode())
# documents, three times as often as raw bytes, deep nesting or odd JSON
_FILES = st.one_of(
    _DOCS, _DOCS, _DOCS, st.binary(max_size=24),
    st.integers(1, 3000).map(lambda d: b"[" * d + b"]" * d),
    st.sampled_from([b"", b"{", b"NaN", b'{"n": Infinity}', b"\xff\xfe{}"]))

_SEEDS = (["0", "3", "-7"], ["x"])
# per verb: flag -> (valid values, invalid values), or None for a switch.
# verify always gets small sizes and trials, so a run stays short.
_FLAGS = {
    "orbits": {"--n": (["3", "4", "5", "6"], ["-1", "0", "2", "17", "x"]),
               "--kind": (["so"], ["gl", "sp"]),
               "--format": (["text", "json"], ["yaml"]), "--json": None},
    "sample": {"--what": (["yq", "xi", "nilfibre", "g0", "chain"], ["zz"]),
               "--n": (["3", "4", "5"], ["-1", "2", "17", "x"]),
               "--kind": (["so", "gl"], ["sp"]),
               "--orbit": (["Q0", "Q1", "Q+", "Q-"], ["Q9", ""]),
               "--pattern": (["", "U", "L", "UL", "LU"], ["X", "ULUL"]),
               "--component": (["0", "1"], ["-1", "2", "x"]),
               "--seed": _SEEDS},
    "verify": {"--suite": (SUITE_NAMES + ["all"], ["nope"]),
               "--trials": (["1", "2"], ["-1", "x"]),
               "--n-min": (["2", "3", "4", "5"], ["-1", "6", "x"]),
               "--n-max": (["3", "4", "5"], ["-1", "2"]),
               "--seed": _SEEDS, "--json": None},
}
_ALWAYS = {"--n", "--what", "--suite", "--trials", "--n-min", "--n-max"}
_KEPT = {"--trials", "--n-min", "--n-max"}      # never left out


@st.composite
def _argvs(draw):
    """Valid argv, or argv with one flag given a bad value or left out."""
    verb = draw(st.sampled_from(sorted(_FLAGS) + ["bogus"]))
    flags = _FLAGS.get(verb, {})
    spoil = draw(st.sampled_from([None, None] + sorted(flags)))
    argv = [verb]
    for flag, values in flags.items():
        if flag == spoil and values is not None and draw(st.booleans()):
            argv += [flag, draw(st.sampled_from(values[1]))]
        elif flag == spoil and flag not in _KEPT:
            continue
        elif flag in _ALWAYS or draw(st.booleans()):
            argv += [flag] if values is None else [
                flag, draw(st.sampled_from(values[0]))]
    return argv


def _exit_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue()
    return code, out.getvalue(), err.getvalue()


@given(_FILES, st.booleans())
@example(b'{"algebra": "gl", "n": 2, "entries": [["1/0", "0"], ["0", "0"]]}',
         False)
@example(b"\x80", False)
@example(b"[" * 3000 + b"]" * 3000, False)
@settings(max_examples=150, deadline=None)
def test_analyze_fuzz_ends_in_an_exit_code(tmp_path_factory, data, as_json):
    path = tmp_path_factory.mktemp("fuzz") / "doc.json"
    path.write_bytes(data)
    argv = ["analyze", "--input", str(path)] + (["--json"] if as_json else [])
    code, out, err = _exit_cleanly(argv)
    if code == 2:
        assert out == "" and len(err.strip().splitlines()) == 1


@given(_argvs())
@settings(max_examples=60, deadline=None)
def test_argv_fuzz_ends_in_an_exit_code(argv):
    _exit_cleanly(argv)
