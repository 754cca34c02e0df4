import hashlib
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import splinezeros.bspline as bspline
import splinezeros.harness as harness
from splinezeros import parse_vector_config, piecewise_linear, zigzag_spline
from splinezeros.cli import main
from splinezeros.errors import SplineZerosError
from splinezeros.rational import format_rational
from splinezeros.spline import spline_from_document, spline_to_document


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bspline_text_and_eval(capsys):
    code, out, _ = run(capsys, "bspline", "--m", "2", "--eval", "3/2")
    assert code == 0
    assert "B_2(3/2) = 3/4" in out


def test_bspline_json(capsys):
    code, out, _ = run(capsys, "bspline", "--m", "1", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["degree"] == 1
    assert doc["knots"] == ["0", "1", "2"]
    spline_from_document({k: doc[k] for k in ("degree", "knots", "pieces")})


def test_conjecture_a2(capsys):
    code, out, _ = run(capsys, "conjecture", "--vectors", "1,0;1,1;0,1")
    assert code == 0
    assert "|Omega| = 7" in out
    assert "det = 1/64" in out
    assert "unimodular: yes" in out
    assert "invertible: yes" in out


def test_conjecture_b2(capsys):
    code, out, _ = run(capsys, "conjecture", "--vectors", "1,0;1,1;0,1;-1,1")
    assert code == 0
    assert "det = 0" in out
    assert "unimodular: no" in out
    assert "invertible: NO" in out


def test_conjecture_json(capsys):
    code, out, _ = run(capsys, "conjecture", "--vectors", "1;1", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["omega_size"] == 3
    assert doc["determinant"] == "1/4"
    assert doc["invertible"] is True


def test_boxspline_eval(capsys):
    code, out, _ = run(capsys, "boxspline", "--vectors", "1,0;1,1;0,1",
                       "--eval", "1,1")
    assert code == 0
    assert "B_X(1,1) = 1" in out


def test_univariate_configurations_past_degree_two(capsys):
    """Any 1-D configuration up to MAX_CARDINAL_DEGREE evaluates, not only
    the all-ones family: 71/288 is also the value of the recurrence oracle
    in tests/test_boxspline.py."""
    code, out, _ = run(capsys, "boxspline", "--vectors", "1;2;3;-1",
                       "--eval", "3/2")
    assert code == 0
    assert "B_X(3/2) = 71/288" in out
    for vectors, omega_size, det in (("1;1;2;2", 11, "0"),
                                     ("1;-1;1;-1;1", 9, "5/927712935936")):
        code, out, _ = run(capsys, "conjecture", "--vectors", vectors, "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["omega_size"] == omega_size
        assert doc["determinant"] == det


def test_large_univariate_entries_and_planar_candidates_stay_cheap(capsys):
    """The 1-D jump weights are sparse, so huge lengths cost no more than
    small ones; the candidate limit is per dimension, so a planar box of
    469 candidates is still admitted."""
    started = time.monotonic()
    code, out, _ = run(capsys, "boxspline", "--vectors", "1;1000000000",
                       "--eval", "3")
    assert code == 0
    assert "B_X(3) = 1/1000000000" in out
    for vectors, omega_size in (("1000000000;2000000000;3000000000", 11),
                                ("32,0;0,32;1,1", 131)):
        code, out, _ = run(capsys, "conjecture", "--vectors", vectors, "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["omega_size"] == omega_size
        assert doc["determinant"] == "0"
    assert time.monotonic() - started < 10.0


def test_verify_exit_zero_and_determinism(capsys):
    argv = ["verify", "--kind", "theorem9", "--m", "1", "--knots", "4",
            "--trials", "20", "--seed", "42", "--json"]
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == 0
    doc1, doc2 = json.loads(out1), json.loads(out2)
    doc1.pop("elapsed_ms")
    doc2.pop("elapsed_ms")
    assert doc1 == doc2
    assert doc1["violations"] == 0


def test_verify_default_bounds_are_the_generator_defaults(capsys):
    """Without --num-bound/--den-bound, verify runs with GeneratorConfig's
    defaults 8 and 4 and prints the same report."""
    argv = ["verify", "--kind", "theorem9", "--m", "2", "--knots", "5",
            "--trials", "20", "--seed", "3", "--json"]
    outputs = []
    for extra in ((), ("--num-bound", "8", "--den-bound", "4")):
        code, out, err = run(capsys, *argv, *extra)
        assert code == 0, err
        outputs.append([line for line in out.splitlines()
                        if '"elapsed_ms"' not in line])
    assert outputs[0] == outputs[1]


# sha256 per suite kind over the `verify --json` documents of degrees 1..12
# (2..12 for rolle), elapsed_ms removed, keys sorted, one line each, at
# --knots 9 --trials 10 --seed 11. The digests were recorded with the
# Sturm-only census, so they pin every report through later changes to the
# census or the random draw.
GOLDEN_VERIFY_DIGESTS = {
    "theorem9": "979bec6345c37d6c7676581f898268294c262c701d227558fe75dd31383d8d07",
    "prop5": "ff586c7d626be150910025d9c8030b7a4adc20b89c4c1d4d0a4bc05293219057",
    "corollary10": "8da5cf1d001a620bf36bec959f255f536c06d66a763c8a30124a3cb6fdfd62e4",
    "extension": "42854b1ef6ff52cbe496f9ddae434ca4d6079c716247a5178d2688f8f5ba2f2d",
    "rolle": "4119e61fba9ed91222e915ded99cf68fbe5d687bcc576b868ad613d24698599e",
}


@pytest.mark.parametrize("kind", sorted(GOLDEN_VERIFY_DIGESTS))
def test_verify_reports_match_golden_digests(capsys, kind):
    digest = hashlib.sha256()
    for m in range(2 if kind == "rolle" else 1, 13):
        code, out, _ = run(capsys, "verify", "--kind", kind, "--m", str(m),
                           "--knots", "9", "--trials", "10", "--seed", "11",
                           "--json")
        assert code == 0
        doc = json.loads(out)
        doc.pop("elapsed_ms")
        digest.update(json.dumps(doc, sort_keys=True).encode() + b"\n")
    assert digest.hexdigest() == GOLDEN_VERIFY_DIGESTS[kind]


# sha256 over the stdout of `bspline --m m --eval (m+1)/3 --json` for
# m = 1..12, and over the stdout of `conjecture --json` for the four planar
# bases of the benchmark and the 1-D configurations run above. Recorded while
# B_m was still wrapped in its own class and Omega in a one-field tuple, so
# they pin both outputs through changes to the types the library returns.
# The conjecture outputs have since lost their always-false
# `,\n  "vacuous": false` line, and the digest with them.
GOLDEN_BSPLINE_DIGEST = (
    "f6ebbc8d982efa25f4f2f492fcc88ada1138e39e4a10c6c4d3342cac68efd856")
GOLDEN_CONJECTURE_DIGEST = (
    "6339b81e41ff15159d7b6a0f627e161472962e8a3c368fcd6c32e0c32d6462be")
GOLDEN_CONJECTURE_VECTORS = (
    "1,0;1,1;0,1", "1,0;1,1;0,1;-1,1", "1,0;0,1;1,1;1,-1", "2,1;1,2;1,0;0,1",
    "1;1", "1;1;2;2", "1;-1;1;-1;1", "1000000000;2000000000;3000000000",
)


def test_bspline_reports_match_golden_digest(capsys):
    digest = hashlib.sha256()
    for m in range(1, 13):
        code, out, _ = run(capsys, "bspline", "--m", str(m),
                           "--eval", f"{m + 1}/3", "--json")
        assert code == 0
        digest.update(out.encode())
    assert digest.hexdigest() == GOLDEN_BSPLINE_DIGEST


def test_conjecture_reports_match_golden_digest(capsys):
    digest = hashlib.sha256()
    for vectors in GOLDEN_CONJECTURE_VECTORS:
        code, out, _ = run(capsys, "conjecture", "--vectors", vectors, "--json")
        assert code == 0
        digest.update(out.encode())
    assert digest.hexdigest() == GOLDEN_CONJECTURE_DIGEST


# sha256 over the stdout of `boxspline --vectors V --eval x` for the 21
# configurations of the benchmark's boxeval-scatter workload and two mixed-sign
# 1-D ones, at every x of boxeval_grid(V): in 1-D the quarter points from one
# below the support to one above it and every integer knot +- 1/1000003, in
# 2-D the half points of the bounding box widened by one. Recorded while 1-D
# evaluation still searched Fraction knots, so it pins both routes byte for
# byte.
GOLDEN_BOXEVAL_DIGEST = (
    "bf4d92af73ebc7027ca920ccf270ab0ce1b4e18f8e8697e798441dfe19d3cb7c")
GOLDEN_BOXEVAL_VECTORS = (
    "1,0;0,1", "1,1;-1,1", "1,0;0,1;1,1", "1,0;0,1;1,-1",
    "1,0;0,1;1,1;1,-1", "1,0;1,1;0,1;-1,1", "2,1;1,2;1,0;0,1",
    "2", "1;2", "1;2;3", "1;1;1",
) + tuple(";".join(["1"] * m) for m in range(4, 14)) + ("1;2;3;-1", "-2;-3")


def boxeval_grid(vectors):
    config = parse_vector_config(vectors)
    lows = [sum(min(0, v[k]) for v in config.vectors) for k in range(config.dim)]
    highs = [sum(max(0, v[k]) for v in config.vectors) for k in range(config.dim)]
    if config.dim == 1:
        (lo,), (hi,) = lows, highs
        xs = [Fraction(k, 4) for k in range(4 * lo - 4, 4 * hi + 5)]
        xs += [k + e for k in range(lo, hi + 1)
               for e in (Fraction(-1, 1000003), Fraction(1, 1000003))]
        return [format_rational(x) for x in xs]
    axes = [[format_rational(Fraction(k, 2)) for k in range(2 * lo - 2, 2 * hi + 3)]
            for lo, hi in zip(lows, highs)]
    return [f"{x},{y}" for x in axes[0] for y in axes[1]]


def test_boxspline_reports_match_golden_digest(capsys):
    digest = hashlib.sha256()
    for vectors in GOLDEN_BOXEVAL_VECTORS:
        for x in boxeval_grid(vectors):
            code, out, _ = run(capsys, "boxspline", "--vectors", vectors,
                               "--eval", x)
            assert code == 0
            digest.update(out.encode())
    assert digest.hexdigest() == GOLDEN_BOXEVAL_DIGEST


def test_verify_violation_exit_code(capsys, monkeypatch):
    real = harness.check_zero_bound

    def always_violating(s):
        verdict = real(s)
        return type(verdict)(
            Z=verdict.Z, bound=-1, n=verdict.n, degree=verdict.degree,
            passed=False, report=verdict.report,
        )

    monkeypatch.setattr(harness, "check_zero_bound", always_violating)
    code, out, _ = run(capsys, "verify", "--kind", "theorem9", "--m", "2",
                       "--knots", "3", "--trials", "5", "--seed", "1")
    assert code == 1


def test_zeros_command(capsys, tmp_path):
    path = tmp_path / "spline.json"
    path.write_text(json.dumps(spline_to_document(zigzag_spline(4))))
    code, out, _ = run(capsys, "zeros", "--in", str(path))
    assert code == 0
    assert "Z = 4" in out


def test_zeros_text_names_identically_zero_domains(capsys, tmp_path):
    path = tmp_path / "plateau.json"
    plateau = piecewise_linear((0, 1, 2, 3), (1, 0, 0, 1))
    path.write_text(json.dumps(spline_to_document(plateau)))
    code, out, _ = run(capsys, "zeros", "--in", str(path))
    assert code == 0
    assert out.splitlines() == [
        "window [0, 3]: Z = 1",
        "  [0, 1]: 0 interior root(s)",
        "  [1, 2]: identically zero",
        "  [2, 3]: 0 interior root(s)",
    ]


def test_zeros_subwindow_via_insertion(capsys, tmp_path):
    path = tmp_path / "spline.json"
    path.write_text(json.dumps(spline_to_document(zigzag_spline(4))))
    code, out, _ = run(capsys, "zeros", "--in", str(path),
                       "--from", "3/4", "--to", "11/4", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["Z"] == 2  # sign crossings at 3/2 and 5/2 only
    assert doc["window"] == ["3/4", "11/4"]


def test_zeros_rejects_corrupt_document(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "degree": 1,
        "knots": ["0", "1"],
        "pieces": [["0"], ["1"], ["1"]],  # jump at 0: not C^0
    }))
    code, _, err = run(capsys, "zeros", "--in", str(path))
    assert code == 2
    assert "error:" in err


def test_zeros_rejects_bool_degree(capsys, tmp_path):
    path = tmp_path / "bool.json"
    path.write_text(json.dumps({
        "degree": True,  # bool is an int in Python; not a degree here
        "knots": ["0", "1"],
        "pieces": [["0"], ["0", "1"], ["1"]],
    }))
    code, _, err = run(capsys, "zeros", "--in", str(path))
    assert code == 2
    assert "invalid degree" in err


def test_zeros_rejects_pieces_that_are_not_arrays(capsys, tmp_path):
    path = tmp_path / "pieces.json"
    # a string piece would otherwise be read one character per coefficient
    for piece in ("01", 1, None, {"0": "1"}):
        path.write_text(json.dumps({
            "degree": 1,
            "knots": ["0", "1"],
            "pieces": [["0"], piece, ["1"]],
        }))
        code, out, err = run(capsys, "zeros", "--in", str(path))
        assert code == 2
        assert out == ""
        assert "each piece must be an array" in err


def test_zeros_rejects_huge_degree_document(capsys, tmp_path):
    """A document past MAX_CARDINAL_DEGREE is refused by its degree before
    any knot or piece is parsed. A smooth degree-400 document (one random
    polynomial on every domain) took 10.9 s in the census before."""
    path = tmp_path / "huge.json"
    rng = random.Random(400)
    piece = [str(rng.randint(-99, 99)) for _ in range(400)] + ["1"]
    for degree, pieces in ((300000, [["0"], ["0", "1"], ["0", "1"]]),
                           (400, [piece] * 3)):
        path.write_text(json.dumps({
            "degree": degree,
            "knots": ["0", "1"],
            "pieces": pieces,
        }))
        started = time.monotonic()
        code, out, err = run(capsys, "zeros", "--in", str(path))
        assert time.monotonic() - started < 1.0
        assert code == 2
        assert out == ""
        assert "MAX_CARDINAL_DEGREE" in err and f"got {degree}" in err


def test_conjecture_rejects_oversized_candidate_box(capsys):
    for vectors, candidates in (("100,0;0,100;1,1", 1421),
                                ("1000000;1", 2000001)):
        code, out, err = run(capsys, "conjecture", "--vectors", vectors)
        assert code == 2
        assert out == ""
        assert f"{candidates} candidate points" in err


def test_vectors_outside_the_integer_grammar_exit_2(capsys):
    for vectors in ("1_0;1", "\u0661;1", "1.0;1", "0x1;1"):
        for argv in (("conjecture", "--vectors", vectors),
                     ("boxspline", "--vectors", vectors, "--eval", "1")):
            code, out, err = run(capsys, *argv)
            assert code == 2
            assert out == ""
            assert "malformed vector" in err


def test_empty_vectors_exit_2(capsys):
    for vectors in ("1,0;;0,1", "1,0;0,1;"):
        code, out, err = run(capsys, "conjecture", "--vectors", vectors)
        assert code == 2
        assert out == ""
        assert "malformed vector ''" in err


def test_help_states_the_caps_and_defaults(capsys):
    """The verify and bspline help text is derived from the library's caps
    and GeneratorConfig's defaults."""
    texts = {}
    for command in ("verify", "bspline"):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        texts[command] = " ".join(capsys.readouterr().out.split())
    for text in texts.values():
        assert f"degree (1..{bspline.MAX_CARDINAL_DEGREE})" in text
    verify = texts["verify"]
    assert f"1..{harness.MAX_INTERIOR_KNOTS + 1} " in verify
    assert f"1..{harness.MAX_NUMERATOR_BOUND} " in verify
    assert f"1..{harness.MAX_DENOMINATOR_BOUND} " in verify
    assert f"1..{harness.MAX_TRIALS}" in verify
    defaults = harness.GeneratorConfig(seed=0, degree=1, interior_knots=0)
    assert f"(default {defaults.numerator_bound})" in verify
    assert f"(default {defaults.denominator_bound})" in verify


def test_boxspline_rejects_exponent_literal(capsys):
    code, out, err = run(capsys, "boxspline", "--vectors", "1;1",
                         "--eval", "1e1000000")
    assert code == 2
    assert out == ""
    assert "malformed rational" in err


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=16,
)
rational_texts = (st.builds("{}/{}".format, st.integers(-9, 9),
                            st.integers(1, 4))
                  | st.integers(-9, 9).map(str) | st.just("1/0"))


@st.composite
def spline_documents(draw):
    """Mostly well-shaped documents (one more piece than knots); any field,
    knot, piece or coefficient is an arbitrary JSON value one time in eight."""
    def wild_or(value):
        return draw(json_values) if draw(st.integers(0, 7)) == 0 else value

    knots = [wild_or(k) for k in draw(st.lists(rational_texts, max_size=4))]
    pieces = [wild_or([wild_or(c)
                       for c in draw(st.lists(rational_texts, max_size=4))])
              for _ in range(len(knots) + 1)]
    return {"degree": wild_or(draw(st.integers(1, 4))),
            "knots": wild_or(knots), "pieces": wild_or(pieces)}


@given(spline_documents() | json_values)
@settings(max_examples=300, deadline=None)
def test_spline_document_fuzz_raises_only_library_errors(doc):
    try:
        spline_from_document(doc)
    except SplineZerosError:
        pass


vector_texts = st.lists(
    st.lists(st.integers(-3, 3), min_size=1, max_size=3).map(
        lambda v: ",".join(map(str, v))),
    min_size=1, max_size=4,
).map(";".join)


@given(vector_texts | st.text(max_size=24))
@settings(max_examples=300, deadline=None)
def test_vector_config_fuzz_raises_only_library_errors(text):
    try:
        parse_vector_config(text)
    except SplineZerosError:
        pass


def test_runtime_needs_only_the_standard_library():
    """python -S keeps site-packages off sys.path: every module must import
    and a conjecture must run on the standard library alone."""
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import importlib, importlib.util, pkgutil\n"
        "assert importlib.util.find_spec('hypothesis') is None\n"
        "import splinezeros\n"
        "for info in pkgutil.iter_modules(splinezeros.__path__):\n"
        "    importlib.import_module('splinezeros.' + info.name)\n"
        "from splinezeros.cli import main\n"
        "raise SystemExit(main(['conjecture', '--vectors', '1,0;1,1;0,1']))\n"
    )
    result = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert "det = 1/64" in result.stdout


def test_verify_rejects_knots_below_one(capsys):
    for knots in ("0", "-3"):
        code, out, err = run(capsys, "verify", "--kind", "theorem9", "--m", "2",
                             "--knots", knots, "--trials", "3", "--seed", "1")
        assert code == 2
        assert out == ""
        assert "error:" in err


def test_verify_refuses_degrees_above_the_cap_quickly(capsys):
    """Every suite kind refuses a degree past MAX_CARDINAL_DEGREE before
    generating a spline; theorem9 at m = 200 ran unbounded before."""
    for kind in harness.SUITE_KINDS:
        for m in ("13", "200"):
            started = time.monotonic()
            code, out, err = run(capsys, "verify", "--kind", kind, "--m", m,
                                 "--knots", "3", "--trials", "1", "--seed", "1")
            assert time.monotonic() - started < 5.0
            assert code == 2
            assert out == ""
            assert "MAX_CARDINAL_DEGREE" in err and f"got {m}" in err


def test_verify_refuses_knot_counts_above_the_cap_quickly(capsys):
    """Every suite kind refuses more than MAX_INTERIOR_KNOTS interior knots
    before generating a spline; --knots 200000 ran 29.7 s before. The cap
    itself (--knots 1000) is accepted."""
    assert harness.MAX_INTERIOR_KNOTS == 999
    for kind in harness.SUITE_KINDS:
        for knots in ("1001", "10000000"):
            started = time.monotonic()
            code, out, err = run(capsys, "verify", "--kind", kind, "--m", "3",
                                 "--knots", knots, "--trials", "1", "--seed", "1")
            assert time.monotonic() - started < 5.0
            assert code == 2
            assert out == ""
            assert "MAX_INTERIOR_KNOTS" in err and f"got {int(knots) - 1}" in err
    code, _, _ = run(capsys, "verify", "--kind", "theorem9", "--m", "1",
                     "--knots", "1000", "--trials", "1", "--seed", "1")
    assert code == 0


def test_verify_refuses_trial_counts_above_the_cap_quickly(capsys):
    """Every suite kind refuses more than MAX_TRIALS trials before
    generating a spline; --trials 100000000000 ran on for more than 20 s
    before."""
    for kind in harness.SUITE_KINDS:
        for trials in (str(harness.MAX_TRIALS + 1), str(10**11)):
            started = time.monotonic()
            code, out, err = run(capsys, "verify", "--kind", kind, "--m", "2",
                                 "--knots", "3", "--trials", trials, "--seed", "1")
            assert time.monotonic() - started < 5.0
            assert code == 2
            assert out == ""
            assert "MAX_TRIALS" in err and f"got {trials}" in err


def test_verify_refuses_coefficient_bounds_above_the_caps_quickly(capsys):
    """--num-bound and --den-bound above MAX_NUMERATOR_BOUND and
    MAX_DENOMINATOR_BOUND exit 2 before generating a spline, on every kind;
    uncapped, --den-bound 10000 ran over a minute for one trial at m = 12
    and --knots 1000. Both caps themselves are accepted."""
    assert harness.MAX_NUMERATOR_BOUND == 10**6
    assert harness.MAX_DENOMINATOR_BOUND == 16
    refused = [("--num-bound", value, "MAX_NUMERATOR_BOUND")
               for value in ("1000001", "1" + "0" * 1000)]
    refused += [("--den-bound", value, "MAX_DENOMINATOR_BOUND")
                for value in ("17", "10000")]
    for kind in harness.SUITE_KINDS:
        for flag, value, name in refused:
            started = time.monotonic()
            code, out, err = run(capsys, "verify", "--kind", kind, "--m", "12",
                                 "--knots", "1000", "--trials", "1", "--seed",
                                 "1", flag, value)
            assert time.monotonic() - started < 5.0
            assert code == 2
            assert out == ""
            assert name in err and f"got {value}" in err
    code, _, _ = run(capsys, "verify", "--kind", "theorem9", "--m", "2",
                     "--knots", "6", "--trials", "3", "--seed", "1",
                     "--num-bound", "1000000", "--den-bound", "16")
    assert code == 0


def test_zeros_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, "zeros", "--in", str(tmp_path / "none.json"))
    assert code == 2


UNREADABLE_SPLINE_FILES = {
    "not-utf8": b'{"degree": 1, "knots": ["0", "\xff1"]}',
    # past Python's default limit of 4,300 digits for int("...")
    "long-integer": b'{"degree": ' + b"7" * 5000 + b"}",
    "deep-nesting": b"[" * 100000 + b"]" * 100000,
}


@pytest.mark.parametrize("command", ["zeros", "extend"])
@pytest.mark.parametrize("name", UNREADABLE_SPLINE_FILES)
def test_unreadable_spline_files_are_input_errors(capsys, tmp_path, command,
                                                  name):
    """A spline file that is not UTF-8, holds an integer literal too long to
    convert, or nests arrays past the recursion limit exits 2 with one
    error line, as any other bad document does, and writes nothing."""
    src = tmp_path / f"{name}.json"
    dst = tmp_path / "ext.json"
    src.write_bytes(UNREADABLE_SPLINE_FILES[name])
    argv = [command, "--in", str(src)]
    if command == "extend":
        argv += ["--out", str(dst)]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {src}: ") and err.count("\n") == 1
    assert not dst.exists()


def test_zeros_window_outside_knots_is_input_error(capsys, tmp_path):
    path = tmp_path / "spline.json"
    path.write_text(json.dumps(spline_to_document(zigzag_spline(3))))
    code, _, err = run(capsys, "zeros", "--in", str(path),
                       "--from", "-1", "--to", "2")
    assert code == 2
    assert "error:" in err


def test_extend_roundtrip(capsys, tmp_path):
    src = tmp_path / "src.json"
    dst = tmp_path / "ext.json"
    src.write_text(json.dumps({
        "degree": 1,
        "knots": ["0", "1"],
        "pieces": [["1"], ["1"], ["1"]],
    }))
    code, out, _ = run(capsys, "extend", "--in", str(src), "--out", str(dst))
    assert code == 0
    ext = spline_from_document(json.loads(dst.read_text()))
    assert ext.knots == tuple(map(int, (-1, 0, 1, 2)))
    assert ext.pieces[0].is_zero and ext.pieces[-1].is_zero


def test_extend_refuses_degrees_above_the_cap_quickly(capsys, tmp_path):
    """Constant pieces make a valid document of any degree; extend must
    refuse it by the degree alone, before building any tail."""
    for degree in (13, 3000):
        src = tmp_path / "src.json"
        dst = tmp_path / "ext.json"
        src.write_text(json.dumps({
            "degree": degree,
            "knots": ["0", "1"],
            "pieces": [["1"], ["1"], ["1"]],
        }))
        started = time.monotonic()
        code, out, err = run(capsys, "extend", "--in", str(src),
                             "--out", str(dst))
        assert time.monotonic() - started < 5.0
        assert code == 2
        assert out == ""
        assert "MAX_CARDINAL_DEGREE" in err and f"got {degree}" in err
        assert not dst.exists()


def test_box_spline_caps_refuse_quickly(capsys):
    """Long runs of one vector and long 1-D configurations are refused
    before any evaluation: 1-D box splines are built up to
    MAX_CARDINAL_DEGREE, and a 1-D candidate box for Omega past
    MAX_OMEGA_CANDIDATES (256 per dimension) is refused before A_X is
    assembled."""
    for argv, message in (
            (("boxspline", "--vectors", ";".join(["1"] * 2000), "--eval", "3"),
             "got 1999"),
            (("conjecture", "--vectors", ";".join(["1"] * 14)), "got 13"),
            (("conjecture", "--vectors", ";".join(["1"] * 200)),
             "399 candidate points for Omega exceed the limit of 256"),
            (("conjecture", "--vectors", ";".join(["1"] * 24 + ["230"])),
             "507 candidate points for Omega exceed the limit of 256"),
            (("conjecture", "--vectors", ";".join(["1"] * 10 + ["240"])),
             "499 candidate points for Omega exceed the limit of 256"),
            (("conjecture", "--vectors", "1;1;253"),
             "509 candidate points for Omega exceed the limit of 256")):
        started = time.monotonic()
        code, out, err = run(capsys, *argv)
        assert time.monotonic() - started < 5.0
        assert code == 2
        assert out == ""
        assert message in err


def test_bad_rational_is_usage_error(capsys):
    code, _, err = run(capsys, "bspline", "--m", "2", "--eval", "x")
    assert code == 2


def test_unknown_kind_rejected_by_argparse(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--kind", "bogus", "--m", "1", "--knots", "2",
              "--trials", "1", "--seed", "0"])
    assert exc.value.code == 2


VERIFY = ("verify", "--kind", "corollary10", "--m", "2", "--knots", "3",
          "--trials", "2", "--seed", "1", "--json")


@pytest.mark.parametrize("command, option, value", [
    (("bspline", "--eval", "1/2"), "--m", "-1"),
    (("bspline", "--m", "2"), "--eval", "-1/2"),
    (("zeros", "--from", "-1"), "--in", "-spline.json"),
    (("zeros", "--in", "-spline.json"), "--from", "-1/2"),
    (("zeros", "--in", "-spline.json", "--from", "-2"), "--to", "-1/3"),
    (("extend", "--out", "-ext.json"), "--in", "-spline.json"),
    (("extend", "--in", "-spline.json"), "--out", "-ext.json"),
    (VERIFY, "--kind", "-x"),
    (VERIFY, "--m", "-2"),
    (VERIFY, "--knots", "-3"),
    (VERIFY, "--trials", "-1"),
    (VERIFY, "--seed", "-7"),
    (VERIFY, "--num-bound", "-8"),
    (VERIFY, "--den-bound", "-4"),
    (("conjecture", "--json"), "--vectors", "-1,0;0,1;1,1"),
    (("boxspline", "--eval", "1/2,1/2"), "--vectors", "-1,0;0,1;1,1"),
    (("boxspline", "--vectors", "1,0;0,1"), "--eval", "-1/2,1"),
])
def test_option_values_may_begin_with_a_dash(capsys, monkeypatch, tmp_path,
                                             command, option, value):
    """`--option -value` runs exactly as `--option=-value`."""
    monkeypatch.chdir(tmp_path)
    spline = piecewise_linear((-2, 0, 2), (1, -1, 1))
    Path("-spline.json").write_text(json.dumps(spline_to_document(spline)))

    def outcome(*argv):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        written = Path("-ext.json").read_text() if option == "--out" else None
        return code, captured.out, captured.err, written

    spaced = outcome(*command, option, value)
    assert spaced == outcome(*command, f"{option}={value}")
    assert "expected one argument" not in spaced[2]
