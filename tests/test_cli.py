import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import splinezeros.harness as harness
from splinezeros import (
    parse_vector_config,
    spline_from_document,
    spline_to_document,
    zigzag_spline,
)
from splinezeros.cli import main
from splinezeros.errors import SplineZerosError


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


def test_verify_violation_exit_code(capsys, monkeypatch):
    real = harness.check_zero_bound

    def always_violating(s):
        verdict = real(s)
        return type(verdict)(
            Z=verdict.Z, bound=-1, gross_bound=verdict.gross_bound,
            n=verdict.n, degree=verdict.degree, passed=False,
            report=verdict.report,
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
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({
        "degree": 300000,  # the kink at 0 is C^0 only
        "knots": ["0", "1"],
        "pieces": [["0"], ["0", "1"], ["0", "1"]],
    }))
    code, _, err = run(capsys, "zeros", "--in", str(path))
    assert code == 2
    assert "derivative order 1 jumps at knot 0" in err


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


def test_zeros_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, "zeros", "--in", str(tmp_path / "none.json"))
    assert code == 2


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


def test_bad_rational_is_usage_error(capsys):
    code, _, err = run(capsys, "bspline", "--m", "2", "--eval", "x")
    assert code == 2


def test_unknown_kind_rejected_by_argparse(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--kind", "bogus", "--m", "1", "--knots", "2",
              "--trials", "1", "--seed", "0"])
    assert exc.value.code == 2
