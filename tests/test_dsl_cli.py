"""Expression language and command surface.

Exit code 3 has no honest trigger from well-formed input (that is the
point of the invariant), so the tests induce it by sabotaging internals
through monkeypatching rather than by a production backdoor.
"""

import doctest
import hashlib
import json
import os
import random
import re
import shlex
import subprocess
import sys
import time
from fractions import Fraction
from itertools import product
from math import gcd

import pytest

import sheafconv
from sheafconv import cfun, cli, microlocal, region, sheaf1
from sheafconv.cli import sheaf_from_json, sheaf_to_json, sheaf_to_text
from sheafconv.dsl import eval_text, parse
from sheafconv.errors import InputError, ParseError
from sheafconv.oracle import MAX_TRIALS
from sheafconv.rational import MAX_LITERAL_DIGITS, parse_rat, ratio
from sheafconv.sheaf1 import dirac, direct_sum, kc, kco, ko, koc, shift, zero

from disjoint_terms import disjoint_terms
from region_oracles import parent_euler_convolve_at, parent_slice_region
from sheaf1_oracles import sheaf_to_expr
from test_integer_paths import large_check_expr

F = Fraction

CORPUS = [
    "kc(0,1)",
    "ko(-1/2, 3/2)",
    "kco(0,1)",
    "koc(-2,-1)",
    "dirac(1/3)",
    "zero",
    "conv(kc(0,1), shift(ko(-1,0),1))",
    "conv(kc(0,1), kc(0,1), kc(0,1))",
    "sum(kc(0,1), kc(0,1), dirac(2), zero)",
    "dual(antipodal(kco(0,1)))",
    "translate(koc(0,1), -7/2)",
    "inverse(ko(2,3))",
    "shift(sum(kc(0,1), ko(4,5)), -2)",
    "conv(sum(kc(0,1), dirac(0)), inverse(kc(0,2)))",
]


# ---------------------------------------------------------------------------
# parsing


def test_parse_shapes():
    # a rational literal parses to its integer pair (p, q)
    assert parse("kc(0,1)") == ("kc", (0, 1), (1, 1))
    assert parse(" conv( kc(0,1) , dirac(1/3) ) ") == (
        "conv", ("kc", (0, 1), (1, 1)), ("dirac", (1, 3)),
    )
    assert parse("zero") == ("zero",)


def test_parse_rationals():
    assert eval_text("dirac(-3/2)") == dirac(F(-3, 2))
    assert eval_text("dirac(007)") == dirac(7)


@pytest.mark.parametrize(
    "text,pos",
    [
        ("kc(0,1", 6),
        ("kc(0)", 4),
        ("kc(0,1,2)", 6),
        ("shift(kc(0,1), 1/2)", 15),
        ("frob(1)", 0),
        ("kc(0,1) junk", 8),
        ("kc(1/0, 2)", 3),
        ("", 0),
        ("kc(a,1)", 3),
        ("conv(kc(0,1))", 12),
        ("kc(0,1)?", 7),
    ],
)
def test_parse_errors_carry_byte_offsets(text, pos):
    with pytest.raises(ParseError) as exc:
        eval_text(text)
    assert exc.value.position == pos
    assert f"(at byte {pos})" in str(exc.value)


def test_domain_errors_are_not_parse_errors():
    with pytest.raises(InputError):
        eval_text("kc(1,0)")
    with pytest.raises(InputError):
        eval_text("ko(2,2)")


def test_eval_anchors():
    assert eval_text("conv(kc(0,1), shift(ko(-1,0),1))") == dirac(0)
    assert eval_text("sum(kc(0,1), kc(0,1))") == kc(0, 1, mult=2)
    assert eval_text("translate(kco(0,1), 5)") == kco(5, 6)
    assert eval_text("inverse(kc(0,1))") == ko(-1, 0, shift=1)


# ---------------------------------------------------------------------------
# serialization round-trips


@pytest.mark.parametrize("text", CORPUS)
def test_expr_round_trip(text):
    f = eval_text(text)
    assert eval_text(sheaf_to_expr(f)) == f


@pytest.mark.parametrize("text", CORPUS)
def test_json_round_trip(text):
    f = eval_text(text)
    wire = json.dumps(sheaf_to_json(f), separators=(",", ":"))
    assert sheaf_from_json(json.loads(wire)) == f
    # canonical means byte-identical on equal objects
    assert json.dumps(sheaf_to_json(sheaf_from_json(json.loads(wire))),
                      separators=(",", ":")) == wire


def test_wire_format_matches_contract():
    assert sheaf_to_json(dirac(0)) == {
        "generators": [{"lo": "0", "hi": "0", "closure": "cc", "shift": 0, "mult": 1}]
    }
    assert sheaf_to_json(zero()) == {"generators": []}


def test_sheaf_from_json_rejects_malformed():
    good = {"generators": [{"lo": "0", "hi": "1", "closure": "cc", "shift": 0, "mult": 1}]}
    bads = [
        {},
        {"generators": 3},
        {"generators": [{}]},
        {"generators": [dict(good["generators"][0], closure="c")]},
        {"generators": [dict(good["generators"][0], closure="CC")]},
        {"generators": [dict(good["generators"][0], closure="kc")]},
        {"generators": [dict(good["generators"][0], closure=["cc"])]},
        {"generators": [dict(good["generators"][0], lo=0)]},
        {"generators": [dict(good["generators"][0], shift="1")]},
        {"generators": [dict(good["generators"][0], mult=True)]},
        {"generators": [dict(good["generators"][0], extra=1)]},
        {"generators": [dict(good["generators"][0], lo="1/0")]},
    ]
    for bad in bads:
        with pytest.raises(InputError):
            sheaf_from_json(bad)
    assert sheaf_from_json(good) == kc(0, 1)


def test_text_rendering():
    f = direct_sum(kc(0, 1), shift(ko(3, 4), -1))
    assert sheaf_to_text(f) == "k[0,1] ⊕ k]3,4[[-1]"
    assert sheaf_to_text(zero()) == "0"
    assert sheaf_to_text(dirac(F(1, 2), mult=2)) == "2*k{1/2}"
    assert sheaf_to_text(koc(0, 1)) == "k]0,1]"


# ---------------------------------------------------------------------------
# command surface


def out_json(capsys):
    return json.loads(capsys.readouterr().out)


def test_cli_eval(capsys):
    rc = cli.main(["eval", "-e", "conv(kc(0,1), shift(ko(-1,0),1))"])
    assert rc == 0
    assert out_json(capsys) == {
        "generators": [{"lo": "0", "hi": "0", "closure": "cc", "shift": 0, "mult": 1}]
    }


def test_cli_eval_text(capsys):
    rc = cli.main(["eval", "-e", "sum(kc(0,1), shift(ko(3,4),-1))", "--text"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "k[0,1] ⊕ k]3,4[[-1]"


def test_cli_invert_both_verdicts(capsys):
    assert cli.main(["invert", "-e", "kc(0,1)"]) == 0
    assert out_json(capsys)["generators"][0]["closure"] == "oo"
    rc = cli.main(["invert", "-e", "kco(0,1)"])
    assert rc == 1
    body = out_json(capsys)
    assert body["invertible"] is False and "semi-open" in body["reason"]


def test_cli_check(capsys):
    assert cli.main(["check", "-e", "kc(0,1)"]) == 0
    body = out_json(capsys)
    assert body["invertible"] and body["necessary_check"] and body["consistent"]
    assert cli.main(["check", "-e", "sum(kc(0,1), dirac(4))"]) == 1
    body = out_json(capsys)
    assert not body["invertible"] and body["consistent"]


def test_cli_check_reports_one_sided_pass_as_consistent(capsys):
    # passes the necessary condition while not invertible: fine, exit 1
    rc = cli.main(["check", "-e", "sum(kco(0,1), shift(kc(0,1/2),1))"])
    assert rc == 1
    body = out_json(capsys)
    assert body["necessary_check"] and not body["invertible"] and body["consistent"]


def test_cli_btrans_ss_cc_stalk(capsys):
    assert cli.main(["btrans", "-e", "dirac(0)"]) == 0
    assert capsys.readouterr().out.strip() == '{"plus":[["0","1"]],"minus":[["0","1"]],"zero":1}'
    assert cli.main(["ss", "-e", "kc(0,1)"]) == 0
    assert out_json(capsys) == {"zero_section": [["0", "1"]], "rays": [["0", "-"], ["1", "+"]]}
    assert cli.main(["cc", "-e", "dirac(2)"]) == 0
    assert out_json(capsys)["plus"] == [["2", "1"]]
    assert cli.main(["stalk", "-e", "conv(kc(0,1), ko(0,1))", "--at", "1"]) == 0
    assert out_json(capsys) == {"at": "1", "stalk": {"1": 1}}


def test_cli_parse_error_is_exit_2(capsys):
    rc = cli.main(["eval", "-e", "kc(0,1"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "at byte 6" in err


def test_python_m_sheafconv_runs_the_cli():
    src = os.path.dirname(os.path.dirname(os.path.abspath(sheafconv.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "sheafconv", "eval", "-e", "kc(0,1)"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["generators"][0]["closure"] == "cc"
    proc = subprocess.run([sys.executable, "-m", "sheafconv", "eval", "-e", "kc(0,1"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 2 and "at byte 6" in json.loads(proc.stderr)["error"]


def test_readme_example_runs():
    readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "README.md")
    result = doctest.testfile(readme, module_relative=False)
    assert result.attempted > 0 and result.failed == 0


def _readme_cli_examples():
    """(argv, stdout, exit code) of each `$ sheafconv` line in the README's
    first block of command-line examples; region examples are skipped,
    since their files are not in the repository."""
    readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "README.md")
    with open(readme, encoding="utf-8") as fh:
        blocks = re.findall(r"^```\n(.*?)^```", fh.read(), re.S | re.M)
    lines = next(b for b in blocks if "$ sheafconv " in b).splitlines()
    examples = []
    for i, line in enumerate(lines):
        if not line.startswith("$ sheafconv ") or line.startswith("$ sheafconv region "):
            continue
        out = []
        for text in lines[i + 1:]:
            if not text or text.startswith("$ "):
                break
            out.append(text)
        body, _, comment = "\n".join(out).partition("#")
        code = int(comment.split()[-1]) if comment else 0
        examples.append((shlex.split(line)[2:], body.rstrip() + "\n", code))
    return examples


@pytest.mark.parametrize("argv, stdout, code", _readme_cli_examples())
def test_readme_cli_examples_print_what_they_show(capsys, argv, stdout, code):
    assert cli.main(argv) == code
    out, err = capsys.readouterr()
    assert out == stdout and err == ""


def test_readme_cli_examples_are_all_read():
    assert len(_readme_cli_examples()) == 7


def test_cli_bad_rational_is_exit_2(capsys):
    assert cli.main(["stalk", "-e", "kc(0,1)", "--at", "x"]) == 2
    capsys.readouterr()


LONG = "1" * 5000  # past Python's default int/str conversion limit of 4300 digits


@pytest.mark.parametrize("argv", [
    ["eval", "-e", f"kc(0,{LONG})"],
    ["eval", "-e", f"kc(0,1/{LONG})"],
    ["eval", "-e", f"shift(kc(0,1),{LONG})"],
    ["stalk", "-e", "kc(0,1)", "--at", LONG],
    ["stalk", "-e", "kc(0,1)", f"--at=-1/{LONG}"],
], ids=["dsl-rational", "dsl-denominator", "dsl-shift", "stalk-at", "stalk-at-denominator"])
def test_cli_literal_past_digit_bound_is_exit_2(capsys, argv):
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and "1000 digits" in json.loads(err)["error"]


def test_literal_digit_bound_is_inclusive(capsys):
    edge = "9" * MAX_LITERAL_DIGITS
    assert eval_text(f"kc(0,{edge})") == kc(0, int(edge))
    assert cli.main(["stalk", "-e", "kc(0,2)", "--at", f"1/{edge}"]) == 0
    assert out_json(capsys)["stalk"] == {"0": 1}
    with pytest.raises(ParseError):
        eval_text(f"kc(0,{edge}9)")
    with pytest.raises(InputError):
        parse_rat(f"{edge}9")


@pytest.mark.parametrize("argv, at", [
    (["eval", "-e", "kc(\u0663,4)"], 3),  # ARABIC-INDIC DIGIT THREE
    (["eval", "-e", "kc(\uff11,2)"], 3),  # FULLWIDTH DIGIT ONE
    (["eval", "-e", "kc(\u0663,4"], 3),
    (["eval", "-e", "kc(0,\u00a01)"], 5),  # NO-BREAK SPACE
    (["stalk", "-e", "kc(0,2)", "--at", "\u0661"], None),
    (["stalk", "-e", "kc(0,2)", "--at", "1\n"], None),
], ids=["dsl-arabic-indic", "dsl-fullwidth", "dsl-unbalanced", "dsl-no-break-space",
        "stalk-at", "stalk-at-trailing-newline"])
def test_cli_literals_are_ascii(capsys, argv, at):
    # only ASCII precedes the offending character, so its offset is a byte offset
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    error = json.loads(err)["error"]
    assert out == "" and error
    if at is not None:
        assert error.endswith(f"(at byte {at})")


def test_cli_region_vertex_is_ascii(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(_region_doc(vertices=[["0", "0"], ["1", "0"], ["0", "\u0663"]]))
    assert cli.main(["region", "check", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "malformed rational" in json.loads(err)["error"]


def test_cli_convolution_past_pair_bound_is_exit_2(capsys):
    # two 400-term sums: 160,000 generator pairs, refused before any is built
    terms = ",".join(f"kc({i},{2 * i + 1}/2)" for i in range(400))
    assert 400 * 400 > sheaf1.MAX_GENERATOR_PAIRS
    assert cli.main(["eval", "-e", f"conv(sum({terms}),sum({terms}))"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "generator pairs" in json.loads(err)["error"]


def test_cli_zero_denominator_with_leading_zeros_is_exit_2(capsys):
    assert cli.main(["eval", "-e", "kc(0,1/00)"]) == 2
    assert "zero denominator" in json.loads(capsys.readouterr().err)["error"]


@pytest.mark.parametrize("argv", [
    ["eval", "-e", "kc(0,1/010)"],
    ["stalk", "-e", "kc(0,1)", "--at", "1/010"],
], ids=["dsl", "stalk-at"])
def test_cli_denominator_with_leading_zero_is_exit_2(capsys, argv):
    # the DSL and --at read one literal grammar
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and json.loads(err)["error"]


def test_dsl_literal_error_points_at_the_literal():
    with pytest.raises(ParseError) as exc:
        parse("kc(0, 1/010)")
    assert exc.value.position == 6


def test_cli_table(capsys):
    rc = cli.main(["table", "--trials", "40", "--seed", "2"])
    assert rc == 0
    body = out_json(capsys)
    assert body == {"trials": 40, "seed": 2, "count": 0, "failures": []}


def test_cli_table_zero_trials_is_exit_2(capsys):
    assert cli.main(["table", "--trials", "0"]) == 2
    capsys.readouterr()


def test_cli_table_trials_past_bound_is_exit_2(capsys):
    # only the first value past the bound: running the bound itself takes ~2.5 s
    assert cli.main(["table", "--trials", str(MAX_TRIALS + 1)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and f"at most {MAX_TRIALS} trials" in json.loads(err)["error"]


# five pairwise coprime 1000-digit denominators (their differences have
# only the prime factors 2, 3 and 5, none of which divides them), so the
# left end of their convolution has a denominator of about 5000 digits,
# past Python's default int/str conversion limit of 4300 digits
WIDE = "conv(" + ",".join(f"kc(1/{10**999 + a},1)" for a in (1, 3, 7, 9, 13)) + ")"


@pytest.mark.parametrize("argv", [
    ["eval", "-e", WIDE],
    ["eval", "-e", WIDE, "--text"],
    ["btrans", "-e", WIDE],
    ["cc", "-e", WIDE],
    ["ss", "-e", WIDE],
], ids=["eval", "eval-text", "btrans", "cc", "ss"])
def test_cli_output_past_digit_limit_is_exit_2(capsys, argv):
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and f"{sys.get_int_max_str_digits()} digits" in json.loads(err)["error"]


# two five-term sums over the same five pairwise coprime 1000-digit
# denominators, all four closures and points among them.  Each position
# of their convolution has a denominator of about 2000 digits, and the
# common denominator of all of them about 5000, so the integer paths of
# the 1D layers scale every position to 5000 digits.  The digests are
# those of the outputs the Fraction-keyed layers wrote, which the
# integer paths must reproduce byte for byte; the check's is that of its
# closed-form detail, B(F) and the norms.
_D = [10**999 + a for a in (1, 3, 7, 9, 13)]
HOSTILE = (f"conv(sum(kc(1/{_D[0]},1),ko(-1/{_D[1]},2),kco(1/{_D[2]},3),"
           f"koc(-1/{_D[3]},1),dirac(1/{_D[4]})),"
           f"sum(kc(-1/{_D[0]},2),ko(1/{_D[1]},1),shift(kc(1/{_D[2]},2),1),"
           f"kco(-1/{_D[3]},1),koc(1/{_D[4]},2)))")


@pytest.mark.parametrize("cmd, code, size, digest", [
    ("check", 1, 55607, "bf754482af28969f08a801cc8cd98fd35e23565391741305ec9eccfc4f1dcfbc"),
    ("btrans", 0, 55373, "10723f6d5d467da86121876f7c0adafd4ea86b3a7a8801d3e48a2e21555a1003"),
    ("cc", 0, 104670, "b51b96ac235060fa93ebf7f4bbd9acc600b0006c41f410cf27b45ad3eb0ea1f3"),
    ("eval", 0, 76327, "a3f6b7a752ca2761f03752ddf05df56ad833bad021d04981d797b0c869fcce13"),
], ids=["check", "btrans", "cc", "eval"])
def test_cli_hostile_denominators_keep_their_output(capsys, cmd, code, size, digest):
    assert cli.main([cmd, "-e", HOSTILE]) == code
    out, err = capsys.readouterr()
    assert err == "" and len(out) == size
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("expr", [large_check_expr(), HOSTILE], ids=["large", "hostile"])
def test_cli_check_transform_is_what_btrans_prints(capsys, expr):
    assert cli.main(["check", "-e", expr]) == 1
    detail = out_json(capsys)["detail"]
    assert cli.main(["btrans", "-e", expr]) == 0
    assert detail["transform"] == out_json(capsys)
    assert len(detail["transform"]["plus"]) > 10


SQ = {
    "dimension": 2,
    "terms": [{"vertices": [["0", "0"], ["1", "0"], ["0", "1"], ["1", "1"]],
               "mode": "closed", "weight": 1}],
}


def write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


def test_cli_region_check_and_conv(tmp_path, capsys):
    sq = write(tmp_path, "sq.json", SQ)
    assert cli.main(["region", "check", sq]) == 0
    body = out_json(capsys)
    assert body["invertible"] and body["d"] == 2
    neg = write(tmp_path, "neg.json", body["inverse"])

    assert cli.main(["region", "conv", sq, neg, "--at", "0,0"]) == 0
    assert out_json(capsys)["value"] == 1
    assert cli.main(["region", "conv", sq, neg, "--at", "1/2,1/2"]) == 0
    assert out_json(capsys)["value"] == 0


def test_cli_region_conv_at_around_the_support(tmp_path, capsys):
    # a probe strictly outside the product's box is 0 before any term is
    # tested; on and inside the box the terms decide.  Box corners, face
    # midpoints and one 1/den step outside each, an inside point and a
    # coordinate over 7 all give the value of the path without the box test
    poly = {"vertices": [[0, 0], ["3/2", 0], [2, "4/3"], [1, 2], ["1/2", 2]], "mode": "closed",
            "weight": 1}
    tri = {"vertices": [[0, 0], [1, 0], [0, "1/2"]], "mode": "relint", "weight": 2}
    seg = {"vertices": [[-1, 1], ["1/3", 1]], "mode": "closed", "weight": -1}
    docs = {"p": {"dimension": 2, "terms": [poly]}, "q": {"dimension": 2, "terms": [tri, seg]}}
    p, q = (write(tmp_path, f"{k}.json", v) for k, v in docs.items())
    f, g = (cfun.ConstructibleFunction(region.region_from_json(v)) for v in docs.values())
    h = cfun.euler_convolve(f, g).region
    (lo, hi), den = h.box, h.den
    mid = [F(a + b, 2 * den) for a, b in zip(lo, hi)]
    points = [tuple(F(c, den) for c in v) for v in product(*zip(lo, hi))]
    points += [tuple(F(side[i] + step, den) if j == i else c for j, c in enumerate(mid))
               for i in range(2) for side, off in ((lo, -1), (hi, 1)) for step in (0, off)]
    points += [tuple(mid), (F(1, 7), F(-3, 7))]
    values = []
    for x in points:
        assert cli.main(["region", "conv", p, q, "--at=" + ",".join(map(str, x))]) == 0
        values.append(out_json(capsys)["value"])
        assert values[-1] == parent_euler_convolve_at(f, g, x), x
    assert values[5:12:2] == [0] * 4 and any(values[:-2])
    # no terms, or two that cancel: 0 everywhere, as before the box test
    empty = write(tmp_path, "empty.json", {"dimension": 2, "terms": []})
    cancel = write(tmp_path, "cancel.json",
                   {"dimension": 2, "terms": [poly, dict(poly, weight=-1)]})
    for a, b in ((empty, q), (q, empty), (empty, empty), (cancel, q)):
        for x in ("0,0", "1/2,1/3", "-100,7/5"):
            assert cli.main(["region", "conv", a, b, "--at=" + x]) == 0
            assert out_json(capsys)["value"] == 0


def test_cli_convex_region_check_makes_no_fraction(tmp_path, capsys, monkeypatch):
    # two overlapping boxes: the hull and the inverse are written from
    # their integer vertices, never through Fraction views
    doc = {"dimension": 2, "terms": [_box_term((0, 0), (F(3, 2), F(1, 2))),
                                     _box_term((1, 0), (3, F(1, 2)))]}
    path = write(tmp_path, "two.json", doc)
    calls = []
    real = Fraction.__new__

    def counting(cls, *args, **kwargs):
        calls.append(args)
        return real(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    assert cli.main(["region", "check", path]) == 0
    monkeypatch.undo()
    assert calls == []
    body = out_json(capsys)
    assert body["hull"] == [["0", "0"], ["0", "1/2"], ["3", "0"], ["3", "1/2"]]
    assert body["inverse"]["terms"] == [{"vertices": [["-3", "-1/2"], ["-3", "0"],
                                                      ["0", "-1/2"], ["0", "0"]],
                                         "mode": "relint", "weight": 1}]


def test_cli_region_nonconvex_and_sweep(tmp_path, capsys):
    L = {
        "dimension": 2,
        "terms": [
            {"vertices": [["0", "0"], ["2", "0"], ["2", "1"], ["0", "1"]],
             "mode": "closed", "weight": 1},
            {"vertices": [["0", "0"], ["1", "0"], ["1", "2"], ["0", "2"]],
             "mode": "closed", "weight": 1},
        ],
    }
    path = write(tmp_path, "L.json", L)
    assert cli.main(["region", "check", path]) == 1
    body = out_json(capsys)
    assert not body["invertible"] and body["slice_chi"] >= 2

    assert cli.main(["region", "sweep", path, "--max-coeff", "2"]) == 1
    body = out_json(capsys)
    assert not body["all_pass"] and body["failing"]

    sq = write(tmp_path, "sq.json", SQ)
    assert cli.main(["region", "sweep", sq, "--max-coeff", "2"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("coeff, code", [("-1", 2), ("9", 2), ("8", 0)])
def test_cli_sweep_bounds_max_coeff(tmp_path, capsys, coeff, code):
    sq = write(tmp_path, "sq.json", SQ)
    assert cli.main(["region", "sweep", sq, "--max-coeff", coeff]) == code
    out, err = capsys.readouterr()
    if code:
        assert out == "" and "max_coeff" in json.loads(err)["error"]
    else:
        # one covector per line through the origin and a point of the
        # 17 x 17 grid: half the grid's primitive vectors
        lines = sum(gcd(a, b) == 1 for a in range(-8, 9) for b in range(-8, 9)) // 2
        assert json.loads(out)["all_pass"] and len(json.loads(out)["entries"]) == lines


def test_cli_region_errors(tmp_path, capsys):
    assert cli.main(["region", "check", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["region", "check", str(bad)]) == 2
    sq = write(tmp_path, "sq.json", SQ)
    assert cli.main(["region", "conv", sq, sq, "--at", "1,2,3"]) == 2
    capsys.readouterr()


def test_cli_empty_region_has_one_message(tmp_path, capsys):
    # check and sweep validate the region before any geometry
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"dimension": 2, "terms": []}))
    errors = []
    for sub in ("check", "sweep"):
        assert cli.main(["region", sub, str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        errors.append(json.loads(err)["error"])
    assert errors[0] == errors[1] and "empty region" in errors[0]


def _region_doc(dimension=2, **term):
    return json.dumps({"dimension": dimension, "terms": [dict(SQ["terms"][0], **term)]}).encode()


def _coordinate_doc(c):
    return _region_doc(vertices=[[0, 0], [1, 0], [0, c]])


@pytest.mark.parametrize("content", [
    b'{"dimension": 2, "terms": [\xff]}',  # not UTF-8
    b"[" * 100_000,  # deeper than the JSON decoder recurses
    _region_doc(mode=["closed"]),
    _region_doc(mode={"closed": 1}),
    _region_doc(vertices=[5]),
    _region_doc(vertices=[[0, 0], [1, 0], [0, "BIG"]]).replace(b'"BIG"', b"1" * 5000),
    _coordinate_doc(0.5),
    _coordinate_doc(True),
    _coordinate_doc("1/0"),
    _coordinate_doc("+1"),
    _coordinate_doc(" 1"),
    _coordinate_doc("1/02"),
    _coordinate_doc("\u0663"),
    _coordinate_doc("1" * 1001),
    _coordinate_doc("1/" + "1" * 1001),
    _region_doc(vertices=[[0, 0], [1], [0, 1]]),
    _region_doc(dimension=0, vertices=[[]]),
    _region_doc(dimension=4, vertices=[[0, 0, 0, 0], [1, 0, 0, 0]]),
    b"[]",
    b'{"dimension": "2", "terms": []}',
    b'{"dimension": 2, "terms": {}}',
], ids=["not-utf8", "deep-nesting", "mode-list", "mode-object", "vertex-not-list",
        "integer-past-digit-limit", "float", "bool", "zero-denominator", "plus-sign",
        "leading-space", "denominator-leading-zero", "non-ascii-digit", "1001-digit-literal",
        "1001-digit-denominator", "ragged-vertex", "dimension-0", "dimension-4",
        "not-an-object", "dimension-string", "terms-object"])
def test_cli_malformed_region_file_is_exit_2(tmp_path, capsys, content):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    assert cli.main(["region", "check", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and json.loads(err)["error"]


@pytest.mark.parametrize("literal, message", [
    ("1/0", "zero denominator"),
    ("1/010", "malformed rational '1/010'; expected 'p' or 'p/q'"),
    ("7" * (MAX_LITERAL_DIGITS + 1), f"rational literal longer than {MAX_LITERAL_DIGITS} digits"),
    ("x", "malformed rational 'x'; expected 'p' or 'p/q'"),
], ids=["zero-denominator", "leading-zero", "past-digit-bound", "name"])
def test_literal_fault_reads_one_message_everywhere(tmp_path, capsys, literal, message):
    # the DSL, --at, a sheaf JSON endpoint and a region-file coordinate
    # share one literal check; the DSL's copy adds the byte offset
    assert cli.main(["eval", "-e", f"dirac({literal})"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and json.loads(err)["error"] == f"{message} (at byte 6)"
    assert cli.main(["stalk", "-e", "dirac(0)", "--at", literal]) == 2
    out, err = capsys.readouterr()
    assert out == "" and json.loads(err)["error"] == message
    with pytest.raises(InputError) as exc:
        sheaf_from_json({"generators": [
            {"lo": "0", "hi": literal, "closure": "cc", "shift": 0, "mult": 1}]})
    assert str(exc.value) == message
    path = tmp_path / "r.json"
    path.write_bytes(_coordinate_doc(literal))
    assert cli.main(["region", "check", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and json.loads(err)["error"] == message


def _literal_corpus(rng):
    """Seeded strings over digits, '-', '/', '+', space and a non-ASCII
    digit, near-miss literals among them, and literals at the digit bound."""
    out = ["0", "-0", "007", "0/5", "-6/4", "3/1", "1/0", "1/02", "-", "/2", "1//2", "1/-2"]
    for _ in range(3000):
        out.append("".join(rng.choice("0123456789--//+ \u0663") for _ in range(rng.randint(1, 7))))
    for k in (MAX_LITERAL_DIGITS - 1, MAX_LITERAL_DIGITS, MAX_LITERAL_DIGITS + 1):
        big = str(rng.randint(1, 9)) * k
        out += [big, "-" + big, f"{big}/7", f"7/{big}", "0" * k + "1"]
    return out


def test_literal_ratio_matches_parse_rat():
    # a region file's string coordinate reads to the lowest-terms integer
    # pair of the Fraction parse_rat makes, or fails with its message
    for text in _literal_corpus(random.Random(47)):
        try:
            want = parse_rat(text)
        except InputError as exc:
            with pytest.raises(InputError) as got:
                ratio(text)
            assert str(got.value) == str(exc), text
        else:
            assert ratio(text) == (want.numerator, want.denominator), text


@pytest.mark.parametrize("where", ["vertex", "weight"])
def test_cli_region_integer_digit_bound(tmp_path, capsys, where):
    # a JSON integer obeys the literal bound that a "p" string does
    edge = 10**MAX_LITERAL_DIGITS - 1
    for value, code in ((edge, 0), (edge + 1, 2), (-edge - 1, 2)):
        term = dict(SQ["terms"][0])
        if where == "vertex":
            term["vertices"] = [[0, 0], [1, 0], [0, value]]
        else:
            term["weight"] = value
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"dimension": 2, "terms": [term]}))
        sq = write(tmp_path, "sq.json", SQ)
        assert cli.main(["region", "conv", str(path), sq, "--at", "0,0"]) == code, value
        out, err = capsys.readouterr()
        if code == 2:
            assert out == "" and "1000 digits" in json.loads(err)["error"]
        else:
            assert err == "" and json.loads(out)


def _box_term(lo, hi, mode="closed"):
    return {"vertices": [[str(c) for c in v] for v in product(*zip(lo, hi))],
            "mode": mode, "weight": 1}


def _run_module(*argv):
    """Exit code, stdout, stderr and wall seconds of `python -m sheafconv`."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(sheafconv.__file__)))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "sheafconv", *argv], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src), timeout=120)
    return proc.returncode, proc.stdout, proc.stderr, time.perf_counter() - start


def _tangent_cut(a, s=64):
    """The square [-s, s]^2 above the tangent y = 2ax - a^2 of y = x^2: its
    corners on or above the line, and the line's crossings with its sides."""
    line = [(x, 2 * a * x - a * a) for x in (-s, s)]
    if a:
        line += [(Fraction(y + a * a, 2 * a), y) for y in (-s, s)]
    corners = [(x, y) for x in (-s, s) for y in (-s, s) if y >= 2 * a * x - a * a]
    return {"vertices": [[str(c) for c in v] for v in corners + line
                         if all(abs(c) <= s for c in v)],
            "mode": "closed", "weight": 1}


@pytest.mark.parametrize("sub", ["check", "sweep"])
def test_cli_inclusion_exclusion_past_bound_is_exit_2(tmp_path, sub):
    # 16 cuts of a square by tangents of y = x^2 at a = -8..7: each subset
    # of cuts meets in its own polygon, whose edges are its tangents, so
    # no intersection merges, and 2^k - 1 live terms after k cuts are
    # refused once the live set passes the bound, at the 13th cut
    cuts = [_tangent_cut(a) for a in range(-8, 8)]
    path = write(tmp_path, "cuts.json", {"dimension": 2, "terms": cuts})
    assert 2**13 - 1 > region.MAX_IE_TERMS >= 2**12 - 1
    rc, out, err, seconds = _run_module("region", sub, path)
    assert (rc, out) == (2, "") and seconds < 10
    assert f"more than {region.MAX_IE_TERMS} terms" in json.loads(err)["error"]


def test_cli_disjoint_terms_check_within_budget(tmp_path):
    # 64 terms of 64 extreme points, centres 3000 apart: every pair of
    # boxes is apart, so the inclusion-exclusion clips no halfspace
    doc = disjoint_terms()
    assert {len(region.convex_hull(t["vertices"]).ints) for t in doc["terms"]} == {64}
    path = write(tmp_path, "balls.json", doc)
    rc, out, err, seconds = _run_module("region", "check", path)
    assert (rc, err) == (1, "") and json.loads(out)["invertible"] is False
    assert seconds < 10


def test_cli_disjoint_terms_sweep_past_bound_is_exit_2(tmp_path):
    # 11^3 - 1 grid points, 7,936 facet normals and C(4096, 2) vertex
    # pairs are counted and refused before any direction is built
    path = write(tmp_path, "balls.json", disjoint_terms())
    rc, out, err, seconds = _run_module("region", "sweep", path)
    assert (rc, out) == (2, "") and seconds < 10
    count = 1330 + 7936 + 4096 * 4095 // 2
    assert json.loads(err)["error"] == (f"sweep of {count} candidate directions: "
                                        f"more than {cfun.MAX_SWEEP_DIRECTIONS}")


def _intervals_doc(terms, verts):
    """terms disjoint unit-spaced intervals, each given by verts points."""
    return {"dimension": 1, "terms": [
        {"vertices": [[str(i + Fraction(j, verts))] for j in range(verts)], "mode": "closed",
         "weight": 1} for i in range(terms)]}


@pytest.mark.parametrize("cap, what, doc", [
    (region.MAX_REGION_TERMS, "terms", lambda k: _intervals_doc(k, 2)),
    (region.MAX_TERM_VERTICES, "vertices", lambda k: _intervals_doc(1, k)),
], ids=["terms", "vertices"])
def test_region_file_caps_are_exit_2(tmp_path, capsys, cap, what, doc):
    assert region.region_from_json(doc(cap)).terms
    with pytest.raises(InputError, match=f"more than {cap} {what}"):
        region.region_from_json(doc(cap + 1))
    path = write(tmp_path, "past.json", doc(cap + 1))
    assert cli.main(["region", "check", path]) == 2
    out, err = capsys.readouterr()
    assert out == "" and f"more than {cap} {what}" in json.loads(err)["error"]


def test_cli_convolution_past_face_pair_bound_is_exit_2(tmp_path):
    # 13 disjoint relint cubes expand into 13 * 27 = 351 closed faces each
    cubes = [_box_term((2 * i, 0, 0), (2 * i + 1, 1, 1), "relint") for i in range(13)]
    path = write(tmp_path, "cubes.json", {"dimension": 3, "terms": cubes})
    assert 351 * 351 > cfun.MAX_CONV_PAIRS
    rc, out, err, seconds = _run_module("region", "conv", path, path, "--at", "0,0,0")
    assert (rc, out) == (2, "") and seconds < 10
    assert "351 by 351 closed faces" in json.loads(err)["error"]


def test_cli_hollow_cube_has_a_witness_and_no_separating_slice(tmp_path, capsys):
    # six slabs of [0, 3]^3 around the open cube ]1, 2[^3: every slice
    # through the hole is a square less an open cell, of Euler
    # characteristic 0, so neither certificate tier finds a slice
    slabs = []
    for axis in range(3):
        for a, b in ((0, 1), (2, 3)):
            lo, hi = [0, 0, 0], [3, 3, 3]
            lo[axis], hi[axis] = a, b
            slabs.append(_box_term(lo, hi))
    path = write(tmp_path, "shell.json", {"dimension": 3, "terms": slabs})
    assert cli.main(["region", "check", path]) == 1
    body = out_json(capsys)
    assert body["invertible"] is False
    assert (body["direction"], body["slice_at"], body["slice_chi"]) == (None, None, None)
    outside = [Fraction(c) for c in body["witness"]["outside"]]
    assert all(1 < c < 2 for c in outside)
    # a box apart from the shell: no slice perpendicular to the witness
    # has Euler characteristic 2, so the fallback scan over the default
    # directions finds the one that meets the box and the shell at once
    doc = {"dimension": 3, "terms": slabs + [_box_term((10, 10, 10), (11, 11, 11))]}
    path = write(tmp_path, "shell_and_box.json", doc)
    assert cli.main(["region", "check", path]) == 1
    body = out_json(capsys)
    assert (body["direction"], body["slice_at"], body["slice_chi"]) == ([0, 1, -1], "-1", 2)
    nf = region.indicator_normal_form(region.region_from_json(doc))
    sliced = region.slice_region(nf, (0, 1, -1), "-1")
    assert region.euler_char_c(sliced) == 2
    assert sliced == parent_slice_region(nf, (0, 1, -1), "-1")


def test_cli_parser_is_built_once_and_reused_cleanly(tmp_path, capsys):
    assert cli.build_parser() is cli.build_parser()
    assert cli.main(["eval", "-e", "kc(0,1)", "--text"]) == 0
    assert capsys.readouterr().out == "k[0,1]\n"
    # --text from the previous call must not stick
    assert cli.main(["eval", "-e", "kc(0,1)"]) == 0
    assert out_json(capsys)["generators"][0]["closure"] == "cc"
    with pytest.raises(SystemExit) as exc:
        cli.main(["check"])  # missing -e
    assert exc.value.code == 2
    capsys.readouterr()
    assert cli.main(["check", "-e", "kc(0,1)"]) == 0
    assert out_json(capsys)["invertible"] is True


def test_cli_usage_error_is_exit_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["eval"])  # missing -e
    assert exc.value.code == 2


def test_cli_invariant_violation_is_exit_3(monkeypatch, capsys):
    # break the inverse self-check from outside
    monkeypatch.setattr(sheaf1, "convolve", lambda f, g: zero())
    rc = cli.main(["invert", "-e", "kc(0,1)"])
    assert rc == 3
    assert "self-check" in capsys.readouterr().err


def test_cli_check_disagreement_is_exit_3(monkeypatch, capsys):
    # an invertible object failing the necessary condition cannot occur;
    # fake one to pin the exit code
    monkeypatch.setattr(
        microlocal, "b_necessary_check", lambda f: (False, {"faked": True})
    )
    rc = cli.main(["check", "-e", "kc(0,1)"])
    assert rc == 3
    body = out_json(capsys)
    assert body["invertible"] and not body["necessary_check"] and not body["consistent"]
