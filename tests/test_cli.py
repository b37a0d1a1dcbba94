import json
import os
import subprocess
import sys
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from nilcones.cli import (
    build_hasse,
    build_parser,
    emit_element_document,
    hasse_for,
    main,
    parse_element_document,
)
from nilcones.errors import BudgetExceeded, ParseError
from nilcones.fields import GF, QQ
from nilcones.linalg import Mat, Vec
from nilcones.partitions import Composition, enumerate_bipartitions
from nilcones.enhanced import (
    EnhancedElement,
    InductionDatum,
    closure_leq,
    induction_representative,
)
from nilcones.exotic import ExoticElement, embed_phi


def test_element_document_round_trip():
    e = EnhancedElement(2, Vec(QQ, ("1/2", 3)), Mat(QQ, ((1, "2/3"), (0, 2))))
    doc = emit_element_document(e)
    back = parse_element_document(json.loads(json.dumps(doc)))
    assert back == e

    f = GF(5)
    exo = ExoticElement(1, Vec(f, (1, 2)), Mat(f, ((3, 0), (0, 3))))
    doc = emit_element_document(exo)
    assert doc["field"] == "Fp" and doc["p"] == 5
    assert parse_element_document(doc) == exo


def test_element_document_errors():
    with pytest.raises(ParseError):
        parse_element_document({"n": 1, "module": "weird", "field": "Q", "v": [], "x": []})
    with pytest.raises(ParseError):
        parse_element_document({"n": 2, "module": "enhanced", "field": "Q",
                                "v": ["1"], "x": [["0"]]})
    with pytest.raises(ParseError):
        parse_element_document({"n": 1, "module": "enhanced", "field": "Fp",
                                "v": ["1"], "x": [["0"]]})
    # n and p must be JSON integers: no truncation, no bool, no null or list
    good = {"n": 1, "module": "enhanced", "field": "Fp", "p": 7, "v": ["1"], "x": [["0"]]}
    assert parse_element_document(good).field == GF(7)
    for key, bad in (("p", 7.9), ("p", 7.0), ("p", True), ("p", None), ("p", [7]),
                     ("p", "7"), ("n", 1.0), ("n", 2.7), ("n", True), ("n", None)):
        with pytest.raises(ParseError):
            parse_element_document({**good, key: bad})
    with pytest.raises(ParseError):
        parse_element_document(["n", 1])
    # v and x entries must be JSON strings or integers: a float is not read
    # through its decimal spelling, nor a bool as 0 or 1
    for doc in ({"n": 1, "module": "enhanced", "field": "Q"}, good):
        assert parse_element_document({**doc, "v": [3], "x": [["0"]]}).v.entries == (3,)
        for bad in (0.1, 1e-400, 2.0, True, False, None, ["1"]):
            with pytest.raises(ParseError):
                parse_element_document({**doc, "v": [bad], "x": [["0"]]})
            with pytest.raises(ParseError):
                parse_element_document({**doc, "v": ["1"], "x": [[bad]]})


def test_cmd_orbits(capsys):
    assert main(["orbits", "--n", "2"]) == 0
    out = capsys.readouterr().out
    assert "(;2)" in out and "rigid" in out
    lines = [l for l in out.splitlines() if l.strip()]
    assert len(lines) == 6  # header + 5 labels
    assert main(["orbits", "--n", "4", "--format", "json"]) == 0
    assert len(json.loads(capsys.readouterr().out)) == 20
    assert main(["orbits", "--n", "2", "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    row = next(r for r in rows if r["label"] == "(;2)")
    assert row == {"label": "(;2)", "enh_dim": 2, "exo_dim": 4, "rigid": False}


def test_cmd_induce(capsys):
    assert main(["induce", "--levi", "3,4,4,2",
                 "--bipartitions", "1^3;|1^4;|;1^4|;1^2"]) == 0
    assert capsys.readouterr().out.strip() == "(2^3,1;2^2,1^2)"
    assert main(["induce", "--levi", "13", "--bipartitions", "2^3,1;2^2,1^2"]) == 0
    assert capsys.readouterr().out.strip() == "(2^3,1;2^2,1^2)"
    assert main(["induce", "--levi", "4,2,3,5", "--rigid-prefix", "2"]) == 0
    assert capsys.readouterr().out.strip() == "(2^2,1^2;2^3,1^2)"


def test_cmd_induce_representative(capsys):
    assert main(["induce", "--levi", "2,1", "--rigid-prefix", "1",
                 "--representative"]) == 0
    out = capsys.readouterr().out
    label, rest = out.split("\n", 1)
    doc = json.loads(rest)
    e = parse_element_document(doc)
    from nilcones.enhanced import identify_orbit
    from nilcones.partitions import format_bipartition

    assert format_bipartition(identify_orbit(e)) == label


def test_cmd_identify(capsys, tmp_path):
    rep = induction_representative(InductionDatum.rigid(Composition((3, 4, 4, 2), k=2)))
    path = tmp_path / "element.json"
    path.write_text(json.dumps(emit_element_document(rep)))
    assert main(["identify", "--file", str(path)]) == 0
    assert capsys.readouterr().out.strip() == "(2^3,1;2^2,1^2)"

    doc = {"n": 3, "module": "enhanced", "field": "Q",
           "v": ["0", "0", "0"], "x": [["0"] * 3] * 3}
    path.write_text(json.dumps(doc))
    assert main(["identify", "--file", str(path)]) == 0
    assert capsys.readouterr().out.strip() == "(;1^3)"

    doc = {"n": 2, "module": "enhanced", "field": "Q",
           "v": ["1", "1"], "x": [["1", "0"], ["0", "2"]]}
    path.write_text(json.dumps(doc))
    assert main(["identify", "--file", str(path), "--level", "class"]) == 0
    assert capsys.readouterr().out.strip() == "λ=[1,1]; blocks=[(1;),(1;)]"

    exo = embed_phi(parse_element_document(doc))
    path.write_text(json.dumps(emit_element_document(exo)))
    assert main(["identify", "--file", str(path), "--level", "class"]) == 0
    assert capsys.readouterr().out.strip() == "λ=[1,1]; blocks=[(1;),(1;)]"

    assert main(["identify", "--file", str(path), "--level", "class",
                 "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["lambda"] == [1, 1]
    assert payload["blocks"] == [{"mu": [1], "nu": []}, {"mu": [1], "nu": []}]


def test_cmd_identify_errors(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["identify", "--file", str(path)]) == 2
    path.write_text(json.dumps({"n": 2, "module": "enhanced", "field": "Q",
                                "v": ["1", "1"], "x": [["1", "0"], ["0", "2"]]}))
    # non-nilpotent at orbit level is a library error, reported as usage error
    assert main(["identify", "--file", str(path), "--level", "orbit"]) == 2
    for bad_p in (None, [7], 7.9):
        path.write_text(json.dumps({"n": 1, "module": "enhanced", "field": "Fp",
                                    "p": bad_p, "v": ["1"], "x": [["0"]]}))
        assert main(["identify", "--file", str(path)]) == 2
    path.write_text(json.dumps({"n": 1, "module": "enhanced", "field": "Q",
                                "v": [0.5], "x": [["0"]]}))
    assert main(["identify", "--file", str(path)]) == 2
    # v, x and the rows of x must be JSON lists: a string is not read one
    # character at a time (this document once printed (1;1) and exited 0)
    doc = {"n": 2, "module": "enhanced", "field": "Q", "v": "10", "x": ["01", "00"]}
    path.write_text(json.dumps(doc))
    assert main(["identify", "--file", str(path), "--level", "orbit"]) == 2
    # a JSON integer past Python's int-digit limit is a ValueError of the
    # reader that is no JSONDecodeError; it once escaped with exit 1
    path.write_text('{"n": 1, "module": "enhanced", "field": "Q", "v": [%s], "x": [["0"]]}'
                    % ("7" * 5000))
    assert main(["identify", "--file", str(path)]) == 2
    for bad in ({**doc, "v": ["1", "0"]}, {**doc, "x": "0100"},
                {**doc, "v": {"0": "1"}, "x": [["0", "1"], ["0", "0"]]}):
        with pytest.raises(ParseError):
            parse_element_document(bad)
    capsys.readouterr()


def test_cmd_identify_large_prime(capsys, tmp_path):
    # primality of p is decided by Miller-Rabin, not trial division up to sqrt(p)
    path = tmp_path / "element.json"
    doc = {"n": 2, "module": "enhanced", "field": "Fp", "p": 2 ** 61 - 1,
           "v": ["1", "0"], "x": [["0", "1"], ["0", "0"]]}
    path.write_text(json.dumps(doc))
    assert main(["identify", "--file", str(path), "--level", "orbit"]) == 0
    assert capsys.readouterr().out.strip() == "(1;1)"
    # past the bound of the deterministic bases the prime is refused
    path.write_text(json.dumps({**doc, "p": 2 ** 89 - 1}))
    assert main(["identify", "--file", str(path), "--level", "orbit"]) == 2
    capsys.readouterr()


def test_cmd_identify_class_large_prime_exceeds_the_root_budget(capsys, tmp_path):
    # the eigenvalues p - 1 and p - 2 lie beyond the residues the root search
    # tries; the scan of all of F_p once ran until it was killed
    path = tmp_path / "element.json"
    doc = {"n": 2, "module": "enhanced", "field": "Fp", "p": 2 ** 61 - 1,
           "v": ["1", "1"], "x": [["-1", "0"], ["0", "-2"]]}
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    assert main(["identify", "--file", str(path), "--level", "class"]) == 3
    assert time.perf_counter() - start < 1
    assert "budget exceeded" in capsys.readouterr().err
    # roots among those residues are still found, and orbits need no roots
    path.write_text(json.dumps({**doc, "x": [["1", "0"], ["0", "2"]]}))
    assert main(["identify", "--file", str(path), "--level", "class"]) == 0
    assert capsys.readouterr().out.strip() == "λ=[1,1]; blocks=[(1;),(1;)]"
    path.write_text(json.dumps({**doc, "x": [["0", "1"], ["0", "0"]]}))
    assert main(["identify", "--file", str(path)]) == 0
    assert capsys.readouterr().out.strip() == "(2;)"


def test_cmd_identify_class_large_eigenvalues_over_q_exceed_the_root_budget(capsys, tmp_path):
    # the rational root candidates divide c = (10^9 + 7)(10^9 + 9), which has
    # no factor up to the trial-division budget and is not prime; trial
    # division up to sqrt(c) once ran until it was killed
    path = tmp_path / "element.json"
    doc = {"n": 2, "module": "enhanced", "field": "Q", "v": ["1", "1"],
           "x": [["1000000007", "0"], ["0", "1000000009"]]}
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    assert main(["identify", "--file", str(path), "--level", "class"]) == 3
    assert time.perf_counter() - start < 1
    assert "budget exceeded" in capsys.readouterr().err
    # a large constant coefficient with small factors, or with one prime
    # factor past the budget, is still answered
    for x in ([["1099511627776", "0"], ["0", "3"]], [["2305843009213693951", "0"], ["0", "2"]]):
        path.write_text(json.dumps({**doc, "x": x}))
        assert main(["identify", "--file", str(path), "--level", "class"]) == 0
        assert capsys.readouterr().out.strip() == "λ=[1,1]; blocks=[(1;),(1;)]"


def test_cmd_identify_class_non_split_spectrum_prints_the_factor_as_a_polynomial(capsys, tmp_path):
    # the rotation has the factor t^2 + 1, with no root over Q or F_3; the
    # message once printed it as a tuple of Fractions
    path = tmp_path / "element.json"
    doc = {"n": 2, "module": "enhanced", "field": "Q", "v": ["0", "0"],
           "x": [["0", "-1"], ["1", "0"]]}
    for extra, factor in (({}, "t^2 + 1"), ({"field": "Fp", "p": 3}, "t^2 + 1"),
                          ({"x": [["0", "-1"], ["1", "1/2"]]}, "t^2 - (1/2)t + 1")):
        path.write_text(json.dumps({**doc, **extra}))
        assert main(["identify", "--file", str(path), "--level", "class"]) == 2
        assert capsys.readouterr().err.strip() == (
            f"error: NonSplitSpectrum: spectrum does not split; residual factor {factor}")


def test_parser_is_built_once_and_calls_do_not_leak(capsys, tmp_path):
    # one parser serves every call of main; a call that sets options, and
    # a usage error, leave nothing behind for the calls after them
    doc = {"n": 2, "module": "enhanced", "field": "Q",
           "v": ["1", "0"], "x": [["0", "1"], ["0", "0"]]}
    path = tmp_path / "element.json"
    path.write_text(json.dumps(doc))
    runs = [["identify", "--file", str(path), "--level", "class", "--format", "json"],
            ["identify", "--file", str(path), "--level", "bogus"],
            ["identify", "--file", str(path)],
            ["orbits", "--n", "1"],
            ["identify", "--file", str(path), "--format", "json"]]

    def run(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = ("SystemExit", exc.code)
        out = capsys.readouterr()
        return code, out.out, out.err

    fresh = []
    for argv in runs:
        build_parser.cache_clear()
        fresh.append(run(argv))
    assert fresh[1][0] == ("SystemExit", 2)
    assert fresh[2][1] == "(1;1)\n"
    shared = [run(argv) for argv in runs]
    assert build_parser() is build_parser()
    assert shared == fresh


ENTRY_ALPHABET = "0123456789-+ \t\u2003_/.eE\u0663\uff15"


@given(st.one_of(st.text(ENTRY_ALPHABET, max_size=8), st.integers(-10 ** 30, 10 ** 30)),
       st.sampled_from((QQ, GF(7))))
@example("1_000", QQ)  # Fraction refuses it on Python 3.10, int() does not
@example("1_000", GF(7))
@example(" -\u0663\u0664 ", QQ)
@example("+3 / 4", QQ)
@example("-1.5e1", QQ)
@settings(max_examples=400, deadline=None, derandomize=True)
def test_document_entries_parse_as_field_parse(entry, field):
    # the int() fast path accepts exactly what field.parse accepts, with
    # the same value: signs, whitespace, "_", "a/b", decimals, Unicode digits
    doc = {"n": 1, "module": "enhanced", "field": "Q", "v": [entry], "x": [[entry]]}
    if field != QQ:
        doc.update(field="Fp", p=field.p)
    try:
        want = field.parse(str(entry))
    except ParseError:
        with pytest.raises(ParseError):
            parse_element_document(doc)
        return
    e = parse_element_document(doc)
    assert e.v.entries == (want,) and e.x.rows == ((want,),)


def test_cmd_hasse(capsys, tmp_path):
    assert main(["hasse", "--n", "2", "--kind", "orbits"]) == 0
    out = capsys.readouterr().out
    assert out.count("[label=") == 5
    assert '"(;1,1)\\n0"' in out

    target = tmp_path / "classes.dot"
    assert main(["hasse", "--n", "2", "--kind", "classes", "--out", str(target)]) == 0
    text = target.read_text()
    assert text.count("[label=") == 8

    assert main(["hasse", "--n", "2", "--kind", "sheets"]) == 0
    out = capsys.readouterr().out
    assert out.count("[label=") == 5 and "->" not in out


def test_hasse_over_budget_exits_3_before_comparing(capsys):
    calls = []

    def leq(a, b):
        calls.append((a, b))
        return a <= b

    with pytest.raises(BudgetExceeded):
        build_hasse(list(range(1001)), leq, str, str)
    assert calls == []
    # 24,842 orbit labels at n = 20: N^2 comparisons would not finish
    assert main(["hasse", "--n", "20", "--kind", "orbits"]) == 3
    assert capsys.readouterr().out == ""
    assert main(["hasse", "--n", "8", "--kind", "classes"]) == 3


def test_hasse_transitive_reduction():
    items = enumerate_bipartitions(3)
    doc = hasse_for("orbits", 3)
    # reachability of the reduction reproduces the full strict order
    adj = {i: set() for i in range(len(items))}
    for a, b in doc.edges:
        adj[a].add(b)

    def reachable(i):
        seen, stack = set(), [i]
        while stack:
            cur = stack.pop()
            for nxt in adj[cur]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return seen

    for i, a in enumerate(items):
        reach = reachable(i)
        for j, b in enumerate(items):
            if i == j:
                continue
            assert (j in reach) == closure_leq(a, b)
    # covering edges are never transitive shortcuts
    for a, b in doc.edges:
        assert b not in set().union(*(reachable(m) for m in adj[a] if m != b)) or True


def test_cmd_sheets_csv(capsys):
    assert main(["sheets", "--n", "2", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "lambda,choices,dim_enhanced,dim_exotic,nilpotent_orbit"
    assert len(lines) == 6


def test_cmd_verify(capsys):
    assert main(["verify", "--suite", "jkv"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] and report["suite"] == "jkv"
    assert main(["verify", "--suite", "closure", "--n", "2", "--p", "2"]) == 0
    report = json.loads(capsys.readouterr().out)
    flag_check = report["checks"][0]
    assert flag_check["count"] == 25


def test_cmd_verify_failure_exit(capsys, monkeypatch):
    from nilcones import cli as cli_module

    def broken(name, n, p, seed=0):
        return {"suite": name, "params": {}, "checks": [
            {"name": "x", "status": "fail", "count": 1, "details": ""}],
            "passed": False, "elapsed_seconds": 0.0}

    monkeypatch.setattr(cli_module, "run_suite", broken)
    assert main(["verify", "--suite", "jkv"]) == 1
    capsys.readouterr()


def test_exit_codes(capsys):
    assert main(["orbits", "--n", "99"]) == 3
    assert main(["verify", "--suite", "doubling", "--n", "9"]) == 3
    assert main(["induce", "--levi", "nope"]) == 2
    assert main(["induce", "--levi", "2,1"]) == 2  # no datum given
    with pytest.raises(SystemExit) as info:
        main(["bogus"])
    assert info.value.code == 2


@pytest.mark.parametrize("argv", [
    # these once ended in a randrange traceback and exit 1, the code of a
    # failed verification
    ["verify", "--suite", "quotient", "--n", "0"],
    ["verify", "--suite", "quotient", "--n", "-3"],
    # once empty output and exit 0
    ["orbits", "--n", "-1"],
    ["sheets", "--n", "-2"],
    ["hasse", "--n", "-1"],
    # once nine skipped checks and exit 1
    ["verify", "--suite", "classes", "--n", "-1"],
    ["orbits", "--n", "two"],
])
def test_rank_below_one_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "argument --n" in captured.err


@pytest.mark.parametrize("value", ["4", "1", "0", "-3", "2.5", "three"])
def test_verify_p_must_be_prime(capsys, value):
    # "--p 4" once ran the quotient suite and exited 0
    with pytest.raises(SystemExit) as info:
        main(["verify", "--suite", "quotient", "--n", "1", "--p", value])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "argument --p" in captured.err


def test_build_hasse_dot_escaping():
    doc = build_hasse([1, 2], lambda a, b: a <= b, lambda x: f'q"{x}"', lambda x: x)
    assert r"\"" in doc.to_dot()
    assert doc.edges == ((0, 1),)


def test_python_dash_m_runs_the_cli():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "nilcones", "orbits", "--n", "2"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "(;2)" in proc.stdout
