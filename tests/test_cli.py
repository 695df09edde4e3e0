import dataclasses
import json
import math
import os
import subprocess
import sys

import pytest

from gammaforms import classgroup as cg
from gammaforms import cli, fundomain, genus, reduction
from gammaforms.cli import run
from gammaforms.core import Form, GroupElement, act, cm_point
from gammaforms.errors import InvariantError
from conftest import compose_one_pair_wrongly


def capture(capsys, argv):
    code = run(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_enumerate_tsv(capsys):
    code, out, _ = capture(capsys, ["enumerate", "--disc", "-8", "--level", "2", "--format", "tsv"])
    assert code == 0
    assert [line.split() for line in out.splitlines()] == [
        ["1", "0", "2"],
        ["2", "0", "1"],
        ["3", "2", "1"],
    ]


def test_enumerate_json_round_trip(capsys):
    code, out, _ = capture(capsys, ["enumerate", "--disc", "-7", "--level", "2", "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["forms"] == [
        {"a": 1, "b": 1, "c": 2},
        {"a": 2, "b": -1, "c": 1},
        {"a": 2, "b": 1, "c": 1},
    ]


def test_classify_default_json(capsys):
    code, out, _ = capture(capsys, ["classify", "--prime", "23", "--disc", "-28", "--level", "2"])
    assert code == 0
    assert json.loads(out) == {"coset": [11, 15, 23], "witness": "7,0,1", "x": 1, "y": 4}


def test_classify_not_represented(capsys):
    code, out, _ = capture(capsys, ["classify", "--prime", "3", "--disc", "-28", "--level", "2"])
    assert code == 0
    assert json.loads(out) == {"coset": None, "witness": None, "kronecker": -1}


def test_verify_iso_line(capsys):
    code, out, _ = capture(capsys, ["verify-iso", "--disc", "-8", "--level", "2"])
    assert code == 0
    assert out.splitlines()[0] == "isomorphic: true; invariant_factors: [2]"


def test_verify_iso_oracle(capsys):
    code, out, _ = capture(capsys, ["verify-iso", "--disc", "-23", "--level", "2", "--oracle"])
    assert code == 0
    assert "oracle: ok (9 pairs)" in out


def test_verify_iso_oracle_catches_a_wrong_class(capsys, monkeypatch):
    compose_one_pair_wrongly(monkeypatch, -23, 2)
    code, out, err = capture(capsys, ["verify-iso", "--disc", "-23", "--level", "2", "--oracle"])
    assert code == 1 and out == ""
    assert "oracle mismatch at classes 0, 1" in err


def test_verify_iso_mismatch_exit_code(capsys, monkeypatch):
    # a level-1 group with other invariant factors is a failed consistency
    # check: the comparison is still printed, and the exit code is 1
    real = cg.class_group

    def level_one_wrong(d, n):
        group = real(d, n)
        return dataclasses.replace(group, invariant_factors=(3,)) if n == 1 else group

    monkeypatch.setattr(cg, "class_group", level_one_wrong)
    code, out, _ = capture(capsys, ["verify-iso", "--disc", "-8", "--level", "2"])
    assert code == 1
    assert out.splitlines()[0] == "isomorphic: false; left: [2]; right: [3]"
    code, out, _ = capture(capsys, ["verify-iso", "--disc", "-8", "--level", "2", "--json"])
    assert code == 1 and json.loads(out)["isomorphic"] is False


def test_reduce_and_equiv(capsys):
    code, out, _ = capture(capsys, ["reduce", "--form", "1,2,2", "--level", "2", "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["reduced"] == {"a": 1, "b": 0, "c": 1}

    code, out, _ = capture(
        capsys, ["equiv", "--form1", "1,0,1", "--form2", "2,2,1", "--level", "2"]
    )
    assert code == 0 and out.startswith("equivalent: false")

    code, out, _ = capture(
        capsys, ["equiv", "--form1", "1,0,1", "--form2", "2,2,1", "--level", "1", "--json"]
    )
    data = json.loads(out)
    assert data["equivalent"] is True
    assert len(data["gamma"]) == 2


def test_classgroup_and_genus(capsys):
    code, out, _ = capture(capsys, ["classgroup", "--disc", "-8", "--level", "2", "--table"])
    assert code == 0
    assert "order: 2" in out and "invariant_factors: [2]" in out and "table:" in out

    code, out, _ = capture(capsys, ["genus", "--disc", "-28", "--level", "2", "--json"])
    data = json.loads(out)
    assert data["ker_chi"] == [1, 9, 11, 15, 23, 25]
    assert data["H"] == [1, 9, 25]
    assert data["cosets"] == [[1, 9, 25], [11, 15, 23]]


def test_represent(capsys):
    code, out, _ = capture(
        capsys, ["represent", "--form", "7,0,1", "--value", "23", "--level", "2"]
    )
    assert code == 0
    assert "1,4 proper=true admissible=true" in out


def test_represent_search_bound(capsys, monkeypatch):
    # about 2e12 values of y: refused up front instead of looping
    monkeypatch.delenv("GAMMA_FORMS_MAX_SEARCH", raising=False)
    argv = ["represent", "--form", "1,0,1", "--value", str(10**24), "--level", "1"]
    code, out, err = capture(capsys, argv)
    assert code == 4 and out == ""
    assert err.startswith("error: search-bound:")


def test_enumerate_sweep_bound(capsys, monkeypatch):
    # about 3e11 divisor trials in the level-1 sweep every table starts
    # from: refused before the sweep starts, at level 1 and at level 11
    monkeypatch.delenv("GAMMA_FORMS_MAX_SEARCH", raising=False)
    for disc, level in (("-1000000000000", "1"), ("-1000000000000", "11")):
        code, out, err = capture(capsys, ["enumerate", "--disc", disc, "--level", level])
        assert code == 4 and out == ""
        assert err.startswith("error: search-bound:")


def test_search_bound_before_the_work(capsys, monkeypatch):
    # class tables over psi(N) > 10^9 cosets, a prime above the
    # Miller-Rabin limit with no factor below 100, genus tables walking
    # 10^12 residues, a region with 10^6 arcs and an oracle over 1032^2
    # class pairs: all refused without the work
    monkeypatch.delenv("GAMMA_FORMS_MAX_SEARCH", raising=False)
    for argv in (
        ["enumerate", "--disc", "-23", "--level", "1000000007"],
        ["enumerate", "--disc", "-23", "--level", "1000000000000000003"],
        ["classify", "--prime", "3317044064679887385962123", "--disc", "-23", "--level", "1"],
        ["genus", "--disc", "-1000000000000", "--level", "1"],
        ["classify", "--prime", "5", "--disc", "-999999999999", "--level", "1"],
        ["fundomain", "--p", "1000003"],
        ["verify-iso", "--disc", "-4000004", "--level", "1", "--oracle"],
    ):
        code, out, err = capture(capsys, argv)
        assert code == 4 and out == "", argv
        assert err.startswith("error: search-bound:"), argv


def test_classify_a_large_prime(capsys, monkeypatch):
    # one square root mod p and one reduction: no y-range to scan
    monkeypatch.delenv("GAMMA_FORMS_MAX_SEARCH", raising=False)
    p = 1000000000039
    for level in (1, 5):
        argv = ["classify", "--prime", str(p), "--disc", "-23", "--level", str(level)]
        code, out, _ = capture(capsys, argv)
        assert code == 0, level
        data = json.loads(out)
        witness, x, y = Form.from_string(data["witness"]), data["x"], data["y"]
        assert witness.disc == -23 and witness(x, y) == p, level
        assert math.gcd(x, level) == 1 and y % level == 0, level


def test_reduce_at_a_large_prime_level(capsys, monkeypatch):
    # the class reduced into the Gamma0(499) region, where a sweep of the
    # coefficients would take about 1.2e8 divisor trials
    monkeypatch.delenv("GAMMA_FORMS_MAX_SEARCH", raising=False)
    code, out, _ = capture(capsys, ["reduce", "--form", "3,1,250", "--level", "499", "--json"])
    assert code == 0
    rep = Form(**json.loads(out)["reduced"])
    assert rep.disc == -2999 and fundomain.contains(499, cm_point(rep))


def test_reduce_builds_no_class_table(capsys, monkeypatch):
    # one class's reduced form comes from the minimum of the form itself,
    # with no coset list and no sweep of reduced forms, from cold caches
    def refuse(*args):
        raise AssertionError(f"class table built for {args}")

    reduction.enumerate_reduced.cache_clear()
    monkeypatch.setattr(reduction, "_sweep", refuse)
    monkeypatch.setattr(reduction, "coset_reps", refuse)
    monkeypatch.delenv("GAMMA_FORMS_MAX_SEARCH", raising=False)
    q = Form(3, 7, 254)  # (3, 1, 250) translated by T
    for level in (1, 5, 150, 1009):
        rep = reduction.canonical_rep(q, level)
        assert reduction.equivalent_gamma0(q, rep, level) is not None, level
        code, out, _ = capture(capsys, ["reduce", "--form", str(q), "--level", str(level)])
        assert code == 0 and out.startswith(f"reduced: {rep}\n"), level


def test_equiv_answers_at_every_level(capsys, monkeypatch):
    # equiv compares two minima, which need no search bound: with the bound
    # at 1 a translated pair is answered at levels with too many cosets for
    # any class table
    monkeypatch.setenv("GAMMA_FORMS_MAX_SEARCH", "1")
    q = Form(2, 1, 3)
    for n in (10**6 + 3, 223092870, 10**12 + 39):
        moved = act(q, GroupElement(1, 0, n, 1) * GroupElement(1, 1, 0, 1))
        argv = ["equiv", "--form1", str(q), "--form2", str(moved), "--level", str(n), "--json"]
        code, out, _ = capture(capsys, argv)
        data = json.loads(out)
        assert code == 0 and data["equivalent"], n
        (a, b), (c, d) = data["gamma"]
        assert c % n == 0 and act(q, GroupElement(a, b, c, d)) == moved, n


def test_reduce_and_equiv_answer_alike(capsys, monkeypatch):
    # reduce and equiv run one minimum and read no search bound, so with the
    # bound at 1 both answer for a form and its Gamma0(N)-translate, at
    # levels with too many cosets for any class table and at a disc whose
    # sweep would take 1.3e12 divisor trials; equiv's witness carries the
    # form to the reduced form that reduce prints for its translate
    monkeypatch.setenv("GAMMA_FORMS_MAX_SEARCH", "1")

    def reduced(form, n):
        code, out, _ = capture(capsys, ["reduce", "--form", str(form), "--level", str(n), "--json"])
        assert code == 0, (form, n)
        data = json.loads(out)
        (a, b), (c, d) = data["transform"]
        return Form(**data["reduced"]), GroupElement(a, b, c, d)

    cases = [(Form(2, 1, 3), n) for n in (10**6 + 3, 223092870, 10**12 + 39)]
    cases.append((Form(1, 1, 10**12), 5))
    for q, n in cases:
        moved = act(q, GroupElement(1, 0, n, 1) * GroupElement(1, 1, 0, 1))
        argv = ["equiv", "--form1", str(q), "--form2", str(moved), "--level", str(n), "--json"]
        code, out, _ = capture(capsys, argv)
        data = json.loads(out)
        assert code == 0 and data["equivalent"], (q, n)
        (a, b), (c, d) = data["gamma"]
        gamma = GroupElement(a, b, c, d)
        rep, w = reduced(moved, n)
        assert w.c % n == 0 and act(moved, w) == rep, (q, n)
        assert act(q, gamma * w) == rep and reduced(q, n) == (rep, gamma * w), (q, n)

    # the reduction asks for no bound at all
    def refuse(default):
        raise AssertionError("reduce_gamma0 read a search bound")

    monkeypatch.setattr(reduction, "search_bound", refuse)
    for q, n in cases + [(Form(3, 1, 5), 2003), (Form(1, 1, 6), 10**9 + 7)]:
        assert reduction.reduce_gamma0(q, n).reduced == reduced(q, n)[0], (q, n)


def test_reduce_at_a_large_level_in_a_fresh_process():
    proc = _run_cli(["reduce", "--form", "3,1,250", "--level", "1009", "--json"])
    assert proc.returncode == 0, proc.stderr
    data = json.loads(proc.stdout)
    rep = Form(**data["reduced"])
    (a, b), (c, d) = data["transform"]
    assert a * d - b * c == 1 and c % 1009 == 0
    assert act(Form(3, 1, 250), GroupElement(a, b, c, d)) == rep
    assert fundomain.contains(1009, cm_point(rep))


def test_fundomain_svg(capsys, tmp_path):
    svg_path = tmp_path / "region.svg"
    code, out, _ = capture(capsys, ["fundomain", "--p", "5", "--svg", str(svg_path)])
    assert code == 0
    data = json.loads(out)
    assert len(data["arcs"]) == 4 and data["lines"] == ["-1/2", "1/2"]
    assert svg_path.read_text().startswith("<svg")


def test_fundomain_svg_unwritable(capsys, tmp_path):
    # a directory, and a file in a missing directory
    for path in (tmp_path, tmp_path / "missing" / "region.svg"):
        code, out, err = capture(capsys, ["fundomain", "--p", "11", "--svg", str(path)])
        assert code == 2 and out == "", path
        assert err.startswith("error: validation:") and "Traceback" not in err


def test_paper_tables(capsys):
    code, out, _ = capture(capsys, ["paper-tables"])
    assert code == 0
    assert out.splitlines()[-1] == "8/8 tables match"

    code, out, _ = capture(capsys, ["paper-tables", "--table", "rf-disc3-level2"])
    assert code == 0
    assert "1/1 tables match" in out


def test_paper_tables_mismatch(capsys, monkeypatch):
    # a failed product identity is a mismatch: exit 1, both values printed
    monkeypatch.setattr(genus, "brahmagupta_check", lambda q, n: False)
    code, out, _ = capture(capsys, ["paper-tables", "--table", "product-identity-disc28"])
    assert code == 1
    assert out.splitlines() == [
        "table product-identity-disc28: MISMATCH",
        "  expected: {'identity': True}",
        "  got:      {'identity': False}",
        "0/1 tables match",
    ]


def test_exit_codes(capsys):
    code, _, err = capture(capsys, ["enumerate", "--disc", "-5", "--level", "2"])
    assert code == 2 and "validation" in err
    # a composite level lists its reduced forms like any other
    code, out, _ = capture(capsys, ["enumerate", "--disc", "-4", "--level", "6", "--json"])
    forms = [Form(**f) for f in json.loads(out)["forms"]]
    assert code == 0 and forms and all(reduction.is_reduced(f, 6) for f in forms)
    code, _, err = capture(capsys, ["reduce", "--form", "1,0,1", "--level", "2", "--disc", "-8"])
    assert code == 2
    code, _, err = capture(capsys, ["classify", "--prime", "7", "--disc", "-28", "--level", "2"])
    assert code == 2
    # a level below 1 is invalid input for every command
    for argv in (
        ["equiv", "--form1", "1,1,6", "--form2", "1,1,6", "--level", "0"],
        ["equiv", "--form1", "1,1,6", "--form2", "1,1,6", "--level", "-2"],
        ["enumerate", "--disc", "-23", "--level", "0"],
        ["enumerate", "--disc", "-23", "--level", "-3"],
        ["reduce", "--form", "1,1,6", "--level", "0"],
        ["reduce", "--form", "1,1,6", "--level", "-3"],
        ["classify", "--prime", "5", "--disc", "-23", "--level", "-1"],
    ):
        code, _, err = capture(capsys, argv)
        assert code == 2 and "validation" in err, argv


def test_invariant_failure_exit_code(capsys, monkeypatch):
    # a wrong square root, and a map to disc D*N^2 naming the wrong class,
    # each leave a represented prime without a witness
    argv = ["classify", "--prime", "23", "--disc", "-28", "--level", "2"]
    table = genus.genus_table(-28, 2)
    (k1, (f1, g1)), (k2, (f2, g2)) = table.scaled_classes.items()
    swapped = dataclasses.replace(table, scaled_classes={k1: (f2, g1), k2: (f1, g2)})
    with monkeypatch.context() as m:
        m.setattr(genus, "sqrt_mod_prime", lambda a, p: 1)
        outcomes = [capture(capsys, argv)]
    with monkeypatch.context() as m:
        m.setattr(genus, "genus_table", lambda d, n: swapped)
        outcomes.append(capture(capsys, argv))
    for code, out, err in outcomes:
        assert code == 1 and out == ""
        assert err.startswith("error: internal:") and "Traceback" not in err


def test_reduction_witness_check(capsys, monkeypatch):
    # a corrupted action formula makes the reduction witness wrong; the
    # check must survive python -O, stop a classification that reduces in
    # integers, and reach the CLI as an internal error
    real_act_coeffs = reduction.act_coeffs

    def corrupt(*entries):
        a, b, c = real_act_coeffs(*entries)
        return a, b, c + 1

    genus.genus_table(-28, 2)
    monkeypatch.setattr(reduction, "act_coeffs", corrupt)
    with pytest.raises(InvariantError):
        reduction._gauss(3, 2, 1)
    with pytest.raises(InvariantError, match="does not carry"):
        genus.classify_prime(23, -28, 2)
    code, out, err = capture(capsys, ["reduce", "--form", "3,2,1", "--level", "2"])
    assert code == 1 and out == ""
    assert err.startswith("error: internal:") and "Traceback" not in err


def _outcome(capsys, call, argv):
    """(exit code, stdout, stderr) of call(argv), argparse rejections included."""
    try:
        code = call(argv)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def _run_fresh(argv):
    """The oracle for run: the full parse of argv, by a parser built for this
    one call, then run's own handler and error mapping."""
    return cli._call(cli.build_parser().parse_args(argv))


# (argv, GAMMA_FORMS_MAX_SEARCH or None, make the square root mod p wrong)
_SCRIPT = (
    (["reduce", "--form", "3,2,1", "--level", "2"], None, False),
    (["classify", "--prime", "23", "--disc", "-28", "--level", "2"], None, False),
    (["enumerate", "--disc", "-8", "--level", "2", "--format", "tsv"], None, False),
    (["enumerate", "--disc", "-8", "--level", "2"], None, False),
    (["equiv", "--form1", "1,0,1", "--form2", "2,2,1", "--level", "1", "--json"], None, False),
    (["equiv", "--form1", "1,0,1", "--form2", "2,2,1", "--level", "2"], None, False),
    (["represent", "--form", "7,0,1", "--value", "23", "--level", "2", "--format", "tsv"], None, False),
    (["represent", "--form", "7,0,1", "--value", "23", "--level", "2"], None, False),
    (["reduce", "--form", "1,1,6"], None, False),
    (["reduce", "--form", "1,1,6", "--level", "6", "--json"], None, False),
    (["classgroup", "--disc", "-23", "--level", "2", "--table"], None, False),
    (["classgroup", "--disc", "-23", "--level", "2", "--format", "xml"], None, False),
    (["classgroup", "--disc", "-23", "--level", "2"], None, False),
    (["verify-iso", "--disc", "-8", "--level", "2", "--oracle", "--json"], None, False),
    (["verify-iso", "--disc", "-8", "--level", "2"], None, False),
    (["genus", "--disc", "-28", "--level", "2", "--json"], None, False),
    (["genus", "--disc", "-28", "--level", "2"], None, False),
    (["classify", "--prime", "3", "--disc", "-28", "--level", "2", "--format", "text"], None, False),
    (["classify", "--prime", "3", "--disc", "-28", "--level", "2"], None, False),
    (["fundomain", "--p", "7"], None, False),
    (["paper-tables", "--table", "rf-disc7-level2"], None, False),
    (["paper-tables", "--table", "no-such-table"], None, False),
    (["enumerate", "--disc", "-5", "--level", "2"], None, False),
    (["enumerate", "--disc", "-4", "--level", "6"], None, False),
    (["nonsense"], None, False),
    (["reduce", "--help"], None, False),
    (["classgroup", "--disc", "-3", "--level", "5"], "1", False),
    (["classgroup", "--disc", "-3", "--level", "5"], None, False),
    (["classify", "--prime", "23", "--disc", "-28", "--level", "2"], None, True),
    (["classify", "--prime", "23", "--disc", "-28", "--level", "2"], None, False),
    (["reduce", "--form", "3,2,1", "--level", "2", "--disc", "-8"], None, False),
    # what the command's own parser must leave to the full parse, or parse
    # as the full parse does
    ([], None, False),
    (["-h"], None, False),
    (["--help"], None, False),
    (["reduce"], None, False),
    (["reduce", "--form", "3,2,1", "--level", "2", "--bogus"], None, False),
    (["reduce", "--form", "3,2,1", "--level", "2", "stray"], None, False),
    (["reduce", "--form=3,2,1", "--level", "2"], None, False),
    (["reduce", "--form", "3,2,1", "--lev", "2"], None, False),
    (["reduce", "--form", "3,2,1", "--level", "x"], None, False),
    (["reduce", "--form", "3,2,1", "--level", "2", "--"], None, False),
    (["reduce", "--", "--form", "3,2,1", "--level", "2"], None, False),
    (["reduce", "--form", "3,2,1", "--level", "2", "--level", "5"], None, False),
    (["reduce", "--form", "3,2,1", "--level", "2", "--json", "--format", "tsv"], None, False),
    (["reduce", "--form", "3,2,1", "--level", "2", "--format"], None, False),
    (["reduce", "--form", "3,2,1", "--level", "2", "--h"], None, False),
    (["--bogus", "reduce", "--form", "3,2,1", "--level", "2"], None, False),
    (["reduc", "--form", "3,2,1", "--level", "2"], None, False),
)


def test_reused_parser_matches_fresh_parser(capsys, monkeypatch):
    # every subcommand and format, a default after an explicit format,
    # rejections by argparse and by the library, then valid calls
    monkeypatch.delenv("GAMMA_FORMS_MAX_SEARCH", raising=False)
    codes = set()
    for argv, bound, fail in _SCRIPT:
        with monkeypatch.context() as m:
            if bound is not None:
                m.setenv("GAMMA_FORMS_MAX_SEARCH", bound)
            if fail:
                m.setattr(genus, "sqrt_mod_prime", lambda a, p: 1)
            reused = _outcome(capsys, run, argv)
            fresh = _outcome(capsys, _run_fresh, argv)
        assert reused == fresh, argv
        codes.add(reused[0])
    assert codes == {0, 1, 2, 4}


# (argv, GAMMA_FORMS_MAX_SEARCH or None): each request bounded and not;
# at 10 only the 360 cosets of level 150 refuse (-3, 150), at 1000 the
# 1024 level-1 divisor trials refuse (-3000, 1) and the 1010 cosets of
# level 1009 refuse (-23, 1009), at 20 only the 28 residues of the genus
# table refuse (-28, 2), and at 10 only the 12 boundary arcs of Gamma0(13)
# refuse
_BOUND_SCRIPT = (
    (["enumerate", "--disc", "-3", "--level", "150"], "10"),
    (["enumerate", "--disc", "-3", "--level", "150"], None),
    (["classgroup", "--disc", "-3000", "--level", "1"], "1000"),
    (["classgroup", "--disc", "-3000", "--level", "1"], None),
    (["classgroup", "--disc", "-3", "--level", "5"], "1"),
    (["classgroup", "--disc", "-3", "--level", "5"], None),
    (["enumerate", "--disc", "-23", "--level", "150"], "1"),
    (["enumerate", "--disc", "-23", "--level", "150"], None),
    (["genus", "--disc", "-28", "--level", "2"], "1"),
    (["genus", "--disc", "-28", "--level", "2"], None),
    (["classify", "--prime", "23", "--disc", "-28", "--level", "2"], "1"),
    (["classify", "--prime", "23", "--disc", "-28", "--level", "2"], None),
    (["enumerate", "--disc", "-23", "--level", "7"], "1"),
    (["enumerate", "--disc", "-23", "--level", "7"], None),
    (["enumerate", "--disc", "-23", "--level", "1009"], "1000"),
    (["enumerate", "--disc", "-23", "--level", "1009"], None),
    (["genus", "--disc", "-28", "--level", "2"], "20"),
    (["fundomain", "--p", "13"], "10"),
    (["fundomain", "--p", "13"], None),
)


def test_bounds_do_not_depend_on_the_cache(capsys, monkeypatch):
    # from cold caches, forward each bounded request runs first and in
    # reverse it follows the unbounded one that filled the caches: the
    # outcomes agree, every bounded one a refusal
    def outcomes(script):
        for mod in (reduction, cg, genus, fundomain):
            for obj in vars(mod).values():
                getattr(obj, "cache_clear", lambda: None)()
        out = {}
        for argv, bound in script:
            with monkeypatch.context() as m:
                if bound is None:
                    m.delenv("GAMMA_FORMS_MAX_SEARCH", raising=False)
                else:
                    m.setenv("GAMMA_FORMS_MAX_SEARCH", bound)
                out[tuple(argv), bound] = _outcome(capsys, run, argv)
        return out

    forward = outcomes(_BOUND_SCRIPT)
    assert outcomes(reversed(_BOUND_SCRIPT)) == forward
    for (argv, bound), (code, out, err) in forward.items():
        if bound is None:
            assert code == 0, argv
        else:
            assert code == 4 and out == "" and err.startswith("error: search-bound:"), argv


def test_parser_built_once(capsys, monkeypatch):
    built = []
    real = cli.build_parser

    def counted():
        built.append(None)
        return real()

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    _outcome(capsys, run, ["reduce", "--form", "3,2,1", "--level", "2"])
    # a well-formed call, library rejections included, never reaches the
    # full parse; a call argparse rejects always does
    parser = cli._parser()
    real_parse = parser.parse_args
    full = []

    def counted_parse(argv):
        full.append(argv)
        return real_parse(argv)

    monkeypatch.setattr(parser, "parse_args", counted_parse)
    for argv in (
        ["equiv", "--form1", "1,0,1", "--form2", "2,2,1", "--level", "2", "--json"],
        ["represent", "--form", "7,0,1", "--value", "23", "--level", "2"],
        ["classify", "--prime", "23", "--disc", "-28", "--level", "2"],
        ["enumerate", "--disc", "-5", "--level", "2"],
        ["genus", "--disc", "-28", "--level", "2", "--format", "tsv"],
    ):
        assert _outcome(capsys, run, argv)[0] in (0, 2), argv
    assert full == []
    rejected = (
        ["nonsense"],
        ["reduce", "--form", "3,2,1", "--level", "2", "--bogus"],
        ["reduce", "--form", "3,2,1", "--level", "2", "stray"],
        [],
    )
    for argv in rejected:
        assert _outcome(capsys, run, argv)[0] == 2, argv
    assert full == list(rejected)
    assert len(built) == 1
    assert real() is not real()


def _run_cli(args, env_extra=None, stdout=subprocess.PIPE):
    env = dict(os.environ)
    env.pop("GAMMA_FORMS_MAX_SEARCH", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "gammaforms", *args],
        stdout=stdout,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    )


def test_search_bound_exit_code():
    proc = _run_cli(
        ["classgroup", "--disc", "-3", "--level", "5"],
        env_extra={"GAMMA_FORMS_MAX_SEARCH": "1"},
    )
    assert proc.returncode == 4
    assert "search-bound" in proc.stderr


def test_closed_stdout_exits_1_without_a_traceback():
    # a reader that stops early, as `| head -1` does, closes its end of the
    # pipe; closing it before the child starts makes the first write fail
    # every time, however short the output
    for args in (
        ["enumerate", "--disc", "-23", "--level", "2"],
        ["reduce", "--form", "3,2,1", "--level", "2", "--json"],
    ):
        read, write = os.pipe()
        os.close(read)
        try:
            proc = _run_cli(args, stdout=write)
        finally:
            os.close(write)
        assert (proc.returncode, proc.stderr) == (1, ""), args


def test_output_is_deterministic():
    for args in (
        ["enumerate", "--disc", "-28", "--level", "2", "--json"],
        ["classgroup", "--disc", "-23", "--level", "2", "--table"],
        ["genus", "--disc", "-28", "--level", "2", "--json"],
        ["fundomain", "--p", "7"],
    ):
        a = _run_cli(args)
        b = _run_cli(args)
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout


def test_main_parses_sys_argv_as_the_full_parse(capsys, monkeypatch):
    # python -m gammaforms calls run() with no argv, so run reads sys.argv;
    # COLUMNS fixes the width argparse wraps usage and help to
    monkeypatch.delenv("GAMMA_FORMS_MAX_SEARCH", raising=False)
    monkeypatch.setenv("COLUMNS", "80")
    codes = []
    for argv in (
        ["reduce", "--form", "3,2,1", "--level", "2"],
        ["--help"],
        ["nonsense"],
        ["reduce", "--form", "3,2,1", "--level", "2", "--bogus"],
    ):
        proc = _run_cli(argv)
        assert (proc.returncode, proc.stdout, proc.stderr) == _outcome(capsys, _run_fresh, argv), argv
        codes.append(proc.returncode)
    assert codes == [0, 0, 2, 2]


def test_fresh_process_matches_in_process(capsys, monkeypatch):
    monkeypatch.delenv("GAMMA_FORMS_MAX_SEARCH", raising=False)
    for argv in (
        ["reduce", "--form", "3,2,1", "--level", "2"],
        ["classify", "--prime", "23", "--disc", "-28", "--level", "2"],
        ["reduce", "--form", "3,2,1"],
    ):
        code, out, _ = _outcome(capsys, run, argv)
        proc = _run_cli(argv)
        assert (proc.returncode, proc.stdout) == (code, out), argv
    assert code == 2
