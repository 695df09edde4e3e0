import json
import math
import os
import subprocess
import sys
from unittest import mock

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
    # psi(N) > 10^9 cosets, a prime above the Miller-Rabin limit with no
    # factor below 100, genus tables walking 10^12 residues, a region with
    # 10^6 arcs and an oracle over 1032^2 class pairs: all refused without
    # the work
    monkeypatch.delenv("GAMMA_FORMS_MAX_SEARCH", raising=False)
    for argv in (
        ["reduce", "--form", "1,1,6", "--level", "1000000007"],
        ["reduce", "--form", "1,1,6", "--level", "1000000000000000003"],
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
    # the class walked into the Gamma0(499) region, where a sweep of the
    # coefficients would take about 1.2e8 divisor trials
    monkeypatch.delenv("GAMMA_FORMS_MAX_SEARCH", raising=False)
    code, out, _ = capture(capsys, ["reduce", "--form", "3,1,250", "--level", "499", "--json"])
    assert code == 0
    rep = Form(**json.loads(out)["reduced"])
    assert rep.disc == -2999 and fundomain.contains(499, cm_point(rep))


def test_reduce_builds_no_class_table(capsys, monkeypatch):
    # one class's canonical form comes from its own label orbit and walk,
    # with no coset list and no sweep of reduced forms, from cold caches
    def refuse(*args):
        raise AssertionError(f"class table built for {args}")

    reduction._class_table.cache_clear()
    monkeypatch.setattr(reduction, "_sweep", refuse)
    monkeypatch.setattr(reduction, "coset_reps", refuse)
    monkeypatch.delenv("GAMMA_FORMS_MAX_SEARCH", raising=False)
    q = Form(3, 7, 254)  # (3, 1, 250) translated by T
    for level in (1, 5, 150, 1009):
        rep = reduction.canonical_rep(q, level)
        assert reduction.equivalent_gamma0(q, rep, level) is not None, level
        code, out, _ = capture(capsys, ["reduce", "--form", str(q), "--level", str(level)])
        assert code == 0 and out.startswith(f"reduced: {rep}\n"), level


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


def test_exit_codes(capsys):
    code, _, err = capture(capsys, ["enumerate", "--disc", "-5", "--level", "2"])
    assert code == 2 and "validation" in err
    code, _, err = capture(capsys, ["enumerate", "--disc", "-4", "--level", "6"])
    assert code == 3 and "unsupported-level" in err
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
    with monkeypatch.context() as m:
        m.setattr(genus, "sqrt_mod_prime", lambda a, p: 1)
        outcomes = [capture(capsys, argv)]
    with monkeypatch.context() as m:
        m.setitem(table.scaled_classes, k1, (f2, g1))
        m.setitem(table.scaled_classes, k2, (f1, g2))
        outcomes.append(capture(capsys, argv))
    for code, out, err in outcomes:
        assert code == 1 and out == ""
        assert err.startswith("error: internal:") and "Traceback" not in err


def test_reduction_witness_check(capsys, monkeypatch):
    # a corrupted action makes the reduction witness wrong; the check must
    # survive python -O and reach the CLI as an internal error
    real_act = reduction.act

    def corrupt(q, g):
        out = real_act(q, g)
        return Form(out.a, out.b, out.c + 1)

    monkeypatch.setattr(reduction, "act", corrupt)
    with pytest.raises(InvariantError):
        reduction.reduce_sl2(Form(3, 2, 1))
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
    """run(argv) with a parser built for this one call, as when run built
    its parser on every call."""
    with mock.patch.object(cli, "_parser", cli.build_parser):
        return run(argv)


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
    assert codes == {0, 1, 2, 3, 4}


# (argv, GAMMA_FORMS_MAX_SEARCH or None): each request bounded and not;
# at 10 only the 360 cosets of level 150 refuse (-3, 150), at 1000 the
# 1024 level-1 divisor trials refuse (-3000, 1), the 1010 cosets of
# level 1009 refuse a reduce that builds no cosets, at 20 only the 28
# residues of the genus table refuse (-28, 2), and at 10 only the 12
# boundary arcs of Gamma0(13) refuse
_BOUND_SCRIPT = (
    (["reduce", "--form", "1,1,1", "--level", "150"], "10"),
    (["reduce", "--form", "1,1,1", "--level", "150"], None),
    (["classgroup", "--disc", "-3000", "--level", "1"], "1000"),
    (["classgroup", "--disc", "-3000", "--level", "1"], None),
    (["classgroup", "--disc", "-3", "--level", "5"], "1"),
    (["classgroup", "--disc", "-3", "--level", "5"], None),
    (["reduce", "--form", "3,1,1000", "--level", "150"], "1"),
    (["reduce", "--form", "3,1,1000", "--level", "150"], None),
    (["genus", "--disc", "-28", "--level", "2"], "1"),
    (["genus", "--disc", "-28", "--level", "2"], None),
    (["classify", "--prime", "23", "--disc", "-28", "--level", "2"], "1"),
    (["classify", "--prime", "23", "--disc", "-28", "--level", "2"], None),
    (["enumerate", "--disc", "-23", "--level", "7"], "1"),
    (["enumerate", "--disc", "-23", "--level", "7"], None),
    (["reduce", "--form", "3,1,250", "--level", "1009"], "1000"),
    (["reduce", "--form", "3,1,250", "--level", "1009"], None),
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
    for argv in (
        ["reduce", "--form", "3,2,1", "--level", "2"],
        ["equiv", "--form1", "1,0,1", "--form2", "2,2,1", "--level", "2", "--json"],
        ["represent", "--form", "7,0,1", "--value", "23", "--level", "2"],
        ["classify", "--prime", "23", "--disc", "-28", "--level", "2"],
        ["enumerate", "--disc", "-5", "--level", "2"],
        ["genus", "--disc", "-28", "--level", "2", "--format", "tsv"],
    ):
        _outcome(capsys, run, argv)
    assert len(built) == 1
    assert real() is not real()


def _run_cli(args, env_extra=None):
    env = dict(os.environ)
    env.pop("GAMMA_FORMS_MAX_SEARCH", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "gammaforms", *args],
        capture_output=True,
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
