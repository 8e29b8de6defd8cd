import os
import random
import subprocess
import sys

import pytest

import weil1
from weil1.rig import Rig
from weil1 import cotree as ct
from weil1 import dsl
from weil1 import genexpr as ge
from weil1 import morphism as mor
from weil1 import weilalg as wa
from weil1.cli import main
from weil1.verify import canonical_objects, enumerate_hom


B2, NAT = Rig.BOOL2, Rig.NAT


# ---------------------------------------------------------------------------
# object parsing

def test_parse_object_examples():
    assert dsl.parse_object("W^2 @ W") == ct.tensor(ct.n_join(2), ct.W)
    assert dsl.parse_object("k") == ct.K
    assert dsl.parse_object("W * 2W") == ct.join(ct.W, ct.n_tensor(2))
    assert dsl.parse_object("3W") == ct.n_tensor(3)
    assert dsl.parse_object("(W @ W) @ W") == ct.n_tensor(3)
    assert dsl.parse_object("k @ W") == ct.W
    assert dsl.parse_object("W * (W^2 @ W)") == ct.join(ct.W, ct.tensor(ct.n_join(2), ct.W))


def test_parse_object_precedence():
    # '*' binds tighter than '@'
    assert dsl.parse_object("W @ W * W") == ct.tensor(ct.W, ct.n_join(2))


def test_parse_object_errors():
    with pytest.raises(dsl.DslSyntaxError) as err:
        dsl.parse_object("W ^")
    assert err.value.line == 1 and err.value.col >= 3
    with pytest.raises(dsl.DslSyntaxError):
        dsl.parse_object("2X")
    with pytest.raises(dsl.DslSyntaxError):
        dsl.parse_object("(W")
    with pytest.raises(dsl.DslSyntaxError):
        dsl.parse_object("W) ")


def test_object_print_parse_round_trip():
    for tree in canonical_objects(4):
        assert dsl.parse_object(ct.format_cotree(tree)) == tree


# ---------------------------------------------------------------------------
# morphism parsing

def test_parse_morphism_full_example():
    f = dsl.parse_morphism("f : 2W -> 3W ; x1 |-> y1 y2 + y2 y3 ; x2 |-> y1 + y1 y3")
    assert f.source.cotree == ct.n_tensor(2)
    assert f.image(1).terms == ((0b011, 1), (0b110, 1))
    assert f.image(2).terms == ((0b001, 1), (0b101, 1))


def test_parse_morphism_zero_and_missing_clauses():
    z = dsl.parse_morphism("z : W -> k")
    assert z.is_zero_map()
    partial = dsl.parse_morphism("f : 2W -> W ; x2 |-> y")
    assert partial.image(1).is_zero()
    explicit = dsl.parse_morphism("f : 2W -> W ; x1 |-> 0 ; x2 |-> y")
    assert explicit == partial


def test_parse_morphism_nat_coefficients():
    g = dsl.parse_morphism("g : W -> W ; x |-> 2 x", NAT)
    assert g == mor.ghat(2, NAT)
    with pytest.raises(ValueError):
        dsl.parse_morphism("g : W -> W ; x |-> 2 x", B2)


def test_parse_morphism_validation_passthrough():
    with pytest.raises(mor.RelationViolation):
        dsl.parse_morphism("f : W -> 2W ; x |-> y1 + y2")


def test_parse_morphism_syntax_errors():
    for bad in [
        "f : W -> W ; x ->> y",
        "f : W -> W ; q5 |-> y",
        "f : W -> W ; x |-> y5",
        "f : W -> W ; x |-> y y",
        "f : W W ; x |-> y",
        "f : W -> W ; x |-> y ; x |-> y",
    ]:
        with pytest.raises(dsl.DslSyntaxError):
            dsl.parse_morphism(bad)


def test_morphism_print_parse_round_trip():
    rnd = random.Random(9)
    objs = canonical_objects(3)
    for _ in range(150):
        a, b = rnd.choice(objs), rnd.choice(objs)
        f = rnd.choice(enumerate_hom(a, b).morphisms)
        assert dsl.parse_morphism(dsl.format_morphism(f)) == f
    # and over nat with coefficients
    w_nat = wa.algebra_of(ct.W, NAT)
    g = mor.make(w_nat, w_nat, [{1: 3}])
    assert dsl.parse_morphism(dsl.format_morphism(g), NAT) == g


def test_genexpr_print_parse_round_trip_fuzz():
    rnd = random.Random(4)
    leaves = [ge.Eps, ge.Eta, ge.Plus, ge.L, ge.C, ge.Id(ct.W),
              ge.Id(ct.n_join(2)), ge.Ghat(3), ge.Proj(ct.n_join(2), 1)]

    def build(depth):
        if depth == 0 or rnd.random() < 0.3:
            return rnd.choice(leaves)
        kind = rnd.choice(["tensor", "comp", "pair", "pairat"])
        a, b = build(depth - 1), build(depth - 1)
        if kind == "tensor":
            return ge.Tensor(a, b)
        if kind == "comp":
            return ge.Compose(a, b)
        if kind == "pair":
            return ge.Pair(a, b)
        return ge.Pair(a, b, rnd.randint(1, 3), rnd.randint(1, 2), rnd.randint(1, 2))

    for _ in range(200):
        e = build(4)
        text = ge.format_genexpr(e)
        assert dsl.parse_genexpr(text) is e


# ---------------------------------------------------------------------------
# CLI

def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_parse_object(capsys):
    code, out, _ = run_cli(capsys, "parse", "W^2@W")
    assert code == 0 and out.strip() == "W^2 @ W"


def test_cli_hom(capsys):
    code, out, _ = run_cli(capsys, "hom", "W", "2W")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "6"
    assert len(lines) == 7


def test_cli_validate_failure_exit_code(capsys):
    code, _, err = run_cli(capsys, "validate", "f : W -> 2W ; x |-> y1 + y2")
    assert code == 2 and "non-zero" in err


def test_cli_syntax_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "parse", "W^")
    assert code == 1 and "syntax" in err


def test_cli_too_large_exit_code(capsys):
    code, _, err = run_cli(capsys, "hom", "W", "6W")
    assert code == 4


def run_cli_process(*args, timeout):
    # a fresh process, so that a hang fails the test instead of stalling it
    src = os.path.dirname(os.path.dirname(weil1.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "weil1.cli", *args], capture_output=True,
                          text=True, timeout=timeout, env=dict(os.environ, PYTHONPATH=path))


def test_cli_kappa_guard_is_fast():
    proc = run_cli_process("kappa", "5W", timeout=5)
    assert proc.returncode == 4 and "too large" in proc.stderr


def test_cli_kappa_vertex_cap_is_fast():
    # kappa(W^k) has 2^k vertices; the clique search must stop at the cap,
    # before the pair loop and before listing every clique
    for obj in ("W^12", "W^20"):
        proc = run_cli_process("kappa", obj, timeout=5)
        assert proc.returncode == 2
        assert "more than 63 cliques (vertex count out of range 0..63)" in proc.stderr


def test_cli_object_leaf_budget():
    # the leaf count is checked before the leaves are built, in both spellings
    for obj in ("W^999999999", "999999999W", "W^600000 @ 500000W"):
        proc = run_cli_process("parse", obj, timeout=5)
        assert proc.returncode == 4
        assert "exceed the budget of 1000000" in proc.stderr
    proc = run_cli_process("parse", "W^1000000", timeout=5)
    assert proc.returncode == 0 and proc.stdout.strip() == "W^1000000"


def test_cli_large_ghat_is_fast():
    proc = run_cli_process("evaluate", "--rig", "nat", "ghat(99999999)", timeout=5)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "f : W -> W ; x1 |-> 99999999 y1"


def test_cli_compose(capsys):
    code, out, _ = run_cli(capsys, "compose",
                           "f : W -> 2W ; x |-> y1 y2",
                           "g : 2W -> 3W ; x1 |-> y1 ; x2 |-> y2 y3")
    assert code == 0
    assert out.strip() == "g.f : W -> 3W ; x1 |-> y1 y2 y3"


def test_cli_decompose_check(capsys):
    code, out, _ = run_cli(capsys, "decompose", "--check",
                           "f : 2W -> 3W ; x1 |-> y1 y2 + y2 y3 ; x2 |-> y1 + y1 y3")
    assert code == 0
    assert "roundtrip OK" in out


def test_cli_decompose_evaluate_round_trip(capsys):
    text = "f : W -> W * 2W ; x |-> y2 y3"
    code, out, _ = run_cli(capsys, "decompose", text)
    assert code == 0
    expr_text = out.strip()
    code, out2, _ = run_cli(capsys, "evaluate", expr_text)
    assert code == 0
    assert out2.strip() == "f : W -> W * 2W ; x1 |-> y2 y3"


def test_cli_evaluate_nat(capsys):
    code, out, _ = run_cli(capsys, "evaluate", "--rig", "nat",
                           "comp(plus, pair(id(W), id(W)))")
    assert code == 0
    assert out.strip() == "f : W -> W ; x1 |-> 2 y1"


def test_cli_kappa(capsys):
    code, out, _ = run_cli(capsys, "kappa", "2W")
    assert code == 0
    assert "6 vertices" in out and "{{1},{1,2}}" in out


def test_cli_kappa_dot(capsys):
    code, out, _ = run_cli(capsys, "kappa", "--format", "dot", "W")
    assert code == 0
    assert out.startswith("graph {") and 'label="{{1}}"' in out


def test_cli_cotree(capsys):
    code, out, _ = run_cli(capsys, "cotree", "3; 1-2 1-3")
    assert code == 0
    assert "object: W * 2W" in out
    code, _, err = run_cli(capsys, "cotree", "4; 1-2 2-3 3-4")
    assert code == 2 and "P4" in err


def test_cli_dot_morphism(capsys):
    code, out, _ = run_cli(capsys, "dot", "--morphism", "f : W -> 2W ; x |-> y1 y2")
    assert code == 0
    assert "c1_1" in out and "color=red" in out


def test_cli_verify_small(capsys):
    code, out, _ = run_cli(capsys, "verify", "--max-vertices", "1", "--format", "lines")
    assert code == 0
    assert "AXIOM" in out and "FAIL" not in out


def test_cli_file_input(tmp_path, capsys):
    path = tmp_path / "map.txt"
    path.write_text("f : W -> 2W ; x |-> y1 y2\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "parse", str(path))
    assert code == 0 and out.strip() == "f : W -> 2W ; x1 |-> y1 y2"
