import contextlib
import hashlib
import io
import os
import random
import subprocess
import sys
import time

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import weil1
from weil1.rig import Rig
from weil1 import cotree as ct
from weil1 import dsl
from weil1 import genexpr as ge
from weil1 import morphism as mor
from weil1 import weilalg as wa
from weil1.cli import build_parser, main
from weil1.verify import canonical_objects, enumerate_hom, run_verify


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
    # columns count characters, a tab among them, and restart after a newline
    for text, where in [
        ("W ^", (1, 4, "INT")),
        ("W @\n\t^", (2, 2, "an object")),
        ("(W\n@\tW", (2, 4, ")")),
        ("W\t2W", (1, 3, "end of input")),
        ("2X", (1, 2, "W")),
    ]:
        with pytest.raises(dsl.DslSyntaxError) as err:
            dsl.parse_object(text)
        assert (err.value.line, err.value.col, err.value.expected) == where, text


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
    for text, where in [
        ("f : W -> W ;\n\tx |-> y y", (2, 10, None)),
        ("f :\tW ->\n W ; x ->> y", (2, 10, None)),
        ("f : W -> W\n\t; q5 |-> y", (2, 4, None)),
        ("f : W -> W ;\n x |->\t+", (2, 8, "a monomial")),
        ("f : W -> W ; x |-> y\n\t)", (2, 2, "';'")),
        ("f : W -> W\t,", (1, 12, "';'")),
    ]:
        with pytest.raises(dsl.DslSyntaxError) as err:
            dsl.parse_morphism(text)
        assert (err.value.line, err.value.col, err.value.expected) == where, text


def test_morphism_print_parse_round_trip():
    rnd = random.Random(9)
    objs = canonical_objects(3)
    for _ in range(150):
        a, b = rnd.choice(objs), rnd.choice(objs)
        f = rnd.choice(enumerate_hom(a, b))
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
    # a digit that is not decimal (int() refuses it) is a syntax error too
    for text in ("W^", "W^²", "2²W", "f : W -> W ; x1 |-> ²y1"):
        code, _, err = run_cli(capsys, "parse", text)
        assert code == 1 and "syntax" in err, text


def test_generator_index_reads_any_decimal_digit(capsys):
    # the tokenizer reads ٢ (Arabic-Indic two) as a digit, and so does the
    # generator index on either side of a clause
    assert (dsl.parse_morphism("f : ٢W -> ٢W ; x٢ |-> y٢")
            == dsl.parse_morphism("f : 2W -> 2W ; x2 |-> y2"))
    code, _, err = run_cli(capsys, "parse", "f : ٢W -> W ; x٩ |-> y")
    assert code == 1 and "out of range" in err


def test_cli_too_large_exit_code(capsys):
    code, _, err = run_cli(capsys, "hom", "W", "6W")
    assert code == 4


def cli_env():
    src = os.path.dirname(os.path.dirname(weil1.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return dict(os.environ, PYTHONPATH=path)


def run_cli_process(*args, timeout):
    # a fresh process, so that a hang fails the test instead of stalling it
    return subprocess.run([sys.executable, "-m", "weil1.cli", *args], capture_output=True,
                          text=True, timeout=timeout, env=cli_env())


def test_cli_kappa_guard_is_fast():
    # the ind+ guard stops the independent-set search itself: ind+(22W) has
    # 4,194,303 vertices, so building it first would not finish in time
    for args in (("kappa", "5W"), ("kappa", "22W"), ("hom", "W", "22W"),
                 ("dot", "--kappa", "22W")):
        proc = run_cli_process(*args, timeout=5)
        assert proc.returncode == 4 and "too large" in proc.stderr, args


def test_cli_kappa_vertex_cap_is_fast():
    # kappa(W^k) has 2^k vertices; the clique search must stop at the cap,
    # before the pair loop and before listing every clique
    for obj in ("W^12", "W^20"):
        proc = run_cli_process("kappa", obj, timeout=5)
        assert proc.returncode == 4
        assert "too large: more than 63 cliques" in proc.stderr


def test_cli_loads_only_the_modules_its_command_reads():
    # a fresh process of an object or graph command compiles neither the
    # morphism and decomposition modules nor the axiom suite, nor dataclasses
    unread = ("weil1.verify", "weil1.genexpr", "weil1.morphism", "dataclasses")
    probe = ("import sys\nfrom weil1.cli import main\ncode = main(sys.argv[1:])\n"
             f"print(code, *[m for m in {unread!r} if m in sys.modules], file=sys.stderr)")
    for args in (("cotree", "4; 1-2 2-3"), ("kappa", "W^2"), ("dot", "2W"), ("parse", "W * 2W")):
        proc = subprocess.run([sys.executable, "-c", probe, *args], capture_output=True,
                              text=True, timeout=10, env=cli_env())
        assert proc.stderr == "0\n", (args, proc.stderr)
    # a command that does read them still loads them where it needs them
    proc = run_cli_process("hom", "W", "2W", timeout=10)
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == str(len(enumerate_hom(ct.W, ct.n_tensor(2))))


def test_cli_verify_refuses_an_over_budget_sweep_at_once():
    # the Kleisli counts of the 4-vertex objects reach a hom-set of 1376^3
    # assignments; every pair is checked against the budget before any check
    # starts, so the refusal comes at once instead of after the checks before it
    proc = run_cli_process("verify", "--max-vertices", "4", timeout=5)
    assert proc.returncode == 4 and proc.stdout == ""
    assert "too large:" in proc.stderr and "verify.HOM_ASSIGNMENTS" in proc.stderr


def test_cli_reader_closing_early_is_not_an_error():
    proc = subprocess.Popen([sys.executable, "-m", "weil1.cli", "hom", "3W", "3W"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            env=cli_env())
    assert proc.stdout.readline() == "64000\n"
    proc.stdout.close()  # the writer still has megabytes to go
    _, err = proc.communicate(timeout=20)
    assert proc.returncode == 0 and err == "", err


def test_cli_object_leaf_budget():
    # the leaf count is checked before the leaves are built, in both spellings
    for obj in ("W^999999999", "999999999W", "W^600000 @ 500000W"):
        proc = run_cli_process("parse", obj, timeout=5)
        assert proc.returncode == 4
        assert "exceed the budget of 1000000" in proc.stderr
    proc = run_cli_process("parse", "W^1000000", timeout=5)
    assert proc.returncode == 0 and proc.stdout.strip() == "W^1000000"


def test_cli_answers_past_63_vertices():
    # graphs have no vertex cap: valid input on 64 vertices is answered
    m64 = "f : W -> W^64 ; x |-> y1"
    out = {}
    for args in (("validate", m64), ("decompose", "--check", m64), ("cotree", "64; 1-2"),
                 ("dot", "W^64")):
        proc = run_cli_process(*args, timeout=5)
        assert proc.returncode == 0 and not proc.stderr, (args, proc.stderr)
        out[args[0]] = proc.stdout
    assert out["decompose"].endswith("roundtrip OK\n")
    assert out["dot"].count(" -- ") == 64 * 63 // 2


def test_cli_size_refusals_exit_4():
    # every size refusal is a named budget, checked before the work starts
    over = f"{ct.VERTEX_BUDGET + 1}; 1-2"
    for args in (("kappa", "64W"), ("kappa", "W^100000"), ("hom", "W", "W^100000"),
                 ("validate", "f : W^100000 -> W"), ("dot", "W^100000"), ("cotree", over)):
        proc = run_cli_process(*args, timeout=5)
        assert proc.returncode == 4 and proc.stderr.startswith("too large: "), (args, proc.stderr)
    assert "cotree.VERTEX_BUDGET" in proc.stderr


def mixed_nesting(depth):
    """``W * (W @ W * (W @ ... W))`` with ``depth`` parentheses open at the innermost W."""
    text = "W"
    for _ in range(depth - 1):
        text = f"W @ W * ({text})"
    return f"W * ({text})"


def join_nesting(depth):
    """``W * (W * (... W))``, ``depth`` parentheses deep."""
    text = "W"
    for _ in range(depth):
        text = f"W * ({text})"
    return text


def comp_nesting(depth):
    """``comp(id(W), comp(id(W), ... id(W)))``, ``depth`` parentheses deep."""
    text = "id(W)"
    for _ in range(depth - 1):
        text = f"comp(id(W), {text})"
    return text


def id_nesting(depth):
    """``comp(id(<mixed_nesting>), eps)``, ``depth`` parentheses deep."""
    return f"comp(id({mixed_nesting(depth - 2)}), eps)"


NESTING_SHAPES = (mixed_nesting, join_nesting, comp_nesting, id_nesting)


def test_cli_nesting_budget():
    # one parenthesis past the budget is refused before the parser, the
    # printers or cotree equality recurse that deep; at the budget all parse
    for shape in NESTING_SHAPES:
        commands = ("parse", "evaluate") if shape in (comp_nesting, id_nesting) else ("parse",)
        for command in commands:
            proc = run_cli_process(command, shape(dsl.NESTING_BUDGET + 1), timeout=5)
            assert proc.returncode == 4, (shape.__name__, command, proc.stderr)
            assert "dsl.NESTING_BUDGET" in proc.stderr and "Traceback" not in proc.stderr
        proc = run_cli_process("parse", shape(dsl.NESTING_BUDGET), timeout=5)
        assert proc.returncode == 0 and proc.stdout and not proc.stderr, shape.__name__


def test_cli_verify_object_scan_is_fast():
    # the labelled graphs of at most 7 vertices number 2,131,020, past the
    # budget, so the refusal comes before the scan
    proc = run_cli_process("verify", "--max-vertices", "7", timeout=5)
    assert proc.returncode == 4 and "verify.OBJECT_SCAN" in proc.stderr, proc.stderr
    assert not proc.stdout


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


def test_cli_rig_only_on_the_commands_that_read_it(capsys):
    # --rig follows the six commands that read it, and no other command
    # accepts a rig it would ignore
    code, out, _ = run_cli(capsys, "evaluate", "--rig", "nat", "ghat(2)")
    assert code == 0 and out == "f : W -> W ; x1 |-> 2 y1\n"
    for argv in (["hom", "--rig", "nat", "W", "W"], ["--rig", "nat", "evaluate", "ghat(2)"],
                 ["kappa", "--rig", "nat", "W"], ["cotree", "--rig", "nat", "1;"],
                 ["verify", "--rig", "nat", "--max-vertices", "0"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2 and not capsys.readouterr().out, argv


def test_cli_kappa(capsys):
    code, out, _ = run_cli(capsys, "kappa", "2W")
    assert code == 0
    assert "6 vertices" in out and "{{1},{1,2}}" in out


def test_cli_kappa_dot(capsys):
    # kappa's DOT text has one command, dot --kappa
    code, out, _ = run_cli(capsys, "dot", "--kappa", "W")
    assert code == 0
    assert out == 'graph {\n  1 [label="{}"];\n  2 [label="{{1}}"];\n  1 -- 2;\n}\n'
    with pytest.raises(SystemExit) as exc:
        main(["kappa", "--format", "dot", "W"])
    assert exc.value.code == 2 and not capsys.readouterr().out


def test_cli_kappa_refuses_a_format_it_does_not_print(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["kappa", "--format", "lines", "W"])
    assert exc.value.code == 2 and not capsys.readouterr().out


def test_cli_cotree(capsys):
    code, out, _ = run_cli(capsys, "cotree", "3; 1-2 1-3")
    assert code == 0
    assert "object: W * 2W" in out
    code, _, err = run_cli(capsys, "cotree", "4; 1-2 2-3 3-4")
    assert code == 2 and "P4" in err


def test_cli_dot_draws_one_picture(capsys):
    # --kappa and --morphism name two pictures; asking for both is refused
    with pytest.raises(SystemExit) as exc:
        main(["dot", "--kappa", "--morphism", "f : W -> 2W ; x |-> y1 y2"])
    assert exc.value.code == 2 and not capsys.readouterr().out


def test_cli_dot_morphism(capsys):
    code, out, _ = run_cli(capsys, "dot", "--morphism", "f : W -> 2W ; x |-> y1 y2")
    assert code == 0
    assert "c1_1" in out and "color=red" in out
    # two colours on a target with edges: the target's DOT text, then the circles
    code, out, _ = run_cli(capsys, "dot", "--morphism",
                           "f : 2W -> W * 2W ; x1 |-> y1 ; x2 |-> y2 y3 + y1")
    assert code == 0
    assert out == "\n".join([
        "graph {", "  1;", "  2;", "  3;", "  1 -- 2;", "  1 -- 3;",
        '  c1_1 [label="x1: {1}", color=red, shape=ellipse];',
        "  c1_1 -- 1 [style=dashed, color=red];",
        '  c2_1 [label="x2: {1}", color=blue, shape=ellipse];',
        "  c2_1 -- 1 [style=dashed, color=blue];",
        '  c2_2 [label="x2: {2,3}", color=blue, shape=ellipse];',
        "  c2_2 -- 2 [style=dashed, color=blue];",
        "  c2_2 -- 3 [style=dashed, color=blue];",
        "}", ""])


def test_cli_verify_small(capsys):
    code, out, _ = run_cli(capsys, "verify", "--max-vertices", "1", "--format", "lines")
    assert code == 0
    assert "AXIOM" in out and "FAIL" not in out


def test_cli_verify_refuses_negative_max_vertices(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--max-vertices", "-1"])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and not captured.out
    assert "--max-vertices: expected an integer 0 or more, got '-1'" in captured.err
    assert build_parser().parse_args(["verify", "--max-vertices", "0"]).max_vertices == 0


def test_cli_verify_flushes_each_line(monkeypatch):
    class Recorder(io.StringIO):
        def flush(self):
            flushed.append(self.getvalue())

    flushed = []
    monkeypatch.setattr(sys, "stdout", Recorder())
    assert main(["verify", "--max-vertices", "1", "--format", "lines"]) == 0
    lines = run_verify(max_vertices=1).format_lines().splitlines(keepends=True)
    # each line was flushed before the next one was written
    assert all("".join(lines[:k]) in flushed for k in range(1, len(lines) + 1))


def test_cli_verify_streams_the_report():
    # the lines go out one by one, and together they are the report's text
    proc = run_cli_process("verify", "--max-vertices", "1", timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == run_verify(max_vertices=1).format_text()


@pytest.mark.slow
def test_cli_verify_default_run():
    # the full default suite in a fresh process: its first line comes out
    # while later checks still run, and the whole output matches its
    # recorded digest within the time budget
    start = time.perf_counter()
    # unbuffered, so that reading the first line leaves the rest in the pipe
    proc = subprocess.Popen([sys.executable, "-m", "weil1.cli", "verify", "--format", "lines"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, bufsize=0,
                            env=cli_env())
    try:
        first = proc.stdout.readline()
        streamed = proc.poll() is None
        rest, err = proc.communicate(timeout=120)
    finally:
        proc.kill()  # a no-op once it has exited
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, err
    assert streamed and first.startswith(b"AXIOM ")
    assert hashlib.sha256(first + rest).hexdigest() == (
        "b214f4a4a5f59872e62c372d3253ba29955cf9af47ab200ea6971172e6fe17e7")
    assert elapsed < 60.0, f"weil1 verify took {elapsed:.1f}s of its 60s budget"


def test_cli_file_input(tmp_path, capsys):
    path = tmp_path / "map.txt"
    path.write_text("f : W -> 2W ; x |-> y1 y2\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "parse", str(path))
    assert code == 0 and out.strip() == "f : W -> 2W ; x1 |-> y1 y2"


# ---------------------------------------------------------------------------
# fuzzing: any text given to any subcommand ends with an exit code in 0-4

FUZZ_TOKENS = (
    # objects, morphisms and expressions, in pieces and whole
    "k", "W", "2W", "3W", "W^2", "^", "*", "@", "(", ")", " ", "f", ":", "->", "|->", ";",
    "+", "x", "x1", "x2", "y1", "y2", "y3", "eps", "eta", "plus", "l", "c", "id(", "proj(",
    "ghat(", "comp(", "tensor(", "pair(", "pairat(", ",", "W * 2W", "f : W -> 2W ; x |-> y1 y2",
    "comp(l, eta)", "1-2", "3; 1-2 2-3",
    # digits, other symbols and non-ASCII characters
    "0", "1", "2", "7", "99999999999", "-", "--", ".", "/", "#", "\n", "\t", "\x00", "é", "λ",
    "∅", "\u0663", "\U0001f600",
)
FUZZ_COMMANDS = (  # (subcommand, flag sets, number of text arguments)
    ("parse", ([], ["--kind", "object"], ["--kind", "morphism"], ["--kind", "genexpr"]), 1),
    ("validate", ([],), 1),
    ("compose", ([],), 2),
    ("decompose", ([], ["--check"]), 1),
    ("evaluate", ([],), 1),
    ("kappa", ([], ["--format", "dot"], ["--format", "lines"]), 1),
    ("cotree", ([],), 1),
    ("hom", ([], ["--format", "lines"]), 2),
    ("dot", ([], ["--kappa"], ["--morphism"]), 1),
    # the sizes whose suite ends within a second, or is refused at once
    ("verify", (["--max-vertices", "0"], ["--max-vertices", "1", "--format", "lines"],
                ["--max-vertices", "7"], ["--max-vertices", "x"], ["--max-vertices", "-1"]), 0),
)
fuzz_text = st.lists(st.sampled_from(FUZZ_TOKENS), max_size=16).map("".join)


@st.composite
def cli_argv(draw):
    name, flag_sets, texts = draw(st.sampled_from(FUZZ_COMMANDS))
    rig = draw(st.sampled_from([[], ["--rig", "nat"]]))
    return [name, *rig, *draw(st.sampled_from(flag_sets)), *[draw(fuzz_text) for _ in range(texts)]]


@given(cli_argv())
@example(["parse", mixed_nesting(130)])
@example(["parse", join_nesting(330)])
@example(["parse", comp_nesting(1000)])
@example(["evaluate", comp_nesting(1000)])
@example(["parse", id_nesting(142)])
@example(["parse", "."])
def test_cli_fuzz_exits_with_a_documented_code(argv):
    out, err = io.StringIO(), io.StringIO()
    stdin = sys.stdin
    sys.stdin = io.StringIO("")  # the text "-" reads the input from stdin
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:  # argparse refusing the command line
        code = exc.code
    finally:
        sys.stdin = stdin
    assert code in range(5), (argv, code, err.getvalue())
