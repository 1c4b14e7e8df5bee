import copy
import json
import random
import subprocess
import sys
import time

import pytest

from galcheck.cli import main
from galcheck.textio import load_structure

from _helpers import wide_function_doc


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --------------------------------------------------------------------------- #
# check


def test_check_player_atom_exit0(example_structure_path, capsys):
    code, out, _ = run_cli(capsys, "check", "--model", str(example_structure_path), "--formula", "@1")
    doc = json.loads(out)
    assert code == 0
    assert doc["sat"] == ["()"]
    assert doc["initial_sat"] == ["()"]
    assert doc["stats"]["states"] == 5


def test_check_failing_formula_exit1(example_structure_path, capsys):
    code, out, _ = run_cli(capsys, "check", "--model", str(example_structure_path), "--formula", "@2")
    assert code == 1
    assert json.loads(out)["sat"] == ["(A)"]


def test_check_unbound_variable_exit2(example_structure_path, capsys):
    code, _, err = run_cli(
        capsys, "check", "--model", str(example_structure_path), "--formula", "ge(u1(v:T), u1(v))"
    )
    assert code == 2
    assert "error" in err


def test_check_with_binding(example_structure_path, capsys):
    code, out, _ = run_cli(
        capsys,
        "check",
        "--model",
        str(example_structure_path),
        "--formula",
        "onpath(h, v:T)",
        "--bind",
        "v=(B)",
    )
    # the sole initial state () is a prefix of (B), so all-initial-sat holds
    assert code == 0
    doc = json.loads(out)
    assert doc["sat"] == ["()", "(B)"]


def test_main_calls_in_one_process_are_independent(example_structure_path, capsys):
    model = str(example_structure_path)
    bound = ("check", "--model", model, "--formula", "onpath(h, v:T)", "--bind", "v=(B)")
    assert run_cli(capsys, *bound)[0] == 0
    # the parser is shared, but the first call's --bind must not carry over
    code, _, err = run_cli(capsys, "check", "--model", model, "--formula", "onpath(h, v:T)")
    assert code == 2
    assert "free variables not assigned: v" in err
    assert run_cli(capsys, *bound)[0] == 0
    assert run_cli(capsys, "check", "--model", model)[0] == 2  # missing --formula


def test_check_binding_unknown_element(example_structure_path, capsys):
    code, _, err = run_cli(
        capsys,
        "check",
        "--model",
        str(example_structure_path),
        "--formula",
        "onpath(h, v:T)",
        "--bind",
        "v=(Z)",
    )
    assert code == 2 and "error" in err


def test_check_formula_file(example_structure_path, tmp_path, capsys):
    path = tmp_path / "f.gal"
    path.write_text("EX true")
    code, out, _ = run_cli(
        capsys, "check", "--model", str(example_structure_path), "--formula-file", str(path)
    )
    assert code == 0  # the initial state has a successor
    assert json.loads(out)["sat"] == ["()", "(A)"]


def test_check_parse_error_exit2(example_structure_path, capsys):
    code, _, err = run_cli(capsys, "check", "--model", str(example_structure_path), "--formula", "@1 &")
    assert code == 2 and "error" in err


# Formulas nested n deep, one function per shape.
_NESTINGS = {
    "and": lambda n: " & ".join(["@1"] * n),
    "or": lambda n: " | ".join(["@1"] * n),
    "implies": lambda n: " -> ".join(["@1"] * n),
    "not": lambda n: "!" * n + "@1",
    "EX": lambda n: "EX " * n + "@1",
    "AG": lambda n: "AG " * n + "@1",
    "forall": lambda n: "forall x:S1 . " * n + "@1",
    "paren": lambda n: "(" * n + "@1" + ")" * n,
}
# The deepest n of the sweep below that was checked before the depth bound
# existed; deeper ones exited 4 with a RecursionError or 2 from the parser.
_ANSWERED_BEFORE = {
    "and": 165, "or": 165, "implies": 330, "not": 330, "EX": 100, "AG": 100, "forall": 100, "paren": 165,
}


def _collapsed(shape: str, n: int) -> str:
    """A short formula with the same answer as nesting `shape` n deep on the
    worked example, where only the root has player 1 and no action leads
    back to it."""
    if shape == "implies":
        return "@1" if n == 1 else "true"
    if shape == "not":
        return "@1" if n % 2 == 0 else "!@1"
    if shape in ("EX", "AG"):
        return f"{shape} @1"
    return "@1"


def test_check_nesting_sweep_answers_or_exits_2(example_structure_path, capsys):
    model = str(example_structure_path)
    for shape, nest in _NESTINGS.items():
        for n in (1, 10, 100, 165, 200, 330, 500, 1000, 5000):
            code, out, err = run_cli(capsys, "check", "--model", model, "--formula", nest(n))
            assert code in (0, 1, 2), (shape, n, err)
            if code == 2:
                assert "nested too deeply" in err and n > _ANSWERED_BEFORE[shape], (shape, n, err)
                continue
            _, want, _ = run_cli(capsys, "check", "--model", model, "--formula", _collapsed(shape, n))
            got, want = json.loads(out), json.loads(want)
            assert (got["sat"], got["initial_sat"]) == (want["sat"], want["initial_sat"]), (shape, n)


def test_check_parser_nesting_limit_on_both_sides(example_structure_path, capsys):
    # The parser rejects a tree deeper than logic.MAX_DEPTH as written as a
    # parse error; well below that bound, the same nestings are checked.
    model = str(example_structure_path)
    for nest in (_NESTINGS["not"], _NESTINGS["EX"]):
        code, _, err = run_cli(capsys, "check", "--model", model, "--formula", nest(100))
        assert code in (0, 1), err
        code, out, err = run_cli(capsys, "check", "--model", model, "--formula", nest(5000))
        assert code == 2 and out == ""
        assert err.startswith("error: at position ") and "formula is nested too deeply" in err


def test_check_deep_parentheses_answered_like_the_atom(example_structure_path, capsys):
    # parentheses add no level, and the parser keeps no frame per level
    model = str(example_structure_path)
    _, want, _ = run_cli(capsys, "check", "--model", model, "--formula", "@1")
    code, out, err = run_cli(capsys, "check", "--model", model, "--formula", _NESTINGS["paren"](5000))
    assert (code, err) == (0, "")
    assert json.loads(out)["sat"] == json.loads(want)["sat"]


def test_check_too_deep_formula_subprocess(example_structure_path):
    proc = subprocess.run(
        [sys.executable, "-m", "galcheck", "check", "--model", str(example_structure_path),
         "--formula", _NESTINGS["not"](5000)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: at position ") and "formula is nested too deeply" in proc.stderr


def test_check_missing_table_entry_names_the_state(example_structure_path, tmp_path, capsys):
    doc = json.loads(example_structure_path.read_text())
    for state in doc["states"]:
        if state["id"] == "(A,L)":
            del state["funcs"]["h"]
    model = tmp_path / "partial.json"
    model.write_text(json.dumps(doc))
    # () -> (A) -> (A,L): the formula evaluates h two steps from the root
    code, out, err = run_cli(capsys, "check", "--model", str(model), "--formula", "AX AX h = h")
    assert code == 2 and out == ""
    assert err == "error: no table entry for function 'h' at state '(A,L)' on ()\n"


def test_check_wide_function_table(tmp_path, capsys):
    # a 5000-argument key is split without recursion, so this is no internal failure
    model = tmp_path / "wide.json"
    model.write_text(json.dumps(wide_function_doc(["a", "b,c"], 5000, ",".join(["a", "b,c"] * 2500))))
    code, out, _ = run_cli(capsys, "check", "--model", str(model), "--formula", "true")
    assert code == 0 and json.loads(out)["initial_sat"] == ["e0"]


# --------------------------------------------------------------------------- #
# eq


def test_eq_ne_profiles(example_game_path, capsys):
    code, out, _ = run_cli(capsys, "eq", "--game", str(example_game_path), "--concept", "ne")
    doc = json.loads(out)
    assert code == 0
    assert doc["profiles"] == [["<A>", "<R>"], ["<B>", "<L>"]]
    assert doc["oracle_agrees"] is True


def test_eq_spe_profile(example_game_path, capsys):
    code, out, _ = run_cli(capsys, "eq", "--game", str(example_game_path), "--concept", "spe")
    doc = json.loads(out)
    assert code == 0
    assert doc["profiles"] == [["<A>", "<R>"]]


def test_eq_oversized_game_needs_force(tmp_path, capsys):
    # a full ternary tree of depth 3 owned by one player: 3^13 profiles
    def node(depth):
        if depth == 0:
            return {"utilities": {"1": 0, "2": 0}}
        return {"player": "1", "moves": {a: node(depth - 1) for a in "abc"}}

    path = tmp_path / "big.game.json"
    path.write_text(json.dumps({"players": ["1", "2"], "root": node(3)}))
    code, _, err = run_cli(capsys, "eq", "--game", str(path), "--concept", "ne")
    assert code == 2
    assert "1594323" in err and "--force" in err


def test_eq_missing_file_exit2(tmp_path, capsys):
    code, _, err = run_cli(capsys, "eq", "--game", str(tmp_path / "nope.json"), "--concept", "ne")
    assert code == 2


def test_eq_too_deeply_nested_file_exit2(tmp_path, capsys):
    depth = 3000
    path = tmp_path / "deep.game.json"
    path.write_text(
        '{"players": ["1"], "root": '
        + '{"player": "1", "moves": {"a": ' * depth
        + '{"utilities": {"1": 0}}'
        + "}}" * depth
        + "}"
    )
    code, out, err = run_cli(capsys, "eq", "--game", str(path), "--concept", "ne")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and not err.startswith("error: internal")
    assert "nested too deeply" in err


def _terminal(u1, u2):
    return {"utilities": {"1": u1, "2": u2}}


def test_eq_player_colliding_with_a_generated_name_exit2(tmp_path, capsys):
    # "h" is the encoding's history function; "u1" is player 1's utility function
    for players in (["h"], ["1", "u1"]):
        path = tmp_path / "collide.game.json"
        root = {"player": players[0], "moves": {"a": {"utilities": {p: 0 for p in players}}}}
        path.write_text(json.dumps({"players": players, "root": root}))
        code, out, err = run_cli(capsys, "eq", "--game", str(path), "--concept", "ne")
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and not err.startswith("error: internal")
        assert f"{players[-1]!r}" in err


def test_eq_comma_action_names_the_action(tmp_path, capsys):
    # labels join actions with ",": (a,b) would name two histories
    path = tmp_path / "comma.game.json"
    root = {"player": "1", "moves": {
        "a,b": _terminal(0, 0),
        "a": {"player": "2", "moves": {"b": _terminal(1, 1), "c": _terminal(2, 2)}},
    }}
    path.write_text(json.dumps({"players": ["1", "2"], "root": root}))
    code, out, err = run_cli(capsys, "eq", "--game", str(path), "--concept", "ne")
    assert (code, out) == (2, "")
    assert err == "error: action 'a,b' at () is empty or contains ','\n"
    root["moves"][""] = root["moves"].pop("a,b")
    path.write_text(json.dumps({"players": ["1", "2"], "root": root}))
    code, out, err = run_cli(capsys, "eq", "--game", str(path), "--concept", "ne")
    assert (code, out) == (2, "")
    assert err == "error: action '' at () is empty or contains ','\n"


def test_eq_comma_actions_in_strategy_labels(tmp_path, capsys):
    # <p,q,r> would name two of player 2's strategies
    path = tmp_path / "comma.game.json"
    root = {"player": "1", "moves": {
        "x": {"player": "2", "moves": {"p": _terminal(0, 0), "p,q": _terminal(1, 1)}},
        "y": {"player": "2", "moves": {"q,r": _terminal(2, 2), "r": _terminal(3, 3)}},
    }}
    path.write_text(json.dumps({"players": ["1", "2"], "root": root}))
    code, _, err = run_cli(capsys, "eq", "--game", str(path), "--concept", "spe")
    assert code == 2
    assert "action 'p,q' at (x)" in err and "action 'q,r' at (y)" in err


# --------------------------------------------------------------------------- #
# gen


def test_gen_random_2p_constant_table(tmp_path, capsys):
    out_path = tmp_path / "b.json"
    code, out, _ = run_cli(
        capsys, "gen", "random-2p", "--m", "2", "--n", "2", "--bound", "1", "--seed", "7",
        "-o", str(out_path),
    )
    assert code == 0
    b = json.loads(out_path.read_bytes())
    assert all(x == 0 for row in (*b["u1"], *b["u2"]) for x in row)


def test_gen_tictactoe_writes_structure(tmp_path, capsys):
    out_path = tmp_path / "ttt.json"
    code, out, err = run_cli(
        capsys, "gen", "tictactoe", "--playerX", "first", "--playerO", "first", "-o", str(out_path)
    )
    assert code == 0
    counts = json.loads(out)
    g = load_structure(out_path.read_bytes())
    assert counts["states"] == len(g.states)
    assert counts["actions"] == len(g.actions)
    assert "ms" in err


def test_gen_random_2p_bad_shape_exit2(tmp_path, capsys):
    for flag in ("--m", "--n", "--bound"):
        argv = {"--m": "2", "--n": "2", "--bound": "1", "--seed": "7", "-o": str(tmp_path / "x.json")}
        argv[flag] = "0"
        code, out, err = run_cli(capsys, "gen", "random-2p", *[x for kv in argv.items() for x in kv])
        assert (code, out) == (2, "")
        assert err == "error: --m, --n and --bound must be >= 1\n", flag


def test_gen_bad_policy_exit2(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "gen", "tictactoe", "--playerX", "smart", "--playerO", "all",
        "-o", str(tmp_path / "x.json"),
    )
    assert code == 2 and "policy" in err


def test_gen_tictactoe_spread_both_full_space(tmp_path, capsys):
    out_path = tmp_path / "full.json"
    code, out, _ = run_cli(
        capsys, "gen", "tictactoe", "--playerX", "all", "--playerO", "all", "-o", str(out_path)
    )
    assert code == 0
    assert json.loads(out)["states"] == 5478


def test_eq_disagreement_exits_3(example_game_path, capsys, monkeypatch):
    import galcheck.cli as cli_mod

    monkeypatch.setattr(cli_mod, "oracle_equilibria", lambda game, concept: [])
    code, out, err = run_cli(capsys, "eq", "--game", str(example_game_path), "--concept", "ne")
    assert code == 3
    assert json.loads(out)["oracle_agrees"] is False
    assert "disagree" in err


def test_gen_then_check_round_trip(tmp_path, capsys):
    out_path = tmp_path / "ttt.json"
    run_cli(capsys, "gen", "tictactoe", "--playerX", "minimax:3", "--playerO", "all", "-o", str(out_path))
    code, out, _ = run_cli(capsys, "check", "--model", str(out_path), "--formula", "AG !winX | EF winX")
    assert code in (0, 1)
    json.loads(out)


# --------------------------------------------------------------------------- #
# bench


def test_bench_row_count(tmp_path, capsys):
    csv_path = tmp_path / "bench.csv"
    code, _, err = run_cli(
        capsys, "bench", "random-2p", "--sizes", "2..4", "--trials", "1", "--bound", "10",
        "--seed", "5", "-o", str(csv_path),
    )
    assert code == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "experiment,m,n,payoff_bound,seed,equilibria,millis"
    assert len(lines) == 4  # header + one row per size


def test_bench_deterministic_modulo_millis(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        run_cli(
            capsys, "bench", "random-2p", "--sizes", "2..3", "--trials", "2", "--bound", "6",
            "--seed", "11", "-o", str(path),
        )

    def strip_millis(text):
        return [line.rsplit(",", 1)[0] for line in text.splitlines()]

    assert strip_millis(a.read_text()) == strip_millis(b.read_text())


def test_bench_bad_range_exit2(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "bench", "random-2p", "--sizes", "4..2", "--trials", "1", "--bound", "1",
        "--seed", "0", "-o", str(tmp_path / "x.csv"),
    )
    assert code == 2 and "range" in err


_GEN = ["gen", "tictactoe", "-o", "{out}"]
_BENCH = ["bench", "random-2p", "--sizes", "2..3", "--trials", "1", "--bound", "1", "--seed", "0", "-o", "{out}"]
_CHECK = ["check", "--model", "{model}", "--formula", "@1"]


def _with(argv, flag, value):
    k = argv.index(flag)
    return [*argv[: k + 1], value, *argv[k + 2 :]]


@pytest.mark.parametrize(
    "argv, message",
    [
        ([*_GEN, "--playerX", "minimax:x", "--playerO", "all"], "bad minimax depth in policy 'minimax:x'"),
        ([*_GEN, "--playerX", "all", "--playerO", "minimax:0"], "minimax depth must be >= 1"),
        (_with(_BENCH, "--sizes", "3"), "bad size range '3' (use A..B)"),
        (_with(_BENCH, "--sizes", "a..3"), "bad size range 'a..3'"),
        (_with(_BENCH, "--sizes", "0..3"), "bad size range '0..3' (need 1 <= A <= B)"),
        (_with(_BENCH, "--trials", "0"), "--trials must be >= 1"),
        (_with(_BENCH, "--bound", "-1"), "--bound must be >= 0"),
        ([*_CHECK, "--bind", "v1"], "bad binding 'v1' (use VAR=ELEM)"),
        ([*_CHECK, "--bind", "v1=<A>"], "binding for 'v1', which is not a free variable"),
    ],
)
def test_usage_errors_are_named(example_structure_path, tmp_path, capsys, argv, message):
    out = tmp_path / "out"
    argv = [a.format(out=out, model=example_structure_path) for a in argv]
    assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")
    assert not out.exists()


def test_bench_constant_bound_zero_gives_square_counts(tmp_path, capsys):
    csv_path = tmp_path / "bench.csv"
    run_cli(
        capsys, "bench", "random-2p", "--sizes", "2..3", "--trials", "2", "--bound", "0",
        "--seed", "3", "-o", str(csv_path),
    )
    rows = csv_path.read_text().splitlines()[1:]
    for row in rows:
        cells = row.split(",")
        assert int(cells[5]) == int(cells[1]) ** 2


# --------------------------------------------------------------------------- #
# fuzz: no traceback and no exit code that lies

_JUNK = [None, True, 0, -1, 1.5, "", "a,b", "()", [], {}, ["1"], {"a": 1}, [0, 0]]
_TOKENS = (
    "true false @1 @2 ! & | -> EX AX EF AF EG AG E A [ ] U ( ) exists forall "
    "v:T v w:S1 : . , = ge onpath u1 u2 O O_h h #U:1 #T:9 (B) zz"
).split()


def _mutate(rng, doc):
    """`doc` with one random node dropped, replaced by junk or duplicated."""
    trail, node = [], doc
    while isinstance(node, (dict, list)) and node and (not trail or rng.random() < 0.7):
        key = rng.choice(list(node)) if isinstance(node, dict) else rng.randrange(len(node))
        trail.append((node, key))
        node = node[key]
    if not trail:
        return rng.choice(_JUNK)
    parent, key = trail[-1]
    op = rng.randrange(3)
    if op == 0:
        del parent[key]
    elif op == 1:
        parent[key] = copy.deepcopy(rng.choice(_JUNK))
    elif isinstance(parent, list):
        parent.append(copy.deepcopy(parent[key]))
    else:
        parent[f"{key},{key}"] = copy.deepcopy(parent[key])
    return doc


def _invalid_shapes(game, structure):
    """Documents the loaders accept but the constructors reject."""
    deadlock = copy.deepcopy(structure)  # a player at a deadlock state
    next(st for st in deadlock["states"] if st["id"] == "(B)")["players"] = ["1"]
    empty = copy.deepcopy(structure)  # a declared sort with an empty domain
    empty["sorts"]["Z"] = []
    no_utils = copy.deepcopy(game)  # a terminal without utilities
    no_utils["root"]["moves"]["B"] = {"utilities": {}}
    comma = copy.deepcopy(game)  # a "," action: (A,L) names two histories
    comma["root"]["moves"]["A,L"] = comma["root"]["moves"].pop("B")
    return [("structure", deadlock), ("structure", empty), ("game", no_utils), ("game", comma)]


def test_fuzzed_inputs_exit_honestly(example_game_path, example_structure_path, tmp_path, capsys):
    rng = random.Random(12)
    game = json.loads(example_game_path.read_text())
    structure = json.loads(example_structure_path.read_text())
    shapes = _invalid_shapes(game, structure)
    cases = [(kind, doc, "true") for kind, doc in shapes]
    for _ in range(300 - len(cases)):
        kind = rng.choice(["game", "structure", "formula"])
        if kind == "formula":
            formula = " ".join(rng.choices(_TOKENS, k=rng.randint(1, 12)))
            cases.append(("structure", structure, formula))
            continue
        doc = copy.deepcopy(game if kind == "game" else structure)
        for _ in range(rng.randint(1, 3)):
            doc = _mutate(rng, doc)
        cases.append((kind, doc, rng.choice(["true", "@1", "@2", "AX false", "onpath(h, v:T)"])))

    codes = []
    t0 = time.perf_counter()
    path = tmp_path / "input.json"
    for k, (kind, doc, formula) in enumerate(cases):
        text = json.dumps(doc)
        if rng.random() < 0.1:
            text = text[: rng.randrange(len(text) + 1)]
        path.write_text(text)
        if kind == "game":
            argv = ["eq", "--game", str(path), "--concept", rng.choice(["ne", "spe"])]
        else:
            argv = ["check", "--model", str(path), "--formula", formula]
            if rng.random() < 0.3:
                argv += ["--bind", rng.choice(["v=(B)", "v=(A)", "w=<A>", "v=zz", "v"])]
        code, _, err = run_cli(capsys, *argv)
        assert code in (0, 1, 2, 3), (argv, text, err)
        assert "Traceback" not in err and "internal" not in err, (argv, text, err)
        if k < len(shapes):  # rejected by the constructors
            assert code == 2 and err.startswith("error: "), (argv, err)
        codes.append(code)
    assert time.perf_counter() - t0 < 5
    assert {0, 1, 2} <= set(codes)


# --------------------------------------------------------------------------- #
# environment / process-level behavior


def test_internal_failure_exit4_without_traceback(example_structure_path, capsys, monkeypatch):
    import galcheck.cli as cli_mod

    # a bare ValueError is a defect too: exit 2 is decided by the error's type
    for exc in (RuntimeError("labeler broke"), ValueError("too many values to unpack")):

        def broken_check_all(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cli_mod, "check_all", broken_check_all)
        code, out, err = run_cli(capsys, "check", "--model", str(example_structure_path), "--formula", "@1")
        assert code == 4
        assert out == ""
        assert err == f"error: internal: {type(exc).__name__}: {exc}\n"


def test_a_defect_inside_signature_exits4(example_structure_path, capsys, monkeypatch):
    # `load_structure` turns only the signature's own `SortError` into an input error
    from galcheck.logic import Signature

    def broken_check(self):
        raise TypeError("names is not a dict")

    monkeypatch.setattr(Signature, "_check", broken_check)
    code, out, err = run_cli(capsys, "check", "--model", str(example_structure_path), "--formula", "true")
    assert (code, out, err) == (4, "", "error: internal: TypeError: names is not a dict\n")


def test_a_defect_inside_the_game_encoding_exits4(example_game_path, capsys, monkeypatch):
    # every callback the CLI runs is the package's own: its failure is no input error
    import galcheck.extensive as extensive

    def broken_utility(g, h, i):
        raise ZeroDivisionError("defect")

    monkeypatch.setattr(extensive, "utility", broken_utility)
    code, out, err = run_cli(capsys, "eq", "--game", str(example_game_path), "--concept", "ne")
    assert (code, out) == (4, "")
    assert err == "error: internal: function 'u1' failed at state '()' on ('(A,L)',): defect (ZeroDivisionError)\n"


def test_a_defect_inside_a_table_callback_exits4(example_structure_path, capsys, monkeypatch):
    import galcheck.textio as textio

    real = textio.table_provider

    def broken_provider(*tables):
        def pred_eval(name, state, args):
            raise TypeError("unhashable")

        return real(*tables)[0], pred_eval

    monkeypatch.setattr(textio, "table_provider", broken_provider)
    model = str(example_structure_path)
    code, out, err = run_cli(capsys, "check", "--model", model, "--formula", "ge(#U:0, #U:1)")
    assert (code, out) == (4, "")
    assert err == "error: internal: predicate 'ge' failed at state '()' on ('0', '1'): unhashable (TypeError)\n"


def _one_error_line(code, out, err):
    return code == 2 and out == "" and err.startswith("error: ") and err.count("\n") == 1 and "internal" not in err


def test_non_utf8_input_files_exit2(example_game_path, example_structure_path, tmp_path, capsys):
    bad = tmp_path / "latin1.json"
    for argv, good in (
        (["eq", "--concept", "ne", "--game", str(bad)], example_game_path),
        (["check", "--formula", "@1", "--model", str(bad)], example_structure_path),
    ):
        data = good.read_bytes()
        k = data.index(b'"1"') + 1
        bad.write_bytes(data[:k] + b"\xe9" + data[k:])
        code, out, err = run_cli(capsys, *argv)
        assert _one_error_line(code, out, err), err
        assert err == f"error: /: not UTF-8: invalid continuation byte at byte {k}\n"


def test_non_utf8_formula_file_exit2(example_structure_path, tmp_path, capsys):
    path = tmp_path / "formula.txt"
    path.write_bytes(b"@1 & \xff")
    code, out, err = run_cli(capsys, "check", "--model", str(example_structure_path), "--formula-file", str(path))
    assert _one_error_line(code, out, err), err
    assert err == "error: formula file is not UTF-8: invalid start byte at byte 5\n"


def test_overlong_numbers_exit2(example_structure_path, tmp_path, capsys):
    # more digits than Python converts to an int (4300 by default since 3.11)
    digits = "9" * 5000
    model = str(example_structure_path)
    code, out, err = run_cli(capsys, "check", "--model", model, "--formula", f"h = #H:{digits}")
    assert _one_error_line(code, out, err), err
    if sys.version_info >= (3, 11):
        assert err == "error: at position 7: domain index has too many digits\n"
    doc = json.loads(example_structure_path.read_text())
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(doc).replace('"initial": [', f'"initial": [{digits}, ', 1))
    code, out, err = run_cli(capsys, "check", "--model", str(path), "--formula", "@1")
    assert _one_error_line(code, out, err), err


def test_console_entry_point_subprocess(example_game_path):
    proc = subprocess.run(
        [sys.executable, "-m", "galcheck", "eq", "--game", str(example_game_path), "--concept", "spe"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["profiles"] == [["<A>", "<R>"]]


def test_unknown_subcommand_exit2():
    assert main(["frobnicate"]) == 2
