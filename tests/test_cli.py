import json
import subprocess
import sys

from galcheck.cli import main
from galcheck.textio import load_bimatrix, load_structure


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
    # The parser recurses and rejects what nests too deep for it as a parse
    # error; well below that limit, the same nestings are checked.
    model = str(example_structure_path)
    for nest in (_NESTINGS["not"], _NESTINGS["EX"], _NESTINGS["paren"]):
        code, _, err = run_cli(capsys, "check", "--model", model, "--formula", nest(100))
        assert code in (0, 1), err
        code, out, err = run_cli(capsys, "check", "--model", model, "--formula", nest(5000))
        assert code == 2 and out == ""
        assert err.startswith("error: at position ") and "formula is nested too deeply" in err


def test_check_too_deep_formula_subprocess(example_structure_path):
    proc = subprocess.run(
        [sys.executable, "-m", "galcheck", "check", "--model", str(example_structure_path),
         "--formula", _NESTINGS["not"](5000)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: at position ") and "formula is nested too deeply" in proc.stderr


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


# --------------------------------------------------------------------------- #
# gen


def test_gen_random_2p_constant_table(tmp_path, capsys):
    out_path = tmp_path / "b.json"
    code, out, _ = run_cli(
        capsys, "gen", "random-2p", "--m", "2", "--n", "2", "--bound", "1", "--seed", "7",
        "-o", str(out_path),
    )
    assert code == 0
    b = load_bimatrix(out_path.read_bytes())
    assert all(x == 0 for row in (*b.u1, *b.u2) for x in row)


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
    code, _, err = run_cli(
        capsys, "gen", "random-2p", "--m", "0", "--n", "2", "--bound", "1", "--seed", "7",
        "-o", str(tmp_path / "x.json"),
    )
    assert code == 2 and "error" in err


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
# environment / process-level behavior


def test_internal_failure_exit4_without_traceback(example_structure_path, capsys, monkeypatch):
    import galcheck.cli as cli_mod

    def broken_check(*args, **kwargs):
        raise RuntimeError("labeler broke")

    monkeypatch.setattr(cli_mod, "check", broken_check)
    code, out, err = run_cli(capsys, "check", "--model", str(example_structure_path), "--formula", "@1")
    assert code == 4
    assert out == ""
    assert err == "error: internal: RuntimeError: labeler broke\n"


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
