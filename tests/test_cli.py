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
