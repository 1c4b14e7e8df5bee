import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from galcheck.cli import main
from galcheck.errors import SchemaError, ValidationError
from galcheck.extensive import histories, terminal_histories, to_gal_structure, utility
from galcheck.gamegen import random_bimatrix
from galcheck.textio import (
    BENCH_COLUMNS,
    BenchRecord,
    dump_bimatrix,
    dump_game,
    dump_structure,
    load_bimatrix,
    load_game,
    load_structure,
    write_bench_csv,
)

from _helpers import split_argskey_oracle, wide_function_doc


# --------------------------------------------------------------------------- #
# structures


def test_load_example_structure_fixture(example_structure_path):
    g = load_structure(example_structure_path.read_bytes())
    assert len(g.states) == 5
    assert g.initial == ("()",)
    assert g.players_at["()"] == {"1"}
    assert [e.label for e in g.domains["U"]] == ["0", "1", "2"]


def test_structure_roundtrip_idempotent(example_structure_path):
    data = example_structure_path.read_bytes()
    once = dump_structure(load_structure(data))
    twice = dump_structure(load_structure(once))
    assert once == twice == data


def test_dump_of_generated_equals_fixture(example_game, example_structure_path):
    assert dump_structure(to_gal_structure(example_game)) == example_structure_path.read_bytes()


def test_load_structure_rejects_unknown_field(example_structure_path):
    doc = json.loads(example_structure_path.read_text())
    doc["extra"] = 1
    with pytest.raises(SchemaError) as err:
        load_structure(json.dumps(doc))
    assert "extra" in str(err.value)


@pytest.mark.parametrize(
    "change, message",
    [
        (lambda d: d["functions"]["h"].update(rigid="yes"), "/functions/h/rigid: expected a boolean"),
        (lambda d: d["functions"]["h"].update(result="Q"), "/functions/h: undeclared sort 'Q'"),
        (lambda d: d["predicates"]["ge"].update(args=["U", "Q"]), "/predicates/ge: undeclared sort 'Q'"),
        (lambda d: d["sorts"].update(exists=["a"]), "/: 'exists' is a reserved word"),
        (lambda d: d.update(initial=["nowhere"]), "/initial/0: initial state 'nowhere' is not declared"),
        (
            lambda d: d["rigid"]["funcs"]["u1"].update({"(B)": "7"}),
            "/rigid/funcs/u1: value '7' is not an element of sort 'U'",
        ),
        (
            lambda d: d["rigid"]["preds"]["ge"].append(["0", "9"]),
            "/rigid/preds/ge/6: '9' is not an element of sort 'U'",
        ),
        (
            lambda d: d["states"][0]["funcs"].update(h={"x": "()"}),
            "/states/0/funcs/h: 0-ary entry must use key \"\", got 'x'",
        ),
        (lambda d: d.update(states=[], actions=[], initial=[]), "structure has no states"),
    ],
)
def test_structure_file_errors_are_named(example_structure_path, tmp_path, capsys, change, message):
    doc = json.loads(example_structure_path.read_text())
    change(doc)
    with pytest.raises((SchemaError, ValidationError)) as err:
        load_structure(json.dumps(doc))
    assert str(err.value) == message
    path = tmp_path / "bad.structure.json"
    path.write_text(json.dumps(doc))
    assert main(["check", "--model", str(path), "--formula", "true"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_load_structure_rejects_dangling_action(example_structure_path):
    doc = json.loads(example_structure_path.read_text())
    doc["actions"].append(["()", "noshere"])
    with pytest.raises(SchemaError) as err:
        load_structure(json.dumps(doc))
    assert "noshere" in str(err.value) and "/actions" in str(err.value)


def test_load_structure_reports_seriality_violation(example_structure_path):
    doc = json.loads(example_structure_path.read_text())
    # strip every action: states with players lose their successors
    doc["actions"] = []
    with pytest.raises(ValidationError) as err:
        load_structure(json.dumps(doc))
    assert any("no outgoing action" in v for v in err.value.violations)


def test_load_structure_rejects_rigid_table_in_state(example_structure_path):
    doc = json.loads(example_structure_path.read_text())
    doc["states"][0].setdefault("funcs", {})["u1"] = {"(B)": "1"}
    with pytest.raises(SchemaError) as err:
        load_structure(json.dumps(doc))
    assert "u1" in str(err.value)


def test_load_structure_rejects_bad_json():
    with pytest.raises(SchemaError) as err:
        load_structure(b"{not json")
    assert "invalid JSON" in str(err.value)


def test_load_structure_rejects_ambiguous_argskey():
    # labels with commas make "a,a,a" splittable two ways into 2 arguments,
    # and 5001 a's 5000 ways into 5000
    for n in (2, 5000):
        doc = wide_function_doc(["a", "a,a"], n, ",".join(["a"] * (n + 1)))
        with pytest.raises(SchemaError, match="ambiguous"):
            load_structure(json.dumps(doc))


def test_wide_argument_keys_split_without_recursion():
    labels = ["a", "b,c"]
    args = labels * 2500
    g = load_structure(json.dumps(wide_function_doc(labels, 5000, ",".join(args))))
    elems = tuple(g.element("S", label) for label in args)
    assert g.interp.fun("f", "e0", elems).label == "a"
    with pytest.raises(SchemaError, match="does not match the declared sorts"):
        load_structure(json.dumps(wide_function_doc(["a", "a,a"], 5000, ",".join(["a"] * 4999))))


def test_argument_keys_split_as_the_brute_force_oracle_does():
    # labels of one to three possibly empty pieces, such as ",x", "x," and
    # ",", so keys hold leading, trailing and doubled commas; half the keys
    # are built for the argument sorts, and about 3 % of all are ambiguous
    rng = random.Random(11)
    pieces = ["", "x", "y"]
    for _ in range(4000):
        sorts = {}
        for sort in ("S", "T"):
            labels = {",".join(rng.choices(pieces, k=rng.randint(1, 3))) for _ in range(6)}
            sorts[sort] = sorted(labels - {""}) or ["x"]
        arg_sorts = rng.choices("ST", k=rng.randint(1, 4))
        key_sorts = arg_sorts if rng.random() < 0.5 else rng.choices("ST", k=rng.randint(1, 4))
        key = ",".join(rng.choice(sorts[s]) for s in key_sorts)
        doc = wide_function_doc(sorts["S"], len(arg_sorts), key)
        doc["sorts"]["T"] = sorts["T"]
        doc["functions"]["f"]["args"] = arg_sorts
        found = split_argskey_oracle(key, [sorts[s] for s in arg_sorts])
        if len(found) == 1:
            g = load_structure(json.dumps(doc))
            elems = tuple(g.element(s, label) for s, label in zip(arg_sorts, found[0]))
            assert g.interp.fun("f", "e0", elems).label == sorts["S"][0]
        else:
            message = "does not match the declared sorts" if not found else "is ambiguous"
            with pytest.raises(SchemaError, match=message):
                load_structure(json.dumps(doc))


def test_ambiguous_wide_key_is_rejected_at_the_split_bound():
    # 4400 a's over the labels a and a,a cut into 4000 arguments in many
    # ways; the partial splits pass the bound after about 100 arguments
    n = 4000
    data = json.dumps(wide_function_doc(["a", "a,a"], n, ",".join(["a"] * (n + n // 10))))
    start = time.perf_counter()
    with pytest.raises(SchemaError, match="has more than 100 partial splits"):
        load_structure(data)
    assert time.perf_counter() - start < 0.5
    # more pieces than 150 arguments can take: no offset fits, so no bound is reached
    with pytest.raises(SchemaError, match="does not match the declared sorts"):
        load_structure(json.dumps(wide_function_doc(["a", "a,a"], 150, ",".join(["a"] * 1000))))


def test_load_time_of_a_table_over_a_wide_sort():
    # 40 000 entries over a 200-label sort, each label looked up in its
    # sort's index: about 0.2 s on a 2-core host, against 4.5 s when each
    # label scanned its domain
    labels = [f"e{k}" for k in range(200)]
    doc = wide_function_doc(labels, 2, "e0,e0")
    doc["rigid"]["funcs"]["f"] = {f"{a},{b}": b for a in labels for b in labels}
    data = json.dumps(doc)

    def seconds():
        start = time.perf_counter()
        load_structure(data)
        return time.perf_counter() - start

    assert min(seconds() for _ in range(3)) < 1.5


def test_unambiguous_comma_labels_resolve(example_structure_path):
    g = load_structure(example_structure_path.read_bytes())
    # O_h keys contain labels with commas such as "(A,L)"; force evaluation
    elem = g.interp.fun(
        "O_h",
        "()",
        (g.element("H", "(A)"), g.element("S1", "<B>"), g.element("S2", "<L>")),
    )
    assert elem.label == "(A,L)"


def test_validation_messages_do_not_follow_string_hashes():
    # set order follows string hashes, which change from process to process
    code = (
        "from galcheck.extensive import ExtensiveGame, decision, terminal\n"
        "from galcheck.logic import Signature\n"
        "from galcheck.structure import GalStructure, table_provider\n"
        "from galcheck.textio import load_structure\n"
        "for build in (\n"
        "    lambda: load_structure(b'{}'),\n"
        "    lambda: ExtensiveGame(('1',), decision('1', {'a': terminal({'1': 0, 'x': 1, 'y': 2, 'z': 3})})),\n"
        "    lambda: GalStructure(Signature(players=('1',)), ['e0'], ['e0'], [('e0', 'e0')], {},\n"
        "                         {'e0': ['x', 'y', 'z']}, *table_provider({}, {}, {}, {})),\n"
        "):\n"
        "    try:\n"
        "        build()\n"
        "    except Exception as exc:\n"
        "        print(type(exc).__name__, exc)\n"
    )
    outputs = set()
    for seed in ("0", "1"):
        env = {**os.environ, "PYTHONHASHSEED": seed}
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
        outputs.add(proc.stdout)
    unknown = "; ".join(f"terminal (a) has a utility for unknown player {p!r}" for p in "xyz")
    undeclared = "; ".join(f"state 'e0' lists undeclared player {p!r}" for p in "xyz")
    assert outputs == {f"SchemaError /: missing field 'actions'\nValidationError {unknown}\nValidationError {undeclared}\n"}


# --------------------------------------------------------------------------- #
# games


def test_load_example_game_fixture(example_game_path, example_game):
    g = load_game(example_game_path.read_bytes())
    assert g == example_game
    assert len(histories(g)) == 5
    assert len(terminal_histories(g)) == 3


def test_game_roundtrip_idempotent(example_game_path):
    data = example_game_path.read_bytes()
    g = load_game(data)
    once = dump_game(g)
    assert dump_game(load_game(once)) == once


def test_load_game_missing_utility_names_node():
    doc = {
        "players": ["1", "2"],
        "root": {"player": "1", "moves": {"A": {"utilities": {"1": 0}}}},
    }
    with pytest.raises(ValidationError) as err:
        load_game(json.dumps(doc))
    assert any("(A)" in v and "2" in v for v in err.value.violations)


def test_load_game_rational_utilities():
    doc = {
        "players": ["1"],
        "root": {"player": "1", "moves": {"A": {"utilities": {"1": [1, 2]}}}},
    }
    g = load_game(json.dumps(doc))
    assert utility(g, ("A",), "1") == Fraction(1, 2)


def test_load_game_rejects_zero_denominator():
    doc = {
        "players": ["1"],
        "root": {"player": "1", "moves": {"A": {"utilities": {"1": [1, 0]}}}},
    }
    with pytest.raises(SchemaError) as err:
        load_game(json.dumps(doc))
    assert "/root/moves/A/utilities/1" in str(err.value)


@pytest.mark.parametrize(
    "value, message",
    [
        (True, "expected a number or [num, den] pair"),
        ("1", "expected a number or [num, den] pair"),
        ([1], "expected a [num, den] pair of integers"),
        ([1, 2.0], "expected a [num, den] pair of integers"),
    ],
)
def test_utility_shape_errors_are_named(tmp_path, capsys, value, message):
    doc = {"players": ["1"], "root": {"utilities": {"1": value}}}
    _game_file_error(tmp_path, capsys, doc, f"/root/utilities/1: {message}")


def test_a_game_file_without_players_is_rejected(tmp_path, capsys):
    _game_file_error(tmp_path, capsys, {"players": [], "root": {"utilities": {}}}, "game declares no players")


def _game_file_error(tmp_path, capsys, doc, message):
    with pytest.raises((SchemaError, ValidationError)) as err:
        load_game(json.dumps(doc))
    assert str(err.value) == message
    path = tmp_path / "bad.game.json"
    path.write_text(json.dumps(doc))
    assert main(["eq", "--game", str(path), "--concept", "ne"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_load_game_rejects_empty_moves():
    doc = {"players": ["1"], "root": {"player": "1", "moves": {}}}
    with pytest.raises(SchemaError):
        load_game(json.dumps(doc))


def test_load_game_rejects_unknown_node_field():
    doc = {
        "players": ["1"],
        "root": {"player": "1", "moves": {"A": {"utilities": {"1": 0}, "note": "x"}}},
    }
    with pytest.raises(SchemaError) as err:
        load_game(json.dumps(doc))
    assert "/root/moves/A" in str(err.value)


# --------------------------------------------------------------------------- #
# bimatrix files


def test_bimatrix_roundtrip():
    b = random_bimatrix(3, 2, 9, 17)
    assert load_bimatrix(dump_bimatrix(b)) == b


@pytest.mark.parametrize("field", ["m", "n"])
def test_bimatrix_action_count_below_one_names_its_field(field):
    doc = {"m": 1, "n": 1, "u1": [[0]], "u2": [[0]], "seed": 0, field: 0}
    with pytest.raises(SchemaError) as err:
        load_bimatrix(json.dumps(doc))
    assert err.value.path == f"/{field}"
    assert str(err.value) == f"/{field}: action counts must be >= 1"


@pytest.mark.parametrize(
    "change, message",
    [
        ({"m": "2"}, "/m: expected an integer"),
        ({"n": 1.0}, "/n: expected an integer"),
        ({"seed": True}, "/seed: expected an integer"),
        ({"u1": [[0]]}, "/u1: expected 2 rows"),
        ({"u2": [[0], [0.5]]}, "/u2/1: expected an integer payoff"),
    ],
)
def test_bimatrix_file_errors_are_named(change, message):
    doc = {"m": 2, "n": 1, "u1": [[0], [0]], "u2": [[0], [0]], "seed": 0, **change}
    with pytest.raises(SchemaError) as err:
        load_bimatrix(json.dumps(doc))
    assert str(err.value) == message


def test_bimatrix_rejects_ragged_rows():
    doc = {"m": 2, "n": 2, "u1": [[1, 2], [3]], "u2": [[0, 0], [0, 0]], "seed": 0}
    with pytest.raises(SchemaError) as err:
        load_bimatrix(json.dumps(doc))
    assert "/u1/1" in str(err.value)


# --------------------------------------------------------------------------- #
# bench CSV


def test_bench_csv_header_only():
    data = write_bench_csv([])
    assert data == ("experiment,m,n,payoff_bound,seed,equilibria,millis\r\n").encode()


def test_bench_csv_single_record():
    rec = BenchRecord("random-2p", 2, 2, 10, 7, 1, 0.25)
    lines = write_bench_csv([rec]).decode().splitlines()
    assert lines[0] == ",".join(BENCH_COLUMNS)
    assert lines[1] == "random-2p,2,2,10,7,1,0.250"
    assert len(lines) == 2


def test_bench_csv_quotes_embedded_commas():
    rec = BenchRecord("weird, name", 2, 2, 1, 0, 4, 1.0)
    lines = write_bench_csv([rec]).decode().splitlines()
    assert lines[1].startswith('"weird, name"')


def test_bench_record_rejects_bad_fields():
    with pytest.raises(ValueError):
        BenchRecord("", 2, 2, 1, 0, 4, 1.0)
    with pytest.raises(ValueError):
        BenchRecord("x", 2, 2, 1, 0, 4, -1.0)
