"""Readers and writers for the on-disk formats.

All loaders are strict: unknown fields, bad shapes, and dangling references
are rejected with a JSON-pointer-style path, never repaired.  Serialization
is canonical (sorted keys; set-like lists sorted; domain enumerations kept
in declared order because element indices are meaningful), so dumping a
loaded file is idempotent after one normalization pass.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Any, Mapping

from .errors import SchemaError, ValidationError
from .extensive import ExtensiveGame, GameNode, decision, terminal, validate_game
from .gamegen import Bimatrix
from .logic import FuncDecl, PredDecl, Signature
from .structure import GalStructure, table_provider

_STRUCTURE_KEYS = {"sorts", "players", "functions", "predicates", "states", "rigid", "actions", "initial"}
_STATE_KEYS = {"id", "players", "funcs", "preds"}


def _as_obj(value: Any, path: str) -> dict:
    if not isinstance(value, dict):
        raise SchemaError(f"expected an object, got {type(value).__name__}", path)
    return value


def _as_list(value: Any, path: str) -> list:
    if not isinstance(value, list):
        raise SchemaError(f"expected an array, got {type(value).__name__}", path)
    return value


def _as_str(value: Any, path: str) -> str:
    if not isinstance(value, str) or not value:
        raise SchemaError("expected a non-empty string", path)
    return value


def _check_keys(obj: dict, allowed: set[str], required: set[str], path: str) -> None:
    for key in obj:
        if key not in allowed:
            raise SchemaError(f"unknown field {key!r}", path)
    for key in required:
        if key not in obj:
            raise SchemaError(f"missing field {key!r}", path)


def _loads(data: bytes | str) -> Any:
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    try:
        return json.loads(data)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc.msg} (line {exc.lineno}, column {exc.colno})") from exc
    except RecursionError:
        raise SchemaError("JSON nested too deeply") from None


# --------------------------------------------------------------------------- #
# Structures


def load_structure(data: bytes | str) -> GalStructure:
    """Parse, type-check, and validate an explicit structure file."""
    doc = _as_obj(_loads(data), "")
    _check_keys(doc, _STRUCTURE_KEYS, _STRUCTURE_KEYS, "")

    sorts_obj = _as_obj(doc["sorts"], "/sorts")
    domains: dict[str, list[str]] = {}
    for sort, elems in sorts_obj.items():
        labels = [_as_str(x, f"/sorts/{sort}") for x in _as_list(elems, f"/sorts/{sort}")]
        if len(set(labels)) != len(labels):
            raise SchemaError("duplicate domain elements", f"/sorts/{sort}")
        domains[sort] = labels

    players = [_as_str(p, "/players") for p in _as_list(doc["players"], "/players")]

    functions: dict[str, FuncDecl] = {}
    for name, decl in _as_obj(doc["functions"], "/functions").items():
        path = f"/functions/{name}"
        decl = _as_obj(decl, path)
        _check_keys(decl, {"args", "result", "rigid"}, {"args", "result", "rigid"}, path)
        args = tuple(_as_str(s, f"{path}/args") for s in _as_list(decl["args"], f"{path}/args"))
        result = _as_str(decl["result"], f"{path}/result")
        if not isinstance(decl["rigid"], bool):
            raise SchemaError("expected a boolean", f"{path}/rigid")
        for s in (*args, result):
            if s not in domains:
                raise SchemaError(f"undeclared sort {s!r}", path)
        functions[name] = FuncDecl(args, result, decl["rigid"])

    rigid_obj = _as_obj(doc["rigid"], "/rigid")
    _check_keys(rigid_obj, {"funcs", "preds"}, {"funcs", "preds"}, "/rigid")
    rigid_pred_names = set(_as_obj(rigid_obj["preds"], "/rigid/preds"))

    predicates: dict[str, PredDecl] = {}
    for name, decl in _as_obj(doc["predicates"], "/predicates").items():
        path = f"/predicates/{name}"
        decl = _as_obj(decl, path)
        _check_keys(decl, {"args"}, {"args"}, path)
        args = tuple(_as_str(s, f"{path}/args") for s in _as_list(decl["args"], f"{path}/args"))
        for s in args:
            if s not in domains:
                raise SchemaError(f"undeclared sort {s!r}", path)
        predicates[name] = PredDecl(args, rigid=name in rigid_pred_names)

    try:
        sig = Signature(set(domains), functions, predicates, players)
    except Exception as exc:
        raise SchemaError(str(exc)) from exc

    state_ids: list[str] = []
    players_at: dict[str, list[str]] = {}
    state_funcs: dict[str, dict[str, dict[tuple[str, ...], str]]] = {}
    state_preds: dict[str, dict[str, set[tuple[str, ...]]]] = {}
    for k, st in enumerate(_as_list(doc["states"], "/states")):
        path = f"/states/{k}"
        st = _as_obj(st, path)
        _check_keys(st, _STATE_KEYS, {"id"}, path)
        sid = _as_str(st["id"], f"{path}/id")
        if sid in players_at:
            raise SchemaError(f"duplicate state id {sid!r}", f"{path}/id")
        state_ids.append(sid)
        ps = [_as_str(p, f"{path}/players") for p in _as_list(st.get("players", []), f"{path}/players")]
        for p in ps:
            if p not in players:
                raise SchemaError(f"undeclared player {p!r}", f"{path}/players")
        players_at[sid] = ps
        state_funcs[sid] = _func_tables(st.get("funcs", {}), functions, domains, False, f"{path}/funcs")
        state_preds[sid] = _pred_tables(st.get("preds", {}), predicates, domains, False, f"{path}/preds")

    rigid_funcs = _func_tables(rigid_obj["funcs"], functions, domains, True, "/rigid/funcs")
    rigid_preds = _pred_tables(rigid_obj["preds"], predicates, domains, True, "/rigid/preds")

    known = set(state_ids)
    actions: list[tuple[str, str]] = []
    for k, pair in enumerate(_as_list(doc["actions"], "/actions")):
        pair = _as_list(pair, f"/actions/{k}")
        if len(pair) != 2:
            raise SchemaError("expected a [source, target] pair", f"/actions/{k}")
        src, dst = (_as_str(x, f"/actions/{k}") for x in pair)
        if src not in known or dst not in known:
            raise SchemaError(f"action [{src!r}, {dst!r}] mentions an undeclared state", f"/actions/{k}")
        actions.append((src, dst))

    initial = []
    for k, sid in enumerate(_as_list(doc["initial"], "/initial")):
        sid = _as_str(sid, f"/initial/{k}")
        if sid not in known:
            raise SchemaError(f"initial state {sid!r} is not declared", f"/initial/{k}")
        initial.append(sid)

    fun_eval, pred_eval = table_provider(state_funcs, state_preds, rigid_funcs, rigid_preds)
    g = GalStructure(
        sig=sig,
        states=state_ids,
        initial=initial,
        actions=actions,
        domains=domains,
        players_at=players_at,
        fun_eval=fun_eval,
        pred_eval=pred_eval,
    )
    violations = g.validate()
    if violations:
        raise ValidationError(violations)
    return g


def _func_tables(
    obj: Any,
    functions: Mapping[str, FuncDecl],
    domains: Mapping[str, list[str]],
    rigid: bool,
    path: str,
) -> dict[str, dict[tuple[str, ...], str]]:
    out: dict[str, dict[tuple[str, ...], str]] = {}
    for name, table in _as_obj(obj, path).items():
        decl = functions.get(name)
        if decl is None:
            raise SchemaError(f"table for undeclared function {name!r}", path)
        if decl.rigid != rigid:
            where = "rigid section" if decl.rigid else "state entries"
            raise SchemaError(f"function {name!r} must be interpreted in the {where}", path)
        entries: dict[tuple[str, ...], str] = {}
        for key, value in _as_obj(table, f"{path}/{name}").items():
            args = _split_argskey(key, decl.args, domains, f"{path}/{name}")
            value = _as_str(value, f"{path}/{name}")
            if value not in domains[decl.result]:
                raise SchemaError(
                    f"value {value!r} is not an element of sort {decl.result!r}", f"{path}/{name}"
                )
            entries[args] = value
        out[name] = entries
    return out


def _pred_tables(
    obj: Any,
    predicates: Mapping[str, PredDecl],
    domains: Mapping[str, list[str]],
    rigid: bool,
    path: str,
) -> dict[str, set[tuple[str, ...]]]:
    out: dict[str, set[tuple[str, ...]]] = {}
    for name, rows in _as_obj(obj, path).items():
        decl = predicates.get(name)
        if decl is None:
            raise SchemaError(f"table for undeclared predicate {name!r}", path)
        if decl.rigid != rigid:
            where = "rigid section" if decl.rigid else "state entries"
            raise SchemaError(f"predicate {name!r} must be interpreted in the {where}", path)
        relation: set[tuple[str, ...]] = set()
        for k, row in enumerate(_as_list(rows, f"{path}/{name}")):
            row = _as_list(row, f"{path}/{name}/{k}")
            if len(row) != len(decl.args):
                raise SchemaError(f"expected {len(decl.args)} arguments", f"{path}/{name}/{k}")
            labels = tuple(_as_str(x, f"{path}/{name}/{k}") for x in row)
            for lab, sort in zip(labels, decl.args):
                if lab not in domains[sort]:
                    raise SchemaError(f"{lab!r} is not an element of sort {sort!r}", f"{path}/{name}/{k}")
            relation.add(labels)
        out[name] = relation
    return out


def _split_argskey(
    key: str,
    arg_sorts: tuple[str, ...],
    domains: Mapping[str, list[str]],
    path: str,
) -> tuple[str, ...]:
    """Split a comma-joined argument key into element labels.

    Labels may themselves contain commas, so the split is resolved against
    the domains; a key that parses zero or several ways is rejected.
    """
    if not arg_sorts:
        if key != "":
            raise SchemaError(f"0-ary entry must use key \"\", got {key!r}", path)
        return ()
    results: list[tuple[str, ...]] = []

    def match(pos: int, i: int, acc: tuple[str, ...]) -> None:
        if len(results) > 1:
            return
        if i == len(arg_sorts):
            if pos == len(key):
                results.append(acc)
            return
        last = i == len(arg_sorts) - 1
        for label in domains[arg_sorts[i]]:
            end = pos + len(label)
            if key.startswith(label, pos):
                if last:
                    match(end, i + 1, acc + (label,))
                elif key.startswith(",", end):
                    match(end + 1, i + 1, acc + (label,))

    match(0, 0, ())
    if not results:
        raise SchemaError(f"argument key {key!r} does not match the declared sorts", path)
    if len(results) > 1:
        raise SchemaError(f"argument key {key!r} is ambiguous", path)
    return results[0]


def dump_structure(g: GalStructure) -> bytes:
    """Serialize with full interpretation tables, canonically ordered.

    The interpretation is forced on every declared profile over the declared
    domains, so a partial provider surfaces as an interpretation failure
    here rather than as a silently incomplete file.
    """
    doc: dict[str, Any] = {
        "sorts": {s: [e.label for e in g.domains[s]] for s in sorted(g.domains)},
        "players": sorted(g.sig.players),
        "functions": {
            name: {"args": list(d.args), "result": d.result, "rigid": d.rigid}
            for name, d in sorted(g.sig.functions.items())
        },
        "predicates": {
            name: {"args": list(d.args)} for name, d in sorted(g.sig.predicates.items())
        },
        "states": [],
        "actions": sorted([list(pair) for pair in g.actions]),
        "initial": sorted(g.initial),
    }

    def arg_tuples(arg_sorts: tuple[str, ...]):
        return product(*(g.domains[s] for s in arg_sorts))

    def tables(state: str, rigid: bool) -> tuple[dict, dict]:
        """The function tables and the nonempty predicate row lists, at
        `state`, of the symbols whose rigidity is `rigid`."""
        funcs = {
            name: {
                ",".join(a.label for a in args): g.interp.fun(name, state, args).label
                for args in arg_tuples(d.args)
            }
            for name, d in sorted(g.sig.functions.items())
            if d.rigid == rigid
        }
        preds = {}
        for name, d in sorted(g.sig.predicates.items()):
            if d.rigid == rigid:
                rows = sorted(
                    [a.label for a in args]
                    for args in arg_tuples(d.args)
                    if g.interp.pred(name, state, args)
                )
                if rows:
                    preds[name] = rows
        return funcs, preds

    funcs, preds = tables(g.states[0], True)
    doc["rigid"] = {"funcs": funcs, "preds": preds}
    for sid in sorted(g.states):
        entry: dict[str, Any] = {"id": sid, "players": sorted(g.players_at.get(sid, ()))}
        funcs, preds = tables(sid, False)
        if funcs:
            entry["funcs"] = funcs
        if preds:
            entry["preds"] = preds
        doc["states"].append(entry)

    return (json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=False) + "\n").encode("utf-8")


# --------------------------------------------------------------------------- #
# Games

_TERMINAL_KEYS = {"utilities"}
_DECISION_KEYS = {"player", "moves"}


def load_game(data: bytes | str) -> ExtensiveGame:
    """Parse and validate a game tree file."""
    doc = _as_obj(_loads(data), "")
    _check_keys(doc, {"players", "root"}, {"players", "root"}, "")
    players = [_as_str(p, "/players") for p in _as_list(doc["players"], "/players")]

    def node(obj: Any, path: str) -> GameNode:
        obj = _as_obj(obj, path)
        if "utilities" in obj:
            _check_keys(obj, _TERMINAL_KEYS, _TERMINAL_KEYS, path)
            utilities = {}
            for p, u in _as_obj(obj["utilities"], f"{path}/utilities").items():
                utilities[p] = _rational(u, f"{path}/utilities/{p}")
            return terminal(utilities)
        _check_keys(obj, _DECISION_KEYS, _DECISION_KEYS, path)
        player = _as_str(obj["player"], f"{path}/player")
        moves_obj = _as_obj(obj["moves"], f"{path}/moves")
        if not moves_obj:
            raise SchemaError("decision node has no moves", f"{path}/moves")
        moves = {}
        for action, child in moves_obj.items():
            if not action:
                raise SchemaError("empty action name", f"{path}/moves")
            moves[action] = node(child, f"{path}/moves/{action}")
        return decision(player, moves)

    game = ExtensiveGame(tuple(players), node(doc["root"], "/root"))
    violations = validate_game(game)
    if violations:
        raise ValidationError(violations)
    return game


def _rational(value: Any, path: str) -> Fraction:
    if isinstance(value, bool):
        raise SchemaError("expected a number or [num, den] pair", path)
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, list):
        if len(value) != 2 or not all(isinstance(x, int) and not isinstance(x, bool) for x in value):
            raise SchemaError("expected a [num, den] pair of integers", path)
        if value[1] == 0:
            raise SchemaError("zero denominator", path)
        return Fraction(value[0], value[1])
    raise SchemaError("expected a number or [num, den] pair", path)


def dump_game(g: ExtensiveGame) -> bytes:
    def node(n: GameNode) -> dict:
        if n.is_terminal:
            return {"utilities": {p: _num_json(u) for p, u in (n.utilities or ())}}
        return {"player": n.player, "moves": {a: node(c) for a, c in n.moves}}

    doc = {"players": list(g.players), "root": node(g.root)}
    return (json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=False) + "\n").encode("utf-8")


def _num_json(u: Fraction):
    return u.numerator if u.denominator == 1 else [u.numerator, u.denominator]


# --------------------------------------------------------------------------- #
# Bimatrix games


def load_bimatrix(data: bytes | str) -> Bimatrix:
    doc = _as_obj(_loads(data), "")
    _check_keys(doc, {"m", "n", "u1", "u2", "seed"}, {"m", "n", "u1", "u2", "seed"}, "")
    m, n, seed = doc["m"], doc["n"], doc["seed"]
    for field_name, value in (("m", m), ("n", n), ("seed", seed)):
        if not isinstance(value, int) or isinstance(value, bool):
            raise SchemaError("expected an integer", f"/{field_name}")
    if m < 1 or n < 1:
        raise SchemaError("action counts must be >= 1", "/m")

    def table(which: str) -> tuple[tuple[int, ...], ...]:
        rows = _as_list(doc[which], f"/{which}")
        if len(rows) != m:
            raise SchemaError(f"expected {m} rows", f"/{which}")
        out = []
        for r, row in enumerate(rows):
            row = _as_list(row, f"/{which}/{r}")
            if len(row) != n:
                raise SchemaError(f"expected {n} columns", f"/{which}/{r}")
            for x in row:
                if not isinstance(x, int) or isinstance(x, bool):
                    raise SchemaError("expected an integer payoff", f"/{which}/{r}")
            out.append(tuple(row))
        return tuple(out)

    return Bimatrix(m, n, table("u1"), table("u2"), seed)


def dump_bimatrix(b: Bimatrix) -> bytes:
    doc = {
        "m": b.m,
        "n": b.n,
        "u1": [list(row) for row in b.u1],
        "u2": [list(row) for row in b.u2],
        "seed": b.seed,
    }
    return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode("utf-8")


# --------------------------------------------------------------------------- #
# Bench records

BENCH_COLUMNS = ("experiment", "m", "n", "payoff_bound", "seed", "equilibria", "millis")


@dataclass(frozen=True)
class BenchRecord:
    experiment: str
    m: int
    n: int
    payoff_bound: int
    seed: int
    equilibria: int
    millis: float

    def __post_init__(self):
        if not self.experiment:
            raise ValueError("experiment name must not be empty")
        if self.millis < 0:
            raise ValueError("millis must be >= 0")


def write_bench_csv(records: list[BenchRecord]) -> bytes:
    """Header plus one row per record, in input order, RFC-4180 quoting."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(BENCH_COLUMNS)
    for r in records:
        writer.writerow([r.experiment, r.m, r.n, r.payoff_bound, r.seed, r.equilibria, f"{r.millis:.3f}"])
    return buf.getvalue().encode("utf-8")
