"""Readers and writers for the on-disk formats.

All loaders are strict: unknown fields, bad shapes, and dangling references
are rejected with a JSON-pointer-style path, never repaired.  A structure's
argument keys are cut at their commas once, and each argument is looked up
among its sort's labels, in one index per sort built once per file; a key
with more than _MAX_SPLITS (100) partial splits after one argument is
rejected, so every key is read in linear time.  Serialization is
canonical (sorted keys; set-like lists sorted; domain enumerations kept in
declared order because element indices are meaningful), so dumping a
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

from .errors import SchemaError, SortError
from .extensive import ExtensiveGame, GameNode, decision, terminal
from .gamegen import Bimatrix
from .logic import FuncDecl, PredDecl, Signature
from .structure import GalStructure, table_provider

_STRUCTURE_KEYS = {"sorts", "players", "functions", "predicates", "states", "rigid", "actions", "initial"}
_STATE_KEYS = {"id", "players", "funcs", "preds"}
_MAX_SPLITS = 100  # the most partial splits an argument key may leave after one argument


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
    for key in sorted(required):
        if key not in obj:
            raise SchemaError(f"missing field {key!r}", path)


def _loads(data: bytes | str) -> Any:
    try:
        return json.loads(data.decode("utf-8") if isinstance(data, bytes) else data)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc.msg} (line {exc.lineno}, column {exc.colno})") from exc
    except UnicodeDecodeError as exc:
        raise SchemaError(f"not UTF-8: {exc.reason} at byte {exc.start}") from None
    except ValueError:  # an integer with more digits than Python converts
        raise SchemaError("invalid JSON: an integer has too many digits") from None
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
    index: dict[str, tuple[set[str], list[int]]] = {}  # per sort: its labels, and their piece counts
    for sort, elems in sorts_obj.items():
        labels = [_as_str(x, f"/sorts/{sort}") for x in _as_list(elems, f"/sorts/{sort}")]
        index[sort] = set(labels), sorted({x.count(",") + 1 for x in labels})
        if len(index[sort][0]) != len(labels):
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
    except SortError as exc:
        raise SchemaError(str(exc)) from exc

    players_at: dict[str, list[str]] = {}  # each state, in file order, to its players
    state_funcs: dict[str, dict[str, dict[tuple[str, ...], str]]] = {}
    state_preds: dict[str, dict[str, set[tuple[str, ...]]]] = {}
    for k, st in enumerate(_as_list(doc["states"], "/states")):
        path = f"/states/{k}"
        st = _as_obj(st, path)
        _check_keys(st, _STATE_KEYS, {"id"}, path)
        sid = _as_str(st["id"], f"{path}/id")
        if sid in players_at:
            raise SchemaError(f"duplicate state id {sid!r}", f"{path}/id")
        ps = [_as_str(p, f"{path}/players") for p in _as_list(st.get("players", []), f"{path}/players")]
        for p in ps:
            if p not in players:
                raise SchemaError(f"undeclared player {p!r}", f"{path}/players")
        players_at[sid] = ps
        state_funcs[sid], state_preds[sid] = _tables(st, sig, index, False, path)

    rigid_funcs, rigid_preds = _tables(rigid_obj, sig, index, True, "/rigid")

    actions: list[tuple[str, str]] = []
    for k, pair in enumerate(_as_list(doc["actions"], "/actions")):
        pair = _as_list(pair, f"/actions/{k}")
        if len(pair) != 2:
            raise SchemaError("expected a [source, target] pair", f"/actions/{k}")
        src, dst = (_as_str(x, f"/actions/{k}") for x in pair)
        if src not in players_at or dst not in players_at:
            raise SchemaError(f"action [{src!r}, {dst!r}] mentions an undeclared state", f"/actions/{k}")
        actions.append((src, dst))

    initial = []
    for k, sid in enumerate(_as_list(doc["initial"], "/initial")):
        sid = _as_str(sid, f"/initial/{k}")
        if sid not in players_at:
            raise SchemaError(f"initial state {sid!r} is not declared", f"/initial/{k}")
        initial.append(sid)

    fun_eval, pred_eval = table_provider(state_funcs, state_preds, rigid_funcs, rigid_preds)
    return GalStructure(
        sig=sig,
        states=list(players_at),
        initial=initial,
        actions=actions,
        domains=domains,
        players_at=players_at,
        fun_eval=fun_eval,
        pred_eval=pred_eval,
    )


def _tables(obj: dict, sig: Signature, index: Mapping, rigid: bool, path: str) -> tuple:
    """The "funcs" and "preds" sections of a state entry or, if `rigid`, of
    the rigid section, each symbol checked and then read by its kind's reader."""
    funcs: dict[str, dict[tuple[str, ...], str]] = {}
    preds: dict[str, set[tuple[str, ...]]] = {}
    for tables, section, kind, decls, read in (
        (funcs, "funcs", "function", sig.functions, _func_entries),
        (preds, "preds", "predicate", sig.predicates, _pred_rows),
    ):
        at = f"{path}/{section}"
        for name, table in _as_obj(obj.get(section, {}), at).items():
            decl = decls.get(name)
            if decl is None:
                raise SchemaError(f"table for undeclared {kind} {name!r}", at)
            if decl.rigid != rigid:
                where = "rigid section" if decl.rigid else "state entries"
                raise SchemaError(f"{kind} {name!r} must be interpreted in the {where}", at)
            tables[name] = read(table, decl, index, f"{at}/{name}")
    return funcs, preds


def _func_entries(table: Any, decl: FuncDecl, index: Mapping, path: str) -> dict:
    entries: dict[tuple[str, ...], str] = {}
    # no label of the argument sorts holds a comma: each key has one way to cut
    commaless = all([index[sort][1] == [1] for sort in decl.args])
    for key, value in _as_obj(table, path).items():
        args = _split_argskey(key, decl.args, index, path, commaless)
        value = _as_str(value, path)
        if value not in index[decl.result][0]:
            raise SchemaError(f"value {value!r} is not an element of sort {decl.result!r}", path)
        entries[args] = value
    return entries


def _pred_rows(rows: Any, decl: PredDecl, index: Mapping, path: str) -> set:
    relation: set[tuple[str, ...]] = set()
    labels_of = [index[sort][0] for sort in decl.args]
    for k, row in enumerate(_as_list(rows, path)):
        try:  # a row of its sorts' labels is taken at once
            if isinstance(row, list) and len(row) == len(labels_of) and all(map(set.__contains__, labels_of, row)):
                relation.add(tuple(row))
                continue
        except TypeError:  # an unhashable entry: the checks below name it
            pass
        row = _as_list(row, f"{path}/{k}")
        if len(row) != len(decl.args):
            raise SchemaError(f"expected {len(decl.args)} arguments", f"{path}/{k}")
        labels = tuple(_as_str(x, f"{path}/{k}") for x in row)
        for lab, sort in zip(labels, decl.args):
            if lab not in index[sort][0]:
                raise SchemaError(f"{lab!r} is not an element of sort {sort!r}", f"{path}/{k}")
        relation.add(labels)
    return relation


def _split_argskey(
    key: str, arg_sorts: tuple[str, ...], index: Mapping, path: str, commaless: bool
) -> tuple[str, ...]:
    """Split a comma-joined argument key into element labels.

    The key is cut at its commas once.  Where no label of the argument
    sorts holds a comma (`commaless`), piece i is argument i, looked up
    in its sort's labels.  Otherwise argument i takes as many pieces as
    one of its sort's labels has, looked up among that sort's labels.
    The parse runs left to right without recursion: after each argument,
    every piece offset reached, with its number of parses (capped at 2) and
    the labels it was first reached by, kept only while the pieces left fit
    the remaining arguments.  A key that parses no way or several ways, or
    has more than _MAX_SPLITS offsets after one argument, is rejected, so
    every key is read in time linear in its length.
    """
    if not arg_sorts and key:
        raise SchemaError(f"0-ary entry must use key \"\", got {key!r}", path)
    pieces = key.split(",") if key else []  # the key "" joins no labels
    n = len(arg_sorts)
    if commaless:  # one way to cut
        if len(pieces) == n and all([piece in index[sort][0] for piece, sort in zip(pieces, arg_sorts)]):
            return tuple(pieces)
        raise SchemaError(f"argument key {key!r} does not match the declared sorts", path)
    fewest, most = [0] * (n + 1), [0] * (n + 1)  # the pieces that arguments i.. can take
    for i in reversed(range(n)):
        counts = index[arg_sorts[i]][1] or [0]
        fewest[i], most[i] = fewest[i + 1] + counts[0], most[i + 1] + counts[-1]
    reached: dict[int, list] = {0: [1, ()]}  # piece offset -> [parses, labels as (last, (previous, ...))]
    for i, sort in enumerate(arg_sorts):
        known, counts = index[sort]
        before, reached = reached, {}
        for pos, (count, chain) in before.items():
            for c in counts:
                end = pos + c
                if fewest[i + 1] <= len(pieces) - end <= most[i + 1]:
                    label = ",".join(pieces[pos:end])
                    if label in known:
                        entry = reached.setdefault(end, [0, (label, chain)])
                        entry[0] = min(2, entry[0] + count)
        if len(reached) > _MAX_SPLITS:
            raise SchemaError(f"argument key {key!r} has more than {_MAX_SPLITS} partial splits", path)
    count, chain = reached.get(len(pieces), (0, ()))
    if not count:
        raise SchemaError(f"argument key {key!r} does not match the declared sorts", path)
    if count > 1:
        raise SchemaError(f"argument key {key!r} is ambiguous", path)
    labels = []
    while chain:
        label, chain = chain
        labels.append(label)
    return tuple(reversed(labels))


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
            moves[action] = node(child, f"{path}/moves/{action}")
        return decision(player, moves)

    return ExtensiveGame(tuple(players), node(doc["root"], "/root"))


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


# --------------------------------------------------------------------------- #
# Bimatrix games


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
