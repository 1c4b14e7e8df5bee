"""Seeded generators and independent reference implementations (oracles).

Everything here is deliberately written from the definitions, not by
calling into the package's own algorithms, so the tests compare two
independent routes to the same answer.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from operator import is_not

from galcheck.errors import SortError
from galcheck.extensive import ExtensiveGame, GameNode, decision, terminal
from galcheck.logic import (
    AF,
    AG,
    AU,
    AX,
    EF,
    EG,
    EU,
    EX,
    And,
    App,
    Bottom,
    DomainConst,
    Eq,
    Exists,
    Forall,
    FuncDecl,
    Implies,
    Not,
    Or,
    PlayerAtom,
    Pred,
    PredDecl,
    Signature,
    Top,
    Var,
    post_order,
    rebuild,
)
from galcheck.structure import GalStructure, table_provider

# --------------------------------------------------------------------------- #
# Structure files


def wide_function_doc(labels: list[str], n: int, key: str) -> dict:
    """A one-state structure file whose rigid function `f` takes n
    arguments of sort S (domain `labels`), with the single entry `key`."""
    return {
        "sorts": {"S": labels},
        "players": [],
        "functions": {"f": {"args": ["S"] * n, "result": "S", "rigid": True}},
        "predicates": {},
        "states": [{"id": "e0", "players": []}],
        "rigid": {"funcs": {"f": {key: labels[0]}}, "preds": {}},
        "actions": [["e0", "e0"]],
        "initial": ["e0"],
    }


def split_argskey_oracle(key: str, domains: list[list[str]]) -> list[tuple[str, ...]]:
    """Every way to cut the comma-separated pieces of `key` into one group
    per domain such that each group, rejoined, is a label of its domain."""
    pieces = key.split(",")
    found = []
    for cuts in combinations(range(1, len(pieces)), len(domains) - 1):
        bounds = (0, *cuts, len(pieces))
        labels = tuple(",".join(pieces[a:b]) for a, b in zip(bounds, bounds[1:]))
        if all(label in domain for label, domain in zip(labels, domains)):
            found.append(labels)
    return found


# --------------------------------------------------------------------------- #
# Random structures


def random_structure(rng: random.Random, max_states: int = 20, widths: tuple[int, int] = (1, 4)) -> GalStructure:
    """A random validated structure over a small two-sort signature, each
    sort with between `widths` elements."""
    n_states = rng.randint(1, max_states)
    states = [f"e{k}" for k in range(n_states)]
    sorts = {}
    for name in ("s0", "s1")[: rng.randint(1, 2)]:
        sorts[name] = [f"{name}_{j}" for j in range(rng.randint(*widths))]
    sort_names = list(sorts)
    s0 = sort_names[0]

    functions = {
        "c": FuncDecl((), s0, rigid=False),
        "r": FuncDecl((), s0, rigid=True),
        "f": FuncDecl((s0,), s0, rigid=False),
    }
    predicates = {
        "p": PredDecl((s0,), rigid=False),
        "q": PredDecl((), rigid=False),
        "pr": PredDecl((s0,), rigid=True),
    }
    if len(sort_names) == 2:
        predicates["p2"] = PredDecl((s0, sort_names[1]), rigid=False)
    sig = Signature(set(sort_names), functions, predicates, ("1", "2"))

    # Random edges; density kept low so path enumeration stays cheap.
    actions = []
    for src in states:
        for dst in rng.sample(states, k=min(n_states, rng.randint(0, 2))):
            actions.append((src, dst))
    has_succ = {src for src, _ in actions}
    players_at = {}
    for e in states:
        if e in has_succ and rng.random() < 0.7:
            players_at[e] = rng.sample(["1", "2"], k=rng.randint(1, 2))
        else:
            players_at[e] = []
    initial = rng.sample(states, k=rng.randint(1, n_states))

    state_funcs = {}
    state_preds = {}
    for e in states:
        state_funcs[e] = {
            "c": {(): rng.choice(sorts[s0])},
            "f": {(x,): rng.choice(sorts[s0]) for x in sorts[s0]},
        }
        preds = {
            "p": {(x,) for x in sorts[s0] if rng.random() < 0.5},
            "q": {()} if rng.random() < 0.5 else set(),
        }
        if "p2" in predicates:
            preds["p2"] = {
                (x, y)
                for x in sorts[s0]
                for y in sorts[sort_names[1]]
                if rng.random() < 0.4
            }
        state_preds[e] = preds
    rigid_funcs = {"r": {(): rng.choice(sorts[s0])}}
    rigid_preds = {"pr": {(x,) for x in sorts[s0] if rng.random() < 0.5}}

    fun_eval, pred_eval = table_provider(state_funcs, state_preds, rigid_funcs, rigid_preds)
    return GalStructure(
        sig=sig,
        states=states,
        initial=initial,
        actions=actions,
        domains=sorts,
        players_at=players_at,
        fun_eval=fun_eval,
        pred_eval=pred_eval,
    )


# --------------------------------------------------------------------------- #
# Random formulas


def random_term(rng: random.Random, g: GalStructure, sort: str, scope: list[Var], depth: int):
    in_scope = [v for v in scope if v.sort == sort]
    s0 = g.sig.functions["c"].result  # c, r, f all live on the first sort
    choices = ["lit"]
    if sort == s0:
        choices.append("const")
        if depth > 0:
            choices.append("app")
    if in_scope:
        choices += ["var"] * 2
    kind = rng.choice(choices)
    if kind == "var":
        return rng.choice(in_scope)
    if kind == "app":
        return App("f", (random_term(rng, g, s0, scope, depth - 1),))
    if kind == "const":
        return App(rng.choice(["c", "r"]))
    return DomainConst(sort, rng.randrange(len(g.domains[sort])))


def random_formula(rng: random.Random, g: GalStructure, depth: int, scope: list[Var] | None = None):
    """A random well-sorted formula over the structure's signature."""
    scope = scope or []
    atoms = ["top", "bottom", "player", "pred", "eq"]
    if depth <= 0:
        kind = rng.choice(atoms)
    else:
        kind = rng.choice(
            atoms
            + ["not", "and", "or", "implies", "ex", "ax", "ef", "af", "eg", "ag", "eu", "au"]
            + ["exists", "forall"] * 2
        )
    s0 = next(iter(sorted(g.domains)))
    if kind == "top":
        return Top()
    if kind == "bottom":
        return Bottom()
    if kind == "player":
        return PlayerAtom(rng.choice(["1", "2"]))
    if kind == "pred":
        name = rng.choice([p for p in g.sig.predicates])
        decl = g.sig.predicates[name]
        return Pred(name, tuple(random_term(rng, g, s, scope, 1) for s in decl.args))
    if kind == "eq":
        return Eq(random_term(rng, g, s0, scope, 1), random_term(rng, g, s0, scope, 1))
    if kind == "not":
        return Not(random_formula(rng, g, depth - 1, scope))
    if kind in ("and", "or", "implies", "eu", "au"):
        cls = {"and": And, "or": Or, "implies": Implies, "eu": EU, "au": AU}[kind]
        return cls(random_formula(rng, g, depth - 1, scope), random_formula(rng, g, depth - 1, scope))
    if kind in ("ex", "ax", "ef", "af", "eg", "ag"):
        cls = {"ex": EX, "ax": AX, "ef": EF, "af": AF, "eg": EG, "ag": AG}[kind]
        return cls(random_formula(rng, g, depth - 1, scope))
    sort = rng.choice(sorted(g.domains))
    var = Var(f"x{len(scope)}", sort)
    body = random_formula(rng, g, depth - 1, scope + [var])
    return Exists(var, body) if kind == "exists" else Forall(var, body)


# --------------------------------------------------------------------------- #
# Ground instances (over `logic.post_order` and `rebuild`) and maximal paths


def substitute(f, x: Var, d):
    """Replace free occurrences of `x` by the ground literal for `d`,
    without recursion; an unchanged node is returned as it is.

    The result is canonical: structurally equal substitution results compare
    equal, which makes them usable as labeling keys.
    """
    if d.sort != x.sort:
        raise SortError(f"cannot substitute {d.sort} element for variable of sort {x.sort}")
    c = DomainConst(d.sort, d.index)
    done = {}  # id of a node -> its substitution
    for y, ops in post_order(f):
        new = [done[id(z)] for z in ops]
        if isinstance(y, Var) and y == x:
            done[id(y)] = c
        elif isinstance(y, (Exists, Forall)) and y.var == x or not any(map(is_not, new, ops)):
            done[id(y)] = y
        else:
            done[id(y)] = rebuild(y, new)
    return done[id(f)]


@dataclass(frozen=True)
class Path:
    """A maximal run: `states` is the visited prefix; a finite path has
    cycle_start None, a lasso repeats states[cycle_start:] forever."""

    states: tuple[str, ...]
    cycle_start: int | None = None


def path_violations(g: GalStructure, p: Path) -> list[str]:
    out = []
    if not p.states:
        return ["path has no states"]
    actions = set(g.actions)
    for a, b in zip(p.states, p.states[1:]):
        if (a, b) not in actions:
            out.append(f"({a!r}, {b!r}) is not an action")
    if p.cycle_start is None:
        if not g.is_deadlock(p.states[-1]):
            out.append(f"finite path ends at {p.states[-1]!r}, which has a successor")
    else:
        if not 0 <= p.cycle_start < len(p.states):
            out.append("cycle start out of range")
        elif (p.states[-1], p.states[p.cycle_start]) not in actions:
            out.append("lasso is not closed under the action relation")
    return out


def maximal_paths(g: GalStructure, start: str, limit: int = 10000):
    """Yield every maximal path from `start`, folding each cycle at its
    first revisit.  Intended for small structures; stops after `limit`."""
    count = 0

    def walk(trail: list[str], on_trail: dict[str, int]):
        nonlocal count
        if count >= limit:
            raise RuntimeError(f"more than {limit} maximal paths")
        here = trail[-1]
        succ = g.successors(here)
        if not succ:
            count += 1
            yield Path(tuple(trail), None)
            return
        for nxt in succ:
            if nxt in on_trail:
                count += 1
                yield Path(tuple(trail), on_trail[nxt])
            else:
                trail.append(nxt)
                on_trail[nxt] = len(trail) - 1
                yield from walk(trail, on_trail)
                del on_trail[nxt]
                trail.pop()

    yield from walk([start], {start: 0})


# --------------------------------------------------------------------------- #
# Path-semantics oracles (independent of the fixpoint checker)


def oracle_eu(g: GalStructure, alpha: set[str], beta: set[str], start: str) -> bool:
    """Does some maximal path from `start` reach beta through alpha?

    Follows the path definition directly: search for a witness prefix; a
    prefix revisiting a state cannot be part of a minimal witness.
    """

    def walk(here: str, on_walk: set[str]) -> bool:
        if here in beta:
            return True
        if here not in alpha:
            return False
        for nxt in g.successors(here):
            if nxt not in on_walk and walk(nxt, on_walk | {nxt}):
                return True
        return False

    return walk(start, {start})


def oracle_au(g: GalStructure, alpha: set[str], beta: set[str], start: str) -> bool:
    """Does every maximal path from `start` reach beta through alpha?

    Searches for a bad path instead: one that leaves alpha before beta,
    ends at a deadlock without beta, or loops (a lasso) without beta.
    """

    def bad(here: str, on_walk: set[str]) -> bool:
        if here in beta:
            return False
        if here not in alpha:
            return True
        succ = g.successors(here)
        if not succ:
            return True  # finite maximal path that never meets beta
        for nxt in succ:
            if nxt in on_walk:
                return True  # lasso cycling without beta
            if bad(nxt, on_walk | {nxt}):
                return True
        return False

    return not bad(start, {start})


def oracle_ax(g: GalStructure, alpha: set[str], start: str) -> bool:
    return all(s in alpha for s in g.successors(start))


# --------------------------------------------------------------------------- #
# Shared semantic suites (used by both the unit tests and the acceptance run)


def abbreviation_pairs(a, b, x: Var):
    return [
        (Bottom(), Not(Top())),
        (And(a, b), Not(Implies(a, Not(b)))),
        (Or(a, b), Implies(Not(a), b)),
        (EX(a), Not(AX(Not(a)))),
        (AF(a), AU(Top(), a)),
        (EF(a), EU(Top(), a)),
        (AG(a), Not(EU(Top(), Not(a)))),
        (EG(a), Not(AU(Top(), Not(a)))),
        (Forall(x, a), Not(Exists(x, Not(a)))),
    ]


def labellers():
    """Both labellers, each as `sat(g, f)`, the satisfying states of a
    closed formula: `check` and `check_all` with one valuation."""
    from galcheck.checker import check, check_all

    return (
        lambda g, f: check(g, f).states,
        lambda g, f: check_all(g, f, [{}])[0].states,
    )


def run_identity_suite(structures, formulas_per_structure, rng):
    """Abbreviation identities, dualities, and quantifier extensionality as
    satisfaction-set equalities, on random formula instantiations, for
    each labeller."""
    for g in structures:
        for _ in range(formulas_per_structure):
            a = random_formula(rng, g, depth=2)
            b = random_formula(rng, g, depth=2)
            sort = rng.choice(sorted(g.domains))
            x = Var("qx", sort)
            a_open = Or(a, Pred("pr", (x,))) if sort == g.sig.functions["c"].result else a
            for sat in labellers():
                for lhs, rhs in abbreviation_pairs(a, b, x):
                    assert sat(g, lhs) == sat(g, rhs), f"{lhs} vs {rhs}"
                universe = set(g.states)
                assert sat(g, EX(a)) == universe - sat(g, AX(Not(a)))
                assert sat(g, EG(a)) == universe - sat(g, AU(Top(), Not(a)))
                assert sat(g, AG(a)) == universe - sat(g, EU(Top(), Not(a)))
                exists_f = Exists(x, a_open)
                forall_f = Forall(x, a_open)
                union = set()
                inter = universe
                for d in g.domains[sort]:
                    inst = sat(g, substitute(a_open, x, d))
                    union |= inst
                    inter &= inst
                assert sat(g, exists_f) == union
                assert sat(g, forall_f) == inter


def run_path_oracle_suite(structures, formulas_per_structure, rng):
    """Fixpoint EU/AU/AX satisfaction sets versus direct enumeration of all
    maximal paths with lasso folding, for each labeller."""
    for g in structures:
        for _ in range(formulas_per_structure):
            a = random_formula(rng, g, depth=1)
            b = random_formula(rng, g, depth=1)
            for sat in labellers():
                alpha, beta = sat(g, a), sat(g, b)
                got_eu = sat(g, EU(a, b))
                got_au = sat(g, AU(a, b))
                got_ax = sat(g, AX(a))
                for e in g.states:
                    assert (e in got_eu) == oracle_eu(g, alpha, beta, e)
                    assert (e in got_au) == oracle_au(g, alpha, beta, e)
                    assert (e in got_ax) == oracle_ax(g, alpha, e)


# --------------------------------------------------------------------------- #
# A naive reference evaluator: the satisfaction relation written directly,
# with temporal operators evaluated by enumerating maximal paths.  Folding a
# path at its first revisit is lossless for until/globally questions: a
# minimal until witness never repeats a state, and a bad path stays bad
# after folding because its cycle states already occurred in the prefix.


def naive_holds(g, e: str, f, env) -> bool:
    """Does `f` hold at state `e` under `env`?  Terms are evaluated here on
    element labels through the structure's raw callbacks, and paths come
    from `maximal_paths` above; nothing of the checker is used."""

    def value(t) -> str:  # the label of a term's element at e
        if isinstance(t, Var):
            return env[t].label
        if isinstance(t, DomainConst):
            return g.domains[t.sort][t.index].label
        return g.interp.fun_eval(t.func, e, tuple(value(a) for a in t.args))

    def walks(start):
        return [p.states for p in maximal_paths(g, start, limit=20000)]

    def until_on_walk(walk, alpha, beta) -> bool:
        for k, state in enumerate(walk):
            if naive_holds(g, state, beta, env):
                return all(naive_holds(g, walk[j], alpha, env) for j in range(k))
        return False

    if isinstance(f, Top):
        return True
    if isinstance(f, Bottom):
        return False
    if isinstance(f, PlayerAtom):
        return f.player in g.players_at.get(e, frozenset())
    if isinstance(f, Pred):
        return bool(g.interp.pred_eval(f.name, e, tuple(value(t) for t in f.args)))
    if isinstance(f, Eq):
        return value(f.left) == value(f.right)
    if isinstance(f, Not):
        return not naive_holds(g, e, f.body, env)
    if isinstance(f, And):
        return naive_holds(g, e, f.left, env) and naive_holds(g, e, f.right, env)
    if isinstance(f, Or):
        return naive_holds(g, e, f.left, env) or naive_holds(g, e, f.right, env)
    if isinstance(f, Implies):
        return (not naive_holds(g, e, f.left, env)) or naive_holds(g, e, f.right, env)
    if isinstance(f, EX):
        return any(naive_holds(g, s, f.body, env) for s in g.successors(e))
    if isinstance(f, AX):
        return all(naive_holds(g, s, f.body, env) for s in g.successors(e))
    if isinstance(f, EU):
        return any(until_on_walk(w, f.left, f.right) for w in walks(e))
    if isinstance(f, AU):
        return all(until_on_walk(w, f.left, f.right) for w in walks(e))
    if isinstance(f, EF):
        return naive_holds(g, e, EU(Top(), f.body), env)
    if isinstance(f, AF):
        return naive_holds(g, e, AU(Top(), f.body), env)
    if isinstance(f, EG):
        return any(
            all(naive_holds(g, s, f.body, env) for s in w) for w in walks(e)
        )
    if isinstance(f, AG):
        return all(
            all(naive_holds(g, s, f.body, env) for s in w) for w in walks(e)
        )
    if isinstance(f, (Exists, Forall)):
        results = []
        for d in g.domains[f.var.sort]:
            inner = dict(env)
            inner[f.var] = d
            results.append(naive_holds(g, e, f.body, inner))
        return any(results) if isinstance(f, Exists) else all(results)
    raise TypeError(f"not a formula: {f!r}")


# --------------------------------------------------------------------------- #
# Random extensive games


def random_game(
    rng: random.Random,
    max_players: int = 3,
    max_depth: int = 3,
    max_branching: int = 3,
    payoff_bound: int = 5,
    max_profiles: int = 324,
) -> ExtensiveGame:
    """A random finite game within the given shape bounds.

    Games whose profile count exceeds `max_profiles` are resampled so that
    exhaustive profile audits stay fast.
    """
    players = tuple(str(i + 1) for i in range(rng.randint(2, max_players)))

    while True:
        profile_cells = [1]

        def node(depth: int) -> GameNode:
            if depth == 0 or (depth < max_depth and rng.random() < 0.35):
                return terminal({p: Fraction(rng.randrange(payoff_bound)) for p in players})
            width = rng.randint(1, max_branching)
            profile_cells[0] *= width
            moves = {"abc"[k]: node(depth - 1) for k in range(width)}
            return decision(rng.choice(players), moves)

        root = node(rng.randint(1, max_depth))
        if root.is_terminal:
            continue
        if profile_cells[0] <= max_profiles:
            return ExtensiveGame(players, root)


# --------------------------------------------------------------------------- #
# Independent tic-tac-toe references


def ttt_winner(cells: str) -> str | None:
    lines = [(0, 1, 2), (3, 4, 5), (6, 7, 8), (0, 3, 6), (1, 4, 7), (2, 5, 8), (0, 4, 8), (2, 4, 6)]
    for a, b, c in lines:
        if cells[a] != "." and cells[a] == cells[b] == cells[c]:
            return cells[a]
    return None


def ttt_reachable_positions() -> set[str]:
    """Every position reachable from the empty board when play stops at a
    win or a full board; written independently of the generator."""
    seen = set()
    stack = ["........."]
    while stack:
        cells = stack.pop()
        if cells in seen:
            continue
        seen.add(cells)
        if ttt_winner(cells) is not None or "." not in cells:
            continue
        mover = "X" if cells.count("X") == cells.count("O") else "O"
        for i, c in enumerate(cells):
            if c == ".":
                stack.append(cells[:i] + mover + cells[i + 1 :])
    return seen


_negamax_cache: dict[tuple[str, str], int] = {}


def negamax_value(cells: str, player: str) -> int:
    """Exact game value in {-1, 0, 1} for `player`, by plain negamax."""
    key = (cells, player)
    if key in _negamax_cache:
        return _negamax_cache[key]
    w = ttt_winner(cells)
    if w is not None:
        value = 1 if w == player else -1
    elif "." not in cells:
        value = 0
    else:
        mover = "X" if cells.count("X") == cells.count("O") else "O"
        values = [
            negamax_value(cells[:i] + mover + cells[i + 1 :], player)
            for i, c in enumerate(cells)
            if c == "."
        ]
        value = max(values) if mover == player else min(values)
    _negamax_cache[key] = value
    return value


# --------------------------------------------------------------------------- #
# Independent pure-equilibrium oracle


def oracle_pure_ne(u1, u2) -> list[tuple[int, int]]:
    """Deviation-by-deviation check of every cell."""
    m, n = len(u1), len(u1[0])
    out = []
    for r in range(m):
        for c in range(n):
            ok = True
            for r2 in range(m):
                if u1[r2][c] > u1[r][c]:
                    ok = False
            for c2 in range(n):
                if u2[r][c2] > u2[r][c]:
                    ok = False
            if ok:
                out.append((r, c))
    return out
