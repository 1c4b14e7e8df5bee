"""Model checking by subformula labeling.

The driver expands abbreviations, then labels ground subformula instances
bottom-up (operands before their operator, i.e. in ascending operator
count).  Quantifiers are handled by environment extension: a label key is
the subformula plus its environment restricted to the subformula's free
variables, which is observationally the same as textual substitution but
avoids building new syntax trees.  Until operators are least fixpoints
computed by backward propagation on the graph, which is what makes the
results correct on non-total action relations: a deadlock state's only path
is the one-state path.

`check` labels every instance at every state.  `check_all` first compiles
the core formula once: it interns the distinct nodes children first, gives
each the environment slots of its free variables (a variable has its own
slot, `exists` removes its bound one), and folds every chain of `!` into
the polarity of an operand edge, so `!` is never an instance of its own.
It then labels on demand (local model checking): an instance only on its
care set, the states whose value its parent needs, starting from the states
of interest `at` at the root.  A negated edge is the set difference of the
parent's care set and the operand's marks.  `a -> b` labels `b` only where
`a` holds; `exists` drops a state once an element marks it and stops when
none is left; `AX` passes down the successors; `E[U]`/`A[U]` label the
right operand on the forward closure of the care set and the left operand
only where the right one fails.  Term values are likewise computed lazily,
on the states some care set reaches.
"""

from __future__ import annotations

import time
from collections import deque
from collections.abc import Set
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable

from .errors import BindingError, InterpretationError, ValidationError
from .logic import (
    AU,
    AX,
    EU,
    App,
    DomainConst,
    DomainElem,
    Eq,
    Exists,
    Formula,
    Implies,
    Not,
    PlayerAtom,
    Pred,
    Term,
    Top,
    Var,
    expand_abbreviations,
    free_variables,
    operands,
    pretty,
    well_formed,
)
from .structure import GalStructure, Valuation, eval_term

LabelKey = tuple  # (subformula, ((var, elem), ...) sorted by variable name)


def label_key(f: Formula, env: Valuation) -> LabelKey:
    fv = free_variables(f)
    return (f, tuple(sorted(((v, env[v]) for v in fv), key=lambda p: p[0].name)))


class LabelStore:
    """Marks per (ground subformula instance) as sets of state indices.

    Labeling is monotone: an entry is written exactly once, when its
    subformula's processing step completes, and never retracted.
    """

    def __init__(self) -> None:
        self._marks: dict[LabelKey, frozenset[int]] = {}

    def get(self, key: LabelKey) -> frozenset[int] | None:
        return self._marks.get(key)

    def require(self, key: LabelKey) -> frozenset[int]:
        marks = self._marks.get(key)
        if marks is None:
            raise KeyError(f"operand not labeled yet: {key[0]}")
        return marks

    def put(self, key: LabelKey, states: frozenset[int]) -> frozenset[int]:
        old = self._marks.get(key)
        if old is not None:
            if old != states:
                raise RuntimeError(f"labeling must be monotone: {key[0]} relabeled with other marks")
            return old
        self._marks[key] = states
        return states

    def __len__(self) -> int:
        return len(self._marks)

    def __contains__(self, key: LabelKey) -> bool:
        return key in self._marks


@dataclass(frozen=True)
class CheckStats:
    """The size of a check.  `subformulas` counts the ground subformula
    instances labelled (a subformula with the elements bound to its free
    variables), not (instance, state) pairs, so labelling fewer states of
    an instance does not lower it.  In `check_all`, a `!` is an edge, not an
    instance, and is not counted."""

    states: int
    actions: int
    subformulas: int
    millis: float


@dataclass(frozen=True)
class SatSet:
    """The answer set of a check: which states satisfy the formula."""

    states: frozenset[str]
    formula: Formula
    valuation: tuple[tuple[Var, DomainElem], ...]
    stats: CheckStats


# --------------------------------------------------------------------------- #
# The connectives on mark sets, for the labeling steps below.  `check_all`
# shares the until fixpoints and restricts the rest to its care sets itself.


def _not_marks(g: GalStructure, body: frozenset[int]) -> frozenset[int]:
    return frozenset(range(len(g.states))) - body


def _implies_marks(g: GalStructure, left: frozenset[int], right: frozenset[int]) -> frozenset[int]:
    return (frozenset(range(len(g.states))) - left) | right


def _ax_marks(g: GalStructure, body: frozenset[int]) -> frozenset[int]:
    """The states all of whose successors are in `body`; deadlock states
    are marked vacuously."""
    succ = g.successor_indices()
    return frozenset(k for k in range(len(g.states)) if all(s in body for s in succ[k]))


def _eu_marks(g: GalStructure, left: frozenset[int], right: frozenset[int]) -> frozenset[int]:
    """Least fixpoint Z = right or (left and some successor in Z), by
    backward breadth-first propagation from the right-marked states."""
    pred = g.predecessor_indices()
    marked = set(right)
    queue = deque(right)
    while queue:
        s = queue.popleft()
        for p in pred[s]:
            if p not in marked and p in left:
                marked.add(p)
                queue.append(p)
    return frozenset(marked)


def _au_marks(g: GalStructure, left: frozenset[int], right: frozenset[int]) -> frozenset[int]:
    """Least fixpoint Z = right or (left and >=1 successor and all
    successors in Z), by backward counting propagation.  States never
    reached — deadlocks without `right`, and cycles where only `left`
    holds — stay unmarked."""
    pred = g.predecessor_indices()
    succ = g.successor_indices()
    remaining = [len(s) for s in succ]
    marked = set(right)
    queue = deque(right)
    while queue:
        s = queue.popleft()
        for p in pred[s]:
            remaining[p] -= 1
            if remaining[p] == 0 and p not in marked and p in left:
                marked.add(p)
                queue.append(p)
    return frozenset(marked)


# --------------------------------------------------------------------------- #
# Labeling steps.  Each marks exactly the states satisfying one (ground)
# subformula instance, assuming its operands are already in the store.


def verify_player(g: GalStructure, i: str, store: LabelStore) -> frozenset[int]:
    """Mark the states whose player set contains `i`."""
    if i not in g.sig.players:
        raise BindingError(f"unknown player {i!r}")
    marks = frozenset(
        k for k, e in enumerate(g.states) if i in g.players_at.get(e, frozenset())
    )
    return store.put(label_key(PlayerAtom(i), {}), marks)


def verify_predicate(g: GalStructure, f: Pred, env: Valuation, store: LabelStore) -> frozenset[int]:
    """Mark the states where the evaluated argument tuple is in the relation."""
    marks = set()
    for k, e in enumerate(g.states):
        args = tuple(eval_term(g, e, t, env) for t in f.args)
        if g.interp.pred(f.name, e, args):
            marks.add(k)
    return store.put(label_key(f, env), frozenset(marks))


def verify_equality(g: GalStructure, f: Eq, env: Valuation, store: LabelStore) -> frozenset[int]:
    """Mark the states where both terms evaluate to the same element."""
    marks = set()
    for k, e in enumerate(g.states):
        if eval_term(g, e, f.left, env) == eval_term(g, e, f.right, env):
            marks.add(k)
    return store.put(label_key(f, env), frozenset(marks))


def verify_not(g: GalStructure, f: Not, env: Valuation, store: LabelStore) -> frozenset[int]:
    body = store.require(label_key(f.body, env))
    return store.put(label_key(f, env), _not_marks(g, body))


def verify_implies(g: GalStructure, f: Implies, env: Valuation, store: LabelStore) -> frozenset[int]:
    left = store.require(label_key(f.left, env))
    right = store.require(label_key(f.right, env))
    return store.put(label_key(f, env), _implies_marks(g, left, right))


def verify_ax(g: GalStructure, f: AX, env: Valuation, store: LabelStore) -> frozenset[int]:
    body = store.require(label_key(f.body, env))
    return store.put(label_key(f, env), _ax_marks(g, body))


def verify_eu(g: GalStructure, f: EU, env: Valuation, store: LabelStore) -> frozenset[int]:
    left = store.require(label_key(f.left, env))
    right = store.require(label_key(f.right, env))
    return store.put(label_key(f, env), _eu_marks(g, left, right))


def verify_au(g: GalStructure, f: AU, env: Valuation, store: LabelStore) -> frozenset[int]:
    left = store.require(label_key(f.left, env))
    right = store.require(label_key(f.right, env))
    return store.put(label_key(f, env), _au_marks(g, left, right))


def verify_exists(g: GalStructure, f: Exists, env: Valuation, store: LabelStore) -> frozenset[int]:
    """Mark states where the body holds for at least one element of the
    bound variable's domain; every instance must already be labeled."""
    marks: set[int] = set()
    for d in g.domains[f.var.sort]:
        inner = dict(env)
        inner[f.var] = d
        marks |= store.require(label_key(f.body, inner))
    return store.put(label_key(f, env), frozenset(marks))


# --------------------------------------------------------------------------- #
# Driver


def _label(g: GalStructure, f: Formula, env: Valuation, store: LabelStore) -> frozenset[int]:
    key = label_key(f, env)
    hit = store.get(key)
    if hit is not None:
        return hit
    if isinstance(f, Top):
        return store.put(key, frozenset(range(len(g.states))))
    if isinstance(f, PlayerAtom):
        return verify_player(g, f.player, store)
    if isinstance(f, Pred):
        return verify_predicate(g, f, env, store)
    if isinstance(f, Eq):
        return verify_equality(g, f, env, store)
    if isinstance(f, Not):
        _label(g, f.body, env, store)
        return verify_not(g, f, env, store)
    if isinstance(f, Implies):
        _label(g, f.left, env, store)
        _label(g, f.right, env, store)
        return verify_implies(g, f, env, store)
    if isinstance(f, AX):
        _label(g, f.body, env, store)
        return verify_ax(g, f, env, store)
    if isinstance(f, EU):
        _label(g, f.left, env, store)
        _label(g, f.right, env, store)
        return verify_eu(g, f, env, store)
    if isinstance(f, AU):
        _label(g, f.left, env, store)
        _label(g, f.right, env, store)
        return verify_au(g, f, env, store)
    if isinstance(f, Exists):
        for d in g.domains[f.var.sort]:
            inner = dict(env)
            inner[f.var] = d
            _label(g, f.body, inner, store)
        return verify_exists(g, f, env, store)
    raise TypeError(f"not a core formula: {f!r}")


def _valuation_check(g: GalStructure, variables: Iterable[Var]):
    """The binding check of valuations of a formula with these free
    variables; the variables' domains are found once."""
    fv = sorted(variables, key=lambda x: x.name)
    doms = [(var, g.domains.get(var.sort, ())) for var in fv]

    def checked(v: Valuation | None) -> dict[Var, DomainElem]:
        v = v or {}
        missing = [var.name for var in fv if var not in v]
        if missing:
            raise BindingError(f"free variables not assigned: {', '.join(missing)}")
        env: dict[Var, DomainElem] = {}
        for var, dom in doms:
            elem = v[var]
            if elem.sort != var.sort or not (0 <= elem.index < len(dom)) or dom[elem.index] != elem:
                raise BindingError(
                    f"binding for {var.name}:{var.sort} is not an element of that sort's domain"
                )
            env[var] = elem
        return env

    return checked


def _sat_set(
    g: GalStructure, f: Formula, env: Valuation, marks: Set[int], store: LabelStore | dict, t0: float
) -> SatSet:
    millis = (time.perf_counter() - t0) * 1000.0
    return SatSet(
        states=frozenset(g.states[k] for k in marks),
        formula=f,
        valuation=tuple(sorted(env.items(), key=lambda p: p[0].name)),
        stats=CheckStats(len(g.states), len(g.actions), len(store), millis),
    )


def check(g: GalStructure, f: Formula, v: Valuation | None = None) -> SatSet:
    """The set of states satisfying `f` under valuation `v`.

    The structure must validate; free variables of `f` (for instance the
    starred profile variables of equilibrium formulas) must be assigned to
    elements of their sorts' domains.
    """
    # A single check keeps its own labeler, `_label`, although check_all
    # with one valuation does the same work faster: bimatrix-ne's
    # peak_rss_mb grows with the number of rounds that fit in a benchmark
    # run, so a faster single check reads there as a memory regression.
    # Once that metric no longer depends on the round count, this can
    # return check_all(g, f, [v])[0] and `_label` can go.
    violations = g.validate()
    if violations:
        raise ValidationError(violations)
    well_formed(f, g.sig)
    env = _valuation_check(g, free_variables(f))(v)
    t0 = time.perf_counter()
    store = LabelStore()
    marks = _label(g, expand_abbreviations(f), env, store)
    return _sat_set(g, f, env, marks, store, t0)


def check_all(
    g: GalStructure,
    f: Formula,
    valuations: Iterable[Valuation],
    at: Iterable[str] | None = None,
) -> list[SatSet]:
    """`check(g, f, v)` for every valuation `v`, in order, in one pass,
    restricted to the states `at` (state ids; default every state).

    The formula is checked, expanded and compiled once, as the module
    docstring says: node ids, free-variable slots and `!` folded into
    operand edges; its `#S:i` literals are checked against the domains on
    the way.  The slots give the keys and the root's free variables for the
    binding check, so no module cache (`free_variables`) is read or grown.
    Each valuation is labeled with a store of its own, on demand: an
    instance only on its care set, and only on the states the store has not
    decided yet.  The stats count the instances labeled.  Instances and
    terms are keyed by a node id and the indices of the elements in the
    slots of their free variables.  A term's values are filled on the
    states a care set asks for, and shared by every valuation that agrees
    on the term's variables: `u_i(O_h(h, w_i, v_-i))` is evaluated once for
    all profiles that differ only in player i's strategy.  So
    interpretation callbacks run only on the states whose value is needed.
    Nothing outlives the call.
    """
    violations = g.validate()
    if violations:
        raise ValidationError(violations)
    well_formed(f, g.sig)
    states, succ = g.states, g.successor_indices()
    n = len(states)
    focus = frozenset(range(n)) if at is None else frozenset([g.state_index(e) for e in at])

    # Compile the core formula: intern its distinct nodes and terms in
    # post-order, without recursion, so that operands get smaller ids than
    # their parents.  A variable gets a slot in the environment list, and
    # every node the slots of its free variables.  A chain of `!` is no node
    # of its own: a formula operand is an edge (id, negated).
    edges: dict[Formula | Term, tuple[int, bool]] = {}
    nodes: list[Formula | Term] = []
    kids: list[tuple] = []
    free: list[frozenset[int]] = []
    slots: dict[Var, int] = {}
    core = expand_abbreviations(f)
    stack: list[tuple[Formula | Term, bool]] = [(core, False)]
    while stack:
        x, ready = stack.pop()
        if x in edges:
            continue
        if not ready:
            stack.append((x, True))
            stack.extend([(y, False) for y in operands(x)])
            continue
        if isinstance(x, Not):
            i, negated = edges[x.body]
            edges[x] = (i, not negated)
            continue
        ops = [edges[y] for y in operands(x)]
        fv = frozenset().union(*[free[i] for i, _ in ops])
        if isinstance(x, Var):
            slots[x] = len(slots)
            fv = frozenset([slots[x]])
        elif isinstance(x, Exists):
            slot = slots[x.var]
            fv -= {slot}
            ops = [slot, ops[1]]  # the bound slot and the body's edge
        elif isinstance(x, (App, Pred, Eq)):
            ops = [i for i, _ in ops]  # terms are never negated
        elif isinstance(x, DomainConst) and not 0 <= x.index < len(g.domains[x.sort]):
            raise InterpretationError(f"#{x.sort}:{x.index} is out of range for sort {x.sort!r}")
        edges[x] = (len(nodes), False)
        nodes.append(x)
        kids.append(tuple(ops))
        free.append(fv)
    root, negated_root = edges[core]
    checked = _valuation_check(g, [v for v, slot in slots.items() if slot in free[root]])
    kinds = [type(x) for x in nodes]
    # A node's key is its id, paired with the element indices in the slots
    # of its free variables when it has any.
    getters = [itemgetter(*sorted(fv)) if fv else None for fv in free]
    sort_of = {slots[v]: g.domains[v.sort] for v in slots}
    players_of = [g.players_at.get(e, frozenset()) for e in states]
    pred, fun = g.interp.pred, g.interp.fun
    vectors: dict[tuple, list] = {}

    def vector(t: int, env: list[int], care: Set[int]) -> list:
        """Term t's values by state index, filled at least on `care`."""
        get = getters[t]
        key = (t, get(env)) if get else t
        vec = vectors.get(key)
        if vec is None:
            x = nodes[t]
            if kinds[t] is not App:  # a variable or a literal: one element everywhere
                elem = sort_of[slots[x]][env[slots[x]]] if kinds[t] is Var else g.domains[x.sort][x.index]
                vec = vectors[key] = [elem] * n
                return vec
            vec = vectors[key] = [None] * n
            missing = care
        elif kinds[t] is not App:
            return vec
        else:
            missing = [k for k in care if vec[k] is None]
            if not missing:
                return vec
        args = [vector(a, env, missing) for a in kids[t]]
        name = nodes[t].func
        for k in missing:
            vec[k] = fun(name, states[k], tuple([a[k] for a in args]))
        return vec

    def closure(care: Set[int]) -> set[int]:
        seen = set(care)
        todo = list(care)
        while todo:
            for s in succ[todo.pop()]:
                if s not in seen:
                    seen.add(s)
                    todo.append(s)
        return seen

    def label(i: int, env: list[int], care: Set[int]) -> Set[int]:
        """The states of `care` where node i holds.  Care sets are never
        mutated once passed, because the store may keep them."""
        if not care:
            return care
        get = getters[i]
        key = (i, get(env)) if get else i
        entry = store.get(key)
        if entry is None:
            todo = care
        else:
            todo = care - entry[0]
            if not todo:
                return entry[1] & care
        kind, decided = kinds[i], todo
        if kind is Pred:
            args = [vector(a, env, todo) for a in kids[i]]
            name = nodes[i].name
            marks = {k for k in todo if pred(name, states[k], tuple([a[k] for a in args]))}
        elif kind is Eq:
            left, right = [vector(a, env, todo) for a in kids[i]]
            marks = {k for k in todo if left[k] == right[k]}
        elif kind is Implies:
            (a, neg_a), (b, neg_b) = kids[i]
            holds = todo - label(a, env, todo) if neg_a else label(a, env, todo)
            marks = (todo - holds) | (holds - label(b, env, holds) if neg_b else label(b, env, holds))
        elif kind is Exists:
            slot, (body, neg) = kids[i]
            saved, rest, marks = env[slot], todo, set()
            for d in range(len(sort_of[slot])):
                env[slot] = d
                found = rest - label(body, env, rest) if neg else label(body, env, rest)
                if found:
                    marks |= found
                    rest = rest - found
                    if not rest:
                        break
            env[slot] = saved
        elif kind is AX:
            ((body, neg),) = kids[i]
            after = {s for k in todo for s in succ[k]}
            holds = after - label(body, env, after) if neg else label(body, env, after)
            marks = {k for k in todo if all(s in holds for s in succ[k])}
        elif kind is EU or kind is AU:
            (a, neg_a), (b, neg_b) = kids[i]
            decided = closure(todo)
            goal = decided - label(b, env, decided) if neg_b else label(b, env, decided)
            live = decided - goal
            stay = live - label(a, env, live) if neg_a else label(a, env, live)
            marks = (_eu_marks if kind is EU else _au_marks)(g, stay, goal)
        elif kind is PlayerAtom:
            player = nodes[i].player
            marks = {k for k in todo if player in players_of[k]}
        elif kind is Top:
            marks = todo
        else:
            raise TypeError(f"not a core formula: {nodes[i]!r}")
        if entry is not None:
            decided, marks = entry[0] | decided, entry[1] | marks
        store[key] = (decided, marks)
        return marks if decided is care else marks & care

    out = []
    for v in valuations:
        bindings = checked(v)
        env = [0] * len(slots)
        for var, elem in bindings.items():
            env[slots[var]] = elem.index
        t0 = time.perf_counter()
        store: dict = {}
        marks = label(root, env, focus)
        if negated_root:
            marks = focus - marks
        out.append(_sat_set(g, f, bindings, marks, store, t0))
    return out


def holds_at(g: GalStructure, e: str, f: Formula, v: Valuation | None = None) -> bool:
    """True iff state `e` is in check(g, f, v)."""
    g.state_index(e)
    return e in check(g, f, v).states


def result_json(sat: SatSet, initial: tuple[str, ...]) -> dict:
    """The machine-readable result object printed by the CLI."""
    return {
        "formula": pretty(sat.formula),
        "sat": sorted(sat.states),
        "initial_sat": sorted(e for e in initial if e in sat.states),
        "stats": {
            "states": sat.stats.states,
            "actions": sat.stats.actions,
            "subformulas": sat.stats.subformulas,
            "millis": round(sat.stats.millis, 3),
        },
    }
