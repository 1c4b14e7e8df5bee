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

Two labellers answer.  `check` labels every instance at every state,
recursively, keyed by the free-variable map of the core formula, built
once per call; it answers the public `check` alone.  Everything else in
the package goes through `check_all`: `holds_at`, `galcheck check` and
`enumerate_equilibria`.  Both reject a core formula deeper than
`logic.MAX_DEPTH`, so neither labeller runs out of Python's recursion
limit; neither keeps anything once it returns (`check_all` unbinds its
self-recursive helpers, so its tables go at the return, not at the next
cyclic collection), and the structure keeps no answers.  `check` runs
`well_formed`, then `expand_abbreviations`.  `check_all` instead
compiles the formula as written, in `well_formed`'s one walk, and builds
no core tree: it numbers the distinct core nodes children first (equal
nodes share a number, found without comparing nodes), gives each the
environment slots of its free variables (a variable has its own slot,
`exists` removes its bound one), and folds every chain of `!` into the
polarity of an operand edge, so `!` is never an instance of its own; an
abbreviation builds edges with `logic.ABBREVIATIONS`, the table
`expand_abbreviations` builds nodes with.  Its errors are `check`'s, in
`check`'s order: any `well_formed` error, then a too-deep core, then a
missing or foreign binding, then an out-of-range `#S:i` literal.

`check_all` binds every valuation, then decides each instance for all of
them at once, as first-order CTL model checking over sets of (state,
assignment) pairs (Bohn, Damm, Grumberg, Hungar, Laster, FSTTCS 1998): a
label maps a state to the mask of the valuations under which the instance
holds there.  It labels on demand (local model checking): an instance only
on its care set, the (state, valuation) pairs whose value its parent
needs, from the states of interest `at` at the root.  A negated edge is
the care set less the operand's marks.  `a -> b` labels `b` only where `a`
holds; `exists` drops a pair once an element marks it and stops when none
is left; `AX` passes down the successors; `E[U]`/`A[U]` label the right
operand on the forward closure of the care set and the left operand only
where the right one fails.  A term is evaluated only where a care set
reaches: one element per state where no slot of it varies with the
valuation, else a partition of the valuations by value, as terms are value
partitions in algebraic decision diagrams (Bahar et al., ICCAD 1993).
Each table keeps one entry per node (its label, its values or its
partitions), for the elements now in the node's `exists`-bound slots;
asked under other elements, the node's entry is replaced.  So `galcheck
check` evaluates a table entry only where a care set reaches it, and its
stats are `check_all`'s: `subformulas` counts no `!` and no instance
that no care set reaches, and `millis` leaves out compilation and
binding.
"""

from __future__ import annotations

import time
from collections import deque
from collections.abc import Set
from dataclasses import dataclass
from functools import partial
from operator import itemgetter
from types import SimpleNamespace
from typing import Iterable

from .errors import BindingError, InterpretationError
from .logic import (
    ABBREVIATIONS,
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
    attributes,
    check_depth,
    expand_abbreviations,
    free_variable_map,
    free_variables,
    operands,
    pretty,
    well_formed,
)
from .structure import GalStructure, Valuation, eval_term

LabelKey = tuple  # (subformula, ((var, elem), ...) sorted by variable name)
_NO_SLOTS: frozenset[int] = frozenset()


def label_key(f: Formula, env: Valuation, free: dict[int, frozenset[Var]] | None = None) -> LabelKey:
    """`f` with the elements `env` binds to its free variables, found in
    `free` (the `free_variable_map` of a formula holding `f`) if given."""
    fv = free_variables(f) if free is None else free[id(f)]
    return (f, tuple(sorted(((v, env[v]) for v in fv), key=lambda p: p[0].name)))


class LabelStore:
    """Marks per (ground subformula instance) as sets of state indices.

    Labeling is monotone: an entry is written exactly once, when its
    subformula's processing step completes, and never retracted.  `free`,
    the free-variable map of the formula being labeled, gives the keys.
    """

    def __init__(self, free: dict[int, frozenset[Var]] | None = None) -> None:
        self.free = free
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


@dataclass(frozen=True)
class CheckStats:
    """The size of a check.  `subformulas` counts the ground subformula
    instances labelled (a subformula with the elements bound to its free
    variables), not (instance, state) pairs, so labelling fewer states of
    an instance does not lower it.  In `check_all`, a `!` is an edge, not an
    instance, and is not counted; an instance there is a subformula with the
    elements `exists` binds, labelled for every valuation at once, so the
    stats (instances labelled, labelling time) describe the whole call and
    are the same in every `SatSet` it returns."""

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
    return store.put(label_key(f, env, store.free), frozenset(marks))


def verify_equality(g: GalStructure, f: Eq, env: Valuation, store: LabelStore) -> frozenset[int]:
    """Mark the states where both terms evaluate to the same element."""
    marks = set()
    for k, e in enumerate(g.states):
        if eval_term(g, e, f.left, env) == eval_term(g, e, f.right, env):
            marks.add(k)
    return store.put(label_key(f, env, store.free), frozenset(marks))


def _step(marks):
    """The labeling step of a connective: its instance's marks are
    `marks(g, ...)` of its operands' marks, which must be in the store."""

    def step(g: GalStructure, f: Formula, env: Valuation, store: LabelStore) -> frozenset[int]:
        ops = [store.require(label_key(y, env, store.free)) for y in operands(f)]
        return store.put(label_key(f, env, store.free), marks(g, *ops))

    return step


verify_not = _step(lambda g, body: frozenset(range(len(g.states))) - body)
verify_implies = _step(lambda g, left, right: (frozenset(range(len(g.states))) - left) | right)
verify_ax = _step(_ax_marks)
verify_eu = _step(_eu_marks)
verify_au = _step(_au_marks)


def verify_exists(g: GalStructure, f: Exists, env: Valuation, store: LabelStore) -> frozenset[int]:
    """Mark states where the body holds for at least one element of the
    bound variable's domain; every instance must already be labeled."""
    marks: set[int] = set()
    for d in g.domains[f.var.sort]:
        inner = dict(env)
        inner[f.var] = d
        marks |= store.require(label_key(f.body, inner, store.free))
    return store.put(label_key(f, env, store.free), frozenset(marks))


# --------------------------------------------------------------------------- #
# Driver


def _label(g: GalStructure, f: Formula, env: Valuation, store: LabelStore) -> frozenset[int]:
    key = label_key(f, env, store.free)
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
    variables; the variables' domains are found once.  The environment it
    returns holds the variables in name order."""
    fv = sorted(variables, key=lambda x: x.name)
    doms = [(var, g.domains.get(var.sort, ())) for var in fv]

    def checked(v: Valuation | None) -> dict[Var, DomainElem]:
        v = v or {}
        elems = [v.get(var) for var in fv]
        missing = [var.name for var, elem in zip(fv, elems) if elem is None]
        if missing:
            raise BindingError(f"free variables not assigned: {', '.join(missing)}")
        env: dict[Var, DomainElem] = {}
        for (var, dom), elem in zip(doms, elems):
            if (
                elem.sort != var.sort
                or not 0 <= elem.index < len(dom)
                or (dom[elem.index] is not elem and dom[elem.index] != elem)  # most are the domain's own
            ):
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
        states=frozenset([g.states[k] for k in marks]),
        formula=f,
        valuation=tuple(env.items()),  # in name order, as `_valuation_check` builds it
        stats=CheckStats(len(g.states), len(g.actions), len(store), millis),
    )


def check(g: GalStructure, f: Formula, v: Valuation | None = None) -> SatSet:
    """The set of states satisfying `f` under valuation `v`.

    Free variables of `f` (for instance the starred profile variables of
    equilibrium formulas) must be assigned to elements of their sorts'
    domains.
    """
    # The only caller of `_label`; all else goes through check_all.  Returning
    # check_all(g, f, [v])[0] here cut bimatrix-ne's wall_s (seed 1, 55 s)
    # 0.243 -> 0.082 s, but a faster check fits more rounds (173 -> 417), and
    # peak_rss_mb, which grows with the round count, rose 25.8 -> 37.1 MB
    # (+44 %, bound 10 %).  So `_label`'s per-request work must not change
    # until the benchmark stops counting rounds in peak_rss_mb; then this can
    # return check_all(g, f, [v])[0] and `_label` can go.
    well_formed(f, g.sig)
    t0 = time.perf_counter()
    core = expand_abbreviations(f)
    free = free_variable_map(core)
    env = _valuation_check(g, free[id(core)])(v)
    store = LabelStore(free)
    marks = _label(g, core, env, store)
    return _sat_set(g, f, env, marks, store, t0)


# --------------------------------------------------------------------------- #
# `check_all`'s labels.  A label or care set is a pair (the states whose
# mask is full, {state: a partial mask}); a state in neither has the empty
# mask.  So where every mask is full, as in any one-valuation check, the
# work is set work.


def _masks(a: tuple, full: int) -> dict:
    marks = dict.fromkeys(a[0], full)
    marks.update(a[1])
    return marks


def _from_masks(marks: dict, full: int) -> tuple:
    whole = {k for k, x in marks.items() if x == full}
    return whole, {k: x for k, x in marks.items() if x != full} if len(whole) < len(marks) else {}


def _meet(a: tuple, b: tuple) -> tuple:
    (af, ap), (bf, bp) = a, b
    if not ap and not bp:
        return af & bf, ap
    part = {k: x for k, x in ap.items() if k in bf}
    for k, x in bp.items():
        if k in af:
            part[k] = x
        elif x & ap.get(k, 0):
            part[k] = x & ap[k]
    return af & bf, part


def _minus(a: tuple, b: tuple, full: int) -> tuple:
    (af, ap), (bf, bp) = a, b
    if not bp:
        return af - bf, {k: x for k, x in ap.items() if k not in bf} if ap else ap
    part = {k: full ^ x for k, x in bp.items() if k in af}
    for k, x in ap.items():
        if k not in bf and x & ~bp.get(k, 0):
            part[k] = x & ~bp.get(k, 0)
    return af.difference(bf, bp), part


def _join(a: tuple, b: tuple, full: int) -> tuple:
    (af, ap), (bf, bp) = a, b
    if not ap and not bp:
        return af | bf, ap
    whole, part = {*af, *bf}, {}
    for k, x in (*ap.items(), *bp.items()):
        if k not in whole:
            x |= part.get(k, 0)
            if x == full:
                whole.add(k)
                del part[k]
            else:
                part[k] = x
    return whole, part


def _where(a: tuple, hold: Set[int]) -> tuple:
    """The part of `a` at the states of `hold`, which are states of `a`."""
    af, ap = a
    return (hold, ap) if not ap else (af & hold, {k: x for k, x in ap.items() if k in hold})


def _closure(succ: list[list[int]], care: tuple, full: int) -> tuple:
    """`care` carried forward along every path."""
    marks = set(care[0]) if not care[1] else _masks(care, full)
    todo = list(marks)
    while todo:
        k = todo.pop()
        for s in succ[k]:
            if not care[1]:
                if s not in marks:
                    marks.add(s)
                    todo.append(s)
            elif marks[k] | marks.get(s, 0) != marks.get(s, 0):
                marks[s] = marks[k] | marks.get(s, 0)
                todo.append(s)
    return (marks, {}) if not care[1] else _from_masks(marks, full)


def _until(g: GalStructure, eu: bool, stay: tuple, goal: tuple, full: int) -> tuple:
    """Least fixpoint Z = goal or (stay and some/every successor in Z): by
    `_eu_marks`/`_au_marks` where every mask is full (a tic-tac-toe battery
    ran 1.6x slower on masks alone), else by propagating masks backward
    from the goal."""
    if not stay[1] and not goal[1]:
        return (_eu_marks if eu else _au_marks)(g, stay[0], goal[0]), {}
    pred, succ = g.predecessor_indices(), g.successor_indices()
    left, marks = _masks(stay, full), _masks(goal, full)
    todo = list(marks)
    while todo:
        s = todo.pop()
        for p in pred[s]:
            x = left.get(p, 0) & ~marks.get(p, 0)
            if eu:
                x &= marks[s]
            else:
                for q in succ[p]:
                    x &= marks.get(q, 0)
            if x:
                marks[p] = marks.get(p, 0) | x
                todo.append(p)
    return _from_masks(marks, full)


def check_all(
    g: GalStructure,
    f: Formula,
    valuations: Iterable[Valuation],
    at: Iterable[str] | None = None,
) -> list[SatSet]:
    """`check(g, f, v)` for every valuation `v`, in order, in one pass,
    restricted to the states `at` (state ids; default every state), as the
    module docstring says.

    Valuation j is bit j of a mask.  A slot that every valuation binds to
    one element holds its index in `env`, as a slot that `exists` binds
    does; a slot the valuations disagree on varies: it holds None, and its
    group gives each of its elements the mask of the valuations binding it.
    An instance is a node with the elements in its `exists`-bound slots; a
    node's label and a term's values are kept in one entry per node, for
    the elements those slots hold now.  A term with no varying slot has
    one value per state; any other term's value at a state is a
    partition, {element index: mask}.  The stats count the instances
    labelled, over the whole call.  Nothing outlives the call.
    """
    states, succ = g.states, g.successor_indices()
    n = len(states)
    focus = frozenset(range(n)) if at is None else frozenset([g.state_index(e) for e in at])

    # Compile the formula as written, in `well_formed`'s one post-order
    # walk: once a node passes its sort check, its core form is interned.  A
    # core node's number is shared by equal nodes (the same class,
    # attributes and operand edges), found without comparing nodes, and
    # operands get smaller numbers than their parents.  A chain of `!` is no
    # node of its own: a formula operand is an edge (number, negated), and
    # an abbreviation builds edges straight from its operands' edges.  A
    # variable gets a slot in the environment list, and every node the
    # slots of its free variables.  A too-deep core is raised only once the
    # whole formula is well formed, and an out-of-range literal only once
    # the first valuation's bindings pass (or at once, given none).
    numbers: dict[tuple, int] = {}
    kinds: list[type] = []
    attrs: list[tuple] = []  # names, sorts and indices
    kids: list = []
    free: list[frozenset[int]] = []
    slots: dict[int, int] = {}  # number of a variable -> its slot
    variables: dict[int, Var] = {}  # number of a variable -> its first node in `f`
    bound: set[int] = set()  # the slots that `exists` binds
    domain: dict[int, tuple] = {}  # number of a term -> its sort's domain
    still: set[int] = set()  # the terms with the same value at every state
    out_of_range: list[tuple] = []
    functions = g.sig.functions

    def node(cls: type, names: tuple, *ops: tuple) -> tuple:
        """The (edge, core height) of a node of `cls` with these names,
        sorts and indices, over operands given the same way."""
        height, edges, fv = 0, [], _NO_SLOTS
        for edge, h in ops:  # nearly every call makes a node, so fv is not wasted
            edges.append(edge)
            if h > height:
                height = h
            if free[edge[0]]:
                fv = fv | free[edge[0]] if fv else free[edge[0]]
        key = (cls, names, *edges)
        i = numbers.get(key)
        if i is None:
            i = numbers[key] = len(kinds)
            if cls is Var:
                slots[i] = len(slots)
                fv = frozenset([slots[i]])
                domain[i] = g.domains[names[1]]
                still.add(i)
            elif cls is Exists:
                slot = slots[edges[0][0]]
                bound.add(slot)
                fv = fv - {slot}
                edges = (slot, edges[1])  # the bound slot and the body's edge
            elif cls is App or cls is Pred or cls is Eq:
                edges = [j for j, _ in edges]  # terms are never negated
                if cls is App:
                    decl = functions[names[0]]
                    domain[i] = g.domains[decl.result]
                    if decl.rigid and still.issuperset(edges):
                        still.add(i)
            elif cls is DomainConst:
                domain[i] = g.domains[names[0]]
                still.add(i)
                if not 0 <= names[1] < len(domain[i]):
                    out_of_range.append(names)
            kinds.append(cls)
            attrs.append(names)
            kids.append(edges)
            free.append(fv)
        return (i, False), height + 1

    def negate(op: tuple) -> tuple:
        (i, neg), h = op
        return (i, not neg), h + 1

    core = SimpleNamespace(
        Not=negate, **{cls.__name__: partial(node, cls, ()) for cls in (Top, Implies, AX, EU, AU, Exists)}
    )

    def compile_node(x: Formula | Term, ops: list[tuple]) -> tuple:
        """The (edge, core height) of `x`, given its operands'."""
        cls = type(x)
        rewrite = ABBREVIATIONS.get(cls)
        if rewrite is not None:
            return rewrite(core, *ops)
        if cls is Not:
            return negate(*ops)
        edge = node(cls, attributes(x), *ops)
        if cls is Var:
            variables.setdefault(edge[0][0], x)
        return edge

    (root, negated_root), height = well_formed(f, g.sig, compile_node)
    check_depth(height)
    # Keyed by `f`'s own variable nodes: a valuation built from the same
    # nodes, as `profile_valuation`'s are, finds each binding by identity.
    free_slots = {variables[j]: slot for j, slot in slots.items() if slot in free[root]}
    checked = _valuation_check(g, free_slots)
    bindings = []  # each valuation's (variable, element) pairs in name order, as `SatSet` holds them
    for v in valuations:
        bindings.append(tuple(checked(v).items()))
        if out_of_range:
            break  # `check` raises it only once the bindings pass
    if out_of_range:
        s, index = out_of_range[0]
        raise InterpretationError(f"#{s}:{index} is out of range for sort {s!r}")
    if not bindings:
        return []

    full = (1 << len(bindings)) - 1
    sort_of = {slot: domain[j] for j, slot in slots.items()}
    env: list = [None] * len(slots)
    groups: dict[int, dict[int, int]] = {}
    for p, (var, _) in enumerate(bindings[0]):
        column = [b[p][1].index for b in bindings]
        group = dict.fromkeys(column, 0)
        if len(group) == 1:
            env[free_slots[var]] = column[0]
        else:
            for j, d in enumerate(column):
                group[d] |= 1 << j
            groups[free_slots[var]] = group
    getter_of, vslots_of = {}, {}  # by free slots: the getter of the bound ones and the varying slots
    for fv in set(free):
        key = sorted(fv & bound)
        getter_of[fv] = itemgetter(*key) if key else None
        vslots_of[fv] = tuple(sorted(fv & groups.keys()))
    getters = list(map(getter_of.__getitem__, free))
    vslots = list(map(vslots_of.__getitem__, free))
    movers: dict[str, set[int]] = {}  # player -> the states where they move
    pred, fun = g.interp.pred, g.interp.fun
    # One entry per node, for the elements in its `exists`-bound slots; asked
    # under other elements, a node replaces its entry.
    terms: list = [None] * len(kinds)  # [elements, value or partition by state; a still term's at 0]
    store: list = [None] * len(kinds)  # (elements, the care decided, the label there)
    labelled: set = set()  # the (node, elements) labelled, for the stats
    nones = [None] * n

    def row(t: int) -> list:
        """Term t's entry by state, for the elements in its bound slots: the
        list of other elements' is emptied and reused."""
        elems = getters[t](env) if getters[t] else None
        entry = terms[t]
        if entry is None:
            entry = terms[t] = [elems, [None] * n]
        elif entry[0] != elems:
            entry[0], entry[1][:] = elems, nones
        return entry[1]

    def value(t: int, k: int) -> DomainElem:
        """Term t's element at state k; no slot of t varies.  A variable
        reads `env`; any other term's is kept in its entry."""
        kind = kinds[t]
        if kind is Var:
            return sort_of[slots[t]][env[slots[t]]]
        vec, j = row(t), 0 if t in still else k
        if vec[j] is not None:
            return vec[j]
        if kind is DomainConst:
            elem = domain[t][attrs[t][1]]
        else:
            args = []
            for a in kids[t]:  # a loop, not a comprehension: one frame per level of a deep term
                args.append(value(a, k))
            elem = fun(attrs[t][0], states[k], tuple(args))
        vec[j] = elem
        return elem

    def partition(t: int, k: int, c: int) -> dict:
        """Term t's values at state k under the valuations of mask c, as
        {element index: mask}: disjoint masks that cover c and may cover
        more, so a caller meets them with c; some slot of t varies.  One
        callback per tuple of `args_of`; what they give is kept in t's
        entry, with the valuations it covers."""
        if kinds[t] is Var:
            slot = slots[t]
            return groups[slot] if env[slot] is None else {env[slot]: c}
        parts, j = row(t), 0 if t in still else k
        covered, part = parts[j] or (0, {})
        need = c & ~covered
        if not need:
            return part
        name, e, out = attrs[t][0], states[k], {}
        for args, x in args_of(t, k, need):
            d = fun(name, e, args).index
            out[d] = out.get(d, 0) | x
        for d, x in part.items():
            out[d] = out.get(d, 0) | x
        parts[j] = covered | need, out
        return out

    def args_of(i: int, k: int, c: int) -> list:
        """Each argument tuple the operands of term or atom i take at state
        k under the valuations of mask c, with its nonempty mask: one per
        combination of the operands' values whose masks meet.  A variable
        that varies takes its group, so a term over varying variables alone
        gets one tuple per assignment of them that a valuation of c makes."""
        out = [((), c)]
        for a in kids[i]:  # a loop, not a comprehension: two frames per level of a deep term
            if not vslots[a]:
                e = value(a, k)
                out = [(args + (e,), x) for args, x in out]
            else:
                part, dom = partition(a, k, c).items(), domain[a]
                out = [(args + (dom[d],), x & y) for args, x in out for d, y in part if x & y]
        return out

    def label(i: int, care: tuple) -> tuple:
        """The part of `care` where node i holds.  Care sets are never
        mutated once passed, because the store may keep them.  Atoms with no
        varying slot, and `AX`'s successors of full masks, take set paths: on
        masks alone, tic-tac-toe ran 12 % slower and `AX` formulas 8 %."""
        if not care[0] and not care[1]:
            return care
        elems = getters[i](env) if getters[i] else None
        entry = store[i]
        if entry is None or entry[0] != elems:
            entry, todo = None, care
        else:
            todo = _minus(care, entry[1], full)
            if not todo[0] and not todo[1]:
                return _meet(entry[2], care)
        kind, decided = kinds[i], todo
        if (kind is Pred or kind is Eq) and not vslots[i]:
            every = todo[0] if not todo[1] else [*todo[0], *todo[1]]
            if kind is Eq:
                left, right = kids[i]
                marks = _where(todo, {k for k in every if value(left, k) == value(right, k)})
            else:
                name, args = attrs[i][0], kids[i]
                marks = _where(todo, {k for k in every if pred(name, states[k], tuple([value(a, k) for a in args]))})
        elif kind is Pred or kind is Eq:
            got, name = {}, attrs[i][0] if kind is Pred else None
            for k, c in _masks(todo, full).items():
                x, e = 0, states[k]
                for args, y in args_of(i, k, c):
                    if pred(name, e, args) if name else args[0] == args[1]:
                        x |= y
                if x:
                    got[k] = x
            marks = _from_masks(got, full)
        elif kind is Implies:  # todo less where a holds and b does not
            (a, neg_a), (b, neg_b) = kids[i]
            holds = label(a, todo)
            if neg_a:
                holds = _minus(todo, holds, full)
            then = label(b, holds)
            marks = _minus(todo, then if neg_b else _minus(holds, then, full), full)
        elif kind is Exists:
            slot, (body, neg) = kids[i]
            saved, rest = env[slot], todo  # the part of todo no element marks yet
            for d in range(len(sort_of[slot])):
                env[slot] = d
                holds = label(body, rest)
                rest = holds if neg else _minus(rest, holds, full)
                if not rest[0] and not rest[1]:
                    break
            env[slot] = saved
            marks = _minus(todo, rest, full)
        elif kind is AX:
            ((body, neg),) = kids[i]
            after = {}
            for k, c in _masks(todo, full).items() if todo[1] else ():
                for s in succ[k]:
                    after[s] = after.get(s, 0) | c
            after = _from_masks(after, full) if todo[1] else ({s for k in todo[0] for s in succ[k]}, {})
            holds = label(body, after)
            holds, got = _masks(_minus(after, holds, full) if neg else holds, full), {}
            for k, c in _masks(todo, full).items():
                for s in succ[k]:
                    c &= holds.get(s, 0)
                if c:
                    got[k] = c
            marks = _from_masks(got, full)
        elif kind is EU or kind is AU:
            (a, neg_a), (b, neg_b) = kids[i]
            decided = _closure(succ, todo, full)
            goal = label(b, decided)
            if neg_b:
                goal = _minus(decided, goal, full)
            live = _minus(decided, goal, full)
            stay = label(a, live)
            marks = _until(g, kind is EU, _minus(live, stay, full) if neg_a else stay, goal, full)
        elif kind is PlayerAtom:
            if not movers:
                for k, e in enumerate(states):
                    for player in g.players_at.get(e, ()):
                        movers.setdefault(player, set()).add(k)
            marks = _meet(todo, (movers.get(attrs[i][0], frozenset()), {}))
        else:  # Top
            marks = todo
        labelled.add((i, elems))
        if entry is None:
            store[i] = elems, decided, marks
        else:
            store[i] = elems, _join(entry[1], decided, full), _join(entry[2], marks, full)
            _, decided, marks = store[i]
        return marks if decided is care else _meet(marks, care)

    t0 = time.perf_counter()
    try:
        marks = label(root, (focus, {}))
    finally:  # each of these reaches itself through its cell: unbound, the call's tables go with it
        label = value = partition = args_of = None
    if negated_root:
        marks = _minus((focus, {}), marks, full)
    stats = CheckStats(n, len(g.actions), len(labelled), (time.perf_counter() - t0) * 1000.0)
    bits = [(states[k], format(x, f"0{len(bindings)}b")[::-1]) for k, x in marks[1].items()]
    sets = {(): frozenset([states[k] for k in marks[0]])}  # one frozenset per distinct answer
    out = []
    for j, b in enumerate(bindings):
        extra = tuple([e for e, flags in bits if flags[j] == "1"]) if bits else ()
        if extra not in sets:
            sets[extra] = sets[()].union(extra)
        out.append(SatSet(sets[extra], f, b, stats))
    return out


def holds_at(g: GalStructure, e: str, f: Formula, v: Valuation | None = None) -> bool:
    """True iff state `e` is in check(g, f, v), labelled only where `e` needs."""
    return e in check_all(g, f, [v], at=[e])[0].states


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
