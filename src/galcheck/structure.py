"""Labelled directed graphs with per-state players and first-order interpretations.

A structure owns a fixed state set, an action relation, one finite ordered
domain per sort, a player set per state, and an interpretation provider that
evaluates function and predicate symbols on demand.  Raw evaluation callbacks
work on element labels (plain strings); the provider resolves labels to
`DomainElem` values, validates results against the declared profiles, and
memoizes per (symbol, state, arguments) — rigid symbols ignore the state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

from .errors import InterpretationError
from .logic import App, DomainConst, DomainElem, Signature, Term, Var

Valuation = Mapping[Var, DomainElem]

RawFunEval = Callable[[str, str, tuple[str, ...]], str]
RawPredEval = Callable[[str, str, tuple[str, ...]], bool]


class InterpretationProvider:
    """On-demand, memoized evaluation of interpreted symbols.

    The memo table is keyed by (symbol, state, argument labels); rigid
    symbols use a state key of None so every state shares one entry.
    Evaluation must be deterministic.
    """

    def __init__(
        self,
        sig: Signature,
        by_label: Mapping[str, Mapping[str, DomainElem]],
        fun_eval: RawFunEval,
        pred_eval: RawPredEval,
    ):
        self.sig = sig
        self._by_label = by_label  # each sort's domain elements by label
        self.fun_eval = fun_eval
        self.pred_eval = pred_eval
        self._funs: dict[tuple, DomainElem] = {}
        self._preds: dict[tuple, bool] = {}

    def fun(self, name: str, state: str, args: tuple[DomainElem, ...]) -> DomainElem:
        decl = self.sig.functions[name]
        labels = tuple(a.label for a in args)
        key = (name, None if decl.rigid else state, labels)
        hit = self._funs.get(key)
        if hit is not None:
            return hit
        try:
            out = self.fun_eval(name, state, labels)
        except InterpretationError:
            raise
        except Exception as exc:  # surface the term/state context
            raise InterpretationError(
                f"function {name!r} failed at state {state!r} on {labels!r}: {exc}"
            ) from exc
        elem = self._by_label.get(decl.result, {}).get(out)
        if elem is None:
            raise InterpretationError(
                f"function {name!r} at state {state!r} returned {out!r}, "
                f"not an element of sort {decl.result!r}"
            )
        self._funs[key] = elem
        return elem

    def pred(self, name: str, state: str, args: tuple[DomainElem, ...]) -> bool:
        decl = self.sig.predicates[name]
        labels = tuple(a.label for a in args)
        key = (name, None if decl.rigid else state, labels)
        hit = self._preds.get(key)
        if hit is not None:
            return hit
        try:
            out = bool(self.pred_eval(name, state, labels))
        except InterpretationError:
            raise
        except Exception as exc:
            raise InterpretationError(
                f"predicate {name!r} failed at state {state!r} on {labels!r}: {exc}"
            ) from exc
        self._preds[key] = out
        return out


class GalStructure:
    """A finite structure; immutable after construction.

    `states`, `initial`, and `actions` keep their given (deterministic)
    order; `domains` maps each sort to its ordered element list, which fixes
    the canonical order of elements and the meaning of `#sort:index`
    literals.
    """

    def __init__(
        self,
        sig: Signature,
        states: Sequence[str],
        initial: Iterable[str],
        actions: Iterable[tuple[str, str]],
        domains: Mapping[str, Sequence[str]],
        players_at: Mapping[str, Iterable[str]],
        fun_eval: RawFunEval,
        pred_eval: RawPredEval,
    ):
        self.sig = sig
        self.states = tuple(states)
        if len(set(self.states)) != len(self.states):
            raise ValueError("duplicate state ids")
        self.initial = tuple(dict.fromkeys(initial))
        seen: set[tuple[str, str]] = set()
        acts = []
        for pair in actions:
            src, dst = pair
            if (src, dst) not in seen:
                seen.add((src, dst))
                acts.append((src, dst))
        self.actions = tuple(acts)
        self.domains: dict[str, tuple[DomainElem, ...]] = {}
        for sort, labels in domains.items():
            labels = list(labels)
            if len(set(labels)) != len(labels):
                raise ValueError(f"duplicate elements in domain of sort {sort!r}")
            self.domains[sort] = tuple(
                DomainElem(sort, lab, i) for i, lab in enumerate(labels)
            )
        self._by_label = {
            sort: {e.label: e for e in elems} for sort, elems in self.domains.items()
        }
        self.players_at = {e: frozenset(ps) for e, ps in players_at.items()}
        self.interp = InterpretationProvider(sig, self._by_label, fun_eval, pred_eval)
        self._index = {e: i for i, e in enumerate(self.states)}
        self._succ: list[list[int]] = [[] for _ in self.states]
        self._pred: list[list[int]] = [[] for _ in self.states]
        for src, dst in self.actions:
            si, di = self._index.get(src), self._index.get(dst)
            if si is not None and di is not None:
                self._succ[si].append(di)
                self._pred[di].append(si)
        self._violations: list[str] | None = None

    # -- queries -------------------------------------------------------------

    def state_index(self, e: str) -> int:
        try:
            return self._index[e]
        except KeyError:
            raise ValueError(f"unknown state id: {e!r}") from None

    def successors(self, e: str) -> list[str]:
        """Successor states of `e`, in action declaration order."""
        return [self.states[i] for i in self._succ[self.state_index(e)]]

    def successor_indices(self) -> list[list[int]]:
        return self._succ

    def predecessor_indices(self) -> list[list[int]]:
        return self._pred

    def is_deadlock(self, e: str) -> bool:
        """True iff `e` has no outgoing action."""
        return not self._succ[self.state_index(e)]

    def element(self, sort: str, label: str) -> DomainElem:
        elem = self._by_label.get(sort, {}).get(label)
        if elem is None:
            raise ValueError(f"no element {label!r} in domain of sort {sort!r}")
        return elem

    # -- invariants ----------------------------------------------------------

    def validate(self) -> list[str]:
        """Invariant violations, empty iff the structure is well formed.

        Checks: initial states and action endpoints are declared states,
        every declared sort has a nonempty domain, per-state player sets use
        declared players, and every state with at least one player has at
        least one successor.  Violations are data, not failures; the result
        is cached (the structure is immutable).
        """
        if self._violations is not None:
            return self._violations
        out: list[str] = []
        declared = set(self.states)
        if not self.states:
            out.append("structure has no states")
        for e in self.initial:
            if e not in declared:
                out.append(f"initial state {e!r} is not a declared state")
        for src, dst in self.actions:
            if src not in declared:
                out.append(f"action ({src!r}, {dst!r}): source is not a declared state")
            if dst not in declared:
                out.append(f"action ({src!r}, {dst!r}): target is not a declared state")
        for sort in sorted(self.sig.sorts):
            if not self.domains.get(sort):
                out.append(f"sort {sort!r} has an empty or missing domain")
        for sort in self.domains:
            if sort not in self.sig.sorts:
                out.append(f"domain given for undeclared sort {sort!r}")
        players = set(self.sig.players)
        for e, ps in self.players_at.items():
            if e not in declared:
                out.append(f"players listed for unknown state {e!r}")
                continue
            for p in ps:
                if p not in players:
                    out.append(f"state {e!r} lists undeclared player {p!r}")
            if ps and not self._succ[self._index[e]]:
                out.append(f"state {e!r} has players {sorted(ps)} but no outgoing action")
        self._violations = out
        return out


def eval_term(g: GalStructure, e: str, t: Term, v: Valuation | None = None) -> DomainElem:
    """Evaluate a term at a state: variables through the valuation,
    applications through the interpretation provider, bottom-up."""
    g.state_index(e)
    v = v or {}

    def go(t: Term) -> DomainElem:
        if isinstance(t, Var):
            try:
                return v[t]
            except KeyError:
                raise InterpretationError(
                    f"variable {t.name}:{t.sort} is not assigned"
                ) from None
        if isinstance(t, DomainConst):
            dom = g.domains.get(t.sort, ())
            if not 0 <= t.index < len(dom):
                raise InterpretationError(
                    f"#{t.sort}:{t.index} is out of range for sort {t.sort!r}"
                )
            return dom[t.index]
        assert isinstance(t, App)
        args = tuple(go(a) for a in t.args)
        return g.interp.fun(t.func, e, args)

    return go(t)


# --------------------------------------------------------------------------- #
# Paths (diagnostics and test oracles only; the checker works on the graph)


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
# Table-backed interpretations (explicit structures)


def table_provider(
    state_funcs: Mapping[str, Mapping[str, Mapping[tuple[str, ...], str]]],
    state_preds: Mapping[str, Mapping[str, set[tuple[str, ...]]]],
    rigid_funcs: Mapping[str, Mapping[tuple[str, ...], str]],
    rigid_preds: Mapping[str, set[tuple[str, ...]]],
) -> tuple[RawFunEval, RawPredEval]:
    """Raw evaluation callbacks backed by explicit lookup tables.

    `state_funcs[state][name][args] -> label`; rigid tables drop the state
    level.  A missing function entry is an interpretation failure; a missing
    predicate entry is the empty relation.
    """

    def fun_eval(name: str, state: str, args: tuple[str, ...]) -> str:
        if name in rigid_funcs:
            table = rigid_funcs[name]
        else:
            table = state_funcs.get(state, {}).get(name, {})
        try:
            return table[args]
        except KeyError:
            raise InterpretationError(
                f"no table entry for function {name!r} at state {state!r} on {args!r}"
            ) from None

    def pred_eval(name: str, state: str, args: tuple[str, ...]) -> bool:
        if name in rigid_preds:
            return args in rigid_preds[name]
        return args in state_preds.get(state, {}).get(name, set())

    return fun_eval, pred_eval
