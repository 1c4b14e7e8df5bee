"""Many-sorted signatures, terms, and state formulas.

The surface syntax (ASCII) is:

    formula := "true" | "false" | "@" IDENT | IDENT | IDENT "(" [term {"," term}] ")"
             | term "=" term
             | "!" formula | formula "&" formula | formula "|" formula
             | formula "->" formula
             | ("EX"|"AX"|"EF"|"AF"|"EG"|"AG") formula
             | ("E"|"A") "[" formula "U" formula "]"
             | ("exists"|"forall") IDENT ":" IDENT "." formula
             | "(" formula ")"
    term    := IDENT | IDENT "(" [term {"," term}] ")" | IDENT ":" IDENT
             | "#" IDENT ":" NUMBER

The table `SYNTAX` is the one owner of keywords and precedence, which is
! > & > | > -> (right-associative): the parser reads it and `pretty`
prints from it.  Prefix modalities and quantifiers bind their whole
suffix.  A bare identifier in formula position is a 0-ary predicate.  A free
(valuation-bound) variable is written with a sort annotation `x:S`; later
occurrences may omit it.  `#S:3` denotes the fourth element of sort S's
domain enumeration.

Nodes store their hash and height when built, so neither recurses.  The
parser, `free_variables`, `expand_abbreviations` and `well_formed` keep
their own stacks and cache nothing between calls.  A tree deeper than
MAX_DEPTH as written does not parse, nor does one whose core form is
deeper expand, which keeps what recurses (labelling, node equality, term
evaluation, `pretty`) within Python's recursion limit.  `checker.check_all`
compiles a formula in `well_formed`'s walk, with `ABBREVIATIONS` and
`check_depth`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields, replace
from itertools import repeat
from operator import attrgetter, is_not
from types import SimpleNamespace
from typing import Callable, Iterable, Mapping, NamedTuple, Union

from .errors import GalcheckError, ParseError, SortError, UnknownIdentifierError

# --------------------------------------------------------------------------- #
# Signature

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_PLAYER_RE = re.compile(r"[A-Za-z0-9_]+\Z")


@dataclass(frozen=True)
class FuncDecl:
    args: tuple[str, ...]
    result: str
    rigid: bool = False


@dataclass(frozen=True)
class PredDecl:
    args: tuple[str, ...]
    rigid: bool = False


class Signature:
    """Declared sorts, function/predicate profiles, and player identifiers.

    Sort, function, predicate, and player names live in pairwise disjoint
    namespaces; every sort mentioned in a profile must be declared.
    """

    def __init__(
        self,
        sorts: Iterable[str] = (),
        functions: Mapping[str, FuncDecl] | None = None,
        predicates: Mapping[str, PredDecl] | None = None,
        players: Iterable[str] = (),
    ):
        self.sorts = frozenset(sorts)
        self.functions = dict(functions or {})
        self.predicates = dict(predicates or {})
        self.players = tuple(players)
        self._check()

    def _check(self) -> None:
        self.names: dict[str, str] = {}  # each declared name -> its kind
        for kind, group in (
            ("sort", self.sorts),
            ("function", self.functions),
            ("predicate", self.predicates),
            ("player", self.players),
        ):
            for name in group:
                if name in self.names:
                    raise SortError(f"name {name!r} declared as both {self.names[name]} and {kind}")
                self.names[name] = kind
        for name in sorted({*self.sorts, *self.functions, *self.predicates}):
            if not _IDENT_RE.match(name):
                raise SortError(f"{name!r} is not a valid identifier")
            if name in RESERVED_WORDS:
                raise SortError(f"{name!r} is a reserved word")
        for player in self.players:
            if not _PLAYER_RE.match(player):
                raise SortError(f"player id {player!r} is not a valid identifier")
        for fname, decl in self.functions.items():
            for s in (*decl.args, decl.result):
                if s not in self.sorts:
                    raise SortError(f"function {fname!r} mentions undeclared sort {s!r}")
        for pname, decl in self.predicates.items():
            for s in decl.args:
                if s not in self.sorts:
                    raise SortError(f"predicate {pname!r} mentions undeclared sort {s!r}")

    def __repr__(self) -> str:
        return (
            f"Signature(sorts={sorted(self.sorts)}, functions={sorted(self.functions)}, "
            f"predicates={sorted(self.predicates)}, players={list(self.players)})"
        )


# --------------------------------------------------------------------------- #
# Terms and domain elements


# A node's operands are its fields with these names, in field order: its
# subformulas, its terms, and a quantifier's bound variable; `args` holds a
# tuple of terms.  Its other fields are names, sorts and indices.  `_node`
# records each class's operand fields; `operands` reads them and `rebuild`
# writes them, and every walk that only goes into or rebuilds operands
# goes through these two.
_OPERAND_NAMES = ("left", "right", "body", "var", "args")
_ARGS = ("args",)
_OPERAND_FIELDS: dict[type, tuple[str, ...]] = {}
_HEIGHT = attrgetter("_height")


def _node(cls):
    """Freeze a syntax-node dataclass that stores its hash and its height
    when built: both combine what its operands stored, so neither walks
    the tree.  A node without operands is one level high."""

    def __post_init__(self):
        # The fields are all that `__dict__` holds yet.
        d = self.__dict__
        d["_hash"] = hash(tuple(d.values()))
        if in_args:
            d["_height"] = 1 + max(map(_HEIGHT, d["args"]), default=0)
        elif len(ops) == 1:
            d["_height"] = 1 + heights(self)
        elif ops:
            d["_height"] = 1 + max(heights(self))

    cls.__post_init__ = __post_init__
    cls = dataclass(frozen=True)(cls)
    ops = _OPERAND_FIELDS[cls] = tuple(f.name for f in fields(cls) if f.name in _OPERAND_NAMES)
    in_args = ops == _ARGS
    heights = attrgetter(*[f"{n}._height" for n in ops]) if ops else None
    cls._height = 1
    cls.__hash__ = lambda self: self._hash
    cls.__eq__ = _equal
    return cls


def _equal(a, b):
    """Structural equality of two syntax nodes.  Stored hashes tell most
    unequal nodes apart at once; it recurses one frame per level, so within
    the labellers, which see at most MAX_DEPTH levels, it fits the limit."""
    if b.__class__ is not a.__class__:
        return NotImplemented
    if a is b:
        return True
    if a._hash != b._hash:
        return False
    if not _OPERAND_FIELDS[a.__class__]:  # only names, sorts and indices
        return a.__dict__ == b.__dict__
    xs, ys = operands(a), operands(b)
    if len(xs) != len(ys) or attributes(a) != attributes(b):
        return False
    for x, y in zip(xs, ys):
        if x is not y and _equal(x, y) is not True:
            return False
    return True


@dataclass(frozen=True)
class DomainElem:
    """An element of a sort's domain: a tagged atom with its enumeration index."""

    sort: str
    label: str
    index: int


@_node
class Var:
    name: str
    sort: str


@_node
class App:
    func: str
    args: tuple["Term", ...] = ()


@_node
class DomainConst:
    """A ground literal naming a domain element by its enumeration index."""

    sort: str
    index: int


Term = Union[Var, App, DomainConst]


# --------------------------------------------------------------------------- #
# Formulas


class Formula:
    def __str__(self) -> str:
        return pretty(self)


@_node
class Top(Formula):
    pass


@_node
class Bottom(Formula):
    pass


@_node
class PlayerAtom(Formula):
    player: str


@_node
class Pred(Formula):
    name: str
    args: tuple[Term, ...] = ()


@_node
class Eq(Formula):
    left: Term
    right: Term


@_node
class Not(Formula):
    body: Formula


@_node
class And(Formula):
    left: Formula
    right: Formula


@_node
class Or(Formula):
    left: Formula
    right: Formula


@_node
class Implies(Formula):
    left: Formula
    right: Formula


@_node
class EX(Formula):
    body: Formula


@_node
class AX(Formula):
    body: Formula


@_node
class EF(Formula):
    body: Formula


@_node
class AF(Formula):
    body: Formula


@_node
class EG(Formula):
    body: Formula


@_node
class AG(Formula):
    body: Formula


@_node
class EU(Formula):
    left: Formula
    right: Formula


@_node
class AU(Formula):
    left: Formula
    right: Formula


@_node
class Exists(Formula):
    var: Var
    body: Formula


@_node
class Forall(Formula):
    var: Var
    body: Formula


# The surface syntax of each formula class but the atoms and "!": the one
# owner of keywords and precedence.  A binary operator has its level (higher
# binds tighter) and the side it groups to.
SYNTAX: dict[str, dict[type, str | tuple[str, int, str]]] = {
    "constant": {Top: "true", Bottom: "false"},
    "prefix": {EX: "EX", AX: "AX", EF: "EF", AF: "AF", EG: "EG", AG: "AG"},
    "binder": {Exists: "exists", Forall: "forall"},
    "until": {EU: "E", AU: "A"},
    "binary": {Implies: ("->", 1, "right"), Or: ("|", 2, "left"), And: ("&", 3, "left")},
}

# E, A and U only act in E[, A[ and between until operands, so they stay declarable.
RESERVED_WORDS = frozenset(w for kind in ("constant", "prefix", "binder") for w in SYNTAX[kind].values())
# class -> (its section, its entry) for `pretty`; word -> (section, class) for the parser
_ENTRIES = {cls: (kind, entry) for kind, section in SYNTAX.items() for cls, entry in section.items()}
_WORDS = {word: (kind, cls) for cls, (kind, word) in _ENTRIES.items() if kind != "binary"}


# --------------------------------------------------------------------------- #
# Node shape


def _reader(fields: tuple[str, ...]):
    """A function from a node to the tuple of its `fields` values."""
    if fields == _ARGS:
        return attrgetter("args")
    if len(fields) > 1:
        return attrgetter(*fields)
    if fields:
        return lambda x: (getattr(x, fields[0]),)
    return lambda x: ()


_READERS = {cls: _reader(fields) for cls, fields in _OPERAND_FIELDS.items()}
# The other fields: names, sorts and indices, which `_equal` compares.
_ATTRIBUTES = {
    cls: _reader(tuple(f.name for f in fields(cls) if f.name not in ops))
    for cls, ops in _OPERAND_FIELDS.items()
}


def operands(x: Formula | Term) -> tuple:
    """The direct operands of a formula or term, in field order; a
    quantifier lists its bound variable first."""
    try:
        return _READERS[type(x)](x)
    except KeyError:
        raise TypeError(f"not a formula or term: {x!r}") from None


def attributes(x: Formula | Term) -> tuple:
    """The fields of a formula or term that are not operands: its names,
    sorts and indices, in field order."""
    return _ATTRIBUTES[type(x)](x)


def rebuild(x: Formula | Term, new: Iterable) -> Formula | Term:
    """`x` with its operands replaced by `new`, given in `operands` order."""
    fields = _OPERAND_FIELDS[type(x)]
    if fields == _ARGS:
        return replace(x, args=tuple(new))
    return replace(x, **dict(zip(fields, new)))


# --------------------------------------------------------------------------- #
# Formula utilities


def post_order(x: Formula | Term, into: type = object) -> list[tuple]:
    """(node, operands) for each distinct node of `x` (by identity), every
    node after its operands, found without recursion and without comparing
    nodes.  Only `into` instances are visited: `post_order(f, Formula)`
    skips the terms."""
    seen, out = {id(x)}, []
    ops = operands(x)
    stack = [(x, ops, iter(ops))]
    while stack:
        y, ops, rest = stack[-1]
        for z in rest:
            if id(z) not in seen and isinstance(z, into):
                seen.add(id(z))
                zs = operands(z)
                stack.append((z, zs, iter(zs)))
                break
        else:
            stack.pop()
            out.append((y, ops))
    return out


def free_variable_map(x: Formula | Term) -> dict[int, frozenset[Var]]:
    """The free sorted variables of `x` and of each node in it, keyed by
    the node's id, which stays valid while `x` is alive; quantifiers bind."""
    free: dict[int, frozenset[Var]] = {}
    for y, ops in post_order(x):
        fv = frozenset((y,)) if isinstance(y, Var) else frozenset().union(*[free[id(z)] for z in ops])
        free[id(y)] = fv - {y.var} if isinstance(y, (Exists, Forall)) else fv
    return free


def free_variables(x: Formula | Term) -> frozenset[Var]:
    """The free sorted variables of a formula or term; quantifiers bind."""
    return free_variable_map(x)[id(x)]


# Each abbreviation's core form, built with the core constructors `c` from
# its operands' core forms.  `c` has only Top, Not, Implies, AX, EU, AU and
# Exists: `_CORE_NODES` builds syntax nodes with them, and `check_all`'s
# compile builds operand edges with them.
ABBREVIATIONS = {
    Bottom: lambda c: c.Not(c.Top()),
    And: lambda c, a, b: c.Not(c.Implies(a, c.Not(b))),
    Or: lambda c, a, b: c.Implies(c.Not(a), b),
    EX: lambda c, a: c.Not(c.AX(c.Not(a))),
    AF: lambda c, a: c.AU(c.Top(), a),
    EF: lambda c, a: c.EU(c.Top(), a),
    AG: lambda c, a: c.Not(c.EU(c.Top(), c.Not(a))),
    EG: lambda c, a: c.Not(c.AU(c.Top(), c.Not(a))),
    Forall: lambda c, x, a: c.Not(c.Exists(x, c.Not(a))),
}
_CORE_NODES = SimpleNamespace(Top=Top, Not=Not, Implies=Implies, AX=AX, EU=EU, AU=AU, Exists=Exists)


# The deepest tree the parser builds, and the deepest core formula
# `expand_abbreviations` accepts; a node without operands is one level.
# Labelling, node equality, term evaluation and `pretty` take a frame per
# level: at this depth, under pytest, they need a recursion limit of about
# 450 of the default 1000.  Every formula that could be checked before this
# bound existed is at most about 330 deep.
MAX_DEPTH = 400


def check_depth(height: int) -> None:
    """Reject a core formula more than MAX_DEPTH levels high."""
    if height > MAX_DEPTH:
        raise GalcheckError(
            f"formula is nested too deeply (more than {MAX_DEPTH} levels once abbreviations are expanded)"
        )


def expand_abbreviations(f: Formula) -> Formula:
    """Rewrite to the core connectives, without recursion.

    Core: true, player atoms, predicates, equality, !, ->, AX, E[.U.],
    A[.U.], exists.  Everything else rewrites by the usual identities:
    false = !true, a & b = !(a -> !b), a | b = !a -> b, EX a = !AX !a,
    AF a = A[true U a], EF a = E[true U a], AG a = !E[true U !a],
    EG a = !A[true U !a], forall x a = !exists x !a.

    A core formula deeper than MAX_DEPTH is rejected with "formula is
    nested too deeply".
    """
    core: dict[int, Formula] = {}  # id of a formula node -> its core form
    for x, ops in post_order(f, Formula):
        new = [core.get(id(y), y) for y in ops]  # a term is its own core form
        rewrite = ABBREVIATIONS.get(type(x))
        if rewrite is not None:
            y = rewrite(_CORE_NODES, *new)
        else:
            y = rebuild(x, new) if any(map(is_not, new, ops)) else x
        check_depth(y._height)
        core[id(x)] = y
    return core[id(f)]


_NO_NAMES: frozenset[str] = frozenset()


def well_formed(f: Formula, sig: Signature, build: Callable | None = None):
    """Raise if `f` uses undeclared identifiers, breaks a profile, or
    rebinds a variable along one quantifier path.

    This is where arities and sorts are checked; the parser leaves them to
    it.  Each node is checked after its operands, without recursion.  With
    `build`, the same walk also calls `build(x, [what it returned for each
    operand of x])` on each node once it passes, and returns what it
    returned for `f`; `checker.check_all` compiles the formula this way.
    """
    # id of a node -> (its sort if a term, the names its quantifiers bind, what `build` returned)
    done: dict[int, tuple] = {}
    for x, xs in post_order(f):
        ops = [done[id(y)] for y in xs]
        cls, sort, names = x.__class__, None, _NO_NAMES
        if cls is Var:
            if x.sort not in sig.sorts:
                raise SortError(f"variable {x.name!r} has undeclared sort {x.sort!r}")
            sort = x.sort
        elif cls is App or cls is Pred:
            kind, name, decls = (
                ("function", x.func, sig.functions) if cls is App else ("predicate", x.name, sig.predicates)
            )
            decl = decls.get(name)
            if decl is None:
                raise UnknownIdentifierError(f"unknown {kind} {name!r}")
            if len(ops) != len(decl.args):
                raise SortError(f"{kind} {name!r} expects {len(decl.args)} arguments, got {len(ops)}")
            for op, want in zip(ops, decl.args):
                if op[0] != want:
                    raise SortError(f"argument of {name!r} has sort {op[0]!r}, expected {want!r}")
            if cls is App:
                sort = decl.result
        elif cls is DomainConst:
            if x.sort not in sig.sorts:
                raise UnknownIdentifierError(f"unknown sort {x.sort!r}")
            if x.index < 0:
                raise SortError(f"negative domain index in #{x.sort}:{x.index}")
            sort = x.sort
        elif cls is Eq:
            left, right = ops[0][0], ops[1][0]
            if left is None or left != right:
                raise SortError(f"equality between sorts {left!r} and {right!r}")
        elif cls is PlayerAtom:
            if x.player not in sig.players:
                raise UnknownIdentifierError(f"unknown player {x.player!r}")
        elif cls is Exists or cls is Forall:
            body = ops[1]
            if body[0] is not None:
                raise TypeError(f"a term in formula position: {x!r}")
            if x.var.name in body[1]:
                raise SortError(f"variable {x.var.name!r} bound twice on one quantifier path")
            names = body[1] | {x.var.name}
        else:
            for op in ops:
                if op[0] is not None:
                    raise TypeError(f"a term in formula position: {x!r}")
                if op[1]:
                    names = names | op[1]
        done[id(x)] = sort, names, build(x, [op[2] for op in ops]) if build else None
    sort, _, built = done[id(f)]
    if sort is not None:
        raise TypeError(f"not a formula: {f!r}")
    return built


# --------------------------------------------------------------------------- #
# Printer

# "!", atoms and untils bind tighter than any binary operator; prefixes and binders are 0
_TIGHT = 1 + max(level for _, level, _ in SYNTAX["binary"].values())


def _pretty_term(t: Term, bound: frozenset[str]) -> str:
    if isinstance(t, Var):
        return t.name if t.name in bound else f"{t.name}:{t.sort}"
    if isinstance(t, DomainConst):
        return f"#{t.sort}:{t.index}"
    if not t.args:
        return t.func
    # map, not a comprehension: one frame per level of a deep term
    return f"{t.func}({', '.join(map(_pretty_term, t.args, repeat(bound)))})"


def pretty(f: Formula) -> str:
    """Surface syntax for a formula; reparses to a structurally equal tree."""

    def go(g: Formula, min_level: int, bound: frozenset[str]) -> str:
        """`g`, in parentheses if it binds more loosely than `min_level`."""
        cls, level = g.__class__, _TIGHT
        kind, entry = _ENTRIES.get(cls, (None, None))
        if kind == "binary":
            word, level, side = entry
            right = side == "right"  # on `side`, an operand may be another `word` unparenthesised
            text = f"{go(g.left, level + right, bound)} {word} {go(g.right, level + (not right), bound)}"
        elif kind == "prefix":
            text, level = f"{entry} {go(g.body, 0, bound)}", 0
        elif kind == "binder":
            text, level = f"{entry} {g.var.name}:{g.var.sort} . {go(g.body, 0, bound | {g.var.name})}", 0
        elif kind == "until":
            text = f"{entry}[{go(g.left, 0, bound)} U {go(g.right, 0, bound)}]"
        elif kind == "constant":
            text = entry
        elif cls is Not:
            text = f"!{go(g.body, _TIGHT, bound)}"
        elif cls is PlayerAtom:
            text = f"@{g.player}"
        elif cls is Pred:
            text = f"{g.name}({', '.join(_pretty_term(a, bound) for a in g.args)})" if g.args else g.name
        elif cls is Eq:
            text = f"{_pretty_term(g.left, bound)} = {_pretty_term(g.right, bound)}"
        else:
            raise TypeError(f"not a formula: {g!r}")
        return f"({text})" if level < min_level else text

    return go(f, 0, frozenset())


# --------------------------------------------------------------------------- #
# Lexer / parser

# A token takes the whitespace after it, and the scan starts after any leading whitespace.
_TOKEN_RE = re.compile(
    r"""
    (?: (?P<IDENT>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<NUM>[0-9]+)
      | (?P<ARROW>->)
      | (?P<SYM>[()\[\],.:=!&|@\#])
      | (?P<BAD>.)
    ) \s*
    """,
    re.VERBOSE | re.DOTALL,
)


class _Tok(NamedTuple):
    kind: str  # IDENT NUM ARROW SYM EOF
    value: str
    pos: int


def _lex(text: str) -> list[_Tok]:
    toks = []
    for m in _TOKEN_RE.finditer(text, len(text) - len(text.lstrip())):
        kind = m.lastgroup
        if kind == "BAD":
            raise ParseError(f"unexpected character {m[kind]!r}", m.start())
        toks.append(_Tok(kind, m[kind], m.start()))
    toks.append(_Tok("EOF", "", len(text)))
    return toks


# A binary operator's word -> (its class, what it closes after an operand:
# "!" and each operator that binds tighter, or as tightly and groups left).
_CLOSED_BY = {
    word: (cls, ("!", *(w for w, lvl, side in SYNTAX["binary"].values() if lvl + (side == "left") > level)))
    for cls, (word, level, _) in SYNTAX["binary"].items()
}
_NOT_BINARY = (None, ("!", *_CLOSED_BY))  # any other token closes all of them


class _Parser:
    """One loop over the tokens with a stack of the open constructs, so no
    method recurses (operator precedence, after Pratt 1973)."""

    def __init__(self, text: str, sig: Signature):
        self.sig = sig
        self.toks = _lex(text)
        self.i = 0
        # Names already present anywhere; used to pick fresh names when a
        # shadowed binder is renamed.
        self.used = set(sig.names).union(t.value for t in self.toks if t.kind == "IDENT")
        self.free: dict[str, Var] = {}

    def next(self) -> _Tok:
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, value: str, what: str | None = None) -> None:
        t = self.next()
        if t.value != value:
            raise ParseError(f"found {t.value or 'end of input'!r}", t.pos, what or repr(value))

    def eat_sym(self, value: str) -> bool:
        # A symbol's token is its text, which no identifier or number is.
        if self.toks[self.i].value == value:
            self.i += 1
            return True
        return False

    def sort(self) -> str:
        t = self.next()
        if t.value not in self.sig.sorts:
            raise UnknownIdentifierError(f"unknown sort {t.value!r}")
        return t.value

    def node(self, pos: int, cls: type, *ops) -> Formula:
        """`cls(*ops)`; deeper than MAX_DEPTH, a ParseError at `pos`."""
        f = cls(*ops)
        if f._height > MAX_DEPTH:
            raise ParseError("formula is nested too deeply", pos)
        return f

    def parse(self) -> Formula:
        # The open constructs, innermost last, each (what closes it, where it
        # starts, its node class, its operands so far, the scope outside it):
        # "!" and a binary operator once an operand follows, a prefix or
        # binder (None) when its formula ends, "(" at ")", and E[ or A[ at
        # "U" and then at "]".
        stack: list[tuple] = []
        scope: dict[str, Var] = {}
        while True:
            while True:  # open the prefixes of one unary
                t = self.next()
                kind, cls = _WORDS.get(t.value, (None, None))
                if t.value == "!":
                    stack.append(("!", t.pos, Not, (), scope))
                elif t.value == "(":
                    stack.append((")", t.pos, None, (), scope))
                elif kind == "prefix":
                    stack.append((None, t.pos, cls, (), scope))
                elif kind == "until" and self.eat_sym("["):
                    stack.append(("U", t.pos, cls, (), scope))
                elif kind == "binder":
                    var, inner = self.binder(scope)
                    stack.append((None, t.pos, cls, (var,), scope))
                    scope = inner
                else:  # `t` starts the atom
                    break
            f = cls() if kind == "constant" else self.atom(t, scope)
            while True:  # close what `f` completes, up to the next operand
                t = self.toks[self.i]
                cls, closes = _CLOSED_BY.get(t.value, _NOT_BINARY)
                while stack and stack[-1][0] in closes:
                    _, pos, op, ops, _ = stack.pop()
                    f = self.node(pos, op, *ops, f)
                if cls:
                    self.i += 1
                    stack.append((t.value, t.pos, cls, (f,), scope))
                    break
                if not stack:  # `f` is the whole formula
                    if t.kind != "EOF":
                        raise ParseError(f"trailing input {t.value!r}", t.pos)
                    return f
                closer, pos, cls, ops, scope = stack.pop()  # it opened the formula `f`
                if closer == "U":
                    self.expect("U", "'U' between the until operands")
                    stack.append(("]", pos, cls, (f,), scope))
                    break
                if closer:
                    self.expect(closer)
                if cls:
                    f = self.node(pos, cls, *ops, f)

    def binder(self, scope: dict[str, Var]) -> tuple[Var, dict[str, Var]]:
        """Read `x:S .` after a quantifier: its variable, renamed if it would
        be bound twice or capture a free variable, and its body's scope."""
        t = self.next()
        if t.kind != "IDENT":
            raise ParseError(f"found {t.value or 'end of input'!r}", t.pos, "a variable name")
        name = t.value
        if name in RESERVED_WORDS:
            raise ParseError(f"{name!r} is a reserved word", t.pos)
        if name in self.sig.names:
            raise ParseError(f"variable {name!r} collides with a declared symbol", t.pos)
        self.expect(":")
        sort = self.sort()
        self.expect(".")
        var = Var(name, sort)
        if name in scope or name in self.free:
            # No variable may be bound twice on one quantifier path, and a
            # binder must not capture an annotated free variable: rename.
            k = 2
            while f"{name}_{k}" in self.used:
                k += 1
            var = Var(f"{name}_{k}", sort)
            self.used.add(var.name)
        return var, {**scope, name: var}

    def atom(self, t: _Tok, scope: dict[str, Var]) -> Formula:
        """The atom that starts with the token `t`, already read; `parse` reads constants."""
        if t.value == "@":
            p = self.next()
            if p.kind not in ("IDENT", "NUM"):
                raise ParseError(f"found {p.value or 'end of input'!r}", p.pos, "a player id after '@'")
            if p.value not in self.sig.players:
                raise UnknownIdentifierError(f"unknown player {p.value!r}")
            return PlayerAtom(p.value)
        if t.value in self.sig.predicates:
            return self.node(t.pos, Pred, t.value, self.args(scope) if self.eat_sym("(") else ())
        # Otherwise this must be an equality between terms.
        self.i -= 1
        left = self.term(scope)
        eq = self.next()
        if eq.value != "=":
            raise ParseError(f"found {eq.value or 'end of input'!r}", eq.pos, "'=' after a term")
        return self.node(t.pos, Eq, left, self.term(scope))

    def term(self, scope: dict[str, Var]) -> Term:
        x = self.head(scope)
        return App(x, self.args(scope)) if x.__class__ is str else x

    def args(self, scope: dict[str, Var]) -> tuple[Term, ...]:
        """The terms after a "(", up to its ")"; each application open among
        them waits on a stack, with the list it joins."""
        if self.eat_sym(")"):
            return ()
        stack, args = [], []
        while True:
            x = self.head(scope)
            if x.__class__ is str:
                if not self.eat_sym(")"):
                    stack.append((x, args))
                    args = []
                    continue
                x = App(x, ())
            args.append(x)
            while not self.eat_sym(","):
                self.expect(")")
                if not stack:
                    return tuple(args)
                name, outer = stack.pop()
                outer.append(App(name, tuple(args)))
                args = outer

    def head(self, scope: dict[str, Var]) -> Term | str:
        """One term, or the name of a function after it has read its "("."""
        t = self.next()
        if t.value == "#":
            sort = self.sort()
            self.expect(":")
            num = self.next()
            if num.kind != "NUM":
                raise ParseError(f"found {num.value or 'end of input'!r}", num.pos, "a domain index")
            try:
                return DomainConst(sort, int(num.value))
            except ValueError:  # more digits than Python converts
                raise ParseError("domain index has too many digits", num.pos) from None
        name = t.value
        if t.kind != "IDENT":
            raise ParseError(f"found {name or 'end of input'!r}", t.pos, "a term")
        if name in RESERVED_WORDS:
            raise ParseError(f"{name!r} is a reserved word", t.pos, "a term")
        if name in self.sig.functions:
            return name if self.eat_sym("(") else App(name, ())
        annotated = self.eat_sym(":")
        if name in scope:
            if annotated:
                raise ParseError(f"variable {name!r} is already bound; drop the annotation", t.pos)
            return scope[name]
        if annotated:
            sort = self.sort()
            if name in self.sig.names:
                raise ParseError(f"variable {name!r} collides with a declared symbol", t.pos)
            prev = self.free.get(name)
            if prev is not None and prev.sort != sort:
                raise SortError(f"free variable {name!r} annotated with sorts {prev.sort!r} and {sort!r}")
            self.free[name] = Var(name, sort)
        if name in self.free:
            return self.free[name]
        raise UnknownIdentifierError(f"unknown identifier {name!r}")


def parse_formula(text: str, sig: Signature) -> Formula:
    """Parse surface syntax against a signature.

    Raises ParseError (with the offending position), SortError, or
    UnknownIdentifierError.  Free variables must carry a sort annotation on
    first use; binders that would shadow an enclosing binder are renamed.
    The parser resolves names; `well_formed` checks arities and sorts on
    the finished tree.  The parser recurses nowhere, so MAX_DEPTH is the
    one bound on nesting: a tree deeper than that as written (parentheses
    add no level), whose core form is at least as deep, is a ParseError,
    "formula is nested too deeply", raised before any sort error.
    """
    f = _Parser(text, sig).parse()
    well_formed(f, sig)
    return f
