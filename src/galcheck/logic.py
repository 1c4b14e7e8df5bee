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

Precedence: ! > & > | > -> (right-associative); prefix modalities and
quantifiers bind their whole suffix.  A bare identifier in formula position
is a 0-ary predicate.  A free (valuation-bound) variable is written with a
sort annotation `x:S`; later occurrences may omit it.  `#S:3` denotes the
fourth element of sort S's domain enumeration; such literals are normally
introduced only by substitution.

Nodes store their hash and height when built, so neither recurses.
`free_variables`, `expand_abbreviations` and `well_formed` walk without
recursion, keyed by node id, and cache nothing between calls.  Expansion
rejects a core formula deeper than MAX_DEPTH, which keeps what recurses
after it (labelling, node equality, term evaluation, `pretty`) within
Python's recursion limit.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields, replace
from itertools import repeat
from operator import attrgetter, is_not
from typing import Iterable, Mapping, Union

from .errors import GalcheckError, ParseError, SortError, UnknownIdentifierError

# --------------------------------------------------------------------------- #
# Signature

# E, A, and U are contextual (E/A only introduce an until when followed by
# '['; U only separates the two until operands), so they stay declarable.
RESERVED_WORDS = frozenset(
    {"true", "false", "exists", "forall", "EX", "AX", "EF", "AF", "EG", "AG"}
)

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
        names: dict[str, str] = {}
        for kind, group in (
            ("sort", self.sorts),
            ("function", self.functions),
            ("predicate", self.predicates),
            ("player", self.players),
        ):
            for name in group:
                if name in names:
                    raise SortError(f"name {name!r} declared as both {names[name]} and {kind}")
                names[name] = kind
        for name in set(self.sorts) | set(self.functions) | set(self.predicates):
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
        # Only C code runs here: the parser builds nodes at its deepest
        # frames.  The fields are all that `__dict__` holds yet.
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
    xs, ys = operands(a), operands(b)
    if a._hash != b._hash or len(xs) != len(ys):
        return False
    if not xs:  # only names, sorts and indices: no node to recurse into
        return a.__dict__ == b.__dict__
    if attributes(a) != attributes(b):
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


@dataclass(frozen=True)
class FormulaMetrics:
    modal_count: int
    quantifier_count: int


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


def substitute(f: Formula, x: Var, d: DomainElem) -> Formula:
    """Replace free occurrences of `x` by the ground literal for `d`.

    The result is canonical: structurally equal substitution results compare
    equal, which makes them usable as labeling keys.
    """
    if d.sort != x.sort:
        raise SortError(f"cannot substitute {d.sort} element for variable of sort {x.sort}")
    c = DomainConst(d.sort, d.index)

    def go(y: Formula | Term) -> Formula | Term:
        if y == x:
            return c
        ops = operands(y)
        if not ops or isinstance(y, (Exists, Forall)) and y.var == x:
            return y
        return rebuild(y, [go(z) for z in ops])

    return go(f)


# Each abbreviation's core form, given its operands already expanded.
_ABBREVIATIONS = {
    Bottom: lambda: Not(Top()),
    And: lambda a, b: Not(Implies(a, Not(b))),
    Or: lambda a, b: Implies(Not(a), b),
    EX: lambda a: Not(AX(Not(a))),
    AF: lambda a: AU(Top(), a),
    EF: lambda a: EU(Top(), a),
    AG: lambda a: Not(EU(Top(), Not(a))),
    EG: lambda a: Not(AU(Top(), Not(a))),
    Forall: lambda x, a: Not(Exists(x, Not(a))),
}


# The deepest core formula `expand_abbreviations` accepts; a node without
# operands is one level.  Labelling, node equality, term evaluation and
# `pretty` take a frame per level: at this depth, under pytest, they need a
# recursion limit of about 450 of the default 1000.  Every formula that
# could be checked before this bound existed is at most about 330 deep.
MAX_DEPTH = 400


def expand_abbreviations(f: Formula) -> Formula:
    """Rewrite to the core connectives, without recursion.

    Core: true, player atoms, predicates, equality, !, ->, AX, E[.U.],
    A[.U.], exists.  Everything else rewrites by the usual identities:
    false = !true, a & b = !(a -> !b), a | b = !a -> b, EX a = !AX !a,
    AF a = A[true U a], EF a = E[true U a], AG a = !E[true U !a],
    EG a = !A[true U !a], forall x a = !exists x !a.

    Both labellers start here; a core formula deeper than MAX_DEPTH is
    rejected with "formula is nested too deeply".
    """
    core: dict[int, Formula] = {}  # id of a formula node -> its core form
    for x, ops in post_order(f, Formula):
        new = [core.get(id(y), y) for y in ops]  # a term is its own core form
        rewrite = _ABBREVIATIONS.get(type(x))
        if rewrite is not None:
            y = rewrite(*new)
        else:
            y = rebuild(x, new) if any(map(is_not, new, ops)) else x
        if y._height > MAX_DEPTH:
            raise GalcheckError(
                f"formula is nested too deeply (more than {MAX_DEPTH} levels once abbreviations are expanded)"
            )
        core[id(x)] = y
    return core[id(f)]


def metrics(f: Formula) -> FormulaMetrics:
    """Modal and quantifier connective counts of the expanded core form."""
    modal = 0
    quant = 0
    stack = [expand_abbreviations(f)]
    while stack:
        g = stack.pop()
        if isinstance(g, (AX, EU, AU)):
            modal += 1
        elif isinstance(g, Exists):
            quant += 1
        stack.extend(operands(g))
    return FormulaMetrics(modal, quant)


_NO_NAMES: frozenset[str] = frozenset()


def well_formed(f: Formula, sig: Signature) -> None:
    """Raise if `f` uses undeclared identifiers, breaks a profile, or
    rebinds a variable along one quantifier path.

    This is where arities and sorts are checked; the parser leaves them to
    it.  Each node is checked after its operands, without recursion.
    """
    sorts: dict[int, str | None] = {}  # id of a node -> its sort if a term, None if a formula
    binds: dict[int, frozenset[str]] = {}  # id of a formula -> the names its quantifiers bind
    for x, ops in post_order(f):
        got = [sorts[id(y)] for y in ops]
        if isinstance(x, Var):
            if x.sort not in sig.sorts:
                raise SortError(f"variable {x.name!r} has undeclared sort {x.sort!r}")
            sorts[id(x)] = x.sort
            continue
        if isinstance(x, DomainConst):
            if x.sort not in sig.sorts:
                raise UnknownIdentifierError(f"unknown sort {x.sort!r}")
            if x.index < 0:
                raise SortError(f"negative domain index in #{x.sort}:{x.index}")
            sorts[id(x)] = x.sort
            continue
        names = _NO_NAMES
        if isinstance(x, (App, Pred)):
            kind, name, decls = (
                ("function", x.func, sig.functions) if isinstance(x, App)
                else ("predicate", x.name, sig.predicates)
            )
            decl = decls.get(name)
            if decl is None:
                raise UnknownIdentifierError(f"unknown {kind} {name!r}")
            if len(got) != len(decl.args):
                raise SortError(f"{kind} {name!r} expects {len(decl.args)} arguments, got {len(got)}")
            for have, want in zip(got, decl.args):
                if have != want:
                    raise SortError(f"argument of {name!r} has sort {have!r}, expected {want!r}")
            if isinstance(x, App):
                sorts[id(x)] = decl.result
                continue
        elif isinstance(x, Eq):
            if got[0] is None or got[0] != got[1]:
                raise SortError(f"equality between sorts {got[0]!r} and {got[1]!r}")
        elif isinstance(x, PlayerAtom):
            if x.player not in sig.players:
                raise UnknownIdentifierError(f"unknown player {x.player!r}")
        elif any(got[1:] if isinstance(x, (Exists, Forall)) else got):
            raise TypeError(f"a term in formula position: {x!r}")
        elif isinstance(x, (Exists, Forall)):
            names = binds[id(x.body)]
            if x.var.name in names:
                raise SortError(f"variable {x.var.name!r} bound twice on one quantifier path")
            names = names | {x.var.name}
        elif ops:
            names = frozenset().union(*[binds[id(y)] for y in ops])
        sorts[id(x)], binds[id(x)] = None, names
    if sorts[id(f)] is not None:
        raise TypeError(f"not a formula: {f!r}")


# --------------------------------------------------------------------------- #
# Printer

_LVL_IMPLIES = 1
_LVL_OR = 2
_LVL_AND = 3
_LVL_NOT = 4
_LVL_ATOM = 5

_MODALITY_WORD = {EX: "EX", AX: "AX", EF: "EF", AF: "AF", EG: "EG", AG: "AG"}


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
        if isinstance(g, Top):
            text, level = "true", _LVL_ATOM
        elif isinstance(g, Bottom):
            text, level = "false", _LVL_ATOM
        elif isinstance(g, PlayerAtom):
            text, level = f"@{g.player}", _LVL_ATOM
        elif isinstance(g, Pred):
            args = ", ".join(_pretty_term(a, bound) for a in g.args)
            text, level = (f"{g.name}({args})" if g.args else g.name), _LVL_ATOM
        elif isinstance(g, Eq):
            text, level = f"{_pretty_term(g.left, bound)} = {_pretty_term(g.right, bound)}", _LVL_ATOM
        elif isinstance(g, Not):
            text, level = f"!{go(g.body, _LVL_NOT, bound)}", _LVL_NOT
        elif isinstance(g, And):
            text, level = f"{go(g.left, _LVL_AND, bound)} & {go(g.right, _LVL_AND + 1, bound)}", _LVL_AND
        elif isinstance(g, Or):
            text, level = f"{go(g.left, _LVL_OR, bound)} | {go(g.right, _LVL_OR + 1, bound)}", _LVL_OR
        elif isinstance(g, Implies):
            left, right = go(g.left, _LVL_IMPLIES + 1, bound), go(g.right, _LVL_IMPLIES, bound)
            text, level = f"{left} -> {right}", _LVL_IMPLIES
        elif isinstance(g, (EX, AX, EF, AF, EG, AG)):
            text, level = f"{_MODALITY_WORD[type(g)]} {go(g.body, 0, bound)}", 0
        elif isinstance(g, EU):
            text, level = f"E[{go(g.left, 0, bound)} U {go(g.right, 0, bound)}]", _LVL_ATOM
        elif isinstance(g, AU):
            text, level = f"A[{go(g.left, 0, bound)} U {go(g.right, 0, bound)}]", _LVL_ATOM
        elif isinstance(g, Exists):
            text, level = f"exists {g.var.name}:{g.var.sort} . {go(g.body, 0, bound | {g.var.name})}", 0
        elif isinstance(g, Forall):
            text, level = f"forall {g.var.name}:{g.var.sort} . {go(g.body, 0, bound | {g.var.name})}", 0
        else:
            raise TypeError(f"not a formula: {g!r}")
        return f"({text})" if level < min_level else text

    return go(f, 0, frozenset())


# --------------------------------------------------------------------------- #
# Lexer / parser

_TOKEN_RE = re.compile(
    r"""
    (?P<WS>\s+)
  | (?P<IDENT>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<NUM>[0-9]+)
  | (?P<ARROW>->)
  | (?P<SYM>[()\[\],.:=!&|@\#])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Tok:
    kind: str  # IDENT NUM ARROW SYM EOF
    value: str
    pos: int


def _lex(text: str) -> list[_Tok]:
    toks = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "WS":
            toks.append(_Tok(m.lastgroup, m.group(), pos))
        pos = m.end()
    toks.append(_Tok("EOF", "", len(text)))
    return toks


class _Parser:
    def __init__(self, text: str, sig: Signature):
        self.sig = sig
        self.toks = _lex(text)
        self.i = 0
        # Names already present anywhere; used to pick fresh names when a
        # shadowed binder is renamed.
        self.used = {t.value for t in self.toks if t.kind == "IDENT"}
        self.used |= sig.sorts | set(sig.functions) | set(sig.predicates) | set(sig.players)
        self.free: dict[str, Var] = {}

    # -- token helpers ------------------------------------------------------

    def peek(self) -> _Tok:
        return self.toks[self.i]

    def next(self) -> _Tok:
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, value: str, what: str | None = None) -> _Tok:
        t = self.next()
        if t.value != value:
            raise ParseError(f"found {t.value or 'end of input'!r}", t.pos, what or repr(value))
        return t

    def at_sym(self, value: str) -> bool:
        t = self.peek()
        return t.kind in ("SYM", "ARROW") and t.value == value

    def eat_sym(self, value: str) -> bool:
        if self.at_sym(value):
            self.i += 1
            return True
        return False

    # -- grammar ------------------------------------------------------------

    def parse(self) -> Formula:
        f = self.formula({})
        t = self.peek()
        if t.kind != "EOF":
            raise ParseError(f"trailing input {t.value!r}", t.pos)
        return f

    def formula(self, scope: dict[str, Var]) -> Formula:
        left = self.disjunction(scope)
        if self.eat_sym("->"):
            return Implies(left, self.formula(scope))
        return left

    def disjunction(self, scope: dict[str, Var]) -> Formula:
        f = self.conjunction(scope)
        while self.eat_sym("|"):
            f = Or(f, self.conjunction(scope))
        return f

    def conjunction(self, scope: dict[str, Var]) -> Formula:
        f = self.unary(scope)
        while self.eat_sym("&"):
            f = And(f, self.unary(scope))
        return f

    def unary(self, scope: dict[str, Var]) -> Formula:
        t = self.peek()
        if self.eat_sym("!"):
            return Not(self.unary(scope))
        if t.kind == "IDENT":
            word = t.value
            if word in ("EX", "AX", "EF", "AF", "EG", "AG"):
                self.next()
                body = self.formula(scope)  # modalities bind their whole suffix
                return {"EX": EX, "AX": AX, "EF": EF, "AF": AF, "EG": EG, "AG": AG}[word](body)
            if word in ("E", "A") and self.toks[self.i + 1].value == "[":
                self.next()
                self.expect("[")
                left = self.formula(scope)
                self.expect("U", "'U' between the until operands")
                right = self.formula(scope)
                self.expect("]")
                return EU(left, right) if word == "E" else AU(left, right)
            if word in ("exists", "forall"):
                return self.quantifier(scope)
        return self.atom(scope)

    def quantifier(self, scope: dict[str, Var]) -> Formula:
        kw = self.next().value
        name_tok = self.next()
        if name_tok.kind != "IDENT":
            raise ParseError(f"found {name_tok.value!r}", name_tok.pos, "a variable name")
        name = name_tok.value
        if name in RESERVED_WORDS:
            raise ParseError(f"{name!r} is a reserved word", name_tok.pos)
        if self._declared(name):
            raise ParseError(f"variable {name!r} collides with a declared symbol", name_tok.pos)
        self.expect(":")
        sort_tok = self.next()
        if sort_tok.kind != "IDENT" or sort_tok.value not in self.sig.sorts:
            raise UnknownIdentifierError(f"unknown sort {sort_tok.value!r}")
        self.expect(".")
        bound_name = name
        if name in scope or name in self.free:
            # No variable may be bound twice on one quantifier path, and a
            # binder must not capture an annotated free variable: rename.
            k = 2
            while f"{name}_{k}" in self.used:
                k += 1
            bound_name = f"{name}_{k}"
            self.used.add(bound_name)
        var = Var(bound_name, sort_tok.value)
        inner = dict(scope)
        inner[name] = var
        body = self.formula(inner)
        return Exists(var, body) if kw == "exists" else Forall(var, body)

    def atom(self, scope: dict[str, Var]) -> Formula:
        t = self.peek()
        if self.eat_sym("("):
            f = self.formula(scope)
            self.expect(")")
            return f
        if self.eat_sym("@"):
            p = self.next()
            if p.kind not in ("IDENT", "NUM"):
                raise ParseError(f"found {p.value!r}", p.pos, "a player id after '@'")
            if p.value not in self.sig.players:
                raise UnknownIdentifierError(f"unknown player {p.value!r}")
            return PlayerAtom(p.value)
        if t.kind == "IDENT" and t.value == "true":
            self.next()
            return Top()
        if t.kind == "IDENT" and t.value == "false":
            self.next()
            return Bottom()
        if t.kind == "IDENT" and t.value in self.sig.predicates:
            name = self.next().value
            return Pred(name, self.term_list(scope) if self.at_sym("(") else ())
        # Otherwise this must be an equality between terms.
        left = self.term(scope)
        eq = self.next()
        if eq.value != "=":
            raise ParseError(f"found {eq.value or 'end of input'!r}", eq.pos, "'=' after a term")
        return Eq(left, self.term(scope))

    def term_list(self, scope: dict[str, Var]) -> tuple[Term, ...]:
        self.expect("(")
        if self.eat_sym(")"):
            return ()
        args = [self.term(scope)]
        while self.eat_sym(","):
            args.append(self.term(scope))
        self.expect(")")
        return tuple(args)

    def term(self, scope: dict[str, Var]) -> Term:
        t = self.peek()
        if self.eat_sym("#"):
            sort_tok = self.next()
            if sort_tok.kind != "IDENT" or sort_tok.value not in self.sig.sorts:
                raise UnknownIdentifierError(f"unknown sort {sort_tok.value!r}")
            self.expect(":")
            num = self.next()
            if num.kind != "NUM":
                raise ParseError(f"found {num.value!r}", num.pos, "a domain index")
            return DomainConst(sort_tok.value, int(num.value))
        if t.kind != "IDENT":
            raise ParseError(f"found {t.value or 'end of input'!r}", t.pos, "a term")
        if t.value in RESERVED_WORDS:
            raise ParseError(f"{t.value!r} is a reserved word", t.pos, "a term")
        name = self.next().value
        if name in self.sig.functions:
            return App(name, self.term_list(scope) if self.at_sym("(") else ())
        if name in scope:
            if self.at_sym(":"):
                raise ParseError(f"variable {name!r} is already bound; drop the annotation", t.pos)
            return scope[name]
        if self.at_sym(":"):
            self.next()
            sort_tok = self.next()
            if sort_tok.kind != "IDENT" or sort_tok.value not in self.sig.sorts:
                raise UnknownIdentifierError(f"unknown sort {sort_tok.value!r}")
            if self._declared(name):
                raise ParseError(f"variable {name!r} collides with a declared symbol", t.pos)
            prev = self.free.get(name)
            if prev is not None and prev.sort != sort_tok.value:
                raise SortError(f"free variable {name!r} annotated with sorts {prev.sort!r} and {sort_tok.value!r}")
            var = Var(name, sort_tok.value)
            self.free[name] = var
            return var
        if name in self.free:
            return self.free[name]
        raise UnknownIdentifierError(f"unknown identifier {name!r}")

    def _declared(self, name: str) -> bool:
        return (
            name in self.sig.sorts
            or name in self.sig.functions
            or name in self.sig.predicates
            or name in self.sig.players
        )


def parse_formula(text: str, sig: Signature) -> Formula:
    """Parse surface syntax against a signature.

    Raises ParseError (with the offending position), SortError, or
    UnknownIdentifierError.  Free variables must carry a sort annotation on
    first use; binders that would shadow an enclosing binder are renamed.
    The parser resolves names; `well_formed` checks arities and sorts on
    the finished tree.  The parser recurses, and input that nests too deep
    for it is a ParseError, "formula is nested too deeply".
    """
    parser = _Parser(text, sig)
    try:
        f = parser.parse()
    except RecursionError:
        raise ParseError("formula is nested too deeply", parser.peek().pos) from None
    well_formed(f, sig)
    return f
