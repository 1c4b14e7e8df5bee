import inspect
import os
import random
import subprocess
import sys

import pytest

from galcheck.cli import main
from galcheck.errors import GalcheckError, ParseError, SortError, UnknownIdentifierError
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
    DomainElem,
    Eq,
    Exists,
    Forall,
    Formula,
    FuncDecl,
    Implies,
    MAX_DEPTH,
    Not,
    Or,
    PlayerAtom,
    Pred,
    PredDecl,
    SYNTAX,
    Signature,
    Top,
    Var,
    expand_abbreviations,
    free_variable_map,
    free_variables,
    parse_formula,
    pretty,
    substitute,
    well_formed,
)

from _helpers import random_formula, random_structure


@pytest.fixture(scope="module")
def sig():
    return Signature(
        sorts={"S", "S2", "H"},
        functions={
            "a": FuncDecl((), "S", rigid=True),
            "b": FuncDecl((), "S", rigid=True),
            "h": FuncDecl((), "H"),
            "g": FuncDecl(("S",), "S"),
            "u1": FuncDecl(("H",), "S"),
        },
        predicates={
            "p": PredDecl(("S",)),
            "ge": PredDecl(("S", "S"), rigid=True),
            "winX": PredDecl(()),
            "Draw": PredDecl(()),
        },
        players=("1", "2"),
    )


# --------------------------------------------------------------------------- #
# Parsing


def test_parse_always_win_or_draw(sig):
    f = parse_formula("AF (winX | Draw)", sig)
    assert f == AF(Or(Pred("winX"), Pred("Draw")))


def test_parse_true_literal(sig):
    assert parse_formula("true", sig) == Top()
    assert parse_formula("false", sig) == Bottom()


def test_parse_unknown_sort_is_unknown_identifier(sig):
    with pytest.raises(UnknownIdentifierError):
        parse_formula("exists x:Nope . p(x)", sig)


def test_parse_unknown_predicate(sig):
    with pytest.raises(UnknownIdentifierError):
        parse_formula("nosuch(a)", sig)


def test_parse_player_atom(sig):
    assert parse_formula("@1", sig) == PlayerAtom("1")
    with pytest.raises(UnknownIdentifierError):
        parse_formula("@3", sig)


def test_parse_precedence_chain(sig):
    f = parse_formula("!winX & Draw | p(a) -> @1", sig)
    assert f == Implies(Or(And(Not(Pred("winX")), Pred("Draw")), Pred("p", (App("a"),))), PlayerAtom("1"))


def test_implies_right_associative(sig):
    f = parse_formula("winX -> Draw -> @2", sig)
    assert f == Implies(Pred("winX"), Implies(Pred("Draw"), PlayerAtom("2")))


def test_modality_binds_whole_suffix(sig):
    assert parse_formula("EX winX & Draw", sig) == EX(And(Pred("winX"), Pred("Draw")))
    assert parse_formula("(EX winX) & Draw", sig) == And(EX(Pred("winX")), Pred("Draw"))


def test_parse_until_forms(sig):
    f = parse_formula("E[winX U Draw] & A[true U @1]", sig)
    assert f == And(EU(Pred("winX"), Pred("Draw")), AU(Top(), PlayerAtom("1")))


def test_parse_equality_and_sort_mismatch(sig):
    assert parse_formula("a = b", sig) == Eq(App("a"), App("b"))
    with pytest.raises(SortError):
        parse_formula("a = h", sig)  # S vs H


def test_parse_arity_mismatch(sig):
    with pytest.raises(SortError):
        parse_formula("p(a, b)", sig)
    with pytest.raises(SortError):
        parse_formula("p(h)", sig)


def test_parse_free_variable_annotation(sig):
    f = parse_formula("p(v:S)", sig)
    assert f == Pred("p", (Var("v", "S"),))
    # later occurrences may omit the annotation
    f2 = parse_formula("p(v:S) & p(v)", sig)
    assert free_variables(f2) == {Var("v", "S")}
    with pytest.raises(SortError):
        parse_formula("p(v:S) & u1(v:H) = a", sig)


def test_parse_unannotated_free_variable_is_unknown(sig):
    with pytest.raises(UnknownIdentifierError):
        parse_formula("p(v)", sig)


def test_parse_domain_literal(sig):
    assert parse_formula("a = #S:2", sig) == Eq(App("a"), DomainConst("S", 2))


def test_parse_error_position(sig):
    with pytest.raises(ParseError) as err:
        parse_formula("winX &", sig)
    assert err.value.position == 6


def test_parse_reads_tabs_and_newlines_as_spaces(sig):
    assert parse_formula("\t\n winX\t&\n\n  ge(\ta ,b\t)  \n", sig) == parse_formula("winX & ge(a, b)", sig)
    for text, message in (
        ("  \t%", "at position 3: unexpected character '%'"),
        ("winX \n\t &  $ p(a)", "at position 11: unexpected character '$'"),
        ("winX &\t \n", "at position 9: found 'end of input' (expected a term)"),
        ("\n\n", "at position 2: found 'end of input' (expected a term)"),
    ):
        with pytest.raises(ParseError) as err:
            parse_formula(text, sig)
        assert str(err.value) == message


@pytest.mark.parametrize(
    "text, message",
    [
        ("@ & true", "at position 2: found '&' (expected a player id after '@')"),
        ("h = #H:x", "at position 7: found 'x' (expected a domain index)"),
        ("h = true", "at position 4: 'true' is a reserved word (expected a term)"),
        ("exists x:H . x:H = h", "at position 13: variable 'x' is already bound; drop the annotation"),
        # the end of input is named as every other parse error names it
        ("@", "at position 1: found 'end of input' (expected a player id after '@')"),
        ("exists", "at position 6: found 'end of input' (expected a variable name)"),
        ("h = #H:", "at position 7: found 'end of input' (expected a domain index)"),
    ],
)
def test_parse_errors_name_what_was_found(example_structure, example_structure_path, capsys, text, message):
    with pytest.raises(ParseError) as err:
        parse_formula(text, example_structure.sig)
    assert str(err.value) == message
    code = main(["check", "--model", str(example_structure_path), "--formula", text])
    assert (code, capsys.readouterr().err) == (2, f"error: {message}\n")


def test_parse_reads_empty_argument_lists_inside_arguments(sig, example_structure):
    on_path = "onpath(h{}, O(#S1:0, #S2:0))"
    assert parse_formula(on_path.format("()"), example_structure.sig) == parse_formula(
        on_path.format(""), example_structure.sig
    )
    assert parse_formula("ge(a(), g(b()))", sig) == parse_formula("ge(a, g(b))", sig)
    assert parse_formula("p(g(g(a())))", sig) == Pred("p", (App("g", (App("g", (App("a"),)),)),))


def test_parse_pathological_nesting_is_a_parse_error(sig):
    # MAX_DEPTH is the parser's only bound, and parentheses add no level
    assert parse_formula("(" * 5000 + "true" + ")" * 5000, sig) == Top()
    with pytest.raises(ParseError, match="formula is nested too deeply"):
        parse_formula("!" * 5000 + "true", sig)


def test_parse_rejects_a_tree_deeper_than_the_bound_as_written(sig):
    # a conjunction of n atoms is n levels high; the level past the bound
    # is reported at its operator
    assert parse_formula(" & ".join(["winX"] * MAX_DEPTH), sig)._height == MAX_DEPTH
    with pytest.raises(ParseError, match="formula is nested too deeply") as err:
        parse_formula(" & ".join(["winX"] * 1000), sig)
    assert err.value.position == len("winX & ") * MAX_DEPTH - 2
    assert parse_formula("!" * (MAX_DEPTH - 1) + "winX", sig)._height == MAX_DEPTH
    assert parse_formula("p(" + "g(" * (MAX_DEPTH - 2) + "a" + ")" * (MAX_DEPTH - 1), sig)._height == MAX_DEPTH
    for deep in ("!" * MAX_DEPTH + "winX", "p(" + "g(" * (MAX_DEPTH - 1) + "a" + ")" * MAX_DEPTH):
        with pytest.raises(ParseError, match="formula is nested too deeply"):
            parse_formula(deep, sig)
    with pytest.raises(ParseError, match="formula is nested too deeply"):  # before the sort error
        parse_formula("!" * MAX_DEPTH + "p(h)", sig)


def test_parse_keeps_no_frame_per_level(sig):
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 50)
    try:
        f = parse_formula("!" * (MAX_DEPTH - 1) + "(" * 5000 + "winX" + ")" * 5000, sig)
    finally:
        sys.setrecursionlimit(old)
    assert f._height == MAX_DEPTH


def test_shadowed_binder_renamed(sig):
    f = parse_formula("exists x:S . p(x) & exists x:S . p(x)", sig)
    assert isinstance(f, Exists)
    inner = f.body.right
    assert isinstance(inner, Exists)
    assert f.var.name == "x"
    assert inner.var.name != "x"  # renamed: never bound twice on one path
    assert inner.body == Pred("p", (inner.var,))
    well_formed(f, sig)


def test_binder_must_not_shadow_declared_symbol(sig):
    with pytest.raises(ParseError):
        parse_formula("exists a:S . p(a)", sig)


@pytest.fixture(scope="module")
def named_player_sig():
    return Signature(
        sorts={"S"},
        functions={"a": FuncDecl((), "S")},
        predicates={"p": PredDecl(()), "q": PredDecl(("S",))},
        players=("P",),
    )


@pytest.mark.parametrize("name", ["S", "p", "P"])  # a sort, a predicate, a player
@pytest.mark.parametrize("text", ["exists {0}:S . q({0})", "q({0}:S)"])
def test_variable_named_after_a_declared_symbol_is_a_parse_error(named_player_sig, name, text):
    with pytest.raises(ParseError, match=f"variable '{name}' collides with a declared symbol"):
        parse_formula(text.format(name), named_player_sig)


def test_renamed_binder_skips_every_declared_name():
    sig = Signature(
        sorts={"S", "x_5"},
        functions={"x_2": FuncDecl((), "S")},
        predicates={"x_3": PredDecl(()), "q": PredDecl(("S",))},
        players=("x_4",),
    )
    f = parse_formula("exists x:S . exists x:S . q(x)", sig)
    assert f.var.name == "x"
    assert f.body.var.name == "x_6"
    assert f.body.body == Pred("q", (f.body.var,))


def test_zero_ary_predicate_accepts_optional_parens(sig):
    assert parse_formula("winX()", sig) == Pred("winX")


# --------------------------------------------------------------------------- #
# Expansion


def test_expand_af_is_au(sig):
    alpha = Pred("winX")
    assert expand_abbreviations(AF(alpha)) == AU(Top(), alpha)


def test_expand_ax_is_identity(sig):
    alpha = Pred("winX")
    assert expand_abbreviations(AX(alpha)) == AX(alpha)


def test_expand_ag(sig):
    alpha = Pred("winX")
    assert expand_abbreviations(AG(alpha)) == Not(EU(Top(), Not(alpha)))


def test_expand_all_nine_identities():
    a, b = Pred("qa"), Pred("qb")
    x = Var("x", "s")
    cases = [
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
    for before, after in cases:
        assert expand_abbreviations(before) == after


def test_expand_idempotent_on_random_formulas():
    rng = random.Random(71)
    for _ in range(200):
        g = random_structure(rng, max_states=4)
        f = random_formula(rng, g, depth=4)
        once = expand_abbreviations(f)
        assert expand_abbreviations(once) == once


def _chain(make, n, leaf):
    for _ in range(n):
        leaf = make(leaf)
    return leaf


def test_expand_rejects_core_deeper_than_the_bound():
    # an atom, a variable or a literal is one level; each operator or
    # application above it is one more, counted after expansion
    assert expand_abbreviations(_chain(Not, MAX_DEPTH - 1, Top()))
    with pytest.raises(GalcheckError, match="formula is nested too deeply"):
        expand_abbreviations(_chain(Not, MAX_DEPTH, Top()))
    k = (MAX_DEPTH - 1) // 3  # EX a = !AX !a: three levels each
    assert expand_abbreviations(_chain(EX, k, Top()))
    with pytest.raises(GalcheckError, match="formula is nested too deeply"):
        expand_abbreviations(_chain(EX, k + 1, Top()))
    term = _chain(lambda t: App("g", (t,)), MAX_DEPTH - 2, Var("x", "S"))
    assert expand_abbreviations(Pred("p", (term,)))
    with pytest.raises(GalcheckError, match="formula is nested too deeply"):
        expand_abbreviations(Pred("p", (App("g", (term,)),)))


def test_deep_formulas_hash_and_walk_without_recursion(sig):
    x = Var("x", "S")
    for make in (Not, EX, AG, lambda f: And(f, Pred("winX")), lambda f: Implies(Pred("winX"), f)):
        f, same = (_chain(make, 5000, Pred("p", (x,))) for _ in range(2))
        other = _chain(make, 5000, Pred("p", (App("a"),)))
        assert f is not same and hash(f) == hash(same)
        assert f != other  # told apart by the stored hashes
        well_formed(f, sig)
        assert free_variables(f) == {x} and free_variables(other) == frozenset()
        with pytest.raises(GalcheckError, match="formula is nested too deeply"):
            expand_abbreviations(f)
    binders = Pred("p", (x,))
    for k in range(5000):
        binders = Forall(Var(f"y{k}", "S"), binders)
    assert free_variables(binders) == {x}
    well_formed(binders, sig)


def test_free_variable_map_covers_every_node(sig):
    x, y = Var("x", "S"), Var("y", "S")
    body = Pred("ge", (x, y))
    f = Exists(y, body)
    free = free_variable_map(f)
    assert free[id(f)] == {x} and free[id(body)] == {x, y} and free[id(y)] == {y}


def test_equal_but_distinct_formulas_compare_at_the_depth_bound():
    # equality recurses once per level; the labellers see at most MAX_DEPTH
    f, same = (_chain(Not, MAX_DEPTH - 1, Pred("p", (Var("x", "S"),))) for _ in range(2))
    assert f is not same and f == same


def test_nodes_compare_by_class_and_fields():
    assert Top() != Bottom() and hash(Top()) == hash(Bottom())
    assert Var("x", "S") != Var("x", "S2") and Var("x", "S") == Var("x", "S")
    assert App("g", (App("a"),)) != App("g", (App("b"),))
    assert Pred("p", ()) != Pred("p", (App("a"),))
    assert Not(Top()) != EX(Top()) and Not(Top()) != "!true"
    # CPython hashes -1 like -2, so these pairs share their stored hash and
    # only the fields tell them apart; an int name, which no parsed formula
    # has, makes the names themselves collide
    for cls in (App, Pred):
        a, b = cls("f", (DomainConst("S", -1),)), cls("f", (DomainConst("S", -2),))
        assert hash(a) == hash(b) and a != b and a == cls("f", (DomainConst("S", -1),))
        a, b = cls(-1, (Var("x", "S"),)), cls(-2, (Var("x", "S"),))
        assert hash(a) == hash(b) and a != b


# --------------------------------------------------------------------------- #
# Free variables and substitution


def test_free_variables_bound(sig):
    f = parse_formula("exists x:S . p(x)", sig)
    assert free_variables(f) == frozenset()


def test_free_variables_free(sig):
    assert free_variables(Pred("p", (Var("x", "S"),))) == {Var("x", "S")}


def test_free_variables_profile_comparison(sig):
    # ge(u1(...), u1(...)) with h a 0-ary function, not a variable
    v1, v2, w2 = Var("v1", "H"), Var("v2", "S"), Var("w2", "S")
    f = Pred("ge", (App("u1", (v1,)), App("g", (v2,))))
    g = Pred("ge", (App("u1", (v1,)), App("g", (w2,))))
    both = And(f, g)
    assert free_variables(both) == {v1, v2, w2}
    assert free_variables(Eq(App("h"), App("h"))) == frozenset()


def test_substitute_examples(sig):
    x = Var("x", "S")
    d = DomainElem("S", "a", 0)
    assert substitute(Pred("p", (x,)), x, d) == Pred("p", (DomainConst("S", 0),))
    bound = Exists(x, Pred("p", (x,)))
    assert substitute(bound, x, d) == bound
    mixed = Implies(Pred("p", (x,)), Exists(x, Pred("p", (x,))))
    assert substitute(mixed, x, d) == Implies(
        Pred("p", (DomainConst("S", 0),)), Exists(x, Pred("p", (x,)))
    )


def test_substitute_noop_when_not_free():
    rng = random.Random(9)
    for _ in range(100):
        g = random_structure(rng, max_states=3)
        f = random_formula(rng, g, depth=3)
        sort = sorted(g.domains)[0]
        x = Var("zz", sort)
        if x in free_variables(f):
            continue
        assert substitute(f, x, g.domains[sort][0]) == f


def test_substitute_deep_chain_without_recursion():
    x, d = Var("x", "S"), DomainElem("S", "a", 0)
    atom = Pred("p", (x,))
    f = _chain(Not, 5000, atom)
    got = substitute(f, x, d)
    for _ in range(5000):  # walk, not ==: equality of two chains recurses
        assert type(got) is Not
        got = got.body
    assert got == Pred("p", (DomainConst("S", 0),))
    assert substitute(f, Var("zz", "S"), d) is f  # unchanged nodes are kept
    bound = Implies(atom, Exists(x, atom))
    assert substitute(bound, x, d).right is bound.right


def test_substitute_sort_mismatch():
    with pytest.raises(SortError):
        substitute(Pred("p", (Var("x", "S"),)), Var("x", "S"), DomainElem("H", "()", 0))


# --------------------------------------------------------------------------- #
# Round-trip


def test_roundtrip_fixed_cases(sig):
    texts = [
        "AF (winX | Draw)",
        "E[winX U Draw] -> A[@1 U p(a)]",
        "exists x:S . p(x) & ge(x, a)",
        "forall y:S . (p(y) -> exists x:S . ge(x, y))",
        "!(@1 & @2) | winX",
        "ge(u1(h), v:S) & a = #S:1",
    ]
    for text in texts:
        f = parse_formula(text, sig)
        assert parse_formula(pretty(f), sig) == f


def test_roundtrip_random_formulas():
    rng = random.Random(1234)
    checked = 0
    for _ in range(300):
        g = random_structure(rng, max_states=3)
        f = random_formula(rng, g, depth=5)
        again = parse_formula(pretty(f), g.sig)
        assert again == f, pretty(f)
        checked += 1
    assert checked == 300


_P, _Q, _R = Pred("p"), Pred("q"), Pred("r")
_X = Var("x", "S")
_PQR_SIG = Signature(sorts={"S"}, predicates={n: PredDecl(()) for n in "pqr"})


def test_pretty_prints_each_construct_as_pinned():
    pinned = [
        (Top(), "true"),
        (Bottom(), "false"),
        (PlayerAtom("1"), "@1"),
        (Pred("winX"), "winX"),
        (Pred("ge", (App("u1", (App("h"),)), DomainConst("S", 2))), "ge(u1(h), #S:2)"),
        (Eq(App("a"), Var("v", "S")), "a = v:S"),
        (Not(_P), "!p"),
        (And(_P, _Q), "p & q"),
        (Or(_P, _Q), "p | q"),
        (Implies(_P, _Q), "p -> q"),
        (EX(_P), "EX p"),
        (AX(_P), "AX p"),
        (EF(_P), "EF p"),
        (AF(_P), "AF p"),
        (EG(_P), "EG p"),
        (AG(_P), "AG p"),
        (EU(_P, _Q), "E[p U q]"),
        (AU(_P, _Q), "A[p U q]"),
        (Exists(_X, Pred("p", (_X,))), "exists x:S . p(x)"),
        (Forall(_X, Eq(_X, App("a"))), "forall x:S . x = a"),
    ]
    assert [pretty(f) for f, _ in pinned] == [text for _, text in pinned]


def test_pretty_parenthesises_nested_binaries_as_pinned():
    ops = {"->": Implies, "|": Or, "&": And}
    # (outer, inner) -> (inner on the left, inner on the right)
    pinned = {
        ("->", "->"): ("(p -> q) -> r", "p -> q -> r"),
        ("->", "|"): ("p | q -> r", "p -> q | r"),
        ("->", "&"): ("p & q -> r", "p -> q & r"),
        ("|", "->"): ("(p -> q) | r", "p | (q -> r)"),
        ("|", "|"): ("p | q | r", "p | (q | r)"),
        ("|", "&"): ("p & q | r", "p | q & r"),
        ("&", "->"): ("(p -> q) & r", "p & (q -> r)"),
        ("&", "|"): ("(p | q) & r", "p & (q | r)"),
        ("&", "&"): ("p & q & r", "p & (q & r)"),
    }
    for (outer, inner), texts in pinned.items():
        out, inn = ops[outer], ops[inner]
        fs = (out(inn(_P, _Q), _R), out(_P, inn(_Q, _R)))
        assert tuple(map(pretty, fs)) == texts
        assert tuple(parse_formula(text, _PQR_SIG) for text in texts) == fs


def test_pretty_parenthesises_prefixes_and_binders_as_pinned():
    pinned = [
        (Implies(_P, Exists(_X, _Q)), "p -> (exists x:S . q)"),
        (Or(_P, Forall(_X, _Q)), "p | (forall x:S . q)"),
        (Not(EX(_P)), "!(EX p)"),
        (Not(Exists(_X, _Q)), "!(exists x:S . q)"),
        (And(EX(_P), _Q), "(EX p) & q"),
        (EX(And(_P, _Q)), "EX p & q"),
        (Not(And(_P, _Q)), "!(p & q)"),
        (And(Not(_P), _Q), "!p & q"),
        (Not(AU(_P, _Q)), "!A[p U q]"),
        (And(_P, EU(_Q, Or(_P, _R))), "p & E[q U p | r]"),
    ]
    for f, text in pinned:
        assert pretty(f) == text
        assert parse_formula(text, _PQR_SIG) == f


def test_every_compound_formula_class_sits_in_one_syntax_table():
    # the parser and `pretty` both read SYNTAX: a compound class missing from
    # it, or in two sections, has been taught to one of them alone
    compound = set(Formula.__subclasses__()) - {PlayerAtom, Pred, Eq, Not}
    for cls in compound:
        assert sum(cls in section for section in SYNTAX.values()) == 1, cls
    assert {cls for section in SYNTAX.values() for cls in section} == compound


# --------------------------------------------------------------------------- #
# Signature hygiene


def test_signature_rejects_namespace_clash():
    with pytest.raises(SortError):
        Signature(sorts={"S"}, functions={"S": FuncDecl((), "S")})
    with pytest.raises(SortError):
        Signature(sorts={"S"}, predicates={"q": PredDecl(())}, players=("q",))


def test_signature_reports_the_first_bad_name_in_sorted_order():
    # set order follows string hashes, which change from process to process
    code = (
        "from galcheck.logic import Signature\n"
        "try:\n"
        "    Signature({'T,T', 'U,U', 'S'}, {}, {}, ())\n"
        "except Exception as exc:\n"
        "    print(type(exc).__name__, exc)\n"
    )
    messages = set()
    for seed in ("0", "1"):
        env = {**os.environ, "PYTHONHASHSEED": seed}
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
        messages.add(proc.stdout)
    assert messages == {"SortError 'T,T' is not a valid identifier\n"}


def test_signature_rejects_undeclared_profile_sort():
    with pytest.raises(SortError):
        Signature(sorts={"S"}, functions={"f": FuncDecl(("T",), "S")})
    with pytest.raises(SortError, match="^predicate 'p' mentions undeclared sort 'T'$"):
        Signature(sorts={"S"}, predicates={"p": PredDecl(("S", "T"))})


def test_signature_rejects_a_reserved_word_as_a_name():
    with pytest.raises(SortError, match="^'exists' is a reserved word$"):
        Signature(sorts={"exists"})


def test_well_formed_rejects_bad_player(sig):
    with pytest.raises(UnknownIdentifierError):
        well_formed(PlayerAtom("9"), sig)


def test_well_formed_checks_arity_and_sorts_of_built_trees(sig):
    with pytest.raises(SortError, match="expects 1 arguments, got 2"):
        well_formed(Pred("p", (App("a"), App("b"))), sig)
    with pytest.raises(SortError, match="has sort 'H', expected 'S'"):
        well_formed(Pred("p", (App("g", (App("h"),)),)), sig)
    with pytest.raises(SortError, match="equality between sorts 'S' and 'H'"):
        well_formed(Eq(App("a"), App("h")), sig)
    with pytest.raises(TypeError):
        well_formed(Not(Var("x", "S")), sig)
    with pytest.raises(TypeError, match="^a term in formula position: Exists"):
        well_formed(Exists(Var("x", "S"), App("a")), sig)
    with pytest.raises(TypeError, match="^not a formula: App"):
        well_formed(App("a"), sig)
    with pytest.raises(TypeError, match="^not a formula: App"):
        pretty(Not(App("a")))
    x, body = Var("x", "S"), Pred("p", (Var("x", "S"),))
    with pytest.raises(SortError, match="'x' bound twice on one quantifier path"):
        well_formed(Exists(x, Not(Forall(x, body))), sig)
    well_formed(And(Exists(x, body), Forall(x, body)), sig)  # siblings may reuse a name


def test_parse_reports_the_sort_errors_of_well_formed(sig):
    with pytest.raises(SortError, match="has sort 'H', expected 'S'"):
        parse_formula("winX & p(g(h))", sig)
    with pytest.raises(SortError, match="expects 0 arguments, got 1"):
        parse_formula("h(a) = h", sig)
