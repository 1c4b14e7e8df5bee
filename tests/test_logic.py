import random

import pytest

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
    FormulaMetrics,
    FuncDecl,
    Implies,
    MAX_DEPTH,
    Not,
    Or,
    PlayerAtom,
    Pred,
    PredDecl,
    Signature,
    Top,
    Var,
    expand_abbreviations,
    free_variable_map,
    free_variables,
    metrics,
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


def test_parse_pathological_nesting_is_a_parse_error(sig):
    with pytest.raises(ParseError):
        parse_formula("(" * 5000 + "true" + ")" * 5000, sig)


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


def test_substitute_sort_mismatch():
    with pytest.raises(SortError):
        substitute(Pred("p", (Var("x", "S"),)), Var("x", "S"), DomainElem("H", "()", 0))


# --------------------------------------------------------------------------- #
# Metrics


def test_metrics_examples(sig):
    assert metrics(parse_formula("AG winX", sig)) == FormulaMetrics(1, 0)
    assert metrics(Pred("p", (App("a"),))) == FormulaMetrics(0, 0)
    assert metrics(parse_formula("forall x:S . EX p(x)", sig)) == FormulaMetrics(1, 1)


def test_metrics_counts_on_core_form(sig):
    # EF adds one until; EX adds one AX; exists counted directly
    f = parse_formula("EF EX exists x:S . p(x)", sig)
    assert metrics(f) == FormulaMetrics(2, 1)


def test_metrics_equal_connective_recount():
    rng = random.Random(55)
    for _ in range(120):
        g = random_structure(rng, max_states=3)
        f = random_formula(rng, g, depth=4)
        core = expand_abbreviations(f)

        def recount(node):
            if isinstance(node, (AX,)):
                m, q = recount(node.body)
                return m + 1, q
            if isinstance(node, (EU, AU)):
                lm, lq = recount(node.left)
                rm, rq = recount(node.right)
                return lm + rm + 1, lq + rq
            if isinstance(node, Exists):
                m, q = recount(node.body)
                return m, q + 1
            if isinstance(node, Not):
                return recount(node.body)
            if isinstance(node, Implies):
                lm, lq = recount(node.left)
                rm, rq = recount(node.right)
                return lm + rm, lq + rq
            return 0, 0

        assert metrics(f) == FormulaMetrics(*recount(core))


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


# --------------------------------------------------------------------------- #
# Signature hygiene


def test_signature_rejects_namespace_clash():
    with pytest.raises(SortError):
        Signature(sorts={"S"}, functions={"S": FuncDecl((), "S")})
    with pytest.raises(SortError):
        Signature(sorts={"S"}, predicates={"q": PredDecl(())}, players=("q",))


def test_signature_rejects_undeclared_profile_sort():
    with pytest.raises(SortError):
        Signature(sorts={"S"}, functions={"f": FuncDecl(("T",), "S")})


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
    x, body = Var("x", "S"), Pred("p", (Var("x", "S"),))
    with pytest.raises(SortError, match="'x' bound twice on one quantifier path"):
        well_formed(Exists(x, Not(Forall(x, body))), sig)
    well_formed(And(Exists(x, body), Forall(x, body)), sig)  # siblings may reuse a name


def test_parse_reports_the_sort_errors_of_well_formed(sig):
    with pytest.raises(SortError, match="has sort 'H', expected 'S'"):
        parse_formula("winX & p(g(h))", sig)
    with pytest.raises(SortError, match="expects 0 arguments, got 1"):
        parse_formula("h(a) = h", sig)
