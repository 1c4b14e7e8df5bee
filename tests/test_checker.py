import gc
import itertools
import random
import weakref

import pytest

from galcheck.checker import (
    LabelStore,
    check,
    check_all,
    holds_at,
    label_key,
    verify_exists,
    verify_implies,
    verify_not,
    verify_player,
    verify_predicate,
)
from galcheck.errors import BindingError, GalcheckError, InterpretationError, ValidationError
from galcheck.extensive import (
    EquilibriumConcept,
    enumerate_equilibria,
    ne_formula,
    oracle_equilibria,
    profile_valuation,
    profiles,
    spe_formula,
    to_gal_structure,
)
from galcheck.logic import (
    AU,
    AX,
    EU,
    And,
    App,
    Bottom,
    DomainConst,
    Eq,
    Exists,
    Implies,
    MAX_DEPTH,
    Not,
    PlayerAtom,
    Pred,
    Top,
    Var,
    free_variables,
    parse_formula,
)
from galcheck.structure import GalStructure, table_provider

from _helpers import (
    random_formula,
    random_game,
    random_structure,
    run_identity_suite,
    run_path_oracle_suite,
)


def sat(g, f, v=None):
    return check(g, f, v).states


# --------------------------------------------------------------------------- #
# Base cases on the worked example


def test_check_player_atom(example_structure):
    assert sat(example_structure, PlayerAtom("1")) == {"()"}
    assert sat(example_structure, PlayerAtom("2")) == {"(A)"}


def test_check_true_everywhere(example_structure):
    assert sat(example_structure, Top()) == set(example_structure.states)


def test_check_ex_true_is_nondeadlock(example_structure):
    f = parse_formula("EX true", example_structure.sig)
    assert sat(example_structure, f) == {"()", "(A)"}


def test_equality_marks_single_history(example_structure):
    # h = (A) exactly at the state for history (A); (A) is H index 1
    f = Eq(App("h"), DomainConst("H", 1))
    assert sat(example_structure, f) == {"(A)"}


def test_equality_reflexive_everywhere(example_structure):
    f = Eq(App("h"), App("h"))
    assert sat(example_structure, f) == set(example_structure.states)


def test_rigid_constants_difference(example_structure):
    f = Eq(DomainConst("U", 0), DomainConst("U", 1))
    assert sat(example_structure, f) == set()


def test_onpath_prefixes_of_outcome(example_structure, example_game):
    # under profile (<A>, <R>) the outcome is (A,R); its prefixes are marked
    f = Pred("onpath", (App("h"), App("O", (Var("v1", "S1"), Var("v2", "S2")))))
    v = {
        Var("v1", "S1"): example_structure.element("S1", "<A>"),
        Var("v2", "S2"): example_structure.element("S2", "<R>"),
    }
    assert sat(example_structure, f, v) == {"()", "(A)", "(A,R)"}


def test_ax_at_root_fails_for_player2(example_structure):
    # (B) has no players, so AX @2 fails at the root
    f = AX(PlayerAtom("2"))
    assert "()" not in sat(example_structure, f)


def test_ax_vacuous_at_deadlock(example_structure):
    f = AX(Bottom())
    assert {"(A,L)", "(A,R)", "(B)"} <= sat(example_structure, f)


def test_ax_everywhere_when_body_everywhere(example_structure):
    assert sat(example_structure, AX(Top())) == set(example_structure.states)


def test_eu_contains_goal_states(example_structure):
    f = EU(Bottom(), PlayerAtom("2"))
    assert sat(example_structure, f) == {"(A)"}


def test_eu_reachability(example_structure):
    # reach the (A,L) terminal: H index 2 in preorder ((), (A), (A,L), ...)
    f = parse_formula("E[true U h = #H:2]", example_structure.sig)
    assert sat(example_structure, f) == {"()", "(A)", "(A,L)"}


def test_eu_deadlock_needs_goal_now(example_structure):
    f = EU(Top(), PlayerAtom("2"))
    assert "(B)" not in sat(example_structure, f)
    assert "(A)" in sat(example_structure, f)


def test_au_deadlock_iff_goal_now(example_structure):
    f = AU(Top(), PlayerAtom("2"))
    assert "(B)" not in sat(example_structure, f)
    assert "(A)" in sat(example_structure, f)


def test_au_cycle_never_reaching_goal():
    from galcheck.logic import PredDecl, Signature

    sig = Signature(sorts=set(), functions={}, predicates={"q": PredDecl(())}, players=())
    fun_eval, pred_eval = table_provider({}, {"e0": {"q": set()}, "e1": {"q": set()}}, {}, {})
    g = GalStructure(sig, ["e0", "e1"], ["e0"], [("e0", "e1"), ("e1", "e0")], {}, {}, fun_eval, pred_eval)
    assert sat(g, AU(Top(), Pred("q"))) == set()
    # and the existential version also finds nothing: no path meets q
    assert sat(g, EU(Top(), Pred("q"))) == set()


def test_exists_singleton_domain_equals_instance(example_structure):
    # exists v:S1 . h-independent predicate == union over the two strategies
    body = Pred("onpath", (App("h"), App("O", (Var("v", "S1"), Var("w", "S2")))))
    f = Exists(Var("v", "S1"), body)
    v = {Var("w", "S2"): example_structure.element("S2", "<L>")}
    # O(<A>,<L>) = (A,L), O(<B>,<L>) = (B): union of prefix sets
    assert sat(example_structure, f, v) == {"()", "(A)", "(A,L)", "(B)"}


def test_exists_witness_at_history_A(example_structure):
    # from (A): some reply keeps player 1's payoff at least as good as <R>
    text = "exists v:S2 . ge(u1(O_h(h, #S1:0, v)), u1(O_h(h, #S1:0, #S2:1)))"
    f = parse_formula(text, example_structure.sig)
    assert "(A)" in sat(example_structure, f)


def test_false_nowhere(example_structure):
    assert sat(example_structure, Bottom()) == set()
    assert not holds_at(example_structure, "()", Bottom())


# --------------------------------------------------------------------------- #
# Equilibrium formulas at the root (worked example)


def test_spe_formula_valuations(example_structure, example_game):
    f = spe_formula(example_game)
    good = {"v1": "<A>", "v2": "<R>"}
    bad = {"v1": "<B>", "v2": "<L>"}

    def valuation(labels):
        return {
            Var("v1", "S1"): example_structure.element("S1", labels["v1"]),
            Var("v2", "S2"): example_structure.element("S2", labels["v2"]),
        }

    assert holds_at(example_structure, "()", f, valuation(good))
    assert not holds_at(example_structure, "()", f, valuation(bad))


def test_ne_formula_valuations(example_structure, example_game):
    f = ne_formula(example_game)
    for labels, expected in [
        (("<A>", "<R>"), True),
        (("<B>", "<L>"), True),
        (("<A>", "<L>"), False),
        (("<B>", "<R>"), False),
    ]:
        v = {
            Var("v1", "S1"): example_structure.element("S1", labels[0]),
            Var("v2", "S2"): example_structure.element("S2", labels[1]),
        }
        assert holds_at(example_structure, "()", f, v) is expected


# --------------------------------------------------------------------------- #
# Driver errors


def test_check_requires_bindings(example_structure):
    f = Pred("onpath", (App("h"), App("O", (Var("v1", "S1"), Var("v2", "S2")))))
    with pytest.raises(BindingError):
        check(example_structure, f)


def test_check_rejects_foreign_element(example_structure):
    from galcheck.logic import DomainElem

    f = Eq(Var("v", "U"), Var("v", "U"))
    with pytest.raises(BindingError):
        check(example_structure, f, {Var("v", "U"): DomainElem("U", "nope", 0)})


def test_check_rejects_invalid_structure():
    from galcheck.logic import PredDecl, Signature

    sig = Signature(sorts=set(), functions={}, predicates={}, players=("1",))
    fun_eval, pred_eval = table_provider({}, {}, {}, {})
    g = GalStructure(sig, ["e0"], ["e0"], [], {}, {"e0": ["1"]}, fun_eval, pred_eval)
    with pytest.raises(ValidationError):
        check(g, Top())


# --------------------------------------------------------------------------- #
# Individual labeling steps, driven by hand


def test_verify_player_marks(example_structure):
    store = LabelStore()
    verify_player(example_structure, "2", store)
    key = label_key(PlayerAtom("2"), {})
    assert store.get(key) == frozenset({example_structure.state_index("(A)")})


def test_verify_not_and_implies_are_set_ops():
    rng = random.Random(3)
    g = random_structure(rng, max_states=8)
    a, b = Pred("q"), Pred("pr", (App("r"),))
    store = LabelStore()
    sa = verify_predicate(g, a, {}, store)
    sb = verify_predicate(g, b, {}, store)
    universe = frozenset(range(len(g.states)))
    assert verify_not(g, Not(a), {}, store) == universe - sa
    assert verify_implies(g, Implies(a, b), {}, store) == (universe - sa) | sb


def test_verify_exists_requires_instances(example_structure):
    store = LabelStore()
    f = Exists(Var("v", "S1"), Pred("onpath", (App("h"), App("O", (Var("v", "S1"), Var("w", "S2"))))))
    with pytest.raises(KeyError):
        verify_exists(example_structure, f, {Var("w", "S2"): example_structure.element("S2", "<L>")}, store)


def test_store_is_monotone(example_structure):
    store = LabelStore()
    first = verify_player(example_structure, "1", store)
    again = verify_player(example_structure, "1", store)
    assert first == again and len(store) == 1


def test_store_rejects_conflicting_put():
    store = LabelStore()
    key = label_key(Top(), {})
    store.put(key, frozenset({0, 1}))
    with pytest.raises(RuntimeError, match="monotone"):
        store.put(key, frozenset({0}))


# --------------------------------------------------------------------------- #
# Property suites (randomized, seeded)


def test_semantic_identities_sample():
    rng = random.Random(2024)
    structures = [random_structure(rng, max_states=10) for _ in range(15)]
    run_identity_suite(structures, 2, rng)


def test_path_semantics_oracle_sample():
    rng = random.Random(77)
    structures = [random_structure(rng, max_states=8) for _ in range(15)]
    run_path_oracle_suite(structures, 3, rng)


def test_checker_matches_naive_reference_evaluator():
    # differential test of the whole pipeline (expansion, labeling,
    # fixpoints, grounding) against the satisfaction relation written
    # directly over enumerated maximal paths
    from _helpers import naive_holds

    rng = random.Random(31337)
    for _ in range(60):
        g = random_structure(rng, max_states=6)
        f = random_formula(rng, g, depth=3)
        got = sat(g, f)
        for e in g.states:
            assert (e in got) == naive_holds(g, e, f, {}), (f, e)


def _round_based_eu(g, alpha, beta):
    """Reference fixpoint by whole-set rounds; also checks monotone growth
    and termination within |states| rounds."""
    succ = g.successor_indices()
    a = {g.state_index(e) for e in alpha}
    z = {g.state_index(e) for e in beta}
    for _ in range(len(g.states) + 1):
        grown = z | {k for k in a if any(s in z for s in succ[k])}
        assert grown >= z
        if grown == z:
            return {g.states[k] for k in z}
        z = grown
    raise AssertionError("fixpoint did not stabilize within |states| rounds")


def _round_based_au(g, alpha, beta):
    succ = g.successor_indices()
    a = {g.state_index(e) for e in alpha}
    z = {g.state_index(e) for e in beta}
    for _ in range(len(g.states) + 1):
        grown = z | {k for k in a if succ[k] and all(s in z for s in succ[k])}
        assert grown >= z
        if grown == z:
            return {g.states[k] for k in z}
        z = grown
    raise AssertionError("fixpoint did not stabilize within |states| rounds")


def test_fixpoints_match_round_based_reference():
    rng = random.Random(909)
    for _ in range(40):
        g = random_structure(rng, max_states=12)
        a = random_formula(rng, g, depth=1)
        b = random_formula(rng, g, depth=1)
        alpha, beta = sat(g, a), sat(g, b)
        assert sat(g, EU(a, b)) == _round_based_eu(g, alpha, beta)
        assert sat(g, AU(a, b)) == _round_based_au(g, alpha, beta)


def test_order_independence():
    rng = random.Random(4242)
    for _ in range(10):
        g = random_structure(rng, max_states=8)
        f = random_formula(rng, g, depth=3)
        baseline = sat(g, f)
        for _ in range(3):
            perm = list(g.states)
            rng.shuffle(perm)
            acts = list(g.actions)
            rng.shuffle(acts)
            g2 = GalStructure(
                sig=g.sig,
                states=perm,
                initial=g.initial,
                actions=acts,
                domains={s: [e.label for e in elems] for s, elems in g.domains.items()},
                players_at=g.players_at,
                fun_eval=g.interp.fun_eval,
                pred_eval=g.interp.pred_eval,
            )
            assert sat(g2, f) == baseline


def _chain_structure(n):
    """A chain with doubling shortcuts: |actions| ~ 2n, q at the end, p on
    even states.  Used only for the scaling diagnostic."""
    from galcheck.logic import PredDecl, Signature

    states = [f"e{k}" for k in range(n)]
    actions = [(f"e{k}", f"e{k + 1}") for k in range(n - 1)]
    actions += [(f"e{k}", f"e{(2 * k) % n}") for k in range(0, n, 3)]
    sig = Signature(sorts=set(), functions={}, predicates={"p": PredDecl(()), "q": PredDecl(())}, players=())
    state_preds = {
        f"e{k}": {"q": {()} if k == n - 1 else set(), "p": {()} if k % 2 == 0 else set()}
        for k in range(n)
    }
    fun_eval, pred_eval = table_provider({}, state_preds, {}, {})
    return GalStructure(sig, states, [states[0]], actions, {}, {}, fun_eval, pred_eval)


def test_cost_grows_at_most_linearly_in_graph_size():
    # diagnostic from the complexity story: for a fixed formula, runtime per
    # (state + action) stays within 3x across doubling structure sizes
    sizes = [1500, 3000, 6000]
    per_unit = []
    for n in sizes:
        g = _chain_structure(n)
        f = parse_formula("E[p U q] | A[true U q] | AX p", g.sig)
        millis = min(check(g, f).stats.millis for _ in range(3))
        per_unit.append(millis / (len(g.states) + len(g.actions)))
    for small, big in zip(per_unit, per_unit[1:]):
        assert big <= 3.0 * small, per_unit


def test_stats_count_subformulas(example_structure):
    out = check(example_structure, parse_formula("E[true U @2]", example_structure.sig))
    assert out.stats.states == 5
    assert out.stats.actions == 4
    assert out.stats.subformulas == 3  # true, @2, E[true U @2]
    assert out.stats.millis >= 0


def test_formulas_agree_with_definitions_per_profile(example_structure, example_game):
    spe = spe_formula(example_game)
    ne = ne_formula(example_game)
    labels = []
    for s in profiles(example_game):
        v = profile_valuation(example_structure, example_game, s)
        if holds_at(example_structure, "()", ne, v):
            labels.append(s.labels)
        assert holds_at(example_structure, "()", spe, v) == (s.labels == ("<A>", "<R>"))
    assert labels == [("<A>", "<R>"), ("<B>", "<L>")]


# --------------------------------------------------------------------------- #
# check_all: one pass over many valuations, against check per valuation


def _all_valuations(g, variables):
    combos = itertools.product(*(g.domains[x.sort] for x in variables))
    return [dict(zip(variables, elems)) for elems in combos]


def _assert_same_as_check(g, f, valuations):
    together = check_all(g, f, valuations)
    assert len(together) == len(valuations)
    for v, got in zip(valuations, together):
        alone = check(g, f, v)
        assert got.states == alone.states, (f, v)
        assert got.valuation == alone.valuation
        assert got.stats.subformulas <= alone.stats.subformulas  # instances labeled


def test_check_all_matches_check_on_hand_built_structure(example_structure):
    # an Eq atom, Var arguments, and a #S:i literal, under every profile
    v1, v2 = Var("v1", "S1"), Var("v2", "S2")
    text = (
        "h = #H:1 | onpath(h, O(v1:S1, v2:S2)) & exists w:S1 . O(w, v2) = O(v1, v2)"
        " | E[true U u1(O_h(h, v1, v2)) = #U:2]"
    )
    f = parse_formula(text, example_structure.sig)
    _assert_same_as_check(example_structure, f, _all_valuations(example_structure, [v1, v2]))


def test_check_all_matches_check_on_random_formulas():
    rng = random.Random(8128)
    for _ in range(40):
        g = random_structure(rng, max_states=8)
        free = [Var(f"y{k}", rng.choice(sorted(g.domains))) for k in range(rng.randint(0, 2))]
        f = random_formula(rng, g, depth=3, scope=free)
        _assert_same_as_check(g, f, _all_valuations(g, free))


def _chain(make, k, f):
    for _ in range(k):
        f = make(f)
    return f


def _nots(f, k):
    return _chain(Not, k, f)


def test_check_all_not_chains_match_check():
    # `!` chains of odd and even length at every operand position that
    # check_all folds into an edge, with free variables left by `exists`
    rng = random.Random(2718)
    for _ in range(12):
        g = random_structure(rng, max_states=8)
        y, z = (Var(name, rng.choice(sorted(g.domains))) for name in ("y", "z"))
        a, b = (random_formula(rng, g, depth=2, scope=[y, z]) for _ in range(2))
        for k in (1, 2, 3):
            na, nb = _nots(a, k), _nots(b, k)
            for f in (
                na,
                Implies(na, b), Implies(a, nb),
                EU(na, b), EU(a, nb),
                AU(na, b), AU(a, nb),
                AX(na),
                Exists(y, na), _nots(Exists(y, Implies(a, nb)), k),
            ):
                valuations = _all_valuations(g, sorted(free_variables(f), key=lambda v: v.name))
                _assert_same_as_check(g, f, valuations)
                at = g.states[:1]
                for v, got in zip(valuations, check_all(g, f, valuations, at=at)):
                    assert got.states == check(g, f, v).states & set(at), (f, v)


def test_checked_formulas_are_not_kept_alive(example_structure):
    # No memo outlives a call: once the caller drops a formula, nothing in
    # the package holds it.  Each call gets a formula built for it alone.
    g = example_structure
    calls = (
        lambda f: check(g, f),
        lambda f: check(g, f, {}),
        lambda f: check_all(g, f, [{}, {}]),
        lambda f: check_all(g, f, [{}], at=["()"]),
        lambda f: holds_at(g, "()", f),
    )
    for k, call in enumerate(calls):
        f = Implies(PlayerAtom("2"), _nots(EU(Top(), PlayerAtom("1")), 40 + k))
        ref = weakref.ref(f)
        call(f)
        del f
        gc.collect()
        assert ref() is None, k


def test_check_all_at_restricts_to_the_focus_states():
    # cyclic structures and deadlocks, free variables, random nonempty focus sets
    rng = random.Random(6174)
    for _ in range(48):
        g = random_structure(rng, max_states=10)
        free = [Var(f"y{k}", rng.choice(sorted(g.domains))) for k in range(rng.randint(0, 2))]
        f = random_formula(rng, g, depth=4, scope=free)
        valuations = _all_valuations(g, free)
        focus = rng.sample(g.states, rng.randint(1, len(g.states)))
        full = check_all(g, f, valuations)
        for v, whole, part in zip(valuations, full, check_all(g, f, valuations, at=focus)):
            assert part.states == whole.states & set(focus), (f, v, focus)
            assert part.valuation == whole.valuation
            assert part.stats.subformulas <= whole.stats.subformulas


def test_check_all_at_rejects_unknown_state(example_structure):
    with pytest.raises(ValueError, match="unknown state id"):
        check_all(example_structure, Top(), [{}], at=["()", "(Z)"])


def test_check_all_at_root_labels_fewer_instances(example_structure, example_game):
    ne = ne_formula(example_game)
    found = {}
    for s in profiles(example_game):
        v = profile_valuation(example_structure, example_game, s)
        sat = check_all(example_structure, ne, [v], at=["()"])[0]
        alone = check(example_structure, ne, v)
        assert sat.states == alone.states & {"()"}
        assert sat.stats.subformulas <= alone.stats.subformulas
        found[s.labels] = sat.stats.subformulas < alone.stats.subformulas
    # the outcome path of (B, L) never reaches player 2's move, so player 2's
    # no-gain instances are never labeled
    assert found[("<B>", "<L>")]


def test_check_all_equilibria_match_holds_at_and_oracle():
    rng = random.Random(4096)
    for _ in range(12):
        game = random_game(rng)
        gs = to_gal_structure(game)
        root = gs.initial[0]
        candidates = list(profiles(game))
        valuations = [profile_valuation(gs, game, s) for s in candidates]
        for concept in EquilibriumConcept:
            f = spe_formula(game) if concept is EquilibriumConcept.SPE else ne_formula(game)
            sats = check_all(gs, f, valuations)
            for v, sat in zip(valuations, sats):
                assert (root in sat.states) == holds_at(gs, root, f, v)
            found = enumerate_equilibria(game, concept)
            assert found == [s for s, sat in zip(candidates, sats) if root in sat.states]
            assert found == oracle_equilibria(game, concept)


def test_formulas_at_the_depth_bound_answer_and_deeper_ones_are_rejected(example_structure):
    g = example_structure
    atom = PlayerAtom("1")
    one, rest = frozenset(["()"]), frozenset(g.states) - {"()"}
    for n in (MAX_DEPTH - 2, MAX_DEPTH - 1):  # the deeper one is MAX_DEPTH levels
        f = _nots(atom, n)
        assert check(g, f).states == check_all(g, f, [{}])[0].states == (one if n % 2 == 0 else rest)
    # two equal but distinct chains, compared and interned without recursion
    k = MAX_DEPTH - 4  # a & b = !(a -> !b): three levels more
    f = And(_nots(atom, k), _nots(atom, k))
    assert check(g, f).states == check_all(g, f, [{}])[0].states == (one if k % 2 == 0 else rest)
    deep = (
        _nots(atom, 5000),
        _chain(AX, 5000, atom),
        _chain(lambda f: Implies(atom, f), 5000, atom),
        _chain(lambda f: Exists(Var(f"y{id(f)}", "S1"), f), 5000, atom),
    )
    for f in deep:
        with pytest.raises(GalcheckError, match="formula is nested too deeply"):
            check(g, f)
        with pytest.raises(GalcheckError, match="formula is nested too deeply"):
            check_all(g, f, [{}], at=["()"])


def test_check_all_raises_what_check_raises(example_structure):
    onpath = Pred("onpath", (App("h"), App("O", (Var("v1", "S1"), Var("v2", "S2")))))
    with pytest.raises(BindingError) as alone:
        check(example_structure, onpath)
    with pytest.raises(BindingError) as together:
        check_all(example_structure, onpath, [{}])
    assert str(together.value) == str(alone.value)

    out_of_range = Eq(App("h"), DomainConst("H", 99))
    with pytest.raises(InterpretationError) as alone:
        check(example_structure, out_of_range)
    with pytest.raises(InterpretationError) as together:
        check_all(example_structure, out_of_range, [{}])
    assert str(together.value) == str(alone.value)
    # literals are checked up front, also where no care set reaches them
    unreached = Implies(Bottom(), out_of_range)
    with pytest.raises(InterpretationError) as together:
        check_all(example_structure, unreached, [{}], at=["()"])
    assert str(together.value) == str(alone.value)
