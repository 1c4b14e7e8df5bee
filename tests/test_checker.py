import gc
import itertools
import random
import tracemalloc
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
    ExtensiveGame,
    decision,
    enumerate_equilibria,
    ne_formula,
    oracle_equilibria,
    profile_count,
    profile_valuation,
    profiles,
    spe_formula,
    terminal,
    to_gal_structure,
)
from galcheck.logic import (
    AG,
    AU,
    AX,
    EU,
    EX,
    And,
    App,
    Bottom,
    DomainConst,
    Eq,
    Exists,
    Forall,
    Implies,
    MAX_DEPTH,
    Not,
    Or,
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
    # an invalid structure cannot be built, so it never reaches the checker
    with pytest.raises(ValidationError) as err:
        GalStructure(sig, ["e0"], ["e0"], [], {}, {"e0": ["1"]}, fun_eval, pred_eval)
    assert err.value.violations == ["state 'e0' has players ['1'] but no outgoing action"]


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


def test_checker_matches_naive_reference_evaluator_on_open_formulas():
    # the same oracle under every valuation of one or two free variables
    # (binders are named x<k>, so y0 and y1 stay free), for `check` and for
    # one `check_all` call over all the valuations
    from _helpers import naive_holds

    rng = random.Random(27182)
    opened = 0
    while opened < 60:
        g = random_structure(rng, max_states=6)
        free = [Var(f"y{k}", rng.choice(sorted(g.domains))) for k in range(rng.randint(1, 2))]
        f = random_formula(rng, g, depth=3, scope=free)
        if not free_variables(f):
            continue  # closed formulas are the test above's
        opened += 1
        valuations = [
            dict(zip(free, elems)) for elems in itertools.product(*(g.domains[y.sort] for y in free))
        ]
        for v, together in zip(valuations, check_all(g, f, valuations), strict=True):
            alone = check(g, f, v).states
            for e in g.states:
                want = naive_holds(g, e, f, v)
                assert (e in alone) == want and (e in together.states) == want, (f, v, e)


def test_check_all_agrees_with_naive_holds_on_random_cases():
    # a differential harness for check_all's mask algebra (`_meet`, `_minus`,
    # `_join`, `_where`, `_closure`, `_until`): random structures of up to 7
    # states, formulas of depth 2 to 4 over 0 to 3 free variables, valuation
    # lists with repeats in random order (some longer than 64, so a mask
    # spans machine words) and, in about 60 % of the cases, a random `at`;
    # every answer is the naive evaluator's
    from _helpers import naive_holds

    rng = random.Random(20261022)
    for case in range(3000):
        g = random_structure(rng, max_states=7)
        free = [Var(f"y{k}", rng.choice(sorted(g.domains))) for k in range(rng.randint(0, 3))]
        f = random_formula(rng, g, depth=rng.randint(2, 4), scope=free)
        pool = _all_valuations(g, free)
        valuations = [rng.choice(pool) for _ in range(rng.choice((1, 2, 5, 17, 65, 150)))]
        at = rng.sample(g.states, rng.randint(1, len(g.states))) if rng.random() < 0.6 else None
        focus = g.states if at is None else at
        want = {}
        for v, got in zip(valuations, check_all(g, f, valuations, at=at), strict=True):
            key = tuple(v[y] for y in free)
            if key not in want:
                want[key] = {e for e in focus if naive_holds(g, e, f, v)}
            assert got.states == want[key], (case, f, v, at)


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
            alone = check(g, f, v).states
            for e in focus:
                assert holds_at(g, e, f, v) == (e in alone), (f, v, e)


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


def test_check_all_masks_wider_than_a_machine_word():
    # two and three free variables over sorts of 9 to 12 elements: more than
    # 64 and more than 1024 valuations in one check_all call, so the masks
    # of a label span several machine words; every valuation's answer is
    # check's, and a sample of them the naive evaluator's
    from _helpers import naive_holds

    rng = random.Random(65537)
    for n_free, least, low in ((2, 64, 9), (3, 1024, 11)):
        tried = 0
        while tried < 2:
            g = random_structure(rng, max_states=4, widths=(low, low + 1))
            free = [Var(f"y{k}", rng.choice(sorted(g.domains))) for k in range(n_free)]
            f = random_formula(rng, g, depth=2, scope=free)
            if len(free_variables(f)) < 2:
                continue
            tried += 1
            valuations = _all_valuations(g, free)
            assert len(valuations) > least
            together = check_all(g, f, valuations)
            for k, (v, got) in enumerate(zip(valuations, together, strict=True)):
                assert got.states == check(g, f, v).states, (f, v)
                if k % 97 == 0:
                    assert got.states == {e for e in g.states if naive_holds(g, e, f, v)}, (f, v)


def test_check_all_rebinds_a_variable_the_valuations_bind():
    # a variable free in one operand and bound by `exists` in the other: its
    # slot takes the valuation's element outside the quantifier and each
    # element of its sort inside
    rng = random.Random(1729)
    tried = 0
    while tried < 30:
        g = random_structure(rng, max_states=6, widths=(2, 4))
        y, z = Var("y", "s0"), Var("z", rng.choice(sorted(g.domains)))
        a, b = (random_formula(rng, g, depth=2, scope=[y, z]) for _ in range(2))
        f = rng.choice([And, Or, EU])(a, Exists(y, b))
        if y not in free_variables(a) or y not in free_variables(b):
            continue
        tried += 1
        _assert_same_as_check(g, f, _all_valuations(g, sorted(free_variables(f), key=lambda v: v.name)))


def _lopsided_game(rng, branching):
    """Player 1 moves at the root, player 2 at each of its children, and each
    of player 2's moves ends the game with seeded payoffs below 5."""
    moves = "abcdefgh"[:branching]
    return ExtensiveGame(
        ("1", "2"),
        decision("1", {
            a: decision("2", {b: terminal({"1": rng.randrange(5), "2": rng.randrange(5)}) for b in moves})
            for a in moves
        }),
    )


def test_check_all_on_a_1024_profile_game_matches_the_oracle():
    game = _lopsided_game(random.Random(1024), 4)
    assert profile_count(game) == 1024
    for concept in EquilibriumConcept:
        assert enumerate_equilibria(game, concept) == oracle_equilibria(game, concept)


def _ci_lopsided_game(moves):
    """CI's lopsided game over these moves: player 1 at the root, player 2 at
    each child, and move j after move i pays (3i + j) mod 5 and (i + 2j) mod 5."""
    return ExtensiveGame(
        ("1", "2"),
        decision("1", {
            a: decision("2", {b: terminal({"1": (3 * i + j) % 5, "2": (i + 2 * j) % 5}) for j, b in enumerate(moves)})
            for i, a in enumerate(moves)
        }),
    )


def test_check_all_leaves_nothing_behind_when_it_returns():
    # no table of a call outlives it, and none waits for the cyclic
    # collector: on CI's lopsided game with 4 moves (1 024 profiles), NE and
    # SPE leave nothing to collect and nothing allocated once their results
    # are dropped
    game = _ci_lopsided_game("abcd")
    g = to_gal_structure(game)
    valuations = [profile_valuation(g, game, s) for s in profiles(game)]
    formulas = [ne_formula(game), spe_formula(game)]
    assert len(valuations) == 1024
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        for f in formulas:
            sats = check_all(g, f, valuations, at=["()"])
            assert any("()" in sat.states for sat in sats)
            del sats
        assert gc.collect() == 0
        assert tracemalloc.get_traced_memory()[0] < 64 * 1024
    finally:
        tracemalloc.stop()
        gc.enable()


def test_check_all_callbacks_over_every_profile_of_a_1024_profile_game():
    # NE and SPE at `()` over every profile of CI's lopsided game with 4
    # moves run exactly these interpretation callbacks, and find the
    # oracle's equilibria.  Of those calls, NE asks 3 486 distinct (symbol,
    # args) keys and SPE 5 182, keyed without the state for a rigid symbol.
    game = _ci_lopsided_game("abcd")
    g = to_gal_structure(game)
    candidates = list(profiles(game))
    valuations = [profile_valuation(g, game, s) for s in candidates]
    funs, preds = [], []
    fun_eval, pred_eval = g.interp.fun_eval, g.interp.pred_eval
    g.interp.fun_eval = lambda *a: funs.append(a) or fun_eval(*a)
    g.interp.pred_eval = lambda *a: preds.append(a) or pred_eval(*a)
    for concept, f, counts in (
        (EquilibriumConcept.NE, ne_formula(game), (6213, 1747)),
        (EquilibriumConcept.SPE, spe_formula(game), (11317, 1411)),
    ):
        funs.clear()
        preds.clear()
        sats = check_all(g, f, valuations, at=["()"])
        assert (len(funs), len(preds)) == counts
        assert [s for s, sat in zip(candidates, sats) if "()" in sat.states] == oracle_equilibria(game, concept)


def test_check_all_callbacks_of_terms_that_no_valuation_varies():
    # a term no valuation varies has one value per state, kept for the call
    # (over a slot that `exists` binds, for its latest elements).  Two shapes
    # on CI's lopsided game with 4 moves run exactly these callbacks: one
    # valuation, whose atoms share the `exists`-bound `O_h(h, v1, w)` (43 029
    # `fun` calls when such a term is evaluated afresh at each use), and the
    # 256 profiles that share player 1's first strategy, where `v1` is the
    # same in every valuation, so `O_h(h, v1, w2)` does not vary either
    game = _ci_lopsided_game("abcd")
    g = to_gal_structure(game)
    funs, preds = [], []
    fun_eval, pred_eval = g.interp.fun_eval, g.interp.pred_eval
    g.interp.fun_eval = lambda *a: funs.append(a) or fun_eval(*a)
    g.interp.pred_eval = lambda *a: preds.append(a) or pred_eval(*a)
    f = parse_formula(
        "AG forall w:S2 . (ge(u1(O_h(h, v1:S1, w)), u1(O_h(h, v1, w))) & ge(u2(O_h(h, v1, w)), u2(O_h(h, v1, w))))",
        g.sig,
    )
    (got,) = check_all(g, f, [{Var("v1", "S1"): g.domains["S1"][0]}])
    assert got.states == set(g.states)
    assert (len(funs), len(preds)) == (16149, 10752)
    first = next(profiles(game)).strategies[0]
    candidates = [s for s in profiles(game) if s.strategies[0] == first]
    valuations = [profile_valuation(g, game, s) for s in candidates]
    assert len(valuations) == 256
    for concept, f, counts in (
        (EquilibriumConcept.NE, ne_formula(game), (2025, 647)),
        (EquilibriumConcept.SPE, spe_formula(game), (4069, 1383)),
    ):
        funs.clear()
        preds.clear()
        sats = check_all(g, f, valuations, at=["()"])
        assert (len(funs), len(preds)) == counts
        expected = [s for s in oracle_equilibria(game, concept) if s.strategies[0] == first]
        assert [s for s, sat in zip(candidates, sats) if "()" in sat.states] == expected


def test_check_all_shares_its_work_across_valuations(example_structure, example_game):
    # the labels hold a bit per valuation, so a repeated valuation labels
    # no instance more: the same answers, twice, and the same instances
    g = example_structure
    valuations = [profile_valuation(g, example_game, s) for s in profiles(example_game)]
    for f in (ne_formula(example_game), spe_formula(example_game)):
        for at in (None, ["()"]):
            once = check_all(g, f, valuations, at=at)
            twice = check_all(g, f, valuations + valuations, at=at)
            assert [s.states for s in twice] == [s.states for s in once] * 2
            assert [s.valuation for s in twice] == [s.valuation for s in once] * 2
            assert {s.stats.subformulas for s in twice} == {once[0].stats.subformulas}
            assert len({id(s.stats) for s in twice}) == 1  # one stats object for the call


def test_check_all_binds_every_valuation_before_labelling(example_game):
    # a binding error in the last valuation is raised before any
    # interpretation callback runs, and an empty list of valuations runs none
    g = to_gal_structure(example_game)
    calls = []
    fun_eval, pred_eval = g.interp.fun_eval, g.interp.pred_eval
    g.interp.fun_eval = lambda *a: calls.append(a) or fun_eval(*a)
    g.interp.pred_eval = lambda *a: calls.append(a) or pred_eval(*a)
    valuations = [profile_valuation(g, example_game, s) for s in profiles(example_game)]
    for last in ({}, {**valuations[0], Var("v1", "S1"): g.domains["S2"][0]}):
        with pytest.raises(BindingError):
            check_all(g, ne_formula(example_game), [*valuations, last])
        assert calls == []
    assert check_all(g, ne_formula(example_game), []) == []
    assert calls == []
    check_all(g, ne_formula(example_game), valuations)
    assert calls


def test_check_all_reads_a_deep_term_that_varies_with_the_valuation():
    # a term MAX_DEPTH - 3 levels deep over a variable with a value per
    # valuation is read without running out of recursion
    rng = random.Random(4242)
    g = random_structure(rng, max_states=5, widths=(3, 4))
    y = Var("y", "s0")
    term = y
    for _ in range(MAX_DEPTH - 4):
        term = App("f", (term,))
    f = AX(Eq(term, App("c")))
    assert f._height == MAX_DEPTH - 1
    valuations = _all_valuations(g, [y])
    for v, got in zip(valuations, check_all(g, f, valuations), strict=True):
        assert got.states == check(g, f, v).states


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
    # also given no valuation at all
    with pytest.raises(InterpretationError) as together:
        check_all(example_structure, out_of_range, [])
    assert str(together.value) == str(alone.value)

    # a missing binding is reported before an out-of-range literal, as `check` does
    both = And(out_of_range, onpath)
    with pytest.raises(BindingError) as alone:
        check(example_structure, both, {})
    with pytest.raises(BindingError) as together:
        check_all(example_structure, both, [{}])
    assert str(together.value) == str(alone.value)

    # an atom's operands are evaluated state by state, as `check` does: with
    # `f` failing at the second state and `g` at the first, both raise `g`'s
    from galcheck.logic import FuncDecl, PredDecl, Signature

    def fun_eval(name, state, args):
        if (name, state) in {("f", "e1"), ("g", "e0")}:
            raise InterpretationError(f"no {name} at {state}")
        return "x"

    sig = Signature({"S"}, {"f": FuncDecl((), "S"), "g": FuncDecl((), "S")}, {"p": PredDecl(("S", "S"))}, ())
    g = GalStructure(sig, ["e0", "e1"], ["e0"], [], {"S": ["x"]}, {}, fun_eval, lambda *a: True)
    for f in (Pred("p", (App("f"), App("g"))), Eq(App("f"), App("g"))):
        _same_error(g, f)


# Ill-formed formulas on the worked example's signature: one fault each.
_H = App("h")
_FAULTS = {
    "unknown predicate": lambda: Pred("nosuch", ()),
    "unknown function": lambda: Eq(App("nosuch"), App("h")),
    "unknown player": lambda: PlayerAtom("9"),
    "unknown literal sort": lambda: Eq(App("h"), DomainConst("Nope", 0)),
    "wrong arity": lambda: Pred("ge", (DomainConst("U", 0),)),
    "argument sort": lambda: Pred("ge", (App("h"), App("h"))),
    "equality sorts": lambda: Eq(App("h"), DomainConst("U", 0)),
    "undeclared variable sort": lambda: Eq(Var("x", "Nope"), Var("x", "Nope")),
    "bound twice": lambda: Exists(Var("x", "H"), Forall(Var("x", "H"), Eq(Var("x", "H"), App("h")))),
    "term in formula position": lambda: Not(App("h")),
    "negative literal": lambda: Eq(App("h"), DomainConst("H", -1)),
    "out-of-range literal": lambda: Eq(App("h"), DomainConst("H", 99)),
    # well formed, and within MAX_DEPTH as written, but not once expanded
    "deep through &": lambda: _chain(lambda f: And(f, Top()), 250, Top()),
    "deep through AG": lambda: _chain(AG, 200, Top()),
    "deep through forall": lambda: _chain(lambda f: Forall(Var(f"d{f._height}", "H"), f), 150, Top()),
    "deep through EX": lambda: _chain(EX, 150, Top()),
}
# Contexts a fault is put in; they bind no name a fault uses.
_CONTEXTS = (
    lambda f: f,
    Not,
    AG,
    EX,
    lambda f: Forall(Var("z", "S1"), f),
    lambda f: Implies(PlayerAtom("1"), f),
    lambda f: Or(f, Top()),
    lambda f: EU(Top(), f),
)


def _same_error(g, f):
    """`check_all(g, f, [{}])` raises what `check(g, f, {})` raises."""
    with pytest.raises(Exception) as alone:
        check(g, f, {})
    with pytest.raises(Exception) as together:
        check_all(g, f, [{}])
    assert (type(together.value), str(together.value)) == (type(alone.value), str(alone.value)), repr(f)[:300]


def test_check_all_errors_match_check_on_ill_formed_formulas(example_structure):
    g = example_structure
    rng = random.Random(13013)
    for name, fault in _FAULTS.items():
        for _ in range(3):
            _same_error(g, rng.choice(_CONTEXTS)(fault()))
    # every pair of faults, in both orders, each in a context of its own
    for a, b in itertools.permutations(_FAULTS.values(), 2):
        left, right = rng.choice(_CONTEXTS)(a()), rng.choice(_CONTEXTS)(b())
        _same_error(g, And(left, right))
        _same_error(g, rng.choice([Implies, Or, EU, AU])(left, right))
    _same_error(g, App("h"))  # a term is no formula
    deep = _chain(AG, 200, Top())
    with pytest.raises(GalcheckError, match="unknown predicate 'nosuch'"):
        check_all(g, And(deep, Pred("nosuch", ())), [{}])
    with pytest.raises(GalcheckError, match="nested too deeply"):
        check_all(g, And(deep, _FAULTS["out-of-range literal"]()), [{}])
