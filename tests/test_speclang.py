import functools
import itertools
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hypergames.speclang import (
    BOTTOM,
    MAX_NESTING,
    TOP,
    And,
    Atom,
    DfaSizeError,
    Eventually,
    FormulaSyntaxError,
    Next,
    NotAtom,
    Or,
    UndeclaredAtomError,
    Until,
    accepts,
    all_symbols,
    compile_to_dfa,
    normalize,
    parse_formula,
    progress,
)

import oracles
from oracles import sat
from randgen import random_formula

AP = frozenset({"a", "b", "c"})


class TestParser:
    def test_atoms_and_constants(self):
        assert parse_formula("a", AP) == Atom("a")
        assert parse_formula("!a", AP) == NotAtom("a")
        assert parse_formula("true", AP) == TOP
        assert parse_formula("false", AP) == BOTTOM

    def test_precedence_unary_until_and_or(self):
        # X binds tighter than U, U tighter than &, & tighter than |
        f = parse_formula("X a U b & c | a", AP)
        expected = Or(
            (And((Until(Next(Atom("a")), Atom("b")), Atom("c"))), Atom("a"))
        )
        assert f == expected

    def test_until_right_associative(self):
        f = parse_formula("a U b U c", AP)
        assert f == Until(Atom("a"), Until(Atom("b"), Atom("c")))

    def test_parentheses_override(self):
        f = parse_formula("(a | b) & c", AP)
        assert f == And((Or((Atom("a"), Atom("b"))), Atom("c")))

    def test_eventually_sugar(self):
        assert parse_formula("F a", AP) == Eventually(Atom("a"))

    def test_undeclared_atom(self):
        with pytest.raises(UndeclaredAtomError):
            parse_formula("F z", AP)

    @pytest.mark.parametrize(
        "text", ["a &", "(a", "a )", "! F a", "a b", "U a", "&", ""]
    )
    def test_syntax_errors(self, text):
        with pytest.raises(FormulaSyntaxError):
            parse_formula(text, AP)

    def test_nesting_cap(self):
        # the recursive-descent parser would overflow the stack long before
        # X x 1000; the explicit cap turns that into a syntax error
        with pytest.raises(FormulaSyntaxError, match="nests deeper"):
            parse_formula("X " * 1000 + "a", {"a"})
        for n, fits in ((MAX_NESTING, True), (MAX_NESTING + 1, False)):
            for text in ("X " * n + "a", "(" * n + "a" + ")" * n, " U ".join(["a"] * (n + 1))):
                if fits:
                    parse_formula(text, {"a"})
                else:
                    with pytest.raises(FormulaSyntaxError, match="nests deeper"):
                        parse_formula(text, {"a"})

    def test_error_position_reported(self):
        with pytest.raises(FormulaSyntaxError) as exc:
            parse_formula("a & (b ", AP)
        assert exc.value.position == 7


class TestNormalize:
    def test_true_false_absorption(self):
        assert normalize(And((Atom("a"), BOTTOM))) == BOTTOM
        assert normalize(Or((Atom("a"), TOP))) == TOP
        assert normalize(And((Atom("a"), TOP))) == Atom("a")
        assert normalize(Or((Atom("a"), BOTTOM))) == Atom("a")

    def test_until_simplifications(self):
        assert normalize(Until(Atom("a"), TOP)) == TOP
        assert normalize(Until(Atom("a"), BOTTOM)) == BOTTOM
        assert normalize(Until(TOP, Atom("a"))) == Eventually(Atom("a"))
        assert normalize(Until(BOTTOM, Atom("a"))) == Atom("a")

    def test_flatten_sort_dedupe(self):
        f = And((Atom("b"), And((Atom("a"), Atom("b")))))
        assert normalize(f) == And((Atom("a"), Atom("b")))

    def test_next_of_false(self):
        assert normalize(Next(BOTTOM)) == BOTTOM
        assert normalize(Eventually(BOTTOM)) == BOTTOM

    def test_idempotent(self):
        f = parse_formula("(a U b) & (b U a) | F c", AP)
        assert normalize(normalize(f)) == normalize(f)


class TestCompile:
    def test_reach_single_atom(self):
        d = compile_to_dfa(parse_formula("F a", {"a"}), {"a"})
        assert len(d.states) == 2
        assert d.initial == "q0"
        assert d.accepting == {"q1"}
        assert d.delta[("q0", frozenset())] == "q0"
        assert d.delta[("q0", frozenset({"a"}))] == "q1"
        d.validate()

    def test_accepting_absorbing_and_total(self):
        d = compile_to_dfa(parse_formula("a U (b & X c)", AP), AP)
        d.validate()
        assert len(d.delta) == len(d.states) * len(d.alphabet)

    def test_state_cap(self):
        with pytest.raises(DfaSizeError):
            compile_to_dfa(parse_formula("F a", {"a"}), {"a"}, max_states=1)

    def test_nested_eventually_collapses(self, monkeypatch):
        # F F a = F a on finite words; without the collapse every residual of
        # the 100-deep chain is a new state
        f = parse_formula("F " * 100 + "a", {"a"})
        assert normalize(f) == Eventually(Atom("a"))
        d = compile_to_dfa(f, {"a"})
        assert len(d.states) == 2
        # The evaluator re-reads each nested F at every later position, which
        # is exponential in the depth; memoising it per (node, position) for
        # one word computes the same function.
        plain = oracles.sat
        for length in range(5):
            for w in itertools.product(all_symbols({"a"}), repeat=length):
                memo: dict = {}

                def memo_sat(g, word, i=0):
                    key = (id(g), i)
                    if key not in memo:
                        memo[key] = plain(g, word, i)
                    return memo[key]

                monkeypatch.setattr(oracles, "sat", memo_sat)
                assert accepts(d, list(w)) == oracles.sat(f, list(w))

    def test_unbounded_residuals_raise_size_error(self):
        # syntactic normalisation never finds two residuals of nested U equal,
        # so they grow until progression overflows the stack
        with pytest.raises(DfaSizeError, match="nest too deeply"):
            compile_to_dfa(parse_formula("(F a) U (F a)", {"a"}), {"a"})

    def test_undeclared_atom_rejected(self):
        f = Eventually(Atom("z"))
        with pytest.raises(UndeclaredAtomError):
            compile_to_dfa(f, {"a"})

    def test_empty_word_acceptance(self):
        assert accepts(compile_to_dfa(parse_formula("true", AP), AP), [])
        assert not accepts(compile_to_dfa(parse_formula("F a", AP), AP), [])

    def test_prefix_closure(self):
        d = compile_to_dfa(parse_formula("F a", AP), AP)
        assert accepts(d, [{"a"}])
        assert accepts(d, [{"a"}, set()])  # accepting is absorbing

    def test_all_symbols_order(self):
        syms = all_symbols({"b", "a"})
        assert syms == (
            frozenset(),
            frozenset({"a"}),
            frozenset({"b"}),
            frozenset({"a", "b"}),
        )


WORDS = st.lists(
    st.sets(st.sampled_from(["a", "b"])).map(frozenset), min_size=0, max_size=5
)


@functools.lru_cache(maxsize=None)
def _compiled(seed, depth):
    # deeply nested Untils can make the residual space explode, so cap the
    # construction and let the property skip those draws
    f = random_formula(random.Random(seed), ("a", "b"), depth=depth)
    try:
        return f, compile_to_dfa(f, {"a", "b"}, max_states=256)
    except DfaSizeError:
        return f, None


class TestAgainstSemantics:
    @given(seed=st.integers(0, 10_000), word=WORDS)
    @settings(max_examples=200, deadline=None)
    def test_dfa_agrees_with_evaluator(self, seed, word):
        f, d = _compiled(seed, 3)
        assume(d is not None)
        assert accepts(d, word) == sat(f, word)

    @given(seed=st.integers(0, 10_000), word=WORDS)
    @settings(max_examples=100, deadline=None)
    def test_progression_invariant(self, seed, word):
        # reading one symbol and then running the compiled residual must agree
        # with running the original formula on the whole word
        f, d_f = _compiled(seed, 2)
        assume(d_f is not None)
        if not word:
            return
        residual = normalize(progress(f, word[0]))
        try:
            d_r = compile_to_dfa(residual, {"a", "b"}, max_states=256)
        except DfaSizeError:
            assume(False)
        assert accepts(d_f, word) == (
            d_f.initial in d_f.accepting or accepts(d_r, word[1:])
        )
