import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from janaka.errors import (
    EmptyInputError,
    EmptyTraceError,
    FormulaSyntaxError,
    UnknownAtomError,
    UnsupportedNegationError,
)
from janaka.formulas import (
    And,
    Atom,
    Finally,
    Globally,
    Implies,
    Next,
    Not,
    Or,
    PropositionSet,
    Until,
    eval_qualitative,
    format_formula,
    parse_formula,
    satisfaction_vector,
    to_nnf,
    tokenize,
)

from gen import random_formula, random_word
from naive_semantics import naive_qualitative

PQRS = PropositionSet(["p", "q", "r", "s"])


def atoms(*names):
    return [Atom(n) for n in names]


class TestParse:
    def test_login_formula(self):
        p, q, r, s = atoms("p", "q", "r", "s")
        f = parse_formula("G((p) -> (X((q) U ((r) | (s)))))", PQRS)
        assert f == Globally(Implies(p, Next(Until(q, Or(r, s)))))

    def test_single_atom(self):
        assert parse_formula("p", PQRS) == Atom("p")

    def test_appendix_example(self):
        p, q, r = atoms("p", "q", "r")
        assert parse_formula("F(p & (q | r))", PQRS) == Finally(And(p, Or(q, r)))

    def test_precedence(self):
        p, q, r = atoms("p", "q", "r")
        assert parse_formula("p -> q -> r", PQRS) == Implies(p, Implies(q, r))
        assert parse_formula("p U q U r", PQRS) == Until(p, Until(q, r))
        assert parse_formula("p & q | r", PQRS) == Or(And(p, q), r)
        assert parse_formula("p | q -> r", PQRS) == Implies(Or(p, q), r)
        assert parse_formula("!p U q", PQRS) == Until(Not(p), q)
        assert parse_formula("X p U q", PQRS) == Until(Next(p), q)
        assert parse_formula("GF(p)", PQRS) == Globally(Finally(p))

    def test_true_is_reserved(self):
        assert parse_formula("true", PQRS) == Atom("true")
        with pytest.raises(ValueError):
            PropositionSet(["true"])

    def test_errors(self):
        with pytest.raises(EmptyInputError):
            parse_formula("   ", PQRS)
        with pytest.raises(UnknownAtomError):
            parse_formula("G(zz)", PQRS)
        with pytest.raises(FormulaSyntaxError) as err:
            parse_formula("G(p))", PQRS)
        assert err.value.position == 4
        with pytest.raises(FormulaSyntaxError):
            parse_formula("p &", PQRS)
        with pytest.raises(FormulaSyntaxError):
            parse_formula("p ? q", PQRS)

    def test_hole_syntax_rejected_at_its_position(self):
        # candidate extraction counts a span that fails to tokenize as prose
        for text, position in [("G(?<1>)", 2), ("p {q", 2), ("p, q", 1), ("(p ? q)", 3)]:
            with pytest.raises(FormulaSyntaxError) as err:
                tokenize(text)
            assert err.value.position == position
            with pytest.raises(FormulaSyntaxError) as err:
                parse_formula(text, PQRS)
            assert err.value.position == position


class TestFormat:
    def test_examples(self):
        p, q, r, s = atoms("p", "q", "r", "s")
        assert format_formula(Globally(p)) == "G(p)"
        assert format_formula(Until(p, Or(r, s))) == "(p U (r | s))"
        repaired = Globally(Implies(p, Globally(Until(q, Or(r, s)))))
        assert format_formula(repaired) == "G((p -> G((q U (r | s)))))"

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 10 ** 9))
    def test_round_trip(self, seed):
        f = random_formula(random.Random(seed), depth=5, atoms=list(PQRS))
        assert parse_formula(format_formula(f), PQRS) == f


class TestNnf:
    def test_de_morgan(self):
        p, q = atoms("p", "q")
        assert to_nnf(Not(Or(p, q))) == And(Not(p), Not(q))
        assert to_nnf(Not(And(p, q))) == Or(Not(p), Not(q))

    def test_temporal_duals(self):
        p = Atom("p")
        assert to_nnf(Not(Globally(p))) == Finally(Not(p))
        assert to_nnf(Not(Finally(p))) == Globally(Not(p))
        assert to_nnf(Not(Next(p))) == Next(Not(p))
        assert to_nnf(Not(Implies(p, Atom("q")))) == And(p, Not(Atom("q")))
        assert to_nnf(Not(Not(p))) == p

    def test_until_under_negation_rejected(self):
        p, q = atoms("p", "q")
        with pytest.raises(UnsupportedNegationError):
            to_nnf(Not(Until(p, q)))
        with pytest.raises(UnsupportedNegationError):
            to_nnf(Not(And(p, Until(p, q))))

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 10 ** 9))
    def test_nnf_preserves_qualitative_truth(self, seed):
        rng = random.Random(seed)
        f = random_formula(rng, depth=4, atoms=["p", "q"], mode="no_not_until")
        w = random_word(rng, rng.randint(1, 10), ["p", "q"])
        assert eval_qualitative(f, w) == eval_qualitative(to_nnf(f), w)

    def test_not_next_rewrite_is_end_inexact_by_design(self):
        # !X q rewrites to X !q even though strong next makes them differ at
        # the last position; the synthesis alphabet only ever emits literal
        # negation, so the asymmetric case never reaches the repair engine.
        q = Atom("q")
        last = [frozenset()]
        assert eval_qualitative(Not(Next(q)), last) is True
        assert eval_qualitative(to_nnf(Not(Next(q))), last) is False
        longer = [frozenset(), frozenset({"q"}), frozenset()]
        assert eval_qualitative(Not(Next(q)), longer) == eval_qualitative(
            to_nnf(Not(Next(q))), longer
        )


class TestQualitative:
    def test_examples(self):
        p = Atom("p")
        all_p = [frozenset({"p"})] * 3
        assert eval_qualitative(Globally(p), all_p) is True
        assert eval_qualitative(Next(p), [frozenset({"p"})]) is False

    def test_empty_trace(self):
        # the same error as the robust and discounted valuations raise
        with pytest.raises(EmptyTraceError):
            eval_qualitative(Atom("p"), [])

    def test_strong_until_needs_witness(self):
        p, q = atoms("p", "q")
        only_p = [frozenset({"p"})] * 4
        assert eval_qualitative(Until(p, q), only_p) is False

    def test_fg_gf_finite_equivalence(self):
        p = Atom("p")
        fg, gf = Finally(Globally(p)), Globally(Finally(p))
        for length in range(1, 7):
            for bits in range(2 ** length):
                word = tuple(
                    frozenset({"p"}) if bits >> i & 1 else frozenset()
                    for i in range(length)
                )
                assert eval_qualitative(fg, word) == eval_qualitative(gf, word)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 10 ** 9))
    def test_matches_naive_recursion(self, seed):
        rng = random.Random(seed)
        f = random_formula(rng, depth=4, atoms=["p", "q", "r"])
        w = random_word(rng, rng.randint(1, 9), ["p", "q", "r"])
        assert eval_qualitative(f, w) == naive_qualitative(f, w)
        vec = satisfaction_vector(f, w)
        for i in range(len(w)):
            assert vec[i] == naive_qualitative(f, w[i:])
