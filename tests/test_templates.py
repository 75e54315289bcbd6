import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from janaka.errors import (
    DepthExceededError,
    FormulaSyntaxError,
    UnknownAtomError,
    UnsupportedNegationError,
)
from janaka.formulas import (
    Atom,
    Globally,
    Not,
    Or,
    PropositionSet,
    format_formula,
    formula_depth,
    parse_formula,
)
from janaka.repair import enumerate_fillings
from janaka.templates import (
    GTEMP,
    RANDOM,
    MAX_TREE_DEPTH,
    WITH_GF,
    Fixed,
    Hole,
    Template,
    format_template,
    _embed,
    make_templates,
    parse_template,
)

from gen import random_formula

PQ = PropositionSet(["p", "q"])
PQRS = PropositionSet(["p", "q", "r", "s"])


class TestRules:
    def test_unary_rule_adds_right_region(self):
        # G(p) with the rule fired at the root: label hidden, right region added
        [t] = make_templates(Globally(Atom("p")), d=1, strategy=RANDOM, hole_prob=1.0, seed=0)
        m = t.slot_map
        assert m[1] == Hole()  # hidden unary label
        assert isinstance(m[3], Hole)  # fresh right region
        # the leaf was also visited with probability 1 and became a region
        assert isinstance(m[2], Hole)

    def test_binary_rule_hides_label_only(self):
        f = Or(Atom("p"), Atom("q"))
        [t] = make_templates(f, d=1, strategy=RANDOM, hole_prob=1.0, seed=5)
        m = t.slot_map
        assert m[1] == Hole()
        assert isinstance(m[2], Hole) and isinstance(m[3], Hole)  # leaves redrawn

    def test_leaf_rule_grows_region(self):
        [t] = make_templates(Atom("p"), d=2, strategy=RANDOM, hole_prob=1.0, seed=1)
        m = t.slot_map
        assert m[1] == Hole()
        assert m[2] == Hole() and m[3] == Hole()
        assert t.depth == 2

    def test_gtemp_wraps_with_gf_hole(self):
        f = parse_formula("F(p -> X(q U (r | s)))", PQRS)
        [t] = make_templates(f, d=1, strategy=GTEMP, hole_prob=0.2, seed=3)
        assert t.slot_map[1] == Hole(("G", "F"))
        assert 2 in t.slot_map  # source root shifted under the wrapper
        assert t.depth <= formula_depth(f) + 1

    def test_zero_hole_pass_is_forced(self):
        # hole_prob tiny: the 20 retries almost surely all miss, then forcing kicks in
        [t] = make_templates(Atom("p"), d=1, strategy=RANDOM, hole_prob=1e-12, seed=2)
        assert t.has_holes

    def test_nnf_required(self):
        with pytest.raises(UnsupportedNegationError):
            make_templates(Not(Or(Atom("p"), Atom("q"))), d=1, strategy=RANDOM, seed=0)


class TestStrategies:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10 ** 9))
    def test_withgf_never_replaces_g_or_f(self, seed):
        rng = random.Random(seed)
        f = random_formula(rng, depth=4, atoms=["p", "q"], mode="nnf")
        for t in make_templates(f, d=1, strategy=WITH_GF, hole_prob=0.7, seed=seed, count=3):
            src = {}
            nodes = []
            _embed(f, 1, src, nodes)
            for i, slot in src.items():
                if slot.label in ("G", "F"):
                    assert t.slot_map.get(i) == slot

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10 ** 9))
    def test_depth_bound(self, seed):
        rng = random.Random(seed)
        f = random_formula(rng, depth=4, atoms=["p", "q"], mode="nnf")
        d = rng.randint(1, 2)
        strategy = rng.choice([RANDOM, WITH_GF, GTEMP])
        for t in make_templates(f, d=d, strategy=strategy, hole_prob=0.6, seed=seed, count=2):
            assert t.depth <= d + formula_depth(f)
            assert t.has_holes

    def test_seed_determinism(self):
        f = parse_formula("G(p -> F(q))", PQ)
        a = make_templates(f, d=2, strategy=RANDOM, hole_prob=0.5, seed=9, count=4)
        b = make_templates(f, d=2, strategy=RANDOM, hole_prob=0.5, seed=9, count=4)
        assert a == b
        c = make_templates(f, d=2, strategy=RANDOM, hole_prob=0.5, seed=10, count=4)
        assert a != c  # overwhelmingly likely


class TestText:
    def test_region_and_infix_forms(self):
        [t] = make_templates(Globally(Atom("p")), d=1, strategy=RANDOM, hole_prob=1.0, seed=0)
        text = format_template(t)
        assert "?" in text
        assert parse_template(text) == t

    def test_gtemp_form(self):
        f = parse_formula("F(p)", PQ)
        [t] = make_templates(f, d=1, strategy=GTEMP, hole_prob=1e-12, seed=0)
        text = format_template(t)
        assert text.startswith("?{G,F}(")
        assert parse_template(text) == t

    def test_explicit_forms_parse(self):
        t = parse_template("(p ? ?<2>)")
        m = t.slot_map
        assert m[1] == Hole() and m[2] == Fixed("p")
        assert m[3] == Hole() and m[6] == Hole() and m[7] == Hole()
        assert parse_template(format_template(t)) == t
        t2 = parse_template("G(?<1>)")
        assert t2.slot_map[1] == Fixed("G") and t2.slot_map[2] == Hole()
        t3 = parse_template("?{G,F}(p U q)")
        assert t3.slot_map[1] == Hole(("G", "F"))

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 10 ** 9))
    def test_round_trip(self, seed):
        rng = random.Random(seed)
        f = random_formula(rng, depth=3, atoms=["p", "q"], mode="nnf")
        strategy = rng.choice([RANDOM, WITH_GF, GTEMP])
        for t in make_templates(f, d=rng.randint(1, 2), strategy=strategy,
                                hole_prob=0.5, seed=seed, count=2):
            assert parse_template(format_template(t)) == t


class TestParseErrors:
    @pytest.mark.parametrize("text, position", [
        ("?{G,F}", 0),  # a restricted hole needs a child
        ("!G(p)", 1),  # negation applies to atoms only
        ("?<0>", 0),
        ("", 0),
        ("   ", 0),
        ("?{G,}(p)", 4),
        ("(p) q", 4),  # trailing input
        ("(p ? q", 6),  # unexpected end
    ])
    def test_syntax_errors(self, text, position):
        with pytest.raises(FormulaSyntaxError) as err:
            parse_template(text)
        assert err.value.position == position

    def test_empty_region_reported_at_its_token(self):
        with pytest.raises(FormulaSyntaxError) as err:
            parse_template("G(?<0>)")
        assert err.value.position == 2

    def test_region_past_the_tree_bound_is_rejected_before_grafting(self):
        # G(?<12>) needs 13 levels; ?<40> would graft 2^40 slots
        for text in ("G(?<12>)", "?<40>"):
            with pytest.raises(DepthExceededError):
                parse_template(text)
        assert parse_template("G(?<2>)").depth == 3


def _encode(f):
    slots = {}
    _embed(f, 1, slots, [])
    return Template(max(i.bit_length() for i in slots), tuple(slots.items()))


class TestEncoding:
    def test_examples(self):
        assert _encode(Globally(Atom("p"))).slot_map == {1: Fixed("G"), 2: Fixed("p")}
        assert _encode(Or(Atom("p"), Atom("q"))).slot_map == {
            1: Fixed("|"), 2: Fixed("p"), 3: Fixed("q"),
        }

    def test_deeper_embedding_keeps_invariants(self):
        t = _encode(parse_formula("G(p -> X(q))", PQRS))
        assert t.depth == 4 and not t.has_holes
        assert t.slot_map == {
            1: Fixed("G"), 2: Fixed("->"), 4: Fixed("p"), 5: Fixed("X"), 10: Fixed("q"),
        }

    def test_literals_take_one_slot(self):
        t = _encode(parse_formula("p & !q", PQRS))
        assert t.slot_map == {1: Fixed("&"), 2: Fixed("p"), 3: Fixed("!q")}

    def test_depth_exceeded(self):
        f = parse_formula("G(p -> X(q))", PQRS)
        with pytest.raises(DepthExceededError):
            make_templates(f, d=MAX_TREE_DEPTH - formula_depth(f) + 1, strategy=RANDOM, seed=0)
        deep = "G(" * MAX_TREE_DEPTH + "p" + ")" * MAX_TREE_DEPTH
        with pytest.raises(DepthExceededError):
            parse_template(deep)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 10 ** 9))
    def test_hole_free_template_enumerates_its_formula(self, seed):
        f = random_formula(random.Random(seed), depth=4, atoms=list(PQRS), mode="nnf")
        t = _encode(f)
        assert parse_template(format_formula(f)) == t
        assert [fl.formula for fl in enumerate_fillings(t, PQRS)] == [f]


class TestValidation:
    def test_requires_root(self):
        with pytest.raises(ValueError):
            Template(2, ((2, Fixed("p")),))

    def test_binary_needs_children(self):
        with pytest.raises(ValueError):
            Template(2, ((1, Fixed("&")), (2, Fixed("p"))))

    def test_unary_right_child_must_not_be_fixed(self):
        with pytest.raises(ValueError):
            Template(2, ((1, Fixed("G")), (2, Fixed("p")), (3, Fixed("q"))))


class TestAlphabet:
    def test_a_label_reaches_every_fixed_slot_below(self):
        # case2's d=1 template: slot 2 has fixed children, so the root takes
        # no literal, and slot 2 only a binary operator
        t = parse_template("((q ? X(?<1>)) ? ?<1>)")
        assert t.labels_for(1, PQRS) == ["&", "|", "->", "U", "G", "F", "X"]
        assert t.labels_for(2, PQRS) == ["&", "|", "->", "U"]
        assert t.labels_for(3, PQRS) == ["p", "!p", "q", "!q", "r", "!r", "s", "!s"]
        assert t.fixed_below == {1, 2, 4, 5}

    def test_fixed_below_a_right_child_rules_out_unary(self):
        t = Template(3, ((1, Hole()), (2, Hole()), (3, Hole()), (6, Fixed("p"))))
        assert t.labels_for(1, PQ) == ["&", "|", "->", "U"]
        assert t.labels_for(3, PQ) == ["G", "F", "X"]

    def test_allowed_set_filters_the_alphabet(self):
        t = parse_template("?{G,F}(p)")
        assert t.labels_for(1, PQ) == ["G", "F"]


class TestCheck:
    @pytest.mark.parametrize("t", [
        parse_template("G((zz ? ?<1>))"),
        parse_template("G(!zz)"),
        Template(1, ((1, Hole(("p", "zz"))),)),
        Template(1, ((1, Hole(("p", "!zz"))),)),
    ], ids=["fixed", "fixed-negated", "allowed", "allowed-negated"])
    def test_unknown_atom(self, t):
        with pytest.raises(UnknownAtomError) as info:
            t.check(PQ)
        assert info.value.name == "zz"

    def test_known_atoms_operators_and_true_pass(self):
        for text in ("G((p ? ?<1>))", "?{G,F}((true | !q))"):
            parse_template(text).check(PQ)

    def test_negation_slot(self):
        with pytest.raises(UnsupportedNegationError):
            Template(2, ((1, Fixed("!")), (2, Fixed("p")))).check(PQ)
