from itertools import compress

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from somlogic import (
    And,
    Bot,
    Inclusion,
    Name,
    ParseError,
    Top,
    UnknownCategoryError,
    extension_mask,
    inclusion_text,
    parse_query,
    pretty,
)

from oracles import extension, make_model, parse_kb_text, random_model


# ==============================================================
# Parsing
# ==============================================================


def test_atoms():
    assert parse_query("Top") == Top()
    assert parse_query("Bot") == Bot()
    assert parse_query("Student") == Name("Student")
    assert parse_query("(A)") == Name("A")


def test_conjunction_nests_right():
    assert parse_query("A & B") == And(Name("A"), Name("B"))
    assert parse_query("A & B & C") == And(Name("A"), And(Name("B"), Name("C")))
    assert parse_query("(A & B) & C") == And(And(Name("A"), Name("B")), Name("C"))


def test_inclusions():
    inc = parse_query("A <= B")
    assert inc == Inclusion("strict", Name("A"), Name("B"))
    inc = parse_query("T(A) <= B & C")
    assert inc == Inclusion("defeasible", Name("A"), And(Name("B"), Name("C")))
    inc = parse_query("T(A & B) <= Bot")
    assert inc.kind == "defeasible" and inc.lhs == And(Name("A"), Name("B"))


def test_query_returns_bare_concept():
    out = parse_query("A & B")
    assert out == And(Name("A"), Name("B"))


@pytest.mark.parametrize(
    "text",
    [
        "",
        "A &",
        "& A",
        "A <= ",
        "<= B",
        "A <= B <= C",
        "(A & B",
        "A)",
        "A ? B",
        "T(A)",            # typicality without an inclusion
        "T(A) & B <= C",   # typicality must wrap the whole left side
        "B & T(A) <= C",
        "A <= T(B)",       # not allowed on the right
        "T(T(A)) <= B",    # nesting
        "T <= B & (",
    ],
)
def test_syntax_errors(text):
    with pytest.raises(ParseError):
        parse_query(text)


def test_reserved_word_t_alone():
    # T is reserved even when not followed by '('
    with pytest.raises(ParseError):
        parse_query("T")
    with pytest.raises(ParseError):
        parse_query("A & T")


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as exc:
        parse_query("A & ?")
    assert exc.value.pos == 4
    with pytest.raises(ParseError) as exc:
        parse_query("AB & (C")
    assert "position" in str(exc.value)


def test_t_is_valid_prefix_of_names():
    assert parse_query("Tall") == Name("Tall")
    assert parse_query("T_x & Topmost") == And(Name("T_x"), Name("Topmost"))


# ==============================================================
# Printing round trip
# ==============================================================


_names = st.sampled_from(["A", "B", "C", "Student", "X1", "y_z"])


def _concepts(depth=3):
    base = st.one_of(
        st.builds(Top),
        st.builds(Bot),
        st.builds(Name, _names),
    )
    return st.recursive(
        base,
        lambda inner: st.builds(And, inner, inner),
        max_leaves=6,
    )


@given(_concepts())
def test_pretty_parse_round_trip(expr):
    assert parse_query(pretty(expr)) == expr


@given(st.sampled_from(["strict", "defeasible"]), _concepts(), _concepts())
@settings(max_examples=50)
def test_inclusion_text_round_trip(kind, lhs, rhs):
    inc = Inclusion(kind, lhs, rhs)
    assert parse_query(inclusion_text(inc)) == inc


def test_pretty_left_nested_parenthesised():
    expr = And(And(Name("A"), Name("B")), Name("C"))
    assert pretty(expr) == "(A & B) & C"


# ==============================================================
# Evaluation
# ==============================================================


def _tiny_model():
    rd = {
        "P": {"x": 0.0, "y": 0.5, "z": 2.0},
        "Q": {"x": 2.0, "y": 0.0, "z": 0.5},
    }
    stim = {"P": ["x", "y"], "Q": ["y", "z"]}
    return make_model(rd, stim)


def _extension_ids(model, expr) -> frozenset[str]:
    return frozenset(compress(model.element_ids, extension_mask(model, expr)))


def test_extension_eval():
    m = _tiny_model()
    assert _extension_ids(m, Top()) == {"x", "y", "z"}
    assert _extension_ids(m, Bot()) == frozenset()
    assert _extension_ids(m, Name("P")) == {"x", "y"}   # rd_max(P) = 0.5
    assert _extension_ids(m, Name("Q")) == {"y", "z"}
    assert _extension_ids(m, And(Name("P"), Name("Q"))) == {"y"}
    assert _extension_ids(m, And(Name("P"), Bot())) == frozenset()


def test_unknown_name():
    with pytest.raises(UnknownCategoryError):
        extension_mask(_tiny_model(), Name("R"))


# Names K0..K4 are those random_model may give; K9 never names a category.
concept_trees = st.recursive(
    st.one_of(
        st.just(Top()),
        st.just(Bot()),
        st.sampled_from(["K0", "K1", "K2", "K3", "K4", "K9"]).map(Name),
    ),
    lambda inner: st.builds(And, inner, inner),
    max_leaves=6,
)


@given(st.integers(0, 2**32 - 1), st.lists(concept_trees, min_size=1, max_size=6))
@settings(max_examples=60)
def test_extension_mask_equals_extension(seed, exprs):
    model = random_model(np.random.default_rng(seed), max_elements=20, max_categories=5)[0]
    for expr in exprs:
        try:
            want = extension(model, expr)
        except UnknownCategoryError:
            with pytest.raises(UnknownCategoryError):
                extension_mask(model, expr)
            continue
        mask = extension_mask(model, expr)
        assert mask.dtype == bool and mask.shape == (len(model.element_ids),)
        assert frozenset(compress(model.element_ids, mask)) == want, pretty(expr)


# ==============================================================
# KB files
# ==============================================================


def test_kb_text_round_trip():
    incs = [
        parse_query("A <= B"),
        parse_query("T(A & B) <= C"),
        parse_query("C <= Bot"),
    ]
    text = "# extracted\n# second line\n" + "".join(inclusion_text(i) + "\n" for i in incs)
    assert parse_kb_text(text) == incs


def test_kb_parse_reports_line():
    with pytest.raises(ParseError) as exc:
        parse_kb_text("A <= B\n\n# fine\nB <= &\n")
    assert "line 4" in str(exc.value)


def test_kb_comments_and_blanks():
    out = parse_kb_text("# header\n\nA <= B  # trailing comment\n")
    assert out == [Inclusion("strict", Name("A"), Name("B"))]
