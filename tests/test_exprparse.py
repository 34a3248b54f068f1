"""Expression grammar: precedence, errors with positions, round-trips."""

import pytest
from hypothesis import given, settings, strategies as st

from dsmfusion import (
    build_frame,
    empty,
    enumerate_hpset,
    parse,
    singleton,
    to_expression,
)
from dsmfusion.errors import EmptyExpression, ExprSyntaxError, ParseError, UnknownIdentifier
from dsmfusion.exprparse import _MAX_NESTING, _parse_or_empty


class TestParse:
    def test_mixed_term(self, frame3):
        p = parse(frame3, "(t1&t2)|t3")
        assert set(p.generators) == {(1, 2), (3,)}

    def test_single(self, frame3):
        assert parse(frame3, "t1") == singleton(frame3, 1)

    def test_precedence(self, frame3):
        t1, t2, t3 = (singleton(frame3, i) for i in (1, 2, 3))
        assert parse(frame3, "t1&t2|t3") == (t1 & t2) | t3
        assert parse(frame3, "t1|t2&t3") == t1 | (t2 & t3)

    def test_whitespace(self, frame3):
        assert parse(frame3, "  ( t1 & t2 )\t| t3 ") == parse(frame3, "(t1&t2)|t3")

    def test_unicode_aliases(self, frame3):
        assert parse(frame3, "(t1∩t2)∪t3") == parse(frame3, "(t1&t2)|t3")

    def test_braces_rejected(self, frame3):
        with pytest.raises(ExprSyntaxError):
            parse(frame3, "{(t1&t2)|t3}")

    def test_unknown_identifier(self, frame3):
        with pytest.raises(UnknownIdentifier) as exc:
            parse(frame3, "t1|t9")
        assert exc.value.name == "t9"
        assert exc.value.position == 3

    def test_empty_expression(self, frame3):
        with pytest.raises(EmptyExpression):
            parse(frame3, "   ")

    def test_syntax_error_positions(self, frame3):
        with pytest.raises(ExprSyntaxError) as exc:
            parse(frame3, "t1 & ")
        assert exc.value.position == 5
        with pytest.raises(ExprSyntaxError) as exc:
            parse(frame3, "(t1|t2")
        assert exc.value.position == 6
        with pytest.raises(ExprSyntaxError) as exc:
            parse(frame3, "t1 t2")
        assert exc.value.position == 3

    def test_nesting_limit(self, frame3):
        assert parse(frame3, "(" * 100 + "t1" + ")" * 100) == singleton(frame3, 1)
        with pytest.raises(ExprSyntaxError) as exc:
            parse(frame3, "(" * 101 + "t1" + ")" * 101)
        assert exc.value.position == 100

    @pytest.mark.parametrize("read", [parse, _parse_or_empty])
    @pytest.mark.parametrize("text, kind", [(5, "int"), (b"t1", "bytes"), (["t1"], "list")])
    def test_non_string_text(self, frame3, read, text, kind):
        with pytest.raises(ParseError, match=kind) as exc:
            read(frame3, text)
        assert exc.value.position == 0

    @pytest.mark.parametrize("read", [parse, _parse_or_empty])
    def test_none_text(self, frame3, read):
        with pytest.raises(EmptyExpression):
            read(frame3, None)

    def test_byte_positions_with_unicode(self, frame3):
        # the 3-byte operator shifts later byte offsets
        with pytest.raises(UnknownIdentifier) as exc:
            parse(frame3, "t1∪zz")
        assert exc.value.position == 5


class TestRoundtrip:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_all_elements_fixed_points(self, n):
        frame = build_frame([f"t{i}" for i in range(1, n + 1)])
        for p in enumerate_hpset(frame):
            assert _parse_or_empty(frame, to_expression(p)) == p

    def test_empty_special_case(self, frame3):
        assert to_expression(empty(frame3)) == "EMPTY"
        with pytest.raises(UnknownIdentifier):
            parse(frame3, "EMPTY")
        assert _parse_or_empty(frame3, to_expression(empty(frame3))) == empty(frame3)

    @pytest.mark.parametrize("text", ["EMPTY", " EMPTY "])
    def test_empty_key(self, frame3, text):
        assert _parse_or_empty(frame3, text) == empty(frame3)

    def test_distributed_forms_equal(self, frame3):
        a8 = parse(frame3, "((t1&t2)|t3)&(t1|t2)")
        assert a8 == parse(frame3, "(t1&t2)|((t1|t2)&t3)")
        # the intersection-with-union elements and their distributions
        assert parse(frame3, "(t1|t2)&t3") == parse(frame3, "(t1&t3)|(t2&t3)")
        assert parse(frame3, "(t1|t3)&t2") == parse(frame3, "(t1&t2)|(t2&t3)")
        assert parse(frame3, "(t2|t3)&t1") == parse(frame3, "(t1&t2)|(t1&t3)")

    def test_reference_19_elements(self, frame3):
        listed = [
            "t1&t2&t3", "t1&t2", "t1&t3", "t2&t3",
            "(t1|t2)&t3", "(t1|t3)&t2", "(t2|t3)&t1",
            "((t1&t2)|t3)&(t1|t2)",
            "t1", "t2", "t3",
            "(t1&t2)|t3", "(t1&t3)|t2", "(t2&t3)|t1",
            "t1|t2", "t1|t3", "t2|t3", "t1|t2|t3",
        ]
        parsed = {parse(frame3, e) for e in listed} | {empty(frame3)}
        assert parsed == set(enumerate_hpset(frame3))
        assert len(parsed) == 19


# -- properties ---------------------------------------------------------------

SPACE = st.sampled_from(["", "", " ", "\t", "\n ", "\u3000"])
SPELLINGS = {"&": ("&", "∩"), "|": ("|", "∪")}


def trees(n):
    """A singleton index, or (operator, left, right)."""
    return st.recursive(st.integers(1, n),
                        lambda kids: st.tuples(st.sampled_from("&|"), kids, kids), max_leaves=12)


def evaluate(frame, tree):
    if isinstance(tree, int):
        return singleton(frame, tree)
    op, left, right = tree
    left, right = evaluate(frame, left), evaluate(frame, right)
    return left & right if op == "&" else left | right


def height(tree):
    return 0 if isinstance(tree, int) else 1 + max(height(tree[1]), height(tree[2]))


def render(draw, frame, tree, depth=0, needs_parens=False):
    """Text of a tree inside `depth` parentheses, with redundant pairs up to the nesting limit.

    Each operator in the tree may need one pair of its own, so a subtree
    keeps `height` levels free for them.
    """
    room = _MAX_NESTING - depth - height(tree)
    pairs = draw(st.one_of(st.just(0), st.integers(0, room))) + needs_parens
    if isinstance(tree, int):
        body = frame.names[tree - 1]
    else:
        op, left, right = tree
        # "&" binds tighter, so only a "|" under an "&" needs its pair
        kids = [render(draw, frame, kid, depth + pairs,
                       op == "&" and not isinstance(kid, int) and kid[0] == "|")
                for kid in (left, right)]
        body = draw(SPACE).join([kids[0], draw(st.sampled_from(SPELLINGS[op])), kids[1]])
    return draw(SPACE).join(["(" * pairs, body, ")" * pairs]) if pairs else body


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(1, 5))
def test_parse_matches_tree(data, n):
    frame = build_frame([f"t{i}" for i in range(1, n + 1)])
    tree = data.draw(trees(n))
    text = data.draw(SPACE) + render(data.draw, frame, tree) + data.draw(SPACE)
    assert parse(frame, text) == evaluate(frame, tree)


PIECES = st.sampled_from(["t1", "t2", "t3", "t9", "x", "_a", "EMPTY", "é", "日本", "Ω", "0", "3",
                          "&", "∩", "|", "∪", "(", ")", "(" * 60, ")" * 60, "{",
                          " ", "\t", "\u3000"])


@settings(max_examples=500, deadline=None)
@given(text=st.lists(PIECES, max_size=30).map("".join))
def test_any_text_parses_or_raises_parse_error(text):
    frame = build_frame(("t1", "t2", "t3"))
    try:
        parse(frame, text)
    except ParseError as exc:
        assert 0 <= exc.position <= len(text.encode())
        text.encode()[:exc.position].decode()  # the offset falls on a character boundary
