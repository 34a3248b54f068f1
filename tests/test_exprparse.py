"""Expression grammar: precedence, errors with positions, round-trips."""

import pytest

from dsmfusion import (
    build_frame,
    conjoin,
    disjoin,
    empty,
    enumerate_hpset,
    parse,
    roundtrip,
    singleton,
    to_expression,
)
from dsmfusion.errors import EmptyExpression, ExprSyntaxError, UnknownIdentifier


class TestParse:
    def test_mixed_term(self, frame3):
        p = parse(frame3, "(t1&t2)|t3")
        assert set(p.generators) == {(1, 2), (3,)}

    def test_single(self, frame3):
        assert parse(frame3, "t1") == singleton(frame3, 1)

    def test_precedence(self, frame3):
        t1, t2, t3 = (singleton(frame3, i) for i in (1, 2, 3))
        assert parse(frame3, "t1&t2|t3") == disjoin(conjoin(t1, t2), t3)
        assert parse(frame3, "t1|t2&t3") == disjoin(t1, conjoin(t2, t3))

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
            assert roundtrip(frame, p) == p

    def test_empty_special_case(self, frame3):
        assert to_expression(empty(frame3)) == "EMPTY"
        with pytest.raises(UnknownIdentifier):
            parse(frame3, "EMPTY")
        assert roundtrip(frame3, empty(frame3)) == empty(frame3)

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
