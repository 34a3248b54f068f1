"""Parser for proposition expressions.

Grammar (whitespace insignificant, "&" binds tighter than "|", both
left-associative):

    expr   := term ('|' term)*
    term   := factor ('&' factor)*
    factor := ident | '(' expr ')'

Identifiers must name frame singletons.  The Unicode set operators are
accepted as aliases for the ASCII ones.  There is deliberately no complement
operator: the hyper-power set is not a Boolean lattice.

Parsing works on atom bitsets: a singleton is its row of the lattice's digit
masks, "&" and "|" are AND and OR of bitsets, and one Proposition is built
at the end.  The whole input is scanned into tokens first, so a bad
character is reported ahead of an earlier unknown name.  One left-to-right
pass over the tokens then keeps, per open parenthesis, the OR of the
finished terms and the AND of the current one; it neither recurses nor
builds closures, so a parse leaves no reference cycles behind.  Errors carry
the byte offset of the offending input in its UTF-8 encoding, worked out
only when an error is raised.
"""

from __future__ import annotations

import re

from .errors import EmptyExpression, ExprSyntaxError, UnknownIdentifier
from .lattice import Frame, Proposition, _digit_masks, _proposition, empty

# \w and \s follow str.isalnum (plus "_") and str.isspace, character for character
_TOKEN = re.compile(r"\w+|\S")
_ALIASES = {"∩": "&", "∪": "|"}
# Operators and parentheses; the end of input is the empty token.
_PUNCTUATION = frozenset(("&", "|", "(", ")", ""))

# Deepest parenthesis nesting accepted.
_MAX_NESTING = 100


def _byte(text: str, i: int) -> int:
    """Byte offset of character i in the UTF-8 encoding of text."""
    return len(text[:i].encode("utf-8"))


def _scan(text: str) -> list[tuple[str, int]]:
    """(token, character offset) pairs, operators in ASCII, then ("", len(text))."""
    tokens = []
    for match in _TOKEN.finditer(text):
        tok, i = _ALIASES.get(match[0], match[0]), match.start()
        if tok not in _PUNCTUATION and not (tok[0].isalpha() or tok[0] == "_"):
            raise ExprSyntaxError(_byte(text, i), f"identifier, '(', '&' or '|', not {tok[0]!r}")
        tokens.append((tok, i))
    tokens.append(("", len(text)))
    return tokens


def parse(frame: Frame, text: str) -> Proposition:
    """Parse an expression into its canonical Proposition."""
    if not isinstance(text, str):
        if text is None:
            raise EmptyExpression()
        raise ExprSyntaxError(0, f"an expression string, not {type(text).__name__}")
    if not text.strip():
        raise EmptyExpression()
    names, masks, full = frame.names, _digit_masks(frame.n), frame.full_mask
    # union is the OR of the finished terms of the innermost open group and
    # meet the AND of its current term; `outer` keeps the enclosing pairs
    union, meet, outer = 0, full, []
    want_factor = True
    for tok, i in _scan(text):
        if want_factor:
            if tok == "(":
                if len(outer) == _MAX_NESTING:
                    raise ExprSyntaxError(_byte(text, i), f"at most {_MAX_NESTING} nested parentheses")
                outer.append((union, meet))
                union, meet = 0, full
                continue
            if tok in _PUNCTUATION:
                raise ExprSyntaxError(_byte(text, i), "identifier or '('")
            if tok not in names:
                raise UnknownIdentifier(tok, _byte(text, i))
            meet &= masks[names.index(tok)]
            want_factor = False
        elif tok == "&":
            want_factor = True
        elif tok == "|":
            union, meet, want_factor = union | meet, full, True
        elif tok == ")" and outer:
            group = union | meet
            union, meet = outer.pop()
            meet &= group
        elif outer:
            raise ExprSyntaxError(_byte(text, i), "')'")
        elif tok:  # anything but the end of input
            raise ExprSyntaxError(_byte(text, i), "end of input, '&' or '|'")
    return _proposition(frame, union | meet)


def _parse_or_empty(frame: Frame, text: str) -> Proposition:
    """A mass-table key: an expression, or "EMPTY", which the grammar deliberately lacks."""
    return empty(frame) if isinstance(text, str) and text.strip() == "EMPTY" else parse(frame, text)
