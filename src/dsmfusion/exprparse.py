"""Recursive-descent parser for proposition expressions.

Grammar (whitespace insignificant, "&" binds tighter than "|", both
left-associative):

    expr   := term ('|' term)*
    term   := factor ('&' factor)*
    factor := ident | '(' expr ')'

Identifiers must name frame singletons.  The Unicode set operators are
accepted as aliases for the ASCII ones.  Errors carry the byte offset of the
offending input.  There is deliberately no complement operator: the
hyper-power set is not a Boolean lattice.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import EmptyExpression, ExprSyntaxError, UnknownIdentifier
from .lattice import Frame, Proposition, conjoin, disjoin, empty, singleton, to_expression

_ALIASES = {"∩": "&", "∪": "|"}

# Deepest parenthesis nesting accepted; the parser recurses once per level.
_MAX_NESTING = 100


@dataclass(frozen=True)
class ExprToken:
    kind: str  # ident | amp | pipe | lparen | rparen | end
    text: str
    position: int  # byte offset into the utf-8 input


def tokenize(text: str) -> list[ExprToken]:
    tokens: list[ExprToken] = []
    i = 0
    byte_pos = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            byte_pos += len(ch.encode("utf-8"))
            i += 1
            continue
        op = _ALIASES.get(ch, ch)
        if op == "&":
            tokens.append(ExprToken("amp", ch, byte_pos))
        elif op == "|":
            tokens.append(ExprToken("pipe", ch, byte_pos))
        elif op == "(":
            tokens.append(ExprToken("lparen", ch, byte_pos))
        elif op == ")":
            tokens.append(ExprToken("rparen", ch, byte_pos))
        elif ch.isalpha() or ch == "_":
            start_byte = byte_pos
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            tokens.append(ExprToken("ident", word, start_byte))
            byte_pos += len(word.encode("utf-8"))
            i = j
            continue
        else:
            raise ExprSyntaxError(byte_pos, f"identifier, '(', '&' or '|', not {ch!r}")
        byte_pos += len(ch.encode("utf-8"))
        i += 1
    tokens.append(ExprToken("end", "", byte_pos))
    return tokens


class _Parser:
    def __init__(self, frame: Frame, tokens: list[ExprToken]):
        self.frame = frame
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    def peek(self) -> ExprToken:
        return self.tokens[self.pos]

    def advance(self) -> ExprToken:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expr(self) -> Proposition:
        node = self.term()
        while self.peek().kind == "pipe":
            self.advance()
            node = disjoin(node, self.term())
        return node

    def term(self) -> Proposition:
        node = self.factor()
        while self.peek().kind == "amp":
            self.advance()
            node = conjoin(node, self.factor())
        return node

    def factor(self) -> Proposition:
        tok = self.peek()
        if tok.kind == "ident":
            self.advance()
            if tok.text not in self.frame.names:
                raise UnknownIdentifier(tok.text, tok.position)
            return singleton(self.frame, self.frame.index(tok.text))
        if tok.kind == "lparen":
            if self.depth == _MAX_NESTING:
                raise ExprSyntaxError(tok.position, f"at most {_MAX_NESTING} nested parentheses")
            self.advance()
            self.depth += 1
            node = self.expr()
            self.depth -= 1
            closing = self.peek()
            if closing.kind != "rparen":
                raise ExprSyntaxError(closing.position, "')'")
            self.advance()
            return node
        raise ExprSyntaxError(tok.position, "identifier or '('")


def parse(frame: Frame, text: str) -> Proposition:
    """Parse an expression into its canonical Proposition."""
    if text is None or not text.strip():
        raise EmptyExpression()
    parser = _Parser(frame, tokenize(text))
    node = parser.expr()
    trailing = parser.peek()
    if trailing.kind != "end":
        raise ExprSyntaxError(trailing.position, "end of input, '&' or '|'")
    return node


def roundtrip(frame: Frame, p: Proposition) -> Proposition:
    """parse(to_expression(p)); EMPTY is special-cased since its rendering is not parseable."""
    if p.is_empty:
        return empty(frame)
    return parse(frame, to_expression(p))
