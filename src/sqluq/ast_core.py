"""Normalized SQL AST: tokenizer, parser, alias maps, and tree utilities.

The parser covers the SQLite-flavoured subset needed for analysing
SELECT queries: projections, FROM with joins and subqueries, WHERE,
GROUP BY, HAVING, ORDER BY, LIMIT, aggregates, binary comparisons,
LIKE, IN, arithmetic, aliases and stars.  Anything outside the subset
raises UnsupportedConstruct so callers can skip a query instead of
silently mislabeling it.  Expressions are parsed by one precedence-climbing
loop over explicit stacks, so parenthesis nesting has no depth limit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum


class NodeKind(Enum):
    SELECT = "Select"
    FROM = "From"
    WHERE = "Where"
    GROUP_BY = "GroupBy"
    HAVING = "Having"
    ORDER_BY = "OrderBy"
    ORDERED = "Ordered"
    LIMIT = "Limit"
    JOIN = "Join"
    EQ = "Eq"
    NEQ = "Neq"
    GT = "Gt"
    LT = "Lt"
    GTE = "Gte"
    LTE = "Lte"
    LIKE = "Like"
    IN = "In"
    AND = "And"
    OR = "Or"
    NOT = "Not"
    ADD = "Add"
    SUB = "Sub"
    MUL = "Mul"
    DIV = "Div"
    FUNC = "Func"
    AGG = "Agg"
    COLUMN = "Column"
    IDENTIFIER = "Identifier"
    LITERAL = "Literal"
    STAR = "Star"
    TABLE = "Table"
    TABLE_ALIAS = "TableAlias"
    SUBQUERY = "Subquery"
    ALIAS = "Alias"
    OTHER = "Other"


# Kinds whose content field must be non-empty.
CONTENT_KINDS = frozenset(
    {
        NodeKind.IDENTIFIER,
        NodeKind.LITERAL,
        NodeKind.TABLE,
        NodeKind.COLUMN,
        NodeKind.FUNC,
        NodeKind.AGG,
    }
)

# Binary operators: exactly two operands, in source order.
BINARY_OP_KINDS = frozenset(
    {
        NodeKind.EQ, NodeKind.NEQ, NodeKind.GT, NodeKind.LT, NodeKind.GTE,
        NodeKind.LTE, NodeKind.LIKE, NodeKind.ADD, NodeKind.SUB, NodeKind.MUL,
        NodeKind.DIV,
    }
)

# Node flags (normalization markers).
FLAG_STRING = "string"  # string literal (quotes stripped)
FLAG_NULL = "null"  # NULL literal
FLAG_QUOTED = "quoted"  # quoted identifier, quotes stripped
FLAG_QUALIFIER = "qualifier"  # identifier used as a column qualifier
FLAG_TABLE_NAME = "table_name"  # identifier naming a base table
FLAG_COLUMN_NAME = "column_name"  # identifier naming a column
FLAG_ALL_CAPS = "orig_all_caps"  # source lexeme was ALL_CAPS before folding
FLAG_MIXED_CASE = "orig_mixed_case"  # source lexeme was mixedCase before folding


class ParseError(Exception):
    """Syntactically invalid SQL; carries a byte position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at byte {position})")
        self.position = position


class UnsupportedConstruct(Exception):
    """Valid SQL outside the supported subset; the query should be skipped."""

    def __init__(self, construct: str, position: int):
        super().__init__(f"unsupported construct: {construct} (at byte {position})")
        self.construct = construct
        self.position = position


@dataclass
class SqlNode:
    """A normalized AST node.

    ids form a contiguous preorder sequence over the tree, depth is 0 at
    the root, and span is a (start, end) byte range into the source text.
    Nodes are treated as immutable once a tree has been finalized.
    """

    id: int
    kind: NodeKind
    content: str | None
    children: list["SqlNode"]
    span: tuple[int, int]
    depth: int
    flags: tuple[str, ...] = ()

    def walk(self):
        """Yield this node and every descendant in preorder."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack += node.children[::-1]

    def descriptor(self) -> tuple[str, str | None]:
        return (self.kind.value, self.content)

    def qualifier(self) -> str | None:
        """The qualifier of a column or star reference (`x` in `x.a`)."""
        for child in self.children:
            if child.kind is NodeKind.IDENTIFIER and FLAG_QUALIFIER in child.flags:
                return child.content
        return None

    def __repr__(self):  # compact, content-first
        inner = f"({self.content})" if self.content is not None else ""
        return f"{self.kind.value}{inner}#{self.id}"


def preorder(tree: SqlNode) -> list[SqlNode]:
    """Deterministic preorder enumeration, aligned with node ids."""
    return list(tree.walk())


@dataclass
class AliasMap:
    """Case-folded alias name -> base table name for one query tree."""

    entries: dict[str, str] = field(default_factory=dict)

    def resolve(self, name: str) -> str:
        """The base table an alias names; any other name names itself."""
        return self.entries.get(name, name)


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

KEYWORDS = {
    "select", "distinct", "from", "where", "group", "by", "having", "order",
    "limit", "offset", "join", "inner", "left", "right", "full", "outer",
    "cross", "natural", "on", "as", "and", "or", "not", "in", "like", "asc",
    "desc", "null", "is", "between", "exists", "case", "union", "intersect",
    "except", "with", "over", "cast", "using",
}

AGGREGATE_NAMES = {"count", "sum", "avg", "min", "max", "total", "group_concat"}

_TWO_CHAR_OPS = ("==", "!=", "<>", "<=", ">=")
_ONE_CHAR_OPS = "=<>+-*/(),.;"
_DIGITS = "0123456789"


@dataclass
class Token:
    kind: str  # kw | ident | qident | num | str | op | end
    text: str  # normalized lexeme (case-folded idents, unquoted strings)
    start: int  # byte offset
    end: int  # byte offset (exclusive)
    raw: str = ""  # source lexeme before normalization

    def case_flags(self) -> tuple[str, ...]:
        letters = [c for c in self.raw if c.isalpha()]
        if not letters:
            return ()
        if all(c.isupper() for c in letters):
            return (FLAG_ALL_CAPS,)
        if any(c.isupper() for c in letters) and any(c.islower() for c in letters):
            return (FLAG_MIXED_CASE,)
        return ()


def _byte_len(ch: str) -> int:
    return 1 if ord(ch) < 0x80 else len(ch.encode("utf-8"))


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    i = 0
    pos = 0  # byte offset
    n = len(text)
    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            pos += _byte_len(ch)
            i += 1
            continue
        if ch == "-" and i + 1 < n and text[i + 1] == "-":
            while i < n and text[i] != "\n":
                pos += _byte_len(text[i])
                i += 1
            continue
        if ch == "/" and i + 1 < n and text[i + 1] == "*":
            i += 2
            pos += 2
            while i < n and not (text[i] == "*" and i + 1 < n and text[i + 1] == "/"):
                pos += _byte_len(text[i])
                i += 1
            if i >= n:
                raise ParseError("unterminated block comment", pos)
            i += 2
            pos += 2
            continue
        start = pos
        # ASCII digits only: SQLite reads other digits, like '٣', as identifier characters
        if ch in _DIGITS or (ch == "." and i + 1 < n and text[i + 1] in _DIGITS):
            j = i
            seen_dot = False
            while j < n and (text[j] in _DIGITS or (text[j] == "." and not seen_dot)):
                if text[j] == ".":
                    # a trailing dot followed by non-digit belongs to the next token
                    if j + 1 >= n or text[j + 1] not in _DIGITS:
                        break
                    seen_dot = True
                j += 1
            pos += j - i
            tokens.append(Token("num", text[i:j], start, pos))
            i = j
            continue
        if ch == "'":
            j = i + 1
            out = []
            while True:
                if j >= n:
                    raise ParseError("unterminated string literal", start)
                if text[j] == "'":
                    if j + 1 < n and text[j + 1] == "'":
                        out.append("'")
                        j += 2
                        continue
                    j += 1
                    break
                out.append(text[j])
                j += 1
            raw = text[i:j]
            pos += len(raw.encode("utf-8"))
            tokens.append(Token("str", "".join(out), start, pos))
            i = j
            continue
        if ch in '"`[':
            closer = {'"': '"', "`": "`", "[": "]"}[ch]
            j = i + 1
            while j < n and text[j] != closer:
                j += 1
            if j >= n:
                raise ParseError("unterminated quoted identifier", start)
            raw = text[i : j + 1]
            pos += len(raw.encode("utf-8"))
            inner = text[i + 1 : j]
            tokens.append(Token("qident", inner.casefold(), start, pos, raw=inner))
            i = j + 1
            continue
        if ch.isalnum() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            lexeme = text[i:j]
            pos += len(lexeme.encode("utf-8"))
            folded = lexeme.casefold()
            kind = "kw" if folded in KEYWORDS else "ident"
            tokens.append(Token(kind, folded, start, pos, raw=lexeme))
            i = j
            continue
        two = text[i : i + 2]
        if two in _TWO_CHAR_OPS:
            pos += 2
            tokens.append(Token("op", two, start, pos))
            i += 2
            continue
        if ch in _ONE_CHAR_OPS:
            pos += 1
            tokens.append(Token("op", ch, start, pos))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", pos)
    tokens.append(Token("end", "", pos, pos))
    return tokens


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

# Infix operators by token: (binding power, kind).  Prefix NOT binds at 3,
# between AND and the comparisons, and an open parenthesis is an operator
# stack entry of power 0.  Comparisons, LIKE and IN are non-associative.
_INFIX = {
    "or": (1, NodeKind.OR), "and": (2, NodeKind.AND),
    "=": (4, NodeKind.EQ), "==": (4, NodeKind.EQ), "!=": (4, NodeKind.NEQ),
    "<>": (4, NodeKind.NEQ), ">": (4, NodeKind.GT), "<": (4, NodeKind.LT),
    ">=": (4, NodeKind.GTE), "<=": (4, NodeKind.LTE), "like": (4, NodeKind.LIKE),
    "in": (4, NodeKind.IN), "+": (5, NodeKind.ADD), "-": (5, NodeKind.SUB),
    "*": (6, NodeKind.MUL), "/": (6, NodeKind.DIV),
}

_UNSUPPORTED_KEYWORDS = {
    "between", "exists", "case", "union", "intersect", "except", "with",
    "over", "cast", "is", "natural", "using",
}


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.i = 0

    # -- cursor helpers -----------------------------------------------------
    def peek(self, offset: int = 0) -> Token:
        return self.tokens[min(self.i + offset, len(self.tokens) - 1)]

    def next(self) -> Token:
        tok = self.tokens[self.i]
        if tok.kind != "end":
            self.i += 1
        return tok

    def at_kw(self, *words: str, offset: int = 0) -> bool:
        tok = self.peek(offset)
        return tok.kind == "kw" and tok.text in words

    def at_op(self, *ops: str, offset: int = 0) -> bool:
        tok = self.peek(offset)
        return tok.kind == "op" and tok.text in ops

    def expect_kw(self, word: str) -> Token:
        tok = self.peek()
        if not (tok.kind == "kw" and tok.text == word):
            raise ParseError(f"expected {word.upper()}", tok.start)
        return self.next()

    def expect_op(self, op: str) -> Token:
        tok = self.peek()
        if not (tok.kind == "op" and tok.text == op):
            raise ParseError(f"expected {op!r}", tok.start)
        return self.next()

    def guard_unsupported(self):
        tok = self.peek()
        if tok.kind == "kw" and tok.text in _UNSUPPORTED_KEYWORDS:
            raise UnsupportedConstruct(tok.text.upper(), tok.start)

    def comma_list(self, parse_item) -> list[SqlNode]:
        """One item, then one more for each comma that follows."""
        items = [parse_item()]
        while self.at_op(","):
            self.next()
            items.append(parse_item())
        return items

    # -- node factory (ids/depths assigned later) ---------------------------
    @staticmethod
    def node(kind: NodeKind, content: str | None, children: list[SqlNode],
             span: tuple[int, int], flags: tuple[str, ...] = ()) -> SqlNode:
        return SqlNode(id=-1, kind=kind, content=content, children=children,
                       span=span, depth=-1, flags=flags)

    # -- grammar ------------------------------------------------------------
    def parse_select(self) -> SqlNode:
        start = self.expect_kw("select").start
        children: list[SqlNode] = []
        if self.at_kw("distinct"):
            tok = self.next()
            children.append(self.node(NodeKind.OTHER, "distinct", [], (tok.start, tok.end)))
        children.extend(self.comma_list(self.parse_select_item))
        children.append(self.parse_from())
        if self.at_kw("where"):
            kw = self.next()
            expr = self.parse_expr()
            children.append(self.node(NodeKind.WHERE, None, [expr], (kw.start, expr.span[1])))
        if self.at_kw("group"):
            kw = self.next()
            self.expect_kw("by")
            items = self.comma_list(self.parse_expr)
            children.append(self.node(NodeKind.GROUP_BY, None, items, (kw.start, items[-1].span[1])))
        if self.at_kw("having"):
            kw = self.next()
            expr = self.parse_expr()
            children.append(self.node(NodeKind.HAVING, None, [expr], (kw.start, expr.span[1])))
        if self.at_kw("order"):
            kw = self.next()
            self.expect_kw("by")
            items = self.comma_list(self.parse_ordered)
            children.append(self.node(NodeKind.ORDER_BY, None, items, (kw.start, items[-1].span[1])))
        if self.at_kw("limit"):
            kw = self.next()
            count = self.parse_literal_only("LIMIT count")
            limit_children = [count]
            end = count.span[1]
            if self.at_kw("offset"):
                self.next()
                off = self.parse_literal_only("OFFSET count")
                limit_children.append(off)
                end = off.span[1]
            elif self.at_op(","):
                raise UnsupportedConstruct("LIMIT offset, count", self.peek().start)
            children.append(self.node(NodeKind.LIMIT, None, limit_children, (kw.start, end)))
        self.guard_unsupported()
        end = children[-1].span[1]
        return self.node(NodeKind.SELECT, None, children, (start, end))

    def parse_ordered(self) -> SqlNode:
        expr = self.parse_expr()
        direction = None
        end = expr.span[1]
        if self.at_kw("asc"):
            end = self.next().end  # explicit ASC normalizes to the default
        elif self.at_kw("desc"):
            tok = self.next()
            direction = "desc"
            end = tok.end
        return self.node(NodeKind.ORDERED, direction, [expr], (expr.span[0], end))

    def parse_literal_only(self, what: str) -> SqlNode:
        tok = self.peek()
        if tok.kind != "num":
            raise ParseError(f"expected numeric literal for {what}", tok.start)
        self.next()
        return self.node(NodeKind.LITERAL, tok.text, [], (tok.start, tok.end))

    def parse_select_item(self) -> SqlNode:
        if self.at_op("*"):
            tok = self.next()
            return self.node(NodeKind.STAR, None, [], (tok.start, tok.end))
        expr = self.parse_expr()
        alias = self.parse_optional_alias()
        if alias is not None:
            return self.node(NodeKind.ALIAS, alias.text, [expr], (expr.span[0], alias.end))
        return expr

    def parse_optional_alias(self) -> Token | None:
        if self.at_kw("as"):
            self.next()
            tok = self.peek()
            if tok.kind not in ("ident", "qident"):
                raise ParseError("expected alias name after AS", tok.start)
            return self.next()
        tok = self.peek()
        if tok.kind in ("ident", "qident"):
            # bare alias; only when not followed by '(' (function call) or '.'
            if not self.at_op("(", ".", offset=1):
                return self.next()
        return None

    def parse_from(self) -> SqlNode:
        kw = self.expect_kw("from")
        items = [self.parse_table_item()]
        while True:
            if self.at_op(","):
                self.next()
                items.append(self.parse_table_item())
                continue
            join = self.parse_optional_join()
            if join is None:
                break
            items.append(join)
        return self.node(NodeKind.FROM, None, items, (kw.start, items[-1].span[1]))

    def parse_optional_join(self) -> SqlNode | None:
        tok = self.peek()
        if not self.at_kw("join", "inner", "left", "right", "full", "cross"):
            return None
        start = tok.start
        join_type = "inner"
        if self.at_kw("inner"):
            self.next()
        elif self.at_kw("left"):
            self.next()
            join_type = "left"
            if self.at_kw("outer"):
                self.next()
        elif self.at_kw("cross"):
            self.next()
            join_type = "cross"
        elif self.at_kw("right") or self.at_kw("full"):
            raise UnsupportedConstruct(f"{self.peek().text.upper()} JOIN", tok.start)
        self.expect_kw("join")
        item = self.parse_table_item()
        children = [item]
        end = item.span[1]
        if self.at_kw("on"):
            self.next()
            cond = self.parse_expr()
            children.append(cond)
            end = cond.span[1]
        return self.node(NodeKind.JOIN, join_type, children, (start, end))

    def parse_table_item(self) -> SqlNode:
        if self.at_op("("):
            open_tok = self.next()
            sub = self.parse_select()
            close = self.expect_op(")")
            children = [sub]
            end = close.end
            alias = self.parse_optional_alias()
            if alias is not None:
                children.append(self.node(NodeKind.TABLE_ALIAS, alias.text, [],
                                          (alias.start, alias.end)))
                end = alias.end
            return self.node(NodeKind.SUBQUERY, None, children, (open_tok.start, end))
        tok = self.peek()
        if tok.kind not in ("ident", "qident"):
            self.guard_unsupported()
            raise ParseError("expected table name", tok.start)
        self.next()
        flags = (FLAG_QUOTED,) if tok.kind == "qident" else ()
        ident = self.node(NodeKind.IDENTIFIER, tok.text, [], (tok.start, tok.end),
                          flags=flags + (FLAG_TABLE_NAME,) + tok.case_flags())
        children = [ident]
        end = tok.end
        alias = self.parse_optional_alias()
        if alias is not None:
            children.append(self.node(NodeKind.TABLE_ALIAS, alias.text, [],
                                      (alias.start, alias.end)))
            end = alias.end
        return self.node(NodeKind.TABLE, tok.text, children, (tok.start, end),
                         flags=tok.case_flags())

    def parse_expr(self) -> SqlNode:
        """One expression, by precedence climbing over an operand stack and
        an operator stack of (binding power, kind, start, negated) entries.

        Parentheses push a power-0 entry instead of recursing, so nesting
        depth costs stack entries, not interpreter frames.
        """
        operands: list[SqlNode] = []
        ops: list[tuple[int, NodeKind | None, int, bool]] = []
        while True:
            if self.at_kw("not") and (not ops or ops[-1][0] <= 3):
                # prefix NOT only where a boolean operand may start:
                # first, or after '(', AND, OR or NOT
                ops.append((3, NodeKind.NOT, self.next().start, False))
                continue
            if self.at_op("(") and not self.at_kw("select", offset=1):
                ops.append((0, None, self.next().start, False))
                continue
            operands.append(self.parse_primary())
            after_in = False  # an IN list ends its comparison; no operator of power 4+ may follow
            while True:  # past an operand: ')', an infix operator, or the end
                tok = self.peek()
                negated = self.at_kw("not") and self.at_kw("like", "in", offset=1)
                op = self.peek(1) if negated else tok  # quoted names and strings are operands
                power, kind = _INFIX.get(op.text, (0, None)) if op.kind in ("kw", "op") else (0, None)
                if after_in and power >= 4:
                    raise ParseError("operator after IN list", tok.start)
                if not power and not after_in:
                    # guard unless a comparison is pending: the innermost entry of power <= 4 is one
                    if next((p for p, *_ in reversed(ops) if p <= 4), 0) != 4:
                        self.guard_unsupported()
                while ops and ops[-1][0] >= max(power, 1):  # left associative
                    if ops[-1][0] == power == 4:
                        raise ParseError("chained comparison", tok.start)
                    self._reduce(ops.pop(), operands)
                if not power:
                    if not ops:
                        return operands[0]
                    self.expect_op(")")
                    ops.pop()  # redundant grouping is dropped; the inner node keeps its span
                    after_in = False
                    continue
                self.next()
                if negated:
                    self.next()
                if kind is not NodeKind.IN:
                    ops.append((power, kind, tok.start, negated))
                    break
                operands.append(self.parse_in_list())
                self._reduce((power, kind, tok.start, negated), operands)
                after_in = True

    def _reduce(self, entry: tuple[int, NodeKind | None, int, bool], operands: list[SqlNode]):
        """Apply one operator stack entry to the operands on top of the stack."""
        _, kind, start, negated = entry
        rhs = operands.pop()
        if kind is NodeKind.NOT:
            operands.append(self.node(kind, None, [rhs], (start, rhs.span[1])))
            return
        lhs = operands.pop()
        if kind in (NodeKind.AND, NodeKind.OR):
            # n-ary normalization: chained AND/OR extend the left operand in place
            if lhs.kind is not kind:
                lhs = self.node(kind, None, [lhs], lhs.span)
            lhs.children += rhs.children if rhs.kind is kind else [rhs]
            lhs.span = (lhs.span[0], rhs.span[1])
            operands.append(lhs)
            return
        items = rhs.children if kind is NodeKind.IN else [rhs]
        node = self.node(kind, None, [lhs, *items], (lhs.span[0], rhs.span[1]))
        operands.append(self.node(NodeKind.NOT, None, [node], node.span) if negated else node)

    def parse_in_list(self) -> SqlNode:
        """`(SELECT …)` or `(expr, …)`: an In node holding the right side of IN."""
        open_tok = self.expect_op("(")
        if self.at_kw("select"):
            sub = self.parse_select()
            close = self.expect_op(")")
            items = [self.node(NodeKind.SUBQUERY, None, [sub], (sub.span[0], close.end))]
        else:
            items = self.comma_list(self.parse_expr)
            close = self.expect_op(")")
        return self.node(NodeKind.IN, None, items, (open_tok.start, close.end))

    def parse_primary(self) -> SqlNode:
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.next()
            num = self.peek()
            if num.kind != "num":
                raise UnsupportedConstruct("unary minus on non-literal", tok.start)
            self.next()
            return self.node(NodeKind.LITERAL, "-" + num.text, [], (tok.start, num.end))
        if tok.kind == "num":
            self.next()
            return self.node(NodeKind.LITERAL, tok.text, [], (tok.start, tok.end))
        if tok.kind == "str":
            self.next()
            return self.node(NodeKind.LITERAL, tok.text, [], (tok.start, tok.end),
                             flags=(FLAG_STRING,))
        if tok.kind == "kw" and tok.text == "null":
            self.next()
            return self.node(NodeKind.LITERAL, "null", [], (tok.start, tok.end),
                             flags=(FLAG_NULL,))
        if tok.kind == "op" and tok.text == "(":  # a scalar subquery; parse_expr takes grouping
            self.next()
            sub = self.parse_select()
            close = self.expect_op(")")
            return self.node(NodeKind.SUBQUERY, None, [sub], (tok.start, close.end))
        if tok.kind in ("ident", "qident"):
            if self.at_op("(", offset=1):
                return self.parse_call()
            return self.parse_column_ref()
        self.guard_unsupported()
        raise ParseError("expected expression", tok.start)

    def parse_call(self) -> SqlNode:
        name_tok = self.next()
        self.expect_op("(")
        name = name_tok.text
        kind = NodeKind.AGG if name in AGGREGATE_NAMES else NodeKind.FUNC
        args: list[SqlNode] = []
        distinct_tok = None
        if self.at_kw("distinct"):
            distinct_tok = self.next()
        if self.at_op("*"):
            star = self.next()
            args.append(self.node(NodeKind.STAR, None, [], (star.start, star.end)))
        elif not self.at_op(")"):
            args = self.comma_list(self.parse_expr)
        close = self.expect_op(")")
        if distinct_tok is not None:
            if not args:
                raise ParseError("DISTINCT requires an argument", distinct_tok.start)
            wrapped = self.node(NodeKind.OTHER, "distinct", [args[0]],
                                (distinct_tok.start, args[0].span[1]))
            args[0] = wrapped
        if self.peek().kind == "kw" and self.peek().text == "over":
            raise UnsupportedConstruct("window function", self.peek().start)
        return self.node(kind, name, args, (name_tok.start, close.end),
                         flags=name_tok.case_flags())

    def parse_column_ref(self) -> SqlNode:
        first = self.next()
        first_flags = (FLAG_QUOTED,) if first.kind == "qident" else ()
        if not self.at_op("."):
            ident = self.node(NodeKind.IDENTIFIER, first.text, [], (first.start, first.end),
                              flags=first_flags + (FLAG_COLUMN_NAME,) + first.case_flags())
            return self.node(NodeKind.COLUMN, first.text, [ident], (first.start, first.end),
                             flags=first.case_flags())
        self.next()
        qual = self.node(NodeKind.IDENTIFIER, first.text, [], (first.start, first.end),
                         flags=first_flags + (FLAG_QUALIFIER,) + first.case_flags())
        if self.at_op("*"):
            star = self.next()
            return self.node(NodeKind.STAR, None, [qual], (first.start, star.end))
        name_tok = self.peek()
        if name_tok.kind not in ("ident", "qident"):
            raise ParseError("expected column name after '.'", name_tok.start)
        self.next()
        return self.node(NodeKind.COLUMN, name_tok.text, [qual], (first.start, name_tok.end),
                         flags=name_tok.case_flags())


def _finalize(root: SqlNode) -> SqlNode:
    """Assign contiguous preorder ids and depths."""
    root.depth = 0
    for i, node in enumerate(root.walk()):
        node.id = i
        for child in node.children:
            child.depth = node.depth + 1
    return root


def parse_sql(text: str) -> SqlNode:
    """Parse SQL text into a normalized tree.

    Raises ParseError for invalid syntax and UnsupportedConstruct for valid
    SQL outside the supported subset.
    """
    if not text or not text.strip():
        raise ParseError("empty input", 0)
    tokens = tokenize(text)
    parser = _Parser(tokens)
    if not parser.at_kw("select"):
        tok = parser.peek()
        if tok.kind == "kw" and tok.text in _UNSUPPORTED_KEYWORDS:
            raise UnsupportedConstruct(tok.text.upper(), tok.start)
        raise ParseError("expected SELECT", tok.start)
    root = parser.parse_select()
    while parser.at_op(";"):
        parser.next()
    tail = parser.peek()
    if tail.kind != "end":
        if tail.kind == "kw" and tail.text in _UNSUPPORTED_KEYWORDS:
            raise UnsupportedConstruct(tail.text.upper(), tail.start)
        raise ParseError("unexpected trailing input", tail.start)
    return _finalize(root)


def build_alias_map(tree: SqlNode) -> AliasMap:
    """Collect alias -> base table entries declared in FROM/JOIN clauses.

    The map is one per tree, not one per query level.  Entries are written
    in preorder, so when an alias is declared twice, in one level or in
    nested ones, the later declaration wins.
    """
    amap = AliasMap()
    for node in tree.walk():
        if node.kind is NodeKind.TABLE:
            alias = next((c for c in node.children if c.kind is NodeKind.TABLE_ALIAS), None)
            if alias is not None and alias.content:
                amap.entries[alias.content] = node.content
    return amap
