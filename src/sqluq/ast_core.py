"""Normalized SQL AST: tokenizer, parser, alias maps, and tree utilities.

The parser covers the SQLite-flavoured subset needed for analysing
SELECT queries: projections, FROM with joins and subqueries, WHERE,
GROUP BY, HAVING, ORDER BY, LIMIT, aggregates, binary comparisons,
LIKE, IN, arithmetic, aliases and stars.  Anything outside the subset
raises UnsupportedConstruct so callers can skip a query instead of
silently mislabeling it.  Expressions are parsed by one precedence-climbing
loop over explicit stacks, so parenthesis nesting has no depth limit.

Lexical rules: a number is ASCII digits with an optional fraction (`1`,
`1.5`, `.5`) and must not touch a following word character (`1a` is an
error); in a string, `''` is an escaped quote; quoted identifiers use
`""`, backticks or `[]`; comments run from `--` to the end of the line or
between `/*` and `*/`.
"""

from __future__ import annotations

import re
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

# One named group per token class, tried in order at each position; the
# group that matched names the token kind.  Numbers come before words
# because \w (exactly str.isalnum() or '_') also matches digits.
_TOKEN_RE = re.compile(
    r"""(?P<skip>[ \t\r\n]+|--[^\n]*|/\*.*?\*/)
    # ASCII digits only: SQLite reads other digits, like '٣', as name characters.
    # A trailing dot belongs to the next token; a glued word character is refused.
    |(?P<num>(?:[0-9]+(?:\.[0-9]+)?|\.[0-9]+)(?P<glued>\w)?)
    # '' is an escaped quote; the lookahead keeps backtracking from closing inside one
    |(?P<str>'(?:[^']|'')*'(?!'))
    |(?P<qident>"[^"]*"|`[^`]*`|\[[^\]]*\])
    |(?P<word>\w+)
    # a '/' that opens an unterminated comment is an error, not an operator
    |(?P<op>==|!=|<>|<=|>=|[=<>+\-*(),.;]|/(?!\*))""",
    re.VERBOSE | re.DOTALL,
)


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


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    i = pos = 0  # character index, byte offset
    for match in _TOKEN_RE.finditer(text):
        if match.start() != i:  # no token starts at text[i]
            break
        kind, lexeme, start = match.lastgroup, match[0], pos
        i += len(lexeme)
        pos += len(lexeme.encode("utf-8"))
        if kind == "word":
            folded = lexeme.casefold()
            kind = "kw" if folded in KEYWORDS else "ident"
            tokens.append(Token(kind, folded, start, pos, raw=lexeme))
        elif kind == "str":
            tokens.append(Token("str", lexeme[1:-1].replace("''", "'"), start, pos))
        elif kind == "qident":
            tokens.append(Token("qident", lexeme[1:-1].casefold(), start, pos, raw=lexeme[1:-1]))
        elif kind == "num" and match["glued"]:  # SQLite refuses `1a` as an unrecognized token
            raise ParseError("word character after number", start)
        elif kind != "skip":
            tokens.append(Token(kind, lexeme, start, pos))
    if i < len(text):
        if text.startswith("/*", i):
            raise ParseError("unterminated block comment", len(text.encode("utf-8")))
        if text[i] == "'":
            raise ParseError("unterminated string literal", pos)
        if text[i] in '"`[':
            raise ParseError("unterminated quoted identifier", pos)
        raise ParseError(f"unexpected character {text[i]!r}", pos)
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
            counts = [self.parse_literal_only("LIMIT count")]
            if self.at_kw("offset"):
                self.next()
                counts.append(self.parse_literal_only("OFFSET count"))
            elif self.at_op(","):
                raise UnsupportedConstruct("LIMIT offset, count", self.peek().start)
            children.append(self.node(NodeKind.LIMIT, None, counts, (kw.start, counts[-1].span[1])))
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
            direction = "desc"
            end = self.next().end
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
        word = self.peek()
        if not self.at_kw("join", "inner", "left", "right", "full", "cross"):
            return None
        if word.text in ("right", "full"):
            raise UnsupportedConstruct(f"{word.text.upper()} JOIN", word.start)
        if word.text != "join":
            self.next()
        if word.text == "left" and self.at_kw("outer"):
            self.next()
        self.expect_kw("join")
        join_type = "inner" if word.text == "join" else word.text
        children = [self.parse_table_item()]
        if self.at_kw("on"):
            self.next()
            children.append(self.parse_expr())
        return self.node(NodeKind.JOIN, join_type, children, (word.start, children[-1].span[1]))

    def parse_table_item(self) -> SqlNode:
        tok = self.peek()
        if self.at_op("("):
            self.next()
            children = [self.parse_select()]
            end = self.expect_op(")").end
            kind, content, flags = NodeKind.SUBQUERY, None, ()
        else:
            if tok.kind not in ("ident", "qident"):
                self.guard_unsupported()
                raise ParseError("expected table name", tok.start)
            self.next()
            quoted = (FLAG_QUOTED,) if tok.kind == "qident" else ()
            children = [self.node(NodeKind.IDENTIFIER, tok.text, [], (tok.start, tok.end),
                                  flags=quoted + (FLAG_TABLE_NAME,) + tok.case_flags())]
            end = tok.end
            kind, content, flags = NodeKind.TABLE, tok.text, tok.case_flags()
        alias = self.parse_optional_alias()
        if alias is not None:
            children.append(self.node(NodeKind.TABLE_ALIAS, alias.text, [], (alias.start, alias.end)))
            end = alias.end
        return self.node(kind, content, children, (tok.start, end), flags=flags)

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
        kind = NodeKind.AGG if name_tok.text in AGGREGATE_NAMES else NodeKind.FUNC
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
            args[0] = self.node(NodeKind.OTHER, "distinct", [args[0]],
                                (distinct_tok.start, args[0].span[1]))
        if self.at_kw("over"):
            raise UnsupportedConstruct("window function", self.peek().start)
        return self.node(kind, name_tok.text, args, (name_tok.start, close.end),
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
        parser.guard_unsupported()
        raise ParseError("expected SELECT", parser.peek().start)
    root = parser.parse_select()
    while parser.at_op(";"):
        parser.next()
    if parser.peek().kind != "end":
        parser.guard_unsupported()
        raise ParseError("unexpected trailing input", parser.peek().start)
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
