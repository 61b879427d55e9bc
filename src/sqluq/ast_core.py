"""Normalized SQL AST: tokenizer, parser, alias maps, and tree utilities.

An alias map (build_alias_map) is a plain dict from case-folded alias to
base table name; a name resolves through it as `aliases.get(name, name)`.

Node kinds are the singleton members of NodeKind, a Constants class read
without EnumType's lookup hook; iterating NodeKind gives them in definition
order, the feature manifest's.  The parser builds the slotted nodes
directly, and parse_sql sets their ids and depths in one walk.

The parser covers the SQLite-flavoured subset needed for analysing
SELECT queries: projections, FROM with joins and subqueries, WHERE,
GROUP BY, HAVING, ORDER BY, LIMIT, aggregates, binary comparisons,
LIKE, IN, arithmetic, aliases and stars.  Anything outside the subset
raises UnsupportedConstruct so callers can skip a query instead of
silently mislabeling it.

Nesting has no depth limit.  The parser is one cursor over the lexer's token
lists; parentheses, calls and IN lists push frames onto explicit stacks, and
each SELECT level, subqueries included, is a generator on a stack of levels
that parse_sql runs.  No parse method calls itself.

Lexical rules: a number is ASCII digits with an optional fraction (`1`,
`1.5`, `.5`) and must not touch a following word character (`1a` is an
error); in a string, `''` is an escaped quote; quoted identifiers use
`""`, backticks or `[]`; comments run from `--` to the end of the line or
between `/*` and `*/`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass


class _ConstantsType(type):
    def __iter__(cls):
        return iter(cls._members)


class Constants(metaclass=_ConstantsType):
    """Named constants read like an Enum's members: each upper-case class
    attribute `X = value` of a subclass becomes a singleton with `.name` "X"
    and `.value`, hashed by identity; iterating the class gives them in order.
    A member is a plain class attribute, so a read skips the Python-level
    `__getattr__` hook that EnumType runs on Python 3.11 (about 5x slower)."""

    __slots__ = ("name", "value")

    def __init_subclass__(cls):
        cls._members = ()
        for name, value in list(vars(cls).items()):
            if name.isupper():
                member = object.__new__(cls)
                member.name, member.value = name, value
                setattr(cls, name, member)
                cls._members += (member,)

    def __repr__(self):
        return f"{type(self).__name__}.{self.name}"

    def __reduce__(self):  # a copy or an unpickled member is the singleton, as `is` tests need
        return getattr, (type(self), self.name)


class NodeKind(Constants):
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


@dataclass(slots=True)
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
    qualifier: str | None = None  # a Column's or Star's qualifier name (`x` in `x.a`)

    def __repr__(self):  # compact, content-first
        inner = f"({self.content})" if self.content is not None else ""
        return f"{self.kind.value}{inner}#{self.id}"


def preorder(tree: SqlNode) -> list[SqlNode]:
    """Deterministic preorder enumeration, aligned with node ids."""
    nodes, stack = [], [tree]
    while stack:
        node = stack.pop()
        nodes.append(node)
        children = node.children
        stack += children if len(children) == 1 else children[::-1]  # a lone child unsliced
    return nodes


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

# Each match is the blanks and comments before one token, then the token,
# whose group names its class; `end` and `bad` make every match succeed at
# once, so matches are contiguous.  Alternatives are tried in order, the most
# common first: a word never starts with an ASCII digit, and a '.' before a
# digit starts a number.
_TOKEN_RE = re.compile(
    r"""[ \t\r\n]*(?:(?:--[^\n]*|/\*.*?\*/)[ \t\r\n]*)*
    (?:(?P<word>[^\W0-9]\w*)
    # a '/' that opens an unterminated comment is an error, not an operator
    |(?P<op>==|!=|<>|<=|>=|[=<>+\-*(),;]|/(?!\*)|\.(?![0-9]))
    # ASCII digits only: SQLite reads other digits, like '٣', as name characters.
    # A trailing dot belongs to the next token; a glued word character is refused.
    |(?P<num>(?:[0-9]+(?:\.[0-9]+)?|\.[0-9]+)(?P<glued>\w)?)
    # '' is an escaped quote; the lookahead keeps backtracking from closing inside one
    |(?P<str>'(?:[^']|'')*'(?!'))
    |(?P<qident>"[^"]*"|`[^`]*`|\[[^\]]*\])
    |(?P<end>\Z)
    |(?P<bad>.))""",
    re.VERBOSE | re.DOTALL,
)

# A keyword's or operator's kind is its own text, any other token's a class code.
_END, _IDENT, _QIDENT, _NUM, _STR = range(5)
_NAMES = frozenset({_IDENT, _QIDENT})
_UNTERMINATED = {"'": "unterminated string literal", '"': "unterminated quoted identifier",
                 "`": "unterminated quoted identifier", "[": "unterminated quoted identifier"}


def _case_flags(raw: str) -> tuple[str, ...]:
    """ALL_CAPS or mixedCase marker of a name's source lexeme."""
    letters = [c for c in raw if c.isalpha()]
    upper = sum(c.isupper() for c in letters)
    if letters and upper == len(letters):
        return (FLAG_ALL_CAPS,)
    return (FLAG_MIXED_CASE,) if upper and any(c.islower() for c in letters) else ()


def _lex(text: str) -> tuple[list, list[str], list[int], list[int], list[tuple[str, ...]]]:
    """One pass over `text` into parallel lists per token, end token included: kind,
    normalized text (names case-folded, strings unquoted), byte span, a name's case flags."""
    kinds, texts, starts, ends, flags = [], [], [], [], []
    ascii_text = text.isascii()
    end = 0
    for match in _TOKEN_RE.finditer(text):
        group = match.lastgroup
        lexeme = match[group]
        # byte offsets: character offsets in ASCII text, else encoded lengths summed
        end = match.end() if ascii_text else end + len(match[0].encode())
        start = end - (len(lexeme) if ascii_text else len(lexeme.encode()))
        if group == "word":
            norm = lexeme.casefold()
            kind = norm if norm in KEYWORDS else _IDENT
        elif group == "op":
            kind = norm = lexeme
        elif group == "num" and not match["glued"]:
            kind, norm = _NUM, lexeme
        elif group == "str":
            kind, norm = _STR, lexeme[1:-1].replace("''", "'")
        elif group == "qident":
            kind, lexeme = _QIDENT, lexeme[1:-1]
            norm = lexeme.casefold()
        elif group == "end":
            kind, norm = _END, ""
        elif group == "num":  # SQLite refuses `1a` as an unrecognized token
            raise ParseError("word character after number", start)
        elif lexeme == "/":  # a '/' that is no operator opens a comment that never closes
            raise ParseError("unterminated block comment", len(text.encode("utf-8")))
        else:  # a character that starts no token
            raise ParseError(_UNTERMINATED.get(lexeme, f"unexpected character {lexeme!r}"), start)
        kinds.append(kind)
        texts.append(norm)
        starts.append(start)
        ends.append(end)
        plain = kind not in _NAMES or ascii_text and norm == lexeme  # an ASCII name without capitals
        flags.append(() if plain else _case_flags(lexeme))
        if kind == _END:
            return kinds, texts, starts, ends, flags


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

# Infix operators by token: (binding power, kind).  Prefix NOT binds at 3, between
# AND and the comparisons.  Comparisons, LIKE and IN are non-associative.
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
_JOIN_WORDS = frozenset({"join", "inner", "left", "right", "full", "cross"})

# Operator stack entries are (binding power, kind, start, negated).  A bracket
# pushes a frame, an entry of power 0 that no operator reduces past: (0, tag,
# index of its '(' or a call's name, flag, operand count).  The flag is a call's
# DISTINCT, or a subquery in the brackets; the items are the operands above the count.
_BASE = (0, "base")  # the bottom of one expression
_PAREN, _IN, _CALL = "(", "in", "call"

# Flags by token kind: an identifier's, quoted or not, then its role; a literal's.
_TABLE_FLAGS = {_IDENT: (FLAG_TABLE_NAME,), _QIDENT: (FLAG_QUOTED, FLAG_TABLE_NAME)}
_COLUMN_FLAGS = {_IDENT: (FLAG_COLUMN_NAME,), _QIDENT: (FLAG_QUOTED, FLAG_COLUMN_NAME)}
_QUALIFIER_FLAGS = {_IDENT: (FLAG_QUALIFIER,), _QIDENT: (FLAG_QUOTED, FLAG_QUALIFIER)}
_LITERAL_FLAGS = {_NUM: (), _STR: (FLAG_STRING,), "null": (FLAG_NULL,)}


def _reduce(entry: tuple, operands: list[SqlNode]):
    """Apply one operator stack entry to the operands on top of the stack."""
    _, kind, start, negated = entry
    rhs = operands.pop()
    if kind is NodeKind.NOT:
        operands.append(SqlNode(-1, kind, None, [rhs], (start, rhs.span[1]), -1))
        return
    lhs = operands.pop()
    if kind is NodeKind.AND or kind is NodeKind.OR:
        # n-ary normalization: chained AND/OR extend the left operand in place
        if lhs.kind is not kind:
            lhs = SqlNode(-1, kind, None, [lhs], lhs.span, -1)
        lhs.children += rhs.children if rhs.kind is kind else [rhs]
        lhs.span = (lhs.span[0], rhs.span[1])
        operands.append(lhs)
        return
    items = rhs.children if kind is NodeKind.IN else [rhs]
    node = SqlNode(-1, kind, None, [lhs, *items], (lhs.span[0], rhs.span[1]), -1)
    operands.append(SqlNode(-1, NodeKind.NOT, None, [node], node.span, -1) if negated else node)


class _Parser:
    """One cursor over `_lex`'s lists; `parse_sql` runs its SELECT levels."""

    def __init__(self, text: str):
        self.kinds, self.texts, self.starts, self.ends, self.flags = _lex(text)
        self.kinds.append(_END)  # so that a lookahead of one never runs off the end
        self.i = 0
        self.operands: list[SqlNode] = []
        self.ops: list[tuple] = []

    def guard(self, i: int):
        """Refuse a keyword of a construct outside the subset."""
        if self.kinds[i] in _UNSUPPORTED_KEYWORDS:
            raise UnsupportedConstruct(self.kinds[i].upper(), self.starts[i])

    def select(self):
        """One SELECT level, from its SELECT keyword at self.i: a generator that
        yields at each subquery, with self.i at its SELECT, and is sent it parsed."""
        K, T, S, E, F = self.kinds, self.texts, self.starts, self.ends, self.flags
        start, i = S[self.i], self.i + 1
        children: list[SqlNode] = []
        if K[i] == "distinct":
            children.append(SqlNode(-1, NodeKind.OTHER, "distinct", [], (S[i], E[i]), -1))
            i += 1
        while True:  # select items
            if K[i] == "*":
                item = SqlNode(-1, NodeKind.STAR, None, [], (S[i], E[i]), -1)
                i += 1
            else:
                item = yield from self.operand(i)
                i = self.i
                alias = self.alias(i)
                if alias is not None:
                    item = SqlNode(-1, NodeKind.ALIAS, T[alias], [item],
                                   (item.span[0], E[alias]), -1)
                    i = alias + 1
            children.append(item)
            if K[i] != ",":
                break
            i += 1
        if K[i] != "from":
            raise ParseError("expected FROM", S[i])
        from_start, items, join = S[i], [], None  # join: the index of the JOIN's first word
        i += 1
        while True:  # table items, each after FROM, a comma or a JOIN
            if K[i] == "(":
                if K[i + 1] != "select":
                    raise ParseError("expected SELECT", S[i + 1])
                self.i = i + 1
                item = SqlNode(-1, NodeKind.SUBQUERY, None, [(yield)], (S[i], -1), -1)
                i = self.i
            elif K[i] in _NAMES:
                ident = SqlNode(-1, NodeKind.IDENTIFIER, T[i], [], (S[i], E[i]), -1,
                                _TABLE_FLAGS[K[i]] + F[i])
                item = SqlNode(-1, NodeKind.TABLE, T[i], [ident], (S[i], -1), -1, F[i])
            else:
                self.guard(i)
                raise ParseError("expected table name", S[i])
            i += 1
            alias = self.alias(i)
            if alias is not None:
                item.children.append(
                    SqlNode(-1, NodeKind.TABLE_ALIAS, T[alias], [], (S[alias], E[alias]), -1))
                i = alias + 1
            item.span = (item.span[0], E[i - 1])  # to the table, its ')' or its alias
            if join is not None:
                parts = [item]
                if K[i] == "on":
                    parts.append((yield from self.operand(i + 1)))
                    i = self.i
                word = K[join]
                item = SqlNode(-1, NodeKind.JOIN, "inner" if word == "join" else word, parts,
                               (S[join], parts[-1].span[1]), -1)
            items.append(item)
            if K[i] == ",":
                join = None
            elif K[i] in _JOIN_WORDS:
                join, word = i, K[i]
                if word == "right" or word == "full":
                    raise UnsupportedConstruct(f"{word.upper()} JOIN", S[i])
                if word != "join":  # past INNER, CROSS or LEFT [OUTER]
                    i += 2 if word == "left" and K[i + 1] == "outer" else 1
                if K[i] != "join":
                    raise ParseError("expected JOIN", S[i])
            else:
                break
            i += 1
        children.append(
            SqlNode(-1, NodeKind.FROM, None, items, (from_start, items[-1].span[1]), -1))

        for word, clause in (("where", NodeKind.WHERE), ("group", NodeKind.GROUP_BY),
                             ("having", NodeKind.HAVING), ("order", NodeKind.ORDER_BY)):
            if K[i] != word:
                continue
            kw, i = i, i + 1
            listed = clause is NodeKind.GROUP_BY or clause is NodeKind.ORDER_BY
            if listed and K[i] != "by":
                raise ParseError("expected BY", S[i])
            i += 1 if listed else 0
            items = []
            while True:
                item = yield from self.operand(i)
                i = self.i
                if clause is NodeKind.ORDER_BY:
                    end = item.span[1]
                    direction = "desc" if K[i] == "desc" else None  # explicit ASC is the default
                    if K[i] == "asc" or direction:
                        end = E[i]
                        i += 1
                    item = SqlNode(-1, NodeKind.ORDERED, direction, [item], (item.span[0], end), -1)
                items.append(item)
                if K[i] != "," or not listed:
                    break
                i += 1
            children.append(SqlNode(-1, clause, None, items, (S[kw], items[-1].span[1]), -1))

        if K[i] == "limit":
            kw, counts = i, []
            for what in ("LIMIT", "OFFSET"):  # each keyword, then its count
                if K[i + 1] != _NUM:
                    raise ParseError(f"expected numeric literal for {what} count", S[i + 1])
                counts.append(SqlNode(-1, NodeKind.LITERAL, T[i + 1], [], (S[i + 1], E[i + 1]), -1))
                i += 2
                if K[i] == "," and what == "LIMIT":
                    raise UnsupportedConstruct("LIMIT offset, count", S[i])
                if K[i] != "offset":
                    break
            children.append(
                SqlNode(-1, NodeKind.LIMIT, None, counts, (S[kw], counts[-1].span[1]), -1))
        self.guard(i)
        self.i = i
        return SqlNode(-1, NodeKind.SELECT, None, children, (start, children[-1].span[1]), -1)

    def operand(self, i: int):
        """The expression at token i, as a generator that waits at each of its
        subqueries as `select` does; self.i ends after it."""
        item = self.expr(i)
        while item is None:  # at a subquery, which parse_sql sends back parsed
            sub = yield  # self.i moves past the subquery while this waits
            item = self.expr(self.i, sub)
        return item

    def alias(self, i: int) -> int | None:
        """The index of the alias name at i, after AS or bare, if there is one."""
        K = self.kinds
        if K[i] == "as":
            if K[i + 1] not in _NAMES:
                raise ParseError("expected alias name after AS", self.starts[i + 1])
            return i + 1
        # a bare alias is not followed by '(' (a call) or '.'
        if K[i] in _NAMES and K[i + 1] != "(" and K[i + 1] != ".":
            return i
        return None

    def expr(self, i: int, sub: SqlNode | None = None) -> SqlNode | None:
        """The expression at token i, by precedence climbing; self.i ends after it.
        At a subquery it returns None with self.i at its SELECT and its stacks
        kept; called back with the subquery as `sub`, at i after it, it goes on."""
        K, T, S, E, F = self.kinds, self.texts, self.starts, self.ends, self.flags
        operands, ops = self.operands, self.ops
        if sub is None:
            ops.append(_BASE)
        else:
            operands.append(sub)
        want = sub is None  # at the start of an operand, not past one
        after_in = False  # an IN list ends its comparison; no operator of power 4+ may follow
        while True:
            if want:
                kind = K[i]
                if kind == "not" and ops[-1][0] <= 3:  # first, or after '(', AND, OR or NOT
                    ops.append((3, NodeKind.NOT, S[i], False))
                    i += 1
                    continue
                if kind == "(":  # an IN's brackets, or grouping or a scalar subquery
                    tag = _IN if ops[-1][1] is NodeKind.IN else _PAREN
                    ops.append((0, tag, i, K[i + 1] == "select", len(operands)))
                    i += 1
                    if K[i] == "select":
                        self.i = i
                        return None
                    continue
                if kind in _NAMES and K[i + 1] == "(":  # a call
                    distinct = K[i + 2] == "distinct"
                    ops.append((0, _CALL, i, distinct, len(operands)))
                    i += 3 if distinct else 2
                    star = K[i] == "*"
                    if star:
                        if distinct:  # as in SQLite, which refuses count(DISTINCT *)
                            raise ParseError("expected expression after DISTINCT", S[i])
                        operands.append(SqlNode(-1, NodeKind.STAR, None, [], (S[i], E[i]), -1))
                        i += 1
                    if K[i] == ")":  # no more arguments: close the call below
                        want = after_in = False
                    elif star:
                        raise ParseError("expected ')'", S[i])
                    continue
                if kind in _NAMES and K[i + 1] != ".":
                    ident = SqlNode(-1, NodeKind.IDENTIFIER, T[i], [], (S[i], E[i]), -1,
                                    _COLUMN_FLAGS[kind] + F[i])
                    operands.append(
                        SqlNode(-1, NodeKind.COLUMN, T[i], [ident], (S[i], E[i]), -1, F[i]))
                elif kind in _NAMES:  # qualified: a column or a star
                    j = i + 2
                    if K[j] != "*" and K[j] not in _NAMES:
                        raise ParseError("expected column name after '.'", S[j])
                    qual = [SqlNode(-1, NodeKind.IDENTIFIER, T[i], [], (S[i], E[i]), -1,
                                    _QUALIFIER_FLAGS[kind] + F[i])]
                    kind, text = (NodeKind.STAR, None) if K[j] == "*" else (NodeKind.COLUMN, T[j])
                    operands.append(SqlNode(-1, kind, text, qual, (S[i], E[j]), -1, F[j], T[i]))
                    i = j
                elif kind in _LITERAL_FLAGS:
                    operands.append(SqlNode(-1, NodeKind.LITERAL, T[i], [], (S[i], E[i]), -1,
                                            _LITERAL_FLAGS[kind]))
                elif kind == "-":
                    if K[i + 1] != _NUM:
                        raise UnsupportedConstruct("unary minus on non-literal", S[i])
                    operands.append(
                        SqlNode(-1, NodeKind.LITERAL, "-" + T[i + 1], [], (S[i], E[i + 1]), -1))
                    i += 1
                else:
                    self.guard(i)
                    raise ParseError("expected expression", S[i])
                i += 1
                want = after_in = False
                continue

            # past an operand: an infix operator, a bracket's ',' or ')', or the end
            negated = K[i] == "not" and (K[i + 1] == "like" or K[i + 1] == "in")
            power, kind = _INFIX.get(K[i + 1] if negated else K[i], (0, None))
            if after_in and power >= 4:
                raise ParseError("operator after IN list", S[i])
            # guard unless a comparison is pending: the innermost entry of power <= 4 is one
            if (K[i] in _UNSUPPORTED_KEYWORDS and not power and not after_in
                    and next(p for p, *_ in reversed(ops) if p <= 4) != 4):
                self.guard(i)
            while ops[-1][0] >= (power or 1):  # left associative
                if ops[-1][0] == power == 4:
                    raise ParseError("chained comparison", S[i])
                _reduce(ops.pop(), operands)
            if power:
                ops.append((power, kind, S[i], negated))
                i += 2 if negated else 1
                want = True
                if kind is NodeKind.IN and K[i] != "(":  # the IN applies when its brackets close
                    raise ParseError("expected '('", S[i])
                continue
            if ops[-1] is _BASE:
                ops.pop()
                self.i = i
                return operands.pop()
            _, tag, first, flag, count = ops[-1]
            if K[i] == "," and (tag is _CALL or tag is _IN and not flag):  # the next item
                i += 1
                want = True
                continue
            if K[i] != ")":
                raise ParseError("expected ')'", S[i])
            ops.pop()
            after_in = tag is _IN
            if tag is _PAREN and not flag:  # grouping is dropped; the inner node keeps its span
                i += 1
                continue
            items = operands[count:]
            del operands[count:]
            if tag is _CALL:
                if flag:
                    if not items:
                        raise ParseError("DISTINCT requires an argument", S[first + 2])
                    items[0] = SqlNode(-1, NodeKind.OTHER, "distinct", [items[0]],
                                       (S[first + 2], items[0].span[1]), -1)
                if K[i + 1] == "over":
                    raise UnsupportedConstruct("window function", S[i + 1])
                kind = NodeKind.AGG if T[first] in AGGREGATE_NAMES else NodeKind.FUNC
                operands.append(SqlNode(-1, kind, T[first], items, (S[first], E[i]), -1, F[first]))
            elif tag is _PAREN:
                operands.append(SqlNode(-1, NodeKind.SUBQUERY, None, items, (S[first], E[i]), -1))
            else:
                if flag:
                    items = [SqlNode(-1, NodeKind.SUBQUERY, None, items,
                                     (items[0].span[0], E[i]), -1)]
                operands.append(SqlNode(-1, NodeKind.IN, None, items, (S[first], E[i]), -1))
                _reduce(ops.pop(), operands)
            i += 1


def parse_sql(text: str) -> SqlNode:
    """Parse SQL text into a normalized tree.

    Raises ParseError for invalid syntax and UnsupportedConstruct for valid
    SQL outside the supported subset.
    """
    if not text or not text.strip():
        raise ParseError("empty input", 0)
    parser = _Parser(text)
    kinds = parser.kinds
    if kinds[0] != "select":
        parser.guard(0)
        raise ParseError("expected SELECT", parser.starts[0])
    levels, root = [parser.select()], None  # open SELECT levels; a subquery's goes on top
    while levels:
        try:
            levels[-1].send(root)  # the top level runs to its next subquery
            levels.append(parser.select())
            root = None
        except StopIteration as done:  # it is finished: send it to the level below
            levels.pop()
            root = done.value
            if levels and kinds[parser.i] != ")":  # a subquery closes its bracket
                raise ParseError("expected ')'", parser.starts[parser.i])
    i = parser.i
    while kinds[i] == ";":
        i += 1
    if kinds[i] != _END:
        parser.guard(i)
        raise ParseError("unexpected trailing input", parser.starts[i])
    root.depth, stack, node_id = 0, [root], 0
    while stack:  # contiguous preorder ids, and depths
        node = stack.pop()
        node.id, node_id = node_id, node_id + 1
        for child in node.children:
            child.depth = node.depth + 1
        stack += node.children[::-1]
    return root


def build_alias_map(tree: SqlNode) -> dict[str, str]:
    """The aliases declared in FROM/JOIN clauses, case-folded alias ->
    base table name; any other name names itself.

    The map is one per tree, not one per query level.  Entries are written
    in preorder, so when an alias is declared twice, in one level or in
    nested ones, the later declaration wins.
    """
    aliases: dict[str, str] = {}
    stack = [tree]
    while stack:  # preorder; a table's or column's children hold no table
        node = stack.pop()
        if node.kind is NodeKind.TABLE:
            alias = next((c for c in node.children if c.kind is NodeKind.TABLE_ALIAS), None)
            if alias is not None and alias.content:
                aliases[alias.content] = node.content
        elif node.kind is not NodeKind.COLUMN:
            stack += node.children[::-1]
    return aliases
