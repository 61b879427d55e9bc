"""A token view of the lexer's parallel lists, for tests that check tokens.

The parser reads `sqluq.ast_core._lex` directly; this view only names each
token's class and recovers its source lexeme from the byte span.
"""

from collections import namedtuple

from sqluq.ast_core import _END, _IDENT, _NUM, _QIDENT, _STR, KEYWORDS, _lex

_CLASS_NAMES = {_END: "end", _IDENT: "ident", _QIDENT: "qident", _NUM: "num", _STR: "str"}

# kind: kw | ident | qident | num | str | op | end; text: the normalized lexeme;
# start, end: byte offsets; raw: a keyword's or name's source lexeme, else ""
Token = namedtuple("Token", "kind text start end raw")


def tokenize(text: str) -> list[Token]:
    """The tokens of `text`, ending in one end token: a view of `_lex`."""
    data = text.encode("utf-8")
    tokens = []
    for kind, norm, start, end, _ in zip(*_lex(text)):
        name = _CLASS_NAMES.get(kind) or ("kw" if kind in KEYWORDS else "op")
        quoted = name == "qident"
        raw = data[start + quoted:end - quoted].decode() if name in ("kw", "ident", "qident") else ""
        tokens.append(Token(name, norm, start, end, raw))
    return tokens
