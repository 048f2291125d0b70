"""Tokenizer for the mini loop language."""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Token", "LexError", "tokenize", "KEYWORDS"]

KEYWORDS = {"for", "to", "do", "step", "end", "max", "min", "array", "real", "int", "integer"}

_SYMBOLS = {
    ":=": "ASSIGN",
    "(": "LPAREN",
    ")": "RPAREN",
    "[": "LBRACKET",
    "]": "RBRACKET",
    "{": "LBRACE",
    "}": "RBRACE",
    "+": "PLUS",
    "-": "MINUS",
    "*": "STAR",
    ",": "COMMA",
    ";": "SEMI",
    ":": "COLON",
}


class LexError(Exception):
    """Raised on unexpected input characters."""


@dataclass(frozen=True)
class Token:
    kind: str  # IDENT, INT, ASSIGN, ..., KEYWORD kinds are upper-cased words
    text: str
    line: int
    column: int

    def __str__(self) -> str:
        return f"{self.kind}({self.text!r})@{self.line}:{self.column}"


def tokenize(source: str) -> list[Token]:
    """Tokenize, dropping ``//`` and ``#`` comments."""

    tokens: list[Token] = []
    line = 1
    column = 1
    i = 0
    n = len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            line += 1
            column = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            column += 1
            continue
        if ch == "#" or source.startswith("//", i):
            while i < n and source[i] != "\n":
                i += 1
            continue
        if source.startswith(":=", i):
            tokens.append(Token("ASSIGN", ":=", line, column))
            i += 2
            column += 2
            continue
        if ch in _SYMBOLS:
            tokens.append(Token(_SYMBOLS[ch], ch, line, column))
            i += 1
            column += 1
            continue
        if ch.isdigit():
            start = i
            while i < n and source[i].isdigit():
                i += 1
            text = source[start:i]
            tokens.append(Token("INT", text, line, column))
            column += len(text)
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < n and (source[i].isalnum() or source[i] == "_"):
                i += 1
            text = source[start:i]
            kind = text.upper() if text.lower() in KEYWORDS else "IDENT"
            if text.lower() in KEYWORDS:
                kind = text.lower().upper()
                text = text.lower()
            tokens.append(Token(kind, text, line, column))
            column += i - start
            continue
        raise LexError(f"unexpected character {ch!r} at line {line}, column {column}")
    tokens.append(Token("EOF", "", line, column))
    return tokens
