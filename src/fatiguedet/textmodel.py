"""The rules the text model formats CASCADE1, PCA1, SVM1 and PIPE1 share.

A header line holds a magic word (a format stem and a version number) and
an exact number of fields. Every number is ASCII without `_`, and counts
are non-negative integers. A row holds exactly its count of floats, all
finite, except where a format allows +-inf (CASCADE1 WEAK thresholds); NaN
never loads. Only blank lines may follow the last counted row. Each fault
raises ParseError naming the format and the line, or VersionMismatch for
the same stem with another number. Floats are written as `repr`, so a
load/save cycle is byte-exact.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterable

import numpy as np

from .errors import ParseError, VersionMismatch


def number(token: str) -> str:
    """token itself if it is ASCII and holds no `_`. int() and float() also
    read other scripts' digits ('١٠') and digit-group underscores ('1_0'),
    which no number in a manifest, config or model file may hold."""
    if not token.isascii() or "_" in token:
        raise ValueError(f"number {token!r} is not ASCII without '_'")
    return token


def integer(token: str) -> int:
    return int(number(token))


def real(token: str) -> float:
    return float(number(token))


def floats(tokens: list[str], inf: bool = False) -> np.ndarray:
    """The tokens as float64 in one call; refuses NaN, and +-inf unless
    inf is set."""
    joined = " ".join(tokens)
    if not joined.isascii() or "_" in joined:
        for token in tokens:
            number(token)  # raises, naming the first bad token
    values = np.array(tokens, dtype=np.float64)
    if (np.isnan(values) if inf else ~np.isfinite(values)).any():
        raise ValueError("non-finite value")
    return values


def finite(token: str) -> float:
    return float(floats([token])[0])


def finite_or_inf(token: str) -> float:
    return float(floats([token], inf=True)[0])


def count(token: str) -> int:
    value = integer(token)
    if value < 0:
        raise ValueError(f"negative count {token}")
    return value


def format_floats(*values: float) -> str:
    return " ".join(repr(float(v)) for v in values)


def render(lines: Iterable[str]) -> str:
    return "\n".join(lines) + "\n"


class ModelText:
    """The lines of one model text, read front to back from its header."""

    def __init__(self, text: str, magic: str):
        self.magic, self.lines, self.pos = magic, text.splitlines(), 0
        found = ("".join(self.lines[:1]).split() or [""])[0]
        stem = magic.rstrip("0123456789")
        if found not in (magic, stem) and found.rstrip("0123456789") == stem:
            raise VersionMismatch(f"unsupported version {found!r}")

    def error(self, line_no: int | None, message: str) -> ParseError:
        where = f" line {line_no}" if line_no else ""
        return ParseError(f"{self.magic}{where}: {message}")

    @contextmanager
    def checked(self, line_no: int | None = None):
        """Turn a ValueError raised inside, by a model constructor or a
        format check, into a ParseError naming the model and the line."""
        try:
            yield
        except ValueError as exc:
            raise self.error(line_no, str(exc)) from None

    def header(self, *types: Callable[[str], object]) -> list:
        """The header fields after the magic word, one per type."""
        return self.record(self.magic, *types)

    def record(self, keyword: str, *types: Callable[[str], object]) -> list:
        """The next line's fields after `keyword`, one per type."""
        tokens = self._next()
        if tokens[:1] != [keyword]:
            raise self.error(self.pos, f"expected a {keyword} line")
        self._arity(tokens[1:], len(types))
        with self.checked(self.pos):
            return [parse(token) for parse, token in zip(types, tokens[1:])]

    def rows(self, m: int, n: int) -> np.ndarray:
        """The next m lines as an (m, n) array of finite floats."""
        block = []
        for _ in range(m):
            tokens = self._next()
            self._arity(tokens, n)
            with self.checked(self.pos):
                block.append(floats(tokens))
        with self.checked(self.pos):
            return np.array(block, dtype=np.float64).reshape(m, n)

    def end(self) -> None:
        """Refuse anything but blank lines after the last counted row."""
        for i in range(self.pos, len(self.lines)):
            if self.lines[i].strip():
                raise self.error(i + 1, "content after the last row")

    def _next(self) -> list[str]:
        if self.pos >= len(self.lines):
            raise self.error(self.pos + 1, "unexpected end of file")
        self.pos += 1
        return self.lines[self.pos - 1].split()

    def _arity(self, tokens: list[str], n: int) -> None:
        if len(tokens) != n:
            raise self.error(self.pos, f"expected {n} fields, "
                                       f"got {len(tokens)}")
