"""Numeric answer extraction from free-form solution text.

A single algorithm serves both reference solutions and model responses,
so stored reference numerics and scored model answers can never drift
apart on grammar details.

Rules apply in order; the first rule that produces a number wins:

1. marker: the first number after the last ``####`` marker,
2. answer-line: the last number in the last line that matches an answer
   pattern ("final answer", "answer:", "the answer is",
   case-insensitive),
3. last-number: the last number anywhere in the text.

A number token is an optional sign, an optional currency symbol, then
either comma-grouped digits ("1,000"), a decimal ("2.5"), a simple
fraction ("3/4"), or plain digits, with an optional trailing percent
sign. Two deliberate quirks are load-bearing:

* a percent sign never rescales: "85%" extracts as 85, not 0.85;
* a sign must sit directly against the digits and be preceded by the
  start of text, whitespace, or an operator, so "the answer is -5"
  yields -5 while the range "3-5" yields 5.

Values are exact rationals (``fractions.Fraction``), so "1,000",
"1000", "1000.0" and "$1000" all compare equal, and two answers match
only when their values are equal.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, NamedTuple

MARKER = "####"

# Chars that may sit directly before a sign: start of text, whitespace,
# operators, brackets, or a currency symbol (for "$-5").
_SIGN_CONTEXT = r"(?<![^\s(=+\-*/^,:;<>\[{|&~$€£])"

# Denominators that are all zeros are excluded at the pattern level so
# that token parsing is total and "5/0" reads as the numbers 5 and 0.
# The leading lookahead matches nothing new: every token starts with a
# sign, a currency symbol, a digit or a dot. It lets the scanner reject
# every other position in one step instead of trying each alternative.
_NUMBER_TOKEN = re.compile(
    rf"""
    (?=[-+$€£.\d])
    (?P<sign>{_SIGN_CONTEXT}[-+])?
    (?P<currency>[$€£])?
    (?P<body>
        \d{{1,3}}(?:,\d{{3}})+(?:\.\d+)?      # comma-grouped, optional decimals
      | \d+\.\d+                              # plain decimal
      | \d+(?:[ ]?/[ ]?(?!0+(?!\d))\d+)?      # integer or simple fraction
      | \.\d+                                 # bare leading dot
    )
    (?P<percent>%)?
    """,
    re.VERBOSE,
)

_ANSWER_LINE = re.compile(r"final\s+answer|answer\s*:|the\s+answer\s+is", re.IGNORECASE)

RULE_MARKER = "marker"
RULE_ANSWER_LINE = "answer-line"
RULE_LAST_NUMBER = "last-number"
RULE_LITERAL = "literal"


@dataclass(frozen=True, eq=False)
class NumericAnswer:
    """A canonical numeric value plus where and how it was found.

    value is an exact rational. raw_span is the matched source text.
    rule is the extraction rule that produced the value ("literal" for
    standalone parses). Equality and hashing consider the value only,
    so answers extracted from differently formatted spans compare
    equal; this is the one answer comparison the harness makes.
    """

    value: Fraction
    raw_span: str
    rule: str

    @property
    def canonical(self) -> str:
        """Shortest string that reparses to the same value."""
        if self.value.denominator == 1:
            return str(self.value.numerator)
        return f"{self.value.numerator}/{self.value.denominator}"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NumericAnswer):
            return NotImplemented
        return self.value == other.value

    def __hash__(self) -> int:
        return hash(self.value)

    def __repr__(self) -> str:
        return f"NumericAnswer({self.canonical!r}, rule={self.rule!r})"


class ScannedNumber(NamedTuple):
    value: Fraction
    raw_span: str
    start: int
    end: int


def _token_value(match: re.Match[str]) -> Fraction:
    body = match.group("body").replace(",", "").replace(" ", "")
    if "/" in body:
        numerator, denominator = body.split("/")
        value = Fraction(int(numerator), int(denominator))
    else:
        value = Fraction(body)
    if match.group("sign") == "-":
        value = -value
    return value


def scan_numbers(text: str) -> list[ScannedNumber]:
    """All number tokens in reading order, with source offsets."""
    return [
        ScannedNumber(_token_value(m), m.group(0), m.start(), m.end())
        for m in _NUMBER_TOKEN.finditer(text)
    ]


def _iter_lines(text: str) -> Iterator[tuple[str, int]]:
    offset = 0
    for raw in text.splitlines(keepends=True):
        parts = raw.splitlines()
        yield (parts[0] if parts else ""), offset
        offset += len(raw)


def extract(text: str) -> NumericAnswer | None:
    """Extract the final numeric answer from text, or None."""
    # Only the winning token's value is ever used, so tokens stay match
    # objects and _token_value runs once, on the winner.
    tokens = list(_NUMBER_TOKEN.finditer(text))

    marker_at = text.rfind(MARKER)
    if marker_at != -1:
        after = marker_at + len(MARKER)
        for token in tokens:
            if token.start() >= after:
                return _answer(token, RULE_MARKER)

    answer_span: tuple[int, int] | None = None
    for line, start in _iter_lines(text):
        if _ANSWER_LINE.search(line):
            answer_span = (start, start + len(line))
    if answer_span is not None:
        for token in reversed(tokens):
            if token.start() >= answer_span[0] and token.end() <= answer_span[1]:
                return _answer(token, RULE_ANSWER_LINE)

    if tokens:
        return _answer(tokens[-1], RULE_LAST_NUMBER)
    return None


def _answer(match: re.Match[str], rule: str) -> NumericAnswer:
    return NumericAnswer(_token_value(match), match.group(0), rule)


def parse_numeric(text: str) -> NumericAnswer | None:
    """Parse a standalone numeric string, e.g. a stored reference value."""
    match = _NUMBER_TOKEN.fullmatch(text.strip())
    if match is None:
        return None
    return _answer(match, RULE_LITERAL)

