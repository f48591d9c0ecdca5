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

Each rule scans only what it needs, in that order: the marker rule
searches from the marker on, the answer-line rule walks the lines from
the end and scans only the last one that matches (and is skipped when
the casefolded text holds no "answer"), and only the
last-number rule scans the whole text. A rule that finds no number
hands on to the next, so an answer line without a number does not stop
the last-number rule. The result is the one a scan of every token
would give, because no token spans a marker or a line break.

A number token is an optional sign, an optional currency symbol, then
either comma-grouped digits ("1,000"), a decimal ("2.5"), a simple
fraction ("3/4"), or plain digits, with an optional trailing percent
sign. Two deliberate quirks are load-bearing:

* a percent sign never rescales: "85%" extracts as 85, not 0.85;
* a sign must sit directly against the digits and be preceded by the
  start of text, whitespace, or an operator, so "the answer is -5"
  yields -5 while the range "3-5" yields 5.

Digits of any script read, such as "٣", and a denominator whose
digits are all zeros, in any script, forms no fraction: "5/0", "5/０"
and "5/٠٠" each read as the two numbers 5 and 0, so every function here
is total on any str.

Values are exact rationals (``fractions.Fraction``), so "1,000",
"1000", "1000.0" and "$1000" all compare equal, and two answers match
only when their values are equal.
"""

from __future__ import annotations

import re
import sys
import unicodedata
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, NamedTuple

MARKER = "####"

# Chars that may sit directly before a sign: start of text, whitespace,
# operators, brackets, or a currency symbol (for "$-5").
_SIGN_CONTEXT = r"(?<![^\s(=+\-*/^,:;<>\[{|&~$€£])"

# Every decimal digit of value 0, in any script. Unicode encodes each
# script's decimal digits as ten consecutive code points, 0 to 9, so a
# stride of ten meets every such run exactly once.
_ZEROS = "".join(
    sorted(
        chr(point - unicodedata.decimal(chr(point)))
        for point in range(0, sys.maxunicode + 1, 10)
        if chr(point).isdecimal()
    )
)

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
      | \d+(?:[ ]?/[ ]?(?![{_ZEROS}]+(?!\d))\d+)?  # integer or simple fraction
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
    body = match.group("body").replace(",", "")
    if "/" in body:
        numerator, denominator = body.replace(" ", "").split("/")
        value = Fraction(int(numerator), int(denominator))
    elif "." in body:
        value = Fraction(body)
    else:
        value = Fraction(int(body))  # several times faster than Fraction(body)
    if match.group("sign") == "-":
        value = -value
    return value


def scan_numbers(text: str) -> list[ScannedNumber]:
    """All number tokens in reading order, with source offsets."""
    return [
        ScannedNumber(_token_value(m), m.group(0), m.start(), m.end())
        for m in _NUMBER_TOKEN.finditer(text)
    ]


def _last(tokens: Iterator[re.Match[str]]) -> re.Match[str] | None:
    """The last of tokens, or None."""
    token = None
    for token in tokens:
        pass
    return token


def extract(text: str) -> NumericAnswer | None:
    """Extract the final numeric answer from text, or None."""
    # Tokens stay match objects, so _token_value runs once, on the winner.
    marker_at = text.rfind(MARKER)
    if marker_at != -1:
        token = _NUMBER_TOKEN.search(text, marker_at + len(MARKER))
        if token is not None:
            return _answer(token, RULE_MARKER)

    # A line is searched with its line break, which neither pattern can
    # match: an answer phrase or a number ends before it. Every answer
    # phrase holds "answer", and each character that the case-blind
    # pattern takes for one of its letters casefolds to that letter, so
    # text whose casefold lacks "answer" has no answer line to walk to.
    if "answer" in text.casefold():
        end = len(text)
        for line in reversed(text.splitlines(keepends=True)):
            start = end - len(line)
            if _ANSWER_LINE.search(text, start, end):
                token = _last(_NUMBER_TOKEN.finditer(text, start, end))
                if token is not None:
                    return _answer(token, RULE_ANSWER_LINE)
                break
            end = start

    token = _last(_NUMBER_TOKEN.finditer(text))
    return None if token is None else _answer(token, RULE_LAST_NUMBER)


def _answer(match: re.Match[str], rule: str) -> NumericAnswer:
    return NumericAnswer(_token_value(match), match.group(0), rule)


def parse_numeric(text: str) -> NumericAnswer | None:
    """Parse a standalone numeric string, e.g. a stored reference value."""
    match = _NUMBER_TOKEN.fullmatch(text.strip())
    if match is None:
        return None
    return _answer(match, RULE_LITERAL)

