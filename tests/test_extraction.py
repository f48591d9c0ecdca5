"""Numeric answer extraction rules and value semantics."""

from __future__ import annotations

import re
import sys
import unicodedata
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mwpeval.extraction import (
    _ANSWER_LINE,
    _NUMBER_TOKEN,
    _TOKEN_CHARS,
    _ZEROS,
    MARKER,
    NumericAnswer,
    extract,
    parse_numeric,
    scan_numbers,
)


def values(text):
    return [n.value for n in scan_numbers(text)]


# extraction precedence


def test_marker_wins_over_everything_else():
    got = extract("The answer is 7.\n#### 12\nFinal answer: 99")
    assert got.value == 12
    assert got.rule == "marker"


def test_first_number_after_last_marker():
    # two markers: only the last one counts, and only its first number
    got = extract("#### 3\nmore work\n#### 41 then 52")
    assert got.value == 41


def test_answer_line_used_when_no_marker():
    got = extract("Some working: 6 * 7 = 42.\nFinal answer: 42")
    assert got.value == 42
    assert got.rule == "answer-line"


def test_answer_line_takes_last_number_in_line():
    got = extract("The answer is 12 + 13 = 25")
    assert got.value == 25


def test_last_answer_line_wins():
    text = "Answer: 5\nrethinking...\nAnswer: 9"
    assert extract(text).value == 9


def test_fallback_last_number_anywhere():
    got = extract("We start with 4 apples and end with 17 pears")
    assert got.value == 17
    assert got.rule == "last-number"


def test_no_numbers_returns_none():
    assert extract("no digits here at all") is None
    assert extract("") is None


def test_numberless_answer_line_falls_through():
    # an answer line with no number must not mask the whole-text rule
    text = "The answer is 42.\nFinal answer:\nChecked 77 times."
    assert extract(text).value == 77


# number grammar


@pytest.mark.parametrize(
    "text,expected",
    [
        ("1,234,567", Fraction(1234567)),
        ("1,234.5", Fraction("1234.5")),
        ("$450", Fraction(450)),
        ("€30", Fraction(30)),
        ("85%", Fraction(85)),  # percent is cosmetic, no rescale
        (".75", Fraction(3, 4)),
        ("3/4", Fraction(3, 4)),
        ("-12", Fraction(-12)),
        ("+7", Fraction(7)),
        ("-$5", Fraction(-5)),
    ],
)
def test_single_token_values(text, expected):
    got = parse_numeric(text)
    assert got is not None
    assert got.value == expected
    assert got.rule == "literal"


def test_sign_requires_adjacency():
    # "3 - 5" is arithmetic, not a negative five
    assert values("3 - 5") == [3, 5]
    # "3-5" is a range; the dash is not preceded by a boundary for 3
    assert values("3-5") == [3, 5]
    # a genuinely negative answer keeps its sign
    assert extract("the answer is -5").value == -5
    assert values("(-5)") == [-5]
    assert values("= -5") == [-5]


def test_a_sign_at_the_start_of_the_last_run_still_reads_the_text_before_it():
    # The last-number rule scans from the run of token characters that
    # ends in the last digit, here "-5"; its sign's context is the
    # character before that run, as in a scan of the whole text.
    assert extract("x-5").value == 5
    assert extract("x(-5)").value == -5
    assert extract("a 7\nx*-5 books").value == -5


def test_zero_denominator_not_a_fraction():
    # "5/0" must not form a rational; it reads as the numbers 5 and 0
    assert values("5/0") == [5, 0]
    assert extract("Answer: 5/0 is undefined").value == 0
    # nor in any other script's zeros
    assert values("5/\uff10") == values("5 / \u0660\u0660") == [5, 0]
    assert values("5/0\uff10") == [5, 0]
    assert extract("the answer is 5/\uff10").value == 0
    assert extract("#### 7 / \uff10").value == 7
    assert extract("answer: 3/\u0660\u0660").value == 0
    assert parse_numeric("5/\uff10") is None
    # a denominator with one non-zero digit still forms a fraction
    assert values("1/\u0660\u0663") == [Fraction(1, 3)]
    assert values("\u0663/\u0664") == [Fraction(3, 4)]


def test_zeros_are_every_decimal_zero():
    every = {
        chr(point)
        for point in range(sys.maxunicode + 1)
        if chr(point).isdecimal() and unicodedata.decimal(chr(point)) == 0
    }
    assert set(_ZEROS) == every
    assert len(_ZEROS) == len(every)


def test_comma_grouping_must_be_well_formed():
    # "1,23" is not a grouped number: it is 1 then 23
    assert values("1,23") == [1, 23]


def test_scan_reports_spans_in_order():
    text = "first 10 then 2,000 done"
    found = scan_numbers(text)
    assert [n.raw_span for n in found] == ["10", "2,000"]
    assert [text[n.start : n.end] for n in found] == ["10", "2,000"]


def test_parse_numeric_rejects_embedded_text():
    assert parse_numeric("about 12") is None
    assert parse_numeric("twelve") is None
    assert parse_numeric("") is None


# value equality


def test_near_miss_values_are_unequal():
    third = parse_numeric("1/3")
    decimal = parse_numeric("0.3333333333")
    # values are exact, so a near miss is a miss
    assert third != decimal
    assert third == parse_numeric("2/6")


def test_value_only_equality_and_hash():
    a = parse_numeric("1,200")
    b = parse_numeric("1200")
    assert a == b
    assert hash(a) == hash(b)
    assert a.canonical == b.canonical == "1200"


# properties


exact_values = st.one_of(
    st.integers(min_value=-(10**9), max_value=10**9).map(Fraction),
    st.fractions(
        min_value=Fraction(-(10**6)), max_value=Fraction(10**6), max_denominator=999
    ),
)


@given(exact_values)
def test_canonical_round_trips(value):
    """parse_numeric(canonical) recovers the value exactly."""
    answer = NumericAnswer(value, raw_span="", rule="literal")
    reparsed = parse_numeric(answer.canonical)
    assert reparsed is not None
    assert reparsed.value == value
    assert type(reparsed.value) is Fraction


@given(exact_values, exact_values)
def test_equal_is_symmetric(x, y):
    a = NumericAnswer(x, "", "literal")
    b = NumericAnswer(y, "", "literal")
    assert a == a and b == b
    assert (a == b) == (b == a)


@given(st.lists(st.integers(min_value=0, max_value=10**9), min_size=1, max_size=8))
def test_scan_finds_space_separated_integers(numbers):
    text = " ".join(str(n) for n in numbers)
    assert values(text) == numbers


@given(st.integers(min_value=-(10**9), max_value=10**9))
def test_extract_from_marker_line(n):
    assert extract(f"working...\n#### {n}").value == n


number_text = st.one_of(
    st.text(alphabet="0123456789-+$€£%,./ x\t(=", max_size=40),
    st.text(max_size=40),
)


@given(number_text)
def test_every_scanned_token_reparses_standalone(text):
    """scan_numbers and parse_numeric share one number grammar."""
    for token in scan_numbers(text):
        reparsed = parse_numeric(token.raw_span)
        assert reparsed is not None, token.raw_span
        assert reparsed.value == token.value


# The token pattern without its leading lookahead: the oracle for the
# guarded scanner, which must match exactly the same spans and groups.
UNGUARDED_TOKEN = re.compile(
    rf"""
    (?P<sign>(?<![^\s(=+\-*/^,:;<>\[{{|&~$€£])[-+])?
    (?P<currency>[$€£])?
    (?P<body>
        \d{{1,3}}(?:,\d{{3}})+(?:\.\d+)?
      | \d+\.\d+
      | \d+(?:[ ]?/[ ]?(?![{_ZEROS}]+(?!\d))\d+)?
      | \.\d+
    )
    (?P<percent>%)?
    """,
    re.VERBOSE,
)


def eager_extract(text):
    """The extraction rules over scan_numbers, converting every token."""
    tokens = scan_numbers(text)
    marker_at = text.rfind(MARKER)
    if marker_at != -1:
        after = marker_at + len(MARKER)
        for token in tokens:
            if token.start >= after:
                return token.value, token.raw_span, "marker"
    answer_span = None
    offset = 0
    for raw in text.splitlines(keepends=True):
        line = (raw.splitlines() or [""])[0]
        if re.search(r"final\s+answer|answer\s*:|the\s+answer\s+is", line, re.IGNORECASE):
            answer_span = (offset, offset + len(line))
        offset += len(raw)
    if answer_span is not None:
        in_line = [t for t in tokens if t.start >= answer_span[0] and t.end <= answer_span[1]]
        if in_line:
            return in_line[-1].value, in_line[-1].raw_span, "answer-line"
    if tokens:
        return tokens[-1].value, tokens[-1].raw_span, "last-number"
    return None


# Answer phrases, markers and line breaks of several kinds, so a text
# often holds several answer lines and a marker before, after or inside
# one of them, and characters a sign may follow, so a number's sign
# often sits at the start of the last run of token characters.
scanner_text = st.lists(
    st.one_of(
        st.text(alphabet="0123456789٣٤٠０-+$€£.,/% abxyzé\n=(*:<[|^", max_size=12),
        st.sampled_from(
            ["####", "answer: ", "The answer is ", "Final answer", "final\nanswer"]
        ),
        st.sampled_from(["\n", "\r\n", "\r", "\x85", "\u2028", "\x0b", "\x1c"]),
    ),
    max_size=16,
).map("".join)


@given(scanner_text)
def test_scanner_guard_changes_no_match(text):
    def matches(pattern):
        return [(m.span(), m.groupdict()) for m in pattern.finditer(text)]

    assert matches(_NUMBER_TOKEN) == matches(UNGUARDED_TOKEN)


@given(st.one_of(st.text(), scanner_text))
def test_extraction_is_total(text):
    """No text makes the grammar raise: every scanned token converts."""
    scan_numbers(text)
    extract(text)
    parse_numeric(text)


@given(scanner_text)
def test_lazy_extract_agrees_with_the_eager_rules(text):
    got = extract(text)
    expected = eager_extract(text)
    if expected is None:
        assert got is None
    else:
        assert got is not None
        assert (got.value, got.raw_span, got.rule) == expected
        assert type(got.value) is Fraction


def test_every_character_the_answer_pattern_reads_as_a_letter_of_answer_casefolds_to_it():
    """extract walks the answer lines only when the casefolded text holds
    "answer". That skips no answer line: each answer phrase holds
    "answer", and every code point that the case-blind pattern takes for
    one of its letters casefolds to exactly that letter (U+017F, the long
    s, among them). Checked over all of Unicode."""
    assert all("answer" in phrase for phrase in _ANSWER_LINE.pattern.split("|"))
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    for letter in set("answer"):
        taken = set(re.findall(letter, every, _ANSWER_LINE.flags))
        assert taken >= {letter, letter.upper()}
        assert {char: char.casefold() for char in taken} == dict.fromkeys(taken, letter)


def test_an_answer_phrase_spelled_with_the_long_s_is_an_answer_line():
    answer = extract("The an\u017fwer is 7\nthen 9 more")
    assert (answer.canonical, answer.rule) == ("7", "answer-line")


def test_the_tail_run_holds_exactly_the_characters_a_number_token_can_hold():
    """The last-number rule scans from the start of the run of
    _TOKEN_CHARS that ends in the text's last digit. That finds the last
    token only if no token holds a character outside the class, and the
    class is no wider than it needs to be. Each code point c is tried in
    every place a token may hold a character, in "c1c1c000c/2": before a
    digit (a sign, a currency symbol or a dot), after one (a percent
    sign), between two (a digit, slash or dot), before a group of three
    (a comma) and before a fraction's slash (a space). Checked over all
    of Unicode."""
    every = list(map(chr, range(sys.maxunicode + 1)))
    text = "\n".join(f"{c}1{c}1{c}000{c}/2" for c in every)
    held = set()
    for token in _NUMBER_TOKEN.finditer(text):
        held.update(token.group())
    assert held == set(re.findall(f"[{_TOKEN_CHARS}]", "".join(every)))
