"""The array tokenizer against the byte-class tokenizer it replaced.

`formats._tokenize` classes bytes only when the text holds more than
digits, spaces and line ends, and finds token offsets again only when a
message needs them. A text of digits, spaces and line ends alone, with no
token over 8 bytes, has its values read as 32-bit words when no token
has more than 4 bytes and as 64-bit words otherwise. Every field the
parsers read must equal the reference's, from text and from its UTF-8
bytes alike.
"""

import itertools
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import reference_tokenize
from popmatch.formats import (
    ParseError,
    _tokenize,
    parse_instance,
    parse_matching,
    serialize_instance,
)
from popmatch.generator import generate_instance, unpopular_path
from test_grammar import ALPHABET

# tokens beyond int64 and just inside it
LONG_TOKENS = st.integers(19, 23).flatmap(
    lambda k: st.text("0123456789", min_size=k, max_size=k)
).flatmap(lambda digits: st.sampled_from([digits, "-" + digits]))
TEXTS = st.lists(st.one_of(st.sampled_from(ALPHABET), LONG_TOKENS), max_size=30).map("".join)


def word_path(text: str) -> bool:
    """Whether `_tokenize` reads the values of text as words, into int32: it
    holds digits, spaces and line ends alone, a token, and no token over 8 bytes."""
    tokens = text.split()
    return set(text) <= set("0123456789 \n") and bool(tokens) and max(map(len, tokens)) <= 8


def assert_same_tokens(text):
    ref = reference_tokenize(text)
    for source in (text, text.encode("utf-8", "surrogatepass")):
        t = _tokenize(source)
        assert t.data == ref.data
        assert t.bad == ref.bad
        assert t.count == len(ref.starts)
        np.testing.assert_array_equal(t.offsets[0], ref.starts)
        np.testing.assert_array_equal(t.offsets[1], ref.ends)
        np.testing.assert_array_equal(t.newlines, ref.newlines)
        np.testing.assert_array_equal(t.per_line, ref.per_line)
        np.testing.assert_array_equal(t.comment_only, ref.comment_only)
        if ref.bad < 0:
            np.testing.assert_array_equal(t.values, ref.values)
            assert t.values.dtype == (np.int32 if word_path(text) else np.int64)
            exact = [int(ref.data[a:b]) for a, b in zip(ref.starts, ref.ends)]
            assert [t.exact(k) for k in range(t.count)] == exact
        else:
            a, b = ref.starts[ref.bad], ref.ends[ref.bad]
            line = int(np.searchsorted(ref.newlines, a)) + 1
            col = a - (ref.newlines[line - 2] + 1 if line > 1 else 0) + 1
            tok = ref.data[a:b].decode("utf-8", "surrogatepass")
            expected = f"line {line}, column {col}: expected an integer, got {tok!r}"
            assert str(t.not_integer(t.bad)) == expected
        for k in range(t.count):
            assert t.lineno(k) == int(np.searchsorted(ref.newlines, ref.starts[k])) + 1


@pytest.mark.parametrize(
    "text",
    [
        "3\n1 2\n0 2\n0 1\n",  # plain: digits, spaces and line ends only
        "\t\t",
        "#",
        "\r",
        "1 2\r\n3\r\n",
        "7 8",  # a token at byte 0, and one at the end with no final \n
        "",
        "9223372036854775807 -9223372036854775808\n",
        "-9223372036854775807 9223372036854775808 -9223372036854775809\n",
        "0009223372036854775807\n",
        "1 -2 - 3-4 --5\n",
        "1 2 # -3 x\n# only\n\n4\n",
    ],
)
def test_fixed_texts_match_the_reference(text):
    assert_same_tokens(text)


@given(TEXTS)
@settings(max_examples=400, deadline=None)
def test_random_texts_match_the_reference(text):
    assert_same_tokens(text)


# leading zeros, runs of spaces, blank lines; a token may sit at byte 0 or
# end the text with no final \n
SHORT_TOKENS = st.text("0123456789", min_size=1, max_size=8)
GAPS = st.text(" \n", min_size=1, max_size=4)


@st.composite
def word_texts(draw):
    """Plain texts whose tokens have 1-8 bytes each."""
    tokens = draw(st.lists(SHORT_TOKENS, min_size=1, max_size=25))
    gaps = draw(st.lists(GAPS, min_size=len(tokens) + 1, max_size=len(tokens) + 1))
    gaps[0] = draw(st.sampled_from(["", gaps[0]]))
    gaps[-1] = draw(st.sampled_from(["", gaps[-1]]))
    return "".join(g + t for g, t in zip(gaps, tokens)) + gaps[-1]


@given(word_texts())
@settings(max_examples=400, deadline=None)
def test_word_path_matches_the_reference(text):
    assert word_path(text)
    assert_same_tokens(text)


def test_texts_of_1_to_4_bytes_match_the_reference():
    # every text of up to 4 bytes over two digits, a space and a line end:
    # tokens that start in the last 3 bytes have no whole word in the text
    for size in range(1, 5):
        for chars in itertools.product("07 \n", repeat=size):
            assert_same_tokens("".join(chars))


def test_texts_with_a_64_bit_word_match_the_reference():
    # every text with a token of 5 bytes or more, read as 64-bit words: of
    # 5 to 9 bytes over a digit, a space and a line end, where tokens that
    # start in the last 7 bytes have no whole word in the text; then, for
    # leading zeros, of 5 to 8 bytes over two digits and a space
    for alphabet, sizes in (("7 \n", range(5, 10)), ("07 ", range(5, 9))):
        for size in sizes:
            for chars in itertools.product(alphabet, repeat=size):
                text = "".join(chars)
                if max(map(len, text.split()), default=0) >= 5:
                    assert_same_tokens(text)


@pytest.mark.parametrize(
    "text, dtype",
    [
        ("9999", np.int32),
        ("0 9999\n0000", np.int32),
        ("10000", np.int32),  # 5 bytes: 64-bit words
        ("00001 2", np.int32),  # 5 bytes, leading zeros included
        ("1 10000 2\n", np.int32),  # neither the first token nor the last
        ("99999999", np.int32),  # the largest 8-byte token
        ("00000001 2", np.int32),  # 8 bytes, leading zeros included
        ("12345 1 2 3 4 5 6 7 8 9 67890", np.int32),  # 5 bytes at byte 0 and flush with the end
        ("12345 2 87654321", np.int32),  # 8 bytes flush with the end: a whole word
        ("99999 1 2 3 4", np.int32),  # four tokens start in the last 7 bytes
        ("123456789", np.int64),  # 9 bytes
        ("1\n2 123456789\n3 4", np.int64),
        ("-999", np.int64),  # a `-`
        ("1\t2", np.int64),  # a tab: not a plain text
        (" \n", np.int64),  # no token
    ],
)
def test_word_path_boundary(text, dtype):
    assert_same_tokens(text)
    assert _tokenize(text).values.dtype == dtype


# int() refuses a decimal string longer than the limit (0: no limit); a
# token that long must still read as beyond int64 and show its digits
LIMIT = sys.get_int_max_str_digits() or 4300
ZEROS = "0" * (LIMIT + 1)
BIG = "1" * (LIMIT + 700)


def test_tokens_past_the_int_string_limit():
    t = _tokenize(f"{ZEROS}7 -{ZEROS}{BIG} {BIG} -{ZEROS}\n")
    assert t.values.tolist() == [7, np.iinfo(np.int64).max, np.iinfo(np.int64).max, 0]
    assert [str(t.exact(k)) for k in range(t.count)] == ["7", "-" + BIG, BIG, "0"]
    assert parse_instance(f"2\n{ZEROS}1\n0\n").pref == ((1,), (0,))


@pytest.mark.parametrize(
    "text, expected",
    [
        (f"2\n1 {BIG}\n0\n", f"line 2: node 0 lists {BIG}, out of range"),
        (f"{BIG}\n0\n", f"expected {BIG} preference lines, found 1"),
        (f"{ZEROS}{BIG}\n0\n", f"expected {BIG} preference lines, found 1"),
        (f"-{ZEROS}{BIG}\n", f"line 1: negative node count -{BIG}"),
    ],
    ids=["entry", "count", "padded-count", "negative-count"],
)
def test_instance_names_a_token_past_the_int_string_limit(text, expected):
    with pytest.raises(ParseError) as err:
        parse_instance(text)
    assert str(err.value) == expected


def test_matching_names_a_token_past_the_int_string_limit(triangle_pendant):
    inst, _ = triangle_pendant
    for token in (BIG, ZEROS + BIG):
        with pytest.raises(ParseError) as err:
            parse_matching(f"0 1\n2 {token}\n", inst)
        assert str(err.value) == f"line 2: node {BIG} is out of range"


def test_parse_peak_memory():
    # 89,776 edges in 685,282 bytes of text, read as 32-bit words, and a
    # 20,001-node path in 217,788 bytes, its 5-digit ids read as 64-bit
    # words. The parses peak at 10.0 and 10.8 times the text size from str
    # and at 9.0 and 9.8 times from bytes (numpy 2.4); the bound adds a margin
    dense = serialize_instance(generate_instance(600, "gnp", 0.5, seed=3))
    long_ids = serialize_instance(unpopular_path(20_000, seed=3)[0])
    for text in (dense, long_ids):
        for source in (text, text.encode()):
            tracemalloc.start()
            try:
                parse_instance(source)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 22.5 * len(text), peak / len(text)
