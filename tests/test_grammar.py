"""Text outside the input grammar: every parse error names its token.

Both parsers read the text through one tokenizer. Any byte outside the
grammar, a `\\r` that ends no line included, belongs to the token that
holds it, and the first such token is reported by line, column and text.
"""

import ast
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import TRIANGLE_PENDANT
from popmatch.formats import ParseError, parse_instance, parse_matching

# the grammar's own bytes, then bytes and characters outside it
ALPHABET = list("0123456789- \t\n#") + ["\r", "+", "\x00", "\x0b", "\x0c", "\xa0", "é", "١", "\udc80"]
NOT_INTEGER = re.compile(r"line (\d+), column (\d+): expected an integer, got (.*)")


@pytest.mark.parametrize(
    "text, expected",
    [
        ("2\n1\x00\n0\n", "line 2, column 1: expected an integer, got '1\\x00'"),
        ("2\n1 \x0b\n0\n", "line 2, column 3: expected an integer, got '\\x0b'"),
        ("2\n1\xa00\n0\n", "line 2, column 1: expected an integer, got '1\\xa00'"),
        ("2\n1 \udc80\n0\n", "line 2, column 3: expected an integer, got '\\udc80'"),
        ("x 2\n1\n0\n", "line 1: expected only the node count"),
        ("2 x\n1\n0\n", "line 1: expected only the node count"),
        ("# é\n\tx\n", "line 2, column 2: expected an integer, got 'x'"),
        ("2\n# note é\n1\n0 q\n", "line 4, column 3: expected an integer, got 'q'"),
        ("2\r\n1\r\r\n0\r\n", "line 2, column 1: expected an integer, got '1\\r'"),
        ("-3 # é\n1 x\n", "line 1: negative node count -3"),
    ],
)
def test_instance_grammar_outside_ascii(text, expected):
    with pytest.raises(ParseError) as err:
        parse_instance(text)
    assert str(err.value) == expected


@pytest.mark.parametrize(
    "text, expected",
    [
        ("0 1\x00\n", "line 1, column 3: expected an integer, got '1\\x00'"),
        ("0\x0b 1\n", "line 1, column 1: expected an integer, got '0\\x0b'"),
        ("\xa01 0\n", "line 1, column 1: expected an integer, got '\\xa01'"),
        ("0 \udc80\n", "line 1, column 3: expected an integer, got '\\udc80'"),
        ("0 1\n1 2\n2 x\n", "line 2: node 1 already matched on line 1"),
        ("0 1\n2 x\n1 2\n", "line 2, column 3: expected an integer, got 'x'"),
        ("# é\n0 1 x\n", "line 2: expected exactly two node ids"),
        ("0 1\r\n2 3\r", "line 2, column 3: expected an integer, got '3\\r'"),
    ],
)
def test_matching_grammar_outside_ascii(text, expected):
    with pytest.raises(ParseError) as err:
        parse_matching(text, TRIANGLE_PENDANT)
    assert str(err.value) == expected


@pytest.mark.parametrize(
    "data, expected",
    [
        (b"2\n1\xff\n0\n", "line 2, column 1: expected an integer, got '1\\udcff'"),
        (b"\xfe 2\n1\n0\n", "line 1: expected only the node count"),
        (b"# \xff\n2\n1\n0 \xc3\n", "line 4, column 3: expected an integer, got '\\udcc3'"),
    ],
)
def test_instance_bytes_outside_utf8(data, expected):
    # a byte that is not UTF-8 belongs to a token like any byte outside the grammar
    with pytest.raises(ParseError) as err:
        parse_instance(data)
    assert str(err.value) == expected


def test_bytes_outside_utf8_in_comments_and_matchings():
    assert parse_instance(b"2\n1 # \xff\n0\n") == parse_instance("2\n1\n0\n")
    with pytest.raises(ParseError) as err:
        parse_matching(b"0 1\n2 3\xff\n", TRIANGLE_PENDANT)
    assert str(err.value) == "line 2, column 3: expected an integer, got '3\\udcff'"
    pairs = parse_matching(b"0 1 # \xff\n2 3\n", TRIANGLE_PENDANT)
    assert pairs == parse_matching("0 1\n2 3\n", TRIANGLE_PENDANT)


def _check_named_token(text, parse, *args):
    try:
        parse(text, *args)
    except ParseError as exc:
        found = NOT_INTEGER.fullmatch(str(exc))
        if found:
            line, col, tok = int(found[1]), int(found[2]), ast.literal_eval(found[3])
            assert text.split("\n")[line - 1][col - 1 :].startswith(tok), (text, str(exc))
            assert not re.fullmatch(r"-?[0-9]+", tok), (text, str(exc))


@given(st.lists(st.sampled_from(ALPHABET), max_size=30).map("".join))
@settings(max_examples=300, deadline=None)
def test_parse_errors_quote_a_token_of_the_text(text):
    _check_named_token(text, parse_instance)
    _check_named_token(text, parse_matching, TRIANGLE_PENDANT)
