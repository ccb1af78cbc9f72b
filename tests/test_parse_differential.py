"""The array parsers of popmatch.formats against the line-by-line reference.

Texts are drawn with random spacing, tabs, CRLF line ends, full-line and
inline comments, blank lines around the data and isolated nodes' empty
rows. Valid texts must parse to the same objects; texts with one or two
defects must fail with the same ParseError message. Every text stays inside the
grammar both parsers share (no `+3`, `1_0` or exotic whitespace), so any
difference is a bug.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from popmatch.formats import ParseError, parse_instance, parse_matching

from helpers import reference_parse_instance, reference_parse_matching

BLANKS = st.text(alphabet=" \t", max_size=3)
SEPARATORS = st.text(alphabet=" \t", min_size=1, max_size=3)
COMMENT_TEXT = st.text(alphabet="ab #-09é", max_size=6)
BAD_TOKENS = st.sampled_from(["x", "1x", "q7", "-", "1-2", "0x1", "--3", "1.5"])
EXAMPLES = settings(max_examples=200, deadline=None)


def outcome(parse, *args):
    try:
        return "ok", parse(*args)
    except ParseError as exc:
        return "error", str(exc)


@st.composite
def graphs(draw):
    """Preference rows (lists of ints) and a matching of disjoint edges."""
    n = draw(st.integers(0, 7))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = [e for e in pairs if draw(st.booleans())]
    rows = [[] for _ in range(n)]
    for u, v in edges:
        rows[u].append(v)
        rows[v].append(u)
    rows = [draw(st.permutations(row)) for row in rows]
    matched = set()
    matching = []
    for u, v in draw(st.permutations(edges)):
        if u not in matched and v not in matched and draw(st.booleans()):
            matched |= {u, v}
            matching.append(draw(st.sampled_from([(u, v), (v, u)])))
    return n, [list(r) for r in rows], matching


@st.composite
def render(draw, lines):
    """Join token lines with random blanks, comments and line ends.

    A line of no tokens stays free of comments, since a comment-only line
    is skipped and would not count as an (empty) instance row.
    """
    out = []
    for _ in range(draw(st.integers(0, 2))):
        comment = "#" + draw(COMMENT_TEXT) if draw(st.booleans()) else ""
        out.append(draw(BLANKS) + comment)
    for toks in lines:
        if draw(st.integers(0, 4)) == 0:
            out.append(draw(BLANKS) + "#" + draw(COMMENT_TEXT))
        body = draw(BLANKS)
        for k, tok in enumerate(toks):
            body += (draw(SEPARATORS) if k else "") + tok
        body += draw(BLANKS)
        if toks and draw(st.booleans()):
            body += "#" + draw(COMMENT_TEXT)
        out.append(body)
    out += [draw(BLANKS) for _ in range(draw(st.integers(0, 2)))]
    text = ""
    for k, line in enumerate(out):
        end = draw(st.sampled_from(["\n", "\r\n"]))
        if k == len(out) - 1 and line:  # an empty last line needs its end
            end = draw(st.sampled_from(["\n", "\r\n", ""]))
        text += line + end
    return text


def instance_lines(n, rows):
    return [[str(n)]] + [[str(v) for v in row] for row in rows]


def matching_lines(matching):
    return [[str(u), str(v)] for u, v in matching]


@given(st.data())
@EXAMPLES
def test_valid_texts_parse_like_the_reference(data):
    n, rows, matching = data.draw(graphs())
    itext = data.draw(render(instance_lines(n, rows)))
    ref = outcome(reference_parse_instance, itext)
    assert ref[0] == "ok", ref
    assert outcome(parse_instance, itext) == ref
    assert parse_instance(itext).pref == ref[1].pref == tuple(map(tuple, rows))
    mlines = matching_lines(matching)
    for _ in range(data.draw(st.integers(0, 2))):
        mlines.insert(data.draw(st.integers(0, len(mlines))), [])
    mtext = data.draw(render(mlines))
    inst = ref[1]
    mref = outcome(reference_parse_matching, mtext, inst)
    assert mref[0] == "ok", mref
    assert outcome(parse_matching, mtext, inst) == mref


@st.composite
def broken_instances(draw):
    """Instance token lines with one or two defects, so precedence shows."""
    n, rows, _ = draw(graphs())
    lines = instance_lines(n, rows)
    for _ in range(draw(st.integers(1, 2))):
        kind = draw(st.sampled_from(["token", "range", "self", "twice", "one-sided", "count"]))
        i = draw(st.integers(0, max(n - 1, 0)))
        row = lines[i + 1] if n else lines[0]
        pos = draw(st.integers(0, len(row)))
        if kind == "token":
            row.insert(pos, draw(BAD_TOKENS))
        elif kind == "range":
            row.insert(pos, str(draw(st.sampled_from([n, n + 3, -1, -12, 10**20]))))
        elif kind == "self" and n:
            row.insert(pos, str(i))
        elif kind == "twice" and row and n:
            row.insert(pos, draw(st.sampled_from(row)))
        elif kind == "one-sided" and n > 1:
            row.insert(pos, str(draw(st.sampled_from([j for j in range(n) if j != i]))))
        else:
            lines[0].append(draw(st.sampled_from(["1", "-1", "x"])))
    return lines


@given(st.data())
@EXAMPLES
def test_broken_instances_fail_like_the_reference(data):
    text = data.draw(render(data.draw(broken_instances())))
    assert outcome(parse_instance, text) == outcome(reference_parse_instance, text)


@given(st.data())
@EXAMPLES
def test_broken_matchings_fail_like_the_reference(data):
    n, rows, matching = data.draw(graphs())
    inst = reference_parse_instance(data.draw(render(instance_lines(n, rows))))
    lines = matching_lines(matching)
    for _ in range(data.draw(st.integers(1, 2))):
        kind = data.draw(st.sampled_from(["token", "range", "reuse", "self", "non-edge", "arity"]))
        pos = data.draw(st.integers(0, len(lines)))
        u = data.draw(st.integers(0, max(n - 1, 0)))
        if kind == "token":
            lines.insert(pos, [str(u), data.draw(BAD_TOKENS)])
        elif kind == "range":
            lines.insert(pos, [str(u), str(data.draw(st.sampled_from([n, n + 5, -1, 10**20])))])
        elif kind == "reuse" and lines:
            lines.insert(pos, [data.draw(st.sampled_from(lines))[0], str(u)])
        elif kind == "self":
            lines.insert(pos, [str(u), str(u)])
        elif kind == "non-edge" and n > 1:
            v = data.draw(st.sampled_from([v for v in range(n) if v != u]))
            lines.insert(pos, [str(u), str(v)])
        else:
            lines.insert(pos, [str(u)] * data.draw(st.sampled_from([1, 3])))
    text = data.draw(render(lines))
    assert outcome(parse_matching, text, inst) == outcome(reference_parse_matching, text, inst)
