"""File formats and certificate documents.

Instances are plain text: the node count on the first line, then one line
per node with its neighbors in strict preference order. Matchings are one
`i j` pair per line. `#` starts a comment in both. Certificates travel as
JSON documents that re-verify against the instance and matching on load.
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np

from .fractional import (
    CycleThroughStar,
    FractionalPopular,
    NotFractionalPopular,
    PathPlusCycle,
    check_fractional_structure,
    structure_to_fractional_matching,
)
from .model import (
    HalfIntegralMatching,
    Matching,
    PairError,
    PreferenceError,
    RoommatesInstance,
    _csr,
    _groups,
    _int_array,
    _weights,
    check_matching,
    delta,
    fractional_value_times_two,
)
from .popularity import (
    BlockingStructure,
    DualWitness,
    Popular,
    Unpopular,
    check_blocking_structure,
    witness_violation,
)

VERDICTS = ("popular", "unpopular", "fractional-popular", "not-fractional-popular")


class ParseError(ValueError):
    """Malformed instance, matching, or certificate text."""


# Input grammar: tokens are -?[0-9]+ separated by spaces or tabs, `#`
# starts a comment, lines end in \n or \r\n. One array pass splits the
# text into tokens, bad ones included, and finds the first token outside
# the grammar; the parsers raise every error from those arrays. A byte
# outside the grammar, a `\r` that ends no line included, belongs to the
# token that holds it. A text of digits, spaces and \n alone whose tokens
# have at most 8 bytes each reads its values as words (`_short_values`):
# 32-bit words when no token has more than 4 bytes, 64-bit words otherwise.
# Any other text goes to np.fromstring.
_OTHER, _DIGIT, _MINUS, _BLANK, _NEWLINE, _CR, _HASH = range(7)
_CLASS = np.zeros(256, dtype=np.uint8)
_CLASS[np.frombuffer(b"0123456789", dtype=np.uint8)] = _DIGIT
_CLASS[ord("-")] = _MINUS
_CLASS[[ord(" "), ord("\t")]] = _BLANK
_CLASS[ord("\n")] = _NEWLINE
_CLASS[ord("\r")] = _CR
_CLASS[ord("#")] = _HASH
_INT64_MAX = np.iinfo(np.int64).max
_NO_LINES = np.zeros(0, dtype=np.int64)


def _token_mask(b: np.ndarray, newlines: np.ndarray) -> tuple:
    """(pad, cls, commented) of the text bytes b, whose line ends are newlines.

    pad marks the token bytes, with one non-token byte added at each end.
    cls is None when b holds only digits, spaces and `\n`: then the token
    bytes are those above a space. Otherwise cls holds the byte classes
    with comments blanked and each `\r` resolved, and commented the lines
    that hold a comment.
    """
    pad = np.zeros(b.size + 2, dtype=bool)
    tok = pad[1:-1]
    if not b.size or (
        b.max() <= ord("9")
        and np.count_nonzero(b >= ord("0")) + np.count_nonzero(b == ord(" ")) + newlines.size
        == b.size
    ):
        np.greater(b, ord(" "), out=tok)
        return pad, None, _NO_LINES
    cls = _CLASS[b]
    hashes = np.flatnonzero(cls == _HASH)
    commented = _NO_LINES
    if hashes.size:
        # a comment runs from the first `#` of its line to the line end
        hline = np.searchsorted(newlines, hashes)
        first = np.ones(len(hashes), dtype=bool)
        first[1:] = hline[1:] != hline[:-1]
        commented = hline[first]
        mark = np.zeros(b.size + 1, dtype=np.int8)
        mark[hashes[first]] = 1
        mark[np.append(newlines, b.size)[commented]] = -1
        cls[np.cumsum(mark[:-1], dtype=np.int8).view(bool)] = _BLANK
    crs = np.flatnonzero(cls == _CR)
    if crs.size:
        # a \r ends its line only before a \n; the last byte reads itself
        ended = cls[np.minimum(crs + 1, b.size - 1)] == _NEWLINE
        cls[crs] = np.where(ended, _BLANK, _OTHER)
    np.less_equal(cls, _MINUS, out=tok)
    return pad, cls, commented


def _token_edges(pad: np.ndarray) -> tuple:
    """(starts, ends) byte offsets of the tokens of a padded token mask."""
    edge = np.flatnonzero(pad[1:] != pad[:-1])
    return edge[0::2], edge[1::2]


@dataclass(frozen=True)
class _Tokens:
    data: bytes
    # per token before bad: int32 when `_short_values` read them as 32- or
    # 64-bit words, else int64, where a token beyond int64 reads as int64 max
    values: np.ndarray
    count: int  # the number of tokens
    newlines: np.ndarray  # byte offset of each line end
    per_line: np.ndarray  # token count of each line
    comment_only: np.ndarray  # per line: nothing but blanks before a `#`
    bad: int  # the first token that is not -?[0-9]+, or -1

    @cached_property
    def offsets(self) -> tuple:
        """(starts, ends): the byte offset of each token and of the byte after it.

        Only messages need them, so they are found again from the bytes
        rather than held while the instance is validated.
        """
        b = np.frombuffer(self.data, dtype=np.uint8)
        return _token_edges(_token_mask(b, self.newlines)[0])

    def _raw(self, k: int) -> bytes:
        starts, ends = self.offsets
        return self.data[starts[k] : ends[k]]

    def exact(self, k: int) -> int | str:
        """Token k as a Python int, beyond int64 too; past Python's
        int-string limit, which `int` refuses, its canonical decimal text."""
        if k < len(self.values) and self.values[k] != _INT64_MAX:
            return int(self.values[k])
        neg, digits = _sign_digits(self._raw(k))
        # Pythons before 3.10.7 have no limit
        limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
        if limit and len(digits) > limit:
            return "-" * neg + digits.decode("ascii")
        return -int(digits or b"0") if neg else int(digits or b"0")

    def lineno(self, k: int) -> int:
        """1-based line number of token k."""
        return int(np.searchsorted(self.newlines, self.offsets[0][k])) + 1

    def not_integer(self, k: int) -> ParseError:
        """The error naming token k, which is not an integer."""
        line = self.lineno(k)
        first = int(self.newlines[line - 2]) + 1 if line > 1 else 0  # the line's first byte
        # every byte before the first bad token of a line is ASCII, so the
        # byte offset is the character column
        col = int(self.offsets[0][k]) - first + 1
        try:
            tok = self._raw(k).decode("utf-8", "surrogatepass")
        except UnicodeDecodeError:  # bytes that are not UTF-8 show as escapes
            tok = self._raw(k).decode("utf-8", "surrogateescape")
        return ParseError(f"line {line}, column {col}: expected an integer, got {tok!r}")


def _sign_digits(tok: bytes) -> tuple:
    """(negative, digits) of a -?[0-9]+ token, its digits without leading zeros."""
    neg = tok.startswith(b"-")
    return neg, tok[neg:].lstrip(b"0")


# One multiply-shift-mask round of `_short_values` per row: the mask that
# keeps each group of digits, the multiplier that adds each group times its
# power of ten into the group above it, and the shift that moves the sums
# down into groups of twice the width. 4-byte words run the first two rounds,
# their masks cut to 32 bits, and 8-byte words all three.
_ROUNDS = (
    (0x0F0F0F0F0F0F0F0F, 10 << 8 | 1, 8),
    (0x00FF00FF00FF00FF, 100 << 16 | 1, 16),
    (0x0000FFFF0000FFFF, 10000 << 32 | 1, 32),
)


def _short_values(data: bytes, starts: np.ndarray, ends: np.ndarray) -> np.ndarray | None:
    """The int32 values of [0-9]+ tokens of data, or None if one has more than 8 bytes.

    Each token is read as one little-endian word, 4 bytes wide when no
    token has more than 4 and 8 bytes otherwise. Shifted left until the
    token's last digit is the top byte and masked from ASCII to digit
    values, the word holds its digits with zero bytes, read as leading
    zeros, below them. The rounds of `_ROUNDS` join the digits into pairs,
    the pairs into fours and, in 8-byte words, the fours into one value of
    at most 99,999,999.
    """
    size = np.subtract(ends, starts, dtype=np.uint32, casting="unsafe")
    longest = int(size.max())
    if longest > 8:
        return None
    width = 4 if longest <= 4 else 8
    word = np.dtype(f"<u{width}")
    # a token that starts in the last width - 1 bytes has no whole word in data
    cut = int(np.searchsorted(starts, len(data) - width + 1))
    words = np.ndarray(max(len(data) - width + 1, 0), dtype=word, buffer=data, strides=(1,))
    w = words[starts[:cut]]  # np.take would copy the strided starts
    w.resize(len(starts), refcheck=False)  # zeros for the tail tokens, read below
    size <<= 3
    np.subtract(8 * width, size, out=size)  # the bits past the token's end
    w <<= size  # the ufunc casts the uint32 shifts as it goes
    top = np.iinfo(word).max
    rounds = _ROUNDS[: width // 4 + 1]
    for k, (mask, mult, shift) in enumerate(rounds, 1):
        w &= word.type(mask & top)
        w *= word.type(mult)
        # the last shift leaves the values, which fit 32 bits, in size's buffer
        np.right_shift(w, word.type(shift), out=size if k == len(rounds) else w, casting="unsafe")
    values = size.view(np.int32)
    for k in range(cut, len(starts)):
        values[k] = int(data[starts[k] : ends[k]])
    return values


def _first_bad(cls: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> int:
    """The first token of a classed text that is not -?[0-9]+, or -1: one that
    holds another byte or a `-` past its start, or a lone `-`."""
    minus = cls == _MINUS
    other = cls == _OTHER
    neg = minus[starts]
    lone = neg & (ends - starts < 2)
    if not (other.any() or np.count_nonzero(neg) != np.count_nonzero(minus) or lone.any()):
        return -1
    wrong = other | minus
    wrong[starts] = other[starts]
    return int(np.argmax(np.logical_or.reduceat(wrong, starts) | lone))


def _tokenize(text: str | bytes) -> _Tokens:
    """Token arrays of text, or of its UTF-8 bytes."""
    data = text if isinstance(text, bytes) else text.encode("utf-8", "surrogatepass")
    b = np.frombuffer(data, dtype=np.uint8)
    newlines = np.flatnonzero(b == ord("\n"))
    lines = len(newlines) + (not data.endswith(b"\n") and bool(data))
    pad, cls, commented = _token_mask(b, newlines)
    starts, ends = _token_edges(pad)
    bad = -1 if cls is None else _first_bad(cls, starts, ends)
    good = starts.size if bad < 0 else bad  # the tokens read as values
    values = None
    if good and cls is None:  # every token is [0-9]+
        values = _short_values(data, starts, ends)
    if values is None:
        values = np.zeros(0, dtype=np.int64)
    if good and not values.size:  # a token is long or not [0-9]+
        source = data  # ASCII before bad: every byte outside comments passed the classes
        if commented.size:
            source = np.where(pad[1:-1], b, np.uint8(ord(" "))).tobytes()
        # every token before bad is -?[0-9]+ between blanks, so each one
        # reads as one value; the count spares fromstring growing its buffer
        values = np.fromstring(source, dtype=np.int64, count=good, sep=" ")
        for k in np.flatnonzero(ends[:good] - starts[:good] > 18).tolist():
            # int() reads only up to 19 digits: more lie beyond int64
            neg, digits = _sign_digits(data[starts[k] : ends[k]])
            v = int(digits or b"0") if len(digits) < 20 else _INT64_MAX + 1
            values[k] = (-v if neg else v) if v <= _INT64_MAX else _INT64_MAX
    # tokens before each line end, differenced into a count per line
    before = np.append(np.searchsorted(starts, newlines), len(starts))[:lines]
    per_line = np.diff(before, prepend=0)
    comment_only = np.zeros(lines, dtype=bool)
    comment_only[commented] = True
    comment_only &= per_line == 0
    return _Tokens(data, values, len(starts), newlines, per_line, comment_only, bad)


def parse_instance(text: str | bytes) -> RoommatesInstance:
    """Read the preference-list format, from text or its UTF-8 bytes.

    After the count line, every line that is not only a comment is one
    node's row in order; an isolated node's row is empty. Trailing blank
    lines are tolerated.
    """
    t = _tokenize(text)
    if not t.count:
        raise ParseError("missing the node count line")
    head = int(np.argmax(t.per_line > 0)) + 1  # the first line with a token
    if t.per_line[head - 1] != 1:
        raise ParseError(f"line {head}: expected only the node count")
    if t.bad == 0:
        raise t.not_integer(0)
    n = shown = t.exact(0)
    if isinstance(n, str):  # past the int-string limit: no text holds that many rows
        n = -1 if n.startswith("-") else _INT64_MAX
    if n < 0:
        raise ParseError(f"line {head}: negative node count {shown}")
    if t.bad > 0:
        raise t.not_integer(t.bad)
    rows = head + np.flatnonzero(~t.comment_only[head:])
    found = len(rows)
    if found > n:  # drop trailing empty rows beyond the count
        filled = np.flatnonzero(t.per_line[rows])
        found = max(n, int(filled[-1]) + 1 if filled.size else 0)
    if found != n:
        raise ParseError(f"expected {shown} preference lines, found {found}")
    off = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(t.per_line[rows[:n]], out=off[1:])
    try:
        return RoommatesInstance(csr=(off, t.values[1:]))
    except PreferenceError as exc:
        k = exc.entry + 1
        where = f"line {t.lineno(k)}: node {exc.node} lists"
        j = exc.other
        raise ParseError(
            {
                "range": f"{where} {t.exact(k)}, out of range",
                "self": f"{where} itself",
                "twice": f"{where} {j} twice",
                "one-sided": f"{where} {j} but {j} does not list {exc.node} back",
            }[exc.kind]
        ) from None


def serialize_instance(inst: RoommatesInstance) -> str:
    lines = [str(inst.n)]
    for row in inst.pref:
        lines.append(" ".join(str(v) for v in row))
    return "\n".join(lines) + "\n"


def parse_matching(text: str | bytes, inst: RoommatesInstance) -> Matching:
    """Read `i j` pair lines, from text or its UTF-8 bytes, against an already parsed instance."""
    t = _tokenize(text)
    lines = np.flatnonzero(t.per_line)
    # pairs are read up to the first line that is not two integers
    arity = t.per_line[lines] != 2
    stop = int(np.argmax(arity)) if arity.any() else len(lines)
    if 0 <= t.bad < 2 * stop:
        stop = t.bad // 2
    try:
        m = Matching.from_pairs(inst, t.values[: 2 * stop].reshape(-1, 2))
    except PairError as exc:
        k = exc.slot
        w = t.exact(k)
        first = lines[np.argmax(t.values[: k + 1] == t.values[k]) // 2] + 1  # where w is matched
        raise ParseError(
            f"line {lines[k // 2] + 1}: "
            + {
                "range": f"node {w} is out of range",
                "reuse": f"node {w} already matched on line {first}",
                "edge": f"pair {w} {t.exact(k | 1)} is not an instance edge",
            }[exc.kind]
        ) from None
    if stop < len(lines):
        if arity[stop]:
            raise ParseError(f"line {lines[stop] + 1}: expected exactly two node ids")
        raise t.not_integer(t.bad)
    return m


def serialize_matching(m: Matching) -> str:
    lines = [f"{u} {v}" for u, v in m.pairs()]
    return "\n".join(lines) + ("\n" if lines else "")


def _digits(col: np.ndarray) -> np.ndarray:
    """(len(col), w) uint8 block holding each int of col as decimal text, zero bytes as padding.

    An object column holds a value beyond int64, which only outside input
    does; it is written with str per entry, as json writes an int.
    """
    if col.dtype == object:
        s = np.array([str(v) for v in col.tolist()], dtype="S")  # zero-padded on the right
        return s.view(np.uint8).reshape(len(s), s.itemsize)
    col = col.astype(np.int64, copy=False)
    mag = np.abs(col).view(np.uint64)  # exact for int64's least value too
    w = len(str(int(mag.max(initial=0))))
    out = np.zeros((len(col), w + 1), dtype=np.uint8)  # column 0 only ever holds a `-`
    size = np.ones(len(col), dtype=np.int64)  # digits per entry
    out[:, w] = mag % 10 + ord("0")
    for j in range(w - 1, 0, -1):
        mag //= 10
        live = mag > 0
        size += live
        out[:, j] = np.where(live, mag % 10 + ord("0"), 0)
    neg = np.flatnonzero(col < 0)
    out[neg, w - size[neg]] = ord("-")
    return out if neg.size else out[:, 1:]


def _rows(*parts) -> str:
    """ASCII text of rows laid end to end, row i being each part's i-th entry in turn.

    A bytes part is the same in every row, a 1-D int array gives each row
    its entry as decimal text, and a 2-D uint8 array its row of bytes up to
    zero padding.
    """
    n = next(len(p) for p in parts if not isinstance(p, bytes))
    blocks = [
        np.broadcast_to(np.frombuffer(p, dtype=np.uint8), (n, len(p)))
        if isinstance(p, bytes)
        else p if p.ndim == 2 else _digits(p)
        for p in parts
    ]
    buf = np.concatenate(blocks, axis=1)
    return buf[buf != 0].tobytes().decode("ascii")


class _Json(str):
    """JSON text already written, which `_dumps` places as it is."""


def _alpha_json(alpha: np.ndarray) -> _Json:
    """alpha as a JSON object from node id to value, keys in JSON's string order."""
    k = np.arange(len(alpha))
    w = len(str(max(len(alpha) - 1, 0)))  # digits of the widest key
    size = 1 + np.searchsorted(10 ** np.arange(1, w), k, side="right")
    # a key padded with zeros to w digits sorts as its string does, and the
    # stable sort puts a shorter key first on a tie: "1" < "10" < "100" < "11" < "2"
    order = np.argsort(k * 10 ** (w - size), kind="stable")
    return _Json("{" + _rows(b'"', order, b'": ', alpha[order], b", ")[:-2] + "}")


def _groups_json(off: np.ndarray, values: np.ndarray) -> _Json:
    """The CSR groups values[off[k]:off[k + 1]] as a JSON list of lists."""
    if not len(values) or (off[1:] == off[:-1]).any():  # no group, or an empty one
        return _Json(json.dumps(_groups(off, values, list)))
    sep = np.empty((len(values), 4), dtype=np.uint8)
    sep[:] = np.frombuffer(b", \0\0", dtype=np.uint8)
    sep[off[1:] - 1] = np.frombuffer(b"], [", dtype=np.uint8)
    return _Json("[[" + _rows(values, sep)[:-4] + "]]")


def _pairs_json(pairs: np.ndarray) -> _Json:
    """A (k, 2) array as a JSON list of pairs."""
    return _groups_json(np.arange(0, pairs.size + 1, 2), pairs.ravel())


def _structure_doc(s: BlockingStructure) -> dict:
    seq = s.nodes
    if s.kind == "cycle":
        blocking = [[seq[-1], seq[0]]]
    elif s.kind == "path-two-blocking":
        blocking = [[seq[0], seq[1]], [seq[-2], seq[-1]]]
    else:
        blocking = [[seq[0], seq[1]]]
    return {"kind": s.kind, "nodes": list(seq), "blocking_edges": blocking}


def _unpopular_doc(u: Unpopular) -> dict:
    return {
        "blocking_structure": _structure_doc(u.structure),
        "better_matching": _pairs_json(u.better.pair_array()),
        "margin": u.margin,
    }


def _document(res) -> dict:
    """The certificate of a verdict object, its big parts already JSON text."""
    if isinstance(res, (Popular, FractionalPopular)):
        w = res.witness
        return {
            "verdict": "popular" if isinstance(res, Popular) else "fractional-popular",
            "witness": {
                "alpha": _alpha_json(w.alpha_array),
                "two_sets": _groups_json(w.set_off, w.set_nodes),
            },
        }
    if isinstance(res, Unpopular):
        return {"verdict": "unpopular", **_unpopular_doc(res)}
    if isinstance(res, NotFractionalPopular):
        p = res.p
        doc = {
            "verdict": "not-fractional-popular",
            "p": {
                "ones": _pairs_json(p.ones_array),
                "loop_ones": p.loop_array.tolist(),
                "half_cycles": _groups_json(p.cycle_off, p.cycle_nodes),
            },
            "value_times_two": res.value_times_two,
        }
        s = res.structure
        if isinstance(s, CycleThroughStar):
            doc["fractional_structure"] = {
                "kind": "cycle-through-star",
                "cycle": list(s.cycle),
                "middle": s.middle,
            }
        elif isinstance(s, PathPlusCycle):
            doc["fractional_structure"] = {
                "kind": "path-plus-cycle",
                "path": list(s.path),
                "cycle": list(s.cycle),
                "blocking_edge": list(s.blocking_edge),
            }
        if res.from_unpopular is not None:
            doc.update(_unpopular_doc(res.from_unpopular))
        return doc
    raise TypeError(f"not a verdict object: {type(res).__name__}")


def _dumps(v) -> str:
    """v as `json.dumps(v, sort_keys=True)` writes it, with _Json text placed as it is."""
    if isinstance(v, _Json):
        return v
    if isinstance(v, dict):
        return "{" + ", ".join(f"{json.dumps(k)}: {_dumps(v[k])}" for k in sorted(v)) + "}"
    return json.dumps(v, sort_keys=True)


def document_to_json(doc) -> str:
    """The certificate as one line of JSON with sorted keys.

    Given a verdict object, the text is written straight from its arrays;
    given a document dict, it is `json.dumps` of the dict.
    """
    if isinstance(doc, dict):
        # no indent: an indent sends json to its pure-Python encoder
        return json.dumps(doc, sort_keys=True) + "\n"
    return _dumps(_document(doc)) + "\n"


def result_to_document(res) -> dict:
    """The certificate document of a verdict object: its JSON text, read back."""
    return json.loads(_dumps(_document(res)))


_NOT_OBJECT = "certificate must be a JSON object"


def parse_certificate(text: str) -> dict:
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # an int past the int-string limit, deep nesting
        raise ParseError(f"bad certificate JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ParseError(_NOT_OBJECT)
    if doc.get("verdict") not in VERDICTS:
        raise ParseError(f"unknown verdict {doc.get('verdict')!r}")
    return doc


_CANONICAL_INT = re.compile(r"0|-?[1-9][0-9]*")


def _node_keys(keys: list, n: int) -> np.ndarray | None:
    """The ids of alpha keys that are all canonical node ids below n, else None.

    The joined keys must be ASCII digits and exactly len(keys) - 1 spaces,
    with no key empty and none but "0" starting with a `0`. A key past
    int64 reads as int64 max, which no n passes.
    """
    joined = " ".join(keys)
    if not joined.isascii():
        return None
    pad = np.full(len(joined) + 2, ord(" "), dtype=np.uint8)  # a space at each end
    pad[1:-1] = np.frombuffer(joined.encode("ascii"), dtype=np.uint8)
    space = pad == ord(" ")
    spaces = np.count_nonzero(space)
    if (
        spaces != len(keys) + 1  # one between each two keys, and the padding
        or np.count_nonzero(pad - np.uint8(ord("0")) < 10) + spaces != pad.size
        or (space[1:] & space[:-1]).any()  # an empty key
        or (space[:-2] & (pad[1:-1] == ord("0")) & ~space[2:]).any()  # a leading zero
    ):
        return None
    idx = np.fromstring(joined, dtype=np.int64, sep=" ")
    return idx if idx.max() < n else None


def _witness_from(doc, n: int) -> DualWitness | str:
    if not isinstance(doc, dict):
        return "witness is not an object"
    alpha_doc = doc.get("alpha")
    sets_doc = doc.get("two_sets")
    if not isinstance(alpha_doc, dict) or not isinstance(sets_doc, list):
        return "witness needs alpha and two_sets"
    keys = list(alpha_doc)
    idx = _node_keys(keys, n) if keys else np.zeros(0, dtype=np.int64)
    if idx is None:  # name the first key that is not a canonical id below n
        # a key of 20 digits or more is past any n; int() may refuse it
        key = next(
            k for k in keys
            if not (_CANONICAL_INT.fullmatch(k) and len(k) < 20 and 0 <= int(k) < n)
        )
        if not _CANONICAL_INT.fullmatch(key):
            return f"alpha key {key!r} is not a canonical node id"
        return f"alpha key {key!r} is out of range"
    vals = list(alpha_doc.values())
    if not set(map(type, vals)) <= {int}:
        return "alpha values must be integers"
    vals = _listed_ints(vals)
    if vals.size and (vals.min() < -1 or vals.max() > 1):
        return "alpha value outside {-1, 0, 1}"
    alpha = np.zeros(n, dtype=np.int64)
    alpha[idx] = vals
    for group in sets_doc:
        if not _int_lists([group]):
            return "witness contains a non-node entry"
        if len(set(group)) != len(group):
            return "odd set repeats a node"
    return DualWitness(alpha, csr=_csr(sets_doc))


def _int_lists(items, size: int | None = None) -> bool:
    """True if every item is a list of ints (bools excluded), of `size` entries if given."""
    return (
        set(map(type, items)) <= {list}
        and (size is None or set(map(len, items)) <= {size})
        and set(map(type, chain.from_iterable(items))) <= {int}
    )


def _listed_ints(values: list) -> np.ndarray:
    """Ints that `_int_lists` passed, as an int64 array; `_int_array` keeps
    any beyond int64 exact."""
    try:
        return np.fromiter(values, dtype=np.int64, count=len(values))
    except OverflowError:
        return _int_array(values)


def _matching_from(doc, inst: RoommatesInstance) -> Matching | str:
    if not isinstance(doc, list):
        return "better_matching is not a list"
    if not _int_lists(doc, 2):
        item = next(x for x in doc if not _int_lists([x], 2))
        return f"bad matching pair {item!r}"
    try:
        return Matching.from_pairs(inst, doc)
    except (ValueError, IndexError) as exc:
        return str(exc)


def _verify_popular(inst, m, doc, weights: np.ndarray, fractional: bool) -> str | None:
    w = _witness_from(doc.get("witness"), inst.n)
    if isinstance(w, str):
        return w
    msg = witness_violation(inst, m, w, weights)
    if msg is not None:
        return msg
    if fractional and len(w.set_off) > 1:
        return "a fractional-popularity witness must have no two-valued sets"
    return None


def _verify_unpopular_parts(inst, m, doc) -> str | None:
    sdoc = doc.get("blocking_structure")
    if not isinstance(sdoc, dict):
        return "missing blocking_structure"
    nodes = sdoc.get("nodes")
    if not _int_lists([nodes]) or not isinstance(sdoc.get("kind"), str):
        return "blocking_structure needs kind and nodes"
    s = BlockingStructure(kind=sdoc["kind"], nodes=tuple(nodes))
    msg = check_blocking_structure(inst, m, s)
    if msg is not None:
        return msg
    declared = sdoc.get("blocking_edges")
    if declared != _structure_doc(s)["blocking_edges"]:
        return "blocking_edges do not match the structure"
    better = _matching_from(doc.get("better_matching"), inst)
    if isinstance(better, str):
        return better
    margin = doc.get("margin")
    if type(margin) is not int or margin < 1:
        return f"margin {margin!r} does not certify a defeat"
    won = delta(inst, m, better)
    if won != margin:
        return f"better matching wins by {won}, not {margin}"
    return None


def _half_from(doc, inst: RoommatesInstance, m: Matching) -> HalfIntegralMatching | str:
    if not isinstance(doc, dict):
        return "p is not an object"
    ones_doc = doc.get("ones")
    loops = doc.get("loop_ones")
    cycles_doc = doc.get("half_cycles")
    if not (isinstance(ones_doc, list) and _int_lists([loops]) and isinstance(cycles_doc, list)):
        return "p needs ones, loop_ones and half_cycles"
    # whole-list checks; the item loops below only name the first bad item
    if not _int_lists(ones_doc, 2):
        item = next(x for x in ones_doc if not _int_lists([x], 2))
        return f"bad p edge {item!r}"
    if not _int_lists(cycles_doc):
        item = next(x for x in cycles_doc if not _int_lists([x]))
        return f"bad half cycle {item!r}"
    try:
        p = HalfIntegralMatching(
            _listed_ints(list(chain.from_iterable(ones_doc))),
            _listed_ints(loops),
            csr=_csr(cycles_doc),
        )
        p.validate(inst, m)
    except (ValueError, IndexError) as exc:
        return str(exc)
    return p


def _frac_structure_from(sdoc) -> CycleThroughStar | PathPlusCycle | str:
    if not isinstance(sdoc, dict):
        return "fractional_structure is not an object"
    kind = sdoc.get("kind")
    if kind == "cycle-through-star":
        cyc = sdoc.get("cycle")
        mid = sdoc.get("middle")
        if not _int_lists([cyc, [mid]]):
            return "cycle-through-star needs cycle and middle"
        return CycleThroughStar(cycle=tuple(cyc), middle=mid)
    if kind == "path-plus-cycle":
        path, cyc, be = sdoc.get("path"), sdoc.get("cycle"), sdoc.get("blocking_edge")
        if not (_int_lists([path, cyc]) and _int_lists([be], 2)):
            return "path-plus-cycle needs path, cycle and blocking_edge"
        return PathPlusCycle(path=tuple(path), cycle=tuple(cyc), blocking_edge=tuple(be))
    return f"unknown fractional structure kind {kind!r}"


def _verify_not_fractional(inst, m, doc) -> str | None:
    p = _half_from(doc.get("p"), inst, m)
    if isinstance(p, str):
        return p
    vt2 = doc.get("value_times_two")
    if type(vt2) is not int or vt2 < 1:
        return f"value_times_two {vt2!r} does not certify a defeat"
    actual = fractional_value_times_two(inst, m, p)
    if actual != vt2:
        return f"p scores {actual}, document claims {vt2}"
    if "fractional_structure" in doc:
        s = _frac_structure_from(doc["fractional_structure"])
        if isinstance(s, str):
            return s
        msg = check_fractional_structure(inst, m, s)
        if msg is not None:
            return msg
        if vt2 != 2:
            return f"a structure certificate must score 2, not {vt2}"
        rebuilt = structure_to_fractional_matching(inst, m, s)
        if rebuilt != p:
            return "p does not encode the declared structure"
    elif "blocking_structure" in doc:
        return _verify_unpopular_parts(inst, m, doc)
    return None


def verify_certificate(inst: RoommatesInstance, m: Matching, doc: dict) -> str | None:
    """None if the document certifies its verdict for (inst, m), else the defect.

    M is checked first: for a popular verdict by the weight pass that the
    witness check reads, which raises check_matching's errors.
    """
    verdict = doc.get("verdict") if isinstance(doc, dict) else None
    popular = verdict in ("popular", "fractional-popular")
    try:
        weights = _weights(inst, m) if popular else check_matching(inst, m)
    except ValueError as exc:
        return str(exc)
    if not isinstance(doc, dict):
        return _NOT_OBJECT
    if popular:
        return _verify_popular(inst, m, doc, weights, fractional=verdict == "fractional-popular")
    if verdict == "unpopular":
        return _verify_unpopular_parts(inst, m, doc)
    if verdict == "not-fractional-popular":
        return _verify_not_fractional(inst, m, doc)
    return f"unknown verdict {verdict!r}"
