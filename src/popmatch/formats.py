"""File formats and certificate documents.

Instances are plain text: the node count on the first line, then one line
per node with its neighbors in strict preference order. Matchings are one
`i j` pair per line. `#` starts a comment in both. Certificates travel as
JSON documents that re-verify against the instance and matching on load.
"""

from __future__ import annotations

import json
import re
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
# token that holds it.
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
    cls is None when b holds only digits, `-`, spaces and `\n`: then the
    token bytes are those above a space. Otherwise cls holds the byte
    classes with comments blanked and each `\r` resolved, and commented
    the lines that hold a comment.
    """
    pad = np.zeros(b.size + 2, dtype=bool)
    tok = pad[1:-1]
    if not b.size or (
        b.max() <= ord("9")
        and np.count_nonzero(b >= ord("0")) + np.count_nonzero(b == ord("-"))
        + np.count_nonzero(b == ord(" ")) + newlines.size == b.size
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
    values: np.ndarray  # per token before bad; beyond int64 reads as int64 max
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

    def exact(self, k: int) -> int:
        """Token k as a Python int, beyond int64 too."""
        if k < len(self.values) and self.values[k] != _INT64_MAX:
            return int(self.values[k])
        return int(self._raw(k))

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


def _tokenize(text: str | bytes) -> _Tokens:
    """Token arrays of text, or of its UTF-8 bytes."""
    data = text if isinstance(text, bytes) else text.encode("utf-8", "surrogatepass")
    b = np.frombuffer(data, dtype=np.uint8)
    newlines = np.flatnonzero(b == ord("\n"))
    lines = len(newlines) + (not data.endswith(b"\n") and bool(data))
    pad, cls, commented = _token_mask(b, newlines)
    starts, ends = _token_edges(pad)
    minus = b == ord("-") if cls is None else cls == _MINUS
    other = None if cls is None else cls == _OTHER
    bad = -1
    minuses = np.count_nonzero(minus)
    if minuses or other is not None:
        neg = minus[starts]
        lone = neg & (ends - starts < 2)
        if (other is not None and other.any()) or np.count_nonzero(neg) != minuses or lone.any():
            # the first token holding another byte or a `-` past its start, or a lone `-`
            wrong = minus if other is None else other | minus
            wrong[starts] = False if other is None else other[starts]
            bad = int(np.argmax(np.logical_or.reduceat(wrong, starts) | lone))
    good = starts.size if bad < 0 else bad  # the tokens read as values
    values = np.zeros(0, dtype=np.int64)
    if good:
        source = data  # ASCII before bad: every byte outside comments passed the classes
        if commented.size:
            source = np.where(pad[1:-1], b, np.uint8(ord(" "))).tobytes()
        # every token before bad is -?[0-9]+ between blanks, so each one
        # reads as one value; the count spares fromstring growing its buffer
        values = np.fromstring(source, dtype=np.int64, count=good, sep=" ")
        for k in np.flatnonzero(ends[:good] - starts[:good] > 18).tolist():
            v = int(data[starts[k] : ends[k]])
            values[k] = v if -_INT64_MAX <= v <= _INT64_MAX else _INT64_MAX
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
    n = t.exact(0)
    if n < 0:
        raise ParseError(f"line {head}: negative node count {n}")
    if t.bad > 0:
        raise t.not_integer(t.bad)
    rows = head + np.flatnonzero(~t.comment_only[head:])
    found = len(rows)
    if found > n:  # drop trailing empty rows beyond the count
        filled = np.flatnonzero(t.per_line[rows])
        found = max(n, int(filled[-1]) + 1 if filled.size else 0)
    if found != n:
        raise ParseError(f"expected {n} preference lines, found {found}")
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


def _witness_doc(w: DualWitness) -> dict:
    alpha = w.alpha_array.tolist()
    return {
        "alpha": dict(zip(map(str, range(len(alpha))), alpha)),
        "two_sets": _groups(w.set_off, w.set_nodes, list),
    }


def _structure_doc(s: BlockingStructure) -> dict:
    seq = s.nodes
    if s.kind == "cycle":
        blocking = [[seq[-1], seq[0]]]
    elif s.kind == "path-two-blocking":
        blocking = [[seq[0], seq[1]], [seq[-2], seq[-1]]]
    else:
        blocking = [[seq[0], seq[1]]]
    return {"kind": s.kind, "nodes": list(seq), "blocking_edges": blocking}


def result_to_document(res) -> dict:
    """JSON-ready certificate document for any verdict object."""
    if isinstance(res, Popular):
        return {"verdict": "popular", "witness": _witness_doc(res.witness)}
    if isinstance(res, Unpopular):
        return {
            "verdict": "unpopular",
            "blocking_structure": _structure_doc(res.structure),
            "better_matching": res.better.pair_array().tolist(),
            "margin": res.margin,
        }
    if isinstance(res, FractionalPopular):
        return {"verdict": "fractional-popular", "witness": _witness_doc(res.witness)}
    if isinstance(res, NotFractionalPopular):
        doc = {
            "verdict": "not-fractional-popular",
            "p": {
                "ones": res.p.ones_array.tolist(),
                "loop_ones": res.p.loop_array.tolist(),
                "half_cycles": _groups(res.p.cycle_off, res.p.cycle_nodes, list),
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
            doc["blocking_structure"] = _structure_doc(res.from_unpopular.structure)
            doc["better_matching"] = res.from_unpopular.better.pair_array().tolist()
            doc["margin"] = res.from_unpopular.margin
        return doc
    raise TypeError(f"not a verdict object: {type(res).__name__}")


def document_to_json(doc: dict) -> str:
    # no indent: an indent sends json to its pure-Python encoder
    return json.dumps(doc, sort_keys=True) + "\n"


_NOT_OBJECT = "certificate must be a JSON object"


def parse_certificate(text: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad certificate JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ParseError(_NOT_OBJECT)
    if doc.get("verdict") not in VERDICTS:
        raise ParseError(f"unknown verdict {doc.get('verdict')!r}")
    return doc


_NODE_KEYS = re.compile(r"(?:0|[1-9][0-9]*)(?: (?:0|[1-9][0-9]*))*")
_CANONICAL_INT = re.compile(r"0|-?[1-9][0-9]*")


def _witness_from(doc, n: int) -> DualWitness | str:
    if not isinstance(doc, dict):
        return "witness is not an object"
    alpha_doc = doc.get("alpha")
    sets_doc = doc.get("two_sets")
    if not isinstance(alpha_doc, dict) or not isinstance(sets_doc, list):
        return "witness needs alpha and two_sets"
    keys = list(alpha_doc)
    vals = list(alpha_doc.values())
    # keys are canonical decimal node ids: one regex pass over all of them,
    # and a value count that catches a key holding a space
    joined = " ".join(keys)
    idx = np.zeros(0, dtype=np.int64)
    if keys and _NODE_KEYS.fullmatch(joined):
        idx = np.fromstring(joined, dtype=np.int64, sep=" ")
    if idx.size != len(keys) or (keys and idx.max() >= n):
        for key in keys:
            if not _CANONICAL_INT.fullmatch(key):
                return f"alpha key {key!r} is not a canonical node id"
            if not 0 <= int(key) < n:
                return f"alpha key {key!r} is out of range"
        return "alpha keys are not node ids"
    if not set(map(type, vals)) <= {int}:
        return "alpha values must be integers"
    if not set(vals) <= {-1, 0, 1}:
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


def _verify_popular(inst, m, doc, fractional: bool) -> str | None:
    w = _witness_from(doc.get("witness"), inst.n)
    if isinstance(w, str):
        return w
    msg = witness_violation(inst, m, w)
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


def _half_from(doc, inst: RoommatesInstance) -> HalfIntegralMatching | str:
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
            _int_array(list(chain.from_iterable(ones_doc))),
            _int_array(loops),
            csr=_csr(cycles_doc),
        )
        p.validate(inst)
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
    p = _half_from(doc.get("p"), inst)
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
    """None if the document certifies its verdict for (inst, m), else the defect."""
    try:
        check_matching(inst, m)
    except ValueError as exc:
        return str(exc)
    if not isinstance(doc, dict):
        return _NOT_OBJECT
    verdict = doc.get("verdict")
    if verdict == "popular":
        return _verify_popular(inst, m, doc, fractional=False)
    if verdict == "fractional-popular":
        return _verify_popular(inst, m, doc, fractional=True)
    if verdict == "unpopular":
        return _verify_unpopular_parts(inst, m, doc)
    if verdict == "not-fractional-popular":
        return _verify_not_fractional(inst, m, doc)
    return f"unknown verdict {verdict!r}"
