"""The index dtype of the instance and auxiliary-graph arrays, and their memory.

Node ids and positions are int32 below 2^31; the edge keys lo * n + hi
stay int64. An int32 array times a Python int stays int32 under numpy 1
and 2 alike, so the top-id cases below fail wherever a key is built in
int32. The parse pairs entries by a value sort of keys with the entry
index packed in, or by an argsort where that would overflow int64; both
must build the same arrays and name the same bad entry.
"""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import test_certificate_digest
from helpers import analysis_cases, edge_arrays, gadget_cases
from popmatch import auxgraph, engine, formats, model
from popmatch.auxgraph import build_aux
from popmatch.engine import Graph
from popmatch.formats import (
    ParseError,
    parse_instance,
    result_to_document,
    serialize_instance,
    verify_certificate,
)
from popmatch.fractional import NotFractionalPopular, is_fractional_popular
from popmatch.generator import generate_instance, random_maximal_matching
from popmatch.model import (
    Matching,
    PreferenceError,
    RoommatesInstance,
    _packs,
    _ranks,
    _weights,
    blocking_edges,
    edge_weight,
    index_dtype,
)
from popmatch.popularity import DualWitness, Popular, Unpopular, is_popular

from conftest import (
    TRIANGLE_PENDANT,
    TRIANGLE_PENDANT_M,
    TWO_TRIANGLES,
    TWO_TRIANGLES_M,
    TWO_TRIANGLES_PENDANTS,
    TWO_TRIANGLES_PENDANTS_M,
)

N = 70_000  # (N - 1) * N is beyond int32


def _placed(inst: RoommatesInstance, base: int) -> RoommatesInstance:
    """inst on the nodes base, base + 1, ... of an instance of N nodes."""
    rows = [()] * N
    for v, row in enumerate(inst.pref):
        rows[base + v] = tuple(base + w for w in row)
    return RoommatesInstance(rows)


@pytest.mark.parametrize(
    "inst, m",
    [
        (TWO_TRIANGLES_PENDANTS, TWO_TRIANGLES_PENDANTS_M),
        (TWO_TRIANGLES, TWO_TRIANGLES_M),
        (TRIANGLE_PENDANT, TRIANGLE_PENDANT_M),
    ],
)
def test_top_ids_answer_like_small_ids(inst, m):
    k = inst.n
    top = N - k
    high, low = _placed(inst, top), _placed(inst, 0)
    assert (N - 2) * N + N - 1 > 2**31  # the key of the top edge
    assert high._arrays["keys"][-1] > 2**31 and high._arrays["keys"].dtype == np.int64
    pairs = m.pair_array()
    mh, ml = Matching.from_pairs(high, pairs + top), Matching.from_pairs(low, pairs)

    us, vs = np.divmod(np.arange(k * k, dtype=np.int32), k)  # int32, like the arrays
    assert np.array_equal(high.has_edges(us + top, vs + top), low.has_edges(us, vs))
    eu, ev = low._arrays["eu"], low._arrays["ev"]
    assert np.array_equal(_ranks(high, eu + top, ev + top), _ranks(low, eu, ev))
    assert np.array_equal(_ranks(high, ev + top, eu + top), _ranks(low, ev, eu))
    assert np.array_equal(_weights(high, mh), _weights(low, ml))
    lifted = tuple((u + top, v + top) for u, v in blocking_edges(low, ml))
    assert blocking_edges(high, mh) == lifted

    rh, rl = is_popular(high, mh), is_popular(low, ml)
    assert type(rh) is type(rl)
    if isinstance(rl, Popular):
        assert np.array_equal(rh.witness.alpha_array[top:], rl.witness.alpha_array[:k])
        assert rh.witness.set_nodes.tolist() == (rl.witness.set_nodes + top).tolist()
    else:
        assert isinstance(rl, Unpopular) and rh.margin == rl.margin
        assert np.array_equal(rh.better.pair_array(), rl.better.pair_array() + top)
    fh, fl = is_fractional_popular(high, mh), is_fractional_popular(low, ml)
    assert type(fh) is type(fl)
    if isinstance(fl, NotFractionalPopular):
        assert fh.value_times_two == fl.value_times_two
        assert np.array_equal(fh.p.ones_array, fl.p.ones_array + top)
        assert np.array_equal(fh.p.cycle_nodes, fl.p.cycle_nodes + top)


# the entries (K, 1) and (0, 1 + K * N % 2**32) have keys equal mod 2**32
K = round(2**32 / N)


TOP_ID_DEFECTS = [
    ({N - 1: (N - 2, N - 2), N - 2: (N - 1,)}, "twice", N - 1, N - 2),
    ({N - 1: (N - 2,), N - 2: (N - 3,), N - 3: (N - 2,)}, "one-sided", N - 1, N - 2),
    ({0: (1 + K * N % 2**32,), K: (1,)}, "one-sided", 0, 1 + K * N % 2**32),
]


@pytest.mark.parametrize("rows, kind, node, other", TOP_ID_DEFECTS)
def test_top_ids_name_the_bad_entry(rows, kind, node, other):
    pref = [rows.get(v, ()) for v in range(N)]
    with pytest.raises(PreferenceError) as err:
        RoommatesInstance(pref)
    assert (err.value.kind, err.value.node, err.value.other) == (kind, node, other)


def test_index_dtype_switches_at_2_31():
    assert index_dtype(0, 0) is np.int32
    assert index_dtype(2**31 - 1, 2**31 - 1) is np.int32
    assert index_dtype(2**31, 0) is np.int64
    assert index_dtype(10, 2**31) is np.int64


def test_packed_pairing_switches_where_the_key_overflows():
    # 2|E| entries take b = bit_length(2|E| - 1) low bits under keys below 2n^2
    assert _packs(0, 0) and _packs(1, 1) and _packs(N, 2**20)
    assert _packs(910_000, 2 * 10**6)  # a 1e6-edge gadgets instance
    assert _packs(1_482_910, 2**21) and not _packs(1_482_911, 2**21)  # 2n^2 < 2^42
    assert not _packs(1_482_910, 2**21 + 1)  # one more entry takes a 22nd bit
    assert _packs(1_518_500_249, 2) and not _packs(1_518_500_250, 2)  # 2n^2 < 2^62
    assert _packs(1, 2**61) and not _packs(1, 2**61 + 1)
    for n, entries in ((1_482_910, 2**21), (1_518_500_249, 2), (1, 2**61)):
        b = (entries - 1).bit_length()
        assert (2 * n * n - 1) << b | (entries - 1) < 2**63


def _pairing(packs: bool, **rows):
    """The instance arrays of rows, given as pref or csr, or the (kind, entry,
    node, other) they are refused with."""
    with mock.patch.object(model, "_packs", lambda n, entries: packs):
        try:
            return RoommatesInstance(**rows)._arrays
        except PreferenceError as err:
            return err.kind, err.entry, err.node, err.other


def _assert_same_pairing(**rows):
    packed, sorted_ = _pairing(True, **rows), _pairing(False, **rows)
    if isinstance(packed, tuple):
        assert packed == sorted_
        return
    assert packed.keys() == sorted_.keys()
    for k, a in packed.items():
        assert a.dtype == sorted_[k].dtype and np.array_equal(a, sorted_[k]), k


@pytest.mark.parametrize(
    "pref, refusal",
    [
        (((1,), (5,)), ("range", 1, 1, 5)),
        (((1,), (-1, 0)), ("range", 1, 1, -1)),
        (((1, 0), (0,)), ("self", 1, 0, 0)),
        (((1, 2), (0, 2), (1, 0, 1)), ("twice", 6, 2, 1)),
        (((1, 2), (0,), (0, 1)), ("one-sided", 4, 2, 1)),
        (((2, 1), (0, 2), (1, 0, 3), (2,), (3,)), ("one-sided", 8, 4, 3)),
    ],
)
def test_both_pairings_name_the_same_bad_entry(pref, refusal):
    assert _pairing(True, pref=pref) == _pairing(False, pref=pref) == refusal


# A self entry finds no reverse key, so only the pairing check refuses it
# unless an entry out of range comes first; the entry named must not change.
SELF_ENTRIES = [
    (((0, 1), (0,)), ("self", 0, 0, 0), "line 2: node 0 lists itself"),  # first of its row
    (((1, 2), (0, 2), (0, 1, 2)), ("self", 6, 2, 2), "line 4: node 2 lists itself"),  # the last
    (((1,), (0,), (2,)), ("self", 2, 2, 2), "line 4: node 2 lists itself"),  # alone in its row
    (((1,), (0, 1, 1)), ("self", 2, 1, 1), "line 3: node 1 lists itself"),  # twice
    (((), (1, 1)), ("self", 0, 1, 1), "line 3: node 1 lists itself"),  # twice, alone
    (((0,),), ("self", 0, 0, 0), "line 2: node 0 lists itself"),  # the only entry
    (((1, 0), (1, 0)), ("self", 1, 0, 0), "line 2: node 0 lists itself"),  # every edge paired
    (((0, 1, 1), (0,)), ("self", 0, 0, 0), "line 2: node 0 lists itself"),  # before a repeat
    (((1, 1, 0), (0,)), ("twice", 1, 0, 1), "line 2: node 0 lists 1 twice"),  # after one
    (((0, 1, 2), (0,), ()), ("self", 0, 0, 0), "line 2: node 0 lists itself"),  # before a one-sided
    (((2, 1, 0), (0,), ()), ("self", 2, 0, 0), "line 2: node 0 lists itself"),  # after one
    (((0, 1), (5, 0)), ("self", 0, 0, 0), "line 2: node 0 lists itself"),  # before a range entry
    (((1, 5), (0, 1)), ("range", 1, 0, 5), "line 2: node 0 lists 5, out of range"),  # after one
]


@pytest.mark.parametrize("pref, refusal, message", SELF_ENTRIES)
def test_self_entries_are_named_by_the_pairing_check(pref, refusal, message):
    off = np.cumsum([0] + [len(row) for row in pref])
    flat = [v for row in pref for v in row]
    for packs in (True, False):
        assert _pairing(packs, pref=pref) == refusal
        for dtype in (np.int32, np.int64):
            assert _pairing(packs, csr=(off, np.array(flat, dtype=dtype))) == refusal
    text = f"{len(pref)}\n" + "".join(" ".join(map(str, row)) + "\n" for row in pref)
    with pytest.raises(ParseError) as err:
        parse_instance(text)
    assert str(err.value) == message


def test_both_pairings_build_the_same_arrays(monkeypatch):
    gadgets = [(TWO_TRIANGLES, TWO_TRIANGLES_M), (TRIANGLE_PENDANT, TRIANGLE_PENDANT_M)]
    corpus = [inst for inst, _ in analysis_cases() + tuple(gadget_cases(20, 5, gadgets))]
    corpus += [_placed(TWO_TRIANGLES_PENDANTS, N - TWO_TRIANGLES_PENDANTS.n)]
    for inst in corpus:
        _assert_same_pairing(csr=(inst.off, inst.dv))
    for rows, kind, node, other in TOP_ID_DEFECTS:
        pref = [rows.get(v, ()) for v in range(N)]
        refusal = _pairing(False, pref=pref)
        assert _pairing(True, pref=pref) == refusal and refusal[::2] == (kind, node)
    # the argsort pairing passes the digest test on its own
    monkeypatch.setattr(model, "_packs", lambda n, entries: False)
    cases = analysis_cases.__wrapped__()  # built afresh, under the patch
    monkeypatch.setattr(test_certificate_digest, "analysis_cases", lambda: cases)
    test_certificate_digest.test_certificates_are_byte_identical()


@st.composite
def preference_rows(draw):
    """Rows of a random graph, often with one entry added, moved or dropped."""
    n = draw(st.integers(0, 8))
    rows = [[] for _ in range(n)]
    for u in range(n):
        for v in range(u + 1, n):
            if draw(st.booleans()):
                rows[u].append(v)
                rows[v].append(u)
    rows = [draw(st.permutations(row)) for row in rows]
    if n and draw(st.booleans()):
        row = rows[draw(st.integers(0, n - 1))]
        if row and draw(st.booleans()):
            row.pop(draw(st.integers(0, len(row) - 1)))
        else:
            row.insert(draw(st.integers(0, len(row))), draw(st.integers(-1, n)))
    return rows


@settings(max_examples=300, deadline=None)
@given(preference_rows())
def test_drawn_rows_pair_alike(rows):
    _assert_same_pairing(pref=rows)


def test_int32_ids_build_the_instance_of_int64_ids(monkeypatch):
    corpus = [inst for inst, _ in analysis_cases()]
    corpus += [_placed(TWO_TRIANGLES_PENDANTS, N - TWO_TRIANGLES_PENDANTS.n)]
    for inst in corpus:
        off, dv = inst.off.astype(np.int64), inst.dv.astype(np.int64)
        wide = RoommatesInstance(csr=(off, dv))
        narrow = RoommatesInstance(csr=(off, dv.astype(np.int32)))
        assert narrow._arrays.keys() == wide._arrays.keys()
        for k, a in narrow._arrays.items():
            b = wide._arrays[k]
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), k
        assert narrow == wide and hash(narrow) == hash(wide)
    # the ids given are copied, never frozen in place, in either index dtype
    off, dv = TWO_TRIANGLES.off.astype(np.int64), TWO_TRIANGLES.dv.astype(np.int64)
    for wide in (False, True):
        with monkeypatch.context() as patch:
            if wide:
                patch.setattr(model, "index_dtype", lambda n, entries: np.int64)
            inst = RoommatesInstance(csr=(off, dv))
        assert dv.flags.writeable and off.flags.writeable
        assert not any(np.shares_memory(a, x) for a in inst._arrays.values() for x in (off, dv))
    # an instance parsed through the word path views none of the token values
    tokenize, seen = formats._tokenize, []

    def recording(text):
        seen.append(tokenize(text))
        return seen[-1]

    monkeypatch.setattr(formats, "_tokenize", recording)
    inst = parse_instance(serialize_instance(generate_instance(60, "gnp", 0.3, seed=2)))
    (t,) = seen
    assert t.values.dtype == np.int32
    for k, a in inst._arrays.items():
        assert a.base is None and not np.shares_memory(a, t.values), k
    # a witness of int32 set nodes equals and hashes as one of int64 nodes
    sets = (np.array([0, 3]), np.array([4, 3, 5]))
    w32 = DualWitness(np.zeros(6, dtype=np.int64), csr=(sets[0], sets[1].astype(np.int32)))
    w64 = DualWitness(np.zeros(6, dtype=np.int64), csr=sets)
    assert w32.set_nodes.dtype == np.int32 and w32 == w64 and hash(w32) == hash(w64)


def test_int64_index_arrays_decide_alike(monkeypatch):
    # only n or 2|E| from 2^31 take int64; run that side on the digest corpus
    for module in (model, engine, auxgraph):
        monkeypatch.setattr(module, "index_dtype", lambda n, entries: np.int64)
    cases = analysis_cases.__wrapped__()  # built afresh, under the patch
    monkeypatch.setattr(test_certificate_digest, "analysis_cases", lambda: cases)
    dtypes = {a.dtype for inst, _ in cases for a in inst._arrays.values()}
    assert dtypes == {np.dtype(np.int64)}
    aux = build_aux(*cases[0])
    assert aux.graph.off.itemsize == aux.graph.dst.itemsize == 8
    assert aux.payload_array.dtype == np.asarray(aux.matching).dtype == np.int64
    test_certificate_digest.test_certificates_are_byte_identical()
    for inst, m in cases[::5]:
        for decide in (is_popular, is_fractional_popular):
            assert verify_certificate(inst, m, result_to_document(decide(inst, m))) is None


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
def test_weights_match_the_per_edge_weight(monkeypatch, dtype):
    cases = analysis_cases()
    if dtype is np.int64:
        monkeypatch.setattr(model, "index_dtype", lambda n, entries: np.int64)
        cases = analysis_cases.__wrapped__()  # built afresh, under the patch
    for inst, m in cases:
        arr = inst._arrays
        assert arr["eu"].dtype == dtype
        w = _weights(inst, m)
        assert w.dtype == np.int8
        pairs = zip(arr["eu"].tolist(), arr["ev"].tolist())
        assert w.tolist() == [edge_weight(inst, m, u, v) for u, v in pairs]


def test_instance_holds_the_seven_read_only_arrays(two_triangles_pendants):
    inst, m = two_triangles_pendants
    arr = inst._arrays
    assert set(arr) == {"off", "dv", "keys", "eu", "ev", "pu", "pv"}
    assert all(not a.flags.writeable for a in arr.values())
    assert arr["keys"].dtype == np.int64
    assert {arr[k].dtype for k in arr if k != "keys"} == {np.dtype(np.int32)}
    aux = build_aux(inst, m)
    assert aux.payload_array.dtype == np.asarray(aux.matching).dtype == np.int32


def test_graph_views_its_neighbor_buffer():
    g = Graph.from_edges(4, [(0, 1), (2, 1), (3, 0)])
    src, dst = edge_arrays(g)
    assert np.shares_memory(dst, np.frombuffer(g.nbr, dtype=dst.dtype))
    assert not dst.flags.writeable and src.dtype == dst.dtype == np.int32
    for n in (0, 3):
        g = Graph.from_edges(n, [])
        src, dst = edge_arrays(g)
        assert (src.size, dst.size, list(g.off), g.edge_count()) == (0, 0, [0] * (n + 1), 0)
    empty = RoommatesInstance(())
    assert empty.m == 0 and set(empty._arrays) == {"off", "dv", "keys", "eu", "ev", "pu", "pv"}
    isolated = RoommatesInstance(((), ()))
    res = is_popular(isolated, Matching.empty(2))
    assert isinstance(res, Popular)


def test_narrow_and_wide_keys_build_the_same_csr(monkeypatch):
    # keys (src << s) | dst, s = bit_length(n - 1), are int32 up to n = 2^15
    top = 2**15
    assert index_dtype(top << 15, 0) is np.int32
    assert index_dtype((top + 1) << 16, 0) is np.int64
    for n in (top, top + 1):
        pairs = [(n - 1, n - 2), (n - 2, n - 1), (0, n - 1), (n - 1, 0), (n - 1, 0)]
        pairs += [(1, n - 3), (n - 3, 1), (n - 3, n - 1), (0, 1), (n - 2, 0)]
        rows = {}
        for u, v in pairs:
            rows.setdefault(u, set()).add(v)
            rows.setdefault(v, set()).add(u)
        off = np.cumsum([0] + [len(rows.get(v, ())) for v in range(n)]).tolist()
        nbr = [w for v in sorted(rows) for w in sorted(rows[v])]
        graphs = [Graph.from_edges(n, pairs), Graph.from_edges(n, np.array(pairs, dtype=np.int32))]
        with monkeypatch.context() as patch:  # the wide keys at any n
            patch.setattr(engine, "index_dtype", lambda n, entries: np.int64)
            graphs.append(Graph.from_edges(n, pairs))
        assert graphs[-1].nbr.itemsize == 8
        for g in graphs:
            assert (list(g.off), list(g.nbr)) == (off, nbr)


def test_ids_beyond_int32_are_named_before_any_narrowing():
    for edges in ([(0, 2**32 + 1)], np.array([(0, 2**32 + 1)])):
        with pytest.raises(ValueError, match=r"^edge \(0, 4294967297\) out of range$"):
            Graph.from_edges(3, edges)
    with pytest.raises(ValueError, match=r"^edge \(2147483648, 1\) out of range$"):
        Graph.from_edges(2**15, [(0, 1), (2**31, 1)])


def test_arrays_fit_the_memory_budget():
    # a deterministic gate: bytes held, not time
    inst = parse_instance(serialize_instance(generate_instance(632, "gnp", 0.5, seed=1)))
    e, n = inst.m, inst.n
    assert 90_000 < e < 110_000
    arrays = inst._arrays.values()
    assert all(a.base is None for a in arrays)  # no array keeps a larger buffer alive
    assert sum(a.nbytes for a in arrays) <= 32 * e + 8 * (n + 1)
    aux = build_aux(inst, random_maximal_matching(inst, seed=1))
    k = aux.graph.n
    src, dst = edge_arrays(aux.graph)
    edges = np.column_stack((src, dst))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        g = Graph.from_edges(k, edges)
        held, peak = (b - before for b in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    # the CSR once, 4 bytes an entry: no list copy, no second numpy copy
    d = 2 * g.edge_count()  # directed keys, here also the rows of edges
    assert g.edge_count() == aux.graph.edge_count() > 1000 and len(edges) == d
    assert held <= 4 * (k + 1 + d) + 4096
    # k < 2^15, so the keys are int32: 4 bytes each. The peak is while the
    # offsets are counted: the keys, their src (key >> s) and bincount's
    # 8-byte copy of it, 16 bytes a key, with 8-byte counts and 4-byte
    # offsets per vertex. The input is checked without a copy. Int64 keys
    # of both directions alone took 16 bytes a row, and their int64 copy of
    # the input 16 more.
    assert peak <= 16 * d + 12 * (k + 1) + 16384

