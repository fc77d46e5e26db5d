"""``ACTCore.decode_entry``'s memo, held to the decode it memoizes.

``ACTCore._decode`` is the decode as it shipped before the memo: every
distinct entry of two real indexes at three fanouts, and generated
entries of all four tags, must decode to an equal result through the
memo, to the *identical* object the second time, and grow the memo by
exactly one. Two mutants — each the shipped source with one thing
replaced — show the suite notices the bugs a memo invites: a key that
drops the tag bits, and a memo that outlives its core.
"""

import inspect
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ACTIndex
from repro.act import entry as codec
from repro.act.core import _MISS, ACTCore, QueryResult
from repro.act.lookup_table import encode_refs
from repro.baselines import ScanJoin

FANOUTS = (4, 16, 256)


def _mutant(function, *swaps):
    """``function`` recompiled from its source with every ``(old, new)``
    swap applied (each ``old`` must occur exactly once)."""
    source = textwrap.dedent(inspect.getsource(function))
    for old, new in swaps:
        assert source.count(old) == 1, old
        source = source.replace(old, new)
    namespace = dict(function.__globals__)
    exec(source, namespace)
    return namespace[function.__name__]


def _fresh(core):
    """``core``'s arrays behind a new, empty memo."""
    return ACTCore(core.nodes, core.roots, core.lookup_table, core.fanout,
                   num_entries=core.num_entries)


def assert_memo_faithful(core, entries, decode_entry=ACTCore.decode_entry):
    """Decode ``entries`` through the memo of a fresh copy of ``core``."""
    core = _fresh(core)
    for count, entry in enumerate(entries, start=1):
        got = decode_entry(core, entry)
        assert got == core._decode(entry), hex(entry)
        assert decode_entry(core, entry) is got
        assert len(core._decoded) == count
        if entry & 0b11 == codec.TAG_POINTER:
            assert got is _MISS


def assert_memos_apart(core_a, core_b):
    """Two cores may give one entry value two meanings: an offset is
    into each core's own lookup table."""
    for core in (core_a, core_b):
        for start in core.lookup_table.set_starts.tolist():
            entry = codec.make_offset(start)
            assert core.decode_entry(entry) == core._decode(entry)


@pytest.fixture(scope="module", params=["nyc", "overlap"])
def polygons(request):
    return request.getfixturevalue(f"{request.param}_polygons")


@pytest.fixture(scope="module", params=FANOUTS)
def index(request, polygons):
    return ACTIndex.build(polygons, precision_meters=300.0,
                          fanout=request.param)


def _distinct_entries(core):
    return np.unique(core.cell_arrays()[1]).tolist()


def test_every_indexed_entry_decodes_once(index):
    entries = _distinct_entries(index.core)
    tags = {entry & 0b11 for entry in entries}
    assert tags == {codec.TAG_PAYLOAD_1, codec.TAG_PAYLOAD_2,
                    codec.TAG_OFFSET}
    # a miss and a pointer into the pool are entries a caller may hand in
    assert_memo_faithful(
        index.core, [codec.SENTINEL, codec.make_pointer(0)] + entries)


ref_rows = st.lists(
    st.lists(st.integers(0, 2 * codec.MAX_POLYGON_ID + 1), max_size=6),
    max_size=12)


@settings(max_examples=200, deadline=None)
@given(ref_rows, st.lists(st.integers(0, 1 << 20), max_size=4))
def test_generated_entries_of_every_tag(rows, pointers):
    indptr = np.cumsum([0] + [len(row) for row in rows])
    refs = np.asarray([ref for row in rows for ref in row], dtype=np.int64)
    entries, words = encode_refs(indptr, refs)
    core = ACTCore.from_cells(np.empty(0, dtype=np.uint64),
                              np.empty(0, dtype=np.uint64), words, 256)
    distinct = dict.fromkeys(
        entries.tolist() + [codec.make_pointer(p) for p in pointers])
    assert_memo_faithful(core, list(distinct))


def test_memo_is_per_core(nyc_index, overlap_index):
    assert_memos_apart(_fresh(nyc_index.core), _fresh(overlap_index.core))


def test_answers_unchanged_against_scan(index, polygons):
    """``query`` and ``query_batch`` through the memo, on points biased
    to polygon boundaries, against the brute-force oracle."""
    rng = np.random.default_rng(23)
    vertices = np.concatenate(
        [np.asarray(polygon.shell.vertices) for polygon in polygons])
    picks = vertices[rng.integers(0, len(vertices), 2000)]
    # half within a few cells of a vertex, half a few hundred metres off
    spread = np.where(np.arange(2000) % 2, 3e-3, 2e-4)[:, None]
    points = picks + rng.normal(0.0, 1.0, picks.shape) * spread
    lngs, lats = points[:, 0].copy(), points[:, 1].copy()
    truth = ScanJoin(polygons).membership_matrix(lngs, lats)
    batch = index.query_batch(lngs, lats)
    boundary = 0
    for k, result in enumerate(batch):
        assert index.query(lngs[k], lats[k]) is result
        inside = set(np.flatnonzero(truth[k]).tolist())
        assert set(result.true_hits) <= inside
        assert inside <= set(result.all_ids)
        exact = result.true_hits + tuple(
            pid for pid in result.candidates if truth[k, pid])
        assert sorted(exact) == sorted(inside)
        boundary += bool(result.candidates)
    assert boundary > 200, "the points were not boundary-biased"


# ----------------------------------------------------------------------
# Seeded mutants: the suite must tell a wrong memo from the right one
# ----------------------------------------------------------------------
def test_mutant_key_without_tag_is_killed(overlap_index):
    mutant = _mutant(ACTCore.decode_entry,
                     ("_decoded.get(entry)", "_decoded.get(entry >> 2)"),
                     ("_decoded[entry] =", "_decoded[entry >> 2] ="))
    entries = _distinct_entries(overlap_index.core)
    assert_memo_faithful(overlap_index.core, entries[:1], mutant)  # live
    with pytest.raises(AssertionError):
        assert_memo_faithful(overlap_index.core, entries, mutant)


def test_mutant_memo_shared_across_cores_is_killed(
        nyc_index, overlap_index, monkeypatch):
    shared = {}
    mutant = _mutant(ACTCore.__init__,
                     ("self._decoded: Dict[int, QueryResult] = {}",
                      "self._decoded = _shared"))
    mutant.__globals__["_shared"] = shared
    monkeypatch.setattr(ACTCore, "__init__", mutant)
    cores = _fresh(nyc_index.core), _fresh(overlap_index.core)
    assert cores[0]._decoded is cores[1]._decoded is shared
    assert_memos_apart(cores[0], cores[0])  # a live mutant
    with pytest.raises(AssertionError):
        assert_memos_apart(*cores)


def test_query_result_is_immutable():
    """What lets one decoded result be handed to every caller."""
    result = QueryResult((1,), (2,))
    with pytest.raises(AttributeError):
        result.true_hits = ()
