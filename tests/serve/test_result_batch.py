"""``ResultBatch`` and the codec built on it vs the per-result loops.

``_legacy_results`` is the code the serving path ran while it traded in
``List[QueryResult]``. Everything observable must agree: frames byte
for byte, decoded answers, the exact-mode refinement including each
point's id order, the router's gather for any split of a batch into
legs. The second half feeds ``decode_results`` damaged payloads: the
answer is a non-fatal ``FrameError`` or a batch that lies inside the
buffer, never anything else.
"""

import socket
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import _legacy_results as legacy
from repro.act.core import QueryResult, ResultBatch
from repro.serve import ACTService, binproto
from repro.serve.router import gather

_IDS = st.lists(st.integers(-(1 << 63), (1 << 63) - 1), max_size=4).map(tuple)
_RESULT = st.builds(QueryResult, _IDS, _IDS)
_RESULTS = st.lists(_RESULT, max_size=40)

#: Misses, true-only, candidate-only and both, twice over.
MIXED = [QueryResult((), ()), QueryResult((1, 2), ()), QueryResult((), (7,)),
         QueryResult((5,), (0, 3, 9)), QueryResult((), ()),
         QueryResult((4,), ()), QueryResult((), (8, 6)),
         QueryResult((2, 1), (1,))]
ALL_MISS = [QueryResult((), ())] * 5


def _payload(frame: bytes) -> bytes:
    return frame[binproto.HEADER_SIZE:]


def _columns(batch: ResultBatch):
    return [getattr(batch, name) for name in ResultBatch.__slots__]


# ----------------------------------------------------------------------
# The lazy per-point view
# ----------------------------------------------------------------------
class TestSequenceView:
    def test_reads_as_the_list_it_stands_for(self):
        batch = ResultBatch.from_results(MIXED)
        assert len(batch) == len(MIXED)
        assert list(batch) == MIXED
        assert [batch[k] for k in range(len(MIXED))] == MIXED
        assert batch[-1] == MIXED[-1]
        assert batch[2:5] == MIXED[2:5] and batch[::-2] == MIXED[::-2]
        assert batch == MIXED and MIXED == batch
        assert batch == tuple(MIXED)
        assert batch == ResultBatch.from_results(MIXED)
        assert batch[3].all_ids == (5, 0, 3, 9) and batch[3].is_hit
        assert MIXED[1] in batch and batch.index(MIXED[2]) == 2

    def test_unequal(self):
        batch = ResultBatch.from_results(MIXED)
        assert batch != MIXED[:-1]
        assert batch != MIXED[::-1]
        assert batch != ResultBatch.from_results(ALL_MISS)
        # same flat ids, split differently between the points
        assert (ResultBatch.from_results([QueryResult((1,), ()),
                                          QueryResult((2,), ())])
                != [QueryResult((1, 2), ()), QueryResult((), ())])
        assert batch != "results" and batch != None  # noqa: E711

    @pytest.mark.parametrize("k", [8, -9, 100])
    def test_index_out_of_range(self, k):
        with pytest.raises(IndexError):
            ResultBatch.from_results(MIXED)[k]

    def test_empty(self):
        batch = ResultBatch.from_results([])
        assert len(batch) == 0 and list(batch) == [] and batch == []
        assert ResultBatch.concat([]) == []
        assert batch.take([]) == [] and batch.refined(np.zeros(0, bool)) == []

    def test_from_results_keeps_a_batch(self):
        batch = ResultBatch.from_results(MIXED)
        assert ResultBatch.from_results(batch) is batch

    def test_immutable(self):
        batch = ResultBatch.from_results(MIXED)
        for column in _columns(batch):
            with pytest.raises(ValueError):
                column[...] = 0
        with pytest.raises(AttributeError):
            batch.true_ids = np.zeros(3, dtype=np.int64)
        with pytest.raises(TypeError):
            hash(batch)

    def test_columns_are_the_wire_dtypes(self):
        batch = ResultBatch([1, 0], [0, 2], [9], [4, 5])
        assert [c.dtype.str for c in _columns(batch)] == [
            "<u4", "<u4", "<i8", "<i8"]
        assert batch == [QueryResult((9,), ()), QueryResult((), (4, 5))]


# ----------------------------------------------------------------------
# Differential: codec
# ----------------------------------------------------------------------
class TestCodecDifferential:
    #: ``encode_results(MIXED[:4], request_id=11)`` as protocol version 1
    #: has always put it on the wire.
    GOLDEN = bytes.fromhex(
        "4143544201820000" "0b00000000000000" "6800000000000000"
        "04000000" "03000000" "04000000" "00000000"
        "00000000" "02000000" "00000000" "01000000"
        "00000000" "00000000" "01000000" "03000000"
        "0100000000000000" "0200000000000000" "0500000000000000"
        "0700000000000000" "0000000000000000" "0300000000000000"
        "0900000000000000")

    def test_golden_frame(self):
        assert binproto.VERSION == 1
        assert binproto.encode_results(MIXED[:4], request_id=11) \
            == self.GOLDEN
        assert binproto.decode_results(_payload(self.GOLDEN)) == MIXED[:4]

    @given(_RESULTS, st.integers(0, (1 << 64) - 1))
    @example(ALL_MISS, 0)
    @example([], 7)
    def test_frames_are_byte_identical(self, results, request_id):
        want = legacy.encode_results(results, request_id)
        assert binproto.encode_results(results, request_id) == want
        assert binproto.encode_results(tuple(results), request_id) == want
        assert binproto.encode_results(
            ResultBatch.from_results(results), request_id) == want

    @given(_RESULTS)
    def test_decode_inverts_encode(self, results):
        payload = _payload(binproto.encode_results(results))
        decoded = binproto.decode_results(payload)
        assert isinstance(decoded, ResultBatch)
        assert decoded == results
        assert list(decoded) == legacy.decode_results(payload)
        # and a decoded batch re-encodes to the frame it came from
        assert _payload(binproto.encode_results(decoded)) == payload


# ----------------------------------------------------------------------
# Differential: refinement and gather
# ----------------------------------------------------------------------
class TestRefineDifferential:
    @given(_RESULTS, st.lists(st.booleans(), min_size=160, max_size=160))
    @example(ALL_MISS, [])
    @example(MIXED, [True, False] * 4)
    @example(MIXED, [False] * 7)
    def test_refined_matches_the_list_refine(self, results, verdicts):
        pairs = sum(len(r.candidates) for r in results)
        inside = np.asarray(verdicts[:pairs], dtype=bool)
        seen = []

        def refine_pairs(point_idx, polygon_ids, lngs, lats):
            seen.append((point_idx, polygon_ids))
            return inside

        want = legacy.refine_batch(refine_pairs, results, None, None)
        batch = ResultBatch.from_results(results)
        point_idx, polygon_ids = batch.candidate_pairs()
        if seen:  # the list refine skips the engine when no pair exists
            assert np.array_equal(point_idx, seen[0][0])
            assert np.array_equal(polygon_ids, seen[0][1])
        got = batch.refined(inside)
        # per-point id order is part of the contract: true hits, then
        # the surviving candidates in candidate order
        assert list(got) == want
        assert not got.cand_ids.shape[0] and not got.cand_counts.any()

    def test_service_refine_is_the_list_refine(self, nyc_index,
                                               query_points):
        lngs, lats = query_points
        with ACTService() as service:
            service.registry.register_index("nyc", nyc_index)
            approx = service.query_batch("nyc", lngs, lats)
            exact = service.query_batch("nyc", lngs, lats, exact=True)
        assert approx.cand_ids.shape[0], "fixture lost its candidates"
        assert list(exact) == legacy.refine_batch(
            nyc_index.executor.refine_pairs, list(approx), lngs, lats)


class TestGatherDifferential:
    @given(st.lists(st.tuples(_RESULT, st.integers(0, 3)), max_size=40),
           st.permutations(range(4)))
    @example([(r, 2) for r in ALL_MISS], [0, 1, 2, 3])
    @example([], [3, 2, 1, 0])
    def test_concat_take_matches_the_list_scatter(self, routed, owners):
        results = [r for r, _ in routed]
        slots = np.asarray([s for _, s in routed], dtype=np.int64)
        # one leg per owner, in any owner order, empty legs included
        positions = [np.nonzero(slots == owner)[0] for owner in owners]
        want = legacy.scatter(len(results), [
            (pos, [results[k] for k in pos.tolist()]) for pos in positions])
        assert want == results
        got = gather(len(results), [
            (pos, ResultBatch.from_results([results[k] for k in pos.tolist()]))
            for pos in positions])
        assert isinstance(got, ResultBatch)
        assert list(got) == want

    @given(_RESULTS, st.data())
    def test_take(self, results, data):
        positions = data.draw(st.lists(
            st.integers(0, max(len(results) - 1, 0)),
            max_size=0 if not results else 30))
        assert list(ResultBatch.from_results(results).take(positions)) \
            == [results[k] for k in positions]


# ----------------------------------------------------------------------
# Adversarial: damaged OP_RESULTS payloads
# ----------------------------------------------------------------------
def _decode_or_refuse(payload):
    """Decode ``payload``; a refusal must be the per-frame error, an
    answer must lie inside the buffer and add up."""
    try:
        batch = binproto.decode_results(payload)
    except binproto.FrameError as exc:
        assert not exc.fatal and exc.status == binproto.STATUS_BAD_REQUEST
        return None
    n, total_true, total_cand, _ = binproto._RES.unpack_from(payload, 0)
    assert len(batch) == n
    assert batch.true_ids.shape[0] == total_true == batch.true_counts.sum()
    assert batch.cand_ids.shape[0] == total_cand == batch.cand_counts.sum()
    assert sum(c.nbytes for c in _columns(batch)) \
        == len(payload) - binproto._RES.size
    for result in batch:  # every slice resolves
        assert len(result.all_ids) <= total_true + total_cand
    return batch


class TestDamagedPayloads:
    PAYLOAD = _payload(binproto.encode_results(MIXED))

    def test_every_truncation_is_refused(self):
        for cut in range(len(self.PAYLOAD)):
            assert _decode_or_refuse(self.PAYLOAD[:cut]) is None, cut
        assert _decode_or_refuse(self.PAYLOAD + b"\x00") is None

    @pytest.mark.parametrize("field", [0, 1, 2])
    @pytest.mark.parametrize("value", [0, 1, 9, 1 << 20, 0xFFFFFFFF])
    def test_inflated_header_allocates_nothing(self, field, value):
        payload = bytearray(self.PAYLOAD)
        struct.pack_into("<I", payload, 4 * field, value)
        tracemalloc.start()
        try:
            assert _decode_or_refuse(bytes(payload)) is None
            assert tracemalloc.get_traced_memory()[1] < 1 << 16
        finally:
            tracemalloc.stop()

    def test_counts_summing_past_the_id_columns(self):
        payload = bytearray(self.PAYLOAD)
        # one point claims every id of the column and then some
        struct.pack_into("<I", payload, binproto._RES.size, 0xFFFFFFFF)
        with pytest.raises(binproto.FrameError, match="disagree"):
            binproto.decode_results(bytes(payload))
        # counts moved between points keep the total: a valid frame
        # whose slices still end inside the column
        payload = bytearray(self.PAYLOAD)
        struct.pack_into("<II", payload, binproto._RES.size, 2, 0)
        batch = _decode_or_refuse(bytes(payload))
        assert batch[0].true_hits == (1, 2) and batch[1].true_hits == ()

    def test_zero_point_frames(self):
        empty = binproto._RES.pack(0, 0, 0, 0)
        assert _decode_or_refuse(empty) == []
        assert _decode_or_refuse(binproto._RES.pack(0, 1, 0, 0)) is None
        assert _decode_or_refuse(empty + bytes(8)) is None
        assert _decode_or_refuse(
            binproto._RES.pack(0, 1, 0, 0) + bytes(8)) is None

    @settings(max_examples=300)
    @given(_RESULTS, st.data())
    def test_mutated_payloads(self, results, data):
        payload = bytearray(_payload(binproto.encode_results(results)))
        for _ in range(data.draw(st.integers(1, 4))):
            at = data.draw(st.integers(0, len(payload) - 1))
            payload[at] = data.draw(st.integers(0, 255))
        cut = data.draw(st.integers(0, len(payload)))
        if data.draw(st.booleans()):
            del payload[cut:]
        _decode_or_refuse(bytes(payload))


# ----------------------------------------------------------------------
# Aliasing
# ----------------------------------------------------------------------
class TestAliasing:
    def test_decoded_columns_borrow_the_payload(self):
        """``decode_results`` copies nothing: its columns are read-only
        views of the buffer it was given. Over a mutable buffer the
        batch follows the buffer — which is why ``Client`` hands the
        decoder ``bytes``."""
        buffer = bytearray(_payload(binproto.encode_results(MIXED)))
        batch = binproto.decode_results(buffer)
        assert batch == MIXED
        for column in _columns(batch):
            assert not column.flags.writeable and not column.flags.owndata
        ids_at = binproto._RES.size + 8 * len(MIXED)
        struct.pack_into("<q", buffer, ids_at, 41)
        assert batch[1].true_hits == (41, 2)
        # an immutable payload cannot move under the batch
        frozen = binproto.decode_results(bytes(buffer))
        struct.pack_into("<q", buffer, ids_at, 1)
        assert frozen[1].true_hits == (41, 2)

    def test_client_decodes_immutable_bytes(self, monkeypatch):
        ours, theirs = socket.socketpair()
        monkeypatch.setattr(binproto.Client, "_connect",
                            lambda self, timeout: ours)
        with binproto.Client("unused", 0, retries=0) as client, theirs:
            theirs.sendall(binproto.encode_results(MIXED, request_id=3) * 2)
            _, _, payload = client.recv()
            assert type(payload) is bytes
            request_id, batch = client.recv_results()
            assert request_id == 3 and batch == MIXED
            assert isinstance(batch, ResultBatch)
