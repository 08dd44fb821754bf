"""The sparse maintenance messages are exact: a presence mask plus the
values it flags tells the receiver everything the dense vector did.

Covers the mask helpers, the extrema delta reply, the sparse bucket
summary and the sparse push-sum share — each against the dense merge it
replaced — and what each form costs against the dense layout, in the
modelled ``size_bytes`` and in the encoded frame."""

import random
from dataclasses import dataclass
from typing import Tuple

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from repro.common.codec import BinaryCodec
from repro.common.ids import NodeId
from repro.common.messages import Message, mask_indices, pack_mask
from repro.core.storage import SIZE_ESTIMATOR_K
from repro.epidemic.antientropy import AntiEntropy, AntiEntropyStore, BucketDigestMessage
from repro.estimation import ExtremaExchange, ExtremaReply, ExtremaSizeEstimator
from repro.sim.metrics import Metrics
from repro.store.memtable import DEFAULT_BUCKETS

from tests.test_properties import _cells, _PushSumWorld


class _Host:
    """Scripted host: records sends, arms no timer."""

    def __init__(self):
        self.node_id = NodeId(0)
        self.now = 0.0
        self.rng = random.Random(5)
        self.metrics = Metrics()
        self.sent = []

    def send(self, dst, protocol, message):
        self.sent.append(message)

    def set_timer(self, delay, callback):
        return None


def _bound(protocol):
    host = _Host()
    protocol.bind(host)
    return protocol, host


class TestMask:
    @given(st.lists(st.booleans(), max_size=80))
    def test_round_trip(self, flags):
        mask = pack_mask(flags)
        assert len(mask) == (len(flags) + 7) // 8
        assert mask_indices(mask, len(flags)) == [i for i, flag in enumerate(flags) if flag]

    @given(st.lists(st.booleans(), min_size=1, max_size=80))
    def test_rejects_a_mask_too_short_or_too_long(self, flags):
        mask = pack_mask(flags)
        for wrong in (mask[:-1], mask + b"\x00", b"\x00" + mask):
            assert mask_indices(wrong, len(flags)) is None

    @given(st.integers(1, 80), st.data())
    def test_rejects_bits_past_the_end(self, n, data):
        assume(n % 8)
        width = (n + 7) // 8
        past = data.draw(st.integers(n, 8 * width - 1))
        flags = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
        mask = (int.from_bytes(pack_mask(flags), "little") | 1 << past).to_bytes(width, "little")
        assert mask_indices(mask, n) is None

    def test_rejects_what_is_not_bytes(self):
        for wrong in ("\x01", [1], None, bytearray(b"\x01")):
            assert mask_indices(wrong, 8) is None


_minimum = st.floats(min_value=1e-6, max_value=5.0)


def _estimator(minima):
    size, host = _bound(ExtremaSizeEstimator(k=len(minima)))
    size._minima = list(minima)
    size._estimate = size._compute_estimate()
    return size, host


class TestExtremaDeltaReply:
    @given(st.integers(3, 20).flatmap(lambda k: st.tuples(
        st.lists(_minimum, min_size=k, max_size=k),               # the replier's minima
        st.lists(_minimum, min_size=k, max_size=k),               # the push
        st.lists(st.none() | _minimum, min_size=k, max_size=k),   # where the requester fell since
    )))
    @example(([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], [None, 0.5, None]))  # nothing lower: no reply
    def test_delta_merge_equals_the_full_merge(self, vectors):
        held, pushed, falls = vectors
        replier, replier_host = _estimator(held)
        replier.on_message(NodeId(1), ExtremaExchange(0, tuple(pushed)))
        full = replier._minima  # what the dense reply carried
        lower = [m < p for m, p in zip(full, pushed)]
        current = [p if fall is None else min(p, fall) for p, fall in zip(pushed, falls)]
        requester, _ = _estimator(current)
        if any(lower):
            (reply,) = replier_host.sent
            assert reply == ExtremaReply(0, pack_mask(lower), tuple(m for m, f in zip(full, lower) if f))
            requester.on_message(NodeId(0), reply)
        else:
            # The dense reply would have left the requester as it was.
            assert replier_host.sent == []
            assert requester._minima == current
        assert requester._minima == [min(c, m) for c, m in zip(current, full)]
        dense, _ = _estimator(current)
        dense.on_message(NodeId(0), ExtremaReply(0, pack_mask([True] * len(full)), tuple(full)))
        assert requester._minima == dense._minima and requester.estimate() == dense.estimate()


class _Summaries(AntiEntropyStore):
    """A store that is nothing but its bucket summaries."""

    def __init__(self, summaries):
        self.summaries = tuple(summaries)

    def bucket_count(self):
        return len(self.summaries)

    def bucket_summaries(self):
        return self.summaries

    def bucket_digest(self, buckets):
        return {}

    def digest(self):
        return {}

    def fetch(self, item_ids):
        return []

    def apply(self, items):
        return 0

    def fetch_newer(self, entries):
        return [], 0


_summary = st.one_of(
    st.just((0, 0)),                                  # empty
    st.tuples(st.just(0), st.integers(1, 6)),         # xors cancelled to 0, count above 0
    st.tuples(st.integers(1, 2**64 - 1), st.integers(0, 6)),
)


def _sparse_summary(summaries):
    sender, host = _bound(AntiEntropy(_Summaries(summaries)))
    sender.initiate_exchange(NodeId(1))
    (message,) = host.sent
    return message


class TestSparseBucketSummary:
    @given(st.lists(st.tuples(_summary, _summary, st.booleans()), min_size=1, max_size=40))
    def test_same_differing_buckets_as_the_dense_summary(self, rows):
        ours = [mine for mine, _, _ in rows]
        theirs = [other if moved else mine for mine, other, moved in rows]
        message = _sparse_summary(theirs)
        assert list(message.summaries) == [s for s in theirs if s != (0, 0)]
        receiver, host = _bound(AntiEntropy(_Summaries(ours)))
        receiver.on_message(NodeId(2), message)
        digests = [m for m in host.sent if isinstance(m, BucketDigestMessage)]
        differing = tuple(i for i, (a, b) in enumerate(zip(ours, theirs)) if a != b)
        assert (digests[0].buckets if digests else ()) == differing
        assert host.metrics.counter_value("antientropy.bucket_count_mismatch") == 0


_cell_or_zero = st.just(0.0) | _cells


class TestSparsePushSumShare:
    @given(st.lists(st.tuples(_cell_or_zero, _cell_or_zero), min_size=1, max_size=12))
    def test_applying_the_share_equals_the_dense_sum(self, pairs):
        world = _PushSumWorld([{"x": [a for a, _ in pairs]}, {"x": [b for _, b in pairs]}])
        world.step("round", 0, 1)  # node 0 halves its mass and shares with node 1
        ((_, _, share),) = world.in_flight
        sent = list(world.nodes[0]._vector)  # the dense share
        assert 0.0 not in share.parts and world.dense(share) == sent
        before = list(world.nodes[1]._vector)
        world.step("deliver", 0, 0)
        assert world.nodes[1]._vector == [a + b for a, b in zip(before, sent)]


# --- what each form costs against the dense layout ---------------------


@dataclass(frozen=True)
class _DenseSummary(Message):
    bucket_count: int
    summaries: Tuple[Tuple[int, int], ...]


@dataclass(frozen=True)
class _DenseShare(Message):
    instance: str
    epoch: int
    parts: Tuple[float, ...]
    weight_part: float


@dataclass(frozen=True)
class _DenseReply(Message):
    epoch: int
    minima: Tuple[float, ...]
    is_reply: bool


# The dense layouts under the names they had on the wire. Unregistered:
# they are only sized and encoded, never decoded.
_DenseSummary.__name__ = "BucketSummaryMessage"
_DenseShare.__name__ = "PushSumShare"
_DenseReply.__name__ = "ExtremaExchange"


def _frame(message):
    return len(BinaryCodec().encode(NodeId(7, "127.0.0.1:9007"), "p", message))


def _summary_pair(full):
    rng = random.Random(15)
    summaries = [(rng.getrandbits(64), rng.randint(1, 9)) if full else (0, 0)
                 for _ in range(DEFAULT_BUCKETS)]
    return _sparse_summary(summaries), _DenseSummary(DEFAULT_BUCKETS, tuple(summaries)), "present"


def _share_pair(full):
    rng = random.Random(15)
    # One index's layout: count, sum, cnt and 32 histogram bins.
    cells = [float(rng.randint(1, 99)) if full else 0.0 for _ in range(35)]
    world = _PushSumWorld([{"x": cells}, {"x": cells}])
    world.step("round", 0, 1)
    ((_, _, share),) = world.in_flight
    return share, _DenseShare("p", 0, tuple(world.nodes[0]._vector), share.weight_part), "nonzero"


def _reply_pair(full):
    rng = random.Random(15)
    held = [rng.uniform(0.1, 1.0) for _ in range(SIZE_ESTIMATOR_K)]
    pushed = tuple(m + 1.0 if full else m for m in held)
    replier, host = _estimator(held)
    replier.on_message(NodeId(1), ExtremaExchange(0, pushed))
    dense = _DenseReply(0, tuple(replier._minima), True)
    if full:
        (reply,) = host.sent
        return reply, dense, "lower"
    # Nothing held is lower than the push: the replier sends nothing, and
    # the dense reply would have left the requester as it was.
    assert host.sent == []
    requester, _ = _estimator(pushed)
    requester.on_message(NodeId(0), ExtremaReply(0, pack_mask([True] * len(held)), dense.minima))
    assert requester._minima == list(pushed)
    return None, dense, "lower"


@pytest.mark.parametrize("pair", [_summary_pair, _share_pair, _reply_pair],
                         ids=["bucket-summary", "push-sum-share", "extrema-reply"])
class TestSparseSize:
    """A sparse form costs at most its presence mask more than the dense
    layout when every entry is present — ``ceil(n / 8)`` bytes plus the
    mask field's own overhead (its name in the model; its tag and
    length in the frame) — and strictly less when none is."""

    def test_all_present_costs_at_most_the_mask(self, pair):
        sparse, dense, mask_field = pair(True)
        n = len(dense.summaries if isinstance(dense, _DenseSummary) else
                dense.parts if isinstance(dense, _DenseShare) else dense.minima)
        assert mask_indices(getattr(sparse, mask_field), n) == list(range(n))
        width = (n + 7) // 8
        assert sparse.size_bytes() - dense.size_bytes() <= len(mask_field) + width
        assert _frame(sparse) - _frame(dense) <= 2 + width

    def test_none_present_costs_less(self, pair):
        sparse, dense, mask_field = pair(False)
        if sparse is None:  # not sent at all
            assert dense.size_bytes() > 0 and _frame(dense) > 0
            return
        assert not any(getattr(sparse, mask_field))
        assert sparse.size_bytes() < dense.size_bytes()
        assert _frame(sparse) < _frame(dense)
