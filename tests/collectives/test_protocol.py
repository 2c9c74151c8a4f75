"""Unit + property tests for the collective protocol bookkeeping."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.collectives import CollectiveGroupState, CollectiveSendRecord, make_schedule
from repro.collectives.algorithms import Phase


PHASES = (
    Phase(sends=(1,), recvs=(3,)),
    Phase(sends=(2,), recvs=(2,)),
    Phase(sends=(3,), recvs=(1,)),
)


class TestCollectiveSendRecord:
    def test_starts_empty(self):
        rec = CollectiveSendRecord(0, PHASES, created_at=0.0)
        assert rec.sent_bits == 0
        assert rec.total_slots == 3
        assert not rec.all_sent

    def test_mark_and_query(self):
        rec = CollectiveSendRecord(0, PHASES, created_at=0.0)
        rec.mark_sent(0, 1)
        assert rec.was_sent(0, 1)
        assert not rec.was_sent(1, 2)

    def test_all_sent(self):
        rec = CollectiveSendRecord(0, PHASES, created_at=0.0)
        rec.mark_sent(0, 1)
        rec.mark_sent(1, 2)
        assert not rec.all_sent
        rec.mark_sent(2, 3)
        assert rec.all_sent

    def test_was_sent_unknown_slot_false(self):
        rec = CollectiveSendRecord(0, PHASES, created_at=0.0)
        assert rec.was_sent(7, 9) is False

    def test_mark_unknown_slot_raises(self):
        rec = CollectiveSendRecord(0, PHASES, created_at=0.0)
        with pytest.raises(KeyError):
            rec.mark_sent(7, 9)

    def test_single_record_replaces_per_packet_records(self):
        """One record regardless of message count (§6.3)."""
        sched = make_schedule("dissemination", 64)
        rec = CollectiveSendRecord(0, sched.phases(0), created_at=0.0)
        assert rec.total_slots == 6  # log2(64) sends, one bit each


class TestCollectiveGroupState:
    def test_initial_state(self):
        st_ = CollectiveGroupState(5, PHASES, created_at=1.0)
        assert st_.seq == 5
        assert st_.phase == 0
        assert not st_.started and not st_.complete

    def test_mark_arrived(self):
        st_ = CollectiveGroupState(0, PHASES, created_at=0.0)
        assert st_.mark_arrived(3) is True
        assert st_.has_arrived(3)
        assert not st_.has_arrived(2)

    def test_unexpected_sender_rejected(self):
        st_ = CollectiveGroupState(0, PHASES, created_at=0.0)
        assert st_.mark_arrived(9) is False
        with pytest.raises(KeyError):
            st_.has_arrived(9)

    def test_duplicate_arrival_idempotent(self):
        st_ = CollectiveGroupState(0, PHASES, created_at=0.0)
        st_.mark_arrived(3)
        bits = st_.arrived_bits
        st_.mark_arrived(3)
        assert st_.arrived_bits == bits

    def test_phase_recvs_complete(self):
        st_ = CollectiveGroupState(0, PHASES, created_at=0.0)
        assert not st_.phase_recvs_complete(0)
        st_.mark_arrived(3)
        assert st_.phase_recvs_complete(0)

    def test_missing_senders_through_current_phase(self):
        st_ = CollectiveGroupState(0, PHASES, created_at=0.0)
        st_.phase = 1
        assert st_.missing_senders() == [(0, 3), (1, 2)]
        st_.mark_arrived(3)
        assert st_.missing_senders() == [(1, 2)]

    def test_duplicate_pair_schedule_rejected(self):
        bad = (Phase(recvs=(1,)), Phase(recvs=(1,)))
        with pytest.raises(ValueError):
            CollectiveGroupState(0, bad, created_at=0.0)

    def test_cancel_timer_without_timer(self):
        st_ = CollectiveGroupState(0, PHASES, created_at=0.0)
        st_.cancel_timer()  # no-op


# ----------------------------------------------------------------------
# Property-based tests
# ----------------------------------------------------------------------
@settings(max_examples=50, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=64),
    rank_frac=st.floats(min_value=0.0, max_value=0.999),
    algo=st.sampled_from(["dissemination", "pairwise-exchange", "gather-broadcast"]),
)
def test_arrival_bitvector_completeness(n, rank_frac, algo):
    """Marking every expected sender makes every phase complete."""
    sched = make_schedule(algo, n)
    rank = int(rank_frac * n)
    state = CollectiveGroupState(0, sched.phases(rank), created_at=0.0)
    for sender in sched.expected_senders(rank):
        state.mark_arrived(sender)
    for phase_idx in range(len(sched.phases(rank))):
        assert state.phase_recvs_complete(phase_idx)
    state.phase = len(sched.phases(rank))
    assert state.missing_senders() == []


@settings(max_examples=50, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=64),
    data=st.data(),
)
def test_send_record_bits_match_marks(n, data):
    sched = make_schedule("dissemination", n)
    rec = CollectiveSendRecord(0, sched.phases(0), created_at=0.0)
    slots = [(m, p.sends[0]) for m, p in enumerate(sched.phases(0))]
    chosen = data.draw(st.lists(st.sampled_from(slots), unique=True))
    for phase, dst in chosen:
        rec.mark_sent(phase, dst)
    for phase, dst in slots:
        assert rec.was_sent(phase, dst) == ((phase, dst) in chosen)
    assert rec.all_sent == (len(chosen) == len(slots))
