"""TS 33.102 Annex C SQN scheme tests — the P1/P2 root cause in isolation."""

import pytest
from hypothesis import given, strategies as st

from repro.lte.sqn import (DEFAULT_IND_BITS, Sqn, SqnError, SqnGenerator,
                           UsimSqnArray)


class TestSqn:
    def test_pack_unpack_roundtrip(self):
        sqn = Sqn(seq=37, ind=5)
        assert Sqn.unpack(sqn.value) == sqn

    def test_ind_range_validated(self):
        with pytest.raises(SqnError):
            Sqn(seq=1, ind=1 << DEFAULT_IND_BITS)

    @pytest.mark.parametrize("seq, ind_bits", [
        (-1, DEFAULT_IND_BITS),
        (1 << 43, DEFAULT_IND_BITS),     # SEQ || IND must fit 48 bits
        (2 ** 59 + 1, DEFAULT_IND_BITS),
        (1 << 45, 3),
    ])
    def test_out_of_range_seq_rejected(self, seq, ind_bits):
        with pytest.raises(SqnError):
            Sqn(seq=seq, ind=0, ind_bits=ind_bits)

    def test_largest_sqn_packs_into_48_bits(self):
        assert Sqn((1 << 43) - 1, 31).value == (1 << 48) - 1

    @given(st.integers(0, 10_000), st.integers(0, 31))
    def test_roundtrip_property(self, seq, ind):
        sqn = Sqn(seq, ind)
        assert Sqn.unpack(sqn.value) == sqn


class TestGenerator:
    def test_both_parts_increment(self):
        generator = SqnGenerator()
        first = generator.next()
        second = generator.next()
        assert second.seq == first.seq + 1
        assert second.ind == (first.ind + 1) % 32

    def test_ind_wraps(self):
        generator = SqnGenerator(start_ind=31)
        assert generator.next().ind == 0

    def test_history_recorded(self):
        generator = SqnGenerator()
        values = [generator.next() for _ in range(5)]
        assert generator.generated == values


class TestUsimArray:
    def test_fresh_accepted(self):
        usim = UsimSqnArray()
        assert usim.verify(Sqn(1, 1)).accepted

    def test_same_slot_replay_rejected(self):
        usim = UsimSqnArray()
        usim.verify(Sqn(5, 3))
        verdict = usim.verify(Sqn(5, 3))
        assert not verdict.accepted
        assert verdict.resync_seq == 5

    def test_smaller_seq_same_slot_rejected(self):
        usim = UsimSqnArray()
        usim.verify(Sqn(5, 3))
        assert not usim.verify(Sqn(4, 3)).accepted

    def test_out_of_order_accepted_in_other_slot(self):
        """The Annex C design flaw: globally stale values are accepted."""
        usim = UsimSqnArray()
        usim.verify(Sqn(10, 1))
        verdict = usim.verify(Sqn(3, 2))     # stale, different IND slot
        assert verdict.accepted
        assert not usim.is_globally_fresh(Sqn(3, 2))

    def test_peek_does_not_mutate(self):
        usim = UsimSqnArray()
        usim.peek(Sqn(5, 3))
        assert usim.verify(Sqn(5, 3)).accepted

    def test_freshness_limit_closes_window(self):
        """The optional parameter L (Annex C 2.2) blocks P1 when set."""
        usim = UsimSqnArray(freshness_limit=2)
        usim.verify(Sqn(10, 1))
        assert not usim.verify(Sqn(3, 2)).accepted
        assert usim.verify(Sqn(9, 2)).accepted    # within L

    def test_stale_window_is_array_size_minus_one(self):
        """Paper: with a = 2**5 = 32, 31 stale requests are accepted."""
        generator = SqnGenerator()
        usim = UsimSqnArray()
        history = [generator.next() for _ in range(32)]
        usim.verify(history[-1])
        accepted = sum(1 for sqn in history[:-1]
                       if usim.verify(sqn).accepted)
        assert accepted == 31

    def test_resync_uses_highest_accepted(self):
        usim = UsimSqnArray()
        usim.verify(Sqn(9, 1))
        usim.verify(Sqn(4, 2))
        verdict = usim.verify(Sqn(2, 2))
        assert verdict.resync_seq == 9

    def test_ind_width_mismatch_rejected(self):
        usim = UsimSqnArray(ind_bits=5)
        with pytest.raises(SqnError):
            usim.verify(Sqn(1, 1, ind_bits=4))

    def test_counters(self):
        usim = UsimSqnArray()
        usim.verify(Sqn(1, 1))
        usim.verify(Sqn(1, 1))
        assert usim.accept_count == 1
        assert usim.reject_count == 1


class TestUsimProperties:
    @given(st.lists(st.tuples(st.integers(1, 100), st.integers(0, 31)),
                    min_size=1, max_size=60))
    def test_slots_monotonically_increase(self, entries):
        """Accepted SEQ values never decrease a slot (array invariant)."""
        usim = UsimSqnArray()
        previous = usim.slots
        for seq, ind in entries:
            usim.verify(Sqn(seq, ind))
            current = usim.slots
            assert all(c >= p for c, p in zip(current, previous))
            previous = current

    @given(st.lists(st.tuples(st.integers(1, 100), st.integers(0, 31)),
                    min_size=1, max_size=60))
    def test_replay_of_accepted_value_always_rejected(self, entries):
        """Immediate byte-exact replay never passes (compliant USIM)."""
        usim = UsimSqnArray()
        for seq, ind in entries:
            if usim.verify(Sqn(seq, ind)).accepted:
                assert not usim.peek(Sqn(seq, ind)).accepted

    @given(st.integers(1, 50), st.integers(0, 31),
           st.integers(1, 50), st.integers(0, 31))
    def test_freshness_limit_never_widens(self, seq1, ind1, seq2, ind2):
        """Whatever L rejects includes everything no-L rejects."""
        open_usim = UsimSqnArray()
        limited = UsimSqnArray(freshness_limit=3)
        open_usim.verify(Sqn(seq1, ind1))
        limited.verify(Sqn(seq1, ind1))
        if not open_usim.peek(Sqn(seq2, ind2)).accepted:
            assert not limited.peek(Sqn(seq2, ind2)).accepted
