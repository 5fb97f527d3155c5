"""The testbed's memoised primitives answer exactly what they compute.

``security._prf`` and the NAS codec (``NasMessage.from_wire``,
``message_name`` and ``NasMessage.payload_bytes``) are memoised; every
answer must equal the uncached computation, including after other
inputs (``True`` vs ``1`` vs ``1.0``) have filled the memo.
"""

import hashlib
import hmac

import pytest
from hypothesis import given, settings, strategies as st

from repro.fuzz import FuzzConfig, run_campaign
from repro.lte import constants as c
from repro.lte import messages, security
from repro.lte.channel import corrupt_frame
from repro.lte.messages import MessageError, NasMessage, message_name

MEMOS = {"prf": security._prf_memo, "decode": messages._decode_memo,
         "encode": messages._encode_memo}


def _uncached_parse(frame):
    """``from_wire``'s outcome, bypassing the memo: a tuple or an error."""
    try:
        return messages._decode_frame(frame)
    except MessageError as exc:
        return ("MessageError", str(exc))


def _memoised_parse(frame):
    try:
        message = NasMessage.from_wire(frame)
    except MessageError as exc:
        return ("MessageError", str(exc))
    return (message.name, message.fields, message.sec_header,
            message.count, message.mac, message.ciphertext)


_INT64 = st.integers(min_value=-(2 ** 63), max_value=2 ** 63 - 1)
_VALUES = st.one_of(st.booleans(), _INT64, st.text(max_size=12),
                    st.binary(max_size=12),
                    st.sampled_from((0, 1, True, False, "1", b"1")))
_FIELDS = st.dictionaries(st.sampled_from(("a", "b", "cause", "guti")),
                          _VALUES, max_size=4)
_NAMES = st.sampled_from(c.ALL_MESSAGES)


@st.composite
def frames(draw):
    """Genuine, ciphered, bit-flipped, truncated or random frames."""
    kind = draw(st.sampled_from(("genuine", "ciphered", "flipped",
                                 "truncated", "random")))
    if kind == "random":
        return draw(st.binary(max_size=48))
    if kind == "ciphered":
        message = NasMessage(
            name=c.DOWNLINK_NAS_TRANSPORT,
            sec_header=draw(st.sampled_from((
                c.SEC_HDR_INTEGRITY_CIPHERED,
                c.SEC_HDR_INTEGRITY_CIPHERED_NEW_CTX))),
            count=draw(st.integers(0, 255)), mac=draw(st.binary(
                min_size=8, max_size=8)),
            ciphertext=draw(st.binary(max_size=32)))
    else:
        message = NasMessage(
            name=draw(_NAMES), fields=draw(_FIELDS),
            sec_header=draw(st.sampled_from(c.SEC_HDR_TYPES)),
            count=draw(st.none() | st.integers(0, 255)))
    frame = message.to_wire()
    if kind == "flipped":
        position = draw(st.integers(0, len(frame) - 1))
        return corrupt_frame(frame, position, 1 << draw(st.integers(0, 7)))
    if kind == "truncated":
        return frame[:draw(st.integers(0, len(frame) - 1))]
    return frame


class TestPrf:
    @given(st.binary(max_size=24), st.lists(st.binary(max_size=12),
                                            max_size=5))
    def test_equals_hmac(self, key, parts):
        expected = hmac.new(key, b"|".join(parts),
                            hashlib.sha256).digest()
        assert security._prf(key, *parts) == expected
        assert security._prf(key, *parts) == expected   # memo hit
        assert security._prf(bytearray(key),
                             *map(bytearray, parts)) == expected


class TestDecode:
    @settings(max_examples=300)
    @given(frames())
    def test_from_wire_and_message_name_equal_uncached(self, frame):
        expected = _uncached_parse(frame)
        for _ in range(2):   # a miss, then a hit (or a fresh raise)
            assert _memoised_parse(frame) == expected
            assert _memoised_parse(bytearray(frame)) == expected
            assert message_name(frame) == (
                None if expected[0] == "MessageError" else expected[0])

    def test_malformed_frame_raises_every_time(self):
        frame = NasMessage(name=c.PAGING).to_wire()[:-1]
        for _ in range(3):
            with pytest.raises(MessageError, match="truncated body"):
                NasMessage.from_wire(frame)
            assert message_name(frame) is None

    @given(frames())
    def test_mutating_a_decoded_message_never_changes_a_later_decode(
            self, frame):
        try:
            first = NasMessage.from_wire(frame)
        except MessageError:
            return
        expected = _memoised_parse(frame)
        first.fields["cause"] = "mutated"
        first.fields.pop("guti", None)
        first.name, first.count, first.mac = c.PAGING, 7, b"\x00" * 8
        assert _memoised_parse(frame) == expected
        assert NasMessage.from_wire(frame).fields is not first.fields


class TestEncode:
    @settings(max_examples=300)
    @given(_NAMES, _FIELDS)
    def test_payload_bytes_equals_uncached(self, name, fields):
        items = tuple((key, type(value), value)
                      for key, value in sorted(fields.items()))
        expected = messages._encode_payload(name, items)
        for _ in range(2):   # a miss, then a hit
            assert NasMessage(name=name, fields=fields).payload_bytes() \
                == expected
        decoded_name, decoded = NasMessage.parse_payload(expected)
        assert decoded_name == name
        assert decoded == {key: int(value) if isinstance(value, bool)
                           else value for key, value in fields.items()}

    @pytest.mark.parametrize("value", [1.0, None, [1], bytearray(b"1")],
                             ids=["float", "none", "list", "bytearray"])
    def test_unsupported_values_raise_even_beside_equal_entries(self,
                                                                value):
        for cached in (1, True, b"1"):   # equal to 1.0 or bytearray(b"1")
            NasMessage(name=c.PAGING, fields={"x": cached}).payload_bytes()
        with pytest.raises(MessageError, match="unsupported field type"):
            NasMessage(name=c.PAGING, fields={"x": value}).payload_bytes()

    def test_true_and_one_keep_separate_entries(self):
        messages._encode_memo.cache_clear()
        one = NasMessage(name=c.PAGING, fields={"x": 1}).payload_bytes()
        true = NasMessage(name=c.PAGING, fields={"x": True}).payload_bytes()
        assert one == true   # bools travel as ints
        assert messages._encode_memo.cache_info().currsize == 2


class TestCampaignHitRatio:
    def test_pinned_campaign_answers_most_calls_from_the_memos(self):
        for memo in MEMOS.values():
            memo.cache_clear()
        run_campaign(FuzzConfig(implementation="srsue", seed=20260808,
                                budget_execs=300))
        for name, memo in MEMOS.items():
            info = memo.cache_info()
            assert info.hits >= 0.9 * (info.hits + info.misses), (name,
                                                                  info)
            assert info.currsize <= info.maxsize
