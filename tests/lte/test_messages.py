"""NAS message codec tests, including hypothesis wire round-trips."""

import pytest
from hypothesis import given, strategies as st

from repro.lte import constants as c
from repro.lte.messages import MessageError, NasMessage


class TestConstruction:
    def test_unknown_message_rejected(self):
        with pytest.raises(MessageError):
            NasMessage(name="not_a_message")

    def test_bad_security_header_rejected(self):
        with pytest.raises(MessageError):
            NasMessage(name=c.PAGING, sec_header=0x9)

    def test_protection_flags(self):
        plain = NasMessage(name=c.PAGING)
        assert not plain.is_protected
        protected = NasMessage(name=c.ATTACH_ACCEPT,
                               sec_header=c.SEC_HDR_INTEGRITY)
        assert protected.is_protected and not protected.is_ciphered
        ciphered = NasMessage(name=c.ATTACH_ACCEPT,
                              sec_header=c.SEC_HDR_INTEGRITY_CIPHERED)
        assert ciphered.is_ciphered


class TestPayloadCodec:
    def test_roundtrip_mixed_fields(self):
        msg = NasMessage(name=c.ATTACH_REQUEST, fields={
            "imsi": "001010000000001", "count": 7, "blob": b"\x00\x01",
            "flag": True,
        })
        name, fields = NasMessage.parse_payload(msg.payload_bytes())
        assert name == c.ATTACH_REQUEST
        assert fields["imsi"] == "001010000000001"
        assert fields["count"] == 7
        assert fields["blob"] == b"\x00\x01"
        assert fields["flag"] == 1   # bools travel as ints

    def test_bad_magic_rejected(self):
        with pytest.raises(MessageError):
            NasMessage.parse_payload(b"\x00\x01\x00")

    def test_truncated_rejected(self):
        msg = NasMessage(name=c.PAGING, fields={"paging_id": "x"})
        data = msg.payload_bytes()
        with pytest.raises(MessageError):
            NasMessage.parse_payload(data[:-1])

    def test_unsupported_field_type_rejected(self):
        msg = NasMessage(name=c.PAGING, fields={"bad": 3.14})
        with pytest.raises(MessageError):
            msg.payload_bytes()


class TestEncodeLimits:
    """Values the TLV format cannot carry raise ``MessageError``."""

    def test_int_outside_signed_64_bits(self):
        for value in (2 ** 63, -(2 ** 63) - 1):
            with pytest.raises(MessageError, match="64 bits"):
                NasMessage(name=c.ATTACH_ACCEPT,
                           fields={"x": value}).payload_bytes()
        for value in (2 ** 63 - 1, -(2 ** 63)):
            NasMessage(name=c.ATTACH_ACCEPT,
                       fields={"x": value}).payload_bytes()

    def test_key_over_255_bytes(self):
        NasMessage(name=c.PAGING, fields={"k" * 255: 1}).payload_bytes()
        with pytest.raises(MessageError, match="too long"):
            NasMessage(name=c.PAGING, fields={"k" * 256: 1}).payload_bytes()

    def test_value_over_65535_bytes(self):
        for value in (b"\x00" * 65536, "v" * 65536):
            with pytest.raises(MessageError, match="too long"):
                NasMessage(name=c.PAGING,
                           fields={"x": value}).payload_bytes()
        NasMessage(name=c.PAGING,
                   fields={"x": b"\x00" * 65535}).payload_bytes()

    def test_body_over_65535_bytes(self):
        fields = {"a": b"\x00" * 40000, "b": b"\x00" * 40000}
        msg = NasMessage(name=c.PAGING, fields=fields)
        msg.payload_bytes()   # each field fits; the frame does not
        with pytest.raises(MessageError, match="65535"):
            msg.to_wire()
        ciphered = NasMessage(name=c.DOWNLINK_NAS_TRANSPORT,
                              sec_header=c.SEC_HDR_INTEGRITY_CIPHERED,
                              ciphertext=b"\xff" * 65536)
        with pytest.raises(MessageError, match="65535"):
            ciphered.to_wire()

    def test_more_than_255_fields(self):
        fields = {f"f{index}": index for index in range(255)}
        NasMessage(name=c.PAGING, fields=fields).payload_bytes()
        fields["f255"] = 255
        with pytest.raises(MessageError, match="255"):
            NasMessage(name=c.PAGING, fields=fields).payload_bytes()


class TestWireCodec:
    def test_roundtrip_plain(self):
        msg = NasMessage(name=c.PAGING, fields={"paging_id": "abc"})
        recovered = NasMessage.from_wire(msg.to_wire())
        assert recovered.name == c.PAGING
        assert recovered.fields == {"paging_id": "abc"}

    def test_roundtrip_protected(self):
        msg = NasMessage(name=c.ATTACH_ACCEPT, fields={"guti": "g"},
                         sec_header=c.SEC_HDR_INTEGRITY,
                         count=3, mac=b"\x01" * 8)
        recovered = NasMessage.from_wire(msg.to_wire())
        assert recovered.sec_header == c.SEC_HDR_INTEGRITY
        assert recovered.count == 3
        assert recovered.mac == b"\x01" * 8

    def test_ciphered_payload_stays_opaque(self):
        msg = NasMessage(name=c.DOWNLINK_NAS_TRANSPORT,
                         sec_header=c.SEC_HDR_INTEGRITY_CIPHERED,
                         count=1, mac=b"\x02" * 8,
                         ciphertext=b"\xff" * 16)
        recovered = NasMessage.from_wire(msg.to_wire())
        assert recovered.ciphertext == b"\xff" * 16
        assert recovered.fields == {}

    def test_short_frame_rejected(self):
        with pytest.raises(MessageError):
            NasMessage.from_wire(b"\x00\x00")

    def test_bad_wire_header_rejected(self):
        msg = NasMessage(name=c.PAGING).to_wire()
        corrupted = b"\x0f" + msg[1:]
        with pytest.raises(MessageError):
            NasMessage.from_wire(corrupted)

    def test_copy_is_deep_for_fields(self):
        msg = NasMessage(name=c.PAGING, fields={"paging_id": "x"})
        clone = msg.copy()
        clone.fields["paging_id"] = "y"
        assert msg.fields["paging_id"] == "x"


_FIELD_VALUES = st.one_of(
    st.integers(min_value=-(2**62), max_value=2**62),
    st.text(max_size=30,
            alphabet=st.characters(blacklist_categories=("Cs",))),
    st.binary(max_size=40),
)


class TestWireProperties:
    @given(st.sampled_from(c.ALL_MESSAGES),
           st.dictionaries(
               st.text(alphabet="abcdefgh_", min_size=1, max_size=10),
               _FIELD_VALUES, max_size=6))
    def test_wire_roundtrip(self, name, fields):
        msg = NasMessage(name=name, fields=fields)
        recovered = NasMessage.from_wire(msg.to_wire())
        assert recovered.name == name
        expected = {k: (int(v) if isinstance(v, bool) else v)
                    for k, v in fields.items()}
        assert recovered.fields == expected

    @given(st.binary(max_size=60))
    def test_parser_never_crashes_on_garbage(self, data):
        try:
            NasMessage.from_wire(data)
        except MessageError:
            pass  # rejection is the expected outcome for garbage
