"""NAS message representation, packing and unpacking.

A :class:`NasMessage` is a name (from :mod:`repro.lte.constants`), a field
dictionary, and its security envelope (header type, NAS COUNT, MAC,
optional ciphertext).  Messages serialise to a compact binary TLV format
so the implementations genuinely parse untrusted bytes — the incoming
message handlers run the same unpack → sanity-check → MAC-verify sequence
the paper describes (Section II-D "validation of well-formedness").
"""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple, Union

from . import constants as c

FieldValue = Union[int, str, bytes]

_MAGIC = 0x4E  # 'N'
_TYPE_INT = 0
_TYPE_STR = 1
_TYPE_BYTES = 2

#: message name <-> wire code
MESSAGE_CODES = {name: index + 1 for index, name in enumerate(c.ALL_MESSAGES)}
CODE_MESSAGES = {code: name for name, code in MESSAGE_CODES.items()}


class MessageError(Exception):
    """Raised for malformed or unparseable NAS messages."""


@dataclass
class NasMessage:
    """One NAS message with its security envelope."""

    name: str
    fields: Dict[str, FieldValue] = field(default_factory=dict)
    sec_header: int = c.SEC_HDR_PLAIN
    count: Optional[int] = None
    mac: Optional[bytes] = None
    #: ciphered payload bytes when sec_header indicates ciphering; the
    #: plaintext ``fields`` are unavailable to parsers until deciphered.
    ciphertext: Optional[bytes] = None

    def __post_init__(self):
        if self.name not in MESSAGE_CODES:
            raise MessageError(f"unknown NAS message {self.name!r}")
        if self.sec_header not in c.SEC_HDR_TYPES:
            raise MessageError(f"bad security header {self.sec_header!r}")

    # ------------------------------------------------------------------
    @property
    def is_protected(self) -> bool:
        return self.sec_header != c.SEC_HDR_PLAIN

    @property
    def is_ciphered(self) -> bool:
        return self.sec_header in (c.SEC_HDR_INTEGRITY_CIPHERED,
                                   c.SEC_HDR_INTEGRITY_CIPHERED_NEW_CTX)

    def get(self, name: str,
            default: Optional[FieldValue] = None) -> Optional[FieldValue]:
        return self.fields.get(name, default)

    # Typed accessors: incoming fields are attacker-controlled, so the
    # handlers coerce defensively and fall back to the default on any
    # type mismatch (a real stack's IE decoder does the same).
    def get_int(self, name: str, default: int = 0) -> int:
        value = self.fields.get(name, default)
        try:
            return int(value)
        except (TypeError, ValueError):
            return default

    def get_str(self, name: str, default: str = "") -> str:
        value = self.fields.get(name, default)
        if isinstance(value, bytes):
            return default
        return str(value)

    def get_bytes(self, name: str, default: bytes = b"") -> bytes:
        value = self.fields.get(name, default)
        return value if isinstance(value, (bytes, bytearray)) else default

    def payload_bytes(self) -> bytes:
        """The inner (plaintext) payload: message code + encoded fields."""
        items = tuple([(key, type(value), value)
                       for key, value in sorted(self.fields.items())])
        try:
            return _encode_memo(self.name, items)
        except TypeError:   # an unhashable value (list, bytearray)
            return _encode_payload(self.name, items)

    @staticmethod
    def parse_payload(data: bytes) -> Tuple[str, Dict[str, FieldValue]]:
        """Inverse of :meth:`payload_bytes`."""
        if len(data) < 3:
            raise MessageError("payload too short")
        magic, code = struct.unpack_from("!BB", data, 0)
        if magic != _MAGIC:
            raise MessageError(f"bad magic byte {magic:#x}")
        if code not in CODE_MESSAGES:
            raise MessageError(f"unknown message code {code}")
        (count,) = struct.unpack_from("!B", data, 2)
        fields: Dict[str, FieldValue] = {}
        offset = 3
        for _ in range(count):
            if offset + 4 > len(data):
                raise MessageError("truncated field header")
            value_type, key_len, value_len = struct.unpack_from(
                "!BBH", data, offset)
            offset += 4
            if offset + key_len + value_len > len(data):
                raise MessageError("truncated field body")
            try:
                key = data[offset:offset + key_len].decode()
            except UnicodeDecodeError as exc:
                raise MessageError(f"undecodable field key: {exc}") \
                    from exc
            offset += key_len
            raw = data[offset:offset + value_len]
            offset += value_len
            if value_type == _TYPE_INT:
                if len(raw) != 8:
                    raise MessageError("malformed integer field")
                fields[key] = struct.unpack("!q", raw)[0]
            elif value_type == _TYPE_STR:
                try:
                    fields[key] = raw.decode()
                except UnicodeDecodeError as exc:
                    raise MessageError(
                        f"undecodable field value: {exc}") from exc
            elif value_type == _TYPE_BYTES:
                fields[key] = raw
            else:
                raise MessageError(f"unknown field type {value_type}")
        return CODE_MESSAGES[code], fields

    # ------------------------------------------------------------------
    def to_wire(self) -> bytes:
        """Full wire format: security header | count | mac | payload."""
        body = self.ciphertext if self.ciphertext is not None \
            else self.payload_bytes()
        if len(body) > 0xFFFF:
            raise MessageError(f"{len(body)}-byte body; at most 65535 "
                               "bytes fit a frame")
        header = struct.pack("!BB", self.sec_header,
                             0 if self.count is None else self.count & 0xFF)
        mac = self.mac or b"\x00" * 8
        if len(mac) != 8:
            raise MessageError("MAC must be 8 bytes on the wire")
        return header + mac + struct.pack("!H", len(body)) + body

    @classmethod
    def from_wire(cls, data: bytes) -> "NasMessage":
        name, fields, sec_header, count, mac, ciphertext = _decoded(data)
        return cls(name=name, fields=dict(fields), sec_header=sec_header,
                   count=count, mac=mac, ciphertext=ciphertext)

    def copy(self) -> "NasMessage":
        return NasMessage(
            name=self.name, fields=dict(self.fields),
            sec_header=self.sec_header, count=self.count, mac=self.mac,
            ciphertext=self.ciphertext,
        )

    def __str__(self) -> str:
        protection = {
            c.SEC_HDR_PLAIN: "plain",
            c.SEC_HDR_INTEGRITY: "int",
            c.SEC_HDR_INTEGRITY_CIPHERED: "int+enc",
            c.SEC_HDR_INTEGRITY_NEW_CTX: "int/new",
            c.SEC_HDR_INTEGRITY_CIPHERED_NEW_CTX: "int+enc/new",
        }[self.sec_header]
        return f"{self.name}[{protection}]{self.fields}"


# ---------------------------------------------------------------------------
# Codec memos.  A testbed with a fixed subscriber and RAND puts the same few
# hundred frames and payloads on the air over and over (one 1,500-exec fuzz
# campaign: ~105,000 decodes of ~700 distinct frames and ~82,000 encodes of
# ~310 distinct payloads), so both directions of the codec are memoised.
# ---------------------------------------------------------------------------
#: ``(key, type(value), value)`` per field, in key order: the type keeps
#: ``True`` and ``1`` (equal, same hash) in separate entries and stops
#: ``1.0`` from hitting the entry of ``1``.
_Items = Tuple[Tuple[str, type, FieldValue], ...]

#: ``from_wire``'s parse: (name, fields, sec_header, count, mac, ciphertext).
_Frame = Tuple[str, Dict[str, FieldValue], int, int, bytes, Optional[bytes]]


def _encode_payload(name: str, items: _Items) -> bytes:
    if len(items) > 0xFF:
        raise MessageError(f"{len(items)} fields; at most 255 fit a payload")
    parts = [struct.pack("!BBB", _MAGIC, MESSAGE_CODES[name], len(items))]
    for key, _, value in items:
        key_bytes = key.encode()
        if isinstance(value, int):   # bool included
            if not -2 ** 63 <= value < 2 ** 63:
                raise MessageError(
                    f"integer field {key!r} outside signed 64 bits")
            value_bytes = struct.pack("!q", int(value))
            value_type = _TYPE_INT
        elif isinstance(value, str):
            value_bytes = value.encode()
            value_type = _TYPE_STR
        elif isinstance(value, bytes):
            value_bytes = value
            value_type = _TYPE_BYTES
        else:
            raise MessageError(
                f"unsupported field type for {key!r}: {type(value)}")
        if len(key_bytes) > 0xFF or len(value_bytes) > 0xFFFF:
            raise MessageError(f"field {key!r} too long: keys fit 255 "
                               "bytes, values 65535")
        parts.append(struct.pack("!BBH", value_type, len(key_bytes),
                                 len(value_bytes)))
        parts.append(key_bytes)
        parts.append(value_bytes)
    return b"".join(parts)


def _decode_frame(data: bytes) -> _Frame:
    if len(data) < 12:
        raise MessageError("frame too short")
    sec_header, count = struct.unpack_from("!BB", data, 0)
    if sec_header not in c.SEC_HDR_TYPES:
        raise MessageError(f"bad security header {sec_header:#x}")
    mac = data[2:10]
    (body_len,) = struct.unpack_from("!H", data, 10)
    body = data[12:12 + body_len]
    if len(body) != body_len:
        raise MessageError("truncated body")
    if sec_header in (c.SEC_HDR_INTEGRITY_CIPHERED,
                      c.SEC_HDR_INTEGRITY_CIPHERED_NEW_CTX):
        # Cannot name the message before deciphering; use transport
        # placeholder and stash the ciphertext.
        return c.DOWNLINK_NAS_TRANSPORT, {}, sec_header, count, mac, body
    name, fields = NasMessage.parse_payload(body)
    return name, fields, sec_header, count, mac, None


#: The memos hold at most 512 payloads and 1,024 frames (one campaign
#: meets ~310 and ~700).  A malformed frame's ``MessageError`` is raised
#: afresh on every call, never stored.  Cached field dicts are never
#: handed out: :meth:`NasMessage.from_wire` copies them.
_encode_memo = functools.lru_cache(maxsize=512)(_encode_payload)
_decode_memo = functools.lru_cache(maxsize=1024)(_decode_frame)


def _decoded(data: bytes) -> _Frame:
    try:
        return _decode_memo(data)
    except TypeError:   # a bytearray frame is unhashable: not memoised
        return _decode_frame(data)


def message_name(frame: bytes) -> Optional[str]:
    """``NasMessage.from_wire(frame).name``, or ``None`` if malformed.

    For callers that parse a frame only to name it: reads the decode
    memo and builds no message.
    """
    try:
        return _decoded(frame)[0]
    except MessageError:
        return None
