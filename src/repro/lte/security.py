"""NAS security: key hierarchy, EPS-AKA vectors, integrity and ciphering.

Functional (not cryptographically hardened) realisations of the primitives
the NAS layer needs: the milenage-style authentication functions f1-f5, the
KASME→K_NASint/K_NASenc derivations, EIA-style MAC computation over
(COUNT, message), and EEA-style stream ciphering.  They are built on
``hashlib``/``hmac`` so that MAC forgery and ciphertext decryption without
the key are computationally excluded — which is all the Dolev-Yao analysis
and the testbed validation require.
"""

from __future__ import annotations

import functools
import hashlib
import hmac
from dataclasses import dataclass
from typing import Optional, Tuple

from .sqn import Sqn

MAC_LEN = 8  # truncated tag length in bytes (NAS uses 32-bit; 64 here)


def _hmac_prf(key: bytes, *parts: bytes) -> bytes:
    return hmac.new(key, b"|".join(parts), hashlib.sha256).digest()


#: A testbed with a fixed subscriber and RAND derives the same few
#: hundred values over and over (one 1,500-exec fuzz campaign: ~85,000
#: calls on ~600 distinct inputs), so the PRF is memoised.
_prf_memo = functools.lru_cache(maxsize=1024)(_hmac_prf)


def _prf(key: bytes, *parts: bytes) -> bytes:
    """Keyed PRF used for all derivations and authentication functions."""
    try:
        return _prf_memo(key, *parts)
    except TypeError:   # a bytearray argument is unhashable: not memoised
        return _hmac_prf(key, *parts)


# ---------------------------------------------------------------------------
# EPS-AKA (TS 33.401 / TS 33.102) — authentication vectors
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class AuthVector:
    """One authentication vector (RAND, AUTN, XRES, KASME)."""

    rand: bytes
    autn_sqn: Sqn          # SQN component of AUTN (xor-with-AK abstracted)
    autn_mac: bytes        # f1(K, RAND, SQN) — verifiable with permanent K
    xres: bytes
    kasme: bytes


def f1_mac(permanent_key: bytes, rand: bytes, sqn: Sqn) -> bytes:
    """Network authentication code in AUTN (verifies under permanent K).

    Because the key is the *permanent* subscriber key, the tag verifies
    regardless of session — the reason replayed authentication_requests
    pass the MAC check in attack P1.
    """
    return _prf(permanent_key, b"f1", rand,
                sqn.value.to_bytes(8, "big"))[:MAC_LEN]


def f2_res(permanent_key: bytes, rand: bytes) -> bytes:
    """Challenge response RES/XRES."""
    return _prf(permanent_key, b"f2", rand)[:MAC_LEN]


def derive_kasme(permanent_key: bytes, rand: bytes, sqn: Sqn) -> bytes:
    """KASME derivation (abstracts CK/IK and the KDF of TS 33.401).

    Note KASME depends on SQN: accepting a stale SQN regenerates *old*
    session keys, desynchronising UE and legitimate MME — the P1 effect.
    """
    return _prf(permanent_key, b"kasme", rand, sqn.value.to_bytes(8, "big"))


def generate_auth_vector(permanent_key: bytes, sqn: Sqn,
                         rand: Optional[bytes] = None) -> AuthVector:
    if rand is None:
        rand = _prf(permanent_key, b"rand", sqn.value.to_bytes(8, "big"))[:16]
    return AuthVector(
        rand=rand,
        autn_sqn=sqn,
        autn_mac=f1_mac(permanent_key, rand, sqn),
        xres=f2_res(permanent_key, rand),
        kasme=derive_kasme(permanent_key, rand, sqn),
    )


# ---------------------------------------------------------------------------
# NAS security context
# ---------------------------------------------------------------------------
def derive_nas_keys(kasme: bytes) -> Tuple[bytes, bytes]:
    """(K_NASint, K_NASenc) from KASME."""
    return _prf(kasme, b"nas-int")[:16], _prf(kasme, b"nas-enc")[:16]


def nas_mac(k_nas_int: bytes, count: int, direction: int,
            payload: bytes) -> bytes:
    """EIA-style integrity tag over (COUNT, direction, payload)."""
    return _prf(k_nas_int, b"eia", count.to_bytes(4, "big"),
                bytes([direction]), payload)[:MAC_LEN]


def nas_cipher(k_nas_enc: bytes, count: int, direction: int,
               payload: bytes) -> bytes:
    """EEA-style stream cipher (XOR with a counter-mode keystream).

    Encryption and decryption are the same operation.
    """
    keystream = b""
    block = 0
    while len(keystream) < len(payload):
        keystream += _prf(k_nas_enc, b"eea", count.to_bytes(4, "big"),
                          bytes([direction]), block.to_bytes(4, "big"))
        block += 1
    return bytes(a ^ b for a, b in zip(payload, keystream))


DIR_UPLINK = 0
DIR_DOWNLINK = 1


@dataclass
class SecurityContext:
    """An established NAS security context with its COUNT pair.

    ``dl_count``/``ul_count`` are the *next expected* NAS COUNT values.
    TS 24.301: "for a given NAS security context, a given NAS COUNT value
    shall be accepted at most one time and only if message integrity
    verifies correctly" — :meth:`accept_dl_count` implements the compliant
    check; the implementation variants override its policy to reproduce
    the I1/I3 replay-protection bugs.
    """

    kasme: bytes
    k_nas_int: bytes = b""
    k_nas_enc: bytes = b""
    ul_count: int = 0
    dl_count: int = 0

    def __post_init__(self):
        if not self.k_nas_int or not self.k_nas_enc:
            self.k_nas_int, self.k_nas_enc = derive_nas_keys(self.kasme)

    # -- sender side ----------------------------------------------------
    def protect(self, payload: bytes, direction: int,
                cipher: bool = True) -> Tuple[bytes, bytes, int]:
        """Return (protected payload, mac, count) and advance the count."""
        count = self.ul_count if direction == DIR_UPLINK else self.dl_count
        body = nas_cipher(self.k_nas_enc, count, direction,
                          payload) if cipher else payload
        tag = nas_mac(self.k_nas_int, count, direction, body)
        if direction == DIR_UPLINK:
            self.ul_count += 1
        else:
            self.dl_count += 1
        return body, tag, count

    # -- receiver side ----------------------------------------------------
    def verify(self, body: bytes, tag: bytes, count: int,
               direction: int) -> bool:
        expected = nas_mac(self.k_nas_int, count, direction, body)
        return hmac.compare_digest(expected, tag)

    def unprotect(self, body: bytes, count: int, direction: int,
                  ciphered: bool = True) -> bytes:
        if not ciphered:
            return body
        return nas_cipher(self.k_nas_enc, count, direction, body)

    def accept_dl_count(self, count: int) -> bool:
        """Compliant replay check: strictly-increasing downlink COUNT."""
        if count < self.dl_count:
            return False
        self.dl_count = count + 1
        return True

    def accept_ul_count(self, count: int) -> bool:
        if count < self.ul_count:
            return False
        self.ul_count = count + 1
        return True
