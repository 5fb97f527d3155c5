"""TS 33.102 Annex C sequence-number management (the P1/P2 root cause).

The SQN is a concatenation ``SQN = SEQ || IND``.  The home network
increments both parts when generating a fresh authentication vector; the
USIM keeps an array of ``a = 2**ind_bits`` previously-accepted ``SEQ``
values indexed by ``IND`` and accepts a received ``SQN_j = SEQ_j || IND_j``
iff ``SEQ_j`` is greater than the stored entry at index ``IND_j`` — which
means *out-of-order* (globally stale) values are accepted as long as their
slot has not moved past them.  Annex C 2.2 defines an OPTIONAL freshness
limit ``L`` (reject when ``SEQ_j - SEQ_ms > L`` relative to the highest
accepted value); the paper observes that, being optional and unspecified,
no major vendor implements it — enabling the replay in attack P1.

COTS UEs use ``ind_bits = 5`` (array of 32 slots), so a captured
``authentication_request`` stays acceptable until 31 further vectors have
cycled the array — "a couple of days old" in operational traces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

#: COTS choice observed in the paper's experiments.
DEFAULT_IND_BITS = 5
#: TS 33.102 fixes the packed ``SEQ || IND`` at 48 bits.
SQN_BITS = 48
#: SEQ width at the default IND width.
DEFAULT_SEQ_BITS = SQN_BITS - DEFAULT_IND_BITS


class SqnError(Exception):
    """Raised on malformed sequence numbers."""


@dataclass(frozen=True)
class Sqn:
    """A concrete sequence number ``SEQ || IND``."""

    seq: int
    ind: int
    ind_bits: int = DEFAULT_IND_BITS

    def __post_init__(self):
        if not 0 <= self.seq < 1 << (SQN_BITS - self.ind_bits):
            raise SqnError(f"SEQ {self.seq} outside the "
                           f"{SQN_BITS - self.ind_bits}-bit range")
        if not 0 <= self.ind < (1 << self.ind_bits):
            raise SqnError(f"IND {self.ind} outside 0..{(1 << self.ind_bits) - 1}")

    @property
    def value(self) -> int:
        """The packed integer ``SEQ || IND``."""
        return (self.seq << self.ind_bits) | self.ind

    @classmethod
    def unpack(cls, value: int, ind_bits: int = DEFAULT_IND_BITS) -> "Sqn":
        if value < 0:
            raise SqnError("SQN must be non-negative")
        mask = (1 << ind_bits) - 1
        return cls(seq=value >> ind_bits, ind=value & mask, ind_bits=ind_bits)

    def __str__(self) -> str:
        return f"SQN(seq={self.seq}, ind={self.ind})"


class SqnGenerator:
    """Home-network side: fresh SQN generation (Annex C 1.2).

    "To generate a fresh SQN, the core network increments both IND and SEQ,
    concatenates them together and sends to the UE."
    """

    def __init__(self, ind_bits: int = DEFAULT_IND_BITS,
                 start_seq: int = 0, start_ind: int = 0):
        self.ind_bits = ind_bits
        self._seq = start_seq
        self._ind = start_ind
        self.generated: List[Sqn] = []

    def next(self) -> Sqn:
        self._seq += 1
        self._ind = (self._ind + 1) % (1 << self.ind_bits)
        sqn = Sqn(self._seq, self._ind, self.ind_bits)
        self.generated.append(sqn)
        return sqn

    @property
    def current(self) -> Tuple[int, int]:
        return self._seq, self._ind


@dataclass
class SqnVerdict:
    """Outcome of a USIM SQN verification."""

    accepted: bool
    reason: str
    #: Highest previously-accepted SQN anywhere in the array, used to build
    #: the AUTS parameter of ``auth_sync_failure`` on rejection.
    resync_seq: int = 0


class UsimSqnArray:
    """USIM side: the SQN array verification scheme (Annex C 2).

    ``freshness_limit`` is the optional parameter ``L``; ``None`` (the
    operator default the paper found everywhere) disables the check and
    leaves the array vulnerable to stale replays.
    """

    def __init__(self, ind_bits: int = DEFAULT_IND_BITS,
                 freshness_limit: Optional[int] = None):
        self.ind_bits = ind_bits
        self.array_size = 1 << ind_bits
        self.freshness_limit = freshness_limit
        self._array: List[int] = [0] * self.array_size
        self.accept_count = 0
        self.reject_count = 0

    @property
    def slots(self) -> Tuple[int, ...]:
        return tuple(self._array)

    @property
    def highest_accepted_seq(self) -> int:
        return max(self._array)

    def peek(self, sqn: Sqn) -> SqnVerdict:
        """Evaluate ``sqn`` without mutating the array."""
        if sqn.ind_bits != self.ind_bits:
            raise SqnError("IND width mismatch between UE and network")
        stored_seq = self._array[sqn.ind]
        if sqn.seq <= stored_seq:
            return SqnVerdict(
                accepted=False,
                reason=(f"SEQ {sqn.seq} <= stored SEQ {stored_seq} at "
                        f"IND {sqn.ind} (synchronisation failure)"),
                resync_seq=self.highest_accepted_seq,
            )
        if (self.freshness_limit is not None
                and sqn.seq < self.highest_accepted_seq - self.freshness_limit):
            return SqnVerdict(
                accepted=False,
                reason=(f"SEQ {sqn.seq} older than limit L="
                        f"{self.freshness_limit} below highest accepted "
                        f"{self.highest_accepted_seq}"),
                resync_seq=self.highest_accepted_seq,
            )
        return SqnVerdict(
            accepted=True,
            reason=f"SEQ {sqn.seq} > stored SEQ {stored_seq} at IND {sqn.ind}",
        )

    def verify(self, sqn: Sqn) -> SqnVerdict:
        """Annex C 2: check and, on acceptance, update the IND slot."""
        verdict = self.peek(sqn)
        if verdict.accepted:
            self._array[sqn.ind] = sqn.seq
            self.accept_count += 1
        else:
            self.reject_count += 1
        return verdict

    def is_globally_fresh(self, sqn: Sqn) -> bool:
        """Strictly greater than every accepted value — what a *strict*
        (non-array) policy would require.  The gap between this and
        :meth:`peek` acceptance is exactly the P1 window."""
        return sqn.seq > self.highest_accepted_seq

    def stale_acceptance_window(self, generator_history: List[Sqn]) -> int:
        """How many already-generated SQNs would still be accepted now.

        The paper: with ``a = 2**5 = 32``, "the USIM accepts 31 previously
        captured stale authentication_request messages".
        """
        return sum(1 for sqn in generator_history if self.peek(sqn).accepted)
