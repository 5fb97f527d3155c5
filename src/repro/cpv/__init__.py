"""Cryptographic protocol verifier substrate (the paper's ProVerif role).

- :mod:`repro.cpv.terms` — ground term algebra (pair/senc/mac/hash/kdf);
- :mod:`repro.cpv.deduction` — Dolev-Yao derivability (analysis closure +
  goal-directed synthesis) and the incremental :class:`Knowledge` store;
- :mod:`repro.cpv.equivalence` — observational distinguishability used by
  the linkability (privacy) properties.

The CEGAR loop's per-adversary-step feasibility question is answered by
:class:`repro.core.cegar.CounterexampleValidator` on a :class:`Knowledge`
store; the testbed's secrecy experiments ask
:meth:`Knowledge.can_construct` directly.
"""

from .terms import (Atom, Hash, KDF, KIND_CONST, KIND_DATA, KIND_IDENTITY,
                    KIND_KEY, KIND_NONCE, Mac, Pair, SEnc, Term, TermError,
                    const, identity, nonce, pair, secret_key, unpair)
from .deduction import Knowledge, can_derive, saturate
from .equivalence import DistinguishabilityResult, Frame, distinguishable

__all__ = [
    "Atom", "Hash", "KDF", "Mac", "Pair", "SEnc", "Term", "TermError",
    "KIND_CONST", "KIND_DATA", "KIND_IDENTITY", "KIND_KEY", "KIND_NONCE",
    "const", "identity", "nonce", "pair", "secret_key", "unpair",
    "Knowledge", "can_derive", "saturate",
    "DistinguishabilityResult", "Frame", "distinguishable",
]
