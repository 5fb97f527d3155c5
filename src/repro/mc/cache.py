"""Persistent cross-run model-checking verdict cache.

A verdict is a pure function of ``(transition system, formula, threat
configuration)``: the first two are content-hashed
(:meth:`repro.mc.model.Model.fingerprint`,
:func:`repro.mc.buchi.normalised_key`) and the threat configuration —
which determines the instrumented model's *meaning* across CEGAR
refinements — rides along as an opaque digest supplied by the caller.
Re-analysing an unchanged implementation therefore skips model checking
entirely: every CEGAR iteration's check (refined configs get distinct
digests) is answered from disk, and the run's ``mc.checks`` counter
stays at zero.

Like :class:`repro.store.ResultStore` (its report-level sibling, which
re-exports it), the cache is a :class:`repro.blobstore.BlobStore`: one
schema-stamped ``{"digest", "key", "result"}`` JSON file per entry,
sharded by digest prefix, atomic writes, quarantine-as-miss for entries
that are corrupted or do not decode to a :class:`CheckResult`.
Hits/misses/writes are counted in the :mod:`repro.obs` registry only
(``mc.verdict_cache_*``) — cache warmth is scheduling/state-dependent
and must not enter the canonical per-property stats.
"""

from __future__ import annotations

import hashlib
from typing import Dict

from ..blobstore import BlobStore
from .counterexample import CheckResult

__all__ = ["McCacheError", "McVerdictCache", "verdict_digest"]


class McCacheError(Exception):
    """Raised for malformed cache operations (bad digests, bad roots)."""


def verdict_digest(model_fingerprint: str, formula_key: str,
                   threat_digest: str = "") -> str:
    """Content address of one check: SHA-256 over the three identities."""
    digest = hashlib.sha256()
    digest.update(model_fingerprint.encode())
    digest.update(b"\x00")
    digest.update(formula_key.encode())
    digest.update(b"\x00")
    digest.update(threat_digest.encode())
    return digest.hexdigest()


class McVerdictCache(BlobStore[CheckResult]):
    """Model-checking verdicts (:class:`CheckResult`) by verdict digest."""

    PAYLOAD = "result"
    COUNTER = "mc.verdict_cache_"
    ERROR = McCacheError

    def _encode(self, value: CheckResult) -> Dict:
        return value.to_dict()

    def _decode(self, payload: Dict) -> CheckResult:
        """The stored verdict, marked ``from_cache=True``."""
        result = CheckResult.from_dict(payload)
        result.from_cache = True
        return result
