"""Content-addressed, persistent result store for analysis reports.

The store is what makes analyses *idempotent, addressable jobs*: a
finished :class:`~repro.core.report.AnalysisReport` is filed under a
digest derived from everything its verdicts are a pure function of —

- the **implementation fingerprint** (a content hash of the
  implementation's source module, so editing ``srsue_like.py``
  invalidates every cached srsUE report);
- the **catalog hash** of the resolved property selection (identifier,
  instantiated formula, canonical threat-configuration key, testbed
  experiment — the same canonicalisation
  :func:`~repro.core.cegar.threat_config_key` uses for model sharing);
- the **chaos spec** (seed, rates, scope, consensus width), because a
  perturbed extraction may legitimately change the model;
- the CEGAR iteration budget.

Scheduling knobs (``jobs``, the group timeout) are *excluded*: the
engine's determinism contract guarantees a ``--jobs 4`` run is
verdict-identical to a serial one, so both must hit the same entry.
Configs that can change verdicts non-reproducibly (an installed fault
plan) are **uncacheable** and raise :class:`StoreError`.

Layout, atomic writes and quarantine-as-miss are those of
:class:`repro.blobstore.BlobStore`: one ``{"digest", "key", "report"}``
JSON envelope per entry at ``<root>/ab/abcdef....json``; a corrupted or
wire-incompatible entry is moved to ``<root>/quarantine`` and reported
as a miss instead of crashing the reader.  Hits, misses, writes and
quarantines are counted in the :mod:`repro.obs` registry (``store.*``).
"""

from __future__ import annotations

import hashlib
import inspect
import json
import sys
from typing import Dict

from ..blobstore import BlobStore
from ..core.cegar import MAX_CEGAR_ITERATIONS, threat_config_key
from ..core.engine import AnalysisConfig
from ..lte.implementations import REGISTRY
# The per-verdict model-checking cache lives in repro.mc.cache (the
# store package imports repro.core, which imports repro.mc — defining
# it here would close an import cycle) but is re-exported as part of
# the persistence surface.  Note ``AnalysisConfig.mc_cache_dir`` is a
# warmth knob only: it is *not* part of job_key/job_digest, because a
# warm MC cache must never change what an analysis concludes.
from ..mc.cache import McCacheError, McVerdictCache, verdict_digest
from ..properties.spec import EXTRACTED_VOCAB, KIND_LTL

__all__ = [
    "ResultStore", "StoreError", "implementation_fingerprint",
    "catalog_digest", "job_key", "job_digest",
    "McCacheError", "McVerdictCache", "verdict_digest",
]


class StoreError(Exception):
    """Raised for uncacheable configs and malformed store operations."""


# ---------------------------------------------------------------------------
# Job identity
# ---------------------------------------------------------------------------
def implementation_fingerprint(implementation: str) -> str:
    """Content hash of the implementation under analysis.

    Digests the source of the module defining the registered UE class
    (plus the class qualname and the package version), so a behavioural
    edit to the implementation — or a pipeline release — invalidates
    every report cached for it.
    """
    if implementation not in REGISTRY:
        raise StoreError(f"unknown implementation {implementation!r}; "
                         f"available: {sorted(REGISTRY)}")
    ue_class = REGISTRY[implementation]
    module = sys.modules[ue_class.__module__]
    from .. import __version__
    digest = hashlib.sha256()
    digest.update(inspect.getsource(module).encode())
    digest.update(ue_class.__qualname__.encode())
    digest.update(__version__.encode())
    return digest.hexdigest()


def catalog_digest(config: AnalysisConfig) -> str:
    """Hash of the resolved property selection, in canonical form.

    Each property contributes its identifier, kind, the formula
    *instantiated* for the extracted-model vocabulary, the canonical
    threat-configuration key, the testbed experiment id, and the
    verification budget — everything the verdict depends on besides the
    models themselves.
    """
    rows = []
    for prop in config.resolved_properties():
        threat = (threat_config_key(prop.threat)
                  if prop.kind == KIND_LTL else ())
        formula = (prop.formula_for(EXTRACTED_VOCAB)
                   if prop.kind == KIND_LTL else "")
        rows.append((prop.identifier, prop.kind, formula, repr(threat),
                     prop.testbed_attack))
    digest = hashlib.sha256()
    digest.update(repr(MAX_CEGAR_ITERATIONS).encode())
    for row in rows:
        digest.update(repr(row).encode())
    return digest.hexdigest()


def job_key(config: AnalysisConfig) -> Dict:
    """The canonical, JSON-ready identity of one analysis job.

    Raises :class:`StoreError` for uncacheable configs (fault plans) —
    serving a stored report for one of those would return results the
    submitted job could not have produced.
    """
    if config.fault_plan is not None:
        raise StoreError("configs with an installed fault plan are "
                         "uncacheable (injected faults change verdicts)")
    return {
        "implementation": config.implementation,
        "implementation_fingerprint":
            implementation_fingerprint(config.implementation),
        "catalog": catalog_digest(config),
        "chaos": (config.chaos.to_dict()
                  if config.chaos is not None else None),
        "chaos_runs": config.chaos_runs if config.chaos is not None else 1,
    }


def job_digest(config: AnalysisConfig) -> str:
    """Content address of the job: SHA-256 of the canonical key JSON."""
    canonical = json.dumps(job_key(config), sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


# ---------------------------------------------------------------------------
# The store
# ---------------------------------------------------------------------------
class ResultStore(BlobStore[Dict]):
    """Analysis reports (``AnalysisReport.to_dict()``) by job digest."""

    PAYLOAD = "report"
    COUNTER = "store."
    ERROR = StoreError
