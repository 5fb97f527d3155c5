"""``repro.api`` — the supported public surface of the pipeline.

Everything a downstream consumer should import lives here, re-exported
under one roof with an explicit ``__all__``; anything *not* in this
module is an internal that may change between minor versions without
notice.  The wire-format compatibility policy for every ``to_dict()``
payload these types produce is documented in ``docs/api.md`` and
enforced by :mod:`repro.schema` (``SCHEMA_VERSION``, typed
:class:`~repro.schema.SchemaVersionError` on unknown majors).

Three usage tiers:

- **one-shot**::

      from repro.api import AnalysisConfig, ProChecker
      report = ProChecker.from_config(AnalysisConfig("srsue")).analyze()

- **batch** (one shared worker pool)::

      from repro.api import analyze_many
      reports = analyze_many(["reference", "srsue", "oai"])

- **service** (jobs over HTTP, content-addressed results)::

      from repro.api import AnalysisService, ResultStore, ServeClient

- **fuzzing** (coverage-guided deviation discovery)::

      from repro.api import FuzzConfig, run_campaign
      result = run_campaign(FuzzConfig("srsue", seed=7))
"""

from __future__ import annotations

from .core.cegar import threat_config_digest, threat_config_key
from .core.engine import AnalysisConfig, EngineError, extraction_cache
from .core.prochecker import ProChecker, ProCheckerError, analyze_many
from .core.report import AnalysisReport, PropertyResult, Verdict
from .fuzz import (Deviation, FuzzConfig, FuzzConfigError, FuzzError,
                   FuzzResult, Fuzzer, campaign_digest, run_campaign)
from .lte.channel import ChaosConfig
from .mc import (CheckRequest, CheckResult, McCacheError, McVerdictCache,
                 ModelChecker, verdict_digest)
from .obs.stats import PipelineStats
from .properties import ALL_PROPERTIES, property_by_id
from .schema import SCHEMA_VERSION, SchemaVersionError
from .serve import (AnalysisService, JobJournal, JobRecord, JobStatus,
                    JournalError, QueueFullError, ServeClient,
                    ServeClientError, ServiceDrainingError, ServiceError,
                    create_server)
from .store import (ResultStore, StoreError, implementation_fingerprint,
                    job_digest, job_key)

__all__ = [
    # configuration + one-shot pipeline
    "AnalysisConfig", "ProChecker", "ProCheckerError", "EngineError",
    "analyze_many", "extraction_cache", "ChaosConfig",
    # results + wire contract
    "AnalysisReport", "PropertyResult", "PipelineStats", "Verdict",
    "SCHEMA_VERSION", "SchemaVersionError",
    # property catalog
    "ALL_PROPERTIES", "property_by_id", "threat_config_key",
    "threat_config_digest",
    # model checking
    "CheckRequest", "CheckResult", "ModelChecker",
    "McCacheError", "McVerdictCache", "verdict_digest",
    # content-addressed result store
    "ResultStore", "StoreError", "implementation_fingerprint",
    "job_digest", "job_key",
    # service mode (+ resilience layer: journal, deadlines, backpressure)
    "AnalysisService", "JobJournal", "JobRecord", "JobStatus",
    "JournalError", "QueueFullError", "ServeClient", "ServeClientError",
    "ServiceDrainingError", "ServiceError", "create_server",
    # coverage-guided fuzzing
    "Deviation", "FuzzConfig", "FuzzConfigError", "FuzzError",
    "FuzzResult", "Fuzzer", "campaign_digest", "run_campaign",
]
