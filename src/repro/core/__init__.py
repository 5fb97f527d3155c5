"""ProChecker's core: the CEGAR loop, the engine, the end-to-end pipeline."""

from .cegar import (CegarContext, CegarResult, CounterexampleValidator,
                    StepVerdict, check_with_cegar, harvestable_messages,
                    message_term, threat_config_key)
from .engine import (AnalysisConfig, EngineError, ExtractionCache,
                     ExtractionRecord, ImplementationRun,
                     VerificationEngine, exception_chain,
                     extraction_cache, group_properties, run_extraction,
                     verify_one)
from .report import AnalysisReport, PropertyResult, Verdict
from .prochecker import ProChecker, ProCheckerError, analyze_many
from .dossier import (AttackFinding, Dossier, build_dossier,
                      render_markdown)

__all__ = [
    "CegarContext", "CegarResult", "CounterexampleValidator", "StepVerdict",
    "check_with_cegar", "harvestable_messages", "message_term",
    "threat_config_key",
    "AnalysisConfig", "EngineError", "ExtractionCache", "ExtractionRecord",
    "ImplementationRun", "VerificationEngine", "exception_chain",
    "extraction_cache", "group_properties", "run_extraction", "verify_one",
    "AnalysisReport", "PropertyResult", "Verdict",
    "ProChecker", "ProCheckerError", "analyze_many",
    "AttackFinding", "Dossier", "build_dossier", "render_markdown",
]
