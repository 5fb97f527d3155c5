"""``repro.fuzz`` — coverage-guided NAS fuzzing (ROADMAP item 3).

Deviation discovery as a workload: a seeded corpus scheduler mutates
NAS stimulus schedules, a lockstep differential executor runs each one
against the target *and* the compliant reference, extracted-FSM
transition coverage drives corpus retention (CovFUZZ's feedback signal
over "Learn, Check, Test"'s oracle), and every divergence is
delta-debugged into a replayable, content-addressed
:class:`Deviation` artifact.  Campaigns are deterministic:
``(implementation, seed, budget)`` fixes every digest.

Surfaces: ``repro fuzz`` (CLI, exit code 6 on findings), the ``fuzz``
job type of :mod:`repro.serve`, and ``benchmarks/bench_fuzz.py``.
"""

from .deviation import Deviation, classify, minimize
from .executor import (ExecutionResult, fsm_coverage_universe,
                       run_schedule)
from .fuzzer import (FuzzConfig, FuzzConfigError, FuzzError, FuzzResult,
                     Fuzzer, campaign_digest, run_campaign)
from .schedule import (SEED_SCHEDULES, FuzzScheduleError,
                       mutate_schedule, schedule_digest)

__all__ = [
    "Deviation", "ExecutionResult", "FuzzConfig", "FuzzConfigError",
    "FuzzError", "FuzzResult", "FuzzScheduleError", "Fuzzer",
    "SEED_SCHEDULES", "campaign_digest", "classify",
    "fsm_coverage_universe", "minimize", "mutate_schedule",
    "run_campaign", "run_schedule", "schedule_digest",
]
