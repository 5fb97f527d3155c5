"""The coverage-guided campaign loop: a seeded corpus scheduler.

Determinism contract: a campaign is a pure function of
``(implementation, seed, budget_execs, max_steps)``.  Candidates are
generated in fixed-size batches from one seeded PRNG against the corpus
state at batch start; each batch then executes on the campaign's own
thread, in batch order, and its results fold back in that order — so a
rerun produces byte-identical deviation digests, corpus contents and
coverage counters.  (Executions are CPU-bound pure Python: a thread
pool only added GIL contention.)

Feedback is two-tier, per CovFUZZ adapted to "Learn, Check, Test":

- an input that exercises a *new* coverage key (an extracted-FSM
  transition, or an off-model key — the frontier) joins the corpus;
- an input whose lockstep observations *diverge* from the reference is
  minimised and filed as a :class:`~repro.fuzz.deviation.Deviation`.

``fuzz.*`` obs metrics: ``fuzz.execs``, ``fuzz.corpus_size``,
``fuzz.coverage_transitions``, ``fuzz.coverage_frontier``,
``fuzz.deviations``, ``fuzz.minimize_execs``.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .. import obs, schema
from ..blobstore import write_json
from ..lte.implementations import IMPLEMENTATION_NAMES
from .deviation import Deviation, build_deviation
from .executor import (CoverageKey, ExecutionResult, fsm_coverage_universe,
                       run_schedule)
from .schedule import (DEFAULT_MAX_STEPS, SEED_SCHEDULES, Step,
                       canonical_json, clone_schedule, mutate_schedule,
                       schedule_digest)


class FuzzError(Exception):
    """Raised when a campaign cannot run (bad artifact, IO failure)."""


class FuzzConfigError(FuzzError, ValueError):
    """Raised for an invalid campaign configuration payload."""


#: Candidates generated per scheduling round.  Fixed, because batch
#: composition is part of the deterministic schedule.
BATCH_SIZE = 8

#: Per-campaign cap on minimisation work (each deviation costs tens of
#: executions to shrink; a pathological target must not starve the
#: budget-bounded discovery loop).
MAX_MINIMIZATIONS = 32


@dataclass
class FuzzConfig:
    """One campaign: target, seed, budget — the campaign's identity."""

    implementation: str
    seed: int = 0
    budget_execs: int = 400
    max_steps: int = DEFAULT_MAX_STEPS
    corpus_dir: Optional[str] = None
    reference: str = "reference"

    def __post_init__(self):
        if self.implementation not in IMPLEMENTATION_NAMES:
            raise FuzzConfigError(
                f"unknown implementation {self.implementation!r}; "
                f"choose from {IMPLEMENTATION_NAMES}")
        if self.reference not in IMPLEMENTATION_NAMES:
            raise FuzzConfigError(
                f"unknown reference {self.reference!r}")
        if self.budget_execs < 1:
            raise FuzzConfigError("budget_execs must be >= 1")
        if self.max_steps < 1:
            raise FuzzConfigError("max_steps must be >= 1")

    def to_dict(self) -> Dict[str, object]:
        return schema.stamp({
            "type": "fuzz",
            "implementation": self.implementation,
            "seed": self.seed,
            "budget_execs": self.budget_execs,
            "max_steps": self.max_steps,
            "corpus_dir": self.corpus_dir,
            "reference": self.reference,
        })

    @classmethod
    def from_dict(cls, payload: Dict) -> "FuzzConfig":
        schema.check(payload, kind="fuzz config")
        try:
            return cls(
                implementation=str(payload["implementation"]),
                seed=int(payload.get("seed", 0)),
                budget_execs=int(payload.get("budget_execs", 400)),
                max_steps=int(payload.get("max_steps",
                                          DEFAULT_MAX_STEPS)),
                corpus_dir=payload.get("corpus_dir"),
                reference=str(payload.get("reference", "reference")),
            )
        except KeyError as exc:
            raise FuzzConfigError(
                f"fuzz payload missing {exc.args[0]!r}") from None
        except (TypeError, ValueError) as exc:
            if isinstance(exc, FuzzConfigError):
                raise
            raise FuzzConfigError(f"bad fuzz payload: {exc}") from None


def campaign_digest(config: FuzzConfig) -> str:
    """Content address of a campaign's deterministic identity.

    ``corpus_dir`` is excluded: the corpus directory is a persistence
    location, not an input.
    """
    identity = {
        "kind": "fuzz",
        "implementation": config.implementation,
        "reference": config.reference,
        "seed": config.seed,
        "budget_execs": config.budget_execs,
        "max_steps": config.max_steps,
    }
    return hashlib.sha256(canonical_json(identity).encode()).hexdigest()


@dataclass
class FuzzResult:
    """Everything a finished campaign produced."""

    config: FuzzConfig
    campaign: str
    execs: int
    corpus_size: int
    #: extracted-FSM transitions the campaign exercised
    coverage_transitions: int
    #: size of the extracted-FSM transition universe (the denominator)
    coverage_universe: int
    #: observed coverage keys outside the extracted machine
    coverage_frontier: int
    deviations: List[Deviation] = field(default_factory=list)
    #: per-batch ``{execs, coverage, frontier, corpus_size, deviations}``
    trajectory: List[Dict[str, int]] = field(default_factory=list)
    minimize_execs: int = 0

    @property
    def found_deviations(self) -> bool:
        return bool(self.deviations)

    def summary(self) -> Dict[str, object]:
        """The compact wire form (job records, CLI ``--json``)."""
        return schema.stamp({
            "campaign": self.campaign,
            "implementation": self.config.implementation,
            "reference": self.config.reference,
            "seed": self.config.seed,
            "execs": self.execs,
            "corpus_size": self.corpus_size,
            "coverage_transitions": self.coverage_transitions,
            "coverage_universe": self.coverage_universe,
            "coverage_frontier": self.coverage_frontier,
            "minimize_execs": self.minimize_execs,
            "deviations": [d.to_dict() for d in self.deviations],
            "trajectory": [dict(point) for point in self.trajectory],
        })


class Fuzzer:
    """Run one deterministic coverage-guided campaign."""

    def __init__(self, config: FuzzConfig):
        self.config = config
        self.campaign = campaign_digest(config)
        self._rng = random.Random(
            f"fuzz|{config.seed}|{config.implementation}"
            f"|{config.reference}")

    # ------------------------------------------------------------------
    def run(self) -> FuzzResult:
        config = self.config
        with obs.span("fuzz.campaign",
                      implementation=config.implementation,
                      seed=config.seed, budget=config.budget_execs):
            return self._run()

    def _run(self) -> FuzzResult:
        config = self.config
        universe = self._coverage_universe()
        corpus: List[List[Step]] = []
        corpus_digests: Set[str] = set()
        pending: List[List[Step]] = [
            clone_schedule(steps) for steps in SEED_SCHEDULES]
        pending.extend(self._load_corpus_dir())
        coverage: Set[CoverageKey] = set()
        seen_signatures: Set[Tuple] = set()
        deviations: Dict[str, Deviation] = {}
        trajectory: List[Dict[str, int]] = []
        execs = 0
        minimize_execs = 0

        while execs < config.budget_execs:
            batch = self._next_batch(
                pending, corpus, config.budget_execs - execs)
            for steps in batch:
                result = self._run_one(steps)
                execs += 1
                obs.count("fuzz.execs")
                novel = result.coverage - coverage
                if novel or not corpus:
                    coverage |= novel
                    digest = schedule_digest(steps)
                    if digest not in corpus_digests:
                        corpus_digests.add(digest)
                        corpus.append(steps)
                        self._persist_corpus_entry(digest, steps)
                if result.diverged:
                    spent = self._fold_divergence(
                        steps, result, execs, seen_signatures,
                        deviations)
                    minimize_execs += spent
            trajectory.append({
                "execs": execs,
                "coverage": len(coverage & universe),
                "frontier": len(coverage - universe),
                "corpus_size": len(corpus),
                "deviations": len(deviations),
            })

        obs.gauge_max("fuzz.corpus_size", len(corpus))
        obs.gauge_max("fuzz.coverage_transitions",
                      len(coverage & universe))
        obs.gauge_max("fuzz.coverage_frontier", len(coverage - universe))
        ordered = sorted(deviations.values(),
                         key=lambda d: (d.found_at_exec, d.digest))
        return FuzzResult(
            config=config,
            campaign=self.campaign,
            execs=execs,
            corpus_size=len(corpus),
            coverage_transitions=len(coverage & universe),
            coverage_universe=len(universe),
            coverage_frontier=len(coverage - universe),
            deviations=ordered,
            trajectory=trajectory,
            minimize_execs=minimize_execs,
        )

    # ------------------------------------------------------------------
    def _coverage_universe(self) -> Set[CoverageKey]:
        from ..core.prochecker import ProChecker

        fsm = ProChecker(self.config.implementation).extract()
        return fsm_coverage_universe(fsm)

    def _next_batch(self, pending: List[List[Step]],
                    corpus: List[List[Step]],
                    remaining: int) -> List[List[Step]]:
        batch: List[List[Step]] = []
        size = min(BATCH_SIZE, remaining)
        while pending and len(batch) < size:
            batch.append(pending.pop(0))
        while len(batch) < size:
            parent = (self._rng.choice(corpus) if corpus
                      else clone_schedule(SEED_SCHEDULES[0]))
            batch.append(mutate_schedule(parent, self._rng,
                                         self.config.max_steps))
        return batch

    def _run_one(self, steps: Sequence[Step]) -> ExecutionResult:
        return run_schedule(self.config.implementation, steps,
                            reference=self.config.reference)

    def _fold_divergence(self, steps: List[Step],
                         result: ExecutionResult, execs: int,
                         seen_signatures: Set[Tuple],
                         deviations: Dict[str, Deviation]) -> int:
        signature = result.divergence_signature()
        if signature in seen_signatures:
            return 0
        seen_signatures.add(signature)
        if len(seen_signatures) > MAX_MINIMIZATIONS:
            obs.count("fuzz.minimizations_skipped")
            return 0
        deviation = build_deviation(
            self.config.implementation, self.config.reference,
            steps, signature, found_at_exec=execs,
            runner=self._run_one)
        if deviation is None:
            return 0
        obs.count("fuzz.minimize_execs", deviation.minimize_execs)
        if deviation.digest not in deviations:
            deviations[deviation.digest] = deviation
            obs.count("fuzz.deviations")
            self._persist_deviation(deviation)
        return deviation.minimize_execs

    # ------------------------------------------------------------------
    # Corpus-directory persistence
    # ------------------------------------------------------------------
    def _corpus_root(self) -> Optional[Path]:
        if self.config.corpus_dir is None:
            return None
        return Path(self.config.corpus_dir)

    def _load_corpus_dir(self) -> List[List[Step]]:
        """Replay previously persisted corpus entries (sorted order)."""
        root = self._corpus_root()
        if root is None or not (root / "corpus").is_dir():
            return []
        loaded: List[List[Step]] = []
        for path in sorted((root / "corpus").glob("*.json")):
            try:
                payload = json.loads(path.read_text())
                schema.check(payload, kind="fuzz corpus entry")
                steps = clone_schedule(payload["steps"])
            except (OSError, ValueError, KeyError) as exc:
                raise FuzzError(
                    f"corrupt corpus entry {path}: {exc}") from exc
            loaded.append(steps)
        obs.count("fuzz.corpus_loaded", len(loaded))
        return loaded

    def _persist_corpus_entry(self, digest: str,
                              steps: Sequence[Step]) -> None:
        root = self._corpus_root()
        if root is None:
            return
        payload = schema.stamp({"digest": digest,
                                "steps": clone_schedule(steps)})
        write_json(root / "corpus" / f"{digest}.json", payload, pretty=True,
                   unlink_counter="fuzz.tmp_unlink_failures")

    def _persist_deviation(self, deviation: Deviation) -> None:
        root = self._corpus_root()
        if root is None:
            return
        write_json(root / "deviations" / f"{deviation.digest}.json",
                   deviation.to_dict(), pretty=True,
                   unlink_counter="fuzz.tmp_unlink_failures")


def run_campaign(config: FuzzConfig) -> FuzzResult:
    """Convenience wrapper: configure, run, return the result."""
    return Fuzzer(config).run()
