"""Per-layer metrics of a traced pass, and the exact-count cross-check.

Times (``*_s``) are self times summed over a layer's spans: each span's
duration minus the part of it that child spans cover, so a second spent
inside ``mc.check`` is charged to ``mc`` and not also to ``cegar`` or
the engine.  ``engine.verify_s`` and ``engine.busy_s`` are the
exceptions: they are wall time of the check phase and of property
verification, from which ``engine.utilisation`` is formed.  Counts are
summed over the traced pass's fixed request list, so they repeat
exactly for a given seed.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Tuple

from measure import self_times

#: (name, unit, better) of every end-to-end metric, in report order.
END_TO_END: List[Tuple[str, str, str]] = [
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("jobs_per_s", "1/s", "higher"),
    ("verdicts_per_s", "1/s", "higher"),
    ("execs_per_s", "1/s", "higher"),
    ("analysis_p50_s", "s", "lower"),
    ("cold_job_p50_s", "s", "lower"),
    ("cold_job_p90_s", "s", "lower"),
    ("hit_job_p50_s", "s", "lower"),
]

#: (name, unit, better) of every per-layer metric, in report order.
PER_LAYER: List[Tuple[str, str, str]] = [
    ("mc.check_s", "s", "lower"),
    ("mc.checks", "count", "lower"),
    ("mc.states_explored", "count", "lower"),
    ("mc.product_states", "count", "lower"),
    ("threat.build_s", "s", "lower"),
    ("threat.builds", "count", "lower"),
    ("threat.builds_per_check", "ratio", "lower"),
    ("conformance.run_s", "s", "lower"),
    ("extraction.extract_s", "s", "lower"),
    ("extraction.log_lines", "count", "lower"),
    ("cegar.iterations", "count", "lower"),
    ("cegar.refinements", "count", "lower"),
    ("cpv.validate_s", "s", "lower"),
    ("cpv.step_verdicts", "count", "lower"),
    ("testbed.attack_s", "s", "lower"),
    ("testbed.attacks", "count", "lower"),
    ("engine.verify_s", "s", "lower"),
    ("engine.busy_s", "s", "lower"),
    ("engine.utilisation", "ratio", "higher"),
    ("store.get_s", "s", "lower"),
    ("store.put_s", "s", "lower"),
    ("store.gets", "count", "lower"),
    ("store.puts", "count", "lower"),
    ("store.hit_ratio", "ratio", "higher"),
    ("serve.submit_s", "s", "lower"),
    ("serve.queue_wait_s", "s", "lower"),
    ("serve.run_s", "s", "lower"),
    ("serve.http_s", "s", "lower"),
    ("fuzz.exec_s", "s", "lower"),
    ("fuzz.execs", "count", "higher"),
    ("fuzz.minimize_s", "s", "lower"),
    ("fuzz.minimize_execs", "count", "lower"),
    ("fuzz.mutate_s", "s", "lower"),
    ("fuzz.deviations", "count", "higher"),
    ("fuzz.novel_ratio", "ratio", "higher"),
    ("proc.cpu_s", "s", "lower"),
    ("proc.parallelism", "ratio", "higher"),
] + [(f"trace_overhead.{name}", unit, better)
     for name, unit, better in END_TO_END]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


class LayerSpans:
    """A traced pass's spans, indexed by layer."""

    def __init__(self, spans: List[Dict]):
        self.self_s = self_times([(s["id"], s["parent"], s["start"],
                                   s["end"]) for s in spans])
        self.by_id = {s["id"]: s for s in spans}
        self.layers: Dict[str, List[Dict]] = defaultdict(list)
        for span in spans:
            self.layers[span["name"]].append(span)

    def self_time(self, layer: str) -> float:
        return sum(self.self_s[s["id"]] for s in self.layers[layer])

    def wall(self, layer: str) -> float:
        return sum(s["end"] - s["start"] for s in self.layers[layer])

    def count(self, layer: str) -> int:
        return len(self.layers[layer])

    def total(self, layer: str, key: str) -> float:
        return sum(s["counts"].get(key, 0) for s in self.layers[layer])

    def under(self, span: Dict, layer: str) -> bool:
        """Whether ``span`` has an ancestor span of ``layer``."""
        parent = self.by_id.get(span["parent"])
        while parent is not None:
            if parent["name"] == layer:
                return True
            parent = self.by_id.get(parent["parent"])
        return False


def layer_metrics(spans: List[Dict], facts: Dict[str, float],
                  cpu_s: float, wall_s: float) -> Dict[str, float]:
    """Every per-layer metric except the tracing overheads."""
    t = LayerSpans(spans)
    checks = t.count("mc.check")
    builds = t.count("threat.build")
    gets = t.count("store.get")
    execs = t.layers["fuzz.exec"]
    minimize_execs = sum(1 for s in execs if t.under(s, "fuzz.minimize"))
    campaign_execs = len(execs) - minimize_execs
    verify_capacity = sum((s["end"] - s["start"]) * s["counts"]["width"]
                          for s in t.layers["engine.verify"])
    busy = t.wall("engine.property")
    return {
        "mc.check_s": t.self_time("mc.check"),
        "mc.checks": checks,
        "mc.states_explored": t.total("mc.check", "states_explored"),
        "mc.product_states": t.total("mc.check", "product_states"),
        "threat.build_s": t.self_time("threat.build"),
        "threat.builds": builds,
        "threat.builds_per_check": _ratio(builds, checks),
        "conformance.run_s": t.self_time("conformance.run"),
        "extraction.extract_s": t.self_time("extraction.extract"),
        "extraction.log_lines": t.total("extraction.extract", "log_lines"),
        "cegar.iterations": t.total("cegar", "iterations"),
        "cegar.refinements": t.total("cegar", "refinements"),
        "cpv.validate_s": t.self_time("cpv.validate"),
        "cpv.step_verdicts": t.total("cpv.validate", "step_verdicts"),
        "testbed.attack_s": t.self_time("testbed.attack"),
        "testbed.attacks": t.count("testbed.attack"),
        "engine.verify_s": t.wall("engine.verify"),
        "engine.busy_s": busy,
        "engine.utilisation": _ratio(busy, verify_capacity),
        "store.get_s": t.self_time("store.get"),
        "store.put_s": t.self_time("store.put"),
        "store.gets": gets,
        "store.puts": t.count("store.put"),
        "store.hit_ratio": _ratio(t.total("store.get", "hit"), gets),
        "serve.submit_s": t.self_time("serve.submit"),
        "serve.queue_wait_s": facts.get("serve.queue_wait_s", 0.0),
        "serve.run_s": t.self_time("serve.job"),
        "serve.http_s": facts.get("serve.http_s", 0.0),
        "fuzz.exec_s": t.self_time("fuzz.exec"),
        "fuzz.execs": campaign_execs,
        "fuzz.minimize_s": t.self_time("fuzz.minimize"),
        "fuzz.minimize_execs": minimize_execs,
        "fuzz.mutate_s": t.self_time("fuzz.mutate"),
        "fuzz.deviations": facts.get("fuzz.deviations", 0),
        "fuzz.novel_ratio": _ratio(facts.get("fuzz.corpus_additions", 0),
                                   campaign_execs),
        "proc.cpu_s": cpu_s,
        "proc.parallelism": _ratio(cpu_s, wall_s),
    }


#: Counts the program also reports in its own output (``stats.totals``
#: of ``repro analyze --json`` and of stored reports, or the campaign
#: summary of ``repro fuzz --json``; store traffic follows from the
#: ``/v1`` protocol), with the wrapper target each traced count needs.
CROSS_CHECKS = [
    ("mc.checks", "repro.mc.api.ModelChecker.check"),
    ("mc.states_explored", "repro.mc.api.ModelChecker.check"),
    ("mc.product_states", "repro.mc.api.ModelChecker.check"),
    ("cegar.iterations", "repro.core.engine.check_with_cegar"),
    ("cegar.refinements", "repro.core.engine.check_with_cegar"),
    ("cpv.step_verdicts",
     "repro.core.cegar.CounterexampleValidator.validate"),
    ("testbed.attacks", "repro.core.engine.run_attack"),
    ("extraction.log_lines", "repro.core.engine.extract_model"),
    ("fuzz.execs", "repro.fuzz.fuzzer.run_schedule"),
    ("fuzz.minimize_execs", "repro.fuzz.fuzzer.build_deviation"),
    ("store.gets", "repro.store.ResultStore.get"),
    ("store.puts", "repro.store.ResultStore.put"),
]


def cross_check(metrics: Dict[str, float], reported: Dict[str, float],
                missing: set) -> List[str]:
    """Mismatches between traced counts and the program's own counts.

    Only counts the workload's outputs report are compared, and a count
    whose wrapper target is missing is skipped (its layer reads zero).
    """
    return [f"traced {name} = {metrics[name]} but the program reports "
            f"{reported[name]}"
            for name, target in CROSS_CHECKS
            if name in reported and target not in missing
            and metrics[name] != reported[name]]
