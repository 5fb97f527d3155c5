"""Command-line interface: ``python -m repro <command>``.

Commands mirror the pipeline stages so each is scriptable on its own:

- ``analyze <impl>``  — full pipeline, per-property report + attack list;
- ``extract <impl>``  — conformance run + extraction; prints the FSM (or
  writes the Graphviz-like model with ``--dot``);
- ``verify <impl> <property-id>`` — one property through the CEGAR loop,
  with the counterexample trace on violation;
- ``attack <attack-id> <impl>`` — one testbed attack script end-to-end;
- ``gaps <impl>``     — missing-stimulus report (candidate test cases the
  suite does not exercise — the paper's "detecting missing test cases");
- ``lint``            — static spec/model/implementation analysis
  (``PCL0xx`` findings; exit 5 on gating findings);
- ``fuzz <impl>``     — coverage-guided lockstep fuzzing against the
  reference implementation; minimised deviations exit 6 and replay
  via ``--replay FILE``;
- ``serve``           — long-running service mode: analysis jobs over the
  ``/v1`` HTTP JSON API, a scheduler over ``--workers`` job slots, and
  a persistent content-addressed result store.

Every subcommand that emits a result supports ``--json``; every JSON
payload is stamped with the wire-format ``schema_version``
(:mod:`repro.schema`).  The exit-code table is generated into
``docs/CLI.md`` by ``python -m repro.docgen``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from . import faults, obs, schema
from .core import AnalysisConfig, ProChecker, Verdict
from .fsm import missing_stimuli, to_dot
from .lte import constants as c
from .lte.channel import ChaosConfig, ChaosConfigError
from .lte.implementations import IMPLEMENTATION_NAMES
from .properties import ALL_PROPERTIES, property_by_id
from .testbed import registry, run_attack

TRACE_COLUMNS = ("turn", "ue_state", "chan_dl", "chan_ul", "dl_sqn_rel",
                 "dl_count_rel", "dl_mac_valid", "dl_plain", "dl_replayed",
                 "dl_injected")

#: Single source of truth for verdict → process exit code.
EXIT_CODES = {
    Verdict.VERIFIED: 0,
    Verdict.VIOLATED: 1,
    Verdict.NOT_APPLICABLE: 3,
    Verdict.ERROR: 4,
}

#: ``repro lint`` exit code when gating (warning/error) findings remain.
#: Distinct from the verdict codes above so CI can tell a lint failure
#: from a property violation.
LINT_FINDINGS_EXIT_CODE = 5
assert LINT_FINDINGS_EXIT_CODE not in EXIT_CODES.values()
EXIT_CODES["lint_findings"] = LINT_FINDINGS_EXIT_CODE

#: ``repro fuzz`` exit code when a campaign found (or ``--replay``
#: reproduced) at least one deviation.  Distinct from code 1: a fuzz
#: deviation is an *implementation-vs-reference* divergence, not a
#: verified property violation.
FUZZ_DEVIATIONS_EXIT_CODE = 6
assert FUZZ_DEVIATIONS_EXIT_CODE not in EXIT_CODES.values()
EXIT_CODES["fuzz_deviations"] = FUZZ_DEVIATIONS_EXIT_CODE

#: One-line meaning per exit code — the single source the generated
#: ``docs/CLI.md`` table (``python -m repro.docgen``) renders from.
#: Exit code 2 is argparse/usage failure by Unix convention.
EXIT_CODE_MEANINGS = {
    0: ("success", "analysis completed; no violation, gating finding "
                   "or checker error to signal"),
    1: ("violated", "a property was violated / an attack succeeded / "
                    "an unstable consensus extraction"),
    2: ("usage", "bad arguments: unknown property or attack id, "
                 "malformed --chaos/--inject-fault spec"),
    3: ("not-applicable", "the verified property does not apply to "
                          "this implementation"),
    4: ("checker-error", "the report is complete but contains "
                         "Verdict.ERROR rows (crash isolation)"),
    5: ("lint-findings", "repro lint found gating (warning/error) "
                         "findings beyond the baseline"),
    6: ("deviations-found", "repro fuzz found at least one deviation "
                            "from the reference (or --replay "
                            "reproduced one)"),
}


def _emit_json(payload) -> None:
    """Print a machine-readable result, stamped with the wire version.

    Every JSON payload a subcommand emits crosses a process boundary,
    so it carries ``schema_version`` exactly like the HTTP API's
    responses do; payloads whose ``to_dict`` already stamped themselves
    pass through unchanged.
    """
    if isinstance(payload, dict) and schema.SCHEMA_KEY not in payload:
        payload = schema.stamp(dict(payload))
    print(json.dumps(payload, indent=2, sort_keys=True, default=str))


def _add_chaos_options(parser: argparse.ArgumentParser) -> None:
    """The shared ``--chaos*`` flags of ``analyze`` and ``extract``."""
    parser.add_argument("--chaos", nargs="?", const="default", default=None,
                        metavar="SPEC",
                        help="impair the radio link deterministically, "
                             "e.g. --chaos drop=0.05,dup=0.02 or bare "
                             "--chaos for the default profile "
                             "(downlink drop 0.05); dl./ul. prefixes "
                             "scope a rate to one direction")
    parser.add_argument("--chaos-seed", type=int, default=0, metavar="S",
                        help="chaos PRNG seed (default 0); same seed + "
                             "same spec = identical impairment schedule")
    parser.add_argument("--chaos-runs", type=int, default=1, metavar="N",
                        help="with N >= 2, extract a consensus FSM over "
                             "N runs under seeds S..S+N-1 and report "
                             "run-to-run stability")


def _parse_chaos(args: argparse.Namespace) -> Optional[ChaosConfig]:
    """Resolve the ``--chaos*`` flags; raises ChaosConfigError."""
    if args.chaos is None:
        if args.chaos_runs != 1:
            raise ChaosConfigError("--chaos-runs needs --chaos")
        return None
    if args.chaos_runs < 1:
        raise ChaosConfigError("--chaos-runs must be >= 1")
    return ChaosConfig.parse(args.chaos, seed=args.chaos_seed)


def _emit_observability(args: argparse.Namespace, report) -> None:
    """Honour ``--trace-out`` / ``--profile`` after a pipeline run."""
    if getattr(args, "trace_out", None):
        written = obs.write_trace(args.trace_out, obs.drain_spans(),
                                  report.stats)
        print(f"wrote {written} trace records to {args.trace_out}",
              file=sys.stderr)
    if getattr(args, "profile", False) and report.stats is not None:
        # JSON mode keeps stdout machine-readable; the table goes to
        # stderr there.
        stream = sys.stderr if getattr(args, "json", False) else sys.stdout
        print(report.stats.format_table(), file=stream)


def _cmd_analyze(args: argparse.Namespace) -> int:
    plan = None
    if args.inject_fault:
        try:
            plan = faults.FaultPlan.parse(args.inject_fault)
        except faults.FaultSpecError as exc:
            print(f"bad --inject-fault: {exc}", file=sys.stderr)
            return 2
        print(f"fault plan installed: {plan.describe()}", file=sys.stderr)
    try:
        chaos = _parse_chaos(args)
    except ChaosConfigError as exc:
        print(f"bad --chaos: {exc}", file=sys.stderr)
        return 2
    if chaos is not None:
        print(f"chaos channel enabled: {chaos.describe()}",
              file=sys.stderr)
    config = AnalysisConfig(args.implementation, jobs=args.jobs,
                            group_timeout_seconds=args.group_timeout,
                            fault_plan=plan,
                            chaos=chaos, chaos_runs=args.chaos_runs,
                            mc_cache_dir=args.mc_cache)
    report = ProChecker.from_config(config).analyze()
    # A report containing checker errors is still complete (that is the
    # crash-isolation contract) but the exit code must say so.
    status = EXIT_CODES[Verdict.ERROR] if report.errors() else 0
    if args.json:
        _emit_json(report.to_dict())
        _emit_observability(args, report)
        return status
    print(report.format_table())
    print("\nDetected attacks:")
    for attack in sorted(report.detected_attacks()):
        print(f"  {attack}")
    print(f"\n{report.jobs} worker(s), "
          f"{report.verification_seconds:.2f}s verification")
    _emit_observability(args, report)
    return status


def _cmd_extract(args: argparse.Namespace) -> int:
    try:
        chaos = _parse_chaos(args)
    except ChaosConfigError as exc:
        print(f"bad --chaos: {exc}", file=sys.stderr)
        return 2
    config = AnalysisConfig(args.implementation, chaos=chaos,
                            chaos_runs=args.chaos_runs)
    checker = ProChecker.from_config(config)
    fsm = checker.extract()
    stability = checker.stability
    # An unstable consensus (quarantined transitions, or a clean model
    # that no longer embeds) is the CI-gating outcome of this command.
    status = 0 if stability is None or stability.stable else 1
    if args.stability_out:
        if stability is None:
            print("--stability-out needs --chaos with --chaos-runs >= 2",
                  file=sys.stderr)
            return 2
        with open(args.stability_out, "w") as handle:
            json.dump(stability.to_dict(), handle, indent=2,
                      sort_keys=True)
            handle.write("\n")
        print(f"wrote stability report to {args.stability_out}",
              file=sys.stderr)
    if args.dot:
        with open(args.dot, "w") as handle:
            handle.write(to_dot(fsm))
        print(f"wrote {len(fsm.transitions)}-transition model to "
              f"{args.dot}")
        return status
    if args.json:
        payload = {
            "implementation": args.implementation,
            "fsm_summary": fsm.summary(),
            "fingerprint": fsm.fingerprint(),
            "transitions": [t.describe() for t in sorted(fsm.transitions)],
            "stability": (stability.to_dict()
                          if stability is not None else None),
        }
        _emit_json(payload)
        return status
    print(f"{fsm.name}: {len(fsm.states)} states, "
          f"{len(fsm.transitions)} transitions")
    for transition in sorted(fsm.transitions):
        print(f"  {transition.describe()}")
    if stability is not None:
        flag = "stable" if stability.stable else "UNSTABLE"
        print(f"consensus over {stability.runs} chaos runs: {flag} "
              f"({len(stability.quarantined)} quarantined, "
              f"{len(stability.flaky)} flaky, fingerprint agreement "
              f"{stability.fingerprint_agreement:.2f})")
    return status


def _cmd_verify(args: argparse.Namespace) -> int:
    try:
        prop = property_by_id(args.property_id)
    except KeyError:
        print(f"unknown property {args.property_id!r}; known ids:",
              file=sys.stderr)
        for known in ALL_PROPERTIES:
            print(f"  {known.identifier}: {known.description[:60]}",
                  file=sys.stderr)
        return 2
    checker = ProChecker(args.implementation)
    result = checker.verify_property(prop)
    if args.json:
        _emit_json(result.to_dict())
    else:
        print(f"{prop.identifier} ({prop.category}): {prop.description}")
        print(f"verdict: {result.outcome.value} "
              f"({result.iterations} CEGAR iterations, "
              f"{result.elapsed_seconds:.2f}s)")
        if result.evidence:
            print(f"evidence: {result.evidence}")
        if result.counterexample is not None and not args.quiet:
            print("\ncounterexample:")
            print(result.counterexample.format(TRACE_COLUMNS))
    return EXIT_CODES[result.outcome]


def _cmd_attack(args: argparse.Namespace) -> int:
    if args.attack_id not in registry():
        print(f"unknown attack {args.attack_id!r}; known:",
              file=sys.stderr)
        for known in sorted(registry()):
            print(f"  {known}", file=sys.stderr)
        return 2
    result = run_attack(args.attack_id, args.implementation)
    if args.json:
        _emit_json(result.to_dict())
        return 1 if result.succeeded else 0
    status = "SUCCEEDED" if result.succeeded else "failed"
    print(f"{args.attack_id} on {args.implementation}: {status}")
    print(f"evidence: {result.evidence}")
    for key, value in result.details.items():
        print(f"  {key}: {value}")
    return 1 if result.succeeded else 0


def _cmd_report(args: argparse.Namespace) -> int:
    """Full analysis rendered as a disclosure-style findings document."""
    from .core import build_dossier, render_markdown

    config = AnalysisConfig(args.implementation, jobs=args.jobs)
    report = ProChecker.from_config(config).analyze()
    _emit_observability(args, report)
    dossier = build_dossier(report,
                            validate_on_testbed=not args.no_testbed)
    if args.json:
        _emit_json(dossier.to_dict())
        return 0
    text = render_markdown(dossier)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text)
        print(f"wrote findings for {len(dossier.findings)} attacks to "
              f"{args.output}")
    else:
        print(text)
    return 0


def _cmd_smv(args: argparse.Namespace) -> int:
    """Export the threat-instrumented model (+ property) as NuXmv input."""
    from .baselines import lteinspector_mme
    from .mc import CheckRequest, ModelChecker
    from .properties import EXTRACTED_VOCAB
    from .threat import ThreatInstrumentor

    try:
        prop = property_by_id(args.property_id)
    except KeyError:
        print(f"unknown property {args.property_id!r}", file=sys.stderr)
        return 2
    if prop.kind != "ltl":
        print(f"{prop.identifier} is a testbed/CPV property; only LTL "
              f"properties export to SMV", file=sys.stderr)
        return 2
    ue_model = ProChecker(args.implementation).extract()
    model = ThreatInstrumentor(ue_model, lteinspector_mme(),
                               prop.threat).build(prop.identifier)
    text = ModelChecker().export_smv(model, CheckRequest(
        formula=prop.formula_for(EXTRACTED_VOCAB), name=prop.identifier))
    if args.json:
        _emit_json({
            "implementation": args.implementation,
            "property": prop.identifier,
            "smv": text,
        })
        return 0
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text)
        print(f"wrote {len(text.splitlines())} lines to {args.output}")
    else:
        print(text)
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    """Static analysis over the catalog, the source, and the FSMs."""
    from .lint import LintError, run_lint
    from .lint.baseline import Baseline
    from .lint.findings import RULES
    from .lint.runner import default_baseline_path

    if args.rules:
        if args.json:
            _emit_json({"rules": [
                {"id": rule.identifier, "family": rule.family,
                 "severity": rule.severity.value, "summary": rule.summary}
                for rule in RULES.values()]})
        else:
            for rule in RULES.values():
                print(f"{rule.identifier} [{rule.family}/"
                      f"{rule.severity.value}] {rule.summary}")
        return 0

    baseline_path = (None if args.no_baseline
                     else args.baseline or default_baseline_path())
    try:
        report = run_lint(
            implementations=args.impl or None,
            run_xcheck=not args.no_xcheck,
            baseline_path=None if args.write_baseline else baseline_path,
            catalog_module=args.catalog,
            run_taint=args.taint,
            taint_modules=args.taint_impl,
        )
    except LintError as exc:
        print(f"lint failed: {exc}", file=sys.stderr)
        return 2

    if args.write_baseline:
        # Only gating findings need suppressing; info findings (e.g. the
        # expected Table I deviations) stay visible in every run.
        target = args.baseline or default_baseline_path()
        count = Baseline.write(target, report.gating)
        print(f"wrote {count} suppression(s) to {target}")
        return 0
    if args.json:
        _emit_json(report.to_dict())
    else:
        print(report.format_text())
    return LINT_FINDINGS_EXIT_CODE if report.gating else 0


def _cmd_gaps(args: argparse.Namespace) -> int:
    fsm = ProChecker(args.implementation).extract()
    gaps = missing_stimuli(fsm, alphabet=set(c.DOWNLINK_MESSAGES))
    if args.json:
        _emit_json({
            "implementation": args.implementation,
            "total": len(gaps),
            "gaps": [{"state": gap.state, "trigger": gap.trigger,
                      "suggested_test_case": gap.suggested_test_case()}
                     for gap in gaps[:args.limit]],
        })
        return 0
    print(f"{len(gaps)} (state, stimulus) pairs with no observed "
          f"behaviour — candidate missing test cases:")
    for gap in gaps[:args.limit]:
        print(f"  {gap.suggested_test_case()}")
    if len(gaps) > args.limit:
        print(f"  ... and {len(gaps) - args.limit} more "
              f"(raise --limit to see them)")
    return 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    """Coverage-guided lockstep fuzzing (or deviation replay)."""
    from .fuzz import FuzzConfig, FuzzConfigError, FuzzError, Fuzzer
    from .testbed.experiments import replay_deviation

    if args.replay is not None:
        try:
            payload = json.loads(Path(args.replay).read_text())
        except (OSError, ValueError) as exc:
            print(f"cannot load deviation {args.replay}: {exc}",
                  file=sys.stderr)
            return 2
        try:
            outcome = replay_deviation(payload)
        except (KeyError, TypeError, ValueError,
                schema.SchemaVersionError) as exc:
            print(f"malformed deviation artifact: {exc}", file=sys.stderr)
            return 2
        if args.json:
            _emit_json(outcome.to_dict())
        else:
            verdict = ("REPRODUCED" if outcome.succeeded
                       else "did not reproduce")
            print(f"{outcome.attack_id} on {outcome.implementation}: "
                  f"{verdict} ({outcome.evidence})")
        return FUZZ_DEVIATIONS_EXIT_CODE if outcome.succeeded else 0

    try:
        config = FuzzConfig(
            implementation=args.implementation,
            seed=args.seed,
            budget_execs=args.budget_execs,
            max_steps=args.max_steps,
            corpus_dir=args.corpus_dir,
        )
    except FuzzConfigError as exc:
        print(f"bad fuzz configuration: {exc}", file=sys.stderr)
        return 2
    try:
        result = Fuzzer(config).run()
    except FuzzError as exc:
        print(f"fuzz campaign failed: {exc}", file=sys.stderr)
        return 2
    if args.json:
        _emit_json(result.summary())
    else:
        print(f"campaign {result.campaign[:12]} on "
              f"{config.implementation}: {result.execs} execs, "
              f"coverage {result.coverage_transitions}"
              f"/{result.coverage_universe} transitions "
              f"(+{result.coverage_frontier} beyond the extracted FSM), "
              f"corpus {result.corpus_size}")
        for deviation in result.deviations:
            label = deviation.classification or "novel"
            print(f"  deviation {deviation.digest[:12]} [{label}] "
                  f"at exec {deviation.found_at_exec}: "
                  f"{len(deviation.schedule)} step(s) "
                  f"(raw {deviation.raw_steps})")
        if not result.deviations:
            print("  no deviations from the reference")
        elif config.corpus_dir:
            print(f"  artifacts under {config.corpus_dir}/deviations/")
    return FUZZ_DEVIATIONS_EXIT_CODE if result.found_deviations else 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Long-running service mode: HTTP /v1 API + scheduler + store."""
    import signal
    import threading

    from .serve import AnalysisService, JobJournal, create_server
    from .store import ResultStore

    if args.workers < 1:
        print("--workers must be >= 1", file=sys.stderr)
        return 2
    if args.max_queue is not None and args.max_queue < 1:
        print("--max-queue must be >= 1", file=sys.stderr)
        return 2
    if args.deadline is not None and args.deadline <= 0:
        print("--deadline must be > 0", file=sys.stderr)
        return 2
    plan = None
    if args.inject_fault:
        try:
            plan = faults.FaultPlan.parse(args.inject_fault)
        except faults.FaultSpecError as exc:
            print(f"bad --inject-fault: {exc}", file=sys.stderr)
            return 2
        # Serve jobs run on threads in this process, so the plan is
        # installed here rather than shipped through a job config
        # (fault-plan submissions are rejected by the service).
        faults.install(plan)
        print(f"fault plan installed: {plan.describe()}", file=sys.stderr)
    store = ResultStore(args.store_dir)
    journal = JobJournal(args.journal) if args.journal else None
    service = AnalysisService(store, workers=args.workers,
                              default_engine_jobs=args.jobs,
                              journal=journal,
                              max_queue=args.max_queue,
                              default_deadline_seconds=args.deadline)
    try:
        service.start()
    finally:
        if plan is not None and not service.started:
            faults.clear()
    server = create_server(args.host, args.port, service,
                           quiet=not args.verbose)
    durability = (f", journal at {journal.root}" if journal else "")
    print(f"repro serve: listening on http://{args.host}:{server.port} "
          f"({args.workers} worker(s), store at {store.root}"
          f"{durability})",
          file=sys.stderr)

    # Graceful lifecycle: SIGTERM/SIGINT flips the event; the main
    # thread then drains (finish in-flight, leave the rest journaled)
    # before tearing the server down.
    shutdown = threading.Event()

    def _request_shutdown(signum, frame):
        shutdown.set()

    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, _request_shutdown)
    server_thread = threading.Thread(target=server.serve_forever,
                                     name="serve-http", daemon=True)
    server_thread.start()
    try:
        while not shutdown.wait(0.2):
            pass
    except KeyboardInterrupt:
        # A raw Ctrl-C that beat the installed SIGINT handler is still
        # a shutdown request: fall through to the drain below.
        obs.count("serve.keyboard_interrupts")
    print("repro serve: draining (in-flight jobs finish; queued jobs "
          "stay journaled for the next start)", file=sys.stderr)
    idle = service.drain(wait=True, timeout=args.drain_grace)
    if not idle:
        print(f"repro serve: drain grace ({args.drain_grace:.0f}s) "
              f"expired with jobs still running", file=sys.stderr)
    server.shutdown()
    server.server_close()
    service.stop()
    if plan is not None:
        faults.clear()
    print("repro serve: stopped", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ProChecker: security and privacy analysis of 4G LTE "
                    "protocol implementations (ICDCS 2021 reproduction)")
    commands = parser.add_subparsers(dest="command", required=True)

    analyze = commands.add_parser(
        "analyze", help="run the full 62-property pipeline")
    analyze.add_argument("implementation", choices=IMPLEMENTATION_NAMES)
    analyze.add_argument("--jobs", "-j", type=int, default=None,
                         metavar="N",
                         help="parallel verification workers "
                              "(default: all cores)")
    analyze.add_argument("--json", action="store_true",
                         help="emit the report as JSON")
    analyze.add_argument("--trace-out", metavar="FILE", default=None,
                         help="write the span trace (JSONL) to FILE")
    analyze.add_argument("--profile", action="store_true",
                         help="print the PipelineStats summary table")
    analyze.add_argument("--group-timeout", type=float, default=None,
                         metavar="SECONDS",
                         help="progress timeout of the pooled pass: once "
                              "no property group has finished for SECONDS, "
                              "the groups still pending time out and are "
                              "completed serially in-process")
    analyze.add_argument("--inject-fault", action="append", default=[],
                         metavar="SITE[@KEY]:KIND[:NTH[:SCOPE]]",
                         help="debug: install a deterministic fault, e.g. "
                              "engine.verify_group@SEC-01:exit:1 "
                              "(kinds: raise, hang, exit; repeatable)")
    analyze.add_argument("--mc-cache", metavar="DIR", default=None,
                         help="persistent model-checking verdict cache; "
                              "re-analysing an unchanged implementation "
                              "skips exploration entirely (verdicts are "
                              "identical either way)")
    _add_chaos_options(analyze)
    analyze.set_defaults(handler=_cmd_analyze)

    extract = commands.add_parser(
        "extract", help="extract the implementation FSM (Algorithm 1)")
    extract.add_argument("implementation", choices=IMPLEMENTATION_NAMES)
    extract.add_argument("--dot", metavar="FILE",
                         help="write the Graphviz-like model to FILE")
    extract.add_argument("--json", action="store_true",
                         help="emit the FSM (and any stability report) "
                              "as JSON")
    extract.add_argument("--stability-out", metavar="FILE", default=None,
                         help="write the consensus stability report "
                              "(JSON) to FILE; needs --chaos-runs >= 2")
    _add_chaos_options(extract)
    extract.set_defaults(handler=_cmd_extract)

    verify = commands.add_parser(
        "verify", help="verify one property through the CEGAR loop")
    verify.add_argument("implementation", choices=IMPLEMENTATION_NAMES)
    verify.add_argument("property_id", metavar="PROPERTY",
                        help="e.g. SEC-01 or PRIV-08")
    verify.add_argument("--quiet", action="store_true",
                        help="suppress the counterexample trace")
    verify.add_argument("--json", action="store_true",
                        help="emit the property result as JSON")
    verify.set_defaults(handler=_cmd_verify)

    attack = commands.add_parser(
        "attack", help="run one testbed attack script")
    attack.add_argument("attack_id", metavar="ATTACK",
                        help="e.g. P1, I3 or PRIOR-numb")
    attack.add_argument("implementation", choices=IMPLEMENTATION_NAMES)
    attack.add_argument("--json", action="store_true",
                        help="emit the attack outcome as JSON")
    attack.set_defaults(handler=_cmd_attack)

    report = commands.add_parser(
        "report", help="write a findings dossier (markdown)")
    report.add_argument("implementation", choices=IMPLEMENTATION_NAMES)
    report.add_argument("-o", "--output", metavar="FILE")
    report.add_argument("--no-testbed", action="store_true",
                        help="skip end-to-end testbed validation")
    report.add_argument("--jobs", "-j", type=int, default=None,
                        metavar="N",
                        help="parallel verification workers "
                             "(default: all cores)")
    report.add_argument("--trace-out", metavar="FILE", default=None,
                        help="write the span trace (JSONL) to FILE")
    report.add_argument("--profile", action="store_true",
                        help="print the PipelineStats summary table")
    report.add_argument("--json", action="store_true",
                        help="emit the dossier as JSON")
    report.set_defaults(handler=_cmd_report)

    smv = commands.add_parser(
        "smv", help="export the threat model as NuXmv input")
    smv.add_argument("implementation", choices=IMPLEMENTATION_NAMES)
    smv.add_argument("property_id", metavar="PROPERTY")
    smv.add_argument("-o", "--output", metavar="FILE")
    smv.add_argument("--json", action="store_true",
                     help="emit the SMV module as JSON")
    smv.set_defaults(handler=_cmd_smv)

    lint = commands.add_parser(
        "lint", help="static spec/model/implementation analysis")
    lint.add_argument("--json", action="store_true",
                      help="emit the findings report as JSON")
    lint.add_argument("--impl", action="append", default=[],
                      choices=IMPLEMENTATION_NAMES, metavar="IMPL",
                      help="cross-check only these implementations "
                           "(repeatable; default: reference, srsue, oai)")
    lint.add_argument("--no-xcheck", action="store_true",
                      help="skip the static/dynamic cross-check family "
                           "(no extraction run)")
    lint.add_argument("--taint", action=argparse.BooleanOptionalAction,
                      default=True,
                      help="run the identity/key-material taint family "
                           "(PCL04x; default on)")
    lint.add_argument("--taint-impl", action="append", default=[],
                      metavar="MODULE",
                      help="also taint-audit an external UE persona "
                           "module (importable path defining a UeNas "
                           "subclass; repeatable)")
    lint.add_argument("--rules", action="store_true",
                      help="print the PCL0xx rule table and exit")
    lint.add_argument("--baseline", metavar="FILE", type=Path,
                      default=None,
                      help="baseline suppression file "
                           "(default: lint-baseline.json at the repo "
                           "root)")
    lint.add_argument("--no-baseline", action="store_true",
                      help="ignore any baseline file")
    lint.add_argument("--write-baseline", action="store_true",
                      help="accept all current findings into the "
                           "baseline file and exit 0")
    lint.add_argument("--catalog", metavar="MODULE", default=None,
                      help="lint an alternate property-catalog module "
                           "(must expose ALL_PROPERTIES or PROPERTIES)")
    lint.set_defaults(handler=_cmd_lint)

    gaps = commands.add_parser(
        "gaps", help="suggest missing conformance test cases")
    gaps.add_argument("implementation", choices=IMPLEMENTATION_NAMES)
    gaps.add_argument("--limit", type=int, default=15)
    gaps.add_argument("--json", action="store_true",
                      help="emit the gap report as JSON")
    gaps.set_defaults(handler=_cmd_gaps)

    fuzz = commands.add_parser(
        "fuzz", help="coverage-guided fuzzing against the reference")
    fuzz.add_argument("implementation", choices=IMPLEMENTATION_NAMES)
    fuzz.add_argument("--budget-execs", type=int, default=400,
                      metavar="N",
                      help="lockstep executions to spend (default 400)")
    fuzz.add_argument("--seed", type=int, default=0, metavar="S",
                      help="campaign PRNG seed (default 0); same seed = "
                           "byte-identical campaign")
    fuzz.add_argument("--max-steps", type=int, default=8, metavar="N",
                      help="schedule length cap (default 8)")
    fuzz.add_argument("--jobs", "-j", type=int, default=1, metavar="N",
                      help="ignored (a campaign runs on one thread)")
    fuzz.add_argument("--corpus-dir", metavar="DIR", default=None,
                      help="persist the corpus and minimised deviation "
                           "artifacts under DIR (reloaded as seeds on "
                           "the next campaign)")
    fuzz.add_argument("--replay", metavar="FILE", default=None,
                      help="re-run a deviation artifact instead of "
                           "fuzzing; exit 6 if it still reproduces")
    fuzz.add_argument("--json", action="store_true",
                      help="emit the campaign summary (or replay "
                           "outcome) as JSON")
    fuzz.set_defaults(handler=_cmd_fuzz)

    serve = commands.add_parser(
        "serve", help="run the analysis service (HTTP /v1 JSON API)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8373, metavar="N",
                       help="TCP port; 0 picks an ephemeral port "
                            "(default 8373)")
    serve.add_argument("--workers", "-w", type=int, default=2, metavar="K",
                       help="jobs run at once, each on a thread of its "
                            "own (default 2)")
    serve.add_argument("--jobs", "-j", type=int, default=1, metavar="N",
                       help="engine process-pool width per job when the "
                            "job does not specify one (default 1)")
    serve.add_argument("--store-dir", metavar="DIR", default=".repro-store",
                       help="content-addressed result store directory "
                            "(default .repro-store)")
    serve.add_argument("--journal", metavar="DIR", default=None,
                       help="write-ahead job journal directory; a "
                            "restarted serve replays every unfinished "
                            "job from it (default: no journal, jobs "
                            "are lost on restart)")
    serve.add_argument("--max-queue", type=int, default=None, metavar="N",
                       help="admission control: reject submissions with "
                            "HTTP 429 + Retry-After once N jobs are "
                            "queued (default: unbounded)")
    serve.add_argument("--deadline", type=float, default=None,
                       metavar="SECONDS",
                       help="default per-job wall-clock deadline; a job "
                            "still running at its deadline is marked "
                            "TIMEOUT and its slot goes to the next "
                            "queued job (jobs may carry their own "
                            "deadline_seconds)")
    serve.add_argument("--drain-grace", type=float, default=30.0,
                       metavar="SECONDS",
                       help="on SIGTERM/SIGINT, wait this long for "
                            "in-flight jobs before stopping "
                            "(default 30)")
    serve.add_argument("--inject-fault", action="append", default=[],
                       metavar="SITE[@KEY]:KIND[:NTH[:SCOPE]]",
                       help="debug: install a deterministic fault in "
                            "the service process, e.g. "
                            "journal.append@start:raise:1:all "
                            "(repeatable)")
    serve.add_argument("--verbose", action="store_true",
                       help="log each HTTP request to stderr")
    serve.set_defaults(handler=_cmd_serve)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
