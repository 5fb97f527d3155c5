"""Generate every checked-in document that renders from live metadata.

- ``docs/CLI.md``: the exit-code table and the subcommand list, from
  :data:`repro.cli.EXIT_CODE_MEANINGS` and the argparse parser itself;
- ``docs/lint.md``: the rule table from :data:`repro.lint.findings.RULES`
  plus the taint source/sink/sanctioned-flow catalogs;
- ``docs/PROPERTIES.md``: the property catalog
  (:func:`repro.properties.docgen.render`).

Run ``python -m repro.docgen`` from the repository root after editing
the CLI, the rule catalog or the property catalog; ``--check`` exits
non-zero when any checked-in document is stale (the CI static-analysis
job runs it).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .cli import EXIT_CODE_MEANINGS, build_parser
from .properties.docgen import render as render_properties


def _describe_argument(action: argparse.Action) -> str:
    """One bullet for one argparse action (flag or positional)."""
    if action.option_strings:
        name = ", ".join(f"`{opt}`" for opt in action.option_strings)
        if action.nargs != 0:
            metavar = action.metavar or action.dest.upper()
            name += f" `{metavar}`"
    else:
        name = f"`{action.metavar or action.dest}`"
        if action.choices:
            name += " (" + " | ".join(f"`{c}`"
                                      for c in action.choices) + ")"
    help_text = " ".join((action.help or "").split())
    return f"- {name} — {help_text}" if help_text else f"- {name}"


def render() -> str:
    """The full markdown document as a string."""
    lines: List[str] = [
        "# Command-line interface",
        "",
        "Generated from `repro.cli` (regenerate with "
        "`python -m repro.docgen`).",
        "Every subcommand that emits a result supports `--json`; every "
        "JSON",
        "payload carries the wire-format `schema_version` "
        "(see `docs/api.md`).",
        "",
        "## Subcommands",
        "",
    ]
    parser = build_parser()
    subparsers = next(action for action in parser._actions
                      if isinstance(action, argparse._SubParsersAction))
    for name, sub in subparsers.choices.items():
        help_text = next((a.help for a in subparsers._choices_actions
                          if a.dest == name), "")
        lines.append(f"- `repro {name}` — {help_text};")
    lines[-1] = lines[-1].rstrip(";") + "."
    for name, sub in subparsers.choices.items():
        help_text = next((a.help for a in subparsers._choices_actions
                          if a.dest == name), "")
        lines += ["", f"### `repro {name}`", "", f"{help_text}.", ""]
        for action in sub._actions:
            if isinstance(action, argparse._HelpAction):
                continue
            lines.append(_describe_argument(action))
    lines += [
        "",
        "## Exit codes",
        "",
        "| code | name | meaning |",
        "|---|---|---|",
    ]
    for code in sorted(EXIT_CODE_MEANINGS):
        name, meaning = EXIT_CODE_MEANINGS[code]
        lines.append(f"| {code} | `{name}` | {meaning} |")
    lines += [
        "",
        "`repro analyze` maps the report to one exit code: 4 if any "
        "property",
        "row is a checker error, else 0 (violations are data, not a "
        "process",
        "failure — consumers read the JSON).  `repro verify` maps its "
        "single",
        "verdict through the same table; `repro attack` exits 1 when the",
        "attack succeeds; `repro extract` exits 1 on an unstable "
        "consensus.",
        "",
    ]
    return "\n".join(lines)


def render_lint() -> str:
    """``docs/lint.md``: the PCL0xx rule table and the taint catalogs."""
    from .lint.findings import RULES
    from .lint.taint import (FLAG_TO_ATTACK, SANCTIONED_WIRE_FLOWS,
                             SANITIZERS, SELF_ATTR_SOURCES,
                             TAINT_VISIBLE_FLAGS)

    lines: List[str] = [
        "# Static analysis rules",
        "",
        "Generated from `repro.lint` (regenerate with "
        "`python -m repro.docgen`;",
        "the same table prints from `repro lint --rules`).  Warnings and",
        "errors gate `repro lint` with exit code 5; info findings are",
        "expected-behaviour annotations and never gate.",
        "",
        "## Rule table",
        "",
        "| id | family | severity | summary |",
        "|---|---|---|---|",
    ]
    for identifier in sorted(RULES):
        rule = RULES[identifier]
        lines.append(f"| {rule.identifier} | {rule.family} | "
                     f"{rule.severity.value} | {rule.summary} |")
    lines += [
        "",
        "## Taint catalogs (PCL04x)",
        "",
        "The taint family is an interprocedural dataflow pass over the",
        "implementation source.  Its behaviour is fully declarative:",
        "",
        "### Sources (`self.` attribute paths)",
        "",
        "| path | labels |",
        "|---|---|",
    ]
    for path in sorted(SELF_ATTR_SOURCES):
        labels = ", ".join(sorted(SELF_ATTR_SOURCES[path])) or "—"
        lines.append(f"| `self.{path}` | {labels} |")
    lines += [
        "",
        "### Sanitizers (callee name → result labels)",
        "",
        "| callee | result labels |",
        "|---|---|",
    ]
    for name in sorted(SANITIZERS):
        labels = ", ".join(sorted(SANITIZERS[name])) or "(clean)"
        lines.append(f"| `{name}(...)` | {labels} |")
    lines += [
        "",
        "### Standards-sanctioned plaintext flows",
        "",
        "Identity/SQN material on these (message, field) pairs is",
        "mandated protocol behaviour and never flagged:",
        "",
    ]
    for message, field in sorted(SANCTIONED_WIRE_FLOWS):
        lines.append(f"- `{message}.{field}`")
    lines += [
        "",
        "### Cross-examination contract",
        "",
        "Seeded policy flags map to Table I attacks; the taint-visible",
        "subset must be re-found statically as PCL043 on the persona",
        "that carries the flag, and static/dynamic disagreements",
        "surface as PCL045:",
        "",
        "| flag | attack | taint-visible |",
        "|---|---|---|",
    ]
    for flag in sorted(FLAG_TO_ATTACK):
        visible = "yes" if flag in TAINT_VISIBLE_FLAGS else "no"
        lines.append(f"| `{flag}` | {FLAG_TO_ATTACK[flag]} | {visible} |")
    lines.append("")
    return "\n".join(lines)


#: Every generated document: path relative to the repository root, and
#: the function that renders it.
DOCUMENTS = (
    ("docs/CLI.md", render),
    ("docs/lint.md", render_lint),
    ("docs/PROPERTIES.md", render_properties),
)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.docgen",
        description="regenerate docs/CLI.md, docs/lint.md and "
                    "docs/PROPERTIES.md from live metadata (run from the "
                    "repository root)")
    parser.add_argument("--check", action="store_true",
                        help="do not write; exit 1 if a checked-in "
                             "document is stale")
    args = parser.parse_args(argv)

    documents = [(path, renderer()) for path, renderer in DOCUMENTS]
    if args.check:
        for path, text in documents:
            try:
                with open(path) as handle:
                    current = handle.read()
            except OSError as exc:
                print(f"{path} unreadable: {exc}", file=sys.stderr)
                return 1
            if current != text:
                print(f"{path} is stale; regenerate with "
                      f"`python -m repro.docgen`", file=sys.stderr)
                return 1
            print(f"{path} is up to date")
        return 0
    for path, text in documents:
        with open(path, "w") as handle:
            handle.write(text)
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
