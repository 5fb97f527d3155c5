"""Render ``docs/PROPERTIES.md`` from the catalog.

``python -m repro.docgen`` writes it, with the other generated docs;
``--check`` exits non-zero when it is stale.
"""

from __future__ import annotations

from typing import List

from .catalog import ALL_PROPERTIES
from .spec import EXTRACTED_VOCAB, KIND_LTL


def render() -> str:
    """The full markdown document as a string."""
    lines: List[str] = [
        "# Property catalog",
        "",
        "All 62 properties (37 security, 25 privacy) the pipeline "
        "verifies,",
        "generated from `repro.properties.catalog` (regenerate with",
        "`python -m repro.docgen`).  LTL formulas are shown",
        "instantiated for the extracted-model vocabulary; `testbed` "
        "properties",
        "run the named experiment and apply Dolev-Yao secrecy or",
        "observational-equivalence queries to its traces.",
        "",
    ]
    for prop in ALL_PROPERTIES:
        lines.append(f"## {prop.identifier} ({prop.category}"
                     + (", Table II common" if prop.common else "") + ")")
        lines.append("")
        lines.append(prop.description)
        lines.append("")
        if prop.kind == KIND_LTL:
            lines.append("```")
            lines.append(prop.formula_for(EXTRACTED_VOCAB))
            lines.append("```")
            adversary = []
            if prop.threat.replay_dl:
                adversary.append("replay: "
                                 + ", ".join(prop.threat.replay_dl))
            if prop.threat.inject_dl:
                adversary.append("inject: "
                                 + ", ".join(prop.threat.inject_dl))
            if prop.threat.inject_ul:
                adversary.append("inject-uplink: "
                                 + ", ".join(prop.threat.inject_ul))
            adversary.append("drop: "
                             + ("yes" if prop.threat.allow_drop
                                else "no"))
            lines.append(f"*Adversary*: {'; '.join(adversary)}.")
        else:
            lines.append(f"*Experiment*: `{prop.testbed_attack}`.")
        if prop.attack_id:
            lines.append(f"*Detects*: {prop.attack_id}.")
        lines.append("")
    return "\n".join(lines)
