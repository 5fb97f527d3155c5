"""CPV secrecy/indistinguishability experiments (privacy verification).

These complement the attack scripts: they run honest (or lightly probed)
protocol exchanges on the testbed and pose Dolev-Yao queries about what
the adversary learned.  ``succeeded=True`` means the property is
VIOLATED (a leak or a distinguisher was found) — the same convention as
the attack registry, which these experiments share.
"""

from __future__ import annotations

from .. import obs
from ..cpv.deduction import Knowledge
from ..cpv.equivalence import Frame, distinguishable
from ..cpv.terms import Atom, KIND_DATA, KIND_KEY
from ..lte import constants as c
from ..lte.messages import NasMessage, message_name
from .attacker import Attacker, _message_term
from .attacks import AttackResult, attack
from .simulator import Testbed


def _channel_knowledge(testbed: Testbed, station: str,
                       since: int = 0) -> Knowledge:
    """Everything a passive adversary saw on the victim's link from
    history position ``since`` on, as terms."""
    knowledge = Knowledge()
    for record in testbed.station(station).link.history[since:]:
        try:
            message = NasMessage.from_wire(record.frame)
        except Exception:  # noqa: BLE001
            obs.count("channel.malformed_frames")
            continue
        knowledge.observe(_message_term(message))
    return knowledge


@attack("SECRECY-permanent-key")
def secrecy_permanent_key(implementation: str) -> AttackResult:
    """The subscriber's permanent key K must never be channel-derivable."""
    testbed = Testbed(implementation)
    testbed.add_ue("victim")
    testbed.attach_all()
    victim = testbed.station("victim")
    knowledge = _channel_knowledge(testbed, "victim")
    key_term = Atom(f"K:{victim.subscriber.permanent_key.hex()}",
                    KIND_KEY, public=False)
    leaked = knowledge.can_construct(key_term)
    return AttackResult(
        "SECRECY-permanent-key", implementation, leaked,
        "permanent key derivable from channel traffic" if leaked
        else "permanent key underivable from observed traffic")


@attack("SECRECY-session-keys")
def secrecy_session_keys(implementation: str) -> AttackResult:
    """KASME / NAS keys must never be channel-derivable."""
    testbed = Testbed(implementation)
    testbed.add_ue("victim")
    testbed.attach_all()
    victim = testbed.station("victim")
    knowledge = _channel_knowledge(testbed, "victim")
    context = victim.ue.security_ctx
    if context is None:
        return AttackResult("SECRECY-session-keys", implementation, False,
                            "no context established")
    leaked = any(
        knowledge.can_construct(Atom(f"key:{key.hex()}", KIND_KEY))
        for key in (context.kasme, context.k_nas_int, context.k_nas_enc))
    return AttackResult(
        "SECRECY-session-keys", implementation, leaked,
        "session key derivable" if leaked
        else "session keys underivable from observed traffic")


@attack("SECRECY-imsi-guti-attach")
def secrecy_imsi_guti_attach(implementation: str) -> AttackResult:
    """A GUTI-based re-attach must not expose the IMSI on the channel."""
    testbed = Testbed(implementation)
    testbed.add_ue("victim")
    testbed.attach_all()
    victim = testbed.station("victim")
    # Second session: the UE now holds a GUTI and should identify with it.
    first_session_end = len(victim.link.history)
    victim.ue.emm_state = c.EMM_DEREGISTERED
    victim.mme.emm_state = "MME_EMM_DEREGISTERED"
    victim.ue.power_on()
    imsi = str(victim.subscriber.imsi)
    knowledge = _channel_knowledge(testbed, "victim", first_session_end)
    imsi_atom = Atom(f"imsi:{imsi}", KIND_DATA, public=False)
    leaked = knowledge.can_construct(imsi_atom)
    return AttackResult(
        "SECRECY-imsi-guti-attach", implementation, leaked,
        "IMSI observable in the GUTI-based re-attach" if leaked
        else "re-attach exchange reveals no IMSI")


@attack("GUTI-reattach")
def guti_reattach(implementation: str) -> AttackResult:
    """After a GUTI is assigned, re-attach identifies with the GUTI."""
    testbed = Testbed(implementation)
    testbed.add_ue("victim")
    testbed.attach_all()
    victim = testbed.station("victim")
    mark = len(victim.link.history)
    victim.ue.emm_state = c.EMM_DEREGISTERED
    victim.ue.power_on()
    used_imsi = False
    for record in victim.link.history[mark:]:
        if record.direction != "uplink":
            continue
        try:
            message = NasMessage.from_wire(record.frame)
        except Exception:  # noqa: BLE001
            obs.count("channel.malformed_frames")
            continue
        if message.name == c.ATTACH_REQUEST and "imsi" in message.fields:
            used_imsi = True
    return AttackResult(
        "GUTI-reattach", implementation, used_imsi,
        "re-attach exposed the IMSI despite an assigned GUTI"
        if used_imsi else "re-attach used the GUTI")


@attack("ATTACH-replay-indistinguishable")
def attach_replay_indistinguishable(implementation: str) -> AttackResult:
    """Replaying a captured attach_request yields the same *type* of
    network response for every subscriber — no distinguisher."""
    testbed = Testbed(implementation)
    testbed.add_ue("a")
    testbed.add_ue("b")
    testbed.attach_all()
    attacker = Attacker(testbed)
    frames = {}
    for name in ("a", "b"):
        mark = attacker.mark(name)
        imsi = str(testbed.station(name).subscriber.imsi)
        attacker.inject_plain_to_mme(name, c.ATTACH_REQUEST,
                                     {"imsi": imsi})
        frame = Frame()
        for record in testbed.station(name).link.history[mark:]:
            if record.direction != "downlink":
                continue
            response = message_name(record.frame)
            if response is None:
                obs.count("channel.malformed_frames")
                continue
            # The distinguisher is the response *type*; payloads are
            # subscriber-specific by construction.
            frame.observe(response, Atom(response, KIND_DATA, public=True))
        frames[name] = frame
    verdict = distinguishable(frames["a"], frames["b"])
    return AttackResult(
        "ATTACH-replay-indistinguishable", implementation, bool(verdict),
        f"subscribers distinguishable: {verdict.test}" if verdict
        else "response types identical across subscribers")


# ---------------------------------------------------------------------------
# Fuzzer deviation replay (repro.fuzz -> testbed bridge)
# ---------------------------------------------------------------------------
def replay_deviation(payload) -> AttackResult:
    """Re-run a minimised fuzzer deviation as a testbed experiment.

    ``payload`` is a :class:`repro.fuzz.Deviation` or its ``to_dict``
    wire form (the ``deviations/<digest>.json`` artifact a campaign
    persists).  The minimised schedule is re-executed in lockstep
    against the reference; ``succeeded=True`` means the divergence
    signature reproduced — the implementation still leaves its
    extracted FSM on this input.  ``attack_id`` is ``FUZZ-<digest>``
    so replays file alongside the Table I scripts.
    """
    # Lazy import: repro.fuzz reaches core.prochecker, which reaches
    # back into repro.testbed at module-import time.
    from ..fuzz import run_schedule
    from ..fuzz.deviation import Deviation

    deviation = (payload if isinstance(payload, Deviation)
                 else Deviation.from_dict(payload))
    with obs.span("testbed.replay_deviation",
                  implementation=deviation.implementation):
        result = run_schedule(deviation.implementation, deviation.schedule,
                              reference=deviation.reference)
    expected = deviation.signature()
    reproduced = result.diverged \
        and result.divergence_signature() == expected
    detail = "signature did not reproduce"
    if reproduced:
        detail = (f"diverges from {deviation.reference} at step "
                  f"{result.divergence_index}")
    elif result.diverged:
        detail = (f"diverged at step {result.divergence_index} with a "
                  f"different signature")
    return AttackResult(
        f"FUZZ-{deviation.digest[:12]}", deviation.implementation,
        reproduced, detail,
        details={
            "classification": deviation.classification,
            "digest": deviation.digest,
            "step_index": result.divergence_index,
            "schedule_length": len(deviation.schedule),
        })
