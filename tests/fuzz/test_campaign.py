"""Campaign-level guarantees: re-discovery, determinism, persistence.

The headline acceptance test lives here: a pinned-seed campaign against
srsUE / OAI re-finds at least one seeded Table I deviation from the
clean reference corpus *without being told about it* — ``classify`` is
post-hoc labelling, never discovery input.
"""

import hashlib
import json
import os
from pathlib import Path

import pytest

from repro import blobstore, obs
from repro.fuzz import (Deviation, FuzzConfig, FuzzConfigError, FuzzError,
                        Fuzzer, campaign_digest, run_campaign)
from repro.fuzz.schedule import canonical_json
from repro.obs.metrics import diff_snapshots
from repro.testbed.experiments import replay_deviation

SEED = 20260808


def small_campaign(implementation, budget=160, **overrides):
    config = FuzzConfig(implementation=implementation, seed=SEED,
                        budget_execs=budget, **overrides)
    return run_campaign(config)


@pytest.fixture(scope="module")
def srsue_result():
    return small_campaign("srsue")


@pytest.fixture(scope="module")
def oai_result():
    return small_campaign("oai")


class TestTableIRediscovery:
    def test_srsue_refinds_a_table_i_issue(self, srsue_result):
        labels = {d.classification for d in srsue_result.deviations}
        assert labels & {"I1", "I3", "I4", "I6"}, labels

    def test_oai_refinds_a_table_i_issue(self, oai_result):
        labels = {d.classification for d in oai_result.deviations}
        assert labels & {"I1", "I2", "I5"}, labels

    def test_reference_self_campaign_is_clean(self):
        result = small_campaign("reference", budget=80)
        assert result.deviations == []
        assert not result.found_deviations

    def test_deviations_are_minimised(self, srsue_result):
        for deviation in srsue_result.deviations:
            assert len(deviation.schedule) <= deviation.raw_steps
            assert deviation.minimize_execs > 0

    def test_coverage_progresses(self, srsue_result):
        assert srsue_result.coverage_transitions > 0
        assert srsue_result.coverage_universe > 0
        assert (srsue_result.coverage_transitions
                <= srsue_result.coverage_universe)
        points = [p["coverage"] for p in srsue_result.trajectory]
        assert points == sorted(points)
        assert srsue_result.trajectory[-1]["execs"] == srsue_result.execs


class TestDeterminism:
    def test_rerun_is_byte_identical(self, srsue_result):
        again = small_campaign("srsue")
        assert (json.dumps(again.summary(), sort_keys=True)
                == json.dumps(srsue_result.summary(), sort_keys=True))

    def test_campaign_digest_excludes_location(self, tmp_path):
        base = FuzzConfig("srsue", seed=1)
        stored = FuzzConfig("srsue", seed=1, corpus_dir=str(tmp_path))
        other = FuzzConfig("srsue", seed=2)
        assert campaign_digest(base) == campaign_digest(stored)
        assert campaign_digest(base) != campaign_digest(other)

    def test_fuzz_counters_emitted(self):
        before = obs.metrics().snapshot()
        small_campaign("srsue", budget=48)
        delta = diff_snapshots(before, obs.metrics().snapshot())
        assert delta["counters"].get("fuzz.execs") == 48


class TestGoldenSummaries:
    """Pinned-seed campaign summaries, byte for byte.

    The digests were taken before the testbed's primitives were
    memoised; any change to testbed behaviour moves them.
    """

    @pytest.mark.parametrize("implementation,digest", [
        ("srsue", "39e3b5dced882bd5607d179599197545"
                  "ea61ef54250ae8a55584aaef6c421aac"),
        ("oai", "2dad372923e70e9ff0a1f2d57030042e"
                "ca93573be34cc01b34e0490a7cb149be"),
        ("reference", "03fde513451b14f532637c0778175483"
                      "3769daf5da874c77fc25f2ea7f3de867"),
    ])
    def test_summary_digest(self, implementation, digest):
        summary = small_campaign(implementation, budget=300).summary()
        assert hashlib.sha256(
            canonical_json(summary).encode()).hexdigest() == digest


class TestPersistence:
    def test_corpus_and_deviations_persist_and_reload(self, tmp_path):
        root = tmp_path / "fuzz"
        first = small_campaign("srsue", budget=96,
                               corpus_dir=str(root))
        corpus_files = sorted((root / "corpus").glob("*.json"))
        assert len(corpus_files) == first.corpus_size
        artifacts = sorted((root / "deviations").glob("*.json"))
        assert {p.stem for p in artifacts} \
            == {d.digest for d in first.deviations}

        before = obs.metrics().snapshot()
        second = small_campaign("srsue", budget=32,
                                corpus_dir=str(root))
        delta = diff_snapshots(before, obs.metrics().snapshot())
        assert delta["counters"].get("fuzz.corpus_loaded") \
            == first.corpus_size
        assert second.execs == 32

    @pytest.mark.parametrize("directory", ["corpus", "deviations"])
    def test_failed_write_leaves_no_torn_artifact(self, tmp_path,
                                                   monkeypatch, directory):
        root = tmp_path / "fuzz"
        rename = os.replace

        def crash_before_rename(source, target):
            if Path(target).parent.name == directory:
                raise OSError("simulated crash before rename")
            rename(source, target)

        monkeypatch.setattr(blobstore.os, "replace", crash_before_rename)
        with pytest.raises(OSError, match="simulated crash"):
            small_campaign("srsue", budget=96, corpus_dir=str(root))
        monkeypatch.undo()
        assert not list((root / directory).glob("*.json"))
        assert not list((root / directory).glob(".*.tmp"))
        # A second campaign over the same directory loads what landed.
        second = small_campaign("srsue", budget=32, corpus_dir=str(root))
        assert second.execs == 32

    def test_corrupt_corpus_entry_is_a_typed_error(self, tmp_path):
        directory = tmp_path / "corpus"
        directory.mkdir()
        (directory / "bad.json").write_text("{not json")
        with pytest.raises(FuzzError):
            small_campaign("srsue", budget=8, corpus_dir=str(tmp_path))

    def test_artifact_round_trips_and_replays(self, tmp_path):
        root = tmp_path / "fuzz"
        result = small_campaign("srsue", budget=96,
                                corpus_dir=str(root))
        assert result.deviations
        path = next((root / "deviations").glob("*.json"))
        payload = json.loads(path.read_text())
        deviation = Deviation.from_dict(payload)
        assert deviation.digest == path.stem
        outcome = replay_deviation(payload)
        assert outcome.succeeded
        assert outcome.attack_id == f"FUZZ-{deviation.digest[:12]}"


class TestConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        {"implementation": "nope"},
        {"implementation": "srsue", "budget_execs": 0},
        {"implementation": "srsue", "max_steps": 0},
        {"implementation": "srsue", "reference": "nope"},
    ])
    def test_bad_configs_rejected(self, kwargs):
        with pytest.raises(FuzzConfigError):
            FuzzConfig(**kwargs)

    def test_config_wire_round_trip(self):
        config = FuzzConfig("oai", seed=9, budget_execs=50)
        assert FuzzConfig.from_dict(config.to_dict()) == config

    def test_payload_with_a_width_still_loads(self):
        # Payloads and journal entries written while campaigns had a
        # thread-pool width carry a "jobs" key; it is ignored.
        config = FuzzConfig("oai", seed=9, budget_execs=50)
        assert "jobs" not in config.to_dict()
        legacy = dict(config.to_dict(), jobs=4)
        assert FuzzConfig.from_dict(legacy) == config
