"""Content-addressed result store: identity, round-trip, quarantine.

The store contract runs against both digest-sharded stores: the report
store and the model-checking verdict cache."""

import json
from typing import Callable, Dict, List, NamedTuple

import pytest

from repro import obs, schema
from repro.core import AnalysisConfig, AnalysisReport, ProChecker
from repro.faults import FaultPlan
from repro.mc import (ModelChecker, Model, Plus, Variable, parse_expr,
                      parse_ltl)
from repro.obs.metrics import diff_snapshots
from repro.store import (McCacheError, McVerdictCache, ResultStore,
                         StoreError, catalog_digest,
                         implementation_fingerprint, job_digest, job_key)

SMALL = ["SEC-01", "SEC-02"]


class TestJobIdentity:
    def test_digest_is_hex_sha256(self):
        digest = job_digest(AnalysisConfig("srsue", property_ids=SMALL))
        assert len(digest) == 64
        int(digest, 16)

    def test_digest_stable_across_jobs_widths(self):
        # Scheduling knobs are excluded from the identity: the engine's
        # determinism contract makes the verdicts identical across
        # --jobs widths, so the cache must hit regardless of width.
        narrow = AnalysisConfig("srsue", property_ids=SMALL, jobs=1)
        wide = AnalysisConfig("srsue", property_ids=SMALL, jobs=4,
                              group_timeout_seconds=5.0)
        assert job_digest(narrow) == job_digest(wide)

    def test_digest_varies_with_inputs(self):
        base = AnalysisConfig("srsue", property_ids=SMALL)
        assert job_digest(base) != job_digest(
            AnalysisConfig("oai", property_ids=SMALL))
        assert job_digest(base) != job_digest(
            AnalysisConfig("srsue", property_ids=["SEC-01"]))

    def test_fingerprint_tracks_source(self):
        fp = implementation_fingerprint("srsue")
        assert len(fp) == 64
        assert fp != implementation_fingerprint("oai")
        with pytest.raises(StoreError):
            implementation_fingerprint("huawei")

    #: job digests computed before the CEGAR budget became a constant;
    #: the store keys every stored report by these, so they must not move
    GOLDEN = {
        ("reference", None): "3fbce70fcee60b8105f4ef5df123c9a6"
                             "94e79f0a2c085284205e5229cf383715",
        ("srsue", None): "3428261d7f62dbe1f807baf81c02884e"
                         "f75585c6b2c4e7925a535c2724f936c5",
        ("oai", None): "0b97b0948bb95f2441c4094272ce1f36"
                       "f690f25b641b49a7a05359b1ce10b148",
        ("reference", ("SEC-01", "PRIV-02")):
            "8ad462a70f1564a2722213a2469a68bb"
            "679ddf7a20c881551ff6753d49b6a2bb",
        ("srsue", ("SEC-01", "PRIV-02")):
            "0c920c29106bc79b995ec77108ea136e"
            "6c27ddc73b007d8fff4a469625c86cc0",
        ("oai", ("SEC-01", "PRIV-02")):
            "25c7f1986b75843fc9f2199fc2c54e7c"
            "377a4d0eefc7f27215bda2bae5e82b79",
    }

    @pytest.mark.parametrize("implementation, property_ids", sorted(
        GOLDEN, key=repr))
    def test_digest_is_pinned(self, implementation, property_ids):
        config = AnalysisConfig(
            implementation, property_ids=(list(property_ids)
                                          if property_ids else None))
        assert job_digest(config) \
            == self.GOLDEN[(implementation, property_ids)]

    def test_payload_with_iteration_budget_keeps_its_digest(self):
        """Payloads written while the CEGAR budget was a config field
        still load, under the same job identity."""
        payload = AnalysisConfig("srsue", property_ids=SMALL).to_dict()
        assert "max_cegar_iterations" not in payload
        old = AnalysisConfig.from_dict(dict(payload,
                                            max_cegar_iterations=8))
        assert old == AnalysisConfig.from_dict(payload)
        assert job_digest(old) == job_digest(
            AnalysisConfig.from_dict(payload))

    def test_catalog_digest_covers_threat_config(self):
        assert (catalog_digest(AnalysisConfig("srsue", property_ids=SMALL))
                != catalog_digest(AnalysisConfig("srsue",
                                                 property_ids=["SEC-01"])))

    def test_fault_plans_are_uncacheable(self):
        plan = FaultPlan.parse(["engine.verify_group@SEC-01:raise:1"])
        config = AnalysisConfig("srsue", property_ids=SMALL,
                                fault_plan=plan)
        with pytest.raises(StoreError, match="fault"):
            job_key(config)

    def test_key_names_every_identity_axis(self):
        key = job_key(AnalysisConfig("srsue", property_ids=SMALL))
        assert key["implementation"] == "srsue"
        assert set(key) >= {"implementation", "implementation_fingerprint",
                            "catalog"}
        assert "jobs" not in key


class StoreKind(NamedTuple):
    """What the contract tests need to know about one store."""

    store: type
    error: type
    payload: str
    counter: str
    value: object
    #: the JSON-comparable form of a stored or read-back value
    wire: Callable[[object], Dict]
    #: envelope payloads that must read as quarantined misses
    bad_payloads: List[object]


NON_OBJECTS = [None, [], ["report"], "report", 7]


def counter_verdict():
    model = Model("counter", [Variable("c", tuple(range(4)))], {"c": 0})
    model.add_command("inc", parse_expr("c < 3", ["c"]),
                      {"c": Plus("c", 1, 3)})
    model.add_command("reset", parse_expr("c = 3", ["c"]), {"c": 0})
    return ModelChecker().check_formula(model,
                                        parse_ltl("G (c < 3)", ["c"]))


@pytest.fixture(scope="module")
def srsue_report():
    config = AnalysisConfig("srsue", property_ids=SMALL, jobs=1)
    return ProChecker.from_config(config).analyze().to_dict()


@pytest.fixture(params=["result_store", "mc_cache"])
def kind(request, srsue_report):
    if request.param == "result_store":
        return StoreKind(ResultStore, StoreError, "report", "store.",
                         srsue_report, lambda report: report, NON_OBJECTS)
    return StoreKind(
        McVerdictCache, McCacheError, "result", "mc.verdict_cache_",
        counter_verdict(),
        # the stored payload of a fresh check; a hit is marked from_cache
        lambda result: dict(result.to_dict(), from_cache=False),
        NON_OBJECTS + [{"holds": True},
                       {"property_name": "p", "holds": True,
                        "schema_version": "99.0"}])


def write_entry(store, digest, entry):
    path = store.path_for(digest)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(entry, sort_keys=True, default=str))
    return path


class TestResultStore:
    """The digest-sharded store contract, for both stores built on it."""

    DIGEST = "ab" * 32

    def test_round_trip(self, kind, tmp_path):
        store = kind.store(tmp_path / "store")
        store.put(self.DIGEST, kind.value, key={"k": 1})
        assert store.contains(self.DIGEST)
        assert kind.wire(store.get(self.DIGEST)) == kind.wire(kind.value)
        assert store.digests() == [self.DIGEST]

    def test_result_report_round_trips_its_verdicts(self, srsue_report,
                                                    tmp_path):
        store = ResultStore(tmp_path / "store")
        config = AnalysisConfig("srsue", property_ids=SMALL, jobs=1)
        digest = job_digest(config)
        store.put(digest, srsue_report, key=job_key(config))
        rebuilt = AnalysisReport.from_dict(store.get(digest))
        assert (rebuilt.verdict_signature()
                == AnalysisReport.from_dict(srsue_report)
                .verdict_signature())

    def test_miss_returns_none(self, kind, tmp_path):
        store = kind.store(tmp_path / "store")
        assert store.get("0" * 64) is None
        assert not store.contains("0" * 64)

    def test_bad_digest_rejected(self, kind, tmp_path):
        store = kind.store(tmp_path / "store")
        with pytest.raises(kind.error):
            store.path_for("../../etc/passwd")
        with pytest.raises(kind.error):
            store.path_for("zz" * 32)

    @pytest.mark.parametrize("garbage", [b"{ not json", b"\x80 not utf-8"],
                             ids=["not-json", "not-utf-8"])
    def test_corrupted_entry_quarantined(self, kind, tmp_path, garbage):
        store = kind.store(tmp_path / "store")
        path = store.put(self.DIGEST, kind.value)
        path.write_bytes(garbage)
        # A corrupt entry reads as a miss, never as an exception, and is
        # moved aside so the next write can repopulate the slot.
        assert store.get(self.DIGEST) is None
        assert not path.exists()
        assert len(list((store.root / "quarantine").iterdir())) == 1
        assert store.stats()["quarantined"] == 1

    def test_digest_mismatch_quarantined(self, kind, tmp_path):
        store = kind.store(tmp_path / "store")
        path = write_entry(store, self.DIGEST, schema.stamp({
            "digest": "f" * 64, "key": {},
            kind.payload: kind.wire(kind.value)}))
        assert store.get(self.DIGEST) is None
        assert not path.exists()

    def test_future_major_entry_quarantined(self, kind, tmp_path):
        store = kind.store(tmp_path / "store")
        path = store.put(self.DIGEST, kind.value)
        entry = json.loads(path.read_text())
        entry[schema.SCHEMA_KEY] = "99.0"
        path.write_text(json.dumps(entry))
        assert store.get(self.DIGEST) is None

    def test_bad_payload_quarantined(self, kind, tmp_path):
        # A payload that is not a JSON object, or does not decode, is a
        # corrupt entry: never a hit, never an exception.
        store = kind.store(tmp_path / "store")
        for index, payload in enumerate(kind.bad_payloads):
            digest = f"{index:02x}" * 32
            path = write_entry(store, digest, schema.stamp({
                "digest": digest, "key": None, kind.payload: payload}))
            assert store.get(digest) is None, payload
            assert not path.exists()
        assert store.stats() == {"entries": 0,
                                 "quarantined": len(kind.bad_payloads)}

    def test_envelope_format_is_stable(self, kind, tmp_path):
        # The envelope as every earlier release wrote it: compact,
        # sorted-key JSON of {digest, key, <payload>, schema_version}.
        store = kind.store(tmp_path / "store")
        entry = {"digest": self.DIGEST, "key": {"k": 1},
                 kind.payload: kind.wire(kind.value),
                 schema.SCHEMA_KEY: "1.2"}
        path = write_entry(store, self.DIGEST, entry)
        assert kind.wire(store.get(self.DIGEST)) == kind.wire(kind.value)
        store.put(self.DIGEST, kind.value, key={"k": 1})
        assert path.read_text() == json.dumps(
            dict(entry, **{schema.SCHEMA_KEY: schema.SCHEMA_VERSION}),
            sort_keys=True, default=str)

    def test_stats_count_traffic(self, kind, tmp_path):
        store = kind.store(tmp_path / "store")
        before = obs.metrics().snapshot()
        store.get(self.DIGEST)
        store.put(self.DIGEST, kind.value)
        store.get(self.DIGEST)
        delta = diff_snapshots(before, obs.metrics().snapshot())["counters"]
        assert store.stats() == {"entries": 1, "quarantined": 0}
        assert {name: delta.get(kind.counter + name)
                for name in ("misses", "writes", "hits")} \
            == {"misses": 1, "writes": 1, "hits": 1}
