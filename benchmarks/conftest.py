"""Shared benchmark fixtures: conformance runs and extracted models."""

import pytest

from repro.baselines import lteinspector_mme, lteinspector_ue
from repro.conformance import full_suite, run_conformance
from repro.extraction import extract_model, table_for_implementation
from repro.lte import messages, security
from repro.lte.implementations import REGISTRY

IMPLEMENTATIONS = ("reference", "srsue", "oai")


@pytest.fixture(scope="session")
def conformance_runs():
    return {impl: run_conformance(impl, full_suite(impl))
            for impl in IMPLEMENTATIONS}


@pytest.fixture(scope="session")
def extracted_models(conformance_runs):
    models = {}
    for impl, run in conformance_runs.items():
        table = table_for_implementation(REGISTRY[impl])
        fsm, _ = extract_model(run.log_text, table, name=impl)
        models[impl] = fsm
    return models


@pytest.fixture(scope="session")
def baseline_ue():
    return lteinspector_ue()


@pytest.fixture(scope="session")
def mme_model():
    return lteinspector_mme()


@pytest.fixture
def cold_testbed():
    """A call that empties the testbed's memos (PRF, frame decode,
    payload encode), so each timed side that drives the testbed pays
    for its own work whatever ran before it in the process."""
    def clear():
        for memo in (security._prf_memo, messages._decode_memo,
                     messages._encode_memo):
            memo.cache_clear()
    return clear
