"""Metrics scopes: registry writes attributed to the context that made
them, on top of the process registry."""

import threading

from repro import obs


def counters(registry):
    return registry.snapshot()["counters"]


class TestMetricsScope:
    def test_nested_scope_sees_only_its_own_counts(self):
        process_before = counters(obs.metrics()).get("scope.test.a", 0)
        with obs.metrics_scope() as outer:
            obs.count("scope.test.a")
            with obs.metrics_scope() as inner:
                obs.count("scope.test.b", 2)
                obs.inc("scope.test.a", 3)
            obs.count("scope.test.b")
        assert counters(inner) == {"scope.test.a": 3, "scope.test.b": 2}
        assert counters(outer) == {"scope.test.a": 4, "scope.test.b": 3}
        assert counters(obs.metrics())["scope.test.a"] \
            == process_before + 4

    def test_gauges_and_histograms_are_scoped_too(self):
        with obs.metrics_scope() as outer:
            obs.gauge_max("scope.test.peak", 5)
            with obs.metrics_scope() as inner:
                obs.gauge_max("scope.test.peak", 3)
                obs.observe("scope.test.seconds", 0.5, buckets=(1.0,))
        assert inner.snapshot()["gauges"] == {"scope.test.peak": 3}
        assert outer.snapshot()["gauges"] == {"scope.test.peak": 5}
        assert inner.snapshot()["histograms"]["scope.test.seconds"][
            "counts"] == [1, 0]
        assert outer.snapshot()["histograms"]["scope.test.seconds"][
            "count"] == 1

    def test_writes_after_exit_are_not_attributed(self):
        with obs.metrics_scope() as scope:
            obs.count("scope.test.inside")
        obs.count("scope.test.outside")
        assert counters(scope) == {"scope.test.inside": 1}

    def test_other_threads_do_not_leak_into_a_scope(self):
        started, release = threading.Event(), threading.Event()

        def neighbour():
            started.set()
            release.wait(timeout=10.0)
            obs.count("scope.test.neighbour")

        thread = threading.Thread(target=neighbour)
        with obs.metrics_scope() as scope:
            thread.start()
            assert started.wait(timeout=10.0)
            release.set()
            thread.join(timeout=10.0)
            obs.count("scope.test.mine")
        assert not thread.is_alive()
        assert counters(scope) == {"scope.test.mine": 1}

    def test_merge_folds_a_worker_drain_into_open_scopes(self):
        drained = {"counters": {"scope.test.merged": 7},
                   "gauges": {"scope.test.merged_peak": 2},
                   "histograms": {}}
        before = counters(obs.metrics()).get("scope.test.merged", 0)
        with obs.metrics_scope() as scope:
            obs.merge(drained)
        assert counters(scope) == {"scope.test.merged": 7}
        assert scope.snapshot()["gauges"] == {"scope.test.merged_peak": 2}
        assert counters(obs.metrics())["scope.test.merged"] == before + 7

    def test_reset_empties_the_open_scopes(self):
        # A pool worker forked from a scoped thread must not write to
        # the parent's scopes.
        try:
            with obs.metrics_scope() as scope:
                obs.reset()
                obs.count("scope.test.after_reset")
            assert counters(scope) == {}
            assert counters(obs.metrics())["scope.test.after_reset"] == 1
        finally:
            obs.reset()
