"""Lifetime estimation: censoring correctness and fit convergence.

The streaming estimator must (a) treat still-open sessions as
right-censored exposure — not ignore them, not count them as deaths —
and (b) converge to the generating distribution on synthetic
exponential session data, including sessions produced by a real
simulated churn trace.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.estimation.lifetimes import LifetimeEstimator, SurvivalFit

lifetimes_lists = st.lists(
    st.floats(min_value=0.1, max_value=1e4, allow_nan=False, allow_infinity=False),
    min_size=1, max_size=60,
)


class TestEventIngestion:
    def test_join_death_records_lifetime(self):
        est = LifetimeEstimator(min_deaths=1)
        est.note_join(1, 10.0)
        est.note_death(1, 40.0)
        assert est.completed_count == 1
        assert est.fit(40.0).exposure == pytest.approx(30.0)

    def test_join_is_idempotent_while_open(self):
        est = LifetimeEstimator(min_deaths=1)
        est.note_join(1, 10.0)
        est.note_join(1, 25.0)  # duplicate: must not restart the session
        est.note_death(1, 40.0)
        assert est.fit(40.0).exposure == pytest.approx(30.0)

    def test_death_without_join_is_ignored(self):
        est = LifetimeEstimator()
        est.note_death(7, 40.0)  # e.g. DOWN->DEAD double event
        assert est.completed_count == 0
        assert est.open_count == 0

    def test_open_sessions_are_the_censored_ones(self):
        est = LifetimeEstimator()
        est.note_join(1, 0.0)
        assert est.open_count == 1
        assert est.exposure(2.0) == 2.0
        est.note_death(1, 5.0)
        assert est.open_count == 0
        assert est.exposure(6.0) == 5.0

    def test_reboot_opens_a_new_session(self):
        est = LifetimeEstimator(min_deaths=1)
        est.note_join(1, 0.0)
        est.note_death(1, 10.0)
        est.note_join(1, 30.0)
        est.note_death(1, 35.0)
        assert est.completed_count == 2
        assert est.fit(35.0).exposure == pytest.approx(15.0)


class TestCensoringCorrectness:
    @given(lifetimes_lists, st.floats(min_value=1.0, max_value=1e4))
    @settings(max_examples=100)
    def test_exposure_counts_open_sessions(self, completed, open_age):
        """Exposure = sum of completed lifetimes + ages of open sessions
        (the denominator of the censored exponential MLE)."""
        est = LifetimeEstimator(min_deaths=1)
        now = 0.0
        for i, life in enumerate(completed):
            est.note_join(i, now)
            est.note_death(i, now + life)
            now += life
        est.note_join(10_000, now)
        query = now + open_age
        assert est.fit(query).exposure == pytest.approx(
            sum(completed) + open_age, rel=1e-9)
        assert est.open_count == 1

    @given(lifetimes_lists)
    @settings(max_examples=100)
    def test_censored_mle_scale_is_exposure_over_deaths(self, completed):
        """With k open sessions of age A, the exponential fit's scale is
        (sum + k*A)/deaths — alive time at risk raises the estimate."""
        est = LifetimeEstimator(min_deaths=1)
        now = 0.0
        for i, life in enumerate(completed):
            est.note_join(i, now)
            est.note_death(i, now + life)
            now += life
        open_age = 50.0
        for j in range(3):
            est.note_join(10_000 + j, now)
        fit = est.fit(now + open_age)
        expected = (sum(completed) + 3 * open_age) / len(completed)
        assert fit is not None
        assert fit.scale == pytest.approx(expected, rel=1e-9)
        assert fit.censored == 3

    def test_censoring_removes_downward_bias(self):
        """Observing an exponential population through a short horizon:
        the naive mean of *finished* sessions underestimates the true
        mean badly; the censored fit does not."""
        rng = random.Random(9)
        true_mean = 100.0
        horizon = 60.0  # much shorter than the mean lifetime
        est = LifetimeEstimator(min_deaths=8)
        finished = []
        for i in range(400):
            start = rng.uniform(0.0, horizon)
            est.note_join(i, start)
            death = start + rng.expovariate(1.0 / true_mean)
            if death <= horizon:
                est.note_death(i, death)
                finished.append(death - start)
        fit = est.fit(horizon)
        assert fit is not None
        naive = sorted(finished)[len(finished) // 2]  # finished sessions only
        assert naive < true_mean * 0.5  # the bias being corrected
        assert fit.scale == pytest.approx(true_mean, rel=0.35)
        assert fit.scale > naive * 2


class TestFitConvergence:
    def _feed(self, est, rng, n, sample):
        now = 0.0
        for i in range(n):
            est.note_join(i, now)
            est.note_death(i, now + sample(rng))
            now += 1.0
        return now

    def test_exponential_quantiles_converge(self):
        rng = random.Random(17)
        est = LifetimeEstimator()
        now = self._feed(est, rng, 1500, lambda r: r.expovariate(1.0 / 120.0))
        fit = est.fit(now)
        assert fit is not None
        assert fit.scale == pytest.approx(120.0, rel=0.15)

    def test_fit_none_below_min_deaths(self):
        est = LifetimeEstimator(min_deaths=8)
        for i in range(7):
            est.note_join(i, 0.0)
            est.note_death(i, 10.0)
        assert est.fit(20.0) is None
        est.note_join(7, 0.0)
        est.note_death(7, 10.0)
        assert est.fit(20.0) is not None

    def test_conditional_survival_memoryless_for_exponential(self):
        """A session's age does not change its chance of outliving the
        next window: S(age + w) / S(age) = S(w)."""
        fit = SurvivalFit(scale=100.0, deaths=10, censored=0, exposure=1000.0)
        assert fit.survival(530.0) / fit.survival(500.0) == pytest.approx(fit.survival(30.0))
        assert fit.survival(30.0) == pytest.approx(math.exp(-0.3))

class TestTraceChurnSessions:
    def test_estimator_recovers_trace_lifetimes(self):
        """Sessions generated by the deterministic churn-trace builder
        (the E6d harness) land near the configured mean lifetime."""
        from repro.redundancy.churnbench import session_trace

        mean_lifetime = 80.0
        actions = session_trace(
            n_storage=40, seed=5, duration=2000.0,
            mean_lifetime=mean_lifetime, mean_downtime=10.0,
            churn_fraction=1.0, kills=0,
        )
        est = LifetimeEstimator()
        # replay the schedule as membership events (nodes start UP at t=0)
        for i in range(40):
            est.note_join(i, 0.0)
        for action in actions:
            if action.kind == "recover":
                est.note_join(action.node_index, action.time)
            else:
                est.note_death(action.node_index, action.time)
        fit = est.fit(2000.0)
        assert fit is not None
        assert fit.deaths > 100
        # first sessions start at t=0 (not at an exponential draw), so
        # allow a generous band around the configured mean
        assert fit.mean_lifetime == pytest.approx(mean_lifetime, rel=0.35)

    def test_simulated_cluster_feeds_estimator(self):
        """End-to-end: each storage node's redundancy manager feeds its own estimator from the peers it sees — a
        session opens at a peer's first sighting and closes at its last,
        once the peer lapses out of the count window."""
        from dataclasses import replace

        from repro.core.config import DataDropletsConfig
        from repro.core.datadroplets import DataDroplets

        config = DataDropletsConfig(seed=3, n_storage=12, n_soft=2, replication=3)
        config = replace(config, adaptive_min_deaths=2)
        dd = DataDroplets(config).start(warmup=10.0)
        observer = dd.storage_nodes[-1].protocol("redundancy")
        sessions = observer.policy.lifetimes
        assert sessions is observer.lifetimes
        assert sessions.open_count == 11  # every peer, once
        assert sessions.completed_count == 0
        dd.storage_nodes[0].crash()
        dd.storage_nodes[1].crash(permanent=True)
        dd.run_for(observer.count_window() + 2 * config.repair.check_period)
        assert sessions.completed_count == 2
        assert sessions.open_count == 9
        assert observer.policy.survival_over_window(dd.sim.now) is not None
