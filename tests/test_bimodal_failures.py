"""Tests for the hardware failure models."""

import math

import pytest

from repro.sim import Cluster, PoissonChurn, Simulation, UniformLatency
from repro.workloads import (
    COMMODITY_2011,
    DESKTOP_GRADE,
    HardwareProfile,
    accelerated,
)
from repro.workloads.failures import SECONDS_PER_YEAR


class TestHardwareProfiles:
    def test_permanent_fraction_small(self):
        # the paper's claim: transient >> permanent
        assert COMMODITY_2011.permanent_fraction < 0.05
        assert DESKTOP_GRADE.permanent_fraction < 0.05

    def test_event_rate_linear_in_size(self):
        rate_1k = COMMODITY_2011.churn_event_rate(1_000)
        rate_10k = COMMODITY_2011.churn_event_rate(10_000)
        assert rate_10k == pytest.approx(10 * rate_1k)

    def test_commodity_rates_plausible(self):
        # ~12 events/node-year over 10k nodes ~= a failure every ~4 min
        rate = COMMODITY_2011.churn_event_rate(10_000)
        assert 1 / 600 < rate < 1

    def test_concurrent_failures(self):
        down = COMMODITY_2011.expected_concurrent_failures(10_000)
        assert 0 < down < 100  # a handful of nodes down at any time

    def test_survival_probability_monotone_in_r(self):
        probabilities = [
            COMMODITY_2011.survival_probability(r, SECONDS_PER_YEAR)
            for r in (1, 2, 3, 5)
        ]
        assert probabilities == sorted(probabilities)
        assert probabilities[-1] > 0.9999

    def test_accelerated_preserves_mix(self):
        fast = accelerated(COMMODITY_2011, 1000.0)
        assert fast.permanent_fraction == pytest.approx(COMMODITY_2011.permanent_fraction)
        assert fast.total_rate_per_node_year == pytest.approx(
            1000 * COMMODITY_2011.total_rate_per_node_year
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            HardwareProfile(disk_arr=-0.1)
        with pytest.raises(ValueError):
            HardwareProfile(mean_reboot_seconds=0)
        with pytest.raises(ValueError):
            COMMODITY_2011.churn_event_rate(0)
        with pytest.raises(ValueError):
            COMMODITY_2011.survival_probability(0, 1.0)
        with pytest.raises(ValueError):
            accelerated(COMMODITY_2011, 0)

    def test_profile_drives_churn_model(self):
        """The headline integration: field-study rates -> simulator."""
        from tests.test_sim_node_network import echo_stack

        profile = accelerated(COMMODITY_2011, 50_000.0)
        sim = Simulation(seed=9)
        cluster = Cluster(sim, latency=UniformLatency(0.005, 0.02))
        cluster.add_nodes(50, echo_stack)
        churn = PoissonChurn(
            sim,
            cluster,
            event_rate=profile.churn_event_rate(50),
            mean_downtime=profile.mean_reboot_seconds,
            permanent_fraction=profile.permanent_fraction,
        )
        churn.start()
        sim.run_for(120.0)
        churn.stop()
        assert churn.crashes > 10
        # permanent failures remain the rare case
        assert churn.permanent_deaths <= churn.crashes * 0.2
