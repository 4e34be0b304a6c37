"""Tests for the synthetic derivative-population generator."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.simulation import (
    DERIVATIVE_POLICIES,
    PopulationSpec,
    spec_for_snapshot_target,
    synthesize_policies,
    synthesize_policy,
    synthesize_population,
)
from repro.simulation.population import POPULATION_TEMPLATES, SYNTH_PREFIX


class TestPolicySynthesis:
    def test_deterministic(self):
        spec = PopulationSpec(providers=10)
        assert synthesize_policies(spec) == synthesize_policies(spec)

    def test_seed_changes_population(self):
        a = synthesize_policies(PopulationSpec(providers=10, seed="a"))
        b = synthesize_policies(PopulationSpec(providers=10, seed="b"))
        assert a != b

    def test_keys_are_namespaced_and_unique(self):
        policies = synthesize_policies(PopulationSpec(providers=50))
        keys = [p.key for p in policies]
        assert len(set(keys)) == 50
        for key in keys:
            assert key.startswith(f"{SYNTH_PREFIX}-")
            # Never collides with a real seeded provider (so the
            # bespoke Section-6.2 behaviours can never trigger).
            assert key not in DERIVATIVE_POLICIES

    def test_parameters_within_bounds(self):
        spec = PopulationSpec(providers=80)
        for policy in synthesize_policies(spec):
            assert spec.min_cadence_days <= policy.cadence_days <= spec.max_cadence_days
            assert 10 <= policy.lag_days <= 250
            assert 0 <= policy.lag_jitter_days < 60
            assert policy.data_start < policy.data_end
            assert (policy.data_end - policy.data_start).days >= 2 * policy.cadence_days
            assert policy.organic_responses is True
            if policy.base_freeze is not None:
                assert policy.data_start <= policy.base_freeze <= policy.data_end

    def test_windows_stay_inside_template_windows(self):
        earliest = min(t.data_start for t in POPULATION_TEMPLATES)
        latest = max(t.data_end for t in POPULATION_TEMPLATES)
        for policy in synthesize_policies(PopulationSpec(providers=60)):
            assert policy.data_start >= earliest
            assert policy.data_end <= latest

    def test_parameter_diversity(self):
        """The digest actually varies the knobs — no collapsed population."""
        policies = synthesize_policies(PopulationSpec(providers=60))
        assert len({p.cadence_days for p in policies}) > 20
        assert len({p.lag_days for p in policies}) > 20
        assert len({p.data_start for p in policies}) > 20
        assert any(p.base_freeze is not None for p in policies)
        assert any(p.conflate_email_until is not None for p in policies)

    def test_single_policy_matches_batch(self):
        spec = PopulationSpec(providers=5)
        assert synthesize_policy(spec, 3) == synthesize_policies(spec)[3]

    def test_spec_validation(self):
        with pytest.raises(SimulationError):
            PopulationSpec(providers=0)
        with pytest.raises(SimulationError):
            PopulationSpec(min_cadence_days=0)
        with pytest.raises(SimulationError):
            PopulationSpec(min_cadence_days=50, max_cadence_days=10)
        with pytest.raises(SimulationError):
            spec_for_snapshot_target(0)


class TestPopulationSynthesis:
    def test_population_extends_base_corpus(self, corpus):
        spec = PopulationSpec(providers=4)
        dataset = synthesize_population(corpus, spec)
        for provider in corpus.dataset.providers:
            assert provider in dataset
            assert dataset[provider].snapshots == corpus.dataset[provider].snapshots
        synthetic = [p for p in dataset.providers if p.startswith(SYNTH_PREFIX)]
        assert len(synthetic) == 4
        assert dataset.total_snapshots() > corpus.dataset.total_snapshots()

    def test_exclude_base(self, corpus):
        dataset = synthesize_population(
            corpus, PopulationSpec(providers=3), include_base=False
        )
        assert all(p.startswith(SYNTH_PREFIX) for p in dataset.providers)

    def test_population_is_deterministic(self, corpus):
        spec = PopulationSpec(providers=3)
        a = synthesize_population(corpus, spec, include_base=False)
        b = synthesize_population(corpus, spec, include_base=False)
        assert a.providers == b.providers
        for provider in a.providers:
            assert a[provider].snapshots == b[provider].snapshots

    def test_no_new_certificates_minted(self, corpus):
        """Synthetic stores only recombine the corpus catalog."""
        known = {
            corpus.mint.certificate_for(spec).fingerprint_sha256
            for spec in corpus.specs
        }
        dataset = synthesize_population(
            corpus, PopulationSpec(providers=3), include_base=False
        )
        for provider in dataset.providers:
            for snapshot in dataset[provider]:
                assert snapshot.fingerprints() <= known

    def test_snapshots_carry_flattened_bundle_trust(self, corpus):
        """Derivative formats cannot express partial distrust: every
        synthetic entry is plain bundle trust (the Section 6.2 story)."""
        dataset = synthesize_population(
            corpus, PopulationSpec(providers=2), include_base=False
        )
        provider = dataset.providers[0]
        snapshot = dataset[provider].snapshots[-1]
        assert len(snapshot.entries) > 0
        for entry in snapshot.entries:
            assert entry.is_tls_trusted

    def test_spec_for_snapshot_target_clears_target(self, corpus):
        # Keep the in-test target modest; the full 5k floor is enforced
        # by benchmarks/bench_suites.py against BENCH_scale.json.
        target = 300
        spec = spec_for_snapshot_target(target)
        capped = PopulationSpec(providers=min(spec.providers, 20), seed=spec.seed)
        dataset = synthesize_population(corpus, capped, include_base=False)
        if capped.providers == spec.providers:
            assert dataset.total_snapshots() >= target
        else:
            # Scaled-down proxy: per-provider yield implies the full
            # spec clears the target with its 20% margin.
            per_provider = dataset.total_snapshots() / capped.providers
            assert per_provider * spec.providers >= target
