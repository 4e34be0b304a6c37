"""End-to-end integration: simulate -> publish -> scrape -> analyze.

Proves the full Section 3 methodology: analyses run over *scraped*
artifacts agree with analyses run over the simulator's direct output.
"""

from datetime import date

import pytest

from repro.analysis import hygiene_row
from repro.collection import publish_history, scrape_history
from repro.store import Dataset, StoreHistory
from tests.oracle import jaccard_distance


@pytest.fixture(scope="module")
def scraped_programs(dataset):
    """Scraped mini-dataset: the last 6 snapshots of each program,
    round-tripped through native artifacts."""
    scraped = Dataset()
    for provider in ("nss", "microsoft", "apple", "java"):
        sub = StoreHistory(provider)
        for snapshot in dataset[provider].snapshots[-6:]:
            sub.add(snapshot)
        scraped.add_history(scrape_history(provider, publish_history(sub)))
    return scraped


class TestScrapedAnalysesAgree:
    def test_tls_sets_identical(self, dataset, scraped_programs):
        for provider in ("nss", "microsoft", "apple", "java"):
            original = dataset[provider].snapshots[-6:]
            rebuilt = scraped_programs[provider].snapshots
            for a, b in zip(original, rebuilt):
                assert jaccard_distance(a.tls_fingerprints(), b.tls_fingerprints()) == 0.0

    def test_hygiene_metrics_agree(self, dataset, scraped_programs):
        for provider in ("nss", "microsoft"):
            original_sub = StoreHistory(provider)
            for snapshot in dataset[provider].snapshots[-6:]:
                original_sub.add(snapshot)
            original = hygiene_row(original_sub)
            rebuilt = hygiene_row(scraped_programs[provider])
            assert original.average_size == rebuilt.average_size
            assert original.average_expired == rebuilt.average_expired

    def test_partial_distrust_survives_nss_artifacts(self, dataset):
        """The server-distrust-after markings must round-trip through
        certdata.txt (they drive the Symantec analysis)."""
        marked_snapshot = dataset["nss"].at(date(2020, 6, 1))
        sub = StoreHistory("nss")
        sub.add(marked_snapshot)
        rebuilt = scrape_history("nss", publish_history(sub)).latest()
        original_marked = {e.fingerprint for e in marked_snapshot if e.distrust_after}
        rebuilt_marked = {e.fingerprint for e in rebuilt if e.distrust_after}
        assert original_marked and original_marked == rebuilt_marked

    def test_flattening_is_real(self, dataset):
        """Derivative formats genuinely cannot carry partial distrust:
        publishing Debian and re-scraping yields no distrust_after."""
        sub = StoreHistory("debian")
        sub.add(dataset["debian"].latest())
        rebuilt = scrape_history("debian", publish_history(sub)).latest()
        assert all(e.distrust_after is None for e in rebuilt)


class TestDeterminism:
    def test_corpus_regeneration_identical(self, corpus):
        """A second corpus from the same seed is byte-identical."""
        from repro.simulation import generate_corpus

        again = generate_corpus()
        for provider in corpus.dataset.providers:
            a = corpus.dataset[provider]
            b = again.dataset[provider]
            assert len(a) == len(b)
            assert a.latest().fingerprints() == b.latest().fingerprints()

    def test_snapshot_counts_near_paper(self, dataset):
        """Table 2 scale: ~619 snapshots across ten providers."""
        total = dataset.total_snapshots()
        assert 580 <= total <= 700
        assert len(dataset.providers) == 10
