"""The repository's bench suites, declared for :mod:`repro.bench.runner`.

Each suite module holds its measuring code and one
:class:`~repro.bench.runner.Suite` declaration (``SUITE``): a name, its
fixed ``BENCH_*.json`` file, a ``run(dataset, smoke)`` callable and its
floors.  :data:`SUITES` maps every name to its declaration; run them
with ``repro-roots bench [SUITE ...] [--smoke]``.
"""

from repro.bench import archive, ingest, ordination, robustness, scale, scenario, serving

SUITES = {
    module.SUITE.name: module.SUITE
    for module in (archive, ingest, ordination, robustness, scale, scenario, serving)
}

__all__ = ["SUITES"]
