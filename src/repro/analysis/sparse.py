"""Landmark entry points of the distance kernel.

:func:`maxmin_landmarks` and :func:`cross_distances` live with the one
tiled kernel in :mod:`repro.analysis.incidence`; this module keeps them
importable under the name landmark-ordination callers use.  Both take
the bool :class:`~repro.analysis.incidence.IncidenceMatrix`.
"""

from repro.analysis.incidence import cross_distances, maxmin_landmarks

__all__ = ["cross_distances", "maxmin_landmarks"]
