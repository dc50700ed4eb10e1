"""The kernels behind the hot solver loops, re-exported from ``pure``.

``theories`` and ``oracle`` call them through this module, so a test can
replace one with ``monkeypatch``.  ``backend_name`` names the implementation
for benchmark reports.  The pair-status bits ``LT``, ``EQB`` and ``GT``
(``<``, ``=``, ``>``) are re-exported too, so callers that build kernel
patterns and constraints, and read the statuses off the rows of a root
fixpoint (bits 3k..3k+2 of row i for the pair (i, k)), use the kernel's own
encoding.
"""

from __future__ import annotations

from . import pure

backend_name = "pure"
LT, EQB, GT = pure.LT, pure.EQB, pure.GT
temporal_search = pure.temporal_search
find_induced_embedding = pure.find_induced_embedding
