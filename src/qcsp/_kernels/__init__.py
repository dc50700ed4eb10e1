"""The kernels behind the hot solver loops, re-exported from ``pure``.

``theories`` and ``oracle`` call them through this module, so a test can
replace one with ``monkeypatch``.  ``backend_name`` names the implementation
for benchmark reports.
"""

from __future__ import annotations

from . import pure

backend_name = "pure"
temporal_search = pure.temporal_search
find_induced_embedding = pure.find_induced_embedding
