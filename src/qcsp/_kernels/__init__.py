"""Kernel backend selection.

The compiled Cython extension is used whenever it imports; otherwise the
pure-Python module, which is the reference implementation, runs instead.
The compiled temporal search propagates more weakly than the pure one, but
both return the least solution in the same fixed order, so their results
are identical.
"""

from __future__ import annotations

from . import pure

try:
    from . import _speed as _impl

    backend_name = "compiled"
except ImportError:
    _impl = pure
    backend_name = "pure"

temporal_search = _impl.temporal_search
find_induced_embedding = _impl.find_induced_embedding
