"""Kernel backend selection.

The compiled Cython extension is used whenever it imports; otherwise the
pure-Python module, which is the reference implementation, runs instead.
The compiled temporal search propagates more weakly than the pure one, but
both return the least solution in the same fixed order, so their results
are identical.  Only the pure search can hand back its root fixpoint (the
``root`` list); the compiled one takes the argument and leaves the list
empty, so a temporal part decided on it reports no entailed (dis)equalities.
"""

from __future__ import annotations

from . import pure

try:
    from . import _speed
except ImportError:
    backend_name = "pure"
    temporal_search = pure.temporal_search
    find_induced_embedding = pure.find_induced_embedding
else:
    backend_name = "compiled"
    find_induced_embedding = _speed.find_induced_embedding

    def temporal_search(n, atoms, constraints, root=None):
        return _speed.temporal_search(n, atoms, constraints)
