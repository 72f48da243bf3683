"""Import numpy for the radio layer, failing fast with an actionable message.

The vectorized radio field (PR 6) made numpy a hard runtime dependency of
:mod:`repro.radio` — per-node state lives in contiguous arrays and the
delivery fan-out is one vector pass.  Importing it here, once, turns the
otherwise-deep ``ModuleNotFoundError`` stack trace into a one-line
instruction naming the install command and the documented floor version
(see ``requirements.txt``).
"""

from __future__ import annotations

#: Documented floor: 1.23 is the first release with Python 3.11 wheels.  The
#: radio draws its randomness from the stdlib, not from ``numpy.random``, so
#: the numpy version cannot move a fixed-seed stream.
NUMPY_FLOOR = "1.23"

try:
    import numpy as np
except ImportError as exc:  # pragma: no cover - exercised only without numpy
    raise ImportError(
        "repro's radio layer keeps per-node state in numpy arrays and needs "
        f"numpy >= {NUMPY_FLOOR}.  Install it with `pip install 'numpy>="
        f"{NUMPY_FLOOR}'` (or `pip install -r requirements.txt`)."
    ) from exc

__all__ = ["np", "NUMPY_FLOOR"]
