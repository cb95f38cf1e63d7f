"""Helpers shared by the test modules, imported as ``from helpers import ...``.

pytest puts this directory on ``sys.path`` when it imports a test module here (there is no
``__init__.py``), under ``python -m pytest`` and the ``pytest`` console script alike.
"""

import numpy as np

from gsvkit.stat_norm import StatMatrix


def standardized(x):
    """``x`` standardized as the one column of ``StatMatrix.from_raw``: a read-only view."""
    return StatMatrix.from_raw(np.reshape(x, (-1, 1))).data[:, 0]
