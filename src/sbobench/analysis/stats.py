"""Two-sample pooled-variance t-test.

The statistic and the degenerate-sample rule are computed here; the
two-sided p-value comes from scipy's Student t distribution.
"""

import math

import numpy as np


def pairwise_ttest(a, b) -> float:
    """Two-sided pooled-variance t-test p-value for two result samples.

    Both samples need at least two entries.  When both samples are
    constant the test degenerates: equal constants give p = 1.0 and
    different constants give p = 0.0.
    """
    from scipy.special import stdtr  # imported here: it adds to the package's import time

    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    n, m = a.size, b.size
    if n < 2 or m < 2:
        raise ValueError("each sample needs at least two values")
    mean_a, mean_b = float(a.mean()), float(b.mean())
    var_a = float(a.var(ddof=1))
    var_b = float(b.var(ddof=1))
    pooled = ((n - 1) * var_a + (m - 1) * var_b) / (n + m - 2)
    if pooled == 0.0:
        return 1.0 if mean_a == mean_b else 0.0
    t = (mean_a - mean_b) / math.sqrt(pooled * (1.0 / n + 1.0 / m))
    return float(2.0 * stdtr(n + m - 2, -abs(t)))
