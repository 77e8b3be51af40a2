"""Deterministic bootstrap confidence intervals for seed-averaged metrics.

The campaign runner averages every metric over a handful of independent
seeds; the analysis layer reports how trustworthy those means are.  With
n <= 10 seeds the Student-t interval leans hard on normality, so the
frontier tables use a percentile bootstrap of the mean instead — and,
like everything else in the runner stack, the resampling must be a pure
function of content: the resample index stream derives from
:func:`repro.util.rng.fold_seed` over caller-supplied labels (point
token, objective name), never from global RNG state, so serial runs,
process pools and warm-cache replays all report bit-identical intervals.

The resampled means are those of the scalar loop

.. code-block:: python

    rng = random.Random(fold_seed(base_seed, *labels))
    for _ in range(n_resamples):
        total = 0.0
        for _ in range(n):
            total += values[rng.randrange(n)]
        means.append(total / n)

float for float, but drawn in bulk rather than one Python call per
index.  The equivalence rests on two properties of CPython's
:class:`random.Random`:

* ``randrange(n)`` is ``getrandbits(k)`` with ``k = n.bit_length()``,
  redrawn while the result is ``>= n``; each ``getrandbits(k)`` with
  ``k <= 32`` consumes one 32-bit Mersenne Twister word and returns
  ``word >> (32 - k)``.
* ``getrandbits(32 * m)`` consumes the next ``m`` words and returns them
  least-significant word first, on every platform.

So one ``getrandbits(32 * m)`` call, split into words, shifted, and
filtered to the words below ``n`` in order, yields the loop's index
stream; when too few words survive, a further call continues the same
stream (over-drawing is harmless, because the generator is local to the
call).  The gathered ``(n_resamples, n)`` values are then added column
by column from ``0.0``, which repeats the loop's IEEE additions in the
loop's order (``sum(axis=1)`` does not promise that order), and divided
by ``n``.  ``tests/analysis/test_bootstrap.py`` keeps the scalar loop as
the oracle and pins the literal means of one input, so a CPython change
to either property fails loudly.
"""

from __future__ import annotations

import numbers
import random
from typing import List, Sequence

import numpy as np

from repro.util.rng import fold_seed


def bootstrap_mean_samples(
    values: Sequence[float],
    base_seed: int,
    *labels: object,
    n_resamples: int = 200,
) -> List[float]:
    """Resampled means of ``values``, drawn from a content-derived stream.

    Each resample draws ``len(values)`` observations with replacement
    from the ``random.Random(fold_seed(base_seed, *labels))`` stream; the
    stream depends only on the seed and labels, so any process
    reproduces it.  See the module docstring for how the draws are made.
    """
    n_resamples = _resample_count(n_resamples)
    values = list(values)
    if not values:
        raise ValueError("bootstrap of an empty sequence")
    return _resampled_means(values, fold_seed(base_seed, *labels), n_resamples).tolist()


def bootstrap_ci95(
    values: Sequence[float],
    base_seed: int,
    *labels: object,
    n_resamples: int = 200,
) -> float:
    """Half-width of the 95% percentile-bootstrap interval for the mean.

    Returns 0.0 for single observations (nothing to resample), matching
    :func:`repro.util.stats.confidence_interval_95`'s convention.
    """
    n_resamples = _resample_count(n_resamples)
    values = list(values)
    if len(values) <= 1:
        if not values:
            raise ValueError("bootstrap_ci95() of an empty sequence")
        return 0.0
    means = _ascending(
        _resampled_means(values, fold_seed(base_seed, *labels), n_resamples)
    )
    lo = _percentile(means, 0.025)
    hi = _percentile(means, 0.975)
    # Clamp: identical resampled means can differ by one ulp after the
    # percentile interpolation, which would print as a -1e-17 width.
    return max(0.0, (hi - lo) / 2.0)


def _ascending(means: np.ndarray) -> Sequence[float]:
    """``sorted(means.tolist())``, element for element.

    Without NaN, a stable array sort gives it unboxed: equal means, -0.0
    and 0.0 among them, keep their input order, as in ``sorted``.  numpy
    sorts NaN last where ``sorted`` leaves it wherever its comparisons
    happen to put it, so a NaN keeps the list sort.
    """
    if np.isnan(means).any():
        return sorted(means.tolist())
    return np.sort(means, kind="stable")


def _resample_count(n_resamples: object) -> int:
    """``n_resamples`` as an int; anything but a positive integer raises."""
    if not isinstance(n_resamples, numbers.Integral) or n_resamples <= 0:
        raise ValueError(f"n_resamples must be a positive int, got {n_resamples!r}")
    return int(n_resamples)


def _resampled_means(values: List[float], seed: int, n_resamples: int) -> np.ndarray:
    """The scalar loop's resampled means, from bulk-drawn indices."""
    n = len(values)
    indices = _randrange_stream(random.Random(seed), n, n_resamples * n)
    # Row j holds every resample's j-th draw, so adding the rows in order
    # repeats each resample's left-to-right loop additions.
    draws = np.asarray(values, dtype=np.float64).take(
        indices.reshape(n_resamples, n).T
    )
    totals = np.zeros(n_resamples)
    # The loop's float additions overflow to inf (or make nan) silently.
    with np.errstate(over="ignore", invalid="ignore"):
        for row in draws:
            totals += row
    return totals / n


def _randrange_stream(rng: random.Random, n: int, count: int) -> np.ndarray:
    """The next ``count`` values of ``rng.randrange(n)``, drawn in bulk."""
    k = n.bit_length()
    shift = 32 - k
    chunks = []
    kept = 0
    while kept < count:
        missing = count - kept
        # Each word survives with probability n / 2**k >= 1/2; ask for a
        # sixteenth more than the expected need so a top-up is rare.
        expected = -(-(missing << k) // n)
        words = expected + expected // 16 + 16
        draws = np.frombuffer(
            rng.getrandbits(32 * words).to_bytes(4 * words, "little"), dtype="<u4"
        ) >> shift
        chunks.append(np.compress(draws < n, draws))
        kept += len(chunks[-1])
    return np.concatenate(chunks)[:count]


def _percentile(sorted_values: Sequence[float], fraction: float) -> float:
    """Linear-interpolated percentile of an ascending sequence.

    The sequence may be a float64 array; the arithmetic is on Python
    floats either way.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")
    n = len(sorted_values)
    if n == 1:
        return float(sorted_values[0])
    position = fraction * (n - 1)
    low = int(position)
    high = min(low + 1, n - 1)
    weight = position - low
    return float(sorted_values[low]) * (1.0 - weight) + float(sorted_values[high]) * weight
