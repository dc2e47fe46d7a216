"""
Reproducible Monte Carlo runs
=============================

Sampling is keyed by (measure, seed) with a counter-based generator, so a
run is a pure function of its inputs: same seed, same trials, on any
machine, and the first k trials of a long run equal a short run of k.
"""

import numpy as np

from bellmodel import (
    COLUMN_ORDER,
    TSIRELSON_ANGLES,
    chi_square_statistic,
    chsh_measure,
    chsh_partial,
    decode_binary,
    empirical_measure,
    empirical_partial_expectation,
    sample,
)

measure = chsh_measure(TSIRELSON_ANGLES)

series = sample(measure, 1_000_000, seed=20260819)
again = sample(measure, 1_000_000, seed=20260819)
assert np.array_equal(series.x, again.x) and np.array_equal(series.j, again.j)
print("two runs with the same seed are identical")
print("generator:", series.generator)
print("measure digest:", series.measure_digest)
print()

prefix = sample(measure, 1000, seed=20260819)
assert np.array_equal(prefix.x, series.x[:1000])
print("a 1000-trial run is the prefix of the million-trial run")
print()

empirical = empirical_measure(series)
exact = chsh_partial(measure).term_values
print("partial expectations, estimated vs exact:")
for (i, j), term in zip(COLUMN_ORDER, exact):
    estimate = empirical_partial_expectation(empirical, i, j)
    print(f"  a{i}b{j}: {estimate:+.6f} vs {term:+.6f}  (diff {abs(estimate - term):.6f})")
print()

worst_cell = float(np.abs(empirical.frequencies - measure.probs).max())
print("worst cell frequency deviation:", round(worst_cell, 6))
print("chi-square against the exact table:", round(chi_square_statistic(empirical, measure), 2))
print()

# serialized forms: CSV carries the trial index, binary packs one byte per trial
small = sample(measure, 5, seed=42)
print(small.to_csv())
blob = small.to_binary()
print("binary:", list(blob))
x, y, i, j = decode_binary(blob)
assert np.array_equal(x, small.x) and np.array_equal(y, small.y)
print("binary round-trip ok")
