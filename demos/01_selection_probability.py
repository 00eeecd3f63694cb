"""How the biased-coin labeling probability behaves.

The probability of labeling the k-th streamed example is
min(1, (1/g^2 + 1/g) * c0 * log(k) / (k-1)), where g measures how much
worse the best hypothesis forced to flip the candidate's label would be.
Small g (an uncertain example) saturates the probability at 1; the k term
makes every probability shrink as evidence accumulates; c0 scales the
whole schedule.
"""

import numpy as np

from reuselab import selection_probability

print("p as a function of g (k=101, c0=0.01):")
for g in (0.0, 0.01, 0.1, 0.5, 1.0, 2.0, 5.0):
    print(f"  g={g:<5} p={selection_probability(g, 101, 0.01):.6f}")

print("\np as a function of k (g=1, c0=0.01):")
for k in (2, 11, 101, 1001, 10001):
    print(f"  k={k:<6} p={selection_probability(1.0, k, 0.01):.6f}")

print("\np as a function of c0 (g=1, k=101):")
for c0 in np.geomspace(1e-4, 10, 6):
    print(f"  c0={c0:<10.4g} p={selection_probability(1.0, 101, c0):.6f}")

print("\nExpected number of labels on a 1000-example uniform stream,")
print("estimated by summing the saturated schedule for a few g levels:")
for c0 in (0.1, 1.0, 10.0):
    est = 1 + sum(selection_probability(1.0, k, c0) for k in range(2, 1001))
    print(f"  c0={c0:<5} roughly {est:6.1f} labels at g=1")
