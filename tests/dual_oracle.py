"""Exact optimum of a small soft-margin SVM dual, by enumerating faces.

This oracle cross-checks the SMO solver and shares no code with it. It
maximizes ``sum(a) - a'Qa / 2`` over ``0 <= a <= box`` with ``y'a = 0``.

Each alpha is put on one face of its box: at 0, at its bound, or free.
For each of the 3^n assignments, the free alphas ``a_F`` and the bias
multiplier ``b`` solve the KKT equalities

    Q_FF a_F + b y_F = 1 - Q_FU box_U,    y_F' a_F = -y_U' box_U.

Every feasible candidate is a lower bound on the optimum. Some maximizer
lies on a face whose system is nonsingular: along a null direction of a
singular face system the objective is constant, so a maximizer can be
moved until one more alpha reaches a bound. The best candidate is
therefore the optimum.
"""

import itertools

import numpy as np

MAX_N = 10


def svm_dual_optimum(q, box, y, tol=1e-8):
    n = len(y)
    if n > MAX_N:
        raise ValueError(f"face enumeration needs n <= {MAX_N}, got {n}")
    best = -np.inf
    for faces in itertools.product((0, 1, 2), repeat=n):
        faces = np.asarray(faces)
        free, upper = faces == 2, faces == 1
        a = np.where(upper, box, 0.0)
        m = int(free.sum())
        if m:
            lhs = np.zeros((m + 1, m + 1))
            lhs[:m, :m] = q[np.ix_(free, free)]
            lhs[:m, m] = lhs[m, :m] = y[free]
            rhs = np.append(1.0 - q[free] @ a, -(y @ a))
            try:
                a[free] = np.linalg.solve(lhs, rhs)[:m]
            except np.linalg.LinAlgError:
                continue
        if np.any(a < -tol) or np.any(a > box + tol) or abs(y @ a) > tol:
            continue
        a = np.clip(a, 0.0, box)
        best = max(best, float(a.sum() - 0.5 * a @ (q @ a)))
    return best
