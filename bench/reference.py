"""Fixed reference programs that the benchmark times next to each command.

    python3 bench/reference.py small|bulk

The host's CPU speed drifts by tens of percent over seconds to minutes, so
a command's wall time alone does not repeat between runs. run.py runs one
of these programs right after every command and reports the ratio of the
two mean wall times, which cancels the drift and still moves when the
command gets faster or slower.

Neither imports cavity_bell, so no change to the package changes them.
Memory-bound and interpreter-bound code slow down by different factors
when the host is busy, so each workload is divided by the kind that is
closest to its own work: ``small`` runs many small kron/tensordot calls
(scan-oracle, pscan-closed, timing-sweep), ``bulk`` draws millions of
uniforms and bins them with searchsorted (mc-lossy).
"""

import sys

import numpy as np


def small(rng: np.random.Generator) -> float:
    a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    b = rng.standard_normal((6, 6))
    total = 0.0
    for _ in range(6000):
        k = np.kron(a, b)
        total += float(np.tensordot(k, k.conj(), axes=([1], [0])).trace().real)
    return total


def bulk(rng: np.random.Generator) -> float:
    edges = np.cumsum(np.full(4, 0.25))
    total = 0
    for _ in range(2):
        draws = rng.random(6_000_000).reshape(-1, 3)
        total += int(np.searchsorted(edges, draws[:, 0], side="right").sum())
        total += int(((draws[:, 1] < 0.9) & (draws[:, 2] < 0.9)).sum())
    return float(total)


KINDS = {"small": small, "bulk": bulk}

if __name__ == "__main__":
    print(f"{KINDS[sys.argv[1]](np.random.default_rng(20050727)):.6g}")
