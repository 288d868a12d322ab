"""Measurement histograms and their CSV form."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidSpec


@dataclass
class MeasurementHistogram:
    shots: int
    counts: dict[str, int]

    def __post_init__(self):
        total = sum(self.counts.values())
        if total != self.shots:
            raise ValueError(f"counts sum {total} != shots {self.shots}")

    def probabilities(self) -> dict[str, float]:
        return {k: v / self.shots for k, v in self.counts.items()}


def check_shots(shots: int) -> None:
    """Reject a shot count below one: a histogram of no samples is no evidence."""
    if shots < 1:
        raise InvalidSpec(f"shots must be at least 1, got {shots}")


def tv_distance(a: MeasurementHistogram, b: MeasurementHistogram) -> float:
    """Total variation distance: half the L1 gap between outcome frequencies,
    summed by fsum, so the result does not depend on the order of the set."""
    pa, pb = a.probabilities(), b.probabilities()
    keys = set(pa) | set(pb)
    return 0.5 * math.fsum(abs(pa.get(k, 0.0) - pb.get(k, 0.0)) for k in keys)


def histogram_csv(h: MeasurementHistogram) -> str:
    """outcome,count rows; outcomes are bitstrings with qubit 0 rightmost,
    sorted lexicographically."""
    lines = ["outcome,count"]
    for key in sorted(h.counts):
        lines.append(f"{key},{h.counts[key]}")
    return "\n".join(lines) + "\n"

