"""Measurement histograms and their CSV form."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import InvalidSpec


@dataclass
class MeasurementHistogram:
    shots: int
    counts: dict[str, int]

    def __post_init__(self):
        check_shots(self.shots)
        if not isinstance(self.counts, dict):
            raise InvalidSpec(f"counts must be a dict, got {type(self.counts).__name__}")
        if not all(_is_int(v) and v >= 0 for v in self.counts.values()):
            raise InvalidSpec("counts must be non-negative integers")
        total = sum(self.counts.values())
        if total != self.shots:
            raise InvalidSpec(f"counts sum {total} != shots {self.shots}")

    def probabilities(self) -> dict[str, float]:
        return {k: v / self.shots for k, v in self.counts.items()}


def _is_int(v) -> bool:  # a Python or numpy integer; a bool is not
    return type(v) is int or isinstance(v, np.integer)


def _is_real(v) -> bool:  # a Python or numpy integer or float, finite as a float; a bool is not
    if _is_int(v):  # a Python int may lie past the float range
        return -sys.float_info.max <= v <= sys.float_info.max
    return isinstance(v, (float, np.floating)) and math.isfinite(v)


# the most shots a histogram takes: numpy's multinomial counts them in int64
SHOTS_MAX = 2 ** 63 - 1


def check_shots(shots: int) -> None:
    """Reject a shot count that is not an integer, is below one (a histogram
    of no samples is no evidence) or is past SHOTS_MAX."""
    if not _is_int(shots):
        raise InvalidSpec(f"shots must be an integer, got {shots!r}")
    if shots < 1:
        raise InvalidSpec(f"shots must be at least 1, got {shots}")
    if shots > SHOTS_MAX:
        raise InvalidSpec(f"shots must be at most 2^63 - 1, got {shots}")


def check_type(name: str, value, cls: type) -> None:
    """Raises InvalidSpec naming the type of a `value`, the argument `name`, that is not a `cls`."""
    if not isinstance(value, cls):
        article = "an" if cls.__name__[0] in "AEIOU" else "a"
        raise InvalidSpec(f"{name} must be {article} {cls.__name__}, got {type(value).__name__}")


def check_seed(seed: int) -> None:
    """Reject a seed that is not a non-negative Python or numpy integer (a bool is
    not), which numpy's generators refuse with a raw error or take for another."""
    if not _is_int(seed) or seed < 0:
        raise InvalidSpec(f"seed must be a non-negative integer, got {seed!r}")


def tv_distance(a: MeasurementHistogram, b: MeasurementHistogram) -> float:
    """Total variation distance: half the L1 gap between outcome frequencies,
    summed by fsum, so the result does not depend on the order of the set."""
    check_type("histogram", a, MeasurementHistogram)
    check_type("histogram", b, MeasurementHistogram)
    pa, pb = a.probabilities(), b.probabilities()
    keys = set(pa) | set(pb)
    return 0.5 * math.fsum(abs(pa.get(k, 0.0) - pb.get(k, 0.0)) for k in keys)


def histogram_csv(h: MeasurementHistogram) -> str:
    """outcome,count rows; outcomes are bitstrings with qubit 0 rightmost,
    sorted lexicographically."""
    check_type("histogram", h, MeasurementHistogram)
    lines = ["outcome,count"]
    for key in sorted(h.counts):
        lines.append(f"{key},{h.counts[key]}")
    return "\n".join(lines) + "\n"

