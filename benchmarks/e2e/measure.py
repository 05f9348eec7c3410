"""Statistics of the end-to-end benchmark: percentiles, spread, verdicts.

Pure functions over lists of numbers, shared by ``run.py`` (reporting),
``compare.py`` (parent-vs-change verdicts) and the harness tests.
"""

from __future__ import annotations

import math
import statistics

__all__ = [
    "claim_verdict",
    "percentile",
    "range_frac",
    "regression_verdict",
    "spread",
]


def percentile(ordered: list[float], fraction: float) -> float:
    """Nearest-rank percentile of an ascending list.

    The smallest sample with at least ``fraction`` of all samples at or
    below it: index ``ceil(fraction * n) - 1``, clamped to the list.
    """
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = math.ceil(fraction * len(ordered))
    return ordered[min(max(rank, 1), len(ordered)) - 1]


def spread(values: list[float]) -> float:
    """Distance between the first and third quartile, over the median.

    Quartiles as ``statistics.quantiles(values, n=4)`` gives them; a
    single value, or a zero median, has no spread.
    """
    if len(values) < 2:
        return 0.0
    median = statistics.median(values)
    if not median:
        return 0.0
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / abs(median)


def range_frac(values: list[float]) -> float:
    """(max - min) / median; zero for a zero median."""
    median = statistics.median(values)
    return (max(values) - min(values)) / abs(median) if median else 0.0


def _worsening(base: float, head: float, better: str) -> float:
    """How much worse ``head`` is than ``base``, as a share of ``base``."""
    if not base:
        return 0.0 if head == base else math.inf
    change = (head - base) / abs(base)
    return change if better == "lower" else -change


def _beats(head: float, base: float, better: str) -> bool:
    return head < base if better == "lower" else head > base


def regression_verdict(
    base: list[float], head: list[float], bound: float, better: str
) -> str:
    """``ok``, ``regression`` or ``unresolved`` for one metric.

    The change regresses when its median is worse than the parent's by
    more than ``bound``.  When either side's run-to-run spread is wider
    than the bound the comparison cannot tell, and the metric is
    ``unresolved`` — unless every run of the change beats every run of
    the parent.
    """
    if all(_beats(h, b, better) for h in head for b in base):
        return "ok"
    if max(spread(base), spread(head)) > bound:
        return "unresolved"
    worse = _worsening(statistics.median(base), statistics.median(head), better)
    return "regression" if worse > bound else "ok"


def claim_verdict(pairs: list[tuple[float, float]], better: str) -> str:
    """``win`` or ``not met`` for a claimed gain over (parent, change) pairs.

    The change must win at least nine tenths of the pairs (ties count
    for neither side), and the medians must differ by more than the
    parent's own quartile distance.
    """
    if not pairs:
        return "not met"
    wins = sum(1 for base, head in pairs if _beats(head, base, better))
    base_values = [base for base, _ in pairs]
    head_values = [head for _, head in pairs]
    base_median = statistics.median(base_values)
    gain = -_worsening(base_median, statistics.median(head_values), better)
    iqr = spread(base_values) * abs(base_median)
    if wins * 10 >= 9 * len(pairs) and gain * abs(base_median) > iqr:
        return "win"
    return "not met"
