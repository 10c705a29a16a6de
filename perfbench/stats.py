"""Summary statistics the benchmark reports."""

from __future__ import annotations

import math
import statistics
from typing import Dict, Sequence, Tuple

#: A tail percentile is reported only where at least this many samples
#: lie beyond it.
TAIL_BEYOND = 10


def tail(samples: Sequence[float]) -> Tuple[float, float, int]:
    """The highest percentile with at least ``TAIL_BEYOND`` samples above.

    Returns ``(value, percentile, sample_count)``.  In sorted order the
    sample at index ``n - TAIL_BEYOND - 1`` has exactly ``TAIL_BEYOND``
    samples after it; its percentile is its rank on a 0-100 scale.
    """
    n = len(samples)
    if n <= TAIL_BEYOND:
        raise ValueError(
            "a tail needs more than %d samples, got %d" % (TAIL_BEYOND, n)
        )
    ordered = sorted(samples)
    rank = n - TAIL_BEYOND - 1
    return ordered[rank], 100.0 * rank / (n - 1), n


def geomean_of_medians(samples: Dict[str, Sequence[float]]) -> float:
    """Median per program, then the geometric mean over programs.

    A median pooled over programs jumps between programs of different
    length as launch counts shift; per-program medians do not.
    """
    if not samples:
        raise ValueError("no programs")
    medians = [statistics.median(values) for values in samples.values()]
    return math.exp(sum(math.log(m) for m in medians) / len(medians))


class Tally:
    """Failure accounting over the launches of one run.

    A launch is ok when its child exited cleanly, its output digest, exit
    status and instruction count equal the native reference, and its
    ``VMStats`` equal those of the program's first launch in the run.
    Every launch handed to :meth:`add` counts as attempted.
    """

    def __init__(self, references: Dict[str, tuple]):
        self.references = references
        self.attempted = 0
        self.failed = 0
        self.failures: list = []
        self._stats: Dict[str, object] = {}

    def add(self, program: str, child):
        """Account one launch; returns its outcome when ok, else None."""
        self.attempted += 1
        reason = self._judge(program, child)
        if reason:
            self.failed += 1
            self.failures.append((program, reason))
            return None
        return child.value

    def _judge(self, program: str, child) -> str:
        if not child.ok:
            return child.error
        outcome = child.value
        digest, status, instructions = self.references[program]
        if outcome.output_digest != digest:
            return "output differs from native"
        if outcome.exit_status != status:
            return "exit status %d, native %d" % (outcome.exit_status, status)
        if outcome.instructions != instructions:
            return "instructions %d, native %d" % (
                outcome.instructions, instructions
            )
        first = self._stats.setdefault(program, outcome.stats)
        if outcome.stats != first:
            return "VMStats differ from the program's first launch"
        return ""
