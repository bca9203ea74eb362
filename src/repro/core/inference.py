"""Object lifetime inference (paper Section 4).

Every 16 GC cycles (the maximum object age in HotSpot's 4 age bits),
ROLP analyzes each allocation context's age curve from the OLD table.
The curve — number of objects per age — is typically triangular: it
rises to the age at which most of the context's objects die and falls
after it.  The peak age is the estimated lifetime.

A curve with *multiple* significant triangular peaks means objects
allocated through that context live for distinctly different spans —
an allocation-context conflict (the same allocation site reached via
different call paths).  Conflicts are handed to the resolver
(:mod:`repro.core.conflicts`), which enables thread-stack-state tracking
on call sites until the paths are disambiguated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set

from repro.heap.header import NUM_AGES
from repro.core.context import context_site
from repro.core.old_table import OldTable


@dataclass(frozen=True)
class CurveAnalysis:
    """Result of analyzing one context's age curve."""

    context: int
    total: int
    peaks: tuple
    estimated_age: int
    is_conflict: bool


@dataclass
class InferenceResult:
    """One inference pass over the whole OLD table."""

    gc_number: int
    analyses: Dict[int, CurveAnalysis] = field(default_factory=dict)
    #: allocation-site ids showing multi-peak (conflicting) curves
    conflicted_sites: Set[int] = field(default_factory=set)


def find_peaks(curve: List[int], significance: float = 0.05, min_count: int = 8) -> List[int]:
    """Indices of significant local maxima in a 16-column age curve.

    A peak must be a local maximum (plateaus count once, at their first
    index) and carry at least ``significance`` of the curve's maximum
    value and at least ``min_count`` objects — noise does not make a
    triangle.
    """
    top = max(curve) if curve else 0
    if top < min_count:
        return []
    threshold = max(min_count, significance * top)
    peaks: List[int] = []
    n = len(curve)
    i = 0
    while i < n:
        value = curve[i]
        if value < threshold:
            i += 1
            continue
        # extend over a plateau
        j = i
        while j + 1 < n and curve[j + 1] == value:
            j += 1
        left = curve[i - 1] if i > 0 else 0
        right = curve[j + 1] if j + 1 < n else 0
        if value > left and value > right:
            peaks.append(i)
        i = j + 1
    return peaks


def distinct_triangles(curve: List[int], peaks: List[int], valley_ratio: float = 0.35) -> List[int]:
    """Filter peaks down to genuinely separate triangles.

    Two adjacent peaks belong to different triangles only if the valley
    between them drops below ``valley_ratio`` of the smaller peak;
    otherwise they are one (noisy) shape and the taller wins.
    """
    if len(peaks) <= 1:
        return list(peaks)
    kept = [peaks[0]]
    for peak in peaks[1:]:
        previous = kept[-1]
        valley = min(curve[previous:peak + 1])
        smaller = min(curve[previous], curve[peak])
        if valley <= valley_ratio * smaller:
            kept.append(peak)
        elif curve[peak] > curve[previous]:
            kept[-1] = peak
    return kept


def analyze_curve(
    context: int,
    curve: List[int],
    significance: float = 0.05,
    min_count: int = 8,
    valley_ratio: float = 0.35,
    inflow_period: int = NUM_AGES,
) -> CurveAnalysis:
    """Full analysis of one context's curve.

    Column 0 gets an *inflow correction* before peak detection: right
    after the Nth GC of an inference window, column 0 necessarily holds
    roughly one inter-GC interval's worth of freshly allocated objects
    that simply have not been exposed to a collection yet.  For a
    steady allocation rate that is ``total / inflow_period`` objects —
    background inflow, not a die-young cohort — and without the
    correction every middle-lived context would grow a spurious age-0
    peak and be misread as a conflict.
    """
    total = sum(curve)
    adjusted = list(curve)
    if adjusted and inflow_period > 0:
        adjusted[0] = max(0, adjusted[0] - total // inflow_period)
    peaks = distinct_triangles(
        adjusted, find_peaks(adjusted, significance, min_count), valley_ratio
    )
    if not peaks:
        estimated = 0
    else:
        # the age at which most objects die
        estimated = max(peaks, key=lambda i: adjusted[i])
    return CurveAnalysis(
        context=context,
        total=total,
        peaks=tuple(peaks),
        estimated_age=estimated,
        is_conflict=len(peaks) >= 2,
    )


def estimate_drift(previous: InferenceResult, current: InferenceResult) -> float:
    """Mean |Δ estimated age| over contexts analyzed in both passes.

    The survivor-prediction-error signal the fuzzer maximizes: a stable
    demography converges (drift → 0); oscillating lifetimes or
    unresolved conflicts keep the estimates thrashing.  Contexts seen in
    only one pass carry no comparable estimate and are skipped; 0.0 when
    no context is shared.
    """
    shared = previous.analyses.keys() & current.analyses.keys()
    if not shared:
        return 0.0
    total = sum(
        abs(
            current.analyses[context].estimated_age
            - previous.analyses[context].estimated_age
        )
        for context in shared
    )
    return total / len(shared)


class InferenceEngine:
    """Periodic lifetime inference over the OLD table.

    Parameters
    ----------
    period_gcs:
        GC cycles between inference passes (16 — HotSpot's max age).
    min_samples:
        Minimum objects a context must have accumulated for its curve to
        be trusted at all.
    """

    def __init__(
        self,
        period_gcs: int = NUM_AGES,
        min_samples: int = 32,
        significance: float = 0.05,
        min_count: int = 8,
        valley_ratio: float = 0.35,
    ) -> None:
        self.period_gcs = period_gcs
        self.min_samples = min_samples
        self.significance = significance
        self.min_count = min_count
        self.valley_ratio = valley_ratio
        self.passes_run = 0

    def due(self, gc_number: int) -> bool:
        return gc_number > 0 and gc_number % self.period_gcs == 0

    def run(self, table: OldTable, gc_number: int, pretenured=None) -> InferenceResult:
        """Analyze every context, then clear the table for freshness.

        ``pretenured`` is an optional predicate marking contexts whose
        allocations already go to a dynamic generation.  Those objects
        bypass young collections entirely, so their column 0 piles up
        with no survival flow — a structural artifact, not a die-young
        cohort.  For such contexts column 0 is ignored and conflicts
        are never flagged: only a genuine lifetime *increase* (survival
        mass at higher ages, Section 6) can still surface; decreases
        arrive through the fragmentation path.
        """
        result = InferenceResult(gc_number=gc_number)
        for context in list(table.contexts()):
            curve = table.curve(context)
            if sum(curve) < self.min_samples:
                continue
            is_pretenured = bool(pretenured and pretenured(context))
            if is_pretenured:
                curve[0] = 0
                if sum(curve) < self.min_samples:
                    continue
            analysis = analyze_curve(
                context,
                curve,
                self.significance,
                self.min_count,
                self.valley_ratio,
                inflow_period=self.period_gcs,
            )
            if is_pretenured and analysis.is_conflict:
                analysis = CurveAnalysis(
                    context=analysis.context,
                    total=analysis.total,
                    peaks=analysis.peaks,
                    estimated_age=max(analysis.peaks),
                    is_conflict=False,
                )
            result.analyses[context] = analysis
            if analysis.is_conflict:
                result.conflicted_sites.add(context_site(context))
        table.clear()
        self.passes_run += 1
        return result
