"""The fuzzer's combined oracle: sanitizers + differential fingerprints.

The adversarial search loop (:mod:`repro.bench.fuzz`) runs every
candidate genome once per execution backend with level-2 invariant
verification live, and hands the per-backend outcomes to
:func:`judge`.  A candidate is *interesting* — worth shrinking and
banking into the regression corpus — when any of three oracles fire:

* ``invariant/<rule>`` — a sanitizer raised
  :class:`repro.analysis.InvariantViolation` (rule id preserved),
* ``differential/fingerprint-divergence`` — the reference and fast
  backends disagree at the byte level on the run fingerprint,
* ``inference/accuracy-cliff`` — inference ran but its survivor
  estimates thrash beyond :data:`ACCURACY_CLIFF_DRIFT` mean age steps
  per pass (the profiler's advice is then noise, violating the paper's
  convergence claim).

This module is pure judgment — no simulation, no I/O — so it is
trivially picklable across the runner's worker pool and reusable from
tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

#: mean |Δ estimated age| per inference pass beyond which the estimates
#: are considered thrashing (a full age-step per pass on average means
#: advice never converges)
ACCURACY_CLIFF_DRIFT = 1.0


@dataclass(frozen=True)
class OracleFinding:
    """One oracle firing for one candidate genome."""

    #: stable id: "invariant/<rule>", "differential/fingerprint-divergence"
    #: or "inference/accuracy-cliff"
    rule_id: str
    #: human-readable evidence
    detail: str

    def as_dict(self) -> Dict[str, str]:
        return {"rule_id": self.rule_id, "detail": self.detail}


def judge(
    results_by_backend: Dict[str, dict],
    accuracy_cliff_drift: float = ACCURACY_CLIFF_DRIFT,
) -> List[OracleFinding]:
    """Judge one candidate's per-backend evaluation results.

    ``results_by_backend`` maps backend name to the dict
    :func:`repro.bench.fuzz.evaluate_genome` returns::

        {"violation": {"rule": ..., "message": ...} | None,
         "fingerprint": <JSON-stable dict>,
         "metrics": {"prediction_error": float, ...}}

    Findings come back deterministically ordered: invariant findings
    first (by backend name), then divergence, then the accuracy cliff.
    """
    findings: List[OracleFinding] = []

    for backend in sorted(results_by_backend):
        violation = results_by_backend[backend].get("violation")
        if violation:
            findings.append(
                OracleFinding(
                    rule_id="invariant/%s" % violation["rule"],
                    detail="[%s] %s" % (backend, violation["message"]),
                )
            )

    divergence = fingerprint_divergence(results_by_backend)
    if divergence is not None:
        findings.append(divergence)

    # Judge accuracy on the reference backend (all backends agree
    # whenever the divergence oracle is quiet).
    reference = results_by_backend.get("reference")
    if reference is not None and not reference.get("violation"):
        drift = reference.get("metrics", {}).get("prediction_error", 0.0)
        passes = reference.get("metrics", {}).get("inference_passes", 0)
        if passes >= 2 and drift > accuracy_cliff_drift:
            findings.append(
                OracleFinding(
                    rule_id="inference/accuracy-cliff",
                    detail=(
                        "mean estimate drift %.3f age-steps/pass over %d passes"
                        " (cliff at %.2f)" % (drift, passes, accuracy_cliff_drift)
                    ),
                )
            )
    return findings


def fingerprint_divergence(
    results_by_backend: Dict[str, dict],
) -> Optional[OracleFinding]:
    """The cross-backend byte-equality check, as a single finding.

    Backends that raised a violation carry no comparable fingerprint
    and are excluded (the invariant finding already covers them).
    """
    fingerprints = {
        backend: result.get("fingerprint")
        for backend, result in results_by_backend.items()
        if not result.get("violation")
    }
    if len(fingerprints) < 2:
        return None
    import json

    encoded = {
        backend: json.dumps(fingerprint, sort_keys=True)
        for backend, fingerprint in fingerprints.items()
    }
    reference = min(encoded)  # lexicographically first backend name
    diverged = sorted(
        backend
        for backend, blob in encoded.items()
        if blob != encoded[reference]
    )
    if not diverged:
        return None
    return OracleFinding(
        rule_id="differential/fingerprint-divergence",
        detail="backends %s disagree with %s" % (", ".join(diverged), reference),
    )
