"""Per-operation correctness gate.

Tolerances are the contractual ones of the acceptance suite:

* vortex: residual sup-norm <= 1e-10;
* gravitating: residual <= 1e-8, |volume identity| <= 1e-8, min density > 0;
* Einstein-Bogomol'nyi cross-validation: radial gap <= 1e-4,
  |delta c'| <= 1e-6 and unreduced-system residual <= 1e-6.

The certified outcome must also agree with the exact ``existence_oracle``.
An operation fails on a wrong verdict, a missed tolerance or an exception.
A *false certificate* -- a solution certified where the oracle rules one out,
or a certified solution that misses a tolerance -- makes the run incorrect;
a solve that reports non-convergence where a solution exists only fails.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from gravortex import equations, stability

VORTEX_RESIDUAL_TOL = 1e-10
GRAVITATING_RESIDUAL_TOL = 1e-8
VOLUME_IDENTITY_TOL = 1e-8
RADIAL_GAP_TOL = 1e-4
C_PRIME_TOL = 1e-6
GVE_RESIDUAL_TOL = 1e-6


@dataclass(frozen=True)
class Verdict:
    ok: bool
    false_certificate: bool = False
    reason: str = ""


OK = Verdict(True)


def expected(case) -> str:
    """"solution" or "none", from the exact oracle.

    The oracle is silent (Unknown) only for the torus at positive coupling,
    which the workloads pose where solutions are found; those must certify.
    """
    report = stability.existence_oracle(case.genus, case.mults, case.tau, case.oracle_alpha())
    return "none" if report.verdict is stability.ExistenceVerdict.NOT_EXISTS else "solution"


def _sup(fields) -> float:
    return max(float(np.max(np.abs(f.values))) for f in fields)


def _missed(reason: str) -> Verdict:
    return Verdict(False, True, f"missed tolerance: {reason}")


def _check_tolerances(case, result) -> Verdict:
    kind = case.kind
    if kind == "sweep":
        for rec in result.records:
            rep, ident = rec["report"], rec["identity"]
            alpha = rec["config"]["alpha"]
            if not rep["converged"]:
                return Verdict(False, False, f"sweep row alpha={alpha} not certified: {rep['message']}")
            if rep["final_residual"] > GRAVITATING_RESIDUAL_TOL:
                return _missed(f"sweep row alpha={alpha} residual {rep['final_residual']:.3e}")
            if abs(ident["volume_identity"]) > VOLUME_IDENTITY_TOL:
                return _missed(f"sweep row alpha={alpha} volume identity {ident['volume_identity']:.3e}")
            if not ident["min_density"] > 0.0:
                return _missed(f"sweep row alpha={alpha} min density {ident['min_density']:.3e}")
        return OK
    state, report = result.state, result.report
    residual = _sup(equations.residual_fields(state))
    if kind == "vortex":
        if residual > VORTEX_RESIDUAL_TOL:
            return _missed(f"vortex residual {residual:.3e}")
        return OK
    if kind == "gravitating":
        ident = equations.identity_report(state)
        if residual > GRAVITATING_RESIDUAL_TOL:
            return _missed(f"gravitating residual {residual:.3e}")
        if abs(ident.volume_identity) > VOLUME_IDENTITY_TOL:
            return _missed(f"volume identity {ident.volume_identity:.3e}")
        if not ident.min_density > 0.0:
            return _missed(f"min density {ident.min_density:.3e}")
        if report.alpha_reached != case.alpha:
            return _missed(f"alpha reached {report.alpha_reached} != {case.alpha}")
        return OK
    # Einstein-Bogomol'nyi
    gve = result.gve if kind == "eb_xval" else _sup(equations.direct_gve_residual(state))
    if gve > GVE_RESIDUAL_TOL:
        return _missed(f"unreduced-system residual {gve:.3e}")
    if kind == "eb_xval":
        if not result.radial.converged:
            return Verdict(False, False, "radial oracle did not converge")
        if result.gap > RADIAL_GAP_TOL:
            return _missed(f"radial gap {result.gap:.3e}")
        dc = abs(report.c_prime - result.radial.c_prime)
        if dc > C_PRIME_TOL:
            return _missed(f"|delta c'| {dc:.3e}")
    return OK


def check(case, result) -> Verdict:
    """Gate one operation's result."""
    if case.kind == "sweep":
        return _check_tolerances(case, result)
    want = expected(case)
    converged = result.report.converged
    if converged and want == "none":
        return Verdict(False, True, "wrong verdict: certified a solution the oracle rules out")
    if not converged and want == "solution":
        reason = result.report.failure_reason
        return Verdict(False, False, f"wrong verdict: not certified ({reason.value if reason else '?'}) "
                                     "where the oracle says a solution exists")
    if not converged:
        return OK
    return _check_tolerances(case, result)
