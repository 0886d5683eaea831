"""Exact algebraic oracles: degree bounds, divisor stability, couplings, slopes.

Everything in this module is computed in exact rational arithmetic
(`fractions.Fraction`); float inputs are converted through their exact binary
values, so equalities like alpha * tau * N == 1 are decided exactly.  Every
background surface has area Vol = 2*pi, so the degree bound tau * Vol / (4*pi)
is tau / 2 and the topological constant 2*pi*(chi - 2 alpha tau N) / Vol is
chi - 2 alpha tau N, both exactly.

The existence oracle combines the degree bound (at every genus a solution
forces N < tau * Vol / (4*pi): integrate the first equation), the divisor
classification on the sphere, the coupling sign c = chi - 2 alpha tau N, and
the higher-genus coupling window, returning a verdict plus the theorem tag
that justifies it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from numbers import Rational
from typing import Optional, Sequence, Union

RationalLike = Union[int, float, str, Fraction]


def _frac(x: RationalLike) -> Fraction:
    """Exact Fraction of an int/float/str/Fraction input."""
    if isinstance(x, bool):
        raise TypeError("boolean is not a numeric value")
    if isinstance(x, (Fraction, int, str)) or isinstance(x, Rational):
        return Fraction(x)
    if isinstance(x, float):
        if not math.isfinite(x):
            raise ValueError(f"non-finite value {x}")
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as a rational number")


# ---------------------------------------------------------------------------
# degree bound and coupling constants
# ---------------------------------------------------------------------------


def bradlow_bound(tau: RationalLike) -> Fraction:
    """The exact degree bound tau * Vol / (4*pi) = tau / 2 (area Vol = 2*pi)."""
    return _frac(tau) / 2


def bradlow_check(n: int, tau: RationalLike) -> bool:
    """True iff the strict degree bound N < tau * Vol / (4*pi) = tau / 2 holds."""
    if int(n) != n or n < 1:
        raise ValueError(f"degree must be a positive integer, got {n}")
    return Fraction(int(n)) < bradlow_bound(tau)


def topological_constant(chi: int, alpha: RationalLike, tau: RationalLike, n: int) -> Fraction:
    """c = 2*pi*(chi - 2*alpha*tau*N) / Vol = chi - 2*alpha*tau*N (area Vol = 2*pi), exactly."""
    return Fraction(int(chi)) - 2 * _frac(alpha) * _frac(tau) * int(n)


def eb_coupling(tau: RationalLike, n: int) -> Fraction:
    """The coupling alpha = 1/(tau*N) that makes c vanish at genus 0."""
    if n < 1:
        raise ValueError("degree must be a positive integer")
    return 1 / (_frac(tau) * int(n))


def alpha_star(genus: int, tau: RationalLike, n: int) -> Fraction:
    """Upper coupling bound (2g-2) / (2*tau*(tau/2 - N)) for genus >= 2.

    Requires genus >= 2 and 0 < N < tau/2.
    """
    if genus < 2:
        raise ValueError(f"alpha_star is defined for genus >= 2, got {genus}")
    t = _frac(tau)
    if not (0 < n and Fraction(int(n)) < t / 2):
        raise ValueError(f"alpha_star needs 0 < N < tau/2; got N={n}, tau={tau}")
    return Fraction(2 * genus - 2) / (t * (t - 2 * int(n)))


# ---------------------------------------------------------------------------
# divisor classification
# ---------------------------------------------------------------------------


class StabilityVerdict(str, Enum):
    STABLE = "Stable"
    STRICTLY_POLYSTABLE = "StrictlyPolystable"
    UNSTABLE = "Unstable"


@dataclass(frozen=True)
class DivisorClass:
    """Classification verdict with a witness when the verdict is not Stable.

    witness: index of a maximal-multiplicity point (Unstable) or the pair of
    indices carrying the two equal half-degree multiplicities
    (StrictlyPolystable); None for Stable.
    """

    verdict: StabilityVerdict
    witness: Optional[object] = None


def classify_multiplicities(mults: Sequence[int]) -> DivisorClass:
    """Classify a degree-N point configuration on the sphere by its weights.

    Stable when every multiplicity is < N/2; strictly polystable when the
    divisor is two points of multiplicity N/2 each; everything else is
    reported Unstable (this includes the boundary configurations with a
    multiplicity equal to N/2 spread over three or more points, which are
    semistable but not polystable and admit no solution either).
    """
    m = [int(x) for x in mults]
    if not m or any(x < 1 for x in m):
        raise ValueError("multiplicities must be positive integers")
    n = sum(m)
    if all(2 * x < n for x in m):
        return DivisorClass(StabilityVerdict.STABLE, None)
    if len(m) == 2 and m[0] == m[1]:
        return DivisorClass(StabilityVerdict.STRICTLY_POLYSTABLE, (0, 1))
    return DivisorClass(StabilityVerdict.UNSTABLE, int(max(range(len(m)), key=lambda i: m[i])))


def classify_divisor(divisor) -> DivisorClass:
    """Classify a Divisor (or a bare multiplicity sequence)."""
    mults = getattr(divisor, "multiplicities", divisor)
    return classify_multiplicities(tuple(mults))


def is_polystable(divisor) -> bool:
    return classify_divisor(divisor).verdict is not StabilityVerdict.UNSTABLE


# ---------------------------------------------------------------------------
# sigma-slope arithmetic for twisted triples
# ---------------------------------------------------------------------------


def _check_triple(triple: Sequence[int], allow_zero_ranks: bool) -> tuple[int, int, int, int]:
    n1, n2, d1, d2 = (int(x) for x in triple)
    if allow_zero_ranks:
        if n1 < 0 or n2 < 0 or n1 + n2 < 1:
            raise ValueError(f"ranks must be nonnegative with n1+n2 >= 1, got {triple}")
    else:
        if n1 < 1 or n2 < 1:
            raise ValueError(f"ranks must be positive, got {triple}")
    return n1, n2, d1, d2


def sigma_slope(triple: Sequence[int], sigma: RationalLike) -> tuple[Fraction, Fraction]:
    """(sigma-degree, sigma-slope) of a triple (n1, n2, d1, d2).

    deg_sigma = d1 + d2 + sigma * n2;  mu_sigma = deg_sigma / (n1 + n2).
    """
    n1, n2, d1, d2 = _check_triple(triple, allow_zero_ranks=True)
    s = _frac(sigma)
    deg = Fraction(d1 + d2) + s * n2
    return deg, deg / (n1 + n2)


def sigma_range(triple: Sequence[int]) -> tuple[Fraction, object]:
    """The stability window endpoints (sigma_m, sigma_M) of a triple.

    sigma_m = mu(T1) - mu(T2); sigma_M = (1 + (n1+n2)/|n1-n2|) (mu(T1)-mu(T2))
    when n1 != n2, and +inf (math.inf) when n1 == n2.
    """
    n1, n2, d1, d2 = _check_triple(triple, allow_zero_ranks=False)
    gap = Fraction(d1, n1) - Fraction(d2, n2)
    sigma_m = gap
    if n1 == n2:
        return sigma_m, math.inf
    sigma_big = (1 + Fraction(n1 + n2, abs(n1 - n2))) * gap
    return sigma_m, sigma_big


def destabilizes(
    triple: Sequence[int], sub: Sequence[int], sigma: RationalLike, strict: bool = True
) -> bool:
    """Whether a subtriple violates the sigma-(semi)stability of a triple.

    strict=True tests mu_sigma(sub) > mu_sigma(triple) (semistability
    violation); strict=False tests >= (stability violation).  The subtriple's
    ranks must satisfy 0 <= ni' <= ni and be proper and nonzero.
    """
    n1, n2, _, _ = _check_triple(triple, allow_zero_ranks=False)
    s1, s2, e1, e2 = (int(x) for x in sub)
    if not (0 <= s1 <= n1 and 0 <= s2 <= n2):
        raise ValueError("subtriple ranks must satisfy 0 <= ni' <= ni")
    if (s1, s2) == (0, 0) or (s1, s2) == (n1, n2):
        raise ValueError("subtriple must be proper and nonzero in ranks")
    _, mu = sigma_slope(triple, sigma)
    _, mu_sub = sigma_slope((s1, s2, e1, e2), sigma)
    return mu_sub > mu if strict else mu_sub >= mu


# ---------------------------------------------------------------------------
# existence oracle
# ---------------------------------------------------------------------------


class ExistenceVerdict(str, Enum):
    EXISTS_UNIQUE = "ExistsUnique"
    EXISTS = "Exists"
    NOT_EXISTS = "NotExists"
    UNKNOWN = "Unknown"


TAG_DECOUPLED = "Theorem 3.2"
TAG_GENUS0_NECESSITY = "Theorem 3.6"
TAG_GENUS0_GPY = "Theorem 3.6 converse (GPY)"
TAG_EB_CORRESPONDENCE = "Theorem 3.5/3.7"
TAG_SUPERIMPOSED = "Theorem 3.8"
TAG_HIGHER_GENUS = "Theorem 3.9"
TAG_DEGREE_IDENTITY = "degree identity"  # the first equation integrated, at every genus


@dataclass(frozen=True)
class ExistenceReport:
    verdict: ExistenceVerdict
    theorem_tag: Optional[str]
    reason: str

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict.value,
            "theorem_tag": self.theorem_tag,
            "reason": self.reason,
        }


def existence_oracle(
    genus: int, divisor, tau: RationalLike, alpha: RationalLike
) -> ExistenceReport:
    """Decide existence of a solution for the given data, when a theorem applies.

    ``divisor`` may be a Divisor or a sequence of multiplicities (only the
    multiplicities matter at genus 0; only the degree elsewhere).  Verdicts
    carry the tag of the theorem applied; Unknown carries none.
    """
    genus = int(genus)
    if genus < 0:
        raise ValueError("genus must be >= 0")
    mults = tuple(getattr(divisor, "multiplicities", divisor))
    n = sum(int(x) for x in mults)
    if n < 1 or any(int(x) < 1 for x in mults):
        raise ValueError("divisor must be effective with positive degree")
    a = _frac(alpha)
    t = _frac(tau)
    if t <= 0:
        raise ValueError("tau must be positive")
    bradlow = bradlow_check(n, tau)
    shown = float if isinstance(tau, float) else str  # a bound from a float prints as a float
    bound = shown(bradlow_bound(tau))

    if a == 0:
        if bradlow:
            return ExistenceReport(
                ExistenceVerdict.EXISTS_UNIQUE,
                TAG_DECOUPLED,
                f"decoupled case: degree bound N={n} < {bound} holds",
            )
        return ExistenceReport(
            ExistenceVerdict.NOT_EXISTS,
            TAG_DECOUPLED,
            f"decoupled case: degree bound fails (N={n} >= {bound})",
        )
    if a < 0:
        return ExistenceReport(
            ExistenceVerdict.UNKNOWN, None, "negative coupling is outside the known theory"
        )

    if genus == 0 and len(mults) == 1:
        return ExistenceReport(
            ExistenceVerdict.NOT_EXISTS,
            TAG_SUPERIMPOSED,
            f"all {n} zeros coincide: no solution for any positive coupling",
        )
    if not bradlow:
        return ExistenceReport(
            ExistenceVerdict.NOT_EXISTS,
            TAG_GENUS0_NECESSITY if genus == 0 else TAG_DEGREE_IDENTITY,
            f"degree bound fails (N={n} >= {bound})",
        )
    if genus == 0:
        cls = classify_multiplicities(mults)
        if cls.verdict is StabilityVerdict.UNSTABLE:
            return ExistenceReport(
                ExistenceVerdict.NOT_EXISTS,
                TAG_GENUS0_NECESSITY,
                f"divisor is not polystable (witness point index {cls.witness})",
            )
        atn = a * t * n
        if atn == 1:
            return ExistenceReport(
                ExistenceVerdict.EXISTS,
                TAG_EB_CORRESPONDENCE,
                "c = 0 with a polystable divisor and the degree bound",
            )
        if atn < 1:
            if cls.verdict is StabilityVerdict.STABLE:
                return ExistenceReport(
                    ExistenceVerdict.EXISTS,
                    TAG_GENUS0_GPY,
                    "c > 0 with a stable divisor and the degree bound",
                )
            return ExistenceReport(
                ExistenceVerdict.UNKNOWN,
                None,
                "c > 0 with a strictly polystable divisor is not covered",
            )
        return ExistenceReport(
            ExistenceVerdict.UNKNOWN, None, "c < 0 at genus 0 is not covered"
        )
    if genus >= 2:
        cap = alpha_star(genus, tau, n)
        if a <= cap:
            return ExistenceReport(
                ExistenceVerdict.EXISTS_UNIQUE,
                TAG_HIGHER_GENUS,
                f"higher genus with 0 < N < tau/2 and alpha <= {shown(cap)}",
            )
        return ExistenceReport(
            ExistenceVerdict.UNKNOWN,
            None,
            "outside the higher-genus coupling window",
        )

    return ExistenceReport(
        ExistenceVerdict.UNKNOWN, None, "no genus-1 existence theorem is encoded"
    )
