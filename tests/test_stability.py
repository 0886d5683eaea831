"""Exact algebraic oracles: GIT classification, bounds, slopes, existence."""

import math
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gravortex.sections import Divisor
from gravortex.stability import (
    ExistenceVerdict,
    _frac,
    StabilityVerdict,
    alpha_star,
    bradlow_bound,
    bradlow_check,
    classify_divisor,
    classify_multiplicities,
    destabilizes,
    eb_coupling,
    existence_oracle,
    is_polystable,
    sigma_range,
    sigma_slope,
    topological_constant,
)


def _partitions(n, cap=None):
    cap = n if cap is None else cap
    if n == 0:
        yield ()
        return
    for first in range(min(n, cap), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


# ---------------------------------------------------------------------------
# GIT classification
# ---------------------------------------------------------------------------


def test_classification_frozen_cases():
    assert classify_multiplicities([1, 1, 1]).verdict is StabilityVerdict.STABLE
    assert classify_multiplicities([1, 1, 1]).witness is None
    cls = classify_multiplicities([2, 2])
    assert cls.verdict is StabilityVerdict.STRICTLY_POLYSTABLE
    assert cls.witness == (0, 1)
    cls = classify_multiplicities([3, 1])
    assert cls.verdict is StabilityVerdict.UNSTABLE
    assert cls.witness == 0
    # boundary: half the degree at one point, spread over three points
    assert classify_multiplicities([2, 1, 1]).verdict is StabilityVerdict.UNSTABLE
    assert classify_multiplicities([1]).verdict is StabilityVerdict.UNSTABLE
    assert classify_multiplicities([5, 1, 1]).witness == 0


def test_classification_matches_weight_rule_all_partitions_up_to_12():
    # independent statement of the rule: stable iff every multiplicity is
    # below N/2; polystable boundary only as two equal halves
    for n in range(1, 13):
        for part in _partitions(n):
            got = classify_multiplicities(part).verdict
            if all(2 * m < n for m in part):
                want = StabilityVerdict.STABLE
            elif len(part) == 2 and part[0] == part[1]:
                want = StabilityVerdict.STRICTLY_POLYSTABLE
            else:
                want = StabilityVerdict.UNSTABLE
            assert got is want, (part, got, want)


def test_classify_divisor_accepts_divisor_objects():
    d = Divisor(points=((0.0, 0.0), (0.5, 0.5)), multiplicities=(3, 1))
    assert classify_divisor(d).verdict is StabilityVerdict.UNSTABLE
    assert not is_polystable(d)
    assert is_polystable([1, 1])


def test_classification_rejects_bad_multiplicities():
    with pytest.raises(ValueError):
        classify_multiplicities([])
    with pytest.raises(ValueError):
        classify_multiplicities([0, 1])


@settings(max_examples=200)
@given(st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=6))
def test_classification_permutation_invariant(mults):
    base = classify_multiplicities(mults).verdict
    for perm in list(permutations(range(len(mults))))[:6]:
        permuted = [mults[i] for i in perm]
        assert classify_multiplicities(permuted).verdict is base


@settings(max_examples=200)
@given(st.lists(st.integers(min_value=1, max_value=9), min_size=2, max_size=6))
def test_unstable_witness_carries_maximal_weight(mults):
    cls = classify_multiplicities(mults)
    if cls.verdict is StabilityVerdict.UNSTABLE:
        assert mults[cls.witness] == max(mults)


# ---------------------------------------------------------------------------
# exact constants
# ---------------------------------------------------------------------------


def test_bradlow_bound_and_check():
    assert bradlow_bound(2.5) == Fraction(5, 4)
    assert bradlow_check(1, 2.5)
    assert not bradlow_check(1, 2.0)  # equality fails the strict bound
    assert not bradlow_check(2, 2.2)
    assert bradlow_check(2, 8)
    with pytest.raises(ValueError):
        bradlow_check(0, 2.5)


def test_topological_constant_exact():
    assert topological_constant(0, 0, 2.5, 1) == 0
    assert topological_constant(2, Fraction(1, 16), 8, 2) == 0
    assert topological_constant(2, Fraction(1, 32), 8, 2) == 1
    assert topological_constant(0, Fraction(1, 20), 2.5, 1) == Fraction(-1, 4)
    assert isinstance(topological_constant(2, 0.25, 4, 1), Fraction)


def test_eb_coupling_exact():
    assert eb_coupling(8, 2) == Fraction(1, 16)
    assert eb_coupling(2.5, 1) == Fraction(2, 5)
    assert topological_constant(2, eb_coupling(17, 3), 17, 3) == 0
    with pytest.raises(ValueError):
        eb_coupling(8, 0)


def test_alpha_star_exact():
    assert alpha_star(2, 4, 1) == Fraction(1, 4)
    assert alpha_star(3, 6, 2) == Fraction(1, 3)
    with pytest.raises(ValueError):
        alpha_star(1, 4, 1)
    with pytest.raises(ValueError):
        alpha_star(2, 4, 2)  # N = tau/2 violates the open bound


# ---------------------------------------------------------------------------
# twisted-triple slopes
# ---------------------------------------------------------------------------


def test_sigma_slope_formula():
    deg, mu = sigma_slope((2, 1, 3, 1), Fraction(1, 3))
    assert deg == Fraction(13, 3)
    assert mu == Fraction(13, 9)
    deg, mu = sigma_slope((1, 0, 2, 0), 5)
    assert (deg, mu) == (Fraction(2), Fraction(2))


def test_sigma_range_window():
    sigma_m, sigma_big = sigma_range((2, 1, 3, 1))
    assert sigma_m == Fraction(1, 2)
    assert sigma_big == Fraction(2)
    sigma_m, sigma_big = sigma_range((2, 2, 3, 1))
    assert sigma_m == Fraction(1)
    assert sigma_big == math.inf
    with pytest.raises(ValueError):
        sigma_range((0, 1, 1, 1))


@settings(max_examples=150)
@given(
    n1=st.integers(min_value=1, max_value=6),
    n2=st.integers(min_value=1, max_value=6),
    d1=st.integers(min_value=-6, max_value=8),
    d2=st.integers(min_value=-6, max_value=8),
)
def test_sigma_range_against_direct_formula(n1, n2, d1, d2):
    gap = Fraction(d1, n1) - Fraction(d2, n2)
    sigma_m, sigma_big = sigma_range((n1, n2, d1, d2))
    assert sigma_m == gap
    if n1 == n2:
        assert sigma_big == math.inf
    else:
        assert sigma_big == (1 + Fraction(n1 + n2, abs(n1 - n2))) * gap
        # window scales linearly with the slope gap
        assert (sigma_big - sigma_m) * abs(n1 - n2) == (n1 + n2) * gap


def test_destabilizes_semantics():
    triple = (2, 1, 3, 1)
    # the sub-triple (1, 0, 2, 0) has slope 2 + sigma*0 over rank 1
    assert destabilizes(triple, (1, 0, 2, 0), Fraction(1, 2))
    # at sigma = sigma_M the same sub only ties the slope: >= but not >
    assert not destabilizes(triple, (1, 0, 2, 0), 2)
    assert destabilizes(triple, (1, 0, 2, 0), 2, strict=False)
    with pytest.raises(ValueError):
        destabilizes(triple, (2, 1, 3, 1), 1)  # not proper
    with pytest.raises(ValueError):
        destabilizes(triple, (0, 0, 0, 0), 1)
    with pytest.raises(ValueError):
        destabilizes(triple, (3, 1, 1, 1), 1)  # sub-rank too big


@settings(max_examples=150)
@given(
    n1=st.integers(min_value=1, max_value=4),
    n2=st.integers(min_value=1, max_value=4),
    d1=st.integers(min_value=-4, max_value=5),
    d2=st.integers(min_value=-4, max_value=5),
    s1=st.integers(min_value=0, max_value=4),
    s2=st.integers(min_value=0, max_value=4),
    e1=st.integers(min_value=-4, max_value=5),
    e2=st.integers(min_value=-4, max_value=5),
    num=st.integers(min_value=-8, max_value=8),
    den=st.integers(min_value=1, max_value=6),
)
def test_destabilizes_matches_slope_comparison(n1, n2, d1, d2, s1, s2, e1, e2, num, den):
    if not (s1 <= n1 and s2 <= n2):
        return
    if (s1, s2) in ((0, 0), (n1, n2)):
        return
    sigma = Fraction(num, den)
    _, mu = sigma_slope((n1, n2, d1, d2), sigma)
    _, mu_sub = sigma_slope((s1, s2, e1, e2), sigma)
    assert destabilizes((n1, n2, d1, d2), (s1, s2, e1, e2), sigma) == (mu_sub > mu)


# ---------------------------------------------------------------------------
# existence oracle decision tree
# ---------------------------------------------------------------------------


def test_oracle_decoupled_alpha_zero():
    rep = existence_oracle(1, [1], 2.5, 0)
    assert rep.verdict is ExistenceVerdict.EXISTS_UNIQUE
    assert rep.theorem_tag == "Theorem 3.2"
    rep = existence_oracle(1, [1, 1], 2.5, 0)
    assert rep.verdict is ExistenceVerdict.NOT_EXISTS
    assert rep.theorem_tag == "Theorem 3.2"


def test_oracle_negative_coupling_unknown():
    rep = existence_oracle(0, [1, 1], 8, -1)
    assert rep.verdict is ExistenceVerdict.UNKNOWN
    assert rep.theorem_tag is None


def test_oracle_superimposed_divisor():
    rep = existence_oracle(0, [2], 8, Fraction(1, 100))
    assert rep.verdict is ExistenceVerdict.NOT_EXISTS
    assert rep.theorem_tag == "Theorem 3.8"
    # single point wins over every other genus-0 clause, even at c = 0
    rep = existence_oracle(0, [2], 8, Fraction(1, 16))
    assert rep.theorem_tag == "Theorem 3.8"


def test_oracle_genus0_necessity():
    rep = existence_oracle(0, [3, 1], 12, Fraction(1, 100))
    assert rep.verdict is ExistenceVerdict.NOT_EXISTS
    assert rep.theorem_tag == "Theorem 3.6"
    rep = existence_oracle(0, [1, 1], 3, Fraction(1, 100))  # Bradlow fails: 2 >= 3/2
    assert rep.verdict is ExistenceVerdict.NOT_EXISTS
    assert rep.theorem_tag == "Theorem 3.6"


def test_oracle_eb_boundary_and_gpy():
    rep = existence_oracle(0, [1, 1], 8, Fraction(1, 16))  # alpha tau N = 1
    assert rep.verdict is ExistenceVerdict.EXISTS
    assert rep.theorem_tag == "Theorem 3.5/3.7"
    rep = existence_oracle(0, [1, 1, 1], 8, Fraction(1, 100))  # stable, c > 0
    assert rep.verdict is ExistenceVerdict.EXISTS
    assert rep.theorem_tag == "Theorem 3.6 converse (GPY)"
    rep = existence_oracle(0, [1, 1], 8, Fraction(1, 10))  # c < 0 side
    assert rep.verdict is ExistenceVerdict.UNKNOWN
    rep = existence_oracle(0, [2, 2], 16, Fraction(1, 100))  # strictly polystable
    assert rep.verdict is ExistenceVerdict.UNKNOWN


def test_oracle_higher_genus():
    rep = existence_oracle(2, [1], 4, Fraction(1, 8))  # alpha < alpha_* = 1/4
    assert rep.verdict is ExistenceVerdict.EXISTS_UNIQUE
    assert rep.theorem_tag == "Theorem 3.9"
    rep = existence_oracle(2, [1], 4, Fraction(1, 4))  # boundary included
    assert rep.verdict is ExistenceVerdict.EXISTS_UNIQUE
    rep = existence_oracle(2, [1], 4, Fraction(1, 2))  # beyond the bound
    assert rep.verdict is ExistenceVerdict.UNKNOWN
    rep = existence_oracle(1, [1], 4, Fraction(1, 8))  # genus 1 not covered
    assert rep.verdict is ExistenceVerdict.UNKNOWN


@pytest.mark.parametrize("genus", [1, 2, 3])
@pytest.mark.parametrize("alpha", [Fraction(1, 100), Fraction(1, 4), Fraction(3)])
def test_oracle_applies_the_degree_bound_at_every_genus(genus, alpha):
    # integrating the first equation: 2 pi tau - 4 pi N = integral of P W > 0
    for mults, tau in (([1], 2), ([2], 4), ([1, 1], 3), ([3], 2)):
        rep = existence_oracle(genus, mults, tau, alpha)
        assert rep.verdict is ExistenceVerdict.NOT_EXISTS
        assert rep.theorem_tag == "degree identity"
        assert "degree bound fails" in rep.reason
    assert existence_oracle(genus, [1], Fraction(201, 100), alpha).verdict is not (
        ExistenceVerdict.NOT_EXISTS)


def test_oracle_serialization():
    d = rep = existence_oracle(0, [2], 8, Fraction(1, 16)).to_dict()
    assert d == {
        "verdict": "NotExists",
        "theorem_tag": "Theorem 3.8",
        "reason": "all 2 zeros coincide: no solution for any positive coupling",
    }


@settings(max_examples=200)
@given(
    mults=st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=5),
    tau_num=st.integers(min_value=1, max_value=40),
    alpha_num=st.integers(min_value=0, max_value=8),
)
def test_oracle_never_contradicts_bradlow_at_genus0(mults, tau_num, alpha_num):
    tau = Fraction(tau_num, 2)
    alpha = Fraction(alpha_num, 100)
    rep = existence_oracle(0, mults, tau, alpha)
    n = sum(mults)
    if rep.verdict in (ExistenceVerdict.EXISTS, ExistenceVerdict.EXISTS_UNIQUE):
        assert bradlow_check(n, tau)
        if alpha > 0:
            assert classify_multiplicities(mults).verdict is not StabilityVerdict.UNSTABLE


def test_exact_inputs_are_checked():
    with pytest.raises(TypeError, match="boolean"):
        _frac(True)
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="non-finite"):
            _frac(bad)
    with pytest.raises(TypeError, match="rational number"):
        _frac([1])
    with pytest.raises(ValueError, match="genus must be >= 0"):
        existence_oracle(-1, [1], 8, Fraction(1, 16))
    for mults in ([], [0], [2, -1]):
        with pytest.raises(ValueError, match="effective with positive degree"):
            existence_oracle(0, mults, 8, Fraction(1, 16))
    for tau in (0, -2):
        with pytest.raises(ValueError, match="tau must be positive"):
            existence_oracle(0, [1, 1], tau, Fraction(1, 16))
    with pytest.raises(ValueError, match="ranks must be nonnegative"):
        sigma_slope((-1, 2, 0, 0), 1)


def test_oracle_reasons_print_float_bounds_as_floats():
    # a bound computed from a float prints as that float, not as its binary fraction
    tau = 1.8458622466791834
    rep = existence_oracle(0, [1], tau, 0.0)
    assert rep.reason == "decoupled case: degree bound fails (N=1 >= 0.9229311233395917)"
    rep = existence_oracle(1, [1], tau, 0.035)
    assert rep.reason == "degree bound fails (N=1 >= 0.9229311233395917)"
    rep = existence_oracle(2, [1], 4.5, 0.01)
    assert rep.reason == f"higher genus with 0 < N < tau/2 and alpha <= {2 / (4.5 * 2.5)}"
    # exact inputs keep their exact rationals, and the decision stays exact
    rep = existence_oracle(0, [1], "37/20", 0)
    assert rep.reason == "decoupled case: degree bound fails (N=1 >= 37/40)"
    assert existence_oracle(2, [1], 4, Fraction(1, 8)).reason.endswith("alpha <= 1/4")
    assert existence_oracle(0, [1, 1], 4.0, 0.01).verdict is ExistenceVerdict.NOT_EXISTS


def test_oracle_names_the_witness_of_an_unstable_divisor():
    rep = existence_oracle(0, [1, 3], 12, Fraction(1, 100))
    assert rep.theorem_tag == "Theorem 3.6"
    assert rep.reason == "divisor is not polystable (witness point index 1)"
