"""Good sets: predicates, plane model, enumeration, counts and label
actions.  Frozen expected counts were computed by two independent methods
(raw pairwise brute force over all candidate subsets, and the line/bundle
assignment count) before being asserted here."""

import itertools

import pytest

from spreadsmith.field_tower import lambda_for_q
from spreadsmith.goodsets import (
    Candidate,
    G1Element,
    PlaneModel,
    apply_G1,
    candidate_universe,
    canonical,
    census,
    count_formula,
    count_formula_even_simplified,
    count_good_sets,
    dual,
    enumerate_good_sets,
    epsilon,
    fixed_plane_good_set,
    fixed_point_good_set,
    flip_canonical,
    flip_classes,
    intersection_profile,
    is_good,
    is_good_geometric,
)
from spreadsmith.proj_geometry import normalize

# computed by exhaustive search over the raw pairwise conditions (q <= 5)
# and by the assignment-count method (all); the two agree where both run
FROZEN_COUNTS = {3: 64, 4: 120, 5: 46080, 7: 283262976,
                 8: 7142567040, 9: 3805072588800,
                 11: 119583683090841600, 13: 6831653917205672755200,
                 16: 82743749216760212076367872000}


def test_counts_against_frozen_oracle_values():
    for q, want in FROZEN_COUNTS.items():
        lam = lambda_for_q(q)
        assert count_good_sets(lam) == want
        if q <= 5:
            assert len(list(enumerate_good_sets(lam))) == want
        if q % 2 == 0:
            # the leading even-q closed form tracks the census everywhere
            assert count_formula(q, "all_even") == want


def test_enumeration_complete_against_raw_subsets_q3():
    lam = lambda_for_q(3)
    univ = candidate_universe(lam)
    raw = sorted(canonical(sub) for sub in itertools.combinations(univ, 4)
                 if is_good(lam, sub).ok)
    assert raw == sorted(enumerate_good_sets(lam))


def test_published_formula_values():
    # leading even-q expression at q=4
    assert count_formula(4, "all_even") == 120
    # odd-q closed form values as printed
    assert count_formula(5, "all_odd") == 2304
    assert count_formula(7, "all_odd") == 2359296
    # norm-minus-one-free variant at q=7
    assert count_formula(7, "exclude_minus_one_odd") == 147456
    # the conflicting even-q simplification is not even an integer at q=4
    assert count_formula_even_simplified(4).denominator == 4
    with pytest.raises(ValueError):
        count_formula(4, "all_odd")
    with pytest.raises(ValueError):
        count_formula(5, "all_even")
    with pytest.raises(ValueError):
        count_formula(5, "nope")


def test_census_flags():
    cen4 = census(lambda_for_q(4))
    assert cen4.oracle == 120
    assert cen4.oracle_matches["all_even"]
    assert cen4.formula_conflict
    cen5 = census(lambda_for_q(5))
    assert cen5.oracle == 46080
    assert not cen5.oracle_matches["all_odd"]
    cen3 = census(lambda_for_q(3))
    assert cen3.oracle == 64 and cen3.formulas["all_odd"] == 0


def test_fixed_plane_and_dual_examples():
    for q in (3, 4, 5):
        lam = lambda_for_q(q)
        for a in lam.I:
            gs = fixed_plane_good_set(lam, a, 1)
            assert is_good(lam, gs).ok
            gd = dual(gs)
            assert is_good(lam, gd).ok
            assert dual(gd) == gs
            assert gd == fixed_point_good_set(lam, a, 1)
    with pytest.raises(ValueError):
        fixed_plane_good_set(lambda_for_q(3), lambda_for_q(3).eta_index
                             if False else 0, 0)


def test_is_good_error_paths():
    lam = lambda_for_q(3)
    gs = fixed_plane_good_set(lam, lam.I[0], 0)
    with pytest.raises(ValueError, match="exactly"):
        is_good(lam, gs[:-1])
    with pytest.raises(ValueError, match="duplicate"):
        is_good(lam, gs[:-1] + (gs[0],))
    with pytest.raises(ValueError, match="I class"):
        is_good(lam, tuple(Candidate(lam.eta_index, c.u_pow, c.v_pow) for c in gs))


def test_ratio_violation_detected():
    # two candidates with u/v equal violate the unit-ratio condition
    lam = lambda_for_q(3)
    a = lam.I[0]
    cands = [Candidate(a, 0, 0), Candidate(a, 1, 1),
             Candidate(a, 1, 2), Candidate(a, 2, 0)]
    verdict = is_good(lam, cands)
    assert not verdict.ok and verdict.condition == "unit-ratio"
    assert set(verdict.witness) == {Candidate(a, 0, 0), Candidate(a, 1, 1)}


def model_points(model):
    """The point set Z of the plane model: the union of its Z_alpha."""
    return frozenset().union(*(model.Z_alpha(a) for a in model.lam.I))


def epsilon_inverse(lam, pts):
    """The labels of model points (1, alpha u, alpha v), read back through
    the norm class of alpha u and the unit-circle positions of u and v."""
    s = lam.spec
    uidx = {u: i for i, u in enumerate(s.unit_circle())}
    out = []
    for pt in pts:
        x1, x2, x3 = normalize(s, pt)
        if x1 != 1:
            raise ValueError(f"point {pt} is not in the model point set")
        a = lam.index_by_norm(s.norm(x2))
        alpha = lam.alpha(a)
        out.append(Candidate(a, uidx[s.div(x2, alpha)], uidx[s.div(x3, alpha)]))
    return canonical(out)


def test_epsilon_injective_and_in_model():
    for q in (3, 4):
        lam = lambda_for_q(q)
        model = PlaneModel(lam)
        Z = model_points(model)
        univ = candidate_universe(lam)
        pts = epsilon(lam, univ[: len(univ)])
        assert len(set(pts)) == len(univ)
        assert set(pts) <= Z
        assert len(Z) == len(lam.I) * (q + 1) ** 2
        gs = fixed_plane_good_set(lam, lam.I[0], 0)
        assert epsilon_inverse(lam, epsilon(lam, gs)) == gs


def test_fixed_plane_image_lies_on_one_conic_per_bundle():
    # oracle: evaluate b = alpha*u / (alpha*v0)^q per candidate; all distinct
    lam = lambda_for_q(4)
    s = lam.spec
    a = lam.I[0]
    alpha = lam.alpha(a)
    U = s.unit_circle()
    gs = fixed_plane_good_set(lam, a, 0)
    bs = [s.div(s.mul(alpha, U[c.u_pow]), s.frobenius(s.mul(alpha, U[c.v_pow])))
          for c in gs]
    assert len(set(bs)) == len(gs)
    model = PlaneModel(lam)
    for c, b in zip(gs, bs):
        pt = epsilon(lam, [c])[0]
        assert model.on_conic(alpha, b, pt)


def test_geometric_predicate_examples():
    lam = lambda_for_q(3)
    gs = fixed_plane_good_set(lam, lam.I[0], 0)
    assert is_good_geometric(lam, gs)
    bad = (Candidate(1, 0, 0), Candidate(1, 1, 1),
           Candidate(1, 1, 2), Candidate(1, 2, 0))
    assert not is_good_geometric(lam, bad)
    with pytest.raises(ValueError):
        is_good_geometric(lam, (gs[0],) * 4)


def test_intersection_profile_cases():
    # even q: always one point on the shared component, zero across
    lam4 = lambda_for_q(4)
    s4 = lam4.spec
    for c in s4.unit_circle():
        prof = intersection_profile(lam4, c, 1)
        assert all(v == (1 if a == b else 0) for (a, b), v in prof.items())
    # odd q: secant or external by the square class of the norm
    lam5 = lambda_for_q(5)
    s5 = lam5.spec
    half = 3
    for c in s5.unit_circle():
        for b in s5.unit_circle():
            prof = intersection_profile(lam5, c, b)
            sign = s5.pow(s5.mul(c, b), half)
            for a_idx in lam5.I:
                sq = s5.is_square_subfield(lam5.norm_of(a_idx))
                want = 2 if (sq and sign == 1) or (not sq and sign == s5.minus_one()) else 0
                assert prof[(a_idx, a_idx)] == want
    with pytest.raises(ValueError):
        intersection_profile(lam5, 1, s5.generator)


def test_exclusion_filter():
    lam5 = lambda_for_q(5)
    s5 = lam5.spec
    filtered = list(enumerate_good_sets(lam5, exclude_norm_minus_one=True))
    assert filtered
    for gs in filtered[:50]:
        assert all(lam5.norm_of(c.alpha_idx) != s5.minus_one() for c in gs)
    assert count_good_sets(lam5, exclude_norm_minus_one=True) == len(filtered)
    # q=3: the only class has norm -1, so the filtered family is empty
    assert count_good_sets(lambda_for_q(3), exclude_norm_minus_one=True) == 0


def test_dual_of_every_good_set_is_good():
    # exhaustive over the full families at q=3,4
    for q in (3, 4):
        lam = lambda_for_q(q)
        for gs in enumerate_good_sets(lam):
            assert is_good(lam, dual(gs)).ok


def test_apply_G1_and_flip_canonical():
    lam = lambda_for_q(3)
    gs = fixed_plane_good_set(lam, lam.I[0], 1)
    for g in (G1Element(1, 0), G1Element(0, 3), G1Element(2, 1, swapped=True)):
        img = apply_G1(lam, gs, g)
        assert is_good(lam, img).ok
    assert apply_G1(lam, gs, G1Element(0, 0, swapped=True)) == dual(gs)
    with pytest.raises(ValueError):
        apply_G1(lam, gs, G1Element(9, 0))
    # flips land on the lexicographically smaller conjugate and are idempotent
    fc = flip_canonical(lam, gs)
    assert flip_canonical(lam, fc) == fc


@pytest.mark.parametrize("q", sorted(FROZEN_COUNTS))
def test_flip_classes_match_the_norm_arithmetic(q):
    """Reference: for odd q, a candidate whose alpha has norm -1 shares its
    class with the shift of both exponents by (q+1)/2, and the class is named
    by the lesser of the two; every other candidate is a class of its own."""
    lam = lambda_for_q(q)
    n = q + 1
    want = {}
    for c in candidate_universe(lam):
        a, u, v = c
        if q % 2 and lam.norm_of(a) == lam.spec.minus_one():
            want[c] = min(c, Candidate(a, (u + n // 2) % n, (v + n // 2) % n))
        else:
            want[c] = c
    assert flip_classes(lam) == want
