import random

import pytest

import sampler
from spreadsmith import field_tower, goodsets


@pytest.mark.parametrize("q", [3, 4, 7, 8, 9])
def test_same_seed_same_sets_and_every_draw_good(q):
    lam = field_tower.lambda_for_q(q)
    first = sampler.draws(lam, 11, 25)
    assert first == sampler.draws(lam, 11, 25)
    assert first != sampler.draws(lam, 12, 25)
    for gs in first:
        assert gs == goodsets.canonical(gs)
        assert goodsets.is_good(lam, gs).ok


def test_sampler_reaches_beyond_the_enumeration_prefix():
    lam = field_tower.lambda_for_q(4)
    family = set(goodsets.enumerate_good_sets(lam))
    drawn = set(sampler.draws(lam, 3, 200))
    assert drawn <= family
    assert len(drawn) > 50


@pytest.mark.parametrize("q", [4, 7, 9])
def test_bad_variant_fails_the_predicate(q):
    lam = field_tower.lambda_for_q(q)
    rng = random.Random(5)
    for gs in sampler.draws(lam, 5, 20):
        bad = sampler.bad_variant(lam, gs, rng)
        assert len(set(bad)) == len(bad)
        assert not goodsets.is_good(lam, bad).ok
