"""Seeded good-set sampler.

A good set takes exactly one candidate per line class, and no two of its
candidates share a bundle class.  The sampler walks the line classes in
order, draws a candidate whose bundle class is still unused, and starts
over when a line class has none left.  Every draw is checked with the
library predicate ``is_good``.
"""

from __future__ import annotations

import random

from spreadsmith import goodsets


def slot_table(lam):
    """Candidates grouped by line class, each with its bundle class."""
    slots = [[] for _ in range(lam.spec.q + 1)]
    for cand in goodsets.candidate_universe(lam):
        slots[goodsets.line_class(lam, cand)].append(
            (cand, goodsets.bundle_class(lam, cand)))
    return slots


def draw(lam, rng: random.Random, slots):
    """One good set in canonical form; ``slots`` is ``slot_table(lam)``."""
    while True:
        used = set()
        chosen = []
        for options in slots:
            free = [(cand, b) for cand, b in options if b not in used]
            if not free:
                break
            cand, b = rng.choice(free)
            used.add(b)
            chosen.append(cand)
        else:
            gs = goodsets.canonical(chosen)
            verdict = goodsets.is_good(lam, gs)
            if not verdict.ok:
                raise AssertionError(f"sampler drew a set that is not good: {gs}")
            return gs


def draws(lam, seed: int, count: int):
    """``count`` good sets from one seeded stream."""
    rng = random.Random(seed)
    slots = slot_table(lam)
    return [draw(lam, rng, slots) for _ in range(count)]


def bad_variant(lam, gs, rng: random.Random):
    """A record that fails ``is_good``: one candidate moved onto the line
    class of another, so the pair fails the unit-ratio condition."""
    q = lam.spec.q
    i, j = rng.sample(range(len(gs)), 2)
    a, u, v = gs[j]
    target = goodsets.line_class(lam, gs[i])
    # keep the move inside the unit exponents: u - v = target (mod q+1)
    moved = goodsets.Candidate(a, u, (u - target) % (q + 1))
    out = list(gs)
    out[j] = moved
    if len(set(out)) != len(out):
        out[j] = goodsets.Candidate(a, (v + target) % (q + 1), v)
    bad = goodsets.canonical(out)
    if len(set(bad)) != len(bad) or goodsets.is_good(lam, bad).ok:
        raise AssertionError(f"planted record is not bad: {bad}")
    return bad
