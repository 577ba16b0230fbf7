"""Seeded input generators owned by the benchmark.

Nothing here imports ``nilalg``: the generators produce plain data (family
spec dicts, rational matrices, sparse product tables) from a
``random.Random``, so the inputs depend only on the seed and on this file,
never on the library under test or on the test suite.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

LIE_FAMILIES = ("L", "Q", "TAU_NP1", "TAU_NP2")


def _odd(lo: int, hi: int) -> list[int]:
    """Odd integers in [lo, hi]."""
    return [v for v in range(lo, hi + 1) if v % 2]


def _spec(family: str, n: int, p: int, r=(), alpha=None) -> dict:
    return {"family": family, "n": n, "p": p, "r": list(r) or None,
            "alpha": alpha}


def _lie_rs(family: str, n: int, p: int) -> list[tuple[int, ...]]:
    """Every admissible ``r`` of a Lie-family spec; [] if (n, p) is not admissible."""
    m = n - p
    if p <= 1 or n < max(3 * p - 1, p + 8):
        return []
    if family in ("TAU_NP1", "TAU_NP2"):
        # r_{p-1} is fixed to n-p-1 (resp. n-p-2) and must be odd; the spec
        # carries r_1 < ... < r_{p-2} below it.
        fixed = m - 1 if family == "TAU_NP1" else m - 2
        return list(combinations(_odd(3, fixed - 1), p - 2)) if fixed % 2 else []
    if family == "Q" and m % 2 == 0:
        return []
    return list(combinations(_odd(3, m), p - 1))


def _leibniz_ok(family: str, n: int, p: int, alpha: int | None) -> bool:
    """Whether (n, p, alpha) is admissible for M3, M4 or M5."""
    m = n - p
    if m < 4:
        return False
    if family == "M3":
        return p % 2 == 1
    if p % 2 or p < 4:
        return False
    return not (family == "M4" and alpha == 1 and (n % 2 or n % m))


def valid_specs(family: str, n_max: int, alpha: int | None = None) -> list[dict]:
    """Every spec of ``family`` with n <= n_max that satisfies the catalog
    hypotheses, in a fixed order; for M4, ``alpha`` selects M4(0) or M4(1).

    The hypotheses are restated from the catalog's documented list, so a
    change to the catalog's validation shows up as failing ops, not as
    different inputs.
    """
    out = []
    for n in range(3, n_max + 1):
        for p in range(1, n):
            if family in LIE_FAMILIES:
                out.extend(_spec(family, n, p, r) for r in _lie_rs(family, n, p))
            elif _leibniz_ok(family, n, p, alpha):
                out.append(_spec(family, n, p, (), alpha))
    return out


def balanced_draw(rng: random.Random, pool: list, count: int) -> list:
    """``count`` items from ``pool``, each used floor or ceil(count/len) times.

    The pool is shuffled once per pass, so the multiset of drawn items varies
    with the seed only in which items take the leftover slots.
    """
    out = []
    while len(out) < count:
        batch = list(pool)
        rng.shuffle(batch)
        out.extend(batch[:count - len(out)])
    return out


_SCALES = tuple(Fraction(a, b) for a, b in
                ((1, 1), (-1, 1), (2, 1), (-2, 1), (1, 2), (-1, 2), (3, 2), (-2, 3)))
_MULTIPLIERS = tuple(Fraction(a, b) for a, b in
                     ((1, 1), (-1, 1), (2, 1), (-2, 1), (1, 2), (-1, 3), (3, 2)))


def sparse_basis_change(rng: random.Random, n: int,
                        moves: int) -> tuple[tuple[Fraction, ...], ...]:
    """A random invertible rational n x n matrix with few nonzeros.

    Built as a scaled identity followed by ``moves`` elementary row
    additions row_i += c * row_j (i != j) and a row permutation, so it is
    invertible by construction and each row has only a few nonzeros.
    """
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = rng.choice(_SCALES)
    for _ in range(moves):
        i, j = rng.sample(range(n), 2)
        c = rng.choice(_MULTIPLIERS)
        rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    rng.shuffle(rows)
    return tuple(tuple(row) for row in rows)


def random_nilpotent_products(rng: random.Random, dim: int
                              ) -> dict[tuple[int, int], list[tuple[int, Fraction]]]:
    """Sparse products of a 2-generated nilpotent table on e_1..e_dim.

    e_1 and e_2 have level 1.  Each later e_k is the product of two earlier
    basis vectors and takes the sum of their levels, so the table is
    nilpotent by construction.  A few extra products point only at targets
    whose level is at least the summed level.  The table need not satisfy
    the Leibniz identity.  Returns {(i, j): [(k, coeff)]} for
    ``Algebra.from_products``.
    """
    level = [1, 1]
    products: dict[tuple[int, int], list[tuple[int, Fraction]]] = {}
    for k in range(2, dim):
        while True:
            a, b = rng.randrange(k), rng.randrange(k)
            if (a, b) not in products:
                break
        products[(a, b)] = [(k, Fraction(rng.choice((1, 1, 1, 2, -1))))]
        level.append(level[a] + level[b])
    for _ in range(rng.randrange(dim)):
        a, b = rng.randrange(dim), rng.randrange(dim)
        targets = [k for k in range(2, dim) if level[k] >= level[a] + level[b]]
        if targets and (a, b) not in products:
            products[(a, b)] = [(rng.choice(targets),
                                 Fraction(rng.choice((1, -1, 2))))]
    return products
