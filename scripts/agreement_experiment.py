#!/usr/bin/env python3
"""Cross-check the two gradation searches on random nilpotent algebras.

Generates 2-generated nilpotent tables (level-filtered, so nilpotency is
guaranteed by construction) and compares the exhaustive diagonal search
against the adapted-basis search on each.  A diagonal positive that the
adapted-basis search does not find is a miss, and the script exits 1 if
there is one.  An adapted-only positive is a gradation that the diagonal
search does not cover (not diagonal in the given basis, or outside its
window), so it is counted and printed but is not a failure.

Usage:
    python scripts/agreement_experiment.py [--count N] [--seed S] [--max-dim D]
"""

from __future__ import annotations

import argparse
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from nilalg import diagonal_search, two_generator_search
from oracles import random_nilpotent_algebra


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=50)
    parser.add_argument("--seed", type=int, default=101)
    parser.add_argument("--max-dim", type=int, default=6)
    args = parser.parse_args()
    rng = random.Random(args.seed)
    agree = misses = adapted_only = found = 0
    for _ in range(args.count):
        dim = rng.randint(3, args.max_dim)
        alg = random_nilpotent_algebra(rng, dim)
        diag = diagonal_search(alg)
        two = two_generator_search(alg, samples=2)
        found += diag.is_maximum_length
        if diag.verdict == two.verdict:
            agree += 1
            continue
        if diag.is_maximum_length:
            misses += 1
            kind = "MISS"
        else:
            adapted_only += 1
            kind = "ADAPTED-ONLY"
        print(f"{kind} dim={dim}: diagonal={diag.verdict} "
              f"two_generator={two.verdict}")
        print(f"  table: { {k: v for k, v in alg.brackets.items()} }")
    print(f"agree={agree} misses={misses} adapted_only={adapted_only} "
          f"(maximum-length instances: {found})")
    return 1 if misses else 0


if __name__ == "__main__":
    sys.exit(main())
