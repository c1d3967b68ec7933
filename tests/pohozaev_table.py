"""Both Pohozaev residuals of every row of build_table(40).

The table is solved as `build_table` solves it, with the same seeds, and
each ground state is recorded as the table runs it. Every row must solve
and meet both identities, |I_grad/I_p - n/k| and |I_sq/I_p - m/k|, to
BOUND. Too slow for the Tier-1 suite (about 15 s), so pytest does not
collect it. Run it from the repository root as

    PYTHONPATH=src python tests/pohozaev_table.py [max_dim]

It prints the worst row and exits 1 if any row misses the bound.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from gnyamabe import products

from oracles import pohozaev_residuals

# the tail model's floor on rows with n near 10 (4.5e-12 measured at
# (2, 11), ROADMAP item 16), with a margin of 10%
BOUND = 5e-12


def main(max_dim: int = 40) -> int:
    found = []
    search = products.find_ground_state

    def recorded(d, *args, **kwargs):
        found.append((d, search(d, *args, **kwargs)))
        return found[-1][1]

    products.find_ground_state = recorded
    try:
        rows = products.build_table(max_dim)
    finally:
        products.find_ground_state = search
    residuals = [(max(map(abs, pohozaev_residuals(gs.profile, d))), d.m, d.n)
                 for d, gs in found]
    failed = [(m, n) for r, m, n in residuals if r > BOUND]
    worst, m, n = max(residuals)
    print(f"{len(rows)} rows, worst residual {worst:.3g} at ({m}, {n}); "
          f"{len(failed)} above {BOUND:g}" + (f": {failed}" if failed else ""))
    return 1 if failed or len(rows) != len(found) else 0


if __name__ == "__main__":
    sys.exit(main(*map(int, sys.argv[1:])))
