# Build the full constants table: every factor pair m, n >= 2 with
# m + n <= 9, both factors round spheres. Each row reports the inverse
# Gagliardo-Nirenberg constant, the limiting Yamabe constant of the
# product, and the sphere invariant it stays below.

import time

from gnyamabe import build_table

start = time.perf_counter()
rows = build_table(9)
elapsed = time.perf_counter() - start

print("m,n,alpha0,sigma_inv,y_inf,y_sphere")
for r in rows:
    print(f"{r.m},{r.n},{r.alpha0:.7g},{r.sigma_inv:.7g},{r.y_inf:.7g},"
          f"{r.y_sphere:.7g}")
print(f"\n# {len(rows)} rows in {elapsed:.2f} s")

gaps = [(r.y_sphere - r.y_inf, r.m, r.n) for r in rows]
gap, m, n = min(gaps)
print(f"# tightest margin below the sphere: ({m},{n}) with {gap:.5f}")
