"""Timings at real-conference scale.

A large AI venue sees authorship incidences on the order of ten thousand.
This script generates an instance of that size (2000 papers, 500 authors,
3-7 authors per paper), runs every solver once, and prints wall-clock
timings plus the objective ladder: greedy (no cap) <= soft <= hard.  Both
exact solvers (hard cap, soft exact) run the same author-slot greedy
straight on the instance, without building the assignment network of the
paper's reduction; the soft pipeline goes through the LP instead.

Pass --quick to shrink the instance for a fast smoke run.
"""

import sys
import time

from deskrisk import (
    GeneratorSpec,
    generate,
    greedy_assign_basic,
    round_soft,
    solve_hard,
    solve_soft,
    solve_soft_exact,
    solve_soft_relaxed,
)

quick = "--quick" in sys.argv
n, m = (200, 50) if quick else (2000, 500)
spec = GeneratorSpec(n=n, m=m, authors_min=3, authors_max=7, seed=42)
instance = generate(spec)
b, lam = 5, 0.3
print(f"instance: {instance.n} papers, {instance.m} authors, "
      f"{instance.nnz} incidences; cap {b}, penalty {lam}")


def timed(label, fn):
    started = time.perf_counter()
    result = fn()
    elapsed = time.perf_counter() - started
    print(f"  {label:<28} {elapsed:8.3f}s")
    return result


print("\ntimings:")
_, greedy_report = timed("greedy (no cap)", lambda: greedy_assign_basic(instance))
_, hard_report = timed("hard cap (exact)", lambda: solve_hard(instance, b=b))
fractional, _ = timed("soft relaxation (LP)", lambda: solve_soft_relaxed(instance, b=b, lam=lam))
timed("rounding", lambda: round_soft(instance, fractional))
_, soft_report = timed("soft pipeline end-to-end", lambda: solve_soft(instance, b=b, lam=lam))
_, exact_report = timed("soft cap (exact)", lambda: solve_soft_exact(instance, b=b, lam=lam))

print("\nobjective ladder:")
print(f"  greedy, no cap:      {greedy_report.objective:10.3f}")
print(f"  soft cap (rounded):  {soft_report.objective:10.3f}  (LP bound {soft_report.lp_bound:.3f},"
      f" gap {soft_report.gap:.2e})")
print(f"  soft cap (exact):    {exact_report.objective:10.3f}")
print(f"  hard cap:            {hard_report.objective:10.3f}")
print(f"  max author load under hard cap: {max(hard_report.loads)} (cap {b})")

assert greedy_report.objective <= soft_report.objective + 1e-9
assert exact_report.objective <= soft_report.objective + 1e-9
assert exact_report.objective <= hard_report.objective + 1e-9
