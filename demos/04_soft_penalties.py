"""Soft load caps: penalties instead of hard infeasibility.

A hard cap can make an instance unsolvable (five single-authored papers,
cap two).  The soft variant keeps every instance feasible by charging a
penalty per nomination beyond the cap, and the penalty weight interpolates
between "ignore the cap" and "respect it whenever possible".

The pipeline: linearize the penalty with one overload variable per author,
solve the LP, round each paper to its largest fractional weight.  The LP
optimum is a certified lower bound, so the rounding gap is measurable; an
exact solver (the same author-slot greedy as the hard cap, run on the
instance itself rather than on the two-slope network of the paper's
reduction) shows how small that gap actually is.
"""

from deskrisk import (
    Instance,
    solve_soft,
    solve_soft_exact,
    solve_soft_relaxed,
)

# The instance that is infeasible under a hard cap of 2.
overloaded = Instance.from_rows([[1]] * 5, p=[0.1])
assignment, report = solve_soft(overloaded, b=2, lam=0.4)
print("five single-authored papers, soft cap 2, penalty 0.4 per overload:")
print(f"  nominations: {assignment.nominee}")
print(f"  objective {report.objective:.2f} = risk {report.expected_rejections:.2f}"
      f" + penalty {report.penalty:.2f}")

# A richer instance: two careful authors and a crowd of riskier ones.
papers = [[1, 2], [1, 3], [1, 4], [2, 3], [2, 5], [1, 2, 5], [3, 4, 5], [1, 5]]
p = [0.05, 0.10, 0.40, 0.55, 0.70]
instance = Instance.from_rows(papers, p)

print("\npenalty sweep on an 8-paper instance (cap 2):")
print(f"  {'lambda':>8} {'lp bound':>9} {'rounded':>8} {'gap':>8} {'exact':>8} {'overload':>8}")
for lam in (0.01, 0.1, 0.3, 1.0):
    _, rounded = solve_soft(instance, b=2, lam=lam)
    _, exact = solve_soft_exact(instance, b=2, lam=lam)
    over = sum(max(0, load - 2) for load in exact.loads)
    print(
        f"  {lam:8.2f} {rounded.lp_bound:9.3f} {rounded.rounded_objective:8.3f}"
        f" {rounded.gap:8.1e} {exact.objective:8.3f} {over:8d}"
    )
print("small penalties tolerate overloads; larger ones buy spread with risk.")

# The LP's overload variables are not free parameters: at any optimum each
# one settles at exactly max(0, fractional load - cap).
fractional, _ = solve_soft_relaxed(instance, b=2, lam=0.3)
print(f"\noverload variables at the LP optimum: {[round(y, 3) for y in fractional.y]}")
