"""Hard per-author load caps: where one-pass heuristics break and the exact solver wins.

Capping how many papers may nominate the same author turns the problem into
a constrained assignment.  Committing paper by paper can paint you into a
corner even when a feasible assignment exists.  The exact solver instead
hands out author nomination slots cheapest first, moving earlier papers to
other co-authors whenever that makes room, so it never falls into that trap
and certifies infeasibility when the cap genuinely cannot be met.
"""

from deskrisk import (
    Instance,
    greedy_assign_hard,
    rand_assign_hard,
    solve_hard,
)

# The two-paper trap: paper 1 has authors {1, 2}, paper 2 has only author 1.
# With a cap of one nomination per author, paper 1 MUST take author 2.
trap = Instance.from_rows([[1, 2], [1]], p=[0.5, 0.5])

print("the trap instance (cap b = 1):")
for seed in (0, 1):
    result = rand_assign_hard(trap, b=1, seed=seed)
    verdict = "stranded paper 2" if result.err else "got lucky"
    print(f"  random baseline, seed {seed}: nominees {result.assignment.nominee} -> {verdict}")

# Greedy fares no better: with p = [0.1, 0.9] it deterministically grabs
# author 1 for paper 1 (smaller p) and then paper 2 has nobody left.
skewed = Instance.from_rows([[1, 2], [1]], p=[0.1, 0.9])
result = greedy_assign_hard(skewed, b=1)
print(f"  greedy baseline on p=[0.1, 0.9]: nominees {result.assignment.nominee}, err={result.err}")

assignment, report = solve_hard(skewed, b=1)
print(f"  exact solver: nominees {assignment.nominee}, objective {report.objective:.2f}")

# Infeasibility is a real outcome, not a corner case: an author with five
# single-authored papers cannot stay within a cap of two.
overloaded = Instance.from_rows([[1]] * 5, p=[0.1])
assignment, report = solve_hard(overloaded, b=2)
print(f"\nfive single-authored papers, cap 2: status = {report.status.value}")
assert assignment is None

# With a generous cap the constraint stops binding and the exact optimum
# coincides with the unconstrained greedy answer.
assignment, report = solve_hard(overloaded, b=5)
print(f"same instance, cap 5: objective {report.objective:.2f} (all five on the only author)")
