import functools
import random
from pathlib import Path

from deskrisk import GeneratorSpec, Instance, generate

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def random_instance(
    rng: random.Random,
    n_max: int = 6,
    m_max: int = 6,
    p_low: float = 0.0,
    p_high: float = 1.0,
) -> Instance:
    """Small random instance where every paper has at least one author."""
    n = rng.randint(1, n_max)
    m = rng.randint(1, m_max)
    rows = [sorted(rng.sample(range(1, m + 1), rng.randint(1, m))) for _ in range(n)]
    p = [rng.uniform(p_low, p_high) for _ in range(m)]
    return Instance.from_rows(rows, p)


def edge_cases(rng: random.Random) -> list[tuple[Instance, int]]:
    """(instance, b) pairs the uniform draws rarely hit.

    A subnormal probability next to 1.0, and tight caps where ``b * m == n``
    so that every author slot is needed.
    """
    cases = [
        (Instance.from_rows([[1, 2], [1, 2], [2], [1]], p=[5e-324, 1.0]), b)
        for b in (1, 2, 3)
    ]
    for _ in range(12):
        m, b = rng.randint(1, 3), rng.randint(1, 2)
        rows = [sorted(rng.sample(range(1, m + 1), rng.randint(1, m))) for _ in range(b * m)]
        p = [rng.choice([0.0, 5e-324, rng.random(), 1.0]) for _ in range(m)]
        cases.append((Instance.from_rows(rows, p), b))
    return cases


@functools.cache
def conference(seed: int) -> Instance:
    """The paper's size: 2000 papers, 500 authors, 3 to 7 authors per paper."""
    return generate(GeneratorSpec(n=2000, m=500, authors_min=3, authors_max=7, seed=seed))


@functools.cache
def sweep() -> Instance:
    """The benchmark's sweep instance: 400 papers, 100 authors, seed 42."""
    return generate(GeneratorSpec(n=400, m=100, authors_min=3, authors_max=7, seed=42))


# The benchmark sweep's grid of limits: b = 2 and 3 leave the hard cap
# infeasible, and b = 4 makes it tight.
SWEEP_B = (2, 3, 4, 5, 6, 8)
SWEEP_LAMBDA = (0.05, 0.2, 0.8)
