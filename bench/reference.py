"""Independent output references for every program the benchmark runs.

Each function computes, in plain Python and by a different algorithm
where one exists, the exact console output a correct Tetra run prints.
Nothing here runs Tetra, so a regression in any executor tier shows up as
a mismatch (a failed operation) rather than as a silently shifted
baseline.
"""

from __future__ import annotations

import itertools


def prime_count(limit: int) -> int:
    """pi(limit) by the sieve of Eratosthenes (Tetra uses trial division)."""
    if limit < 2:
        return 0
    sieve = bytearray([1]) * (limit + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, int(limit ** 0.5) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, limit + 1, p)))
    return sum(sieve)


def tsp_dist(a: int, b: int) -> int:
    """The synthetic symmetric distance the TSP listing uses."""
    lo, hi = min(a, b), max(a, b)
    return (lo * 7 + hi * 13) % 29 + 1


def tsp_best(cities: int) -> int:
    """Shortest closed tour from city 0 by exhaustive enumeration
    (Tetra prunes a depth-first search with a shared bound)."""
    best = None
    for perm in itertools.permutations(range(1, cities)):
        cost, here = 0, 0
        for city in perm:
            cost += tsp_dist(here, city)
            here = city
        cost += tsp_dist(here, 0)
        if best is None or cost < best:
            best = cost
    return best


def matmul_checksum(n: int, mod_a: int, mod_b: int) -> int:
    """Sum of every entry of A*B for a[i] = i % mod_a, b[i] = i % mod_b
    (row-major n*n).  Uses sum_ij (AB)_ij = sum_k colsum_A(k) rowsum_B(k)
    instead of forming the product."""
    col_a = [sum((i * n + k) % mod_a for i in range(n)) for k in range(n)]
    row_b = [sum((k * n + j) % mod_b for j in range(n)) for k in range(n)]
    return sum(x * y for x, y in zip(col_a, row_b))


def factorial(n: int) -> int:
    out = 1
    for k in range(2, n + 1):
        out *= k
    return out


def sum_of_squares(n: int) -> int:
    """1^2 + ... + n^2 in closed form."""
    return n * (n + 1) * (2 * n + 1) // 6


def range_sum(lo: int, hi: int) -> int:
    """lo + ... + hi in closed form."""
    return (lo + hi) * (hi - lo + 1) // 2 if hi >= lo else 0


def collatz_longest(limit: int) -> tuple[int, int]:
    """(start, steps) of the longest Collatz chain starting in 1..limit;
    the smallest start wins ties."""
    best = (1, 0)
    for start in range(1, limit + 1):
        n, steps = start, 0
        while n != 1:
            n = n // 2 if n % 2 == 0 else 3 * n + 1
            steps += 1
        if steps > best[1]:
            best = (start, steps)
    return best


def fib_mod(n: int, mod: int) -> int:
    """F(n) mod ``mod`` by fast doubling (Tetra iterates)."""
    def pair(k: int) -> tuple[int, int]:
        if k == 0:
            return 0, 1
        a, b = pair(k // 2)
        c = a * (2 * b - a)
        d = a * a + b * b
        return (d, c + d) if k % 2 else (c, d)
    return pair(n)[0] % mod


def word_counts(words: list[str]) -> list[tuple[str, int]]:
    """(word, count) in sorted key order, the order Tetra iterates dicts."""
    counts: dict[str, int] = {}
    for word in words:
        counts[word] = counts.get(word, 0) + 1
    return sorted(counts.items())
