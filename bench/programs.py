"""Seeded Tetra programs for the benchmark, each paired with its expected
output from :mod:`reference`.

The sources are edits of the paper's listings and the repository's
evaluation templates (Figures I-III, primes, TSP, word count, bank
account) plus a few small sequential exercises.  They are copied here,
not imported from ``repro.programs``, so a change to the system under
test can never change the benchmark's inputs.

:func:`make` writes a caller's ``tag`` into a leading comment: two cases
with different tags always have different source text (so they miss
every cache keyed on the text), and the seeded constants keep each
program's work within a narrow band, so latency percentiles do not swing
with the draw.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import reference as ref


@dataclass
class Case:
    """One program to run and what a correct run produces."""

    family: str
    source: str
    inputs: list = field(default_factory=list)
    backend: str = "thread"
    #: Expected console output of a clean run (None for broken programs).
    output: str | None = None
    #: (line, kind) of the expected compile-time diagnostic, where kind
    #: is "syntax error" or "type error" (None for runnable programs).
    error: tuple | None = None

    def payload(self) -> dict:
        """The ``POST /api/run`` body for this case."""
        body = {"source": self.source, "backend": self.backend}
        if self.inputs:
            body["inputs"] = list(self.inputs)
        return body


# ----------------------------------------------------------------------
# Families.  Each returns (source, inputs, expected output).
# ----------------------------------------------------------------------
def factorial(rng: random.Random):
    """Figure I with a renamed function and a seeded input."""
    n = rng.randint(15, 40)
    fname = rng.choice(["fact", "factorial", "prod_down", "f"])
    src = f'''\
# a simple factorial function
def {fname}(x int) int:
    if x == 0:
        return 1
    else:
        return x * {fname}(x - 1)

# a main function which handles I/O
def main():
    print("enter n: ")
    n = read_int()
    print(n, "! = ", {fname}(n))
'''
    return src, [str(n)], f"enter n: \n{n}! = {ref.factorial(n)}\n"


def factorial_table(rng: random.Random, n: int):
    """Figure I extended to print every factorial up to the input."""
    fname = rng.choice(["fact", "factorial", "prod_down", "f"])
    src = f'''\
# a simple factorial function
def {fname}(x int) int:
    if x == 0:
        return 1
    else:
        return x * {fname}(x - 1)

# print a table of factorials up to n
def main():
    print("enter n: ")
    n = read_int()
    for k in [1 ... n]:
        print(k, "! = ", {fname}(k))
'''
    rows = "".join(f"{k}! = {ref.factorial(k)}\n" for k in range(1, n + 1))
    return src, [str(n)], "enter n: \n" + rows


def parallel_sum(rng: random.Random):
    """Figure II over a seeded range."""
    lo = rng.randint(1, 20)
    hi = lo + rng.randint(150, 250)
    src = f'''\
# sum a range of numbers
def sumr(nums [int], a int, b int) int:
    total = 0
    i = a
    while i <= b:
        total += nums[i]
        i += 1
    return total

# sum an array of numbers in parallel
def sum(nums [int]) int:
    mid = len(nums) / 2
    parallel:
        a = sumr(nums, 0, mid - 1)
        b = sumr(nums, mid, len(nums) - 1)
    return a + b

def main():
    print(sum([{lo} ... {hi}]))
'''
    return src, [], f"{ref.range_sum(lo, hi)}\n"


def parallel_max(rng: random.Random):
    """Figure III over seeded numbers (parallel for + lock)."""
    nums = [rng.randint(1, 999) for _ in range(rng.randint(6, 12))]
    src = f'''\
# find the max of an array
def max(nums [int]) int:
    largest = 0
    parallel for num in nums:
        if num > largest:
            lock largest:
                if num > largest:
                    largest = num
    return largest

def main():
    nums = [{", ".join(map(str, nums))}]
    print(max(nums))
'''
    return src, [], f"{max(nums)}\n"


PRIMES = '''\
# trial-division primality test
def is_prime(n int) bool:
    if n < 2:
        return false
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return false
        d += 2
    return true

# count the primes up to limit, in parallel
def count_primes(limit int) int:
    count = 0
    parallel for n in [2 ... limit]:
        if is_prime(n):
            lock count:
                count += 1
    return count

def main():
    print(count_primes(LIMIT))
'''


def primes(rng: random.Random, limit: int | None = None):
    """The paper's primes workload (parallel for + lock)."""
    limit = rng.randint(330, 370) if limit is None else limit
    src = PRIMES.replace("LIMIT", str(limit))
    return src, [], f"{ref.prime_count(limit)}\n"


TSP = '''\
# synthetic symmetric distance between cities a and b
def dist(a int, b int) int:
    lo = min(a, b)
    hi = max(a, b)
    return (lo * 7 + hi * 13) % 29 + 1

# cost of the best tour visiting everything in 'remaining'
def search(current int, remaining [int], so_far int, best_known int) int:
    if so_far >= best_known:
        return best_known
    if len(remaining) == 0:
        return so_far + dist(current, 0)
    best = best_known
    i = 0
    while i < len(remaining):
        next_city = remaining[i]
        rest = array(len(remaining) - 1, 0)
        j = 0
        k = 0
        while j < len(remaining):
            if j != i:
                rest[k] = remaining[j]
                k += 1
            j += 1
        cost = search(next_city, rest, so_far + dist(current, next_city), best)
        if cost < best:
            best = cost
        i += 1
    return best

# best tour whose first two hops are 0 -> first -> second
def tour_from_pair(p int, n int, bound int) int:
    first = p / (n - 2) + 1
    second_index = p % (n - 2)
    second = 0
    k = 0
    c = 1
    while c < n:
        if c != first:
            if k == second_index:
                second = c
            k += 1
        c += 1
    rest = array(n - 3, 0)
    k = 0
    c = 1
    while c < n:
        if c != first and c != second:
            rest[k] = c
            k += 1
        c += 1
    start_cost = dist(0, first) + dist(first, second)
    return search(second, rest, start_cost, bound)

# fan the search out over the first two hops
def solve(n int) int:
    pairs = (n - 1) * (n - 2)
    best = 1000000
    results = array(pairs, 1000000)
    parallel for p in [0 ... pairs - 1]:
        results[p] = tour_from_pair(p, n, best)
        if results[p] < best:
            lock best:
                if results[p] < best:
                    best = results[p]
    return best

def main():
    print(solve(CITIES))
'''


def tsp(rng: random.Random):
    """The paper's TSP workload over 5 cities (recursive search, parallel
    first hops)."""
    return TSP.replace("CITIES", "5"), [], f"{ref.tsp_best(5)}\n"


WORDS = ("the quick brown fox jumps over lazy dog a cat sat on mat "
         "red blue green tree river stone").split()


def word_count(rng: random.Random):
    """The word-count listing over seeded text, sharded across workers."""
    words = [rng.choice(WORDS) for _ in range(rng.randint(8, 16))]
    workers = rng.randint(2, 4)
    src = f'''\
# count words in parallel, one shard per worker, merged afterwards
def count_words(text string, workers int) {{string: int}}:
    words = split(text, " ")
    shards = array(workers, empty_counts())
    parallel for w in [0 ... workers - 1]:
        count_shard(words, w, workers, shards[w])
    totals {{string: int}} = {{}}
    for shard in shards:
        for word in shard:
            totals[word] = get_or(totals, word, 0) + shard[word]
    return totals

def empty_counts() {{string: int}}:
    fresh {{string: int}} = {{}}
    return fresh

def count_shard(words [string], w int, workers int, shard {{string: int}}):
    i = w
    while i < len(words):
        shard[words[i]] = get_or(shard, words[i], 0) + 1
        i += workers

def main():
    counts = count_words("{" ".join(words)}", {workers})
    for word in counts:
        print(word, ": ", counts[word])
'''
    out = "".join(f"{w}: {c}\n" for w, c in ref.word_counts(words))
    return src, [], out


def bank(rng: random.Random):
    """The bank-account listing: locked deposits from a parallel for."""
    owner = rng.choice(["team", "alice", "bob", "lab"])
    count = rng.randint(20, 60)
    amount = rng.randint(1, 20)
    src = f'''\
class Account:
    owner string
    balance int

    def deposit(amount int):
        self.balance += amount

    def describe() string:
        return self.owner + " has " + str(self.balance)

def main():
    account = Account("{owner}", 0)
    parallel for i in [1 ... {count}]:
        lock account:
            account.deposit({amount})
    print(account.describe())
    print(account)
'''
    total = count * amount
    out = f"{owner} has {total}\nAccount(owner: {owner}, balance: {total})\n"
    return src, [], out


def sum_squares(rng: random.Random):
    """A sequential loop exercise."""
    n = rng.randint(200, 400)
    src = f'''\
def main():
    total = 0
    for i in [1 ... {n}]:
        total = total + i * i
    print(total)
'''
    return src, [], f"{ref.sum_of_squares(n)}\n"


def collatz(rng: random.Random, limit: int | None = None):
    """Longest Collatz chain below a seeded limit (nested while loops)."""
    limit = rng.randint(20, 40) if limit is None else limit
    src = f'''\
def steps(start int) int:
    n = start
    count = 0
    while n != 1:
        if n % 2 == 0:
            n = n / 2
        else:
            n = 3 * n + 1
        count += 1
    return count

def main():
    best = 1
    best_steps = 0
    for start in [1 ... {limit}]:
        s = steps(start)
        if s > best_steps:
            best = start
            best_steps = s
    print(best, " ", best_steps)
'''
    start, steps = ref.collatz_longest(limit)
    return src, [], f"{start} {steps}\n"


def fibonacci(rng: random.Random):
    """Iterative Fibonacci modulo a seeded prime."""
    n = rng.randint(100, 300)
    mod = rng.choice([1000003, 999983, 65537, 10007])
    src = f'''\
def fib(n int, m int) int:
    a = 0
    b = 1
    i = 0
    while i < n:
        t = (a + b) % m
        a = b
        b = t
        i += 1
    return a

def main():
    print(fib({n}, {mod}))
'''
    return src, [], f"{ref.fib_mod(n, mod)}\n"


#: Edits of the paper's listings and the repository's example programs.
LISTINGS = {
    "factorial": factorial,
    "parallel_sum": parallel_sum,
    "parallel_max": parallel_max,
    "primes": primes,
    "tsp": tsp,
    "word_count": word_count,
    "bank": bank,
}
#: Sequential exercises (no thread is spawned).
SEQUENTIAL = {
    "factorial": factorial,
    "sum_squares": sum_squares,
    "collatz": collatz,
    "fibonacci": fibonacci,
}
#: ``parallel for`` + ``lock`` programs.
PARALLEL_LOCKED = {
    "parallel_max": parallel_max,
    "primes": primes,
    "bank": bank,
}


def make(family: str, gen, rng: random.Random, tag: str,
         backend: str = "thread", **params) -> Case:
    """A case from generator ``gen``, its source headed by ``# tag``."""
    src, inputs, out = gen(rng, **params)
    return Case(family, f"# {tag}\n{src}", inputs, backend, out)


def break_case(case: Case, rng: random.Random) -> Case:
    """A broken copy of ``case``: a syntax error (the colon dropped from
    ``def main():``) or a type error (a string stored in an int)."""
    lines = case.source.split("\n")
    at = lines.index("def main():")
    if rng.random() < 0.5:
        lines[at] = "def main()"
        error = (at + 1, "syntax error")
    else:
        lines.insert(at + 1, '    oops int = "text"')
        error = (at + 2, "type error")
    return Case(case.family + "_broken", "\n".join(lines), case.inputs,
                case.backend, None, error)


# ----------------------------------------------------------------------
# Output checking
# ----------------------------------------------------------------------
def check_run(case: Case, output: str) -> bool:
    """True when a clean run printed exactly the reference output."""
    return case.error is None and output == case.output


def check_diagnostic(case: Case, exit_code: int, text: str | None) -> bool:
    """True when a broken program was rejected with the expected kind of
    diagnostic on the expected line."""
    if case.error is None or exit_code != 1 or not text:
        return False
    line, kind = case.error
    return f":{line}:" in text and kind in text
