"""The benchmark's workloads: seeded inputs, timed passes, and output checks.

A workload is a fixed list of items built from the seed before timing starts.
One pass runs every item in order, each call waiting for the previous one (a
closed loop with one client).  Each item's outputs are checked on the spot,
so a pass ends at its last verified result.  The library is reached through
``eaqec`` attribute lookups made at call time, so a traced run sees every
call through the tracer's wrappers.

An item is ``(kind, payload)``; the kinds are

- ``table``: ``build_table(n_max)``, every cell against the frozen grid;
- ``general``: the partial-entanglement d-scan of one 0 < c < n - k cell;
- ``registry``: a registry code with stored generators, rebuilt, its
  distance and both transform identities;
- ``random``: a random ``[[n,k;c]]`` code through construction, distance, a
  dual round trip and both identities.

``lp-bounds`` runs the table and every general cell with n <= 5;
``code-checks`` runs the registry codes up to n = 14 and one random code per
``(n, k, c)`` with 4 <= n <= 10, 1 <= k < n, 0 <= c <= n - k.  The README
gives the reasons.
"""

from __future__ import annotations

import hashlib
import json
import random
import statistics
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

import eaqec

from tracer import NullTracer

EXPECTED = json.loads(Path(__file__).with_name("expected.json").read_text())


@dataclass(frozen=True)
class Size:
    table_nmax: int
    general_nmax: int
    registry_nmax: int
    random_n: tuple[int, int]


SIZES = {
    "full": Size(table_nmax=9, general_nmax=5, registry_nmax=14, random_n=(4, 10)),
    # for the benchmark's own tests
    "tiny": Size(table_nmax=4, general_nmax=3, registry_nmax=7, random_n=(4, 5)),
}


@dataclass
class PassResult:
    wall: float
    item_times: list[float]
    attempted: int
    failed: int
    digest: str
    krawtchouk_hit_ratio: float
    span_range: tuple[int, int] = (0, 0)


@dataclass(frozen=True)
class ItemKind:
    run: Callable[[Any], tuple[Any, int, int]]  # payload -> (output, attempted, failed)
    ops: Callable[[Any], int]  # operations the item counts when it raises
    span: str = "bench.item"


# ---------------------------------------------------------------------------
# table


def _table_cells(n_max: int) -> list[tuple[int, int, int, int]]:
    lower, upper = EXPECTED["table_lower"], EXPECTED["table_upper"]
    return [
        (n, k, lower[str(n)][k - 1], upper[str(n)][k - 1])
        for n in range(2, n_max + 1)
        for k in range(1, n)
    ]


def _table_run(n_max: int):
    table = eaqec.build_table(n_max)
    got = [(c.n, c.k, c.lower, c.upper) for c in table.cells]
    want = _table_cells(n_max)
    failed = sum(1 for g, w in zip(got, want) if g != w) + abs(len(got) - len(want))
    return got, len(want), failed


# ---------------------------------------------------------------------------
# partial-entanglement LP scans


def _registry_lower(n_max: int) -> dict[tuple[int, int, int], int]:
    """Best known d per (n, k, c) up to n_max: registry entries closed under
    lengthening (n, k, c) -> (n+1, k, c+1) and trading (n, k, c) -> (n, k-1, c+1)."""
    best: dict[tuple[int, int, int], int] = {}
    todo = [(e.n, e.k, e.c, e.d) for e in eaqec.registry() if e.n <= n_max]
    while todo:
        n, k, c, d = todo.pop()
        if best.get((n, k, c), 0) >= d:
            continue
        best[(n, k, c)] = d
        if c < n and n < n_max:
            todo.append((n + 1, k, c + 1, d))
        if k >= 1:
            todo.append((n, k - 1, c + 1, d))
    return best


def _general_cells(n_max: int) -> list[tuple[int, int, int, int, int]]:
    """(n, k, c, frozen bound, registry lower bound) for every 0 < c < n - k cell."""
    lower = _registry_lower(n_max)
    frozen = {(n, k, c): b for n, k, c, b in EXPECTED["lp_general"]}
    return [
        (n, k, c, frozen[(n, k, c)], lower.get((n, k, c), 1))
        for n in range(3, n_max + 1)
        for k in range(1, n)
        for c in range(1, n - k)
    ]


def scan_general(n: int, k: int, c: int) -> int:
    """Largest d the partial-entanglement LP does not exclude."""
    for d in range(1, n + 1):
        if not eaqec.lp_feasible_general(n, k, c, d):
            return d - 1
    return n


def _general_run(cell):
    n, k, c, frozen, lower = cell
    bound = scan_general(n, k, c)
    return [n, k, c, bound], 1, int(not (bound == frozen and bound >= lower))


# ---------------------------------------------------------------------------
# registry codes


def _registry_run(entry):
    code = eaqec.code_from_entry(entry)
    d = eaqec.min_distance(code)
    norm, iso = eaqec.eaqec_identities(code)
    ok = (
        (code.n, code.k, code.c) == (entry.n, entry.k, entry.c)
        and d >= entry.d
        and norm.holds
        and iso.holds
    )
    return [entry.params_str, d, norm.direct.coeffs, iso.direct.coeffs], 1, int(not ok)


# ---------------------------------------------------------------------------
# random codes


def _symplectic_basis(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """A random symplectic basis of GF(2)^(2n), as packed ``u | v << n`` pairs.

    The standard pairs (Z_i, X_i) are moved by random transvections
    x -> x + <x, t> t, which preserve every symplectic product.
    """
    mask = (1 << n) - 1
    pairs = [(1 << (n + i), 1 << i) for i in range(n)]
    for _ in range(4 * n):
        t = rng.getrandbits(2 * n)
        if not t:
            continue
        t_sw = ((t & mask) << n) | (t >> n)
        pairs = [
            tuple(x ^ t if (x & t_sw).bit_count() & 1 else x for x in pair)
            for pair in pairs
        ]
    rng.shuffle(pairs)
    return pairs


def random_generators(rng: random.Random, n: int, k: int, c: int) -> tuple:
    """Scrambled stabilizer generators of a random ``[[n, k; c]]`` code."""
    pairs = _symplectic_basis(rng, n)
    gens = [g for pair in pairs[:c] for g in pair] + [g for g, _ in pairs[c + k:]]
    for i in range(len(gens)):  # row operations keep the span, hide the basis
        for j in range(len(gens)):
            if i != j and rng.random() < 0.5:
                gens[i] ^= gens[j]
    mask = (1 << n) - 1
    return tuple(eaqec.PauliOperator(n, g & mask, g >> n) for g in gens)


def _random_run(code_input):
    n, k, c, gens = code_input
    code = eaqec.from_generators(n, k, gens)
    d = eaqec.min_distance(code)
    twin = eaqec.dual(code)
    back = eaqec.dual(twin)
    norm, iso = eaqec.eaqec_identities(code)
    ok = (
        code.c == c
        and (twin.n, twin.k, twin.c) == (n, c, k)
        and back == code
        and norm.holds
        and iso.holds
        and 1 <= d <= n
    )
    if c == n - k:  # no isotropic part: the distance is L's lowest nonzero weight
        ok = ok and d == next(w for w in range(1, n + 1) if norm.direct.coeffs[w])
    return [n, k, c, d, norm.direct.coeffs, iso.direct.coeffs], 1, int(not ok)


ITEM_KINDS: dict[str, ItemKind] = {
    "table": ItemKind(_table_run, lambda n_max: len(_table_cells(n_max))),
    "general": ItemKind(_general_run, lambda cell: 1, "bench.general_scan"),
    "registry": ItemKind(_registry_run, lambda entry: 1),
    "random": ItemKind(_random_run, lambda code_input: 1),
}


# ---------------------------------------------------------------------------
# workloads


def _lp_bounds_items(seed: int, size: Size) -> list:
    cells = _general_cells(size.general_nmax)
    random.Random(seed).shuffle(cells)
    return [("table", size.table_nmax)] + [("general", cell) for cell in cells]


def _code_checks_items(seed: int, size: Size) -> list:
    rng = random.Random(seed)
    lo, hi = size.random_n
    items = [
        ("registry", e)
        for e in eaqec.registry()
        if e.generators is not None and e.n <= size.registry_nmax
    ]
    items += [
        ("random", (n, k, c, random_generators(rng, n, k, c)))
        for n in range(lo, hi + 1)
        for k in range(1, n)
        for c in range(n - k + 1)
    ]
    rng.shuffle(items)
    return items


WORKLOADS: dict[str, Callable[[int, Size], list]] = {
    "lp-bounds": _lp_bounds_items,
    "code-checks": _code_checks_items,
}


def make_items(name: str, seed: int, size: Size) -> list:
    return WORKLOADS[name](seed, size)


# ---------------------------------------------------------------------------
# running


def run_pass(items: list, tracer=NullTracer()) -> PassResult:
    """One closed-loop pass over ``items``, from a cold Krawtchouk cache as in
    a fresh CLI call."""
    eaqec.krawtchouk.cache_clear()
    first_span = tracer.mark()
    outputs, times = [], []
    attempted = failed = 0
    start = perf_counter()
    for kind_name, payload in items:
        kind = ITEM_KINDS[kind_name]
        t0 = perf_counter()
        try:
            with tracer.span(kind.span):
                out, a, f = kind.run(payload)
        except Exception:  # counted as failed; the run goes on
            traceback.print_exc(file=sys.stderr)
            out, a = "error", kind.ops(payload)
            f = a
        times.append(perf_counter() - t0)
        outputs.append(out)
        attempted += a
        failed += f
    wall = perf_counter() - start
    info = eaqec.krawtchouk.cache_info()
    lookups = info.hits + info.misses
    digest = hashlib.sha256(json.dumps(outputs, default=list).encode()).hexdigest()
    return PassResult(
        wall, times, attempted, failed, digest,
        info.hits / lookups if lookups else 0.0, (first_span, tracer.mark()),
    )


def measure(items: list, seconds: float, tracer=NullTracer()) -> list[PassResult]:
    """Repeat passes while the next one is expected to end within ``seconds``;
    at least one pass always runs."""
    passes: list[PassResult] = []
    start = perf_counter()
    while True:
        passes.append(run_pass(items, tracer))
        elapsed = perf_counter() - start
        if elapsed + statistics.median(p.wall for p in passes) > seconds:
            return passes
