"""The benchmark's four workloads, built from a seed.

Every workload is a closed loop with one client and no think time.  Its
ops come from an endless seeded generator; input generation happens
between ops, outside the op's timer.  Ops call the package through
``ultracon``'s module attributes at call time, so the tracer's wrappers
see them.

Why these four:
  thm2-corpus  - the slowest acceptance sweep; per-family path through
                 product_congruence, Congruence re-validation, kernel and
                 find_isomorphism on small carriers with hot caches.
  thm1-corpus  - the same corpus and product_congruence layer used many
                 families per op, plus Partition meet/join tables; long tail.
  big-product  - 512..2187-element products where the |P| x |P| relation
                 matrices and Algebra's per-entry validation dominate time
                 and peak memory; iso and con_lattice are near zero.
  con-lattice  - the only workload where principal_congruence and the join
                 closure do the work; touches no constructions, theorems or
                 iso code.

Latency tails are reported at a fixed percentile per workload: the
highest of 75/90/99/99.9 that leaves at least ten ops beyond it in a
baseline run, except thm2-corpus, which uses p99: its top 0.1% and 0.5%
(about 15 and 75 ops) are set by garbage-collection pauses and sub-second
host stalls, and over ten seeds p99.5 read 2.9-5.2 ms while p50 moved by
a third of that.  A percentile recomputed from each run's op
count would move with throughput, so a faster program would report a
different percentile and the figure would not compare across commits.
"""

import itertools
import json
import random
from dataclasses import dataclass
from typing import Callable, Iterator

import ultracon as U
from ultracon.sweeps import _family_from_id, iter_instances


@dataclass
class Workload:
    ops: Iterator          # endless, seeded; yields prepared op inputs
    run: Callable          # the timed op: op -> output
    check: Callable        # (op, output) -> (passed, report text)
    tail_pct: float
    min_ops: int           # a run completes at least this many ops; the
                           # digest covers the reports of exactly these
    clear_every: int = 0   # clear the package caches before ops 0, k, 2k, ...


def _shuffled_passes(n: int, rng: random.Random):
    """0..n-1 in a fresh seeded order on every pass, forever."""
    while True:
        order = list(range(n))
        rng.shuffle(order)
        yield from order


def _factors(spec: str, by_name: dict) -> tuple:
    """'Z2^6*Z3^2' -> (Z2, Z2, Z2, Z2, Z2, Z2, Z3, Z3) from the corpus."""
    out = []
    for part in spec.split("*"):
        name, _, power = part.partition("^")
        out += [by_name[name]] * int(power or 1)
    return tuple(out)


def _corpus_instances() -> list:
    """(factors, ultrafilter, factor lattices) over the sweeps' instance space."""
    return [(factors, ultra, tuple(U.con_lattice_of(f) for f in factors))
            for factors, ultra in iter_instances(U.standard_corpus())]


def thm2_corpus(seed: int) -> Workload:
    """Op: build a CongruenceFamily, run verify_thm2, then to_json.

    Families are a seeded uniform sample (without replacement) of every
    (instance, family) pair the thm2 sweep enumerates.
    """
    instances = _corpus_instances()
    pairs = []
    for i, (_, _, lattices) in enumerate(instances):
        count = 1
        for lat in lattices:
            count *= len(lat)
        pairs += [(i, fid) for fid in range(count)]

    def run(op):
        factors, ultra, lattices = instances[op[0]]
        report = U.verify_thm2(_family_from_id(op[1], factors, lattices), ultra)
        return report, report.to_json()

    def check(op, out):
        report, text = out
        factors, ultra, _ = instances[op[0]]
        collapsed = report.info["ultraproduct_size"] == factors[ultra.principal_index()].size
        return report.passed and collapsed, text

    ops = (pairs[k] for k in _shuffled_passes(len(pairs), random.Random(seed)))
    return Workload(ops, run, check, tail_pct=99.0, min_ops=500)


def thm1_corpus(seed: int) -> Workload:
    """Op: verify_thm1 then to_json on one corpus instance.

    Instances come in seeded shuffled passes over all thm1 instances, so
    every run holds the same mix of heavy instances (op cost varies ~30x).
    The package caches are cleared before every pass, so each pass is one
    thm1 sweep from cold caches, and the share of first touches (the slow
    ops) does not grow as a slower run completes fewer ops.
    """
    instances = _corpus_instances()

    def run(op):
        factors, ultra, _ = instances[op]
        report = U.verify_thm1(factors, ultra)
        return report, report.to_json()

    def check(op, out):
        report, text = out
        return report.passed, text

    ops = _shuffled_passes(len(instances), random.Random(seed))
    return Workload(ops, run, check, tail_pct=99.0, min_ops=50, clear_every=len(instances))


# Opens every run, so peak_rss_mb always covers the largest product.
BIG_FIRST = "Z3^7"
# 512 <= |P| <= 576 over several signatures: ops cost 110-220 ms, one narrow
# band, so a 20-s run holds about a hundred of them and its medians do
# not depend on how the shuffled passes happen to end.  729-element
# products (Z3^6, RPS^6, ...) cost 250-350 ms and would widen it.
BIG_POOL = (
    "Z2^9", "S2^9", "Z4^3*Z2^3", "C4^3*S2^3", "B22^3*Z2^3", "Z4^4*Z2",
    "B22^4*S2", "Z4^2*Z6^2", "Z2^6*Z3^2", "S2^6*C3^2", "Z4^3*Z3^2", "C4^3*C3^2",
)
BIG_FAMILIES = 2


def big_product(seed: int) -> Workload:
    """Op: ultraproduct plus verify_thm2 (and to_json) on two seeded families.

    The package caches are cleared before every op, so each op builds its
    product from nothing, as one `ultracon verify` process does.  The seed
    picks the pool order, the principal index and the families.
    """
    by_name = U.corpus_by_name()
    specs = (BIG_FIRST,) + BIG_POOL
    instances = {spec: _factors(spec, by_name) for spec in specs}
    lattices = {f: U.con_lattice_of(f) for f in by_name.values()}
    ultras = {n: [U.principal_ultrafilter(n, i) for i in range(n)]
              for n in {len(factors) for factors in instances.values()}}
    rng = random.Random(seed)

    def ops():
        order = itertools.chain([BIG_FIRST], (BIG_POOL[k] for k in _shuffled_passes(len(BIG_POOL), rng)))
        for spec in order:
            factors = instances[spec]
            ultra = rng.choice(ultras[len(factors)])
            families = [[rng.choice(lattices[f].congruences) for f in factors]
                        for _ in range(BIG_FAMILIES)]
            yield factors, ultra, families

    def run(op):
        factors, ultra, families = op
        power = U.ultraproduct(factors, ultra)
        reports = [U.verify_thm2(U.CongruenceFamily(factors, fam), ultra) for fam in families]
        return power.size, reports, [r.to_json() for r in reports]

    def check(op, out):
        factors, ultra, _ = op
        size, reports, texts = out
        expected = factors[ultra.principal_index()].size
        ok = size == expected and all(r.passed and r.info["ultraproduct_size"] == expected for r in reports)
        return ok, "\n".join(texts)

    return Workload(ops(), run, check, tail_pct=75.0, min_ops=11, clear_every=1)


# (corpus product, congruence count).  Independently known: subgroup
# counts of the abelian groups Z2^3 16, Z2^4 67, Z3^3 28, Z4^2 15,
# Z3^2*Z2 6*2 and Z2^2*Z3^2 5*6.  The rest are the seed commit's counts.
# Left out: Z2^5 (374), C3*S2^2 (449) and C4*C3 (533) take 4-7 s each,
# a quarter of a run for one op; S2^4 and C4^2 take minutes.
CON_LATTICE_LIST = (
    ("Z2^2*Z3^2", 30), ("C3*S2*Z2", 110), ("Z3^3", 28), ("C3^2", 115),
    ("S3*Z4", 11), ("Z2^4", 67), ("C4*S2", 73), ("C3*Z2^2", 51),
    ("B22*S2", 61), ("S2^3", 61), ("S3*Z3", 6), ("Z3^2*Z2", 12),
    ("Z4^2", 15), ("U3^2", 41), ("Z2^3", 16),
)


def _relabel(algebra, perm):
    """The isomorphic copy of `algebra` under the carrier bijection perm."""
    n = algebra.size
    tables = {}
    for sym, arity in algebra.signature.symbols:
        old = algebra.tables[sym]
        new = [0] * len(old)
        for flat, args in enumerate(itertools.product(range(n), repeat=arity)):
            idx = 0
            for a in args:
                idx = idx * n + perm[a]
            new[idx] = perm[old[flat]]
        tables[sym] = new
    return U.Algebra(algebra.signature, n, tables, algebra.name)


def con_lattice(seed: int) -> Workload:
    """Op: con_lattice (uncached) on a seeded relabelling of a listed product."""
    by_name = U.corpus_by_name()
    products = [(U.direct_product(_factors(spec, by_name)), count) for spec, count in CON_LATTICE_LIST]
    rng = random.Random(seed)

    def ops():
        for k in _shuffled_passes(len(products), rng):
            product, count = products[k]
            yield _relabel(product, rng.sample(range(product.size), product.size)), count

    def run(op):
        return U.con_lattice(op[0])

    def check(op, lattice):
        algebra, count = op
        ids = {c.class_id for c in lattice}
        ok = (len(lattice) == count == len(ids)
              and all(U.is_congruence(algebra, c) for c in lattice))
        text = json.dumps({"algebra": algebra.name,
                           "congruences": [U.format_partition(c) for c in lattice]})
        return ok, text

    return Workload(ops(), run, check, tail_pct=90.0, min_ops=len(CON_LATTICE_LIST))


WORKLOADS = {
    "thm2-corpus": thm2_corpus,
    "thm1-corpus": thm1_corpus,
    "big-product": big_product,
    "con-lattice": con_lattice,
}
