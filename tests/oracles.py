"""Naive reference implementations used as oracles by the tests.

Deliberately independent of the library's algorithms: full-tuple
substitution checks, explicit relation matrices, closures by fixpoint.
Slow and only meant for tiny carriers.
"""

from itertools import product as iter_product

import numpy as np

from ultracon import make_algebra


class UpSet:
    """Test-only stand-in for the filter of index sets containing `core`
    (a bitmask), with the two attributes the labeller and the oracle read.
    A proper filter when core has two or more indices, not an ultrafilter."""

    def __init__(self, n, core):
        self.n = n
        self.members = tuple(m for m in range(1 << n) if m & core == core)


def recorded(algebra) -> set:
    """The partitions recorded as congruences on algebra, decoded from their
    int64 label bytes into class_id tuples."""
    return {tuple(np.frombuffer(key, dtype=np.int64).tolist()) for key in algebra._congruences}


def naive_relates(labels, a, b):
    return labels[a] == labels[b]


def naive_is_congruence(algebra, labels) -> bool:
    """Full simultaneous-substitution property, all tuple pairs."""
    n = algebra.size
    for sym, arity in algebra.signature.symbols:
        for xs in iter_product(range(n), repeat=arity):
            for ys in iter_product(range(n), repeat=arity):
                if all(naive_relates(labels, x, y) for x, y in zip(xs, ys)):
                    if not naive_relates(labels, algebra.apply(sym, xs), algebra.apply(sym, ys)):
                        return False
    return True


def naive_first_violation(algebra, labels):
    """First one-coordinate compatibility failure of a least-member labelling.

    Scans symbols in signature order, then argument positions, then the
    element a substituted at that position, then the other arguments in
    row-major order; returns (symbol, position, a, labels[a], flat index
    of the argument tuple holding a) for the first tuple whose result
    changes class when labels[a] replaces a, or None.
    """
    n = algebra.size
    for sym, arity in algebra.signature.symbols:
        for pos in range(arity):
            for a in range(n):
                b = labels[a]
                for rest in iter_product(range(n), repeat=arity - 1):
                    xs = rest[:pos] + (a,) + rest[pos:]
                    ys = rest[:pos] + (b,) + rest[pos:]
                    if labels[algebra.apply(sym, xs)] != labels[algebra.apply(sym, ys)]:
                        flat = 0
                        for x in xs:
                            flat = flat * n + x
                        return (sym, pos, a, b, flat)
    return None


def naive_product_table(product, sym):
    """Flat table of sym on a direct product, one argument tuple at a time.

    Each argument is a tuple of coordinates; the result applies sym in
    every factor and encodes the coordinates it gets.
    """
    factors = product.factors
    arity = product.signature.arity(sym)
    elements = list(iter_product(*(range(f.size) for f in factors)))
    table = [None] * product.size**arity
    for args in iter_product(elements, repeat=arity):
        flat = 0
        for x in args:
            flat = flat * product.size + product.encode(x)
        table[flat] = product.encode(f.apply(sym, [x[i] for x in args]) for i, f in enumerate(factors))
    return table


def naive_is_homomorphism(h, source, target) -> bool:
    """h(f(x1..xk)) == f(h(x1)..h(xk)) for every symbol and argument tuple."""
    for sym, arity in source.signature.symbols:
        for args in iter_product(range(source.size), repeat=arity):
            if h[source.apply(sym, args)] != target.apply(sym, [h[a] for a in args]):
                return False
    return True


def naive_first_mismatch(p, q):
    """First pair (a, b) in row-major order that one partition relates and
    the other does not, or None."""
    n = p.size
    for a in range(n):
        for b in range(n):
            if p.relates(a, b) != q.relates(a, b):
                return a, b
    return None


def relation_matrix(partition):
    n = partition.size
    return [[partition.relates(a, b) for b in range(n)] for a in range(n)]


def naive_meet_matrix(p, q):
    n = p.size
    return [[p.relates(a, b) and q.relates(a, b) for b in range(n)] for a in range(n)]


def naive_join_matrix(p, q):
    """Transitive closure of the union, by fixpoint."""
    n = p.size
    rel = [[p.relates(a, b) or q.relates(a, b) for b in range(n)] for a in range(n)]
    changed = True
    while changed:
        changed = False
        for a in range(n):
            for b in range(n):
                if not rel[a][b] and any(rel[a][c] and rel[c][b] for c in range(n)):
                    rel[a][b] = True
                    changed = True
    return rel


def matrix_to_blocks(rel):
    n = len(rel)
    seen = set()
    blocks = []
    for a in range(n):
        if a in seen:
            continue
        block = tuple(b for b in range(n) if rel[a][b])
        seen.update(block)
        blocks.append(block)
    return tuple(blocks)


def naive_partitions(n):
    """All set partitions as label tuples, by restricted growth strings."""
    def rec(prefix, used):
        if len(prefix) == n:
            yield tuple(prefix)
            return
        for lab in range(used + 1):
            yield from rec(prefix + [lab], max(used, lab + 1))

    yield from rec([0], 1)


def naive_product_relates(factors, sigmas, member_sets, x_coords, y_coords) -> bool:
    """Is the coordinate agreement set of (x, y) one of the member sets?"""
    agree = frozenset(
        i for i, (s, x, y) in enumerate(zip(sigmas, x_coords, y_coords)) if s.relates(x, y)
    )
    return agree in {frozenset(m) for m in member_sets}


def definitional_product_matrix(product, matrices, ultra):
    """The |P| x |P| boolean matrix of pairs whose agreement set is a member.

    matrices[i] is a boolean relation matrix on factor i; (x, y) is in the
    result iff {i : matrices[i][x_i, y_i]} is in the ultrafilter.  Built
    straight from the definition: one agreement bitmask per pair, looked
    up in a table of every index subset.
    """
    size = product.size
    base = np.arange(size, dtype=np.int64)
    masks = np.zeros((size, size), dtype=np.int64)
    for i, (factor, stride) in enumerate(zip(product.factors, product.strides)):
        coords = (base // stride) % factor.size
        rel = np.asarray(matrices[i], dtype=bool)
        masks |= rel[np.ix_(coords, coords)].astype(np.int64) << i
    lookup = np.zeros(1 << ultra.n, dtype=bool)
    lookup[list(ultra.members)] = True
    return lookup[masks]


def naive_cover_pairs(partitions):
    """Hasse edges (lower, upper) by index, ordered by relation containment."""
    rels = [relation_matrix(p) for p in partitions]
    n = len(rels[0])
    k = len(rels)

    def contained(r, s):
        return all(s[a][b] for a in range(n) for b in range(n) if r[a][b])

    below = [[i != j and contained(rels[i], rels[j]) for j in range(k)] for i in range(k)]
    return [(i, j) for i in range(k) for j in range(k)
            if below[i][j] and not any(below[i][m] and below[m][j] for m in range(k))]


def relabel(algebra, perm):
    """Copy of the algebra with element e renamed to perm[e]."""
    inv = [0] * algebra.size
    for e, p in enumerate(perm):
        inv[p] = e
    tables = {}
    for sym, arity in algebra.signature.symbols:
        size = algebra.size
        table = [0] * (size**arity)
        for flat in range(size**arity):
            args = []
            rem = flat
            for _ in range(arity):
                args.append(rem % size)
                rem //= size
            args.reverse()
            val = algebra.apply(sym, [inv[a] for a in args])
            table[flat] = perm[val]
        tables[sym] = table
    return make_algebra(algebra.signature, algebra.size, tables, algebra.name + "'")
