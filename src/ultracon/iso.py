"""Isomorphism search for small finite algebras.

Strategy: refine element "colors" on both algebras jointly (constants,
unary images, row/column profiles under every operation) until stable,
then backtrack over color-respecting bijections.  Complete for carriers
up to the guard; any witness returned has been re-checked as a bijective
homomorphism in both directions.  A raw n! permutation scan is kept as an
oracle for tiny carriers.
"""

from dataclasses import dataclass
from itertools import permutations, product as iter_product

from .algebra import Algebra, ElemMap, is_homomorphism
from .errors import SizeGuardError, ValidationError

DEFAULT_ISO_GUARD = 12
BRUTE_FORCE_GUARD = 5


@dataclass(frozen=True)
class IsoResult:
    found: bool
    witness: ElemMap | None = None

    def __bool__(self) -> bool:
        return self.found


def _element_signature(alg: Algebra, colors, x: int) -> tuple:
    n = alg.size
    parts = [("self", colors[x])]
    for sym, arity in alg.signature.symbols:
        table = alg.table(sym)
        if arity == 0:
            parts.append((sym, int(table[0] == x)))
        elif arity == 1:
            parts.append((sym, colors[table[x]]))
        else:
            for pos in range(arity):
                profile = []
                for ctx in iter_product(range(n), repeat=arity - 1):
                    args = ctx[:pos] + (x,) + ctx[pos:]
                    flat = 0
                    for a in args:
                        flat = flat * n + a
                    profile.append((tuple(colors[c] for c in ctx), colors[table[flat]]))
                profile.sort()
                parts.append((sym, pos, tuple(profile)))
    return tuple(parts)


def _refine_colors_jointly(a: Algebra, b: Algebra) -> tuple:
    """Stable color vectors comparable across the two algebras."""
    col_a = [0] * a.size
    col_b = [0] * b.size
    while True:
        sig_a = [_element_signature(a, col_a, x) for x in range(a.size)]
        sig_b = [_element_signature(b, col_b, x) for x in range(b.size)]
        ranking = {s: i for i, s in enumerate(sorted(set(sig_a) | set(sig_b)))}
        nxt_a = [ranking[s] for s in sig_a]
        nxt_b = [ranking[s] for s in sig_b]
        if nxt_a == col_a and nxt_b == col_b:
            return col_a, col_b
        # keep going while the induced grouping is still changing
        stable_a = len(set(zip(col_a, nxt_a))) == len(set(col_a)) == len(set(nxt_a))
        stable_b = len(set(zip(col_b, nxt_b))) == len(set(col_b)) == len(set(nxt_b))
        col_a, col_b = nxt_a, nxt_b
        if stable_a and stable_b:
            return col_a, col_b


def find_isomorphism(a: Algebra, b: Algebra, max_size: int = DEFAULT_ISO_GUARD) -> IsoResult:
    """Search for an isomorphism a -> b; complete below the guard.

    The result is kept on a, keyed by b and the guard: algebras are
    immutable and compare by their tables, so a repeated search for an
    equal pair returns the first one's result.
    """
    if a.signature != b.signature:
        raise ValidationError("isomorphism needs matching signatures")
    if max(a.size, b.size) > max_size:
        raise SizeGuardError(f"carriers {a.size}, {b.size} exceed the search guard {max_size}")
    result = a._isos.get((b, max_size))
    if result is None:
        result = a._isos[b, max_size] = _search(a, b)
    return result


def _search(a: Algebra, b: Algebra) -> IsoResult:
    """find_isomorphism's search, for same-signature carriers within the guard."""
    if a.size != b.size:
        return IsoResult(False)
    n = a.size
    col_a, col_b = _refine_colors_jointly(a, b)
    if sorted(col_a) != sorted(col_b):
        return IsoResult(False)
    candidates = {x: [y for y in range(n) if col_b[y] == col_a[x]] for x in range(n)}
    order = sorted(range(n), key=lambda x: (len(candidates[x]), x))
    tables = [(sym, arity, a.table(sym), b.table(sym)) for sym, arity in a.signature.symbols]
    mapping = [-1] * n
    used = [False] * n

    def consistent(x: int, y: int) -> bool:
        mapping[x] = y
        assigned = [e for e in range(n) if mapping[e] >= 0]
        try:
            for sym, arity, ta, tb in tables:
                if arity == 0:
                    if mapping[ta[0]] >= 0 and mapping[ta[0]] != tb[0]:
                        return False
                    continue
                for args in iter_product(assigned, repeat=arity):
                    if x not in args:
                        continue
                    flat_a = 0
                    flat_b = 0
                    for e in args:
                        flat_a = flat_a * n + e
                        flat_b = flat_b * n + mapping[e]
                    res = ta[flat_a]
                    if mapping[res] >= 0 and mapping[res] != tb[flat_b]:
                        return False
            return True
        finally:
            mapping[x] = -1

    def search(depth: int) -> bool:
        if depth == n:
            # deferred constraints (result assigned after its arguments)
            # are settled here by one full check; backtrack if it fails
            return is_homomorphism(ElemMap(n, n, mapping), a, b)
        x = order[depth]
        for y in candidates[x]:
            if used[y]:
                continue
            if consistent(x, y):
                mapping[x] = y
                used[y] = True
                if search(depth + 1):
                    return True
                mapping[x] = -1
                used[y] = False
        return False

    if not search(0):
        return IsoResult(False)
    witness = ElemMap(n, n, mapping)
    if not (witness.is_bijective() and is_homomorphism(witness, a, b)
            and is_homomorphism(witness.inverse(), b, a)):
        raise AssertionError("search produced a map that fails re-verification")
    return IsoResult(True, witness)


def isomorphic_by_bruteforce(a: Algebra, b: Algebra, max_size: int = BRUTE_FORCE_GUARD) -> IsoResult:
    """Oracle: try all n! bijections.  Tiny carriers only."""
    if a.signature != b.signature:
        raise ValidationError("isomorphism needs matching signatures")
    if max(a.size, b.size) > max_size:
        raise SizeGuardError(f"brute force tries {a.size}! bijections; guard is {max_size}")
    if a.size != b.size:
        return IsoResult(False)
    for perm in permutations(range(a.size)):
        candidate = ElemMap(a.size, b.size, perm)
        if is_homomorphism(candidate, a, b):
            return IsoResult(True, candidate)
    return IsoResult(False)
