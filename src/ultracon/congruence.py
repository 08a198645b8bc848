"""Partitions of a finite carrier and congruences of finite algebras.

Canonical form everywhere: a partition of {0..n-1} is stored as the tuple
class_id where class_id[e] is the LEAST element of e's class.  Two
partitions are equal iff their class_id tuples are equal, class_id[e] <= e,
and class_id[class_id[e]] == class_id[e].

The text form is JSON: "[[0,1],[2]]" with blocks sorted by least element
and elements ascending, no spaces.

A congruence is a partition compatible with every operation of an algebra;
compatibility is checked one argument position at a time, which is
equivalent to the full simultaneous-substitution property.
"""

import json
from functools import lru_cache

import numpy as np

from .algebra import DEFAULT_SIZE_GUARD, Algebra
from .errors import SizeGuardError, ValidationError


def _find(parent: list, x: int) -> int:
    """Root of x in the union-find forest parent, halving paths on the way."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _roots(parent: list) -> list:
    """Every element's root, for a forest with parent[x] <= x throughout.

    Unions that hang the larger root under the smaller keep that order, so
    one ascending pass resolves each element through its already-resolved
    parent, and the roots are the least members of their classes.
    """
    for e in range(len(parent)):
        parent[e] = parent[parent[e]]
    return parent


class Partition:
    """An equivalence relation on {0..size-1} in least-member canonical form.

    The constructor accepts any labelling (each equal label = one class)
    and canonicalizes it, so Partition(p.class_id) == p always holds.  A
    1-D int64 array that is already canonical is taken as it is.
    """

    __slots__ = ("size", "class_id", "_hash", "_text")

    def __init__(self, labels):
        if isinstance(labels, np.ndarray) and labels.dtype == np.int64 and labels.ndim == 1 and _is_canonical(labels):
            cid = tuple(labels.tolist())
        else:
            least = {}
            cid = []
            for e, lab in enumerate(tuple(labels)):
                if lab not in least:
                    least[lab] = e
                cid.append(least[lab])
            cid = tuple(cid)
        self.size = len(cid)
        self.class_id = cid
        self._hash = None
        self._text = None

    @classmethod
    def identity(cls, size: int) -> "Partition":
        """Every element alone: the diagonal relation."""
        return cls(range(size))

    @classmethod
    def full(cls, size: int) -> "Partition":
        """One class containing everything."""
        if size < 1:
            raise ValidationError("a partition needs a non-empty carrier")
        return cls([0] * size)

    @classmethod
    def from_blocks(cls, size: int, blocks) -> "Partition":
        """Build from explicit blocks; they must partition 0..size-1 exactly."""
        labels = [None] * size
        for block in blocks:
            block = list(block)
            if not block:
                raise ValidationError("empty block in partition")
            for e in block:
                if not isinstance(e, int) or isinstance(e, bool) or not 0 <= e < size:
                    raise ValidationError(f"block element {e!r} is outside the carrier 0..{size - 1}")
                if labels[e] is not None:
                    raise ValidationError(f"element {e} appears in two blocks")
                labels[e] = min(block)
        missing = [e for e in range(size) if labels[e] is None]
        if missing:
            raise ValidationError(f"blocks do not cover the carrier; missing {missing}")
        return cls(labels)

    @classmethod
    def from_pairs(cls, size: int, pairs) -> "Partition":
        """Finest partition relating every given pair (transitive closure)."""
        parent = list(range(size))
        for a, b in pairs:
            for e in (a, b):
                if not isinstance(e, int) or isinstance(e, bool) or not 0 <= e < size:
                    raise ValidationError(f"pair element {e!r} is outside the carrier 0..{size - 1}")
            ra, rb = _find(parent, a), _find(parent, b)
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
        return cls(_roots(parent))

    @classmethod
    def from_matrix(cls, matrix) -> "Partition":
        """Build from a boolean relation matrix; must be an equivalence.

        Raises ValidationError naming the first broken property
        (reflexivity, symmetry, or transitivity) with a witness.
        """
        rel = np.asarray(matrix, dtype=bool)
        if rel.ndim != 2 or rel.shape[0] != rel.shape[1]:
            raise ValidationError(f"relation matrix must be square, got shape {rel.shape}")
        n = rel.shape[0]
        if not rel.diagonal().all():
            e = int(np.flatnonzero(~rel.diagonal())[0])
            raise ValidationError(f"relation is not reflexive: ({e},{e}) missing")
        if not np.array_equal(rel, rel.T):
            a, b = map(int, np.argwhere(rel != rel.T)[0])
            raise ValidationError(f"relation is not symmetric at ({a},{b})")
        # For an equivalence, each row's first True is the least related
        # element; the relation must then coincide with that grouping.
        least = np.argmax(rel, axis=1)
        if not np.array_equal(rel, least[:, None] == least[None, :]):
            bad = np.argwhere(rel != (least[:, None] == least[None, :]))[0]
            a, b = map(int, bad)
            raise ValidationError(f"relation is not transitive: closure disagrees at ({a},{b})")
        return cls(least.tolist())

    def relates(self, a: int, b: int) -> bool:
        return self.class_id[a] == self.class_id[b]

    def blocks(self) -> tuple:
        """Classes as tuples of ascending elements, sorted by least member."""
        out = {}
        for e, r in enumerate(self.class_id):
            out.setdefault(r, []).append(e)
        return tuple(tuple(out[r]) for r in sorted(out))

    @property
    def num_classes(self) -> int:
        return len(set(self.class_id))

    def refines(self, other: "Partition") -> bool:
        """Is every class of self inside a class of other?"""
        if self.size != other.size:
            raise ValidationError(f"partition sizes differ: {self.size} vs {other.size}")
        return all(other.class_id[e] == other.class_id[self.class_id[e]] for e in range(self.size))

    def to_matrix(self) -> np.ndarray:
        cid = np.asarray(self.class_id, dtype=np.int64)
        return cid[:, None] == cid[None, :]

    def meet(self, other: "Partition") -> "Partition":
        """Common refinement: relate a pair iff both partitions relate it."""
        if self.size != other.size:
            raise ValidationError(f"partition sizes differ: {self.size} vs {other.size}")
        return Partition(list(zip(self.class_id, other.class_id)))

    def join(self, other: "Partition") -> "Partition":
        """Finest common coarsening: transitive closure of the union."""
        if self.size != other.size:
            raise ValidationError(f"partition sizes differ: {self.size} vs {other.size}")
        # least-member class ids are already a union-find forest whose
        # roots are the least members; union other's classes into it
        parent = list(self.class_id)
        for e, r in enumerate(other.class_id):
            if r != e:
                ra, rb = _find(parent, e), _find(parent, r)
                if ra != rb:
                    parent[max(ra, rb)] = min(ra, rb)
        return Partition(_roots(parent))

    __and__ = meet
    __or__ = join

    def __eq__(self, other) -> bool:
        return isinstance(other, Partition) and self.class_id == other.class_id

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self.class_id)
        return self._hash

    def __str__(self) -> str:
        return format_partition(self)

    def __repr__(self) -> str:
        return f"Partition({format_partition(self)})"


def _is_canonical(labels: np.ndarray) -> bool:
    """Are the int64 labels least-member class ids already?

    They are iff 0 <= labels[e] <= e and labels[labels[e]] == labels[e]
    for every e: then labels[e] is in e's class and no member is smaller.
    """
    # viewed as uint64 a negative label is at least 2**63, so one test
    # bounds both ends, and then labels[labels] stays in range
    return bool((labels.view(np.uint64) <= np.arange(labels.size, dtype=np.uint64)).all()
                and (labels[labels] == labels).all())


def format_partition(p: Partition) -> str:
    """Canonical text form: '[[0,1],[2]]', sorted, no spaces; kept on p."""
    if p._text is None:
        p._text = "[" + ",".join("[" + ",".join(map(str, b)) + "]" for b in p.blocks()) + "]"
    return p._text


def parse_partition(text: str, size: int) -> Partition:
    """Parse the '[[0,1],[2]]' text form; blocks must partition 0..size-1."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"partition text is not valid JSON: {text!r} ({exc})") from exc
    if not isinstance(data, list) or not all(isinstance(b, list) for b in data):
        raise ValidationError(f"partition text must be a list of blocks, got {text!r}")
    return Partition.from_blocks(size, data)


def all_partitions(size: int):
    """Yield every partition of {0..size-1}, Bell(size) of them.

    Enumerates restricted growth strings; first-occurrence labelling makes
    each result canonical already.
    """
    if size < 1:
        raise ValidationError("a partition needs a non-empty carrier")
    labels = [0] * size
    maxes = [0] * size

    def rec(pos, used):
        if pos == size:
            yield Partition(labels)
            return
        for lab in range(used + 1):
            labels[pos] = lab
            yield from rec(pos + 1, used + (lab == used))

    yield from rec(1, 1) if size > 1 else iter((Partition([0]),))


# Largest temporary, in int64 entries, that a pass over a batch of label
# rows builds; a single row always goes through whole.
_BATCH_ENTRIES = 1 << 20


def _congruence_violations(algebra: Algebra, labels: np.ndarray) -> list:
    """First one-coordinate compatibility failure of each row of labels, or None.

    labels is an (R, n) int64 array of class ids in which every element's
    id is an element of its class (least-member ids are).  A witness
    (symbol, position, a, b, index) means: substituting b for a at
    `position` in the argument tuple decoded from flat `index` changes the
    result's class.  Rows are checked a chunk at a time, so that no
    temporary exceeds _BATCH_ENTRIES entries unless one row does.
    """
    n = algebra.size
    out = [None] * len(labels)
    ops = [(sym, arity) for sym, arity in algebra.signature.symbols if arity > 0]
    if not ops:
        return out
    chunk = max(1, _BATCH_ENTRIES // n ** max(arity for _, arity in ops))
    for start in range(0, len(labels), chunk):
        cid = labels[start:start + chunk]
        count = len(cid)
        # row r, element x of the chunk is row r * n + x of the stacked rows
        reps = (cid + np.arange(0, count * n, n, dtype=np.int64)[:, None]).ravel()
        todo = set(range(count))
        for sym, arity, pos, rows in _argument_rows(algebra, ops, cid):
            # each element's row must match its class representative's row
            mism = rows != rows[reps]
            if not mism.any():
                continue
            per_row = mism.reshape(count, -1)
            for r in np.flatnonzero(per_row.any(axis=1)).tolist():
                if r in todo:
                    todo.discard(r)
                    a, rest = divmod(int(per_row[r].argmax()), rows.shape[1])
                    # rebuild the flat index of the offending argument tuple
                    before, after = divmod(rest, n ** (arity - 1 - pos))
                    flat = (before * n + a) * (n ** (arity - 1 - pos)) + after
                    out[start + r] = (sym, pos, a, int(cid[r, a]), flat)
            if not todo:
                break
    return out


def _argument_rows(algebra: Algebra, ops, cid: np.ndarray):
    """Yield (symbol, arity, position, rows) for every operation and argument position.

    Row r * n + x of rows holds, under labelling cid[r], the classes of the
    results with x at that position, one column per tuple of the other
    arguments in row-major order.
    """
    n = algebra.size
    count = len(cid)
    for sym, arity in ops:
        classes = cid.take(algebra.table_array(sym), axis=1).reshape((count,) + (n,) * arity)
        for pos in range(arity):
            axes = (0, pos + 1) + tuple(k for k in range(1, arity + 1) if k != pos + 1)
            yield sym, arity, pos, classes.transpose(axes).reshape(count * n, -1)


def _congruence_violation(algebra: Algebra, p: Partition):
    """First one-coordinate compatibility failure of p, or None (see _congruence_violations)."""
    if p.size != algebra.size:
        raise ValidationError(f"partition is over {p.size} elements, algebra has {algebra.size}")
    return _congruence_violations(algebra, np.asarray([p.class_id], dtype=np.int64))[0]


def _not_a_congruence(algebra: Algebra, witness) -> ValidationError:
    """The error for a partition that fails compatibility with witness."""
    sym, pos, a, b, flat = witness
    return ValidationError(
        f"not a congruence of {algebra.name or 'the algebra'}: {sym!r} at argument {pos} "
        f"separates related elements {a}~{b} (argument index {flat})"
    )


def is_congruence(algebra: Algebra, p: Partition) -> bool:
    """Is p compatible with every operation of the algebra?"""
    return _congruence_violation(algebra, p) is None


class Congruence(Partition):
    """A partition verified to be compatible with an algebra's operations.

    Each algebra records the class_id of every partition that passed this
    check on it, and a recorded one is not checked again: the outcome is
    fixed by the algebra's immutable tables and the full class_id.  Only
    passes are recorded, so a non-congruence fails every time.
    """

    __slots__ = ("algebra",)

    def __init__(self, algebra: Algebra, partition):
        super().__init__(partition.class_id if isinstance(partition, Partition) else partition)
        if self.size != algebra.size:
            raise ValidationError(f"partition is over {self.size} elements, algebra has {algebra.size}")
        if self.class_id not in algebra._congruences:
            witness = _congruence_violation(algebra, self)
            if witness is not None:
                raise _not_a_congruence(algebra, witness)
            algebra._congruences.add(self.class_id)
        self.algebra = algebra

    def __repr__(self) -> str:
        return f"Congruence({self.algebra.name or self.algebra.size}, {format_partition(self)})"


def _as_congruence(algebra: Algebra, p) -> Congruence:
    """p itself when it is already a Congruence of algebra, else p validated as one."""
    if not isinstance(p, Congruence) or p.algebra != algebra:
        p = Congruence(algebra, p)
    return p


def _translations(algebra: Algebra) -> np.ndarray:
    """Every one-argument translation of every operation, as columns.

    Row x, column t holds t(x): for each symbol and argument position, one
    (n, n**(arity-1)) block whose columns fix the other arguments, side by
    side in signature order.
    """
    n = algebra.size
    blocks = [np.zeros((n, 0), dtype=np.int64)]  # a signature of constants has none
    for sym, arity in algebra.signature.symbols:
        if arity == 0:
            continue
        table = algebra.table_array(sym).reshape((n,) * arity)
        for pos in range(arity):
            blocks.append(np.moveaxis(table, pos, 0).reshape(n, -1))
    return np.concatenate(blocks, axis=1)


def _principal_labels(rows: np.ndarray, a: int, b: int) -> list:
    """Least-member class ids of Cg(a, b) under the translations in rows.

    rows is _translations(algebra).  Fixpoint over the labels: a partition
    is respected iff each element's row of classes equals its class
    representative's row, so union every pair of classes where the two
    rows differ and look again.  Every pass merges classes, so there are
    at most n passes.
    """
    n = len(rows)
    parent = list(range(n))
    parent[max(a, b)] = min(a, b)
    while True:
        lab = np.asarray(parent)
        u = lab[rows]
        v = u[lab]
        diff = u != v
        if not diff.any():
            return parent
        for code in set((u[diff] * n + v[diff]).tolist()):
            ra, rb = _find(parent, code // n), _find(parent, code % n)
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
        parent = _roots(parent)


def principal_congruence(algebra: Algebra, a: int, b: int) -> Congruence:
    """Smallest congruence relating a and b.

    Closes {a, b} under every one-argument translation of every operation,
    in a few numpy passes over the translation table (_principal_labels).
    """
    n = algebra.size
    for e in (a, b):
        if not isinstance(e, int) or isinstance(e, bool) or not 0 <= e < n:
            raise ValidationError(f"generator {e!r} is outside the carrier 0..{n - 1}")
    return Congruence(algebra, _principal_labels(_translations(algebra), a, b))


class ConLattice:
    """All congruences of an algebra in canonical order.

    Order: ascending number of classes, then lexicographic class_id; so the
    full relation comes first and the identity relation last.
    """

    __slots__ = ("algebra", "congruences", "_index", "_meet", "_join")

    def __init__(self, algebra: Algebra, congruences):
        self.algebra = algebra
        self.congruences = tuple(sorted(congruences, key=lambda c: (c.num_classes, c.class_id)))
        self._index = {c.class_id: i for i, c in enumerate(self.congruences)}
        self._meet = None
        self._join = None

    def index(self, p: Partition) -> int:
        try:
            return self._index[p.class_id]
        except KeyError:
            raise ValidationError(f"{format_partition(p)} is not a congruence of this algebra") from None

    def __len__(self) -> int:
        return len(self.congruences)

    def __iter__(self):
        return iter(self.congruences)

    def __getitem__(self, i: int) -> Congruence:
        return self.congruences[i]

    def __contains__(self, p) -> bool:
        return isinstance(p, Partition) and p.class_id in self._index

    @property
    def bottom(self) -> Congruence:
        """The identity congruence (finest)."""
        return self.congruences[-1]

    @property
    def top(self) -> Congruence:
        """The full congruence (coarsest)."""
        return self.congruences[0]

    def _table(self, op) -> np.ndarray:
        """Index of op(c_i, c_j) for every pair; op is commutative."""
        k = len(self.congruences)
        tbl = np.zeros((k, k), dtype=np.int64)
        for i in range(k):
            for j in range(i, k):
                tbl[i, j] = tbl[j, i] = self.index(op(self.congruences[i], self.congruences[j]))
        return tbl

    def meet_table(self) -> np.ndarray:
        if self._meet is None:
            self._meet = self._table(Partition.meet)
        return self._meet

    def join_table(self) -> np.ndarray:
        if self._join is None:
            self._join = self._table(Partition.join)
        return self._join

    def leq(self, i: int, j: int) -> bool:
        """Is congruence i below (finer than or equal to) congruence j?"""
        return self.congruences[i].refines(self.congruences[j])

    def cover_pairs(self) -> list:
        """Hasse diagram edges (lower, upper) by index, in row-major order."""
        ids = np.array([c.class_id for c in self.congruences], dtype=np.int64)
        # leq[i, j]: c_i refines c_j, i.e. c_j sends each element and its
        # c_i-class representative to the same class
        leq = np.array([(row[ids] == row).all(axis=1) for row in ids]).T
        below = leq & ~np.eye(len(ids), dtype=bool)
        # count the m strictly between i and j; a float32 product runs in
        # BLAS (a boolean one does not) and counts below 2**24 are exact
        strict = below.astype(np.float32)
        covers = below & (strict @ strict == 0)
        return [(int(i), int(j)) for i, j in np.argwhere(covers)]

    def __repr__(self) -> str:
        return f"<ConLattice of {self.algebra.name or self.algebra.size}: {len(self)} congruences>"


def con_lattice(algebra: Algebra, max_size: int = DEFAULT_SIZE_GUARD) -> ConLattice:
    """Every congruence: the identity closed under joins with principal ones.

    Every congruence is the join of the principal congruences Cg(a, b) of
    its related pairs, so it suffices to join each congruence found with
    the distinct principal congruences not already below it (R. Freese,
    Computing congruences efficiently, Algebra Universalis 59, 2008).
    """
    if algebra.size > max_size:
        raise SizeGuardError(f"carrier has {algebra.size} elements, guard is {max_size}")
    n = algebra.size
    rows = _translations(algebra)
    gens = {}
    for a in range(n):
        for b in range(a + 1, n):
            p = Partition(_principal_labels(rows, a, b))
            gens.setdefault(p.class_id, p)
    gen_ids = np.array(list(gens), dtype=np.int64).reshape(len(gens), n)
    generators = list(gens.values())
    bottom = Partition.identity(n)
    seen = {bottom.class_id: bottom, **gens}
    queue = list(seen.values())
    while queue:
        p = queue.pop()
        cid = np.asarray(p.class_id)
        # generator g is below p iff p sends each element and its g-class
        # representative to the same class
        for k in np.flatnonzero((cid[gen_ids] != cid).any(axis=1)).tolist():
            j = p.join(generators[k])
            if j.class_id not in seen:
                seen[j.class_id] = j
                queue.append(j)
    return ConLattice(algebra, [Congruence(algebra, p) for p in seen.values()])


def con_lattice_bruteforce(algebra: Algebra, max_size: int = 8) -> ConLattice:
    """Oracle: filter all Bell(n) partitions by is_congruence.  n <= 8."""
    if algebra.size > max_size:
        raise SizeGuardError(
            f"brute force enumerates Bell({algebra.size}) partitions; guard is {max_size}"
        )
    found = [Congruence(algebra, p) for p in all_partitions(algebra.size) if is_congruence(algebra, p)]
    return ConLattice(algebra, found)


@lru_cache(maxsize=256)
def _con_lattice_cached(algebra, max_size):
    return con_lattice(algebra, max_size)


def con_lattice_of(algebra: Algebra, max_size: int = DEFAULT_SIZE_GUARD) -> ConLattice:
    """Cached con_lattice; safe because algebras and lattices are immutable."""
    return _con_lattice_cached(algebra, max_size)


def con_as_algebra(lattice: ConLattice, symbol: str = "meet") -> Algebra:
    """The congruence lattice as a meet-semilattice algebra.

    Carrier = lattice indices in canonical order; one binary operation,
    the congruence meet.
    """
    name = f"Con({lattice.algebra.name})" if lattice.algebra.name else "Con"
    return Algebra([(symbol, 2)], len(lattice), {symbol: lattice.meet_table().ravel()}, name=name)


def con_lattice_dot(lattice: ConLattice) -> str:
    """Hasse diagram in DOT format, nodes labelled by partition text."""
    lines = ["digraph con_lattice {", "  rankdir=BT;"]
    for i, c in enumerate(lattice):
        lines.append(f'  n{i} [label="{format_partition(c)}"];')
    for low, high in lattice.cover_pairs():
        lines.append(f"  n{low} -> n{high};")
    lines.append("}")
    return "\n".join(lines)
