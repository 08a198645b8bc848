"""Partitions of a finite carrier and congruences of finite algebras.

Canonical form everywhere: a partition of {0..n-1} is stored as the tuple
class_id where class_id[e] is the LEAST element of e's class.  Two
partitions are equal iff their class_id tuples are equal, class_id[e] <= e,
and class_id[class_id[e]] == class_id[e].

The text form is JSON: "[[0,1],[2]]" with blocks sorted by least element
and elements ascending, no spaces.

A congruence is a partition compatible with every operation of an algebra.
Compatibility is checked one argument position at a time, which is
equivalent to the full simultaneous-substitution property: an element a
and the least member of its class, put at one position, must give results
in the same class.  Once positions 0..j-1 pass at every tuple, position j
need only be checked at tuples whose first j arguments are least members.
Replacing each of those arguments by its least member keeps both results'
classes, so a failure at any tuple is also a failure at one whose first j
arguments are least members, and that tuple is no later in (a, other
arguments) order: the first witness is the same.  Tables too large for one
pass are checked that way, a block at a time: a block holds a few such
prefixes, every a and a run of the arguments after position j.
"""

import json
from functools import lru_cache

import numpy as np

from .algebra import DEFAULT_SIZE_GUARD, Algebra, _is_element
from .errors import SizeGuardError, ValidationError


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
                if not _is_element(e, size):
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
        pairs = [(a, b) for a, b in pairs]
        # checked before any array sees them: numpy reads -1 as the last element
        for pair in pairs:
            for e in pair:
                if not _is_element(e, size):
                    raise ValidationError(f"pair element {e!r} is outside the carrier 0..{size - 1}")
        ends = np.array(pairs, dtype=np.int64).reshape(-1, 2)
        return cls(_union_stack(np.arange(size, dtype=np.int64)[None], ends[:, 0], ends[:, 1])[0])

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
        left, right = (np.array([p.class_id], dtype=np.int64) for p in (self, other))
        return Partition(_join_stack(left, right)[0])

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


# Largest temporary, in int64 entries, that a stacked pass builds: the
# passes that build congruence lattices and their tables, validation and
# homomorphism checks.  They run over thousands of small rows, or over
# the tables of large products a block at a time, where larger chunks
# gain little time and cost resident memory: on the con-lattice
# benchmark 2**17 entries raised peak RSS by 10%, 2**15 by 4-5%.
_STACK_ENTRIES = 1 << 15


def _congruence_violations(algebra: Algebra, labels: np.ndarray) -> list:
    """First one-coordinate compatibility failure of each row of labels, or None.

    labels is an (R, n) int64 array of least-member class ids.  A witness
    (symbol, position, a, b, index) means: substituting b, the least
    member of a's class, for a at `position` in the argument tuple decoded
    from flat `index` changes the result's class.  It is the first such
    failure in (symbol, position, a, other arguments) order.  Rows go
    through a chunk at a time (_separations), so that no temporary exceeds
    _STACK_ENTRIES entries, or n entries if the carrier is larger.
    """
    n = algebra.size
    out = [None] * len(labels)
    ops = [(sym, arity) for sym, arity in algebra.signature.symbols if arity > 0]
    if not ops:
        return out
    for part in _chunks(len(labels), n ** max(arity for _, arity in ops)):
        cid = labels[part]
        count = len(cid)
        # row r, element x of the chunk is row r * n + x of stacked classes
        least = (cid + np.arange(0, count * n, n, dtype=np.int64)[:, None]).ravel() if count > 1 else cid[0]
        todo = set(range(count))
        for sym, arity in ops:
            table = algebra.table_array(sym).reshape((n,) * arity)
            for pos, found in enumerate(_separations(table, cid, least)):
                for r, (a, flat) in found.items():
                    if r in todo:
                        todo.discard(r)
                        out[part.start + r] = (sym, pos, a, int(cid[r, a]), flat)
                if not todo:
                    break
            if not todo:
                break
    return out


def _separations(table: np.ndarray, cid: np.ndarray, least: np.ndarray):
    """Yield, for each argument position of one operation in turn,
    {row: (a, flat index)} of the first argument tuple, in (a, other
    arguments) order, at which an element a and its least member, put at
    that position, give results in different classes of that row of cid.

    table is the operation's table shaped (n,) * arity, and least[r * n + x]
    is r * n plus the least member of x's class in row r.  When the rows'
    tables fit _STACK_ENTRIES together, each position is one pass: every
    element's row of classes, with that position's axis first, compared
    with its least member's row.  A single row too large for that goes
    through _row_separations, a block at a time.
    """
    count, n = cid.shape
    if count * table.size > _STACK_ENTRIES:
        yield from _row_separations(table, cid[0])
        return
    classes = cid.take(table, axis=1)
    for pos in range(table.ndim):
        after = n ** (table.ndim - 1 - pos)  # tuples of the arguments after pos
        axes = (0, pos + 1) + tuple(k for k in range(1, table.ndim + 1) if k != pos + 1)
        rows = classes.transpose(axes).reshape(count * n, -1)
        differ = rows != rows.take(least, axis=0)
        found = {}
        if differ.any():
            differ = differ.reshape(count, -1)
            for r in np.flatnonzero(differ.any(axis=1)).tolist():
                a, rest = divmod(int(differ[r].argmax()), rows.shape[1])
                before, rest = divmod(rest, after)
                found[r] = (a, (before * n + a) * after + rest)
        yield found


def _row_separations(table: np.ndarray, labels: np.ndarray):
    """_separations for one labelling, a block of at most _STACK_ENTRIES
    entries at a time (or of n, if that is larger).

    Position j is looked at only at tuples whose first j arguments are
    least members of their classes (for j = 0, the empty prefix), and
    _congruence_violations reads position j only if every earlier one
    passed.  That is enough: the earlier positions then let each of the
    first j arguments be replaced by its least member without changing
    either result's class, so a failure anywhere is also a failure at a
    tuple that is no later in (a, other arguments) order.  A block holds
    a few of those prefixes, every a and a run of the later arguments, so
    each a's least member is in the same block.
    """
    n = len(labels)
    reps = np.flatnonzero(labels == np.arange(n))
    # ascending codes of the tuples of least members before pos, in
    # row-major order: at position 0, the one empty tuple
    prefixes = np.zeros(1, dtype=np.int64)
    for pos in range(table.ndim):
        after = n ** (table.ndim - 1 - pos)
        cube = table.reshape(-1, n, after)
        first = None
        for some in _chunks(len(prefixes), n * after):
            for run in _chunks(after, n):
                # every table entry is in the carrier, so "wrap" only skips the bounds check
                classes = labels.take(cube[prefixes[some], :, run], mode="wrap")
                differ = classes != classes.take(labels, axis=1)
                if differ.any():
                    a = int(differ.any(axis=(0, 2)).argmax())
                    p, rest = divmod(int(differ[:, a].argmax()), classes.shape[2])
                    # for one a the flat index ascends with (prefix, rest)
                    found = (a, (int(prefixes[some][p]) * n + a) * after + run.start + rest)
                    first = found if first is None else min(first, found)
        yield {} if first is None else {0: first}
        if pos + 1 < table.ndim:
            prefixes = (prefixes[:, None] * n + reps).ravel()


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
    side in signature order.  A block equal to an earlier one (the second
    position of a commutative operation) adds no translation and is left
    out.
    """
    n = algebra.size
    blocks = [np.zeros((n, 0), dtype=np.int64)]  # a signature of constants has none
    for sym, arity in algebra.signature.symbols:
        if arity == 0:
            continue
        table = algebra.table_array(sym).reshape((n,) * arity)
        for pos in range(arity):
            block = np.moveaxis(table, pos, 0).reshape(n, -1)
            if not any(np.array_equal(block, seen) for seen in blocks):
                blocks.append(block)
    return np.concatenate(blocks, axis=1)


def _chunks(count: int, per_row: int) -> list:
    """Slices of range(count), each as many rows as fit _STACK_ENTRIES.

    per_row is the largest temporary one row needs, in entries; a row
    that alone exceeds the cap goes through one at a time.
    """
    step = max(1, _STACK_ENTRIES // max(1, per_row))
    return [slice(start, start + step) for start in range(0, count, step)]


def _pairs(k: int, per_pair: int):
    """Yield (i, j) index arrays covering every pair i <= j < k, a chunk at a time.

    Pairs run in row-major order, and a chunk holds as many pairs as fit
    _STACK_ENTRIES at per_pair entries each.
    """
    first = np.arange(k, dtype=np.int64)
    # row i's pairs (i, i), ..., (i, k - 1) start at flat pair starts[i]
    starts = first * k - first * (first - 1) // 2
    total = k * (k + 1) // 2
    step = max(1, _STACK_ENTRIES // max(1, per_pair))
    for start in range(0, total, step):
        pair = np.arange(start, min(start + step, total), dtype=np.int64)
        i = np.searchsorted(starts, pair, side="right") - 1
        yield i, pair - starts[i] + i


def _row_keys(stack: np.ndarray) -> list:
    """The bytes of each row of a 2-D array, as dictionary keys."""
    stack = np.ascontiguousarray(stack)
    return stack.view(np.dtype((np.void, stack.shape[1] * stack.itemsize))).ravel().tolist()


def _union_stack(labels: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """labels with the classes of each pair of flat elements a[i], b[i] merged.

    labels is an (R, n) int64 array of least-member class ids; a and b
    index its flattened form (row r, element x is r * n + x), and a pair
    merges classes of its own row only.  The stack is one union-find
    forest of R * n elements whose roots are least members: each round
    hooks the larger root of every pair still apart under the smaller
    (np.minimum.at keeps the least hook on each root), then pointer-jumps
    until every element points at its root.  labels is not changed.
    """
    count, n = labels.shape
    offset = np.arange(count, dtype=np.int64)[:, None] * n  # np.arange with step n fails at n = 0
    parent = (labels + offset).ravel()
    while True:
        ra, rb = parent[a], parent[b]
        apart = ra != rb
        if not apart.any():
            return parent.reshape(count, n) - offset
        a, b, ra, rb = a[apart], b[apart], ra[apart], rb[apart]
        np.minimum.at(parent, np.maximum(ra, rb), np.minimum(ra, rb))
        jumped = parent[parent]
        while not np.array_equal(jumped, parent):
            parent, jumped = jumped, jumped[jumped]


def _join_stack(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Least-member class ids of the join of each row of left with that row of right."""
    n = left.shape[1]
    # each element is merged with its least member in right
    right = right.ravel()
    flat = np.flatnonzero(right != np.arange(len(right)) % n)
    return _union_stack(left, flat, flat - flat % n + right[flat])


def _meet_stack(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Least-member class ids of the meet of each row of left with that row of right.

    Elements share a meet class iff they share both class ids, so each
    row's (left, right) code is given the least element that has it by
    a scatter-min over count * n * n slots.
    """
    count, n = left.shape
    codes = (left * n + right + np.arange(0, count * n * n, n * n, dtype=np.int64)[:, None]).ravel()
    least = np.full(count * n * n, n, dtype=np.int64)
    np.minimum.at(least, codes, np.tile(np.arange(n, dtype=np.int64), count))
    return least[codes].reshape(count, n)


def _principal_stacks(rows: np.ndarray, pairs):
    """For each (a, b) in pairs, yield the stack of Cg(a[i], b[i]) for every i.

    Each Cg is a row of least-member class ids, and rows is
    _translations(algebra).  Every row starts as the identity
    with a[i] ~ b[i] and each stack is closed by one fixpoint: a partition
    is respected iff each element's row of classes equals its class
    representative's row, so wherever the two differ the two classes are
    merged, and the rows that changed are looked at again.  Every pass
    merges classes, so a row settles within n passes.  A stack of P pairs
    gathers P * rows.size entries into buffers shared by all stacks,
    which saves the allocator freeing and faulting in fresh pages on
    every pass.
    """
    n, width = rows.shape
    size = max(_STACK_ENTRIES, n * width)
    gathered, at_reps = np.empty(size, dtype=np.int64), np.empty(size, dtype=np.int64)
    differ = np.empty(size, dtype=bool)
    for a, b in pairs:
        count = len(a)
        labels = np.tile(np.arange(n, dtype=np.int64), (count, 1))
        labels[np.arange(count), np.maximum(a, b)] = np.minimum(a, b)
        offset = np.arange(0, count * n, n, dtype=np.int64)[:, None]
        active = np.arange(count)
        while len(active):
            lab = labels[active]
            entries = len(active) * n * width
            # every index is in range, and "clip" writes straight into out
            u = np.take(lab, rows, axis=1, out=gathered[:entries].reshape(len(active), n, width), mode="clip")
            u = u.reshape(len(active) * n, width)
            v = np.take(u, (lab + offset[:len(active)]).ravel(), axis=0,
                        out=at_reps[:entries].reshape(u.shape), mode="clip")
            diff = np.not_equal(u, v, out=differ[:entries].reshape(u.shape))
            changed = np.flatnonzero(diff.reshape(len(active), -1).any(axis=1))
            if not len(changed):
                break
            diff = np.flatnonzero(diff)
            row = diff // (n * width) * n
            merged = _union_stack(lab, u.ravel()[diff] + row, v.ravel()[diff] + row)
            labels[active[changed]] = merged[changed]
            active = active[changed]
        yield labels


def principal_congruence(algebra: Algebra, a: int, b: int) -> Congruence:
    """Smallest congruence relating a and b.

    Closes {a, b} under every one-argument translation of every operation,
    as the stack of one pair that con_lattice closes for every pair
    (_principal_stacks).
    """
    n = algebra.size
    for e in (a, b):
        if not _is_element(e, n):
            raise ValidationError(f"generator {e!r} is outside the carrier 0..{n - 1}")
    pair = (np.array([a], dtype=np.int64), np.array([b], dtype=np.int64))
    return Congruence(algebra, next(_principal_stacks(_translations(algebra), [pair]))[0])


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

    def _table(self, combine, per_pair: int) -> np.ndarray:
        """Index of combine(c_i, c_j) for every pair; combine is commutative.

        combine takes two (P, n) stacks of class ids and gives the stack of
        results, needing at most per_pair entries per pair; the pairs
        i <= j go through a chunk at a time, in row-major order.
        """
        ids = np.array([c.class_id for c in self.congruences], dtype=np.int64)
        index = {key: i for i, key in enumerate(_row_keys(ids))}
        tbl = np.empty((len(ids), len(ids)), dtype=np.int64)
        for i, j in _pairs(len(ids), per_pair):
            keys = _row_keys(combine(ids[i], ids[j]))
            tbl[i, j] = tbl[j, i] = np.fromiter(map(index.__getitem__, keys), dtype=np.int64, count=len(keys))
        return tbl

    def meet_table(self) -> np.ndarray:
        if self._meet is None:
            n = self.algebra.size
            self._meet = self._table(_meet_stack, n * n)
        return self._meet

    def join_table(self) -> np.ndarray:
        if self._join is None:
            self._join = self._table(_join_stack, self.algebra.size)
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
    """Every congruence: the principal ones closed under joins, a layer at a time.

    Every congruence is the join of the principal congruences Cg(a, b) of
    its related pairs (R. Freese, Computing congruences efficiently,
    Algebra Universalis 59, 2008).  All Cg(a, b) are closed as one stack;
    then each layer joins every congruence the last layer found with
    every distinct principal one not already below it, in stacked passes,
    and keeps the results not seen before.  Every result is validated by
    stacked passes of _congruence_violations before it becomes a
    Congruence.  No temporary exceeds _STACK_ENTRIES entries unless a
    single row's does.
    """
    if algebra.size > max_size:
        raise SizeGuardError(f"carrier has {algebra.size} elements, guard is {max_size}")
    n = algebra.size
    bottom = np.arange(n, dtype=np.int64)[None]
    seen = set(_row_keys(bottom))
    translations = _translations(algebra)
    # the pairs include a == b, whose Cg is the identity, already seen
    pairs = _pairs(n, n * max(1, translations.shape[1]))
    gens = np.concatenate([_unseen(labels, seen) for labels in _principal_stacks(translations, pairs)])
    found = [bottom, gens]
    frontier = gens
    while len(frontier):
        layer = []
        for part in _chunks(len(frontier), len(gens) * n):
            block = frontier[part]
            # generator g is below a row iff the row sends each element and
            # its g-class representative to the same class
            row, gen = np.nonzero((block[:, gens] != block[:, None]).any(axis=2))
            layer.append(_unseen(_join_stack(block[row], gens[gen]), seen))
        frontier = np.concatenate(layer)
        found.append(frontier)
    stack = np.concatenate(found)
    for labels, witness in zip(stack, _congruence_violations(algebra, stack)):
        if witness is not None:
            raise _not_a_congruence(algebra, witness)
        algebra._congruences.add(tuple(labels.tolist()))
    return ConLattice(algebra, [Congruence(algebra, labels) for labels in stack])


def _unseen(stack: np.ndarray, seen: set) -> np.ndarray:
    """The rows of stack whose bytes are not in seen, copied; adds them to seen."""
    keep = []
    for i, key in enumerate(_row_keys(stack)):
        if key not in seen:
            seen.add(key)
            keep.append(i)
    return stack[keep]


BRUTE_FORCE_GUARD = 8  # Bell(8) = 4140 partitions


def con_lattice_bruteforce(algebra: Algebra) -> ConLattice:
    """Oracle: filter all Bell(n) partitions by is_congruence.  n <= BRUTE_FORCE_GUARD."""
    if algebra.size > BRUTE_FORCE_GUARD:
        raise SizeGuardError(
            f"brute force enumerates Bell({algebra.size}) partitions; guard is {BRUTE_FORCE_GUARD}"
        )
    found = [Congruence(algebra, p) for p in all_partitions(algebra.size) if is_congruence(algebra, p)]
    return ConLattice(algebra, found)


@lru_cache(maxsize=256)
def _con_lattice_cached(algebra):
    return con_lattice(algebra)


def con_lattice_of(algebra: Algebra) -> ConLattice:
    """Cached con_lattice; safe because algebras and lattices are immutable."""
    return _con_lattice_cached(algebra)


def con_as_algebra(lattice: ConLattice) -> Algebra:
    """The congruence lattice as a meet-semilattice algebra.

    Carrier = lattice indices in canonical order; one binary operation,
    the congruence meet.
    """
    name = f"Con({lattice.algebra.name})" if lattice.algebra.name else "Con"
    return Algebra([("meet", 2)], len(lattice), {"meet": lattice.meet_table().ravel()}, name=name)


def con_lattice_dot(lattice: ConLattice) -> str:
    """Hasse diagram in DOT format, nodes labelled by partition text."""
    lines = ["digraph con_lattice {", "  rankdir=BT;"]
    for i, c in enumerate(lattice):
        lines.append(f'  n{i} [label="{format_partition(c)}"];')
    for low, high in lattice.cover_pairs():
        lines.append(f"  n{low} -> n{high};")
    lines.append("}")
    return "\n".join(lines)
