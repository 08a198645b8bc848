"""Property tests: the congruence layer against brute force on random algebras."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ultracon import (
    Congruence,
    Partition,
    ValidationError,
    con_lattice,
    con_lattice_bruteforce,
    corpus_by_name,
    direct_product,
    make_algebra,
    principal_congruence,
)
from ultracon import congruence
from ultracon.congruence import _congruence_violation, _congruence_violations

from oracles import (
    matrix_to_blocks,
    naive_cover_pairs,
    naive_first_violation,
    naive_is_congruence,
    naive_join_matrix,
    naive_meet_matrix,
    recorded,
    relabel,
    relation_matrix,
)

# fixed examples keep the suite reproducible and inside its time budget
PROPERTY = settings(max_examples=250, deadline=None, derandomize=True, database=None)


@st.composite
def algebras(draw, max_size=4, signature=None):
    """Carriers of 1 to max_size elements with the given signature, or with
    one to three operations of arity 0-3."""
    n = draw(st.integers(1, max_size))
    if signature is None:
        arities = draw(st.lists(st.integers(0, 3), min_size=1, max_size=3))
        signature = [(f"f{i}", k) for i, k in enumerate(arities)]
    cells = st.integers(0, n - 1)
    tables = {sym: draw(st.lists(cells, min_size=n**k, max_size=n**k)) for sym, k in signature}
    return make_algebra(signature, n, tables)


@st.composite
def labelling_pairs(draw):
    n = draw(st.integers(1, 8))
    labels = st.lists(st.integers(0, n - 1), min_size=n, max_size=n)
    return draw(labels), draw(labels)


@st.composite
def algebras_with_partitions(draw):
    """An algebra of at most 5 elements and one to four partitions of its carrier."""
    algebra = draw(algebras(max_size=5))
    n = algebra.size
    rows = draw(st.lists(st.lists(st.integers(0, n - 1), min_size=n, max_size=n), min_size=1, max_size=4))
    return algebra, [Partition(row) for row in rows]


@PROPERTY
@given(algebras())
def test_con_lattice_equals_bruteforce(algebra):
    brute = list(con_lattice_bruteforce(algebra))
    assert list(con_lattice(algebra)) == brute
    # again with every stacked pass one row (or pair) at a time
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(congruence, "_STACK_ENTRIES", 1)
        assert list(con_lattice(algebra)) == brute


@st.composite
def permuting_algebras(draw):
    """Algebras with translations that permute the carrier: a Latin square
    on 1-7 elements, a binary operation with some permutation rows, a
    permutation beside a random unary operation, or a relabelled product."""
    kind = draw(st.sampled_from(["latin", "rows", "unary", "product"]))
    if kind == "product":
        by_name = corpus_by_name()
        names = draw(st.sampled_from([("Z2", "Z4"), ("Z2", "S2", "Z2"), ("S2", "Z3")]))
        product = direct_product([by_name[name] for name in names])
        return relabel(product, draw(st.permutations(range(product.size))))
    n = draw(st.integers(1, 7))
    cells = st.integers(0, n - 1)
    if kind == "latin":
        # an isotope of the cyclic group: every row and column a permutation
        rows, cols, syms = (draw(st.permutations(range(n))) for _ in range(3))
        table = [syms[(rows[x] + cols[y]) % n] for x in range(n) for y in range(n)]
        return make_algebra([("f", 2)], n, {"f": table})
    if kind == "rows":
        table = draw(st.lists(cells, min_size=n * n, max_size=n * n))
        for x in draw(st.sets(st.integers(0, n - 1), min_size=1)):
            table[x * n:(x + 1) * n] = draw(st.permutations(range(n)))
        return make_algebra([("f", 2)], n, {"f": table})
    tables = {"p": draw(st.permutations(range(n))), "u": draw(st.lists(cells, min_size=n, max_size=n))}
    return make_algebra([("p", 1), ("u", 1)], n, tables)


@settings(PROPERTY, max_examples=80)
@given(permuting_algebras())
def test_con_lattice_equals_bruteforce_with_permutation_translations(algebra):
    # one principal congruence is closed per orbit of the permutations
    brute = list(con_lattice_bruteforce(algebra))
    assert list(con_lattice(algebra)) == brute
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(congruence, "_STACK_ENTRIES", 1)
        assert list(con_lattice(algebra)) == brute


@PROPERTY
@given(algebras())
def test_principal_congruence_is_meet_of_congruences_relating_the_pair(algebra):
    n = algebra.size
    brute = list(con_lattice_bruteforce(algebra))
    for a in range(n):
        for b in range(n):
            thetas = [t for t in brute if t.relates(a, b)]
            expected = [[all(t.relates(x, y) for t in thetas) for y in range(n)] for x in range(n)]
            assert relation_matrix(principal_congruence(algebra, a, b)) == expected, (a, b)


@PROPERTY
@given(algebras(max_size=5))
def test_stacked_principal_closure_is_meet_of_congruences_relating_each_pair(algebra):
    # every pair a <= b closed as one stack, then with the cap at one row,
    # so that each pair is a chunk of its own
    n = algebra.size
    brute = list(con_lattice_bruteforce(algebra))
    expected = [[[all(t.relates(x, y) for t in brute if t.relates(a, b)) for y in range(n)] for x in range(n)]
                for a in range(n) for b in range(a, n)]
    rows = congruence._translations(algebra)
    for cap in (congruence._STACK_ENTRIES, 1):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(congruence, "_STACK_ENTRIES", cap)
            pairs = list(congruence._pairs(n, rows.size))
            closed = np.concatenate(list(congruence._principal_stacks(rows, pairs)))
        assert len(pairs) == (1 if cap > 1 else len(expected))
        assert [relation_matrix(Partition(row)) for row in closed] == expected


def _generators(algebra):
    """The generator stage alone: each distinct principal congruence but the
    identity as a Partition, its generating pair, and whether it is kept."""
    seen = set(congruence._row_keys(np.arange(algebra.size, dtype=np.int64)[None]))
    gens, a, b, irreducible = congruence._generators(algebra, seen)
    return [(Partition(row), int(x), int(y), bool(keep)) for row, x, y, keep in zip(gens, a, b, irreducible)]


@PROPERTY
@given(algebras(max_size=5))
def test_kept_generators_are_the_congruences_with_one_lower_cover(algebra):
    brute = list(con_lattice_bruteforce(algebra))
    lower = [sum(1 for _, upper in naive_cover_pairs(brute) if upper == i) for i in range(len(brute))]
    kept = {p for p, _, _, keep in _generators(algebra) if keep}
    assert kept == {p for p, count in zip(brute, lower) if count == 1}


@PROPERTY
@given(algebras(max_size=5))
def test_each_generator_is_the_meet_of_the_congruences_relating_its_pair(algebra):
    n = algebra.size
    brute = list(con_lattice_bruteforce(algebra))
    gens = _generators(algebra)
    assert len({p for p, _, _, _ in gens}) == len(gens)
    for p, a, b, _ in gens:
        thetas = [t for t in brute if t.relates(a, b)]
        assert relation_matrix(p) == [[all(t.relates(x, y) for t in thetas) for y in range(n)] for x in range(n)]


@settings(PROPERTY, max_examples=100)
@given(algebras(max_size=8))
@example(direct_product([corpus_by_name()["C3"]] * 2))
@example(direct_product([corpus_by_name()["U3"]] * 2))
@example(direct_product([corpus_by_name()[name] for name in ("C4", "S2")]))
def test_con_lattice_is_the_same_at_every_cap(algebra):
    # at 2**6 and 2**10 entries the irreducibility joins of the examples go
    # through in chunks of one row and of several rows
    lattice = list(con_lattice(algebra))
    for cap in (1 << 6, 1 << 10, 1 << 15):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(congruence, "_STACK_ENTRIES", cap)
            assert list(con_lattice(algebra)) == lattice, cap


@st.composite
def label_stacks(draw):
    """Two stacks of one to six labellings each of a carrier of 1 to 8 elements."""
    n = draw(st.integers(1, 8))
    count = draw(st.integers(1, 6))
    rows = st.lists(st.lists(st.integers(0, n - 1), min_size=n, max_size=n), min_size=count, max_size=count)
    return [Partition(labels) for labels in draw(rows)], [Partition(labels) for labels in draw(rows)]


@PROPERTY
@given(label_stacks())
def test_stacked_joins_and_meets_match_naive_closure(stacks):
    left, right = ([p.class_id for p in side] for side in stacks)
    left, right = np.array(left, dtype=np.int64), np.array(right, dtype=np.int64)
    joins = congruence._join_stack(left, right)
    meets = congruence._meet_stack(left, right)
    for p, q, join, meet in zip(*stacks, joins, meets):
        assert Partition(join).blocks() == matrix_to_blocks(naive_join_matrix(p, q))
        assert Partition(meet).blocks() == matrix_to_blocks(naive_meet_matrix(p, q))
        # least-member class ids already, as the tables' lookups need
        assert tuple(join.tolist()) == Partition(join).class_id
        assert tuple(meet.tolist()) == Partition(meet).class_id


@PROPERTY
@given(labelling_pairs())
def test_join_matches_naive_closure(labels):
    p, q = Partition(labels[0]), Partition(labels[1])
    assert p.join(q).blocks() == matrix_to_blocks(naive_join_matrix(p, q))


@st.composite
def pair_lists(draw):
    """A carrier of 1 to 8 elements and up to 12 pairs over it, which may
    repeat or relate an element to itself."""
    n = draw(st.integers(1, 8))
    element = st.integers(0, n - 1)
    return n, draw(st.lists(st.tuples(element, element), max_size=12))


@PROPERTY
@given(pair_lists())
@example((1, []))
@example((4, []))
@example((5, [(3, 1), (3, 1), (1, 3), (2, 2), (4, 0), (0, 4), (4, 4)]))
def test_from_pairs_is_the_transitive_closure(case):
    n, pairs = case
    rel = [[a == b for b in range(n)] for a in range(n)]
    for a, b in pairs:
        rel[a][b] = rel[b][a] = True
    for c in range(n):  # Warshall: after step c, paths through 0..c are closed
        for a in range(n):
            for b in range(n):
                rel[a][b] = rel[a][b] or (rel[a][c] and rel[c][b])
    assert relation_matrix(Partition.from_pairs(n, pairs)) == rel


@PROPERTY
@given(algebras_with_partitions())
def test_stacked_validation_matches_oracles_row_by_row(case):
    algebra, parts = case
    labels = np.array([p.class_id for p in parts], dtype=np.int64)
    witnesses = _congruence_violations(algebra, labels)
    assert len(witnesses) == len(parts)
    for p, witness in zip(parts, witnesses):
        assert (witness is None) == naive_is_congruence(algebra, p.class_id)
        assert witness == _congruence_violation(algebra, p)
        assert witness == naive_first_violation(algebra, p.class_id)


# Position 0 fails at a = 3 and a = 2, which a block of table rows taken
# class by class meets in that order.
LATER_MEMBER_FIRST = (make_algebra([("f", 2)], 5, {"f": [[0, 0, 1, 1, 0][x] for x in range(5) for _ in range(5)]}),
                      [Partition([0, 1, 1, 0, 1])])
# Position 1 fails after the least member 0 only at a = 3, and after the
# least member 1 at a = 2.
LATER_PREFIX_FIRST = (make_algebra([("f", 2)], 4, {"f": [0, 0, 0, 1] + [0, 0, 1, 0] * 3}),
                      [Partition([0, 1, 1, 1])])


@PROPERTY
@given(algebras_with_partitions())
@example(LATER_MEMBER_FIRST)
@example(LATER_PREFIX_FIRST)
def test_stacked_validation_matches_the_oracle_at_every_cap(case):
    # at the default cap every stack goes through in one pass per
    # position; below one row's table each row goes by itself, a block of
    # table rows at a time: n**arity - 1 entries hold several rows, n
    # entries and 1 entry one row or one tuple of earlier arguments, so
    # that blocks split inside a class and inside a row
    algebra, parts = case
    labels = np.array([p.class_id for p in parts], dtype=np.int64)
    expected = [naive_first_violation(algebra, p.class_id) for p in parts]
    most = max((k for _, k in algebra.signature.symbols), default=0)
    for cap in (congruence._STACK_ENTRIES, max(1, algebra.size ** most - 1), algebra.size, 1):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(congruence, "_STACK_ENTRIES", cap)
            assert _congruence_violations(algebra, labels) == expected, cap


@PROPERTY
@given(algebras_with_partitions())
def test_validation_agrees_with_the_oracle_on_first_and_repeated_calls(case):
    # each algebra is drawn fresh, so the first round validates and the
    # second round meets whatever the first recorded
    algebra, parts = case
    for _ in range(2):
        for p in parts:
            try:
                Congruence(algebra, p.class_id)
                accepted = True
            except ValidationError:
                accepted = False
            assert accepted == naive_is_congruence(algebra, p.class_id)
    assert recorded(algebra) == {p.class_id for p in parts if naive_is_congruence(algebra, p.class_id)}


HASHABLES = st.one_of(st.integers(-3, 6), st.sampled_from(["a", "b", (0, 1), None, 2.5, True]))


@st.composite
def labellings(draw):
    """1-8 labels: a list of hashables, or an integer array of some dtype
    holding arbitrary labels or a least-member labelling already."""
    kind = draw(st.sampled_from(["hashables", "arbitrary", "canonical"]))
    if kind == "hashables":
        return draw(st.lists(HASHABLES, min_size=1, max_size=8))
    dtype = np.dtype(draw(st.sampled_from([np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint64])))
    low = -3 if dtype.kind == "i" else 0
    values = draw(st.lists(st.integers(low, 6), min_size=1, max_size=8))
    if kind == "canonical":
        values = [values.index(v) for v in values]
    elif dtype == np.uint64 and draw(st.booleans()):
        values = [v + 2**63 for v in values]  # labels that an int64 view would read as negative
    return np.array(values, dtype=dtype)


@PROPERTY
@given(labellings())
@example([1, True, 1.0, "a", None, (0, 1), "a"])
@example(np.array([0, 0, 2, 2, 0], dtype=np.int64))
def test_a_partition_keeps_first_occurrence_labels_in_its_key(labels):
    values = labels.tolist() if isinstance(labels, np.ndarray) else list(labels)
    naive = tuple(values.index(v) for v in values)
    p = Partition(labels)
    # the caller's labels change before anything is read from p, and p keeps its own
    if isinstance(labels, np.ndarray):
        labels[:] = np.arange(len(labels))[::-1]
    else:
        labels.reverse()
    assert p.class_id == naive and all(type(e) is int for e in p.class_id)
    assert p.labels.dtype == np.int64 and p.labels.tolist() == list(naive)
    assert type(p.size) is int and p.size == len(naive) and p.key == np.array(naive, dtype=np.int64).tobytes()
    for same in (Partition(p.labels), Partition(naive), Partition(p)):
        assert same == p and hash(same) == hash(p)
    with pytest.raises(ValueError):
        p.labels[0] = 0


@PROPERTY
@given(st.integers(1, 8).flatmap(lambda n: st.lists(st.integers(-3, n + 2), min_size=n, max_size=n)))
def test_array_labels_give_the_tuple_partition(labels):
    assert Partition(np.array(labels, dtype=np.int64)).class_id == Partition(labels).class_id


@PROPERTY
@given(st.integers(1, 8).flatmap(lambda n: st.lists(st.lists(st.integers(-3, n + 2), min_size=n, max_size=n),
                                                    min_size=1, max_size=6)))
@example([[0, 0, 3, 2], [0, 1, 2, 3], [-1, -1, 0, 0], [0, 0, 1, 1], [0, 1, 1, 0]])
def test_stacked_least_member_check_agrees_with_each_row(rows):
    # rows with a label above its index, a negative label and a label that
    # is not a fixed point, beside canonical ones
    stack = np.array(rows, dtype=np.int64)
    assert congruence._is_canonical(stack).tolist() == [congruence._is_canonical(row) for row in stack]
    assert [congruence._is_canonical(row) for row in stack] == [Partition(row).class_id == tuple(row) for row in rows]
