import tracemalloc

import numpy as np
import pytest

from ultracon import (
    Congruence,
    Partition,
    ValidationError,
    all_partitions,
    con_as_algebra,
    con_lattice,
    con_lattice_bruteforce,
    con_lattice_dot,
    direct_product,
    find_isomorphism,
    is_congruence,
    make_algebra,
    parse_partition,
    principal_congruence,
    principal_ultrafilter,
)
from ultracon import congruence
from ultracon.congruence import format_partition
from ultracon.constructions import _least_member_labels

from oracles import (
    matrix_to_blocks,
    naive_cover_pairs,
    naive_first_violation,
    naive_is_congruence,
    naive_join_matrix,
    naive_meet_matrix,
    naive_partitions,
)

BELL = {1: 1, 2: 2, 3: 5, 4: 15, 5: 52, 6: 203}


def test_all_partitions_counts_match_bell_numbers():
    for n, bell in BELL.items():
        got = list(all_partitions(n))
        assert len(got) == bell
        assert len({p.class_id for p in got}) == bell


def test_canonical_form_is_idempotent_and_least_member():
    for labels in naive_partitions(4):
        p = Partition(labels)
        assert Partition(p.class_id) == p
        for e in range(4):
            assert p.class_id[e] <= e
            assert p.class_id[p.class_id[e]] == p.class_id[e]
        # arbitrary relabelings canonicalize to the same thing
        assert Partition([x + 17 for x in labels]) == p


def test_blocks_and_text_round_trip():
    for n in (1, 2, 3, 4):
        for labels in naive_partitions(n):
            p = Partition(labels)
            text = format_partition(p)
            assert " " not in text
            assert parse_partition(text, n) == p
    assert format_partition(Partition([0, 0, 2])) == "[[0,1],[2]]"
    assert str(Partition([0, 1, 1])) == "[[0],[1,2]]"


def test_parse_partition_rejects_bad_input():
    with pytest.raises(ValidationError):
        parse_partition("[[0,1]]", 3)  # misses 2
    with pytest.raises(ValidationError):
        parse_partition("[[0,1],[1,2]]", 3)  # overlap
    with pytest.raises(ValidationError):
        parse_partition("[[0,3],[1,2]]", 3)  # out of range
    with pytest.raises(ValidationError):
        parse_partition("[[0,1],[]]", 2)  # empty block
    with pytest.raises(ValidationError):
        parse_partition("nonsense", 2)
    with pytest.raises(ValidationError):
        parse_partition("[0,1]", 2)  # not a list of blocks


def test_from_pairs_and_from_matrix():
    p = Partition.from_pairs(4, [(0, 1), (1, 2)])
    assert p.blocks() == ((0, 1, 2), (3,))
    q = Partition.from_matrix(p.to_matrix())
    assert q == p
    bad = [[True, True, False], [True, True, True], [False, True, True]]
    with pytest.raises(ValidationError, match="transitive"):
        Partition.from_matrix(bad)
    with pytest.raises(ValidationError, match="reflexive"):
        Partition.from_matrix([[False]])
    with pytest.raises(ValidationError, match="symmetric"):
        Partition.from_matrix([[True, True], [False, True]])


@pytest.mark.parametrize("pair, bad", [
    ((0, 3), 3), ((3, 0), 3), ((True, 1), True), ((0, False), False),
    ((-1, 0), -1), ((0, -3), -3), ((1.0, 0), 1.0),
])
def test_from_pairs_rejects_elements_outside_the_carrier(pair, bad):
    # a negative element must be refused before it indexes an array, where
    # -1 would silently stand for the last element
    with pytest.raises(ValidationError, match=rf"pair element {bad!r} is outside the carrier 0\.\.2"):
        Partition.from_pairs(3, [(0, 1), pair])


@pytest.mark.parametrize("op", ["meet", "join", "refines"])
def test_partitions_of_different_sizes_do_not_combine(op):
    small, large = Partition.identity(3), Partition.full(4)
    with pytest.raises(ValidationError, match="partition sizes differ: 3 vs 4"):
        getattr(small, op)(large)
    with pytest.raises(ValidationError, match="partition sizes differ: 4 vs 3"):
        getattr(large, op)(small)


def test_meet_join_against_naive_matrices():
    parts = [Partition(labels) for labels in naive_partitions(4)]
    for p in parts:
        for q in parts:
            assert p.meet(q).blocks() == matrix_to_blocks(naive_meet_matrix(p, q))
            assert p.join(q).blocks() == matrix_to_blocks(naive_join_matrix(p, q))
            # lattice sanity on the way through
            assert p.meet(q) == q.meet(p)
            assert p.join(q) == q.join(p)
            assert p.meet(q).refines(p)
            assert p.refines(p.join(q))


def test_meet_join_identities():
    parts = [Partition(labels) for labels in naive_partitions(4)]
    top = Partition.full(4)
    bottom = Partition.identity(4)
    for p in parts:
        assert p.meet(p) == p and p.join(p) == p
        assert p.meet(top) == p and p.join(bottom) == p
        assert p.meet(bottom) == bottom and p.join(top) == top


def test_refines_matches_relation_containment():
    parts = [Partition(labels) for labels in naive_partitions(4)]
    for p in parts:
        for q in parts:
            contained = all(
                q.relates(a, b) for a in range(4) for b in range(4) if p.relates(a, b)
            )
            assert p.refines(q) == contained


def test_is_congruence_matches_naive_substitution_check(corpus):
    for alg in corpus:
        if alg.size > 4:
            continue
        for labels in naive_partitions(alg.size):
            assert is_congruence(alg, Partition(labels)) == naive_is_congruence(alg, labels), (
                alg.name, labels)


def test_stacked_validation_is_the_same_in_chunks(corpus, monkeypatch):
    # every partition of each small algebra as one stack, whole and then
    # in chunks of two rows; each row's witness is the oracle's
    for alg in corpus:
        if alg.size > 4:
            continue
        parts = list(all_partitions(alg.size))
        labels = np.array([p.class_id for p in parts], dtype=np.int64)
        whole = congruence._congruence_violations(alg, labels)
        assert whole == [naive_first_violation(alg, p.class_id) for p in parts], alg.name
        with monkeypatch.context() as patch:
            patch.setattr(congruence, "_STACK_ENTRIES", 2 * alg.size**2)
            assert congruence._congruence_violations(alg, labels) == whole, alg.name


def test_is_congruence_specific_cases(c3):
    assert is_congruence(c3, parse_partition("[[0],[1,2]]", 3))
    assert is_congruence(c3, parse_partition("[[0,1],[2]]", 3))
    assert not is_congruence(c3, parse_partition("[[0,2],[1]]", 3))


def test_congruence_constructor_rejects_with_witness(c3):
    with pytest.raises(ValidationError, match="not a congruence"):
        Congruence(c3, parse_partition("[[0,2],[1]]", 3))


def test_identity_and_full_are_always_congruences(corpus):
    for alg in corpus:
        assert is_congruence(alg, Partition.identity(alg.size))
        assert is_congruence(alg, Partition.full(alg.size))


def test_principal_congruence_examples(c3):
    assert principal_congruence(c3, 0, 1).blocks() == ((0, 1), (2,))
    assert principal_congruence(c3, 1, 2).blocks() == ((0,), (1, 2))
    # merging the ends of the chain drags the middle along
    assert principal_congruence(c3, 0, 2).num_classes == 1
    assert principal_congruence(c3, 1, 1) == Partition.identity(3)


def test_principal_congruence_is_smallest(corpus):
    # Cg(a,b) refines every congruence that relates a and b
    for alg in corpus:
        if alg.size > 4:
            continue
        lattice = con_lattice_bruteforce(alg)
        for a in range(alg.size):
            for b in range(alg.size):
                pc = principal_congruence(alg, a, b)
                assert pc.relates(a, b)
                for theta in lattice:
                    if theta.relates(a, b):
                        assert pc.refines(theta)


def test_con_lattice_matches_bruteforce_small(c3, by_name):
    for alg in (c3, by_name["Z4"], by_name["U3"], by_name["RPS"]):
        fast = {c.class_id for c in con_lattice(alg)}
        slow = {c.class_id for c in con_lattice_bruteforce(alg)}
        assert fast == slow


def test_con_lattice_counts_beyond_bruteforce(by_name):
    # Congruences of an elementary abelian group are its subgroups:
    # 374 in Z2^5 and 28 in Z3^3, past the 8-element brute-force guard.
    assert len(con_lattice(direct_product([by_name["Z2"]] * 5))) == 374
    assert len(con_lattice(direct_product([by_name["Z3"]] * 3))) == 28


def test_broken_translations_fail_validation(monkeypatch, by_name):
    # con_lattice trusts its principal closure only as far as the final
    # Congruence validation; a closure missing translations must not pass.
    translations = congruence._translations
    monkeypatch.setattr(congruence, "_translations",
                        lambda alg: np.zeros((alg.size, 0), dtype=np.int64))
    with pytest.raises(ValidationError, match="not a congruence"):
        con_lattice(by_name["C3"])
    # keep only the first argument position of S3's one binary operation
    # (the first n columns); S3 is not commutative, and closing under
    # multiplication on one side alone gives cosets of a non-normal subgroup
    monkeypatch.setattr(congruence, "_translations", lambda alg: translations(alg)[:, :alg.size])
    with pytest.raises(ValidationError, match="not a congruence"):
        con_lattice(by_name["S3"])


def test_frozen_congruence_lattices(by_name):
    def texts(name):
        return [format_partition(c) for c in con_lattice(by_name[name])]

    assert texts("C3") == ["[[0,1,2]]", "[[0,1],[2]]", "[[0],[1,2]]", "[[0],[1],[2]]"]
    assert texts("Z4") == ["[[0,1,2,3]]", "[[0,2],[1,3]]", "[[0],[1],[2],[3]]"]
    assert texts("Z6") == [
        "[[0,1,2,3,4,5]]",
        "[[0,2,4],[1,3,5]]",
        "[[0,3],[1,4],[2,5]]",
        "[[0],[1],[2],[3],[4],[5]]",
    ]
    assert texts("S3") == ["[[0,1,2,3,4,5]]", "[[0,3,4],[1,2,5]]",
                           "[[0],[1],[2],[3],[4],[5]]"]
    # left-zero: every partition is a congruence, Bell(3) of them
    assert len(texts("LZ3")) == 5
    assert texts("B22") == [
        "[[0,1,2,3]]",
        "[[0,1,2],[3]]",
        "[[0,1],[2,3]]",
        "[[0,2],[1,3]]",
        "[[0,1],[2],[3]]",
        "[[0,2],[1],[3]]",
        "[[0],[1],[2],[3]]",
    ]


def test_con_lattice_canonical_order_and_bounds(by_name):
    for alg in (by_name["C4"], by_name["B22"], by_name["Z6"]):
        lattice = con_lattice(alg)
        keys = [(c.num_classes, c.class_id) for c in lattice]
        assert keys == sorted(keys)
        assert lattice.top == Partition.full(alg.size)
        assert lattice.bottom == Partition.identity(alg.size)
        outside = next(p for p in all_partitions(alg.size) if p not in lattice)
        with pytest.raises(ValidationError):
            lattice.index(outside)


def test_con_lattice_closed_under_meet_and_join(c4):
    lattice = con_lattice(c4)
    for i, p in enumerate(lattice):
        for j, q in enumerate(lattice):
            assert p.meet(q) in lattice
            assert p.join(q) in lattice
            assert lattice.meet_table()[i, j] == lattice.index(p.meet(q))
            assert lattice.join_table()[i, j] == lattice.index(p.join(q))


def _pairwise_tables(lattice):
    """Meet and join tables from one Partition.meet/join call per pair."""
    meet = np.array([[lattice.index(p.meet(q)) for q in lattice] for p in lattice], dtype=np.int64)
    join = np.array([[lattice.index(p.join(q)) for q in lattice] for p in lattice], dtype=np.int64)
    return meet, join


def test_stacked_tables_equal_pairwise_meets_and_joins(corpus, by_name, monkeypatch):
    # whole, and with the cap at one pair per chunk so that every chunk
    # boundary of the triangle walk is crossed
    lattices = [con_lattice(alg) for alg in corpus] + [con_lattice(direct_product([by_name["Z2"]] * 4))]
    for cap in (congruence._STACK_ENTRIES, 1):
        monkeypatch.setattr(congruence, "_STACK_ENTRIES", cap)
        for lattice in lattices:
            meet, join = _pairwise_tables(lattice)
            fresh = congruence.ConLattice(lattice.algebra, lattice.congruences)
            assert np.array_equal(fresh.meet_table(), meet), (lattice, cap)
            assert np.array_equal(fresh.join_table(), join), (lattice, cap)
            expected = make_algebra([("meet", 2)], len(lattice), {"meet": meet.ravel().tolist()},
                                    f"Con({lattice.algebra.name})")
            assert con_as_algebra(fresh) == expected


@pytest.mark.parametrize("signature, tables", [
    ([("c", 0)], {"c": [2]}),                       # constants only: every partition
    ([("c", 0), ("d", 0)], {"c": [0], "d": [3]}),
    ([], {}),                                        # no operations at all
    ([("f", 1)], {"f": [1, 2, 3, 0]}),               # one unary operation: a 4-cycle
    ([("f", 1), ("g", 1)], {"f": [0, 0, 1, 3], "g": [3, 3, 3, 3]}),
    ([("f", 1), ("c", 0)], {"f": [1, 0, 3, 2], "c": [1]}),
])
def test_constants_and_unary_signatures(signature, tables, monkeypatch):
    alg = make_algebra(signature, 4, tables)
    expected = list(con_lattice_bruteforce(alg))
    for cap in (congruence._STACK_ENTRIES, 1):
        monkeypatch.setattr(congruence, "_STACK_ENTRIES", cap)
        lattice = con_lattice(_fresh(alg))
        assert list(lattice) == expected
        meet, join = _pairwise_tables(lattice)
        assert np.array_equal(lattice.meet_table(), meet)
        assert np.array_equal(lattice.join_table(), join)
        for a in range(4):
            for b in range(4):
                pc = principal_congruence(alg, a, b)
                related = [t for t in expected if t.relates(a, b)]
                assert pc in related and all(pc.refines(t) for t in related)


def test_con_lattice_memory_is_bounded(by_name):
    # every stacked pass is capped at congruence._STACK_ENTRIES entries;
    # validating the whole stack at once peaked at 10 MiB here
    alg = _fresh(direct_product([by_name["Z2"]] * 5))
    con_lattice(by_name["C3"])  # warm up numpy before tracing
    tracemalloc.start()
    try:
        lattice = con_lattice(alg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(lattice) == 374
    assert peak <= 4 * 2**20


def test_validating_dstar_on_a_large_product_goes_a_block_at_a_time(z3):
    # D* on Z3^6, three classes of 243 elements, and the identity: each
    # check holds at most _STACK_ENTRIES entries at a time, where the whole
    # |P|^2 passes peaked at 9.2 MiB on D*, and the identity's least-member
    # prefixes for a position after the last took 4.35 MiB
    prod = direct_product((z3,) * 6)
    dstar = _least_member_labels(prod, [np.arange(3)[None]] * 6, principal_ultrafilter(6, 2))[0]
    Congruence(_fresh(z3), [0, 1, 2])  # warm up numpy before tracing
    for labels, classes in ((dstar, 3), (np.arange(prod.size, dtype=np.int64), prod.size)):
        alg = _fresh(prod)
        tracemalloc.start()
        try:
            con = Congruence(alg, labels)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert con.num_classes == classes and con.class_id in alg._congruences
        assert peak < 2 * 2**20


def test_con_as_algebra_shapes(c3, s2):
    semi = con_as_algebra(con_lattice(c3))
    assert semi.size == 4
    table = semi.tables["meet"]
    for i in range(4):
        for j in range(4):
            assert table[i * 4 + j] == table[j * 4 + i]  # commutative
            for k in range(4):
                left = table[table[i * 4 + j] * 4 + k]
                right = table[i * 4 + table[j * 4 + k]]
                assert left == right  # associative
        assert table[i * 4 + i] == i  # idempotent
    # Con(C3) is the 2x2 boolean square under meet
    square = make_algebra([("meet", 2)], 4, {"meet": [a & b for a in range(4) for b in range(4)]})
    assert find_isomorphism(semi, square).found
    # Con(S2) is the 2-chain; canonical order lists the full congruence
    # (the top, index 0) before the identity, so meet(0, 1) = 1
    semi2 = con_as_algebra(con_lattice(s2))
    assert semi2.table("meet") == (0, 1, 1, 1)


def test_cover_pairs_match_naive_oracle(by_name):
    for factors in (["Z2"] * 4, ["C4", "S2"], ["B22", "S2"]):
        lattice = con_lattice(direct_product([by_name[f] for f in factors]))
        assert lattice.cover_pairs() == naive_cover_pairs(list(lattice)), factors


def test_con_lattice_dot_output(c3):
    dot = con_lattice_dot(con_lattice(c3))
    assert dot.startswith("digraph")
    assert dot.count("label=") == 4
    assert dot.count("->") == 4  # diamond: two atoms between bottom and top
    assert '"[[0,1],[2]]"' in dot


def _fresh(algebra):
    """An equal algebra with nothing recorded on it yet."""
    return make_algebra(algebra.signature, algebra.size, algebra.tables, algebra.name)


def test_recorded_congruences_never_pass_a_non_congruence(c3):
    alg = _fresh(c3)
    bad = parse_partition("[[0,2],[1]]", 3)
    messages = set()
    for _ in range(3):
        with pytest.raises(ValidationError, match="not a congruence") as exc:
            Congruence(alg, bad)
        messages.add(str(exc.value))
    # record every congruence of the algebra, among them [[0],[1,2]] with
    # as many classes as bad, then try bad again, as a partition and as labels
    lattice = con_lattice(alg)
    for c in lattice:
        Congruence(alg, c.class_id)
    assert alg._congruences == {c.class_id for c in lattice}
    for labels in (bad, bad.class_id, np.array(bad.class_id, dtype=np.int64), [5, 7, 5]):
        with pytest.raises(ValidationError, match="not a congruence") as exc:
            Congruence(alg, labels)
        messages.add(str(exc.value))
    assert len(messages) == 1
    assert bad.class_id not in alg._congruences


def test_a_congruence_recorded_on_one_algebra_is_checked_on_another(c3, z3):
    p = parse_partition("[[0],[1,2]]", 3)
    assert Congruence(c3, p).class_id in c3._congruences
    with pytest.raises(ValidationError, match="not a congruence"):
        Congruence(z3, p)
    assert p.class_id not in z3._congruences
    assert Congruence(c3, p) == p


@pytest.mark.parametrize("labels", [
    [0, 0, 3, 2],      # a label greater than its index
    [1, 1, 0],         # labels that are not their own class's label
    [0, 2, 0, 2],      # label 2 at index 1: greater than the index
    [0, 0, 1, 1],      # label 1 is an element of class 0, not a fixed point
    [-1, -1, 0],       # negative labels (a -1 at the end would wrap)
    [0, -3, 0, -3],
    [2, 1, 0],
    [0, 1, 2, 3],      # canonical: taken as it is
    [0, 0, 2, 2, 0],
])
def test_array_labels_give_the_same_partition_as_a_tuple(labels):
    arr = np.array(labels, dtype=np.int64)
    p = Partition(arr)
    assert p.class_id == Partition(tuple(labels)).class_id
    assert all(type(c) is int for c in p.class_id)
    assert list(arr) == labels  # the caller's array is not changed


def test_partition_text_is_kept(c3):
    p = parse_partition("[[0,2],[1]]", 3)
    assert format_partition(p) == "[[0,2],[1]]" == str(p)
    assert format_partition(p) is format_partition(p)
    assert format_partition(Partition([0])) == "[[0]]"
