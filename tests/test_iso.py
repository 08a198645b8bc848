import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ultracon import (
    SizeGuardError,
    ValidationError,
    find_isomorphism,
    is_homomorphism,
    isomorphic_by_bruteforce,
    make_algebra,
)
from ultracon.corpus import left_zero

from oracles import relabel
from test_congruence_properties import PROPERTY, algebras


def test_every_algebra_is_isomorphic_to_itself(corpus):
    for alg in corpus:
        if alg.size > 6:
            continue
        result = find_isomorphism(alg, alg)
        assert result.found
        assert is_homomorphism(result.witness, alg, alg)


def test_relabelled_copies_are_found(corpus):
    rng = random.Random(5)
    for alg in corpus:
        perm = list(range(alg.size))
        rng.shuffle(perm)
        other = relabel(alg, perm)
        result = find_isomorphism(alg, other)
        assert result.found, alg.name
        assert is_homomorphism(result.witness, alg, other)
        assert is_homomorphism(result.witness.inverse(), other, alg)


def test_agrees_with_bruteforce_on_small_pairs(corpus):
    small = [a for a in corpus if a.size <= 4]
    for a in small:
        for b in small:
            if a.signature != b.signature:
                continue
            fast = find_isomorphism(a, b).found
            slow = isomorphic_by_bruteforce(a, b).found
            assert fast == slow, (a.name, b.name)
            assert fast == find_isomorphism(b, a).found  # symmetric


@st.composite
def algebra_pairs(draw):
    """An algebra of at most 5 elements, a relabelled copy of it, and whether
    one table entry of the copy was then changed."""
    a = draw(algebras(max_size=5))
    b = relabel(a, draw(st.permutations(range(a.size))))
    mutated = a.size > 1 and draw(st.booleans())
    if mutated:
        tables = {sym: b.table_array(sym).tolist() for sym, _ in b.signature.symbols}
        sym = draw(st.sampled_from(sorted(tables)))
        flat = draw(st.integers(0, len(tables[sym]) - 1))
        tables[sym][flat] = (tables[sym][flat] + draw(st.integers(1, a.size - 1))) % a.size
        b = make_algebra(b.signature, b.size, tables)
    return a, b, mutated


@PROPERTY
@given(algebra_pairs())
def test_search_agrees_with_bruteforce_on_random_pairs(pair):
    a, b, mutated = pair
    found = find_isomorphism(a, b).found
    assert found == isomorphic_by_bruteforce(a, b).found
    assert found or mutated


def test_known_non_isomorphic_pairs(by_name):
    assert not find_isomorphism(by_name["C3"], by_name["Z3"]).found
    assert not find_isomorphism(by_name["Z4"], by_name["B22"]).found
    assert not find_isomorphism(by_name["Z6"], by_name["S3"]).found
    assert not find_isomorphism(by_name["C3"], by_name["RPS"]).found


def test_size_mismatch_is_not_an_error(c3, s2):
    assert not find_isomorphism(c3, s2).found
    assert not isomorphic_by_bruteforce(c3, s2).found


def test_signature_mismatch_is_an_error(c3, by_name):
    with pytest.raises(ValidationError):
        find_isomorphism(c3, by_name["U3"])
    with pytest.raises(ValidationError):
        isomorphic_by_bruteforce(c3, by_name["U3"])


def test_size_guards():
    big = left_zero(13)
    with pytest.raises(SizeGuardError):
        find_isomorphism(big, big)
    six = left_zero(6)
    with pytest.raises(SizeGuardError):
        isomorphic_by_bruteforce(six, six)
    assert find_isomorphism(six, six, max_size=13).found


def test_witness_maps_operations(by_name):
    z4 = by_name["Z4"]
    # an automorphism of Z4 other than identity exists (negation)
    negated = relabel(z4, [0, 3, 2, 1])
    result = find_isomorphism(z4, negated)
    assert result.found
    for x in range(4):
        for y in range(4):
            lhs = result.witness[z4.apply("op", (x, y))]
            rhs = negated.apply("op", (result.witness[x], result.witness[y]))
            assert lhs == rhs


def test_results_are_kept_per_source_target_and_guard(by_name):
    z4 = by_name["Z4"]
    source = z4.rename("source")  # a fresh algebra, so nothing is kept on it yet
    copy = z4.rename("copy")  # equal tables, another object
    first = find_isomorphism(source, copy)
    assert first.found
    assert find_isomorphism(source, z4) is first  # an equal target finds the kept result
    assert find_isomorphism(source, copy, max_size=4) is not first  # another guard searches again
    with pytest.raises(SizeGuardError):  # guard errors are raised on every call
        find_isomorphism(source, copy, max_size=3)
    swapped = relabel(z4, [1, 0, 2, 3])  # not an automorphism: other tables
    other = find_isomorphism(source, swapped)
    assert other.found and other is not first
