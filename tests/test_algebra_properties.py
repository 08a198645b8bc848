"""Property tests: product tables, their kernels and the homomorphism test against per-tuple oracles."""

from itertools import product as iter_product

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ultracon import ElemMap, con_lattice_bruteforce, congruence, direct_product, is_homomorphism, kernel, quotient
from ultracon.algebra import _radix_sums, _take_each_axis

from oracles import naive_is_homomorphism, naive_product_table
from test_congruence_properties import PROPERTY, algebras


@st.composite
def products(draw):
    """The direct product of one to three algebras of 1-4 elements sharing one signature."""
    first = draw(algebras())
    rest = draw(st.lists(algebras(signature=first.signature), max_size=2))
    return direct_product([first, *rest])


@PROPERTY
@given(products())
def test_product_tables_match_the_per_tuple_oracle(prod):
    for sym in prod.signature.names:
        assert list(prod.table(sym)) == naive_product_table(prod, sym), sym


@PROPERTY
@given(st.integers(1, 6).flatmap(lambda m: st.tuples(st.just(m), st.lists(st.integers(0, m - 1), max_size=30))))
def test_kernel_gives_each_element_the_first_with_its_image(case):
    target, image = case
    least = {}
    expected = tuple(least.setdefault(y, x) for x, y in enumerate(image))
    assert kernel(ElemMap(len(image), target, image)).class_id == expected


@PROPERTY
@given(st.lists(st.integers(1, 5), min_size=1, max_size=4), st.integers(1, 3), st.data())
def test_radix_sums_match_a_sum_over_decoded_coordinates(sizes, rows, data):
    # each part has one row, shared by every result row, or one per row
    parts = []
    for n in sizes:
        values = st.lists(st.integers(-50, 50), min_size=n, max_size=n)
        height = data.draw(st.sampled_from([1, rows]))
        parts.append(data.draw(st.lists(values, min_size=height, max_size=height)))
    sums = _radix_sums([np.array(part, dtype=np.int64) for part in parts])
    expected = [[sum(part[r % len(part)][c] for part, c in zip(parts, coords))
                 for coords in iter_product(*map(range, sizes))]
                for r in range(max(map(len, parts)))]
    assert sums.tolist() == expected


@PROPERTY
@given(st.integers(0, 3), st.integers(1, 5), st.data())
def test_take_each_axis_matches_the_per_tuple_gather(arity, side, data):
    # a first index shorter than the side is taken first, one at least as
    # long is taken last
    table = data.draw(st.lists(st.integers(0, 99), min_size=side**arity, max_size=side**arity))
    element = st.integers(0, side - 1)
    indices = [data.draw(st.lists(element, max_size=2 * side + 1 if axis == 0 else 6)) for axis in range(arity)]
    picked = _take_each_axis(np.array(table, dtype=np.int64), side, [np.array(i, dtype=np.int64) for i in indices])
    expected = [table[sum(a * side**(arity - 1 - j) for j, a in enumerate(args))] for args in iter_product(*indices)]
    assert picked.tolist() == expected


@PROPERTY
@given(products(), st.data())
def test_is_homomorphism_matches_the_per_tuple_oracle(prod, data):
    maps = [(ElemMap.identity(prod.size), prod, prod)]
    for i, f in enumerate(prod.factors):
        maps.append((ElemMap(prod.size, f.size, [prod.decode(x)[i] for x in range(prod.size)]), prod, f))
    for source in (prod, *prod.factors):
        for target in (prod, *prod.factors):
            image = data.draw(st.lists(st.integers(0, target.size - 1), min_size=source.size, max_size=source.size))
            maps.append((ElemMap(source.size, target.size, image), source, target))
    for h, source, target in maps:
        assert is_homomorphism(h, source, target) == naive_is_homomorphism(h, source, target), h


@st.composite
def maps_between_algebras(draw):
    """(h, source, target): a source of 1-5 elements and either its
    projection onto a quotient, perhaps with one image changed, or any
    map into an algebra of the same signature."""
    source = draw(algebras(max_size=5))
    if draw(st.booleans()):
        target = quotient(source, draw(st.sampled_from(list(con_lattice_bruteforce(source)))))
        image = list(target.projection.image)
        if draw(st.booleans()):
            image[draw(st.integers(0, source.size - 1))] = draw(st.integers(0, target.size - 1))
    else:
        target = draw(algebras(max_size=5, signature=source.signature))
        image = draw(st.lists(st.integers(0, target.size - 1), min_size=source.size, max_size=source.size))
    return ElemMap(source.size, target.size, image), source, target


@PROPERTY
@given(maps_between_algebras())
def test_is_homomorphism_matches_the_per_tuple_oracle_at_every_cap(case):
    # at n entries and at 1 every block is one first argument
    h, source, target = case
    expected = naive_is_homomorphism(h, source, target)
    for cap in (congruence._STACK_ENTRIES, source.size, 1):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(congruence, "_STACK_ENTRIES", cap)
            assert is_homomorphism(h, source, target) == expected, cap
