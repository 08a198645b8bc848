"""Property tests: product tables and the homomorphism test against per-tuple oracles."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ultracon import ElemMap, con_lattice_bruteforce, congruence, direct_product, is_homomorphism, quotient

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
