"""Property tests: product tables and the homomorphism test against per-tuple oracles."""

from hypothesis import given
from hypothesis import strategies as st

from ultracon import ElemMap, direct_product, is_homomorphism

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
