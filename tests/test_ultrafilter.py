import pytest

from ultracon import (
    UltrafilterD,
    ValidationError,
    check_4star,
    check_ultrafilter,
    enumerate_ultrafilters,
    is_filter,
    is_ultrafilter,
    principal_ultrafilter,
)
from ultracon.ultrafilter import mask_elements, parse_ultrafilter, subset_mask


def all_families(n):
    full = (1 << n) - 1
    for fam in range(1 << (full + 1)):
        yield [s for s in range(full + 1) if (fam >> s) & 1]


def test_subset_mask_round_trip():
    assert subset_mask(3, [0, 2]) == 0b101
    assert mask_elements(0b101) == (0, 2)
    assert mask_elements(0) == ()
    with pytest.raises(ValidationError):
        subset_mask(3, [3])


def test_principal_ultrafilter_members():
    d = principal_ultrafilter(3, 1)
    assert d.members_as_sets() == ((1,), (0, 1), (1, 2), (0, 1, 2))
    assert d.principal_index() == 1
    assert principal_ultrafilter(1, 0).members_as_sets() == ((0,),)
    with pytest.raises(ValidationError):
        principal_ultrafilter(3, 3)


@pytest.mark.parametrize("n", [2.0, True, 0, "2"])
def test_principal_ultrafilter_checks_the_index_set_size(n):
    with pytest.raises(ValidationError, match=f"index set size must be a positive int, got {n!r}"):
        principal_ultrafilter(n, 0)


def test_member_checks_universe():
    d = principal_ultrafilter(2, 0)
    assert d.member(0b01) and not d.member(0b10)
    assert 0b11 in d and 0b00 not in d
    with pytest.raises(ValidationError, match="universe"):
        d.member(0b100)
    with pytest.raises(ValidationError):
        d.member(-1)


def test_axiom_diagnostics_name_first_violation():
    # {I} alone on a 2-element index set: not decisive about {0}
    v = check_ultrafilter(2, [0b11])
    assert v is not None and v.axiom == 4
    assert v.witness == (0b01,)
    # contains the empty set
    v = check_ultrafilter(2, [0b11, 0b00])
    assert v.axiom == 1
    # missing the whole set
    v = check_ultrafilter(2, [0b01])
    assert v.axiom == 1
    # not intersection closed
    v = check_ultrafilter(2, [0b11, 0b01, 0b10])
    assert v.axiom == 2
    assert set(v.witness) == {0b01, 0b10}
    # not upward closed: supersets of {0} in a 3-element universe, minus {0,2}
    v = check_ultrafilter(3, [0b111, 0b001, 0b011])
    assert v.axiom == 3
    assert "axiom (3)" in v.message


def test_is_ultrafilter_on_explicit_families():
    assert is_ultrafilter(2, [0b01, 0b11])
    assert not is_ultrafilter(2, [0b11])
    assert is_ultrafilter(1, [0b1])
    with pytest.raises(ValidationError):
        check_ultrafilter(2, [7])  # mask outside the power set


def test_enumeration_finds_exactly_the_principals():
    for n in range(1, 5):
        found = enumerate_ultrafilters(n)
        assert len(found) == n
        assert set(found) == {principal_ultrafilter(n, i) for i in range(n)}
        for d in found:
            # least member under (popcount, value) is the generating singleton
            assert bin(d.members[0]).count("1") == 1
    with pytest.raises(ValidationError):
        enumerate_ultrafilters(5)
    with pytest.raises(ValidationError):
        enumerate_ultrafilters(0)


def test_every_ultrafilter_decides_each_subset_exactly_once():
    for n in range(1, 5):
        full = (1 << n) - 1
        for d in enumerate_ultrafilters(n):
            for s in range(full + 1):
                assert d.member(s) != d.member(full ^ s)
            for s in d.members:
                for sup in range(full + 1):
                    if sup & s == s:
                        assert d.member(sup)


def test_4star_equivalence_exhaustive_small():
    # under (1)-(3), decisiveness (4) and primeness (4*) coincide
    for n in (1, 2, 3):
        filters = 0
        for members in all_families(n):
            v = check_ultrafilter(n, members)
            if v is None:
                assert check_4star(n, members) is True
                filters += 1
            elif v.axiom == 4:
                assert check_4star(n, members) is False
                filters += 1
        assert filters == (1 << n) - 1  # one filter per nonempty generating set


def test_4star_counterexample_is_a_filter():
    # supersets of {0,1} in a 3-element universe: a filter, not ultra
    members = [0b011, 0b111]
    assert is_filter(3, members)
    v = check_ultrafilter(3, members)
    assert v is not None and v.axiom == 4
    assert check_4star(3, members) is False


def test_4star_requires_a_filter():
    with pytest.raises(ValidationError, match="axiom"):
        check_4star(2, [0b11, 0b01, 0b10])  # fails intersection closure


def test_constructor_validates():
    with pytest.raises(ValidationError, match="axiom"):
        UltrafilterD(2, [0b11])
    d = UltrafilterD.from_sets(2, [[1], [0, 1]])
    assert d == principal_ultrafilter(2, 1)
    assert hash(d) == hash(principal_ultrafilter(2, 1))


def test_parse_ultrafilter_specs():
    assert parse_ultrafilter("principal:2", 3) == principal_ultrafilter(3, 2)
    assert parse_ultrafilter("[[1],[0,1]]", 2) == principal_ultrafilter(2, 1)
    with pytest.raises(ValidationError):
        parse_ultrafilter("principal:9", 3)
    with pytest.raises(ValidationError):
        parse_ultrafilter("principal:x", 3)
    with pytest.raises(ValidationError, match="axiom"):
        parse_ultrafilter("[[0]]", 2)  # whole set missing
    with pytest.raises(ValidationError):
        parse_ultrafilter("{bad json", 2)
    with pytest.raises(ValidationError):
        parse_ultrafilter("[0,1]", 2)  # not a list of subsets
