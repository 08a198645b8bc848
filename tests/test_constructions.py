from itertools import product as iter_product

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ultracon import (
    CongruenceFamily,
    Partition,
    ValidationError,
    con_lattice,
    direct_product,
    dstar,
    find_isomorphism,
    induced_congruence,
    isomorphic_by_bruteforce,
    make_algebra,
    principal_ultrafilter,
    product_congruence,
    quotient,
    ultraproduct,
)
from ultracon import algebra, congruence, constructions
from ultracon.constructions import UltraproductAlgebra
from ultracon.congruence import parse_partition

from oracles import (
    UpSet,
    definitional_product_matrix,
    naive_first_violation,
    naive_product_relates,
    recorded,
    relation_matrix,
)
from test_congruence_properties import PROPERTY


def test_family_validation(c3, s2):
    fam = CongruenceFamily([c3, s2], [parse_partition("[[0,1],[2]]", 3), Partition.identity(2)])
    assert len(fam) == 2
    with pytest.raises(ValidationError):
        CongruenceFamily([c3, s2], [Partition.identity(3)])  # wrong length
    with pytest.raises(ValidationError, match="not a congruence"):
        CongruenceFamily([c3], [parse_partition("[[0,2],[1]]", 3)])
    with pytest.raises(ValidationError):
        CongruenceFamily([], [])


def test_dstar_agreement_classes(s2, c3):
    d0 = principal_ultrafilter(2, 0)
    d1 = principal_ultrafilter(2, 1)
    assert dstar([s2, s2], d0).blocks() == ((0, 1), (2, 3))
    assert dstar([s2, s2], d1).blocks() == ((0, 2), (1, 3))
    # a single factor: almost-everywhere equality is equality
    assert dstar([c3], principal_ultrafilter(1, 0)) == Partition.identity(3)
    # principal at 2 on a triple product groups by the last coordinate
    theta = dstar([c3, c3, c3], principal_ultrafilter(3, 2))
    prod = direct_product([c3, c3, c3])
    assert theta.num_classes == 3
    for x in range(27):
        for y in range(27):
            assert theta.relates(x, y) == (prod.decode(x)[2] == prod.decode(y)[2])


def test_dstar_index_mismatch(s2):
    with pytest.raises(ValidationError):
        dstar([s2, s2], principal_ultrafilter(3, 0))


def test_dstar_is_product_congruence_of_identities(c3, s2, by_name):
    for factors in ([c3, c3], [s2, c3], [by_name["Z4"], s2]):
        for i0 in range(2):
            ultra = principal_ultrafilter(2, i0)
            fam = CongruenceFamily.identities(factors)
            assert dstar(factors, ultra) == product_congruence(fam, ultra)


def test_product_congruence_matches_naive_oracle(c3):
    lattice = list(con_lattice(c3))
    prod = direct_product([c3, c3])
    for sa in lattice:
        for sb in lattice:
            fam = CongruenceFamily([c3, c3], [sa, sb])
            for i0 in range(2):
                ultra = principal_ultrafilter(2, i0)
                theta = product_congruence(fam, ultra)
                member_sets = ultra.members_as_sets()
                for x in range(9):
                    for y in range(9):
                        want = naive_product_relates(
                            [c3, c3], [sa, sb], member_sets, prod.decode(x), prod.decode(y))
                        assert theta.relates(x, y) == want


def test_dstar_and_product_congruence_match_definition_on_mixed_product(s2, c3):
    # three factors of sizes 2, 3, 2: every generator position, uneven radix
    factors = [s2, c3, s2]
    prod = direct_product(factors)
    lattices = [list(con_lattice(f)) for f in factors]
    identities = [np.eye(f.size, dtype=bool) for f in factors]
    for i0 in range(3):
        ultra = principal_ultrafilter(3, i0)
        member_sets = ultra.members_as_sets()
        agree = definitional_product_matrix(prod, identities, ultra)
        assert np.array_equal(dstar(factors, ultra).to_matrix(), agree)
        for sigmas in iter_product(*lattices):
            theta = product_congruence(CongruenceFamily(factors, sigmas), ultra)
            rel = definitional_product_matrix(prod, [s.to_matrix() for s in sigmas], ultra)
            assert np.array_equal(theta.to_matrix(), rel)
            for x in range(prod.size):
                for y in range(prod.size):
                    want = naive_product_relates(
                        factors, sigmas, member_sets, prod.decode(x), prod.decode(y))
                    assert theta.relates(x, y) == want


def test_stacked_labels_match_definition_on_two_coordinate_core(s2, c3):
    # every family over [S2, C3, S2] as one stacked call, filter up-{0, 2}
    factors = [s2, c3, s2]
    prod = direct_product(factors)
    up = UpSet(3, 0b101)
    families = list(iter_product(*(list(con_lattice(f)) for f in factors)))
    class_ids = [np.array([fam[i].class_id for fam in families]) for i in range(len(factors))]
    labels = constructions._least_member_labels(prod, class_ids, up)
    assert labels.shape == (len(families), prod.size) and len(families) > 1
    for row, sigmas in zip(labels.tolist(), families):
        rel = definitional_product_matrix(prod, [s.to_matrix() for s in sigmas], up)
        assert np.array_equal(Partition(row).to_matrix(), rel)
        assert Partition(row).class_id == tuple(row)  # least-member ids


# largest sum over symbols of arity * |P|**arity that a product may reach,
# so that naive_first_violation stays quick under every filter of an example
NAIVE_WORK = 3000


@st.composite
def products(draw):
    """1-4 random algebras of at most 4 elements sharing one signature of
    arities 0-3, kept small enough for the per-tuple oracle."""
    arities = draw(st.lists(st.integers(0, 3), min_size=1, max_size=3))
    signature = [(f"f{i}", k) for i, k in enumerate(arities)]
    factors, size = [], 1
    for _ in range(draw(st.integers(1, 4))):
        fits = [n for n in range(1, 5) if sum(k * (size * n) ** k for k in arities) <= NAIVE_WORK]
        n = draw(st.sampled_from(fits))
        cells = st.integers(0, n - 1)
        factors.append(make_algebra(signature, n, {sym: draw(st.lists(cells, min_size=n**k, max_size=n**k))
                                                   for sym, k in signature}))
        size *= n
    return factors


@PROPERTY
@given(products())
def test_dstar_is_the_definitional_congruence_under_every_filter(factors):
    # principal ultrafilters and the up-sets of every nonempty core, whose
    # labels dstar holds against the core projection before trusting them
    n = len(factors)
    prod = direct_product(factors)
    identities = [np.eye(f.size, dtype=bool) for f in factors]
    for filt in [principal_ultrafilter(n, i) for i in range(n)] + [UpSet(n, core) for core in range(1, 1 << n)]:
        d = dstar(factors, filt)
        assert naive_first_violation(prod, d.class_id) is None
        assert np.array_equal(relation_matrix(d), definitional_product_matrix(prod, identities, filt))


def _fresh_products():
    """Drop the cached products, so the next ones carry no recorded congruences."""
    algebra._direct_product_cached.cache_clear()
    constructions._ultraproduct_cached.cache_clear()


def test_dstar_trusts_its_labels_without_a_validation_pass(s2, c3, monkeypatch):
    # the labels match the core projection's kernel under every filter, one-
    # and many-coordinate cores alike, so no compatibility pass runs
    def refuse(*args):
        raise AssertionError("dstar validated labels that its certificate covers")

    _fresh_products()
    monkeypatch.setattr(congruence, "_congruence_violations", refuse)
    for factors in ([c3, c3], [s2, c3, s2]):
        n = len(factors)
        for filt in [principal_ultrafilter(n, i) for i in range(n)] + [UpSet(n, core) for core in range(1, 1 << n)]:
            assert dstar(factors, filt).class_id in recorded(direct_product(factors))


@pytest.mark.parametrize("names, filt", [(("C3", "C3"), principal_ultrafilter(2, 0)),
                                         (("S2", "C3", "S2"), UpSet(3, 0b101))])
def test_a_faulted_dstar_labelling_is_validated_and_never_recorded(by_name, names, filt, monkeypatch):
    # labels with the last element moved into the class of 0 fail the
    # certificate; dstar then validates them, refuses them, and the
    # product keeps only congruences on record
    factors = [by_name[n] for n in names]
    real = constructions._least_member_labels

    def merged_with_last(product, class_ids, ultra):
        rows = real(product, class_ids, ultra).copy()
        rows[:, -1] = 0
        return rows

    _fresh_products()
    prod = direct_product(factors)
    identities = [np.arange(f.size)[None, :] for f in factors]
    assert naive_first_violation(prod, tuple(merged_with_last(prod, identities, filt)[0].tolist())) is not None
    monkeypatch.setattr(constructions, "_least_member_labels", merged_with_last)
    with pytest.raises(ValidationError, match="not a congruence"):
        UltraproductAlgebra(factors, filt)
    with pytest.raises(ValidationError, match="not a congruence"):
        ultraproduct(factors, filt)
    for cid in recorded(prod):
        assert naive_first_violation(prod, cid) is None


def test_product_congruence_contains_agreement(c3):
    lattice = list(con_lattice(c3))
    for sa in lattice:
        for sb in lattice:
            fam = CongruenceFamily([c3, c3], [sa, sb])
            for i0 in range(2):
                ultra = principal_ultrafilter(2, i0)
                assert dstar([c3, c3], ultra).refines(product_congruence(fam, ultra))


def test_product_congruence_of_fulls_is_full(c3, s2):
    ultra = principal_ultrafilter(2, 0)
    fam = CongruenceFamily.fulls([c3, s2])
    assert product_congruence(fam, ultra).num_classes == 1


def test_product_congruence_monotone(c3):
    lattice = list(con_lattice(c3))
    ultra = principal_ultrafilter(2, 1)
    for sa in lattice:
        for sb in lattice:
            if not sa.refines(sb):
                continue
            fine = product_congruence(CongruenceFamily([c3, c3], [sa, sa]), ultra)
            coarse = product_congruence(CongruenceFamily([c3, c3], [sb, sb]), ultra)
            assert fine.refines(coarse)


def test_ultraproduct_collapses_to_chosen_factor(c3, s2, by_name):
    u = ultraproduct([c3, c3, c3], principal_ultrafilter(3, 2))
    assert u.size == 3
    assert find_isomorphism(u, c3).found
    assert isomorphic_by_bruteforce(u, c3).found
    u2 = ultraproduct([s2, c3], principal_ultrafilter(2, 1))
    assert find_isomorphism(u2, c3).found
    u3 = ultraproduct([by_name["Z4"], s2], principal_ultrafilter(2, 0))
    assert find_isomorphism(u3, by_name["Z4"]).found


def test_ultraproduct_fields(c3, s2):
    ultra = principal_ultrafilter(2, 0)
    u = ultraproduct([s2, c3], ultra)
    assert u.factors == (s2, c3)
    assert u.ultrafilter == ultra
    assert u.product == direct_product([s2, c3])
    assert u.congruence == dstar([s2, c3], ultra)
    # class representatives are least members, ascending
    assert u.class_reps == tuple(sorted(u.class_reps))
    for c, rep in enumerate(u.class_reps):
        assert u.projection[rep] == c
    # repeated construction is cached
    assert ultraproduct([s2, c3], ultra) is u


def test_single_factor_ultraproduct_is_isomorphic_copy(corpus):
    ultra = principal_ultrafilter(1, 0)
    for alg in corpus:
        u = ultraproduct([alg], ultra)
        assert u.size == alg.size
        assert all(u.table(sym) == alg.table(sym) for sym in alg.signature.names)


def test_induced_congruence_round_trip(c4):
    lattice = list(con_lattice(c4))
    for base in lattice:
        quot = quotient(c4, base)
        for theta in lattice:
            if not base.refines(theta):
                with pytest.raises(ValidationError, match="refine"):
                    induced_congruence(theta, base)
                continue
            ind = induced_congruence(theta, base, quotient_algebra=quot)
            # pulling back along the projection recovers theta
            pulled = Partition([ind.class_id[quot.projection[e]] for e in range(4)])
            assert pulled.blocks() == theta.blocks()


def test_induced_congruence_degenerate_cases(c3):
    theta = Partition.full(3)
    base = parse_partition("[[0,1],[2]]", 3)
    from ultracon import Congruence

    full_ind = induced_congruence(Congruence(c3, theta), Congruence(c3, base))
    assert full_ind.num_classes == 1
    same = induced_congruence(Congruence(c3, base), Congruence(c3, base))
    assert same == Partition.identity(2)


def test_induced_congruence_rejects_foreign_quotient(c3, s2):
    from ultracon import Congruence

    base = Congruence(c3, parse_partition("[[0,1],[2]]", 3))
    theta = Congruence(c3, Partition.full(3))
    wrong = quotient(s2, Partition.identity(2))
    with pytest.raises(ValidationError):
        induced_congruence(theta, base, quotient_algebra=wrong)
