import hashlib
import json
import random
import tracemalloc
from itertools import product as iter_product
from math import prod

import numpy as np
import pytest

from ultracon import (
    Check,
    CongruenceFamily,
    ElemMap,
    Partition,
    ValidationError,
    VerificationReport,
    con_lattice,
    congruence_on_ultraproduct,
    coordinatewise_quotient_map,
    diagonal_restriction,
    direct_product,
    induced_congruence,
    is_homomorphism,
    join_of_meets,
    kernel,
    make_algebra,
    natural_embedding,
    principal_ultrafilter,
    product_congruence,
    quotient,
    sweep_thm1,
    sweep_thm2,
    sweep_thm3,
    ultraproduct,
    union_of_meets,
    verify_thm1,
    verify_thm2,
    verify_thm3,
)
from ultracon import congruence, constructions, theorems
from ultracon.algebra import DEFAULT_SIZE_GUARD, _quotient_cached
from ultracon.congruence import Congruence, con_as_algebra, con_lattice_of, format_partition, parse_partition
from ultracon.sweeps import iter_instances

from oracles import (
    UpSet,
    definitional_product_matrix,
    matrix_to_blocks,
    naive_first_mismatch,
    naive_first_violation,
    naive_is_homomorphism,
    naive_join_matrix,
    recorded,
    relation_matrix,
)


def sigma_a(size=3):
    return parse_partition("[[0,1],[2]]", size)


def sigma_b(size=3):
    return parse_partition("[[0],[1,2]]", size)


def test_report_passes_iff_every_check_passes():
    good = Check("a", True)
    bad = Check("b", False, {"pair": [0, 1]})
    assert VerificationReport("x", {}, (good,)).passed
    assert not VerificationReport("x", {}, (good, bad)).passed
    data = VerificationReport("x", {"k": 1}, (good, bad), {"note": 2}).to_dict()
    assert data["passed"] is False
    assert [c["name"] for c in data["checks"]] == ["a", "b"]
    json.dumps(data)  # must be serializable as-is


def test_congruence_on_ultraproduct_examples(c3):
    ultra = principal_ultrafilter(2, 0)
    fam = CongruenceFamily([c3, c3], [sigma_a(), Partition.identity(3)])
    carried = congruence_on_ultraproduct(fam, ultra)
    # the ultraproduct at index 0 is a copy of the first factor,
    # so the carried congruence is just sigma(0) again
    assert format_partition(carried) == "[[0,1],[2]]"
    identity_fam = CongruenceFamily.identities([c3, c3])
    assert congruence_on_ultraproduct(identity_fam, ultra) == Partition.identity(3)
    full_fam = CongruenceFamily.fulls([c3, c3])
    assert congruence_on_ultraproduct(full_fam, ultra).num_classes == 1


def test_coordinatewise_map_kernel_example(c3):
    ultra = principal_ultrafilter(2, 1)
    fam = CongruenceFamily([c3, c3], [sigma_a(), sigma_b()])
    cmap = coordinatewise_quotient_map(fam, ultra)
    prod = direct_product([c3, c3])
    ker = kernel(cmap)
    # at index 1 only sigma(1) = [[0],[1,2]] matters: classes split 3 / 6
    sizes = sorted(len(b) for b in ker.blocks())
    assert sizes == [3, 6]
    assert ker == product_congruence(fam, ultra)
    for x in range(9):
        for y in range(9):
            want = sigma_b().relates(prod.decode(x)[1], prod.decode(y)[1])
            assert ker.relates(x, y) == want


def test_verify_thm1_frozen_instances(c3, s2, z3):
    r = verify_thm1([c3, c3], principal_ultrafilter(2, 0))
    assert r.passed
    assert [c.name for c in r.checks] == [
        "well-defined-on-classes", "injective-on-classes", "preserves-meets"]
    assert r.instance["mode"] == "exhaustive"
    assert r.instance["family_count"] == 16
    assert r.info["image_size"] == 4
    assert r.info["joins_preserved"] is True

    r = verify_thm1([s2, s2, s2], principal_ultrafilter(3, 1))
    assert r.passed and r.info["image_size"] == 2

    r = verify_thm1([z3, c3], principal_ultrafilter(2, 0))
    assert r.passed and r.info["image_size"] == 2


@pytest.mark.parametrize("i0", [0, 1])
def test_join_information_counts_the_pairs_a_broken_join_gets_wrong(i0, c3, monkeypatch):
    # The join information pairs the least family of each almost-everywhere
    # class.  Under the principal ultrafilter at i0 a class is fixed by
    # coordinate i0, and its least family has the lattice's first element
    # elsewhere.  With every join of images taken as its left argument, a
    # pair (s, t) counts iff the image of s v t differs from the image of s.
    factors, ultra = [c3, c3], principal_ultrafilter(2, i0)
    lattice = list(con_lattice(c3))
    reps = [[x if i == i0 else lattice[0] for i in range(2)] for x in lattice]

    def image(family):
        return congruence_on_ultraproduct(CongruenceFamily(factors, family), ultra)

    def naive_join(p, q):
        return Partition.from_blocks(p.size, matrix_to_blocks(naive_join_matrix(p, q)))

    expected = 0
    for a, s in enumerate(reps):
        for t in reps[a:]:
            joined = image([naive_join(p, q) for p, q in zip(s, t)])
            # a principal ultrafilter preserves joins, so the true count is 0
            assert relation_matrix(joined) == naive_join_matrix(image(s), image(t))
            expected += joined != image(s)
    assert expected > 0
    assert verify_thm1(factors, ultra).info["join_counterexamples"] == 0

    monkeypatch.setattr(theorems, "_join_stack", lambda left, right: left)
    report = verify_thm1(factors, ultra)
    assert report.passed, report.summary_lines()
    assert report.info["joins_preserved"] is False
    assert report.info["join_counterexamples"] == expected


def test_verify_thm1_sampled_mode_is_deterministic(c3):
    ultra = principal_ultrafilter(2, 1)
    r1 = verify_thm1([c3, c3], ultra, seed=11, exhaustive_limit=1, sample_size=6)
    r2 = verify_thm1([c3, c3], ultra, seed=11, exhaustive_limit=1, sample_size=6)
    assert r1.instance["mode"] == "sampled"
    assert r1.passed and r2.passed
    assert r1.to_dict() == r2.to_dict()
    assert json.dumps(r1.to_dict(), sort_keys=True) == json.dumps(r2.to_dict(), sort_keys=True)


@pytest.mark.parametrize("names, exhaustive_limit", [
    (("C3", "C3"), theorems.EXHAUSTIVE_LIMIT),
    (("S2", "C3", "S2"), theorems.EXHAUSTIVE_LIMIT),
    (("C4", "LZ3"), 10),
    (("C4", "C4", "LZ3"), 100),
])
def test_batched_images_match_one_family_at_a_time(names, exhaustive_limit, by_name):
    # the first batch is what verify_thm1 starts from (every family, or a
    # seeded sample); every other family then comes as a batch of one, as
    # sampled mode's meet and join ids do
    factors = tuple(by_name[n] for n in names)
    lattices = [con_lattice_of(f) for f in factors]
    fam_ids, total = theorems._family_ids([len(lat) for lat in lattices], exhaustive_limit, 8,
                                          random.Random(5))
    assert total == prod(len(lat) for lat in lattices)
    assert (len(fam_ids) == total) == (total <= exhaustive_limit)
    for i0 in range(len(factors)):
        ultra = principal_ultrafilter(len(factors), i0)
        ultra_alg = ultraproduct(factors, ultra)
        image_of = theorems._FamilyImages(ultra_alg, lattices)
        image_of.add(fam_ids)
        for fid in range(total):
            family = theorems._family_from_id(fid, factors, lattices)
            assert image_of(fid) == congruence_on_ultraproduct(family, ultra), (i0, fid)


@pytest.mark.parametrize("filt", [UpSet(3, 0b101), UpSet(3, 0b010)]
                         + [principal_ultrafilter(3, i0) for i0 in range(3)],
                         ids=["up02", "up1", "principal0", "principal1", "principal2"])
def test_family_class_reps_and_combine_match_the_family_space_algebra(filt, s2, c3):
    # the family space as an algebra, the direct product of the congruence
    # meet-semilattices, with almost-everywhere equality from the definition
    factors = (s2, c3, s2)
    lattices = [con_lattice_of(f) for f in factors]
    fam_prod = direct_product(tuple(con_as_algebra(lat) for lat in lattices))
    image_of = theorems._FamilyImages(ultraproduct(factors, filt), lattices)
    ids = np.arange(fam_prod.size)
    agree = definitional_product_matrix(fam_prod, [np.eye(len(lat), dtype=bool) for lat in lattices], filt)
    assert image_of.class_reps(ids).tolist() == agree.argmax(axis=1).tolist()
    s, t = np.divmod(np.arange(fam_prod.size ** 2), fam_prod.size)
    meets = image_of.combine([lat.meet_table() for lat in lattices], s, t)
    assert meets.tolist() == fam_prod.table_array("meet").tolist()


def test_verify_thm1_memory_stays_off_the_family_space(by_name):
    # 4800 families over a 576-element product: any table over the family
    # space would hold 4800^2 entries, 184 MB at 8 bytes each
    c4, lz3, z4 = by_name["C4"], by_name["LZ3"], by_name["Z4"]
    factors = (c4, c4, lz3, lz3, z4)
    ultra = principal_ultrafilter(5, 2)
    ultraproduct(factors, ultra)
    for f in factors:
        con_lattice_of(f)
    tracemalloc.start()
    try:
        report = verify_thm1(factors, ultra)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed and report.instance["family_count"] == 4800
    assert peak <= 64 * 2**20


def test_verify_thm1_exhaustive_meets_hold_one_family_table(by_name):
    # 3584 families checked exhaustively: the meet ids are one 3584^2 int64
    # table (98 MiB); the comparison with the meets of the images goes a
    # block of rows at a time, where whole it took two more tables that size
    c4, b22 = by_name["C4"], by_name["B22"]
    factors = (c4, c4, c4, b22)
    ultra = principal_ultrafilter(4, 0)
    ultraproduct(factors, ultra)
    for f in factors:
        con_lattice_of(f)
    tracemalloc.start()
    try:
        report = verify_thm1(factors, ultra)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.instance["family_count"] == 3584 and report.instance["mode"] == "exhaustive"
    assert peak <= 128 * 2**20
    digest = hashlib.sha256(report.to_json().encode()).hexdigest()
    assert digest == "9ffcf4edc209a043fd9ced03109af658ec68f465d8fc0685a2b3e6fec279c1b1"


@pytest.mark.parametrize("batch", [2**20, 2 * 16, 1])
def test_exhaustive_meet_check_names_the_first_wrong_pair(batch, c3, monkeypatch):
    # [C3, C3] has 4 * 4 families, id 4 * c0 + c1; flipping bit 2 of a meet
    # id changes its coordinate on the principal index 0, hence its image.
    # Rows 9 and 12 are corrupted; the witness is row 9's, in any block size.
    real = theorems._product_tables

    def corrupt(symbols, sizes, tables):
        out = dict(real(symbols, sizes, tables))
        meet = out["meet"].copy()
        meet[[9 * 16 + 5, 12 * 16 + 3]] ^= 4
        out["meet"] = meet
        return out

    monkeypatch.setattr(theorems, "_product_tables", corrupt)
    monkeypatch.setattr(theorems, "_BATCH_ENTRIES", batch)
    lattice = list(con_lattice_of(c3))
    report = verify_thm1([c3, c3], principal_ultrafilter(2, 0))
    check = {c.name: c for c in report.checks}["preserves-meets"]
    assert report.instance["mode"] == "exhaustive" and not check.passed
    assert check.witness["family_a"] == [format_partition(lattice[2]), format_partition(lattice[1])]
    assert check.witness["family_b"] == [format_partition(lattice[1]), format_partition(lattice[1])]
    assert check.witness["image_of_meet"] != check.witness["meet_of_images"]


def test_verify_thm1_family_count_is_not_bounded_by_the_size_guard(c4):
    report = verify_thm1((c4,) * 5, principal_ultrafilter(5, 1))
    assert report.passed
    assert report.instance["mode"] == "sampled"
    assert report.instance["family_count"] == 32768 > DEFAULT_SIZE_GUARD


def test_verify_thm1_fails_on_a_corrupted_family_row(c3, monkeypatch):
    # the last family (identity, identity) is labelled as the first one
    # (full, full): its image differs from the rest of its class
    real = theorems._least_member_labels

    def corrupt_last_row(product, class_ids, ultra):
        labels = real(product, class_ids, ultra)
        if len(labels) > 1:
            labels[-1] = labels[0]
        return labels

    monkeypatch.setattr(theorems, "_least_member_labels", corrupt_last_row)
    report = verify_thm1([c3, c3], principal_ultrafilter(2, 0))
    checks = {c.name: c for c in report.checks}
    failed = [checks[name] for name in ("well-defined-on-classes", "injective-on-classes")
              if not checks[name].passed]
    assert not report.passed
    assert failed
    for check in failed:
        assert check.witness["family_a"] != check.witness["family_b"]


def test_two_classes_that_share_an_image_fail_injectivity_alone(c3, monkeypatch):
    # under the principal ultrafilter at 0 a family's class is fixed by its
    # first congruence; every family whose first congruence is lattice[1]
    # gets the real row of the family with lattice[2] there instead, so
    # each class still has one image, but those two classes share it
    lattice = con_lattice_of(c3)
    ultra = principal_ultrafilter(2, 0)
    moved, kept = (np.array(lattice[k].class_id, dtype=np.int64) for k in (1, 2))
    shared = congruence_on_ultraproduct(CongruenceFamily((c3, c3), (lattice[2], lattice[0])), ultra)
    real = theorems._least_member_labels

    def relabelled(product, class_ids, ultra):
        first = class_ids[0].copy()
        first[(first == moved).all(axis=1)] = kept
        return real(product, [first, *class_ids[1:]], ultra)

    monkeypatch.setattr(theorems, "_least_member_labels", relabelled)
    report = verify_thm1([c3, c3], ultra)
    checks = {c.name: c for c in report.checks}
    assert checks["well-defined-on-classes"].passed
    assert not checks["injective-on-classes"].passed and not report.passed
    witness = checks["injective-on-classes"].witness
    assert [witness["family_a"][0], witness["family_b"][0]] == [format_partition(lattice[k]) for k in (1, 2)]
    assert witness["shared_image"] == format_partition(shared)


# rows that are no congruences of C3 x C3: the later family's row sorts
# first, but an error must name the earlier one's, where checking one
# family at a time stops
EARLIER_BAD = [0, 1, 2, 3, 4, 5, 6, 7, 0]  # merges 0 and 8
LATER_BAD = [0, 1, 2, 3, 0, 5, 6, 7, 8]  # merges 0 and 4


def _two_bad_rows(monkeypatch):
    """Give families 5 and 10 of every batch over a 9-element product the
    rows EARLIER_BAD and LATER_BAD."""
    real = theorems._least_member_labels

    def two_bad_rows(product, class_ids, ultra):
        labels = real(product, class_ids, ultra)
        if product.size == 9:
            labels[5], labels[10] = EARLIER_BAD, LATER_BAD
        return labels

    monkeypatch.setattr(theorems, "_least_member_labels", two_bad_rows)


def test_a_non_congruence_row_is_reported_for_the_first_family_that_has_it(c3, monkeypatch):
    prod_alg = direct_product([c3, c3])
    assert LATER_BAD < EARLIER_BAD
    witness = naive_first_violation(prod_alg, EARLIER_BAD)
    assert witness is not None and witness != naive_first_violation(prod_alg, LATER_BAD)
    _two_bad_rows(monkeypatch)
    sym, pos, a, b, flat = witness
    report = verify_thm1([c3, c3], principal_ultrafilter(2, 0))
    assert [c.name for c in report.checks] == ["well-defined-on-classes", "injective-on-classes", "preserves-meets"]
    for check in report.checks:
        assert not check.passed
        assert f"{sym!r} at argument {pos} separates related elements {a}~{b} (argument index {flat})" \
            in check.witness["reason"]
    assert set(report.info) == {"ultraproduct_size", "lattice_sizes", "families_checked", "classes_seen",
                                "image_size", "joins_preserved", "join_counterexamples"}
    assert [report.info[k] for k in ("image_size", "joins_preserved", "join_counterexamples")] == [None] * 3
    assert report.info["families_checked"] == 16 and report.info["classes_seen"] == 4
    json.loads(report.to_json())


def test_a_non_congruence_row_fails_its_instance_and_the_thm1_sweep_goes_on(c3, monkeypatch):
    # the same two rows on every [C3, C3] instance: the sweep still runs
    # every instance of the corpus slice and counts those as failed
    _two_bad_rows(monkeypatch)
    result = sweep_thm1([c3])
    bad = [d for d in result.details if not d["passed"]]
    assert result.instances == len(result.details) == len(list(iter_instances([c3])))
    assert bad and all(len(d["instance"]["factors"]) == 2 and d["image_size"] is None for d in bad)
    assert len(result.failures) == len(bad) and not result.passed
    for failure in result.failures:
        assert all("not a congruence" in c["witness"]["reason"] for c in failure["checks"])


@pytest.mark.parametrize("per_chunk", [1, 5])
@pytest.mark.parametrize("names, filt", [
    (("C3", "C3"), principal_ultrafilter(2, 1)),
    (("S2", "C3", "S2"), principal_ultrafilter(3, 0)),
    (("S2", "C3", "S2"), UpSet(3, 0b101)),
    (("S2", "C3", "S2"), UpSet(3, 0b010)),
], ids=["C3C3-principal1", "S2C3S2-principal0", "S2C3S2-up02", "S2C3S2-up1"])
def test_images_do_not_depend_on_how_families_are_split_into_batches(names, filt, per_chunk, by_name,
                                                                      monkeypatch):
    # chunks of per_chunk families, over two add() calls whose ids overlap,
    # give the numbering, image order and index of one batch of every family
    factors = tuple(by_name[n] for n in names)
    lattices = [con_lattice_of(f) for f in factors]
    ultra_alg = ultraproduct(factors, filt)
    total = prod(len(lat) for lat in lattices)
    whole = theorems._FamilyImages(ultra_alg, lattices)
    whole.add(range(total))
    monkeypatch.setattr(theorems, "_BATCH_ENTRIES", per_chunk * ultra_alg.product.size)
    split = theorems._FamilyImages(ultra_alg, lattices)
    split.add(range(2 * total // 3))
    split.add(range(total // 3, total))
    assert split.number == whole.number
    assert [image.class_id for image in split.images] == [image.class_id for image in whole.images]
    assert split.index == whole.index
    assert len(whole.images) > 1


def test_verify_thm2_on_specific_families(c3, s2, by_name):
    ultra = principal_ultrafilter(2, 1)
    fam = CongruenceFamily([c3, c3], [sigma_a(), sigma_b()])
    report = verify_thm2(fam, ultra)
    assert report.passed
    assert report.info["quotient_ultraproduct_size"] == 2
    names = [c.name for c in report.checks]
    assert "kernel-is-product-congruence" in names
    assert "independent-isomorphism-search" in names

    for factors in ([s2, c3], [by_name["Z4"], by_name["Z2"]]):
        for i0 in range(2):
            u = principal_ultrafilter(2, i0)
            for fam in (CongruenceFamily.identities(factors), CongruenceFamily.fulls(factors)):
                assert verify_thm2(fam, u).passed


def test_verify_thm2_exhaustive_tiny(by_name):
    u3 = by_name["U3"]
    lattice = list(con_lattice(u3))
    for i0 in range(2):
        ultra = principal_ultrafilter(2, i0)
        for sa in lattice:
            for sb in lattice:
                fam = CongruenceFamily([u3, u3], [sa, sb])
                assert verify_thm2(fam, ultra).passed


def test_verify_thm2_fails_on_wrong_generator(c3, monkeypatch):
    # Labelling on the wrong generator corrupts the ultraproducts, and so
    # the kernel, exactly as it corrupts the product congruence: only the
    # definitional half of the kernel check can see it.
    real = constructions._least_member_labels

    def wrong_generator(product, class_ids, ultra):
        shifted = principal_ultrafilter(ultra.n, (ultra.principal_index() + 1) % ultra.n)
        return real(product, class_ids, shifted)

    def clear_caches():
        constructions._ultraproduct_cached.cache_clear()
        _quotient_cached.cache_clear()

    fam = CongruenceFamily([c3, c3], [sigma_a(), sigma_b()])
    clear_caches()
    try:
        with monkeypatch.context() as patch:
            patch.setattr(constructions, "_least_member_labels", wrong_generator)
            report = verify_thm2(fam, principal_ultrafilter(2, 0))
    finally:
        clear_caches()
    checks = {c.name: c for c in report.checks}
    ker_check = checks["kernel-is-product-congruence"]
    assert not report.passed
    assert not ker_check.passed
    assert len(ker_check.witness["pair"]) == 2
    assert ker_check.witness["definition_relates"] != ker_check.witness["product_congruence_relates"]


@pytest.mark.parametrize("names", [("C3", "C3"), ("S2", "C3", "S2"), ("Z4", "Z2")])
def test_kernel_check_names_the_first_mismatched_pair(names, by_name, monkeypatch):
    # a kernel that differs from the product congruence gives FAIL, with the
    # first row-major pair on which the two disagree as the witness
    factors = [by_name[n] for n in names]
    fakes = [
        lambda h: Partition.full(h.source_size),
        lambda h: Partition.identity(h.source_size),
        lambda h: Partition(h.image[1:] + h.image[:1]),
    ]
    prod_alg = direct_product(factors)
    failed = 0
    for choice in iter_product(*(list(con_lattice(f)) for f in factors)):
        fam = CongruenceFamily(factors, choice)
        for i0 in range(len(factors)):
            ultra = principal_ultrafilter(len(factors), i0)
            theta = product_congruence(fam, ultra)
            for fake in fakes:
                ker = fake(coordinatewise_quotient_map(fam, ultra))
                with monkeypatch.context() as patch:
                    patch.setattr(theorems, "kernel", fake)
                    report = verify_thm2(fam, ultra)
                check = {c.name: c for c in report.checks}["kernel-is-product-congruence"]
                mismatch = naive_first_mismatch(ker, theta)
                if mismatch is None:
                    assert check.passed
                    continue
                a, b = mismatch
                failed += 1
                assert not check.passed
                assert check.witness == {
                    "pair": [list(prod_alg.decode(a)), list(prod_alg.decode(b))],
                    "kernel_relates": ker.relates(a, b),
                    "product_congruence_relates": theta.relates(a, b),
                }
    assert failed


def _first_factor_failure(image, ultra_alg, inner):
    """The witness of the element-by-element loop the factor check replaced."""
    induced = [-1] * inner.size
    for p, value in enumerate(image):
        t = inner.projection[ultra_alg.projection[p]]
        if induced[t] < 0:
            induced[t] = value
        elif induced[t] != value:
            return {"quotient_element": t, "values": [induced[t], value]}
    return None


@pytest.mark.parametrize("names", [("C3", "C3"), ("S2", "C3", "S2")])
def test_factor_check_names_the_first_element_off_the_induced_map(names, by_name, monkeypatch):
    # moving entries of the coordinatewise map breaks the factorisation
    # through the transferred congruence unless each moved entry is alone in
    # its fibre; the witness is the first element off the map that the least
    # element of each fibre induces
    factors = [by_name[n] for n in names]
    real = theorems.coordinatewise_quotient_map
    failed = 0
    for choice in iter_product(*(list(con_lattice(f)) for f in factors)):
        fam = CongruenceFamily(factors, choice)
        for i0 in range(len(factors)):
            ultra = principal_ultrafilter(len(factors), i0)
            ultra_alg = ultraproduct(factors, ultra)
            inner = quotient(ultra_alg, congruence_on_ultraproduct(fam, ultra))
            cmap = real(fam, ultra)
            mid, last = cmap.source_size // 2, cmap.source_size - 1
            for moved in ((0,), (mid,), (last,), (mid, last), (0, last)):
                image = list(cmap.image)
                for p in moved:
                    image[p] = (image[p] + 1) % cmap.target_size
                with monkeypatch.context() as patch:
                    patch.setattr(theorems, "coordinatewise_quotient_map",
                                  lambda *args, image=image: ElemMap(len(image), cmap.target_size, image))
                    report = verify_thm2(fam, ultra)
                check = {c.name: c for c in report.checks}["map-factors-through-transferred-congruence"]
                expected = _first_factor_failure(image, ultra_alg, inner)
                assert check.witness == expected
                assert check.passed == (expected is None)
                failed += expected is not None
    assert failed


@pytest.mark.parametrize("names", [("C3", "C3"), ("S2", "C3", "S2")])
def test_verify_thm2_reports_the_public_transferred_congruence(names, by_name):
    factors = [by_name[n] for n in names]
    for i0 in range(len(factors)):
        ultra = principal_ultrafilter(len(factors), i0)
        for choice in iter_product(*(con_lattice_of(f) for f in factors)):
            family = CongruenceFamily(factors, choice)
            got = verify_thm2(family, ultra).info["transferred_congruence"]
            assert got == format_partition(congruence_on_ultraproduct(family, ultra)), (i0, got)


def test_induced_isomorphism_check_is_kept_per_map(c3, monkeypatch):
    # the quotient ultraproduct here is a two-element chain; swapping its
    # elements in the coordinatewise map keeps the map well defined on the
    # fibres but makes the induced map a bijection that is no homomorphism.
    # A pass recorded for the true map must not answer for the swapped one.
    fam = CongruenceFamily([c3, c3], [sigma_a(), sigma_b()])
    ultra = principal_ultrafilter(2, 0)
    assert verify_thm2(fam, ultra).passed
    real = theorems.coordinatewise_quotient_map

    def swapped(*args):
        h = real(*args)
        return ElemMap(h.source_size, h.target_size, [1 - y for y in h.image])

    monkeypatch.setattr(theorems, "coordinatewise_quotient_map", swapped)
    checks = {c.name: c.passed for c in verify_thm2(fam, ultra).checks}
    assert checks["map-factors-through-transferred-congruence"]
    assert not checks["coordinatewise-map-is-homomorphism"]
    assert not checks["induced-map-is-isomorphism"]
    monkeypatch.undo()
    assert verify_thm2(fam, ultra).passed


@pytest.mark.parametrize("names, i0", [(("C3", "C3"), 0), (("S2", "C3", "S2"), 1)])
def test_a_map_that_misses_a_target_element_fails_the_surjectivity_check(names, i0, by_name, monkeypatch):
    factors = [by_name[n] for n in names]
    fam = CongruenceFamily(factors, [Partition.identity(f.size) for f in factors])
    ultra = principal_ultrafilter(len(factors), i0)
    assert verify_thm2(fam, ultra).passed
    real = theorems.coordinatewise_quotient_map

    def missing_last(*args):
        # every element sent to the last target element goes to the first instead
        h = real(*args)
        last = h.target_size - 1
        return ElemMap(h.source_size, h.target_size, [0 if y == last else y for y in h.image])

    monkeypatch.setattr(theorems, "coordinatewise_quotient_map", missing_last)
    report = verify_thm2(fam, ultra)
    checks = {c.name: c for c in report.checks}
    assert not report.passed
    assert not checks["coordinatewise-map-is-surjective"].passed


def test_faulted_kernels_and_maps_leave_only_congruences_recorded(c3, by_name, monkeypatch):
    # verify_thm2 records the kernel of a map that passed its homomorphism
    # check; the record must come from the map itself, so neither a faked
    # kernel() beside a true map nor a map that is no homomorphism may
    # leave a non-congruence recorded on the product
    fakes = [
        lambda h: Partition.full(h.source_size),
        lambda h: Partition.identity(h.source_size),
        lambda h: Partition(h.image[1:] + h.image[:1]),
    ]
    products = {}
    for names in [("C3", "C3"), ("S2", "C3", "S2"), ("Z4", "Z2")]:
        factors = [by_name[n] for n in names]
        for choice in iter_product(*(list(con_lattice(f)) for f in factors)):
            fam = CongruenceFamily(factors, choice)
            for i0 in range(len(factors)):
                ultra = principal_ultrafilter(len(factors), i0)
                for fake in fakes:
                    with monkeypatch.context() as patch:
                        patch.setattr(theorems, "kernel", fake)
                        verify_thm2(fam, ultra)
                prod_alg = direct_product(factors)
                products[id(prod_alg)] = prod_alg
    real = theorems.coordinatewise_quotient_map

    def swapped(*args):
        h = real(*args)
        return ElemMap(h.source_size, h.target_size, [1 - y for y in h.image])

    fam = CongruenceFamily([c3, c3], [sigma_a(), sigma_b()])
    with monkeypatch.context() as patch:
        patch.setattr(theorems, "coordinatewise_quotient_map", swapped)
        assert not verify_thm2(fam, principal_ultrafilter(2, 0)).passed
    prod_alg = direct_product([c3, c3])
    products[id(prod_alg)] = prod_alg
    for prod_alg in products.values():
        assert prod_alg._congruences
        for cid in recorded(prod_alg):
            assert naive_first_violation(prod_alg, cid) is None, (prod_alg.name, cid)


def test_a_map_the_homomorphism_check_rejects_records_no_kernel(c3, monkeypatch):
    # moving the last element's image makes a map whose kernel is no
    # congruence of C3 x C3; verify_thm2 must not record it, so building
    # that kernel as a congruence still fails
    fam = CongruenceFamily([c3, c3], [Partition.identity(3), Partition.identity(3)])
    ultra = principal_ultrafilter(2, 0)
    real = theorems.coordinatewise_quotient_map
    h = real(fam, ultra)
    moved = ElemMap(h.source_size, h.target_size, h.image[:-1] + ((h.image[-1] + 1) % h.target_size,))
    prod_alg = direct_product([c3, c3])
    ker = kernel(moved)
    assert naive_first_violation(prod_alg, ker.class_id) is not None
    monkeypatch.setattr(theorems, "coordinatewise_quotient_map", lambda *args: moved)
    checks = {c.name: c.passed for c in verify_thm2(fam, ultra).checks}
    assert not checks["coordinatewise-map-is-homomorphism"]
    assert ker.class_id not in recorded(prod_alg)
    with pytest.raises(ValidationError):
        Congruence(prod_alg, ker)


def test_a_product_congruence_that_is_no_congruence_fails_its_checks(c3, s2, monkeypatch):
    # theta with the product's last element moved into the class of 0: on
    # C3 x C3 under the identities that is no congruence, so theta is
    # neither the recorded kernel nor valid; the verifier reports that on
    # every check that needs theta, and a sweep runs to its end
    real = theorems.product_congruence

    def merged_with_last(family, ultra):
        labels = list(real(family, ultra).class_id)
        labels[-1] = 0
        return Congruence(direct_product(family.factors), labels)

    fam = CongruenceFamily([c3, c3], [Partition.identity(3), Partition.identity(3)])
    ultra = principal_ultrafilter(2, 0)
    with pytest.raises(ValidationError) as raised:
        merged_with_last(fam, ultra)
    reason = {"reason": str(raised.value)}
    monkeypatch.setattr(theorems, "product_congruence", merged_with_last)
    report = verify_thm2(fam, ultra)
    checks = {c.name: c for c in report.checks}
    assert not report.passed
    assert checks["coordinatewise-map-is-homomorphism"].passed
    assert checks["coordinatewise-map-is-surjective"].passed
    for name in ("kernel-is-product-congruence", "map-factors-through-transferred-congruence",
                 "induced-map-is-isomorphism", "independent-isomorphism-search"):
        assert not checks[name].passed
        assert checks[name].witness == reason
    assert report.info["transferred_congruence"] == reason
    assert json.loads(report.to_json())["checks"][2]["witness"] == reason
    result = sweep_thm2([s2, c3])
    assert not result.passed and result.failures
    for failure in result.failures:
        kernel_check = {c["name"]: c for c in failure["checks"]}["kernel-is-product-congruence"]
        assert not kernel_check["passed"] and "not a congruence" in kernel_check["witness"]["reason"]


def _identity_theta(family, ultra):
    """The identity congruence of the family's product: below D*, not above it."""
    prod = direct_product(family.factors)
    return Congruence(prod, Partition.identity(prod.size))


def _unrefined_reason(factors, ultra) -> dict:
    ultra_alg = ultraproduct(factors, ultra)
    with pytest.raises(ValidationError, match="does not refine") as raised:
        induced_congruence(_identity_theta(CongruenceFamily.identities(factors), ultra), ultra_alg.congruence,
                           quotient_algebra=ultra_alg)
    return {"reason": str(raised.value)}


def test_a_product_congruence_that_dstar_does_not_refine_fails_the_checks_after_the_kernel(c3, monkeypatch):
    # theta the identity of C3 x C3 is a congruence, but it lies below D*
    # under a principal ultrafilter, so it does not carry down to the
    # ultraproduct; the three checks after the kernel check fail with that
    # reason, and a sweep runs to its end
    fam = CongruenceFamily.identities([c3, c3])
    ultra = principal_ultrafilter(2, 0)
    reason = _unrefined_reason([c3, c3], ultra)
    monkeypatch.setattr(theorems, "product_congruence", _identity_theta)
    report = verify_thm2(fam, ultra)
    checks = {c.name: c for c in report.checks}
    assert not report.passed and len(checks) == 6
    assert checks["coordinatewise-map-is-homomorphism"].passed
    assert checks["coordinatewise-map-is-surjective"].passed
    kernel_check = checks["kernel-is-product-congruence"]
    assert not kernel_check.passed and kernel_check.witness["kernel_relates"]
    assert not kernel_check.witness["product_congruence_relates"]
    for name in ("map-factors-through-transferred-congruence", "induced-map-is-isomorphism",
                 "independent-isomorphism-search"):
        assert not checks[name].passed
        assert checks[name].witness == reason
    assert report.info["transferred_congruence"] == reason
    assert json.loads(report.to_json())["checks"][3]["witness"] == reason
    result = sweep_thm2([c3, c3])
    assert not result.passed and result.failures and result.instances
    for failure in result.failures:
        last = {c["name"]: c for c in failure["checks"]}["independent-isomorphism-search"]
        assert not last["passed"] and "does not refine" in last["witness"]["reason"]


def test_a_transferred_congruence_that_raises_fails_the_pullback(c3, monkeypatch):
    # the same theta below D* makes congruence_on_ultraproduct raise inside
    # verify_thm3; only the pullback check needs it, and it fails with the reason
    ultra = principal_ultrafilter(2, 0)
    reason = _unrefined_reason([c3, c3], ultra)
    monkeypatch.setattr(theorems, "product_congruence", _identity_theta)
    report = verify_thm3(c3, [sigma_a(), sigma_b()], ultra)
    checks = {c.name: c for c in report.checks}
    pullback = checks.pop("pullback-along-embedding-equals-restriction")
    assert not report.passed
    assert not pullback.passed and pullback.witness == reason
    assert all(c.passed for c in checks.values())
    result = sweep_thm3([c3])
    assert not result.passed and result.failures and result.instances
    for failure in result.failures:
        pull = {c["name"]: c for c in failure["checks"]}["pullback-along-embedding-equals-restriction"]
        assert not pull["passed"] and "does not refine" in pull["witness"]["reason"]


def test_verify_thm2_reports_a_search_past_its_guard_as_fail():
    chain = make_algebra([("op", 2)], 13, {"op": [min(a, b) for a in range(13) for b in range(13)]}, "C13")
    report = verify_thm2(CongruenceFamily.identities([chain]), principal_ultrafilter(1, 0))
    checks = {c.name: c for c in report.checks}
    search = checks.pop("independent-isomorphism-search")
    assert not report.passed
    assert not search.passed
    assert search.witness == {"reason": "carriers 13, 13 exceed the search guard 12"}
    assert all(c.passed for c in checks.values())


def test_natural_embedding_properties(corpus):
    for alg in corpus:
        if alg.size > 4:
            continue
        for count in (1, 2, 3):
            for i0 in range(count):
                ultra = principal_ultrafilter(count, i0)
                power = ultraproduct((alg,) * count, ultra)
                embed = natural_embedding(alg, ultra)
                assert embed.is_injective()
                assert is_homomorphism(embed, alg, power)
                if count == 1:
                    assert embed.is_bijective()


def test_diagonal_restriction_examples(c3):
    assert diagonal_restriction(c3, [sigma_a(), sigma_b()],
                                principal_ultrafilter(2, 1)) == sigma_b()
    assert diagonal_restriction(c3, [sigma_a(), sigma_b()],
                                principal_ultrafilter(2, 0)) == sigma_a()
    # constant family restricts to the constant congruence
    for i0 in range(3):
        assert diagonal_restriction(c3, [sigma_a()] * 3,
                                    principal_ultrafilter(3, i0)) == sigma_a()
    with pytest.raises(ValidationError):
        diagonal_restriction(c3, [sigma_a()], principal_ultrafilter(2, 0))


def test_union_and_join_of_meets_agree_with_restriction(c3, s2, by_name):
    for alg in (c3, s2, by_name["Z4"], by_name["LZ3"]):
        lattice = list(con_lattice(alg))
        for count in (2, 3):
            for i0 in range(count):
                ultra = principal_ultrafilter(count, i0)
                # a few structured families plus the full sweep for count 2
                families = [[lattice[k % len(lattice)] for k in range(j, j + count)]
                            for j in range(len(lattice))]
                if count == 2:
                    families = [[a, b] for a in lattice for b in lattice]
                for sigmas in families:
                    restr = diagonal_restriction(alg, sigmas, ultra)
                    union = union_of_meets(alg, sigmas, ultra)
                    joined = join_of_meets(alg, sigmas, ultra)
                    assert union == restr
                    assert joined == restr


def test_verify_thm3_exhaustive_small(c3, s2):
    for alg in (c3, s2):
        lattice = list(con_lattice(alg))
        for i0 in range(2):
            ultra = principal_ultrafilter(2, i0)
            for sa in lattice:
                for sb in lattice:
                    report = verify_thm3(alg, [sa, sb], ultra)
                    assert report.passed, report.summary_lines()
    names = [c.name for c in report.checks]
    assert names == [
        "union-of-meets-equals-restriction",
        "union-of-meets-is-equivalence",
        "union-of-meets-is-congruence",
        "join-of-meets-equals-union",
        "natural-embedding-is-injective-homomorphism",
        "pullback-along-embedding-equals-restriction",
    ]


def test_a_join_of_meets_that_is_not_a_congruence_fails_its_check(c3, monkeypatch):
    # the union-find that joins the meets also relates each carrier's last
    # element to 0: on C3 the join of the identity meets becomes
    # [[0,2],[1]], not a congruence of the chain; the verifier must report
    # that, not raise it
    union_stack = theorems._union_stack

    def joined_with_last(labels, a, b):
        out = union_stack(labels, a, b)
        out[:, -1] = 0
        return out

    sigmas, ultra = [Partition.identity(3)] * 2, principal_ultrafilter(2, 0)
    monkeypatch.setattr(theorems, "_union_stack", joined_with_last)
    with pytest.raises(ValidationError, match="not a congruence") as raised:
        join_of_meets(c3, sigmas, ultra)
    report = verify_thm3(c3, sigmas, ultra)
    assert not report.passed
    assert [c.name for c in report.checks if not c.passed] == ["join-of-meets-equals-union"]
    assert report.checks[3].witness == {"reason": str(raised.value)}


def test_a_union_of_meets_that_is_not_a_congruence_fails_its_check(c3, monkeypatch):
    # the union is replaced by [[0,2],[1]]: an equivalence, but no
    # congruence of the chain C3; the reason names the oracle's witness
    skew = Partition.from_blocks(3, [[0, 2], [1]])
    monkeypatch.setattr(theorems, "_union_of_meets_matrix", lambda algebra, sigmas, ultra: skew.to_matrix())
    report = verify_thm3(c3, [sigma_a(), sigma_b()], principal_ultrafilter(2, 0))
    checks = {c.name: c for c in report.checks}
    assert checks["union-of-meets-is-equivalence"].passed
    assert not checks["union-of-meets-is-congruence"].passed and not report.passed
    sym, pos, a, b, flat = naive_first_violation(c3, skew.class_id)
    reason = (f"not a congruence of C3: {sym!r} at argument {pos} separates related elements "
              f"{a}~{b} (argument index {flat})")
    assert checks["union-of-meets-is-congruence"].witness == {"reason": reason}


def test_an_embedding_that_is_not_a_homomorphism_fails_its_check(z3, monkeypatch):
    # the images of 0 and 1 swapped: still injective, but no longer additive
    ultra = principal_ultrafilter(2, 1)
    power = ultraproduct((z3, z3), ultra)
    image = list(natural_embedding(z3, ultra).image)
    image[0], image[1] = image[1], image[0]
    swapped = ElemMap(z3.size, power.size, image)
    assert swapped.is_injective() and not naive_is_homomorphism(swapped, z3, power)
    monkeypatch.setattr(theorems, "natural_embedding", lambda algebra, ultra: swapped)
    report = verify_thm3(z3, [Partition.identity(3)] * 2, ultra)
    checks = {c.name: c for c in report.checks}
    assert not checks["natural-embedding-is-injective-homomorphism"].passed and not report.passed


def test_a_union_of_meets_that_differs_from_the_restriction_fails_its_check(c3, monkeypatch):
    # the union is replaced by the full relation, a congruence of C3, while
    # the restriction at index 0 is sigma_a: the witness is the first pair
    # where the two matrices differ
    sigmas, ultra = [sigma_a(), sigma_b()], principal_ultrafilter(2, 0)
    full = np.ones((3, 3), dtype=bool)
    restr = diagonal_restriction(c3, sigmas, ultra).to_matrix()
    a, b = map(int, np.argwhere(restr != full)[0])
    monkeypatch.setattr(theorems, "_union_of_meets_matrix", lambda algebra, sigmas, ultra: full)
    report = verify_thm3(c3, sigmas, ultra)
    checks = {c.name: c for c in report.checks}
    assert not checks["union-of-meets-equals-restriction"].passed and not report.passed
    assert checks["union-of-meets-equals-restriction"].witness == {
        "pair": [a, b], "in_restriction": False, "in_union_of_meets": True}


def test_a_union_of_meets_that_is_not_transitive_fails_its_check(c3, monkeypatch):
    # 0~1 and 1~2 but not 0~2: reflexive and symmetric, not transitive
    chain = np.array([[1, 1, 0], [1, 1, 1], [0, 1, 1]], dtype=bool)
    with pytest.raises(ValidationError, match="not transitive") as raised:
        Partition.from_matrix(chain)
    monkeypatch.setattr(theorems, "_union_of_meets_matrix", lambda algebra, sigmas, ultra: chain)
    report = verify_thm3(c3, [sigma_a(), sigma_b()], principal_ultrafilter(2, 0))
    checks = {c.name: c for c in report.checks}
    assert not checks["union-of-meets-is-equivalence"].passed and not report.passed
    assert checks["union-of-meets-is-equivalence"].witness == {"reason": str(raised.value)}
    assert checks["union-of-meets-is-congruence"].witness == {"reason": "union is not even an equivalence"}


def test_a_restriction_that_is_not_transitive_is_reported_not_raised(c3, monkeypatch):
    # the restriction relates 0~1 and 1~2 but not 0~2: no equivalence, so
    # the report fails on the first pair where it differs from the union,
    # and its info gives the reason where the partition would be
    chain = np.array([[1, 1, 0], [1, 1, 1], [0, 1, 1]], dtype=bool)
    with pytest.raises(ValidationError, match="not transitive") as raised:
        Partition.from_matrix(chain)
    sigmas, ultra = [sigma_a(), sigma_b()], principal_ultrafilter(2, 0)
    union = union_of_meets(c3, sigmas, ultra).to_matrix()
    a, b = map(int, np.argwhere(chain != union)[0])
    monkeypatch.setattr(theorems, "_diagonal_restriction_matrix", lambda algebra, sigmas, ultra: chain)
    report = verify_thm3(c3, sigmas, ultra)
    checks = {c.name: c for c in report.checks}
    assert not checks["union-of-meets-equals-restriction"].passed and not report.passed
    assert checks["union-of-meets-equals-restriction"].witness == {
        "pair": [a, b], "in_restriction": True, "in_union_of_meets": False}
    assert report.info["restriction"] == {"reason": str(raised.value)}
    assert json.loads(report.to_json())["info"]["restriction"] == {"reason": str(raised.value)}


def test_a_pullback_that_differs_from_the_restriction_fails_its_check(c3, monkeypatch):
    # the transferred congruence is replaced by the ultrapower's identity,
    # which pulls back to the identity of C3, not to sigma_b
    sigmas, ultra = [sigma_a(), sigma_b()], principal_ultrafilter(2, 1)
    restr = diagonal_restriction(c3, sigmas, ultra).to_matrix()
    a, b = map(int, np.argwhere(restr != np.eye(3, dtype=bool))[0])

    def identity(family, ultra):
        power = ultraproduct(family.factors, ultra)
        return Congruence(power, Partition.identity(power.size))

    monkeypatch.setattr(theorems, "congruence_on_ultraproduct", identity)
    report = verify_thm3(c3, sigmas, ultra)
    checks = {c.name: c for c in report.checks}
    assert not checks["pullback-along-embedding-equals-restriction"].passed and not report.passed
    assert checks["pullback-along-embedding-equals-restriction"].witness == {
        "pair": [a, b], "pullback_relates": False, "restriction_relates": True}


def test_verify_thm3_rejects_wrong_family_size(c3):
    with pytest.raises(ValidationError):
        verify_thm3(c3, [sigma_a()], principal_ultrafilter(2, 0))


def family_over(algebra, sigmas, ultra):
    return CongruenceFamily((algebra,) * ultra.n, sigmas)


def quotient_by_last(algebra, sigmas, ultra):
    return quotient(algebra, sigmas[-1])


SIGMA_TAKERS = [diagonal_restriction, union_of_meets, join_of_meets, verify_thm3, family_over]


@pytest.mark.parametrize("take", SIGMA_TAKERS, ids=lambda f: f.__name__)
def test_wrong_family_length_is_rejected(take, c3):
    with pytest.raises(ValidationError, match="congruences for"):
        take(c3, [sigma_a()], principal_ultrafilter(2, 0))


@pytest.mark.parametrize("take", SIGMA_TAKERS + [quotient_by_last], ids=lambda f: f.__name__)
def test_non_congruence_is_rejected(take, c3):
    bad = parse_partition("[[0,2],[1]]", 3)
    with pytest.raises(ValidationError, match="not a congruence"):
        take(c3, [sigma_a(), bad], principal_ultrafilter(2, 0))


def test_reports_are_json_stable(c3):
    ultra = principal_ultrafilter(2, 0)
    report = verify_thm3(c3, [sigma_a(), sigma_b()], ultra)
    text1 = report.to_json()
    text2 = verify_thm3(c3, [sigma_a(), sigma_b()], ultra).to_json()
    assert text1 == text2
    parsed = json.loads(text1)
    assert parsed["passed"] is True
    assert parsed["instance"]["sigma"] == ["[[0,1],[2]]", "[[0],[1,2]]"]
