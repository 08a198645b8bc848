import json
import random
import tracemalloc

import numpy as np
import pytest

from ultracon import (
    Algebra,
    ElemMap,
    Signature,
    SizeGuardError,
    ValidationError,
    algebra_from_dict,
    algebra_to_dict,
    con_lattice,
    direct_product,
    is_homomorphism,
    kernel,
    load_algebra,
    make_algebra,
    quotient,
    save_algebra,
)
from ultracon.congruence import Partition, parse_partition


@pytest.mark.parametrize("entry", [("op",), ("op", 2, 3), 3, None])
def test_signature_entry_that_is_not_a_pair_is_a_validation_error(entry):
    with pytest.raises(ValidationError, match="signature entry") as info:
        Signature([("meet", 2), entry])
    assert repr(entry) in str(info.value)


def test_make_algebra_validates_tables():
    make_algebra([("op", 2)], 2, {"op": [0, 0, 0, 1]})
    with pytest.raises(ValidationError):
        make_algebra([("op", 2)], 2, {"op": [0, 0, 0]})  # wrong length
    with pytest.raises(ValidationError):
        make_algebra([("op", 2)], 2, {"op": [0, 0, 0, 2]})  # entry outside carrier
    with pytest.raises(ValidationError):
        make_algebra([("op", 2)], 2, {"other": [0, 0, 0, 1]})  # wrong symbol
    with pytest.raises(ValidationError):
        make_algebra([("op", 2), ("op", 1)], 2, {"op": [0, 0, 0, 1]})  # duplicate name
    with pytest.raises(ValidationError):
        make_algebra([("op", 2)], 0, {"op": []})  # empty carrier


def test_apply_uses_first_argument_most_significant(c3):
    # table index of (a, b) is a*3 + b
    assert c3.apply("op", (1, 2)) == 1
    assert c3.apply("op", (2, 1)) == 1
    assert c3.apply("op", (2, 2)) == 2
    for a in range(3):
        for b in range(3):
            assert c3.apply("op", (a, b)) == min(a, b)


def test_apply_rejects_bad_calls(c3):
    with pytest.raises(ValidationError):
        c3.apply("op", (0,))
    with pytest.raises(ValidationError):
        c3.apply("op", (0, 3))
    with pytest.raises(ValidationError):
        c3.apply("nope", (0, 0))


def test_constants_are_supported():
    a = make_algebra([("e", 0), ("f", 1)], 3, {"e": [1], "f": [1, 2, 0]})
    assert a.apply("e", ()) == 1
    assert a.apply("f", (2,)) == 0


def test_elem_map_basics():
    h = ElemMap(3, 2, [0, 0, 1])
    assert h(0) == 0 and h[2] == 1
    assert not h.is_injective() and h.is_surjective() and not h.is_bijective()
    with pytest.raises(ValidationError):
        h.inverse()
    g = ElemMap(2, 2, [1, 0])
    assert g.inverse() == g
    assert h.then(g).image == (1, 1, 0)
    with pytest.raises(ValidationError):
        ElemMap(2, 2, [0, 2])
    with pytest.raises(ValidationError):
        g.then(h)  # size mismatch


def test_is_homomorphism_examples(c3, s2):
    clamp = ElemMap(3, 2, [0, 0, 1])  # monotone onto the 2-chain
    assert is_homomorphism(clamp, c3, s2)
    assert is_homomorphism(ElemMap(3, 3, [0, 1, 2]), c3, c3)
    swap = ElemMap(3, 3, [2, 1, 0])  # reverses the chain, breaks min
    assert not is_homomorphism(swap, c3, c3)
    flip = ElemMap(2, 2, [1, 0])
    assert not is_homomorphism(flip, s2, s2)
    # embedding the 2-chain at the bottom of the 3-chain preserves min
    assert is_homomorphism(ElemMap(2, 3, [0, 1]), s2, c3)
    with pytest.raises(ValidationError):
        is_homomorphism(ElemMap(2, 3, [0, 1, 0]), s2, c3)  # image length wrong
    unary = make_algebra([("f", 1)], 2, {"f": [0, 1]})
    with pytest.raises(ValidationError):
        is_homomorphism(ElemMap(2, 2, [0, 1]), s2, unary)  # signature mismatch


def test_kernel_groups_by_image():
    assert kernel(ElemMap(3, 2, [0, 0, 1])).blocks() == ((0, 1), (2,))
    assert kernel(ElemMap(3, 3, [0, 1, 2])).blocks() == ((0,), (1,), (2,))
    assert kernel(ElemMap(3, 1, [0, 0, 0])).num_classes == 1


def test_elem_map_keeps_a_read_only_copy_of_its_image_array():
    given = np.array([0, 2, 1], dtype=np.int32)
    h = ElemMap(3, 3, given)
    given[0] = 2  # the caller's array is not the map's
    for array in (h.array, ElemMap(3, 3, [0, 2, 1]).array):
        assert array.dtype == np.int64 and array.tolist() == [0, 2, 1]
        assert not array.flags.writeable
    assert h.image == (0, 2, 1)


def test_direct_product_mixed_radix(s2, c3):
    p = direct_product([s2, c3])
    assert p.size == 6
    assert p.strides == (3, 1)
    assert p.decode(5) == (1, 2)
    assert p.encode((1, 2)) == 5
    for e in range(6):
        assert p.encode(p.decode(e)) == e
    with pytest.raises(ValidationError):
        p.decode(6)
    with pytest.raises(ValidationError):
        p.encode((2, 0))


@pytest.mark.parametrize("value", [True, 2.5, -1, 6])
def test_decode_rejects_what_is_not_a_product_element(value, s2, c3):
    with pytest.raises(ValidationError, match=f"element {value!r} is outside"):
        direct_product([s2, c3]).decode(value)


@pytest.mark.parametrize("value", [True, 0.5, -1, 2])
def test_encode_rejects_what_is_not_a_coordinate(value, s2, c3):
    with pytest.raises(ValidationError, match=f"coordinate {value!r} is outside"):
        direct_product([s2, c3]).encode((value, 0))


def test_direct_product_acts_coordinatewise(corpus):
    random_pairs = random.Random(7)
    small = [a for a in corpus if a.signature.names == ("op",)][:6]
    for a in small:
        for b in small:
            p = direct_product([a, b])
            # exhaustive when small, seeded sample otherwise
            if p.size <= 30:
                pairs = [(x, y) for x in range(p.size) for y in range(p.size)]
            else:
                pairs = [(random_pairs.randrange(p.size), random_pairs.randrange(p.size))
                         for _ in range(200)]
            for x, y in pairs:
                xc, yc = p.decode(x), p.decode(y)
                want = (a.apply("op", (xc[0], yc[0])), b.apply("op", (xc[1], yc[1])))
                assert p.decode(p.apply("op", (x, y))) == want


def test_direct_product_rejects_mixed_signatures(s2, by_name):
    with pytest.raises(ValidationError):
        direct_product([s2, by_name["U3"]])
    with pytest.raises(ValidationError):
        direct_product([])


def test_direct_product_size_guard(c4):
    with pytest.raises(SizeGuardError):
        direct_product([c4, c4, c4], max_size=60)
    assert direct_product([c4, c4, c4], max_size=64).size == 64


def test_quotient_of_chain_is_smaller_chain(c3, s2):
    q = quotient(c3, parse_partition("[[0,1],[2]]", 3))
    assert q.size == 2
    assert q.table("op") == s2.table("op")
    assert q.class_reps == (0, 2)
    assert q.projection.image == (0, 0, 1)


def test_quotient_projection_is_homomorphism(c4, by_name):
    from ultracon import con_lattice

    for alg in (c4, by_name["B22"], by_name["Z6"]):
        for theta in con_lattice(alg):
            q = quotient(alg, theta)
            assert is_homomorphism(q.projection, alg, q)
            assert q.projection.is_surjective()
            assert kernel(q.projection).class_id == theta.class_id


def test_quotient_by_identity_and_full(c3):
    assert quotient(c3, Partition.identity(3)).table("op") == c3.table("op")
    assert quotient(c3, Partition.full(3)).size == 1


def test_quotient_rejects_non_congruence(c3):
    with pytest.raises(ValidationError):
        quotient(c3, parse_partition("[[0,2],[1]]", 3))


def test_quotient_classes_numbered_by_least_member(by_name):
    from ultracon import con_lattice

    z6 = by_name["Z6"]
    for theta in con_lattice(z6):
        q = quotient(z6, theta)
        assert q.class_reps == tuple(sorted(q.class_reps))
        for c, rep in enumerate(q.class_reps):
            assert q.projection[rep] == c


def test_json_round_trip(tmp_path, corpus):
    for alg in corpus:
        path = tmp_path / f"{alg.name}.json"
        save_algebra(alg, path)
        back = load_algebra(path)
        assert back == alg
        assert back.name == alg.name


def test_json_layout_is_the_documented_one(tmp_path):
    # hand-built file: op(a, b) indexes at a*size + b
    data = {
        "name": "tiny",
        "size": 2,
        "signature": [{"name": "op", "arity": 2}],
        "tables": {"op": [0, 1, 1, 0]},
    }
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(data))
    alg = load_algebra(path)
    assert alg.apply("op", (0, 1)) == 1
    assert alg.apply("op", (1, 1)) == 0
    round_tripped = algebra_to_dict(alg)
    assert round_tripped["tables"]["op"] == [0, 1, 1, 0]


def test_load_algebra_error_messages(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    with pytest.raises(ValidationError):
        load_algebra(bad)
    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps({"size": 2, "tables": {}}))
    with pytest.raises(ValidationError, match="signature"):
        load_algebra(missing)
    with pytest.raises(ValidationError):
        algebra_from_dict({"size": 2, "signature": [{"name": "op", "arity": 2}],
                           "tables": {"op": [0, 0, 0, 9]}})


def test_algebra_equality_ignores_name(c3):
    assert c3 == c3.rename("other")
    assert hash(c3) == hash(c3.rename("other"))
    assert Algebra == type(c3.rename("other"))


C3_MIN = [min(a, b) for a in range(3) for b in range(3)]


@pytest.mark.parametrize("bad", [True, 1.0, "1", None])
def test_list_table_rejects_non_int_entries(bad):
    table = list(C3_MIN)
    table[4] = bad
    with pytest.raises(ValidationError, match=r"'op'\[4\]"):
        make_algebra([("op", 2)], 3, {"op": table})


def test_int_subclass_entries_are_accepted():
    class Small(int):
        pass

    alg = make_algebra([("op", 2)], 3, {"op": [Small(v) for v in C3_MIN]})
    assert alg.table("op") == tuple(C3_MIN)
    assert ElemMap(2, 3, [Small(0), Small(2)]).image == (0, 2)
    with pytest.raises(ValidationError, match=r"image\[1\]"):
        ElemMap(2, 3, [Small(0), Small(3)])


@pytest.mark.parametrize("dtype", [float, bool, object])
def test_array_table_rejects_non_integer_dtypes(dtype):
    table = np.array(C3_MIN, dtype=dtype)
    table[4] = 0.5 if dtype is not bool else True
    with pytest.raises(ValidationError, match="'op'"):
        make_algebra([("op", 2)], 3, {"op": table})


def test_object_array_of_ints_is_rejected():
    with pytest.raises(ValidationError, match="dtype"):
        make_algebra([("op", 2)], 3, {"op": np.array(C3_MIN, dtype=object)})


@pytest.mark.parametrize("dtype, bad", [(np.int64, -1), (np.int64, 3), (np.int64, 2**40),
                                        (np.int32, 1000), (np.uint8, 3), (np.uint64, 2**63)])
def test_int_array_table_names_first_entry_outside_carrier(dtype, bad):
    table = np.array(C3_MIN, dtype=dtype)
    table[5] = table[7] = bad
    with pytest.raises(ValidationError, match=r"'op'\[5\] = .*outside the carrier 0\.\.2"):
        make_algebra([("op", 2)], 3, {"op": table})


def test_array_table_must_be_flat_and_of_the_right_length():
    with pytest.raises(ValidationError):
        make_algebra([("op", 2)], 3, {"op": np.array(C3_MIN).reshape(3, 3)})
    with pytest.raises(ValidationError, match="8 entries"):
        make_algebra([("op", 2)], 3, {"op": np.array(C3_MIN[:8])})


@pytest.mark.parametrize("bad", [True, 1.0, "1", None, -1, 2])
def test_elem_map_names_first_bad_entry(bad):
    with pytest.raises(ValidationError, match=r"image\[1\]"):
        ElemMap(3, 2, [0, bad, bad])


@pytest.mark.parametrize("dtype", [float, bool, object])
def test_elem_map_rejects_arrays_of_non_python_ints(dtype):
    image = np.array([0, 0, 1], dtype=dtype)
    if dtype is object:
        image[0] = None
    with pytest.raises(ValidationError, match=f"image has dtype {image.dtype}"):
        ElemMap(3, 2, image)


@pytest.mark.parametrize("dtype", [np.int64, np.int32])
def test_elem_map_takes_integer_arrays(dtype):
    from_array = ElemMap(3, 3, np.array([0, 1, 2], dtype=dtype))
    assert from_array == ElemMap(3, 3, [0, 1, 2])
    assert all(type(y) is int for y in from_array.image)
    with pytest.raises(ValidationError, match=r"image\[1\] = 3 is outside the target carrier 0\.\.2"):
        ElemMap(3, 3, np.array([0, 3, 1], dtype=dtype))


def test_tuple_and_array_tables_give_one_algebra(s2):
    from_tuple = make_algebra([("op", 2)], 3, {"op": tuple(C3_MIN)})
    from_array = make_algebra([("op", 2)], 3, {"op": np.array(C3_MIN, dtype=np.int32)})
    assert from_tuple == from_array
    assert hash(from_tuple) == hash(from_array)
    assert direct_product([from_tuple, s2]) is direct_product([from_array, s2])
    assert from_array.table("op") == tuple(C3_MIN)
    assert all(type(v) is int for v in from_array.table("op"))
    assert from_array.apply("op", (2, 1)) == 1


def test_table_array_is_read_only(c3):
    arr = c3.table_array("op")
    assert arr.dtype == np.int64
    with pytest.raises(ValueError):
        arr[0] = 1
    prod = direct_product([c3, c3])
    with pytest.raises(ValueError):
        prod.table_array("op")[0] = 1


def test_caller_writes_do_not_reach_the_algebra():
    mine = np.array(C3_MIN, dtype=np.int64)
    alg = make_algebra([("op", 2)], 3, {"op": mine})
    mine[:] = 0
    assert alg.table("op") == tuple(C3_MIN)
    assert alg.table_array("op").tolist() == C3_MIN


def test_product_tables_stay_within_bytes_per_entry(z3):
    from ultracon.algebra import _direct_product_cached

    direct_product((z3,) * 2)  # warm up imports and numpy before tracing
    _direct_product_cached.cache_clear()
    tracemalloc.start()
    try:
        prod = direct_product((z3,) * 6)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        _direct_product_cached.cache_clear()
    entries = sum(len(t) for t in prod.tables.values())
    assert entries == 729**2
    assert retained / entries <= 12
    assert peak / entries <= 24


def test_is_homomorphism_stays_within_bytes_per_entry(z3):
    prod = direct_product((z3,) * 6)
    first = ElemMap(prod.size, z3.size, [prod.decode(x)[0] for x in range(prod.size)])
    is_homomorphism(ElemMap.identity(z3.size), z3, z3)  # warm up numpy before tracing
    tracemalloc.start()
    try:
        assert is_homomorphism(first, prod, z3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    entries = len(prod.table_array("op"))
    assert entries == 729**2
    assert peak / entries <= 20


def test_product_tables_are_kept_without_a_copy(z3):
    # the product keeps the arrays it builds: the last pass over the
    # factors holds the new table and the one before, about 9.1 bytes per
    # entry here, where a copy on construction took it to 16
    from ultracon.algebra import _direct_product_cached

    direct_product((z3,) * 2)  # warm up imports and numpy before tracing
    _direct_product_cached.cache_clear()
    tracemalloc.start()
    try:
        prod = direct_product((z3,) * 6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        _direct_product_cached.cache_clear()
    entries = len(prod.table_array("op"))
    assert entries == 729**2
    assert not prod.table_array("op").flags.writeable
    assert peak / entries <= 10


def test_is_homomorphism_goes_a_block_at_a_time(z3):
    # a block of first arguments at a time, at most _STACK_ENTRIES entries
    # per array, where gathering whole tables peaked at 8.6 MiB; onto the
    # product itself a block is shorter than the target's side, and taking
    # the later axes first there would gather 729 x 729 entries (4.55 MiB)
    prod = direct_product((z3,) * 6)
    first = ElemMap(prod.size, z3.size, [prod.decode(x)[0] for x in range(prod.size)])
    is_homomorphism(ElemMap.identity(z3.size), z3, z3)  # warm up numpy before tracing
    for h, target in ((first, z3), (ElemMap.identity(prod.size), prod)):
        tracemalloc.start()
        try:
            assert is_homomorphism(h, prod, target)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20, target


def test_json_round_trip_of_built_algebras(tmp_path, s2, c3):
    prod = direct_product([s2, c3])
    built = [prod] + [quotient(prod, theta) for theta in list(con_lattice(prod))[1:3]]
    for i, alg in enumerate(built):
        data = algebra_to_dict(alg)
        assert all(type(v) is int for table in data["tables"].values() for v in table)
        path = tmp_path / f"built{i}.json"
        save_algebra(alg, path)
        assert load_algebra(path) == alg
