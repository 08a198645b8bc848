"""Acceptance gate: one test per advertised guarantee.

Each test prints a single ACCEPTANCE line (visible even without -s) with
its outcome, wall time and the process's CPU time over the same span, then
asserts the guarantee and its budget.  The budgets are on wall time; a CPU
time well below the wall time says the host, not the code, was slow.
"""

import time
from contextlib import contextmanager

from ultracon import (
    ElemMap,
    check_4star,
    con_lattice,
    con_lattice_bruteforce,
    con_lattice_of,
    enumerate_ultrafilters,
    is_filter,
    is_homomorphism,
    is_ultrafilter,
    principal_ultrafilter,
    sweep_principal_collapse,
    sweep_thm1,
    sweep_thm2,
    sweep_thm3,
    ultraproduct,
)
from ultracon.cli import main
from ultracon.corpus import corpus_by_name, standard_corpus
from ultracon.sweeps import iter_instances


@contextmanager
def announce(capsys, label):
    start, cpu = time.perf_counter(), time.process_time()

    def say(outcome):
        with capsys.disabled():
            print(f"ACCEPTANCE {label}: {outcome} ({time.perf_counter() - start:.1f}s wall, "
                  f"{time.process_time() - cpu:.1f}s cpu)")

    try:
        yield
    except BaseException:
        say("FAIL")
        raise
    say("PASS")


def _expected_family_total(corpus):
    total = 0
    for factors, _ in iter_instances(corpus):
        prod = 1
        for f in factors:
            prod *= len(con_lattice_of(f))
        total += prod
    return total


def test_acceptance_1_congruence_lattice_oracle(capsys):
    with announce(capsys, "1 congruence lattices match the brute-force oracle"):
        start = time.perf_counter()
        corpus = standard_corpus()
        names = {a.name for a in corpus}
        assert len(corpus) >= 10
        assert {"S2", "C3", "C4", "Z2", "Z3", "Z4", "LZ3", "U3"} <= names
        for alg in corpus:
            assert alg.size <= 6
            assert list(con_lattice(alg)) == list(con_lattice_bruteforce(alg))
        by = corpus_by_name()
        assert len(con_lattice(by["C3"])) == 4
        assert len(con_lattice(by["S2"])) == 2
        assert len(con_lattice(by["Z3"])) == 2
        assert time.perf_counter() - start < 5.0


def test_acceptance_2_ultrafilter_characterization(capsys):
    with announce(capsys, "2 every finite ultrafilter is principal and (4) <=> (4*)"):
        start = time.perf_counter()
        for n in range(1, 5):
            found = enumerate_ultrafilters(n)
            assert len(found) == n
            assert sorted(d.principal_index() for d in found) == list(range(n))
            for d in found:
                assert d == principal_ultrafilter(n, d.principal_index())
        # (4) <=> (4*) across every family satisfying (1)-(3), up to n = 4
        for n in range(1, 5):
            full = (1 << n) - 1
            filters = ultras = 0
            for fam_bits in range(1 << (1 << n)):
                if fam_bits & 1 or not (fam_bits >> full) & 1:
                    continue  # empty set present, or universe missing
                members = [m for m in range(1, full + 1) if (fam_bits >> m) & 1]
                if not is_filter(n, members):
                    continue
                filters += 1
                prime = check_4star(n, members)
                ultra = is_ultrafilter(n, members)
                assert prime == ultra
                ultras += ultra
            assert filters == (1 << n) - 1  # supersets of each nonempty base set
            assert ultras == n
        assert time.perf_counter() - start < 10.0


def test_acceptance_3_thm1_sweep(capsys):
    with announce(capsys, "3 thm1 sweep (well defined, injective, meet-preserving)"):
        start = time.perf_counter()
        corpus = standard_corpus()
        result = sweep_thm1(corpus)
        assert result.passed
        assert result.failures == []
        assert result.instances == sum(1 for _ in iter_instances(corpus))
        # equal totals prove every instance ran all its families exhaustively
        assert result.families == _expected_family_total(corpus)
        assert time.perf_counter() - start < 60.0


def test_acceptance_4_thm2_sweep(capsys):
    with announce(capsys, "4 thm2 sweep (quotient map, kernel, isomorphism)"):
        start = time.perf_counter()
        corpus = standard_corpus()
        result = sweep_thm2(corpus)
        assert result.passed
        assert result.failures == []
        assert result.instances == sum(1 for _ in iter_instances(corpus))
        assert result.families == _expected_family_total(corpus)
        assert time.perf_counter() - start < 60.0


def test_acceptance_5_thm3_sweep(capsys):
    with announce(capsys, "5 thm3 sweep (restriction = union of meets = join of meets)"):
        start = time.perf_counter()
        corpus = standard_corpus()
        result = sweep_thm3(corpus)
        assert result.passed
        assert result.failures == []
        small = [a for a in corpus if a.size <= 4]
        counts = (2, 3)
        assert result.instances == len(small) * sum(counts)
        assert result.families == sum(
            len(con_lattice_of(a)) ** c * c for a in small for c in counts
        )
        assert time.perf_counter() - start < 60.0


def test_acceptance_6_principal_collapse(capsys):
    with announce(capsys, "6 principal ultraproducts collapse to the chosen factor"):
        corpus = standard_corpus()
        by = corpus_by_name()
        result = sweep_principal_collapse(corpus)
        assert result.passed
        assert result.failures == []
        assert result.instances == sum(1 for _ in iter_instances(corpus))
        for row in result.details:
            assert row["isomorphic"] and row["witness"] is not None
            factors = tuple(by[name] for name in row["factors"])
            i0 = row["principal_index"]
            power = ultraproduct(factors, principal_ultrafilter(len(factors), i0))
            witness = ElemMap(power.size, factors[i0].size, row["witness"])
            assert witness.is_bijective()
            assert is_homomorphism(witness, power, factors[i0])
            assert is_homomorphism(witness.inverse(), factors[i0], power)


def test_acceptance_7_deterministic_reports(capsys, tmp_path):
    from ultracon import save_algebra

    with announce(capsys, "7 verify reports are byte-identical across equal seeds"):
        by = corpus_by_name()
        c3 = tmp_path / "c3.json"
        z6 = tmp_path / "z6.json"
        save_algebra(by["C3"], c3)
        save_algebra(by["Z6"], z6)
        runs = {
            "thm1": ["verify", "thm1", "--factors", str(c3), str(z6),
                     "--ultrafilter", "[[1],[0,1]]", "--seed", "11"],
            "thm2": ["verify", "thm2", "--factors", str(c3), str(c3),
                     "--sigma", "[[0,1],[2]]", "--sigma", "[[0],[1,2]]",
                     "--ultrafilter", "principal:0", "--seed", "11"],
            "thm3": ["verify", "thm3", "--algebra", str(z6),
                     "--sigma", "[[0,2,4],[1,3,5]]", "--sigma", "[[0,3],[1,4],[2,5]]",
                     "--ultrafilter", "principal:1", "--seed", "11"],
        }
        for name, argv in runs.items():
            first = tmp_path / f"{name}_a.json"
            second = tmp_path / f"{name}_b.json"
            assert main(argv + ["--report", str(first)]) == 0
            assert main(argv + ["--report", str(second)]) == 0
            assert first.read_bytes() == second.read_bytes()
