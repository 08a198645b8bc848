"""Mutation matrix: show that the tests catch named faults in the sources.

Run from the repository root:

    python3 tools/mutants.py                 # every mutant
    python3 tools/mutants.py NAME [NAME ...] # only the named mutants

Each mutant replaces one piece of text, which must occur exactly once, in
one source file.  The script copies src/, tests/ and pyproject.toml into a
temporary directory, runs the named tests there once unmutated (they must
pass), then once per mutant with its edit applied, and prints one line per
mutant: "killed" when its tests fail, "survived" when they pass, "error"
when pytest could not run them.  The exit code is 0 only when every
selected mutant was killed.  Needs nothing beyond pytest and the
package's own dependencies.
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Mutant:
    name: str
    breaks: str   # what the edit does, in one line
    path: str     # file under the repository root
    old: str
    new: str
    tests: tuple  # pytest node ids that must fail under the edit


MUTANTS = (
    Mutant("dstar-trusts-unconditionally",
           "dstar records its labels without holding them against the core projection",
           "src/ultracon/constructions.py",
           "    if np.array_equal(labels, least):\n",
           "    if True:\n",
           ("tests/test_constructions.py::test_a_faulted_dstar_labelling_is_validated_and_never_recorded",)),
    Mutant("dstar-certificate-first-core-coordinate",
           "dstar's certificate compares the labels with the first core coordinate's kernel only",
           "src/ultracon/constructions.py",
           "    core = _core(ultra)\n    sizes, strides",
           "    core = _core(ultra)[:1]\n    sizes, strides",
           ("tests/test_constructions.py::test_dstar_trusts_its_labels_without_a_validation_pass",)),
    Mutant("member-text-memo-ignores-indentation",
           "json_text reuses an ultrafilter's member text kept for another indentation",
           "src/ultracon/theorems.py",
           "        text = value.texts.get(newline)\n",
           "        text = value.texts.get(newline) or next(iter(value.texts.values()), None)\n",
           ("tests/test_report_json.py::test_a_sweep_nests_the_member_text_one_level_deeper_like_the_stdlib",)),
    Mutant("thm2-records-kernel-through-kernel",
           "verify_thm2 records kernel(cmap) instead of the kernel of the map's own image",
           "src/ultracon/theorems.py",
           "Congruence._trusted(prod, _least_members(cmap.array, cmap.target_size).tobytes())",
           "Congruence._trusted(prod, kernel(cmap).key)",
           ("tests/test_theorems.py::test_faulted_kernels_and_maps_leave_only_congruences_recorded",)),
    Mutant("thm2-records-kernel-without-hom-check",
           "verify_thm2 records the map's kernel before is_homomorphism has passed",
           "src/ultracon/theorems.py",
           "    if hom_ok:\n        # a homomorphism's kernel",
           "    if True:\n        # a homomorphism's kernel",
           ("tests/test_theorems.py::test_a_map_the_homomorphism_check_rejects_records_no_kernel",
            "tests/test_theorems.py::test_a_product_congruence_that_is_no_congruence_fails_its_checks")),
    Mutant("memo-hit-by-length",
           "Congruence skips validation when any recorded key has the partition's length",
           "src/ultracon/congruence.py",
           "        if self.key not in algebra._congruences:\n",
           "        if not any(len(k) == len(self.key) for k in algebra._congruences):\n",
           ("tests/test_congruence.py::test_recorded_congruences_never_pass_a_non_congruence",)),
    Mutant("lattice-order-by-key-bytes",
           "ConLattice orders its congruences by their raw key bytes",
           "src/ultracon/congruence.py",
           "        order = np.lexsort((*rows.T[::-1], classes)).tolist()\n",
           "        order = sorted(range(len(congruences)), key=lambda i: congruences[i].key)\n",
           ("tests/test_congruence.py::test_con_lattice_canonical_order_and_bounds",
            "tests/test_congruence.py::test_frozen_congruence_lattices")),
    Mutant("con-as-algebra-joins",
           "con_as_algebra's operation is the congruence join, not the meet",
           "src/ultracon/congruence.py",
           '{"meet": lattice.meet_table().ravel()}',
           '{"meet": lattice.join_table().ravel()}',
           ("tests/test_congruence.py::test_con_as_algebra_shapes",)),
    Mutant("quotient-projection-entry",
           "a quotient's projection sends its last element to the wrong class",
           "src/ultracon/algebra.py",
           "        self.projection = ElemMap(parent.size, len(reps), proj)\n",
           "        proj[-1] = (proj[-1] + 1) % len(reps)\n        self.projection = ElemMap(parent.size, len(reps), proj)\n",
           ("tests/test_algebra.py::test_quotient_projection_is_homomorphism",)),
    Mutant("member-lookup-drops-a-member",
           "the membership table behind the definitional checks leaves out the whole index set",
           "src/ultracon/theorems.py",
           "    lookup[list(ultra.members)] = True\n",
           "    lookup[list(ultra.members)[:-1]] = True\n",
           ("tests/test_theorems.py::test_diagonal_restriction_examples",)),
    Mutant("union-of-meets-over-all-subsets",
           "theorem 3's union of meets runs over every nonempty index subset, not the members",
           "src/ultracon/theorems.py",
           "    for member in ultra.members:\n        meet = np.ones",
           "    for member in range(1, 1 << ultra.n):\n        meet = np.ones",
           ("tests/test_theorems.py::test_union_and_join_of_meets_agree_with_restriction",)),
)


def _copy_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def _run_tests(copy: Path, tests) -> int:
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    return subprocess.run(cmd, cwd=copy, env=env, capture_output=True, text=True).returncode


def _apply(copy: Path, mutant: Mutant) -> str:
    """The original text of the mutated file, after writing the edit into the copy."""
    target = copy / mutant.path
    text = target.read_text()
    count = text.count(mutant.old)
    if count != 1:
        raise SystemExit(f"{mutant.name}: its old text occurs {count} times in {mutant.path}, expected once")
    target.write_text(text.replace(mutant.old, mutant.new))
    return text


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    args = parser.parse_args(argv)
    by_name = {m.name: m for m in MUTANTS}
    unknown = [n for n in args.names if n not in by_name]
    if unknown:
        parser.error(f"unknown mutants {unknown}; choose from {sorted(by_name)}")
    chosen = [by_name[n] for n in args.names] or list(MUTANTS)

    with tempfile.TemporaryDirectory(prefix="ultracon-mutants-") as tmp:
        copy = Path(tmp)
        _copy_tree(copy)
        tests = sorted({t for m in chosen for t in m.tests})
        if _run_tests(copy, tests) != 0:
            print("error: the mutants' tests fail on the unmutated sources", file=sys.stderr)
            return 2
        survivors = 0
        for m in chosen:
            start = time.perf_counter()
            original = _apply(copy, m)
            try:
                code = _run_tests(copy, m.tests)
            finally:
                (copy / m.path).write_text(original)
            outcome = {0: "survived", 1: "killed"}.get(code, f"error (pytest exit {code})")
            survivors += outcome != "killed"
            print(f"{outcome:9s} {m.name}  ({time.perf_counter() - start:.1f} s; {m.breaks})", flush=True)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
