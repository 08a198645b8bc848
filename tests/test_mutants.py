"""Smoke test of the mutation matrix in tools/mutants.py: two mutants, both killed."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_two_mutants_are_killed():
    # about 7 s on a 2-vCPU host: one unmutated run and one run per mutant
    names = ["dstar-trusts-unconditionally", "member-text-memo-ignores-indentation"]
    run = subprocess.run([sys.executable, str(ROOT / "tools" / "mutants.py"), *names],
                         cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stdout + run.stderr
    outcomes = {line.split()[1]: line.split()[0] for line in run.stdout.splitlines()}
    assert outcomes == {name: "killed" for name in names}


def test_every_listed_mutant_applies_to_the_sources_once():
    sys.path.insert(0, str(ROOT / "tools"))
    try:
        import mutants
    finally:
        sys.path.remove(str(ROOT / "tools"))
    assert len({m.name for m in mutants.MUTANTS}) == len(mutants.MUTANTS)
    for m in mutants.MUTANTS:
        assert (ROOT / m.path).read_text().count(m.old) == 1, m.name
        assert m.tests and all((ROOT / t.split("::")[0]).is_file() for t in m.tests), m.name
