"""Golden digests of the bytes `--report` writes.

Each test hashes json.dumps(report.to_dict(), indent=2, sort_keys=True)
plus a newline, which is what `ultracon sweep|verify --report` writes, and
compares it with a fixed sha256.  A refactor that keeps these digests keeps
every report byte-identical.
"""

import hashlib
import json

import pytest

from ultracon import (
    principal_ultrafilter,
    save_algebra,
    sweep_principal_collapse,
    sweep_thm1,
    sweep_thm2,
    sweep_thm3,
    verify_thm1,
)
from ultracon.cli import main
from ultracon.corpus import standard_corpus


def _digest(data) -> str:
    text = json.dumps(data, indent=2, sort_keys=True) + "\n"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _small(by_name):
    return [by_name[n] for n in ("S2", "C3", "Z2", "Z3", "LZ3")]


def test_sweep_thm3_digest():
    got = _digest(sweep_thm3(standard_corpus()).to_dict())
    assert got == "a81ba14a2a48986fedf951ff9235f2a39dec27949e9af27091dbbd2ff3f1b544"


def test_sweep_principal_collapse_digest():
    got = _digest(sweep_principal_collapse(standard_corpus()).to_dict())
    assert got == "45566ad500ff5a696c74cd671c6432a364236b33ca55f2b41f43f92eb08308f9"


def test_sweep_thm1_small_digest(by_name):
    got = _digest(sweep_thm1(_small(by_name)).to_dict())
    assert got == "a790ab3f9bec9a960eb22e30b2626140861ad524bf9f34a584f242eb1015991b"


def test_sweep_thm2_small_digest(by_name):
    got = _digest(sweep_thm2(_small(by_name)).to_dict())
    assert got == "a28ad447372bfaa1411fe4c5598d46898088d0d3fe317089b39914a6f896b0cf"


def test_verify_thm1_sampled_digest(by_name):
    # more families than exhaustive_limit, so the seeded sample is used;
    # no corpus sweep reaches this mode
    c4, lz3 = by_name["C4"], by_name["LZ3"]
    report = verify_thm1([c4, c4, lz3], principal_ultrafilter(3, 2), seed=11,
                         exhaustive_limit=64, sample_size=40)
    assert report.instance["mode"] == "sampled"
    got = _digest(report.to_dict())
    assert got == "1f352cbc9458994264e31d9b9716e0d3a5d0572658fcd83b8ef9cb6eb796c8f6"


@pytest.mark.parametrize("theorem, digest", [
    ("thm1", "074b0d68282184c7be7a27837e4642612fab80afb6298e0c2657d395955659e0"),
    ("thm2", "0881ae7f0412f186abe73a5a6617d94e5a4efeac8973efac8f634ac806d5b00c"),
    ("thm3", "aefb9cc1da6e601e2cf04aaf7bfe75f07501ea22eeee8493d2f7ac72ca19eea2"),
    # 32768 families: more than the size guard, so only ids may span them
    ("thm1-c4x5", "4190e02d70a0da7a670c1703060d2ecde4566b5275c243c50de14501ff924d67"),
])
def test_verify_report_file_digest(theorem, digest, by_name, tmp_path, capsys):
    # the three `verify` instances of acceptance test 7, and a thm1 family
    # space past the size guard, through the CLI
    c3 = tmp_path / "c3.json"
    c4 = tmp_path / "c4.json"
    z6 = tmp_path / "z6.json"
    save_algebra(by_name["C3"], c3)
    save_algebra(by_name["C4"], c4)
    save_algebra(by_name["Z6"], z6)
    argv = {
        "thm1": ["verify", "thm1", "--factors", str(c3), str(z6),
                 "--ultrafilter", "[[1],[0,1]]", "--seed", "11"],
        "thm2": ["verify", "thm2", "--factors", str(c3), str(c3),
                 "--sigma", "[[0,1],[2]]", "--sigma", "[[0],[1,2]]",
                 "--ultrafilter", "principal:0", "--seed", "11"],
        "thm3": ["verify", "thm3", "--algebra", str(z6),
                 "--sigma", "[[0,2,4],[1,3,5]]", "--sigma", "[[0,3],[1,4],[2,5]]",
                 "--ultrafilter", "principal:1", "--seed", "11"],
        "thm1-c4x5": ["verify", "thm1", "--factors", *[str(c4)] * 5,
                      "--ultrafilter", "principal:1", "--seed", "11"],
    }[theorem]
    report = tmp_path / "report.json"
    assert main(argv + ["--report", str(report)]) == 0
    assert hashlib.sha256(report.read_bytes()).hexdigest() == digest
