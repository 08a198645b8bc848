"""The report encoder against json.dumps(..., indent=2, sort_keys=True)."""

import json
from collections import OrderedDict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ultracon import (
    UltrafilterD,
    principal_ultrafilter,
    sweep_principal_collapse,
    sweep_thm1,
    sweep_thm2,
    sweep_thm3,
    verify_thm1,
    verify_thm2,
    verify_thm3,
)
from ultracon import theorems
from ultracon.algebra import save_algebra
from ultracon.cli import main
from ultracon.constructions import CongruenceFamily
from ultracon.congruence import Partition, parse_partition
from ultracon.corpus import standard_corpus
from ultracon.theorems import json_text

from test_theorems import _identity_theta


def stdlib(data) -> str:
    return json.dumps(data, indent=2, sort_keys=True)


# quotes, backslashes, control characters, non-ASCII and astral characters
# next to whatever hypothesis draws
texts = st.one_of(st.text(), st.sampled_from(['"', "\\", "\n\t\x00\x1f", "é", " ", "🙂", "a\"b\\c", ""]))
scalars = st.one_of(st.none(), st.booleans(), st.integers(), st.integers(-2**70, 2**70), texts)
values = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.dictionaries(texts, inner, max_size=5),
    ),
    max_leaves=40,
)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(values)
def test_json_text_is_byte_identical_to_the_stdlib(value):
    assert json_text(value) == stdlib(value)


@pytest.mark.parametrize("value", [
    {"b": {"z": 1, "a": [2, {"y": None, "x": True}]}, "a": ()},  # nested keys unsorted
    {"a": 1.5, "b": [float("nan"), float("inf")]},  # floats: left to the json module
    {2: "x", 1: "y"},  # int keys: sorted as ints by the json module, then written as text
    {"a": OrderedDict([("b", 1), ("a", 2)])},
    [{}, [], (), ""],
])
def test_json_text_matches_the_stdlib_on_values_it_hands_on(value):
    assert json_text(value) == stdlib(value)


@pytest.mark.parametrize("value", [{"a": object()}, {1: "x", "a": "y"}])
def test_json_text_raises_what_the_stdlib_raises(value):
    with pytest.raises(TypeError):
        stdlib(value)
    with pytest.raises(TypeError):
        json_text(value)


def test_json_text_handles_a_cycle_like_the_stdlib():
    cycle = []
    cycle.append(cycle)
    with pytest.raises(ValueError, match="Circular reference"):
        json_text(cycle)


def _golden_reports(by_name):
    """The data behind every digest in test_golden_reports.py."""
    corpus = standard_corpus()
    small = [by_name[n] for n in ("S2", "C3", "Z2", "Z3", "LZ3")]
    yield sweep_thm3(corpus).to_dict()
    yield sweep_principal_collapse(corpus).to_dict()
    yield sweep_thm1(small).to_dict()
    yield sweep_thm2(small).to_dict()
    c3, c4, z6, lz3 = by_name["C3"], by_name["C4"], by_name["Z6"], by_name["LZ3"]
    yield verify_thm1([c4, c4, lz3], principal_ultrafilter(3, 2), seed=11,
                      exhaustive_limit=64, sample_size=40).to_dict()
    yield verify_thm1([c3, z6], principal_ultrafilter(2, 1), seed=11).to_dict()
    yield verify_thm1([c4] * 5, principal_ultrafilter(5, 1), seed=11).to_dict()
    sigmas = [parse_partition("[[0,1],[2]]", 3), parse_partition("[[0],[1,2]]", 3)]
    yield verify_thm2(CongruenceFamily([c3, c3], sigmas), principal_ultrafilter(2, 0)).to_dict()
    sigmas = [parse_partition("[[0,2,4],[1,3,5]]", 6), parse_partition("[[0,3],[1,4],[2,5]]", 6)]
    yield verify_thm3(z6, sigmas, principal_ultrafilter(2, 1)).to_dict()


def test_json_text_is_the_stdlib_text_of_every_golden_report(by_name):
    count = 0
    for data in _golden_reports(by_name):
        assert json_text(data) == stdlib(data)
        count += 1
    assert count == 9


def _member_lists(ultra) -> list:
    return [list(s) for s in ultra.members_as_sets()]


def test_reports_that_share_an_ultrafilter_encode_like_the_stdlib(by_name):
    # the member text is kept on the ultrafilter and reused by the next report
    c3, z3 = by_name["C3"], by_name["Z3"]
    ultra = principal_ultrafilter(3, 1)
    sigmas = [parse_partition("[[0,1],[2]]", 3), parse_partition("[[0],[1,2]]", 3)]
    reports = [verify_thm2(CongruenceFamily([c3, c3, z3], [s, s, Partition.identity(3)]), ultra) for s in sigmas]
    reports.append(verify_thm1([c3, c3, c3], ultra))
    for _ in range(2):
        for report in reports:
            data = report.to_dict()
            assert report.to_json() == json_text(data) == stdlib(data)
            assert json.loads(stdlib(data))["instance"]["ultrafilter"] == _member_lists(ultra)


def test_equal_ultrafilters_built_apart_encode_like_the_stdlib(by_name):
    c3 = by_name["C3"]
    first = principal_ultrafilter(2, 0)
    second = UltrafilterD.from_sets(2, [[0, 1], [0]])
    assert first == second and first is not second
    texts = [verify_thm2(CongruenceFamily.identities([c3, c3]), u).to_json() for u in (first, second, first)]
    assert texts[0] == texts[1] == texts[2]
    assert texts[0] == stdlib(verify_thm2(CongruenceFamily.identities([c3, c3]), second).to_dict())


def test_a_sweep_nests_the_member_text_one_level_deeper_like_the_stdlib(by_name, monkeypatch):
    # a theta below D* fails every family, so the sweep's failures hold the
    # reports, and their ultrafilters sit one indentation deeper than in a
    # report of their own; encode each depth, then the other, then again
    monkeypatch.setattr(theorems, "product_congruence", _identity_theta)
    data = sweep_thm2([by_name["S2"], by_name["C3"]]).to_dict()
    failure = data["failures"][0]
    assert not data["passed"] and len(data["failures"]) > 1
    for value in (failure, data, failure, {"nested": [data]}):
        assert json_text(value) == stdlib(value)
    members = json.loads(stdlib(data))["failures"][0]["instance"]["ultrafilter"]
    assert members == [list(s) for s in failure["instance"]["ultrafilter"]]


def test_the_cli_report_file_is_the_stdlib_text(by_name, tmp_path, capsys):
    paths = []
    for name in ("C3", "Z3"):
        paths.append(str(tmp_path / f"{name}.json"))
        save_algebra(by_name[name], paths[-1])
    for k in range(2):
        report = tmp_path / f"report{k}.json"
        assert main(["verify", "thm2", "--factors", *paths, "--sigma", "[[0,1],[2]]", "--sigma", "[[0],[1],[2]]",
                     "--ultrafilter", "principal:1", "--report", str(report)]) == 0
        text = report.read_text()
        assert text == stdlib(json.loads(text)) + "\n"
        assert json.loads(text)["instance"]["ultrafilter"] == [[1], [0, 1]]
    capsys.readouterr()
