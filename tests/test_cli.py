import json

import pytest

from ultracon import load_algebra, make_algebra, save_algebra
from ultracon.cli import main
from ultracon.corpus import corpus_by_name


@pytest.fixture()
def files(tmp_path):
    by = corpus_by_name()
    paths = {}
    for name in ("C3", "S2", "Z3", "Z4"):
        p = tmp_path / f"{name.lower()}.json"
        save_algebra(by[name], p)
        paths[name] = str(p)
    paths["dir"] = str(tmp_path)
    return paths


def test_con_text_output(files, capsys):
    assert main(["con", files["C3"]]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out == ["[[0,1,2]]", "[[0,1],[2]]", "[[0],[1,2]]", "[[0],[1],[2]]"]


def test_con_json_and_dot(files, capsys):
    assert main(["con", files["C3"], "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["count"] == 4 and data["algebra"] == "C3"
    assert main(["con", files["C3"], "--format", "dot"]) == 0
    assert capsys.readouterr().out.startswith("digraph")


def test_product_command(files, capsys):
    assert main(["product", files["S2"], files["S2"], "--name", "square"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["size"] == 4 and data["name"] == "square"
    assert data["tables"]["op"][0 * 4 + 3] == 0  # (0,0) meet (1,1) coordinatewise


def test_quotient_command(files, capsys, tmp_path):
    out_path = tmp_path / "quot.json"
    code = main(["quotient", files["C3"], "--congruence", "[[0,1],[2]]",
                 "--out", str(out_path)])
    assert code == 0
    data = json.loads(out_path.read_text())
    assert data["size"] == 2
    assert data["tables"]["op"] == [0, 0, 0, 1]
    assert data["provenance"]["construction"] == "quotient"
    assert load_algebra(out_path).size == 2


def test_quotient_command_rejects_bad_partition(files, capsys):
    assert main(["quotient", files["C3"], "--congruence", "[[0,2],[1]]"]) == 2
    assert "not a congruence" in capsys.readouterr().err
    assert main(["quotient", files["C3"], "--congruence", "[[0,1]]"]) == 2
    assert "cover" in capsys.readouterr().err


def test_ultraproduct_command_with_provenance(files, capsys, tmp_path):
    out_path = tmp_path / "up.json"
    code = main(["ultraproduct", "--factors", files["C3"], files["C3"], files["C3"],
                 "--ultrafilter", "principal:2", "--out", str(out_path)])
    assert code == 0
    data = json.loads(out_path.read_text())
    assert data["size"] == 3
    prov = data["provenance"]
    assert prov["construction"] == "ultraproduct"
    assert prov["ultrafilter"][0] == [2]
    assert len(prov["class_representatives"]) == 3
    assert load_algebra(out_path).size == 3


def test_ultraproduct_rejects_bad_ultrafilter(files, capsys):
    code = main(["ultraproduct", "--factors", files["C3"], files["S2"],
                 "--ultrafilter", "[[0]]"])
    assert code == 2
    assert "axiom" in capsys.readouterr().err


def test_ultrafilters_command(capsys):
    assert main(["ultrafilters", "3"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 3
    assert main(["ultrafilters", "2", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data) == 2
    assert main(["ultrafilters", "9"]) == 2


def test_iso_command(files, capsys):
    assert main(["iso", files["C3"], files["C3"]]) == 0
    assert "isomorphic" in capsys.readouterr().out
    assert main(["iso", files["C3"], files["Z3"]]) == 1
    assert "not isomorphic" in capsys.readouterr().out


def test_verify_thm3_example(files, capsys, tmp_path):
    report = tmp_path / "r.json"
    argv = ["verify", "thm3", "--algebra", files["C3"],
            "--sigma", "[[0,1],[2]]", "--sigma", "[[0],[1,2]]",
            "--ultrafilter", "principal:1", "--report", str(report)]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "thm3: PASS" in out
    first = report.read_bytes()
    assert main(argv) == 0
    assert report.read_bytes() == first  # byte-identical rerun
    parsed = json.loads(first)
    assert parsed["passed"] is True


def test_verify_thm1_with_json_ultrafilter(files, capsys, tmp_path):
    report = tmp_path / "r1.json"
    argv = ["verify", "thm1", "--factors", files["C3"], files["C3"],
            "--ultrafilter", "[[1],[0,1]]", "--seed", "3", "--report", str(report)]
    assert main(argv) == 0
    assert "thm1: PASS" in capsys.readouterr().out
    first = report.read_bytes()
    assert main(argv) == 0
    assert report.read_bytes() == first


def test_verify_thm2_command(files, capsys):
    argv = ["verify", "thm2", "--factors", files["C3"], files["Z3"],
            "--sigma", "[[0,1],[2]]", "--sigma", "[[0,1,2]]",
            "--ultrafilter", "principal:0"]
    assert main(argv) == 0
    assert "thm2: PASS" in capsys.readouterr().out


def test_verify_thm2_past_the_search_guard_fails_with_a_report(capsys, tmp_path):
    chain = make_algebra([("op", 2)], 13, {"op": [min(a, b) for a in range(13) for b in range(13)]}, "C13")
    path, report = tmp_path / "c13.json", tmp_path / "r.json"
    save_algebra(chain, path)
    argv = ["verify", "thm2", "--factors", str(path), "--sigma", str([[a] for a in range(13)]),
            "--ultrafilter", "principal:0", "--report", str(report)]
    assert main(argv) == 1
    assert "thm2: FAIL" in capsys.readouterr().out
    checks = {c["name"]: c for c in json.loads(report.read_bytes())["checks"]}
    assert checks["independent-isomorphism-search"]["witness"] == {
        "reason": "carriers 13, 13 exceed the search guard 12"
    }


def test_verify_argument_errors(files, capsys):
    assert main(["verify", "thm2", "--factors", files["C3"], files["Z3"],
                 "--sigma", "[[0,1],[2]]", "--ultrafilter", "principal:0"]) == 2
    assert "--sigma" in capsys.readouterr().err
    assert main(["verify", "thm1", "--ultrafilter", "principal:0"]) == 2
    assert main(["verify", "thm3", "--sigma", "[[0],[1]]",
                 "--ultrafilter", "principal:0"]) == 2


@pytest.mark.parametrize("theorem, extra, flag", [
    ("thm1", ["--factors", "C3", "C3", "--sigma", "[[0,1],[2]]"], "--sigma"),
    ("thm1", ["--factors", "C3", "C3", "--algebra", "C3"], "--algebra"),
    ("thm2", ["--factors", "C3", "C3", "--sigma", "[[0,1],[2]]", "--sigma", "[[0],[1,2]]",
              "--algebra", "C3"], "--algebra"),
    ("thm3", ["--algebra", "C3", "--sigma", "[[0,1],[2]]", "--sigma", "[[0],[1,2]]",
              "--factors", "C3"], "--factors"),
])
def test_verify_rejects_flags_the_theorem_does_not_read(theorem, extra, flag, files, capsys):
    argv = ["verify", theorem, "--ultrafilter", "principal:0", "--seed", "11"]
    argv += [files.get(a, a) for a in extra]
    assert main(argv) == 2
    assert flag in capsys.readouterr().err


def test_missing_file_is_an_input_error(tmp_path, capsys):
    assert main(["con", str(tmp_path / "nope.json")]) == 2
    assert "error" in capsys.readouterr().err
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert main(["con", str(bad)]) == 2


def test_sweep_collapse_on_directory(files, capsys, tmp_path):
    report = tmp_path / "sweep.json"
    code = main(["sweep", "--theorem", "collapse", "--corpus", files["dir"],
                 "--report", str(report)])
    assert code == 0
    out = capsys.readouterr().out
    assert "principal-collapse: PASS" in out
    data = json.loads(report.read_text())
    assert data["principal-collapse"]["passed"] is True


def test_sweep_empty_directory_is_input_error(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["sweep", "--corpus", str(empty)]) == 2


def test_help_documents_formats(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    assert "mixed radix" in text
    assert "[[0,1],[2]]" in text
    assert "principal:<i0>" in text
    assert "a1*n**(k-1) + a2*n**(k-2) + ... + ak" in text
