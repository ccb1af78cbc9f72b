import argparse
import json
import subprocess
import sys
from dataclasses import replace

import pytest

import popmatch.cli
import popmatch.popularity
from popmatch.cli import _load, main
from popmatch.engine import EngineError
from popmatch.formats import (
    parse_certificate,
    parse_instance,
    result_to_document,
    serialize_instance,
    serialize_matching,
    verify_certificate,
)
from popmatch.fractional import is_fractional_popular
from popmatch.popularity import is_popular


def write_pair(tmp_path, inst, m):
    ipath = tmp_path / "instance.txt"
    mpath = tmp_path / "matching.txt"
    ipath.write_text(serialize_instance(inst))
    mpath.write_text(serialize_matching(m))
    return str(ipath), str(mpath)


def test_check_popular(tmp_path, capsys, triangle_pendant):
    ipath, mpath = write_pair(tmp_path, *triangle_pendant)
    assert main(["check", "-i", ipath, "-m", mpath]) == 0
    assert capsys.readouterr().out == "popular\n"


def test_check_unpopular(tmp_path, capsys, two_triangles_pendants):
    ipath, mpath = write_pair(tmp_path, *two_triangles_pendants)
    assert main(["check", "-i", ipath, "-m", mpath]) == 1
    out = capsys.readouterr().out
    assert out == "unpopular: path-two-blocking through nodes [4, 3, 2, 0]; a rival wins by 2\n"


def test_witness_output(tmp_path, capsys, triangle_pendant, two_triangles_pendants):
    ipath, mpath = write_pair(tmp_path, *triangle_pendant)
    assert main(["witness", "-i", ipath, "-m", mpath]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "popular"
    assert out[1] == "witness: alpha is -1 on [0, 1, 3], +1 on [2], 0 elsewhere"
    assert out[2] == "witness: odd set [0, 1, 2] at dual value 2"

    ipath, mpath = write_pair(tmp_path, *two_triangles_pendants)
    assert main(["witness", "-i", ipath, "-m", mpath]) == 1
    out = capsys.readouterr().out
    assert "rival matching: ((0, 2), (3, 4))" in out


def test_check_json_round_trips(tmp_path, capsys, triangle_pendant, swap_square):
    for fixture, code in ((triangle_pendant, 0), (swap_square, 1)):
        inst, m = fixture
        ipath, mpath = write_pair(tmp_path, inst, m)
        assert main(["check", "-i", ipath, "-m", mpath, "--json"]) == code
        doc = parse_certificate(capsys.readouterr().out)
        assert verify_certificate(inst, m, doc) is None


def test_fractional_text(
    tmp_path, capsys, triangle_pendant, two_triangles, two_triangles_pendants
):
    ipath, mpath = write_pair(tmp_path, *triangle_pendant)
    assert main(["fractional", "-i", ipath, "-m", mpath]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "not-fractional-popular: a half-integral matching wins by 2/2"
    assert out[1] == "odd cycle [2, 1, 0] hung on middle node 2"
    assert out[2] == "p: ones=[] loops=[3] half-cycles=[[0, 1, 2]]"

    ipath, mpath = write_pair(tmp_path, *two_triangles)
    assert main(["fractional", "-i", ipath, "-m", mpath]) == 1
    out = capsys.readouterr().out
    assert "path [0, 2, 3] feeding odd cycle [3, 5, 4]" in out

    ipath, mpath = write_pair(tmp_path, *two_triangles_pendants)
    assert main(["fractional", "-i", ipath, "-m", mpath]) == 1
    out = capsys.readouterr().out
    assert "wins by 4/2" in out
    assert "an outright better matching exists (margin 2)" in out


def test_fractional_popular_exit_zero(tmp_path, capsys):
    inst = parse_instance("4\n1 2\n0 3\n3 0\n2 1\n")
    ipath = tmp_path / "i.txt"
    mpath = tmp_path / "m.txt"
    ipath.write_text(serialize_instance(inst))
    mpath.write_text("0 1\n2 3\n")
    assert main(["fractional", "-i", str(ipath), "-m", str(mpath)]) == 0
    assert capsys.readouterr().out == "fractional-popular\n"
    assert main(["fractional", "-i", str(ipath), "-m", str(mpath), "--json"]) == 0
    doc = parse_certificate(capsys.readouterr().out)
    assert doc["verdict"] == "fractional-popular"


def test_oracle_agreement(tmp_path, capsys, triangle_pendant, two_triangles_pendants):
    ipath, mpath = write_pair(tmp_path, *triangle_pendant)
    assert main(["oracle", "-i", ipath, "-m", mpath]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "popularity: popular - oracle agree"
    assert out[1] == "fractional: not-fractional-popular - oracle agree"

    ipath, mpath = write_pair(tmp_path, *two_triangles_pendants)
    assert main(["oracle", "-i", ipath, "-m", mpath, "--json"]) == 1
    rows = json.loads(capsys.readouterr().out)["oracle"]
    assert rows[0] == {
        "check": "popularity",
        "verdict": "unpopular",
        "oracle_best_delta": 3,
        "agree": True,
    }
    assert rows[1]["agree"] is True


@pytest.mark.parametrize(
    "name, field, row",
    [
        ("brute_popular", "best_delta", 0),
        ("brute_fractional_popular", "best_value_times_two", 1),
    ],
)
def test_oracle_disagreement_exits_three(
    tmp_path, capsys, monkeypatch, triangle_pendant, name, field, row
):
    brute = getattr(popmatch.cli, name)

    def flipped(inst, m):  # the oracle's verdict turned over: 1 - v flips v <= 0
        ref = brute(inst, m)
        return replace(ref, **{field: 1 - getattr(ref, field)})

    monkeypatch.setattr(popmatch.cli, name, flipped)
    ipath, mpath = write_pair(tmp_path, *triangle_pendant)
    assert main(["oracle", "-i", ipath, "-m", mpath]) == 3
    out = capsys.readouterr().out.splitlines()
    assert out[row].endswith(" - oracle DISAGREE")
    assert out[1 - row].endswith(" - oracle agree")
    assert main(["oracle", "-i", ipath, "-m", mpath, "--json"]) == 3
    rows = json.loads(capsys.readouterr().out)["oracle"]
    assert [r["agree"] for r in rows] == [row != 0, row != 1]


def test_oracle_skips_fractional_beyond_cap(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("POPMATCH_ORACLE_LIMIT", raising=False)
    ipath = tmp_path / "i.txt"
    mpath = tmp_path / "m.txt"
    assert main(["gen", "-n", "11", "--gnp", "0.25", "--seed", "5", "-o", str(ipath)]) == 0
    mpath.write_text("")
    code = main(["oracle", "-i", str(ipath), "-m", str(mpath)])
    out = capsys.readouterr().out
    assert "popularity:" in out and "oracle agree" in out
    assert "fractional: skipped (brute_fractional_popular" in out
    assert code in (0, 1)


def test_oracle_limit_exit_two(tmp_path, capsys, monkeypatch, triangle_pendant):
    monkeypatch.setenv("POPMATCH_ORACLE_LIMIT", "3")
    ipath, mpath = write_pair(tmp_path, *triangle_pendant)
    assert main(["oracle", "-i", ipath, "-m", mpath]) == 2
    err = capsys.readouterr().err
    assert "raise POPMATCH_ORACLE_LIMIT to override" in err


def test_oracle_limit_that_is_no_integer_exit_two(tmp_path, capsys, monkeypatch, triangle_pendant):
    monkeypatch.setenv("POPMATCH_ORACLE_LIMIT", "abc")
    ipath, mpath = write_pair(tmp_path, *triangle_pendant)
    assert main(["oracle", "-i", ipath, "-m", mpath]) == 2
    assert capsys.readouterr().err == "error: POPMATCH_ORACLE_LIMIT='abc' is not an integer\n"


def test_gen_deterministic(tmp_path, capsys):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    args = ["gen", "-n", "8", "--gnp", "0.5", "--seed", "7"]
    assert main(args + ["-o", str(a)]) == 0
    assert main(args + ["-o", str(b)]) == 0
    assert a.read_text() == b.read_text()
    inst = parse_instance(a.read_text())
    assert inst.n == 8
    assert main(["gen", "-n", "8", "--gnp", "0.5", "--seed", "8", "-o", "-"]) == 0
    other = parse_instance(capsys.readouterr().out)
    assert other != inst


def test_gen_complete_and_tiny(tmp_path, capsys):
    assert main(["gen", "-n", "5", "--complete", "--seed", "1", "-o", "-"]) == 0
    inst = parse_instance(capsys.readouterr().out)
    assert inst.n == 5 and inst.m == 10
    assert main(["gen", "-n", "1", "--complete", "--seed", "1", "-o", "-"]) == 0
    assert parse_instance(capsys.readouterr().out).n == 1


def test_gen_bad_args(capsys):
    assert main(["gen", "-n", "0", "--complete", "--seed", "1", "-o", "-"]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["gen", "-n", "4", "--gnp", "1.5", "--seed", "1", "-o", "-"]) == 2
    assert "edge probability" in capsys.readouterr().err


def test_bench_table(capsys):
    assert main(["bench", "--sizes", "30,60", "--reps", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["edges", "nodes", "median", "s", "ns/edge", "ratio"]
    assert len(lines) == 3
    assert lines[1].split()[-1] == "1.00"


def test_bench_row_without_edges(capsys):
    # G(4, 1/6) drawn with seed 0 has no edges; the ratio base is the next row
    assert main(["bench", "--sizes", "1,30", "--seed", "0", "--reps", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].split()[0] == "0" and lines[1].split()[-2:] == ["-", "-"]
    assert lines[2].split()[-1] == "1.00"


def test_bench_bad_sizes(capsys):
    assert main(["bench", "--sizes", ","]) == 2
    assert "no sizes given" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args, message",
    [
        (["--sizes", "0"], "bad size 0"),
        (["--sizes", "30", "--reps", "0"], "need at least one repetition, got 0"),
        (["--sizes", "10, abc"], "--sizes: 'abc' is not an integer"),
    ],
)
def test_bench_bad_size_or_reps_exit_two(capsys, args, message):
    assert main(["bench", *args]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_missing_file_exit_two(tmp_path, capsys):
    mpath = tmp_path / "m.txt"
    mpath.write_text("")
    assert main(["check", "-i", str(tmp_path / "nope.txt"), "-m", str(mpath)]) == 2
    assert "error:" in capsys.readouterr().err


def test_parse_error_exit_two(tmp_path, capsys):
    ipath = tmp_path / "i.txt"
    mpath = tmp_path / "m.txt"
    ipath.write_text("2\n1\n\n")
    mpath.write_text("")
    assert main(["check", "-i", str(ipath), "-m", str(mpath)]) == 2
    assert "does not list 0 back" in capsys.readouterr().err


def test_non_utf8_input_is_a_parse_error(tmp_path, capsys):
    ipath = tmp_path / "i.txt"
    mpath = tmp_path / "m.txt"
    ipath.write_bytes(b"2\n1\xff\n0\n")
    mpath.write_text("")
    assert main(["check", "-i", str(ipath), "-m", str(mpath)]) == 2
    err = capsys.readouterr().err
    assert err == "error: line 2, column 1: expected an integer, got '1\\udcff'\n"
    ipath.write_text("2\n1\n0\n")
    mpath.write_bytes(b"0 \xff1\n")
    assert main(["fractional", "-i", str(ipath), "-m", str(mpath)]) == 2
    err = capsys.readouterr().err
    assert err == "error: line 1, column 3: expected an integer, got '\\udcff1'\n"


def test_usage_error_is_exit_two():
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["gen", "-n", "4", "--seed", "1", "-o", "-"])  # no model picked
    assert err.value.code == 2


def test_console_script_runs(tmp_path, triangle_pendant):
    ipath, mpath = write_pair(tmp_path, *triangle_pendant)
    proc = subprocess.run(
        [sys.executable, "-m", "popmatch.cli", "check", "-i", ipath, "-m", mpath],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "popular\n"


def test_engine_failure_exits_two(
    tmp_path, capsys, monkeypatch, triangle_pendant, two_triangles_pendants
):
    def broken(inst, m):
        raise EngineError("blossom stack underflow")

    monkeypatch.setattr(popmatch.cli, "is_popular", broken)
    ipath, mpath = write_pair(tmp_path, *triangle_pendant)
    assert main(["check", "-i", ipath, "-m", mpath]) == 2
    assert capsys.readouterr().err == "internal error: blossom stack underflow\n"

    def crash(inst, m):
        raise KeyError(3)

    monkeypatch.setattr(popmatch.cli, "is_popular", crash)
    assert main(["witness", "-i", ipath, "-m", mpath, "--json"]) == 2
    err = capsys.readouterr().err
    assert "Traceback" in err and err.endswith("\ninternal error: KeyError: 3\n")

    # a decide's own certificate check fails the same way
    monkeypatch.undo()
    inst, m = two_triangles_pendants
    monkeypatch.setattr(popmatch.popularity, "more_popular_matching", lambda *a: m)
    ipath, mpath = write_pair(tmp_path, inst, m)
    assert main(["check", "-i", ipath, "-m", mpath]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", "internal error: switched matching wins by 0, expected at least 1\n")


def test_verdict_paths_never_build_the_edge_set(
    tmp_path, two_triangles_pendants, triangle_pendant, two_triangles, swap_square
):
    for fixture in (two_triangles_pendants, triangle_pendant, two_triangles, swap_square):
        ipath, mpath = write_pair(tmp_path, *fixture)
        inst, m = _load(argparse.Namespace(instance=ipath, matching=mpath))
        for decide in (is_popular, is_fractional_popular):
            doc = parse_certificate(json.dumps(result_to_document(decide(inst, m))))
            assert verify_certificate(inst, m, doc) is None
        assert "edges" not in inst.__dict__
        assert "rank" not in inst.__dict__  # the rank dicts serve only the oracle
        assert "pref" not in inst.__dict__  # the instance is its arrays
        assert "partner" not in m.__dict__  # and the matching is its partner array
