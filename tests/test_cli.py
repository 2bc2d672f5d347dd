import json
import os
import pathlib
import shlex
import time

import pytest

from rvq import components, extensions, groups, induction
from rvq.cli import main
from rvq.gp import is_suspendable, parse_gp
from rvq.strata import stratum_signature


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_stratum_strict(capsys):
    code, out, _ = run(capsys, "stratum", "1 2 3 A A 4 / 4 3 B B 2 1")
    assert code == 0 and out.strip() == "Q(6,-1,-1) genus=2"


def test_stratum_genuine(capsys):
    code, out, _ = run(capsys, "stratum", "1 2 3 4 / 4 3 2 1")
    assert code == 0 and out.strip() == "H(2) [as Q(4)] genus=2"


def test_validate_bad_counts(capsys):
    code, _, err = run(capsys, "validate", "1 2 / 2 2 1")
    assert code == 1 and "LetterCountError" in err


def test_validate_violation_exit(capsys):
    code, out, _ = run(capsys, "validate", "1 A A 2 / 2 1")
    assert code == 1 and "VIOLATED" in out


def test_class_and_dot(capsys, tmp_path):
    dot = tmp_path / "g.dot"
    code, out, _ = run(capsys, "class", "1 2 / 2 1", "--no-cache",
                       "--dot", str(dot))
    assert code == 0 and "1 vertices" in out
    assert "->" in dot.read_text()


def test_class_dot_to_stdout_stays_json_lines(capsys):
    # under --json the DOT text is a field of the one record
    code, out, _ = run(capsys, "--json", "class", "1 2 / 2 1", "--no-cache",
                       "--dot", "-")
    rc = induction.enumerate_class(parse_gp("1 2 / 2 1"))
    (line,) = out.splitlines()
    assert code == 0 and json.loads(line)["dot"] == induction.export_graph(rc)


def test_cocycle_json(capsys):
    code, out, _ = run(capsys, "--json", "cocycle", "1 2 / 2 1",
                       "--walk", "tb")
    assert code == 0
    rec = json.loads(out)
    assert rec["matrix"] == [[1, 1], [1, 2]]
    assert rec["end"] == "1 2 / 2 1"


def test_cocycle_minus(capsys):
    code, out, _ = run(capsys, "--json", "cocycle",
                       "1 2 3 A A 4 / 4 3 B B 2 1", "--walk", "t", "--minus")
    rec = json.loads(out)
    assert rec["letters"] == ["1", "2", "3", "4"]
    assert rec["matrix"][0] == [1, 0, 0, 1]


def test_cover(capsys):
    code, out, _ = run(capsys, "cover", "1 2 3 A A 4 / 4 3 B B 2 1")
    assert code == 0 and "minus_eligible=True" in out


def test_extend(capsys):
    code, out, _ = run(capsys, "--json", "extend",
                       "1 2 3 A A 4 / 4 3 B B 2 1",
                       "--singularity", "1", "--orders", "3,3")
    rec = json.loads(out)
    assert rec["orders"] == [3, 3, -1, -1]


@pytest.mark.parametrize("gp, orders, error", [
    ("1 2 3 A A 4 / 4 3 B B 2 1", "3,5", "NotSplittable: parts must sum"),
    ("1 2 3 A A 4 / 4 3 B B 2 1", "3,-40", "NotSplittable: parts must sum"),
    ("1 2 / 2 1", "1,-1", "NotSplittable: no single insertion"),
], ids=["sum-too-big", "sum-too-small", "one-row-result"])
def test_extend_refuses_a_split_that_is_not_asked_or_has_no_stratum(
        capsys, gp, orders, error):
    code, out, err = run(capsys, "extend", gp, "--singularity", "1",
                         "--orders", orders)
    assert code == 1 and out == "" and err.startswith(error)


@pytest.mark.parametrize("orders", ["8,5", "1,1"])
def test_extend_refuses_parts_that_do_not_sum_before_any_candidate(
        capsys, monkeypatch, orders):
    def refuse(*args, **kwargs):
        raise AssertionError("a candidate was built before the refusal")

    monkeypatch.setattr(extensions, "_all_single_insertions", refuse)
    assert run(capsys, "extend", "1 2 3 A A 4 / 4 3 B B 2 1",
               "--singularity", "1", "--orders", orders) == (
        1, "", "NotSplittable: parts must sum to the order 6\n")


@pytest.mark.parametrize("at", ["0", "99"])
def test_extend_names_the_range_of_positions(capsys, at):
    assert run(capsys, "extend", "1 2 3 A A 4 / 4 3 B B 2 1",
               "--singularity", at, "--orders", "3,3") == (
        1, "", "NotSplittable: position %s outside 1..12\n" % at)


def test_identify(capsys):
    code, out, _ = run(capsys, "identify", "0 1 2 3 / 3 2 1 0")
    assert code == 0 and out.strip() == "H(2)"


def test_identify_unknown(capsys):
    # H(0,0): marked points other than H(0) are not named
    code, out, _ = run(capsys, "identify", "0 1 2 / 2 1 0")
    assert code == 1 and out.strip() == "unknown"


def test_identify_by_invariants(capsys):
    code, out, _ = run(capsys, "identify", "0 1 2 3 4 5 6 7 / 4 3 2 7 6 5 1 0")
    assert code == 0 and out.strip() == "H(2,1,1)"
    code, out, _ = run(capsys, "identify", "0 1 2 3 5 6 8 9 / 6 5 3 2 9 8 1 0")
    assert code == 0 and out.strip() == "H(6)^even"


def test_group(capsys):
    code, out, _ = run(capsys, "--json", "group", "1 2 / 2 1",
                       "--mod", "2", "--cycles", "16")
    rec = json.loads(out)
    assert code == 0 and rec["order"] == 6 and rec["index"] == 1


def test_group_budget_limits_only_the_class(capsys):
    # the class has 7 vertices; the image, S_5, has 120 elements, named by
    # its transvection orbit with no stabilizer chain
    code, out, _ = run(capsys, "--json", "group", "1 2 3 4 / 4 3 2 1",
                       "--mod", "2", "--budget", "100")
    rec = json.loads(out)
    assert code == 0 and rec["order"] == 120 and rec["index"] == 6
    assert rec["base_length"] == 0


def test_group_human_line(capsys):
    code, out, _ = run(capsys, "group", "1 2 3 4 / 4 3 2 1", "--mod", "3")
    assert code == 0 and out == (
        "mod-3 closure: order 51840, index 1 in Sp(4, F_3) "
        "[exact: 8 generators from one cycle per arrow]\n")


def test_verify_table_subset(capsys):
    code, out, _ = run(capsys, "verify-table", "--rows", "1-2")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2 and all("PASS" in ln for ln in lines)


def test_verify_table_honours_the_budget(capsys):
    # naming row 1's start component, H(4)^hyp, enumerates the 31-vertex
    # reduced class of tau_sym(6)
    code, out, err = run(capsys, "--no-cache", "verify-table", "--rows", "1",
                         "--budget", "1")
    assert (code, out) == (1, "")
    assert err.startswith("BudgetExceeded: class budget of 1 vertices hit")


def test_group_lower_bound_line(capsys):
    # two random cycles stand in for one cycle per arrow, so the order found
    # is only a lower bound
    argv = ("group", "0 1 2 3 5 6 / 3 2 6 5 1 0", "--mod", "2",
            "--cycles", "2")
    assert run(capsys, *argv) == (0, (
        "mod-2 closure: order 51840, index 28 in Sp(6, F_2) [lower bound: "
        "7 generators from 2 cycles, maxlen 60, seed 0]\n"), "")
    code, out, _ = run(capsys, "--json", *argv)
    assert code == 0 and json.loads(out)["exact"] is False


def test_verify_table_fails_a_row_whose_hyperelliptic_test_does_not_apply(
        capsys, monkeypatch):
    # only an applicable test that says no certifies a row, as for
    # search --nonhyp
    row7, real = components.table1(7), components.hyperelliptic_test

    def patched(gp):
        return None if gp == row7 else real(gp)

    monkeypatch.setattr(components, "hyperelliptic_test", patched)
    code, out, _ = run(capsys, "verify-table")
    lines = out.splitlines()
    assert code == 1 and len(lines) == 12
    assert lines[6] == "row  7: H(6)^even -> Q(6,3,3)^reg: FAIL"
    assert all(ln.endswith(": PASS") for ln in lines[:6] + lines[7:])
    code, out, _ = run(capsys, "--json", "verify-table")
    recs = [json.loads(line) for line in out.splitlines()]
    assert code == 1 and len(recs) == 12
    assert (recs[6]["passed"], recs[6]["hyperelliptic"]) == (False, None)
    assert all(r["passed"] and r["hyperelliptic"] is False
               for r in recs[:6] + recs[7:])


def test_search(capsys):
    code, out, _ = run(capsys, "--json", "search",
                       "--from", "1 2 3 4 / 4 3 2 1",
                       "--target-stratum", "6,-1,-1", "--nonhyp",
                       "--vertices", "1", "--max-results", "2")
    assert code == 0
    first = json.loads(out.splitlines()[0])
    assert sorted(first["letters"]) == ["A", "B"] or len(first["letters"]) == 2
    # every printed permutation has the target stratum, with and without
    # --nonhyp (the README's example is the last run)
    for base, target, flags in [
            ("1 2 / 2 1", "2,-1,-1", []),
            ("1 2 3 / 3 2 1", "1,1,-1,-1", []),
            ("1 2 3 4 / 4 3 2 1", "6,-1,-1", []),
            ("1 2 3 4 / 4 3 2 1", "6,-1,-1", ["--nonhyp"])]:
        code, out, _ = run(capsys, "search", "--from", base,
                           "--target-stratum", target, *flags)
        *lines, tally = out.splitlines()
        assert code == 0 and lines and tally == "%d witness chain(s)" % len(
            lines)
        for line in lines:
            gp = parse_gp(line)
            assert is_suspendable(gp), line
            assert stratum_signature(gp).orders == tuple(
                int(o) for o in target.split(",")), line
            if flags:
                assert not components.hyperelliptic_test(gp), line


def test_search_nonhyp_keeps_only_strict_permutations(capsys):
    # the two-forms test does not apply to a genuine permutation, so
    # --nonhyp cannot certify one and drops it; some of the genuine chains
    # this search finds lie in H(2,2)^hyp
    hyp = "0 B A 1 2 3 4 / A B 4 3 2 1 0"
    assert components.identify_component(parse_gp(hyp)) == "H(2,2)^hyp"
    code, out, _ = run(capsys, "search", "--from", "0 1 2 3 4 / 4 3 2 1 0",
                       "--target-stratum", "4,4", "--nonhyp",
                       "--max-results", "400")
    *kept, tally = out.splitlines()
    assert code == 0 and tally == "96 witness chain(s)" and hyp not in kept
    for line in kept:
        gp = parse_gp(line)
        assert gp.is_strict, line
        assert components.hyperelliptic_test(gp) is False, line


def test_determinism(capsys):
    a = run(capsys, "--json", "group", "1 2 / 2 1", "--cycles", "12")
    b = run(capsys, "--json", "group", "1 2 / 2 1", "--cycles", "12")
    assert a == b


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as info:
        main(["cocycle", "1 2 / 2 1"])  # missing --walk
    assert info.value.code == 2


@pytest.mark.parametrize("argv", [
    ["cocycle", "1 2 / 2 1", "--walk", "tx"],
    ["search", "--from", "1 2 3 4 / 4 3 2 1", "--target-stratum", "6,x"],
    ["extend", "1 2 3 A A 4 / 4 3 B B 2 1", "--singularity", "1",
     "--orders", "3,y"],
    ["verify-table", "--rows", "13"],
    ["verify-table", "--rows", "3-1"],
    ["group", "1 2 / 2 1", "--mod", "4"],
    ["extend", "1 2 3 A A 4 / 4 3 B B 2 1", "--singularity", "1",
     "--orders", "3"],
    ["group", "1 2 3 4 / 4 3 2 1", "--cycles", "-3"],
    ["search", "--from", "1 2 3 4 / 4 3 2 1", "--target-stratum", "6,-1,-1",
     "--max-results", "-1"],
    ["class", "1 2 / 2 1", "--budget", "-1"],
    ["--budget", "0", "identify", "1 2 / 2 1"],
    ["group", "1 2 / 2 1", "--maxlen", "x"],
    ["search", "--from", "1 2 3 4 / 4 3 2 1", "--target-stratum", "6,-1,-1",
     "--vertices", "0"],
])
def test_bad_argument_is_one_line_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main(argv)
    err = capsys.readouterr().err
    assert info.value.code == 2
    assert len(err.splitlines()) == 1 and "error: argument --" in err


@pytest.mark.parametrize("command", ["stratum", "cover", "identify", "class"])
@pytest.mark.parametrize("gp, reason", [
    ("1 2 / 2 1 3 3", "no duplicate letter in top row"),   # Q(1,-1) is empty
    ("1 2 / 1 2", "reducible"),
    ("A A 1 / B B 1", "reducible"),
    ("A A 1 B B 2 / 2 1", "no duplicate letter in bottom row"),  # irreducible
])
def test_unsuspendable_input_refused(capsys, command, gp, reason):
    code, out, err = run(capsys, command, gp)
    assert code == 1 and out == ""
    assert err.startswith("NotSuspendable:") and reason in err


@pytest.mark.parametrize("argv", [
    ["extend", "{gp}", "--singularity", "1", "--orders", "3,3"],
    ["search", "--from", "{gp}", "--target-stratum", "6,-1,-1"],
    ["cocycle", "{gp}", "--walk", "t"],
], ids=["extend", "search", "cocycle"])
@pytest.mark.parametrize("gp, reason", [
    ("1 2 / 2 1 3 3", "no duplicate letter in top row"),
    ("1 2 / 1 2", "reducible"),
    ("A A 1 B B 2 / 2 1", "no duplicate letter in bottom row"),  # irreducible
], ids=["convention", "reducible", "irreducible-convention"])
def test_extend_and_search_refuse_unsuspendable_input(capsys, argv, gp,
                                                       reason):
    code, out, err = run(capsys, *(a.format(gp=gp) for a in argv))
    assert code == 1 and out == ""
    assert err.startswith("NotSuspendable:") and reason in err


def test_cache_dir_is_unset_again_after_a_run_when_it_was_unset(
        capsys, tmp_path, monkeypatch):
    # --cache-dir sets RVQ_CACHE_DIR for the run only
    monkeypatch.delenv("RVQ_CACHE_DIR")
    code, _, _ = run(capsys, "--cache-dir", str(tmp_path), "class",
                     "1 2 / 2 1")
    assert code == 0 and list(tmp_path.glob("class-*.jsonl"))
    assert "RVQ_CACHE_DIR" not in os.environ


@pytest.mark.parametrize("argv", [
    ["identify", "0 1 2 3 4 5 / 5 4 3 2 1 0"],
    ["verify-table", "--rows", "7"],
    ["class", "1 2 3 4 / 4 3 2 1"],
    ["group", "1 2 3 4 / 4 3 2 1", "--cycles", "4"],
], ids=["identify", "verify-table", "class", "group"])
def test_no_cache_writes_no_class_file(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.setenv("RVQ_CACHE_DIR", str(tmp_path / "unused"))
    cache = tmp_path / "cache"
    cache.mkdir()
    code, _, _ = run(capsys, "--no-cache", "--cache-dir", str(cache), *argv)
    assert code == 0
    assert list(cache.iterdir()) == [] and not (tmp_path / "unused").exists()


@pytest.mark.parametrize("argv, error", [
    (["--cache-dir", "{file}", "class", "1 2 / 2 1"], "FileExistsError"),
    (["--cache-dir", "{file}/sub", "identify", "0 1 2 3 5 6 / 3 2 6 5 1 0"],
     "NotADirectoryError"),
    (["class", "1 2 / 2 1", "--dot", "{tmp}/missing/x.dot"],
     "FileNotFoundError"),
    (["class", "1 2 / 2 1", "--dot", "{tmp}"], "IsADirectoryError"),
], ids=["cache-dir-is-a-file", "cache-dir-under-a-file", "dot-dir-missing",
        "dot-is-a-directory"])
def test_unusable_path_is_one_line_error(capsys, tmp_path, argv, error):
    file = tmp_path / "file"
    file.write_text("")
    code, out, err = run(capsys, *(a.format(file=file, tmp=tmp_path)
                                   for a in argv))
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith(error + ": ")


def test_identify_reads_classes_where_each_run_says(capsys, monkeypatch,
                                                   tmp_path):
    # no class is kept in the process between runs: each reads tau_sym(6)'s
    # reduced class through its own cache settings
    gp = "0 1 2 3 4 5 / 5 4 3 2 1 0"
    cache = tmp_path / "cache"
    cache.mkdir()
    monkeypatch.setenv("RVQ_CACHE_DIR", str(cache))
    name = pathlib.Path(induction._cache_path(components.tau_sym(6),
                                              True)).name
    assert run(capsys, "--no-cache", "identify", gp) == (0, "H(4)^hyp\n", "")
    assert list(cache.iterdir()) == []
    assert run(capsys, "--cache-dir", str(cache), "identify", gp) == (
        0, "H(4)^hyp\n", "")
    assert [p.name for p in cache.iterdir()] == [name]
    file = tmp_path / "file"
    file.write_text("")
    code, out, err = run(capsys, "--cache-dir", str(file / "sub"),
                         "identify", gp)
    assert (code, out) == (1, "") and err.startswith("NotADirectoryError: ")


@pytest.mark.parametrize("argv", [
    ["--cache-dir", "", "class", "1 2 / 2 1"],
    ["class", "1 2 / 2 1", "--cache-dir", ""],
], ids=["before-the-command", "after-the-command"])
def test_empty_cache_dir_is_a_usage_error(capsys, tmp_path, monkeypatch,
                                          argv):
    # an empty path would fall back to ./.rvq-cache or $RVQ_CACHE_DIR
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("RVQ_CACHE_DIR", str(tmp_path / "inherited"))
    with pytest.raises(SystemExit) as info:
        main(argv)
    err = capsys.readouterr().err
    assert info.value.code == 2
    assert len(err.splitlines()) == 1 and "argument --cache-dir" in err
    assert list(tmp_path.iterdir()) == []


def test_unusable_cache_dir_is_refused_before_enumerating(
        capsys, tmp_path, monkeypatch):
    def enumerate_class(*args, **kwargs):
        raise AssertionError("enumerated before the cache directory was made")

    monkeypatch.setattr(induction, "enumerate_class", enumerate_class)
    file = tmp_path / "file"
    file.write_text("")
    code, out, err = run(capsys, "--cache-dir", str(file), "class",
                         "0 1 2 3 4 5 6 7 8 / 8 7 5 4 3 2 6 1 0")
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("FileExistsError: ")


def test_class_budget_answer_does_not_depend_on_the_cache(capsys, tmp_path):
    # the class has 15 vertices: a cached copy of it is refused at a budget
    # of 5 exactly as its enumeration is, and the file is kept
    argv = ("--cache-dir", str(tmp_path), "class", "1 2 3 4 5 / 5 4 3 2 1")
    cold = run(capsys, *argv, "--budget", "5")
    assert cold[0] == 1 and cold[1] == ""
    assert cold[2].startswith("BudgetExceeded: ")
    assert list(tmp_path.iterdir()) == []
    code, out, _ = run(capsys, *argv)
    assert code == 0 and "15 vertices" in out
    [path] = tmp_path.iterdir()
    cached = path.read_text()
    assert run(capsys, *argv, "--budget", "5") == cold
    assert path.read_text() == cached


def _readme_commands():
    """The argument lists of the ``rvq`` lines of README's command-line
    block, comments dropped."""
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    block = readme.read_text().split("## Command line", 1)[1]
    block = block.split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True)[1:]
            for line in block.splitlines() if line.startswith("rvq ")]


# each README command's exit code, stdout and stderr, in README order
README_OUTPUTS = [
    (0, "Q(6,-1,-1) genus=2\n", ""),
    (1, "", "LetterCountError: letters must occur exactly twice: 2\n"),
    (0, "class of 0 A A 1 / 1 B B 0: 516 vertices, 816 arrows, "
        "complete=True\n", ""),
    (0, "letters: 1 2\n0 -1\n1 3\nend: 1 2 / 2 1\n", ""),
    (0, "letters: 1 2 3 4\n1 0 0 1\n0 1 0 0\n0 0 1 0\n0 1 0 1\n"
        "end: 1 2 4 3 A A / 4 1 3 B B 2\n", ""),
    (0, "H(3,3) + 2 marked genus=4 minus_eligible=True\n", ""),
    (0, "C 1 C 2 3 A A 4 / 4 3 B B 2 1  [Q(3,3,-1,-1) genus=2]\n", ""),
    (0, "0 A A 1 2 3 / B B 3 2 1 0  [Q(6,-1,-1) genus=2]\n", ""),
    (0, "1 A A 2 3 4 / 4 B B 3 2 1\n"
        "1 A A 2 3 4 / 4 3 B B 2 1\n"
        "1 2 A A 3 4 / B B 4 3 2 1\n"
        "1 2 A A 3 4 / B 4 3 2 B 1\n"
        "4 witness chain(s)\n", ""),
    (0, "H(4)^odd\n", ""),
    (0, "mod-2 closure: order 51840, index 28 in Sp(6, F_2) "
        "[exact: 129 generators from one cycle per arrow]\n", ""),
    (0, "mod-2 closure: order 120, index 6 in Sp(4, F_2) "
        "[exact: 8 generators from one cycle per admissible arrow]\n", ""),
    (0, "row  1: H(4)^hyp -> Q(6,3,-1)^reg: PASS\n"
        "row  2: H(4)^odd -> Q(6,3,-1)^reg: PASS\n"
        "row  3: H(4)^hyp -> Q(6,3,-1)^irr: PASS\n"
        "row  4: H(4)^odd -> Q(6,3,-1)^irr: PASS\n"
        "row  5: H(3,1) -> Q(3,3,3,-1)^reg: PASS\n"
        "row  6: H(3,1) -> Q(3,3,3,-1)^irr: PASS\n"
        "row  7: H(6)^even -> Q(6,3,3)^reg: PASS\n"
        "row  8: H(6)^odd -> Q(6,3,3)^reg: PASS\n"
        "row  9: H(6)^even -> Q(6,3,3)^irr: PASS\n"
        "row 10: H(6)^odd -> Q(6,3,3)^irr: PASS\n"
        "row 11: H(3,3)^nonhyp -> Q(3,3,3,3)^reg: PASS\n"
        "row 12: H(3,3)^nonhyp -> Q(3,3,3,3)^irr: PASS\n", ""),
]


def test_readme_examples_run(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("RVQ_CACHE_DIR", str(tmp_path / "cache"))
    commands = _readme_commands()
    assert len(commands) == len(README_OUTPUTS) == 13
    for argv, want in zip(commands, README_OUTPUTS):
        assert run(capsys, *argv) == want, argv
    assert (tmp_path / "out.dot").read_text().startswith("digraph rauzy {")


# ``group`` on the seven bases of the group benchmark, and on the witness
# with --minus: the arguments, the line it prints and the line with --json
GROUP_OUTPUTS = [
    (("0 1 / 1 0", "--mod", "2"),
     "mod-2 closure: order 6, index 1 in Sp(2, F_2) [exact: 2 generators from "
     "one cycle per arrow]\n",
     '{"base_length": 0, "cycles": 200, "exact": true, "generators": 2, '
     '"genus": 1, "gp": "0 1 / 1 0", "index": 1, "maxlen": 60, "minus": '
     'false, "order": 6, "p": 2, "seed": 0}\n'),
    (("0 1 2 3 / 3 2 1 0", "--mod", "2"),
     "mod-2 closure: order 120, index 6 in Sp(4, F_2) [exact: 8 generators "
     "from one cycle per arrow]\n",
     '{"base_length": 0, "cycles": 200, "exact": true, "generators": 8, '
     '"genus": 2, "gp": "0 1 2 3 / 3 2 1 0", "index": 6, "maxlen": 60, '
     '"minus": false, "order": 120, "p": 2, "seed": 0}\n'),
    (("0 1 2 3 / 3 2 1 0", "--mod", "3"),
     "mod-3 closure: order 51840, index 1 in Sp(4, F_3) [exact: 8 generators "
     "from one cycle per arrow]\n",
     '{"base_length": 0, "cycles": 200, "exact": true, "generators": 8, '
     '"genus": 2, "gp": "0 1 2 3 / 3 2 1 0", "index": 1, "maxlen": 60, '
     '"minus": false, "order": 51840, "p": 3, "seed": 0}\n'),
    (("0 1 2 3 4 / 4 3 2 1 0", "--mod", "2"),
     "mod-2 closure: order 720, index 1 in Sp(4, F_2) [exact: 16 generators "
     "from one cycle per arrow]\n",
     '{"base_length": 0, "cycles": 200, "exact": true, "generators": 16, '
     '"genus": 2, "gp": "0 1 2 3 4 / 4 3 2 1 0", "index": 1, "maxlen": 60, '
     '"minus": false, "order": 720, "p": 2, "seed": 0}\n'),
    (("0 1 2 3 4 / 4 3 2 1 0", "--mod", "3"),
     "mod-3 closure: order 51840, index 1 in Sp(4, F_3) [exact: 16 generators "
     "from one cycle per arrow]\n",
     '{"base_length": 0, "cycles": 200, "exact": true, "generators": 16, '
     '"genus": 2, "gp": "0 1 2 3 4 / 4 3 2 1 0", "index": 1, "maxlen": 60, '
     '"minus": false, "order": 51840, "p": 3, "seed": 0}\n'),
    (("0 1 2 3 4 5 / 5 4 3 2 1 0", "--mod", "2"),
     "mod-2 closure: order 5040, index 288 in Sp(6, F_2) [exact: 32 "
     "generators from one cycle per arrow]\n",
     '{"base_length": 0, "cycles": 200, "exact": true, "generators": 32, '
     '"genus": 3, "gp": "0 1 2 3 4 5 / 5 4 3 2 1 0", "index": 288, "maxlen": '
     '60, "minus": false, "order": 5040, "p": 2, "seed": 0}\n'),
    (("0 1 2 3 5 6 / 3 2 6 5 1 0", "--mod", "2"),
     "mod-2 closure: order 51840, index 28 in Sp(6, F_2) [exact: 129 "
     "generators from one cycle per arrow]\n",
     '{"base_length": 0, "cycles": 200, "exact": true, "generators": 129, '
     '"genus": 3, "gp": "0 1 2 3 5 6 / 3 2 6 5 1 0", "index": 28, "maxlen": '
     '60, "minus": false, "order": 51840, "p": 2, "seed": 0}\n'),
    (("1 2 3 A A 4 / 4 3 B B 2 1", "--mod", "2", "--minus"),
     "mod-2 closure: order 120, index 6 in Sp(4, F_2) [exact: 8 generators "
     "from one cycle per admissible arrow]\n",
     '{"base_length": 0, "cycles": 200, "exact": true, "generators": 8, '
     '"genus": 2, "gp": "1 2 3 A A 4 / 4 3 B B 2 1", "index": 6, "maxlen": '
     '60, "minus": true, "order": 120, "p": 2, "seed": 0}\n'),
    (("1 2 3 A A 4 / 4 3 B B 2 1", "--mod", "3", "--minus"),
     "mod-3 closure: order 51840, index 1 in Sp(4, F_3) [exact: 8 generators "
     "from one cycle per admissible arrow]\n",
     '{"base_length": 0, "cycles": 200, "exact": true, "generators": 8, '
     '"genus": 2, "gp": "1 2 3 A A 4 / 4 3 B B 2 1", "index": 1, "maxlen": '
     '60, "minus": true, "order": 51840, "p": 3, "seed": 0}\n'),
]
GROUP_IDS = ["torus-2", "H(2)-2", "H(2)-3", "H(1,1)-2", "H(1,1)-3",
             "H(4)^hyp-2", "H(4)^odd-2", "witness-minus-2", "witness-minus-3"]


@pytest.mark.parametrize("argv, human, record", GROUP_OUTPUTS, ids=GROUP_IDS)
def test_group_prints_the_same_lines_on_the_benchmark_bases(capsys, argv,
                                                            human, record):
    assert run(capsys, "group", *argv) == (0, human, "")
    assert run(capsys, "--json", "group", *argv) == (0, record, "")


def test_group_minus_refuses_ineligible_stratum(capsys, tmp_path):
    # Q(1,1,1,1): four odd singularities; its class has 957,600 vertices
    start = time.perf_counter()
    code, out, err = run(capsys, "--cache-dir", str(tmp_path), "group",
                         "0 A 1 2 A 3 4 / 4 3 B 2 1 B 0", "--minus",
                         "--cycles", "20")
    assert time.perf_counter() - start < 0.5
    assert code == 1 and out == "" and len(err.splitlines()) == 1
    assert err.startswith("CriterionInapplicable:") and "odd" in err
    assert list(tmp_path.iterdir()) == []


def test_group_minus_on_eligible_stratum(capsys):
    # Q(2,-1,-1): exactly two odd singularities
    code, out, _ = run(capsys, "--json", "group", "0 A A 1 / 1 B B 0",
                       "--minus", "--cycles", "20")
    assert code == 0 and json.loads(out)["minus"] is True


def test_group_minus_walks_the_admissible_component(capsys, tmp_path):
    # the labeled class of this base has 1,739,520 vertices; its admissible
    # component has 19, and no class file is written
    start = time.perf_counter()
    for p, index in [(2, 6), (3, 1)]:
        code, out, _ = run(capsys, "--json", "--cache-dir", str(tmp_path),
                           "group", "1 2 3 A A 4 / 4 3 B B 2 1", "--minus",
                           "--mod", str(p))
        rec = json.loads(out)
        assert code == 0 and rec["exact"] and rec["index"] == index
    assert time.perf_counter() - start < 5
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("gp", ["2 2 B / B 1 1", "0 0 1 / 1 2 2"])
def test_group_refuses_genus_zero(capsys, gp):
    code, out, err = run(capsys, "group", gp)
    assert code == 1 and out == "" and len(err.splitlines()) == 1
    assert err.startswith("CriterionInapplicable:") and "genus 0" in err
    assert err == "CriterionInapplicable: %s has genus 0: no group\n" % gp


@pytest.mark.parametrize("flags, line", [
    ((), "{gp} has genus 0: no group"),
    (("--minus",), "{gp}: the minus group needs exactly two singularities "
                   "of odd order")], ids=["plus", "minus"])
def test_group_refuses_from_its_base_before_any_class(capsys, monkeypatch,
                                                      tmp_path, flags, line):
    # Q(1,1,-1^6): genus 0, eight odd singularities; its labeled class has
    # 181,440 vertices
    def refuse(*args, **kwargs):
        raise AssertionError("a class was enumerated before the refusal")

    monkeypatch.setattr(induction, "load_or_enumerate", refuse)
    monkeypatch.setattr(groups, "admissible_component", refuse)
    gp = "1 1 2 2 3 3 4 / 4 5 5 6 6 7 7"
    assert run(capsys, "--cache-dir", str(tmp_path), "group", gp,
               *flags) == (1, "", "CriterionInapplicable: %s\n"
                           % line.format(gp=gp))
    assert list(tmp_path.iterdir()) == []


# bases of eligible strata whose both-rows letters span less than 2g: the
# first two printed an exact index in too small a group, the third "genus 0"
NOT_SPANNING = [("E D C D A / F E A B C B F", 2, 4),
                ("F C G B G / B E H E F H C A D A D", 2, 6),
                ("D C A C / B B D A", 0, 2)]


@pytest.mark.parametrize("gp, rank, two_g", NOT_SPANNING)
def test_group_minus_refuses_a_base_that_does_not_span(capsys, monkeypatch,
                                                       tmp_path, gp, rank,
                                                       two_g):
    def refuse(*args, **kwargs):
        raise AssertionError("a class was enumerated before the refusal")

    monkeypatch.setattr(groups, "admissible_component", refuse)
    code, out, err = run(capsys, "--cache-dir", str(tmp_path), "group", gp,
                         "--minus", "--mod", "2")
    assert (code, out) == (1, "")
    assert err == ("CriterionInapplicable: %s: the form on the both-rows "
                   "letters has rank %d, not 2g = %d\n" % (gp, rank, two_g))
    assert list(tmp_path.iterdir()) == []
