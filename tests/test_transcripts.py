"""Committed CLI transcripts: the "same answers" oracle.

Each file under ``tests/transcripts`` holds one command's arguments, then its
exact stdout, stderr and exit code.  The test runs every command through
``rvq.cli.main`` in-process against a fresh class-cache directory, once cold
and once warm, and requires both runs to match the file byte for byte.

A change that alters an answer on purpose regenerates the files with::

    PYTHONPATH=src python tests/test_transcripts.py

and says which transcripts changed and why.
"""

import contextlib
import io
import os
import pathlib
import shlex
import sys
import tempfile

import pytest

HERE = pathlib.Path(__file__).resolve().parent
TRANSCRIPTS = HERE / "transcripts"
WITNESS = "1 2 3 A A 4 / 4 3 B B 2 1"
H4_ODD = "0 1 2 3 5 6 / 3 2 6 5 1 0"  # tau_zorich(3)
TAU4 = "0 1 2 3 / 3 2 1 0"            # tau_sym(4)
TAU5 = "0 1 2 3 4 / 4 3 2 1 0"        # tau_sym(5)
SEARCH = ("search", "--from", "1 2 3 4 / 4 3 2 1",
          "--target-stratum", "6,-1,-1")

# name -> argv.  The README's commands (its class command writes the DOT
# text to stdout), the JSON forms of verify-table and the README search, a
# search over a class truncated at 3 vertices, the double-split refusals,
# and group on the group benchmark's bases with their moduli (H(4)^odd mod 2
# is the README's).
COMMANDS = {
    "stratum-witness": ("stratum", WITNESS),
    "validate-letter-count": ("validate", "1 2 / 2 2 1"),
    "class-dot": ("class", "0 A A 1 / 1 B B 0", "--dot", "-"),
    "cocycle-tbTB": ("cocycle", "1 2 / 2 1", "--walk", "tbTB"),
    "cocycle-minus": ("cocycle", WITNESS, "--walk", "tb", "--minus"),
    "cover-witness": ("cover", WITNESS),
    "extend-witness-3-3": ("extend", WITNESS, "--singularity", "1",
                           "--orders", "3,3"),
    "extend-double-m1-m1-6": ("extend", TAU4, "--singularity", "2",
                              "--orders=-1,-1,6"),
    "search-nonhyp": SEARCH + ("--nonhyp",),
    "identify-h4-odd": ("identify", H4_ODD),
    "group-h4-odd-mod2": ("group", H4_ODD, "--mod", "2"),
    "group-witness-minus-mod2": ("group", WITNESS, "--minus", "--mod", "2"),
    "verify-table": ("verify-table",),
    "verify-table-json": ("--json", "verify-table"),
    "search-nonhyp-json": ("--json",) + SEARCH + ("--nonhyp",),
    "search-truncated-json": ("--json",) + SEARCH + ("--vertices", "3"),
    "extend-double-5-1-m2": ("extend", TAU4, "--singularity", "2",
                             "--orders=5,1,-2"),
    "extend-double-1-1-1": ("extend", TAU4, "--singularity", "2",
                            "--orders=1,1,1"),
    "extend-double-1-3-0": ("extend", TAU4, "--singularity", "2",
                            "--orders=1,3,0"),
    "group-torus-mod2": ("group", "0 1 / 1 0", "--mod", "2"),
    "group-h2-mod2": ("group", TAU4, "--mod", "2"),
    "group-h2-mod3": ("group", TAU4, "--mod", "3"),
    "group-h11-mod2": ("group", TAU5, "--mod", "2"),
    "group-h11-mod3": ("group", TAU5, "--mod", "3"),
    "group-h4-hyp-mod2": ("group", "0 1 2 3 4 5 / 5 4 3 2 1 0", "--mod", "2"),
}


def run(argv, cache_dir):
    """One in-process ``rvq`` command with ``cache_dir`` as its class cache:
    (stdout, stderr, exit code)."""
    from rvq.cli import main
    out, err = io.StringIO(), io.StringIO()
    saved = os.environ.get("RVQ_CACHE_DIR")
    os.environ["RVQ_CACHE_DIR"] = str(cache_dir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code
    finally:
        if saved is None:
            os.environ.pop("RVQ_CACHE_DIR", None)
        else:
            os.environ["RVQ_CACHE_DIR"] = saved
    return out.getvalue(), err.getvalue(), code


def render(argv, stdout, stderr, code):
    return "$ rvq %s\n--- stdout\n%s--- stderr\n%s--- exit %s\n" % (
        shlex.join(argv), stdout, stderr, code)


def test_every_transcript_is_listed():
    files = sorted(path.stem for path in TRANSCRIPTS.glob("*.txt"))
    assert files == sorted(COMMANDS)


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_transcript(name, tmp_path):
    argv = COMMANDS[name]
    expected = (TRANSCRIPTS / (name + ".txt")).read_text()
    assert render(argv, *run(argv, tmp_path)) == expected, "cold"
    assert render(argv, *run(argv, tmp_path)) == expected, "warm"


def regenerate():
    TRANSCRIPTS.mkdir(exist_ok=True)
    for stale in TRANSCRIPTS.glob("*.txt"):
        stale.unlink()
    for name, argv in COMMANDS.items():
        with tempfile.TemporaryDirectory() as cache_dir:
            text = render(argv, *run(argv, cache_dir))
        (TRANSCRIPTS / (name + ".txt")).write_text(text)
        print(text.splitlines()[0])


if __name__ == "__main__":
    sys.exit(regenerate())
