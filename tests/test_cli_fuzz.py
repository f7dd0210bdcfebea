"""A grammar-driven fuzz of the command line: every argv is answered, or refused in one short line.

hypothesis draws argv from the grammar of `oddmult`: each subcommand with its
positionals and options, where any slot may hold a wrong word; an option's
value in the next word or joined to it by `=`, and `--=…` and `--help=…`;
integers that are small, huge, signed, zero-padded or not ASCII digits;
ranges; and --csv paths that are writable, in a missing directory, a
directory, or too long.
Each argv runs through cli.main in process, twice. Sizes stay small (no
integer between 3000 and 10^7), so every answered argv takes milliseconds.
An unwritable stdout and /dev/full are left to the subprocess tests of
test_cli.py: main points stdout's file descriptor at /dev/null on them.
"""

import contextlib
import io

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oddmult.cli import main

LONG = "x" * 300

# argv cannot hold a NUL byte, so no drawn word does
junk = st.text(st.characters(blacklist_characters="\x00"), max_size=12) | st.just(LONG)

integers = st.builds(
    lambda sign, zeros, digits: sign + zeros + digits,
    st.sampled_from(["", "-", "+"]),
    st.sampled_from(["", "0", "000"]),
    st.integers(0, 3000).map(str) | st.integers(8, 5000).map(lambda k: "9" * k),
) | st.sampled_from(["٣", "1_000", " 5", "5.0", "0x10", ""])

ranges = integers | st.builds("{}..{}".format, integers, integers) | st.sampled_from(["..", "1..2..3", "5.."])


# "{root}" stands for a directory the test makes
csv_paths = st.sampled_from(["{root}/out.csv", "{root}/missing/out.csv", "{root}", f"{{root}}/{LONG}/out.csv"])


@st.composite
def argvs(draw):
    """argv of a subcommand, each slot its grammar's word or junk, options in any order."""
    options = {
        "a-value": {},
        "a-parity": {},
        "verify": {"--limit": integers},
        "congruences": {"--p": integers},
        "density": {"--limit": integers, "--csv": csv_paths},
    }
    positionals = {
        "a-value": integers,
        "a-parity": ranges,
        "verify": st.sampled_from(["identities", "theorems", "congruences"]),
        "congruences": st.just("list"),
        "density": st.sampled_from(["even", "4m1", "8m3", "8m7", "all"]),
    }
    sub = draw(st.sampled_from([*positionals, "bogus"]) | junk)
    words = [sub]
    if sub in positionals:
        words += draw(st.lists(positionals[sub] | junk, max_size=2))
        for name in draw(st.lists(st.sampled_from([*options[sub], "--threads", "-h", "--", "--help"]), max_size=3)):
            if name in ("--", "--help"):  # drawn joined only: `--=…` and `--help=…`
                words.append(f"{name}={draw(junk)}")
            elif name in options[sub]:
                value = draw(options[sub][name] | junk)
                words += [f"{name}={value}"] if draw(st.booleans()) else [name, value]
            else:
                words.append(name)
    return [sub, *draw(st.permutations(words[1:]) | st.just(words[1:]))]


def run(argv: list[str]) -> tuple[int, str, str]:
    """The exit code, stdout and stderr of main(argv) in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def root(tmp_path_factory):
    return str(tmp_path_factory.mktemp("fuzz"))


@settings(max_examples=300, deadline=None)
@example(argv=[LONG])
@example(argv=["density", LONG])
@example(argv=["verify", LONG])
@example(argv=["congruences", LONG])
@example(argv=["a-value", "5", LONG])
@example(argv=["density", "all", "--limit", "10", "--csv", f"{{root}}/{LONG}/out.csv"])
@example(argv=["a-parity", "9" * 5000])
@example(argv=["a-value", "5", "two\nlines"])
@example(argv=["density", "all", "--limit", "10", "--csv", "{root}/two\nlines/out.csv"])
@example(argv=["density", "all", f"--={LONG}"])
@example(argv=[f"--help={LONG}"])
@example(argv=["density", "all", "--limit=10", "--csv={root}/out.csv"])
@given(argv=argvs())
def test_every_argv_is_answered_or_refused_in_one_short_line(root, argv):
    argv = [word.replace("{root}", root) for word in argv]
    code, out, err = run(argv)
    assert code in (0, 1, 2), code
    assert "Traceback" not in out + err
    if code == 2:
        # the lines a terminal shows: str.splitlines would also break at \x1c or \x85
        *usage, line, end = err.split("\n")
        assert all(text.startswith(("usage: ", " ")) for text in usage), usage
        assert "error:" in line and len(line) <= 200 and end == "", line
    assert run(argv)[1] == out
