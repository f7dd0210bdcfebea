"""Command-line frontend: values, parities, verification suites, densities.

Every invocation is deterministic: no timestamps and no machine-dependent
content. Exit codes: 0 success, 1 verification discrepancy, 2 usage error
or unwritable output, 141 when the reader of stdout closed it early.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import sys

import numpy as np

from .characterize import CASE_CLASSES, REASONS
from .congruence import all_families, generate_12p_family, generate_24p_family, verify_family
from .density import DISAGREES, density_8m7, key_counts, parity_keys, sparse_odd_census
from .numtheory import is_prime
from .etaq import A_PARITY_QUOTIENT, DISSECTION_CLASSES, a_parity_series, identity_suite
from .partition_oracle import RECOMMENDED_TABLE_LIMIT, build_table

_DENSITY_TAGS = {"even": "even", "4m1": "4m+1", "8m3": "8m+3", "8m7": "8m+7"}

# a-parity answers n below this. Its parity series is as long as the one that
# `verify identities --limit 10^7` builds for its extraction checks.
A_PARITY_LIMIT = 8 * 10**7

# verify and density take --limit up to this. `verify identities` builds the
# parity series to 8 * limit, the a-parity maximum, and `density 8m7` reads
# coefficients up to that degree.
LIMIT_MAX = A_PARITY_LIMIT // 8

# congruences list --p takes primes below this. Its families grow linearly in
# p: p = 9973 prints 9972 lines in under a second.
CONGRUENCE_P_LIMIT = 10**4


# -- a-value / a-parity ---------------------------------------------------


def _cmd_value(args) -> int:
    print(build_table(args.n)[args.n])
    return 0


# The word for a parity bit, wherever one is printed.
_WORDS = ("even", "odd")


def _line_format(key: int) -> str:
    """The a-parity line of key = 4 * case + 2 * flag + bit, "{0}" standing for n."""
    case, flag, bit = key >> 2, key >> 1 & 1, key & 1
    line = f"[{REASONS[key >> 1]}] series={_WORDS[bit]}"
    if CASE_CLASSES[case] == "8m+7":
        return f"n={{0}}: unknown {line}\n"
    return f"n={{0}}: {_WORDS[flag]} {line} agree={'NO' if DISAGREES[key] else 'yes'}\n"


# The line format of every key of parity_keys.
_FORMATS = tuple(map(_line_format, range(len(DISAGREES))))


def _cmd_parity(args) -> int:
    lo, hi = args.range
    ok = True
    # one part of keys at a time, so memory does not grow with the range
    for start, keys in parity_keys(a_parity_series(hi + 1), lo, hi + 1):
        formats = map(_FORMATS.__getitem__, keys.tolist())
        sys.stdout.writelines(map(str.format, formats, range(start, start + len(keys))))
        ok = ok and not DISAGREES @ key_counts(keys)
    return 0 if ok else 1


# -- verify ----------------------------------------------------------------


def _verify_identities(limit: int) -> int:
    # built first, so every identity quotient reads its 1/f_1 as a truncation
    # of the P built for it, and once, so each dissection is an extraction of it
    parity = a_parity_series(8 * limit)
    failures = 0
    for name, lhs, rhs in identity_suite(limit):
        diff = lhs + rhs
        if diff.is_zero():
            print(f"ok   {name}  [to {limit}]")
        else:
            failures += 1
            print(f"FAIL {name}: first mismatch at degree {diff.support()[0]}")
    for tag, (step, offset, quotient) in DISSECTION_CLASSES.items():
        diff = quotient.eval(limit) + parity.truncate(step * limit).extract(step, offset)
        if diff.is_zero():
            print(f"ok   dissection {tag}: closed form matches extraction  [to {limit}]")
        else:
            failures += 1
            print(f"FAIL dissection {tag}: first mismatch at index {diff.support()[0]}")
    return failures


def _verify_theorems(limit: int) -> int:
    discrepancies = 0
    for start, keys in parity_keys(a_parity_series(limit), 0, limit):
        for i in np.flatnonzero(DISAGREES[keys]).tolist() if DISAGREES @ key_counts(keys) else ():
            n, key = start + i, int(keys[i])
            print(f"FAIL n={n}: predicted {_WORDS[key >> 1 & 1]} via [{REASONS[key >> 1].format(n)}], "
                  f"series says {_WORDS[key & 1]}")
            discrepancies += 1
    print(f"checked {limit - limit // 8} values below {limit} (class 8m+7 excluded): "
          f"{discrepancies} discrepancies")
    return discrepancies


def _verify_congruences(limit: int) -> int:
    parity = a_parity_series(limit)
    failures = 0
    for family in all_families():
        result = verify_family(family, parity)
        if result.ok:
            print(f"ok   {family.label} == 0 (mod 2){family.origin}: {result.checked} indices below {limit}")
        else:
            failures += 1
            print(f"FAIL {family.label}{family.origin}: a({result.counterexample}) is odd")
    return failures


def _cmd_verify(args) -> int:
    if args.suite == "identities":
        failures = _verify_identities(args.limit)
    elif args.suite == "theorems":
        failures = _verify_theorems(args.limit)
    else:
        failures = _verify_congruences(args.limit)
    print("PASS" if failures == 0 else f"FAIL ({failures} discrepancies)")
    return 0 if failures == 0 else 1


# -- congruences -----------------------------------------------------------


def _cmd_congruences(args) -> int:
    if args.p is not None:
        families = []
        if args.p >= 5:
            families.extend(generate_12p_family(args.p))
        families.extend(generate_24p_family(args.p))
    else:
        families = all_families()
    for family in families:
        print(f"{family.label} == 0 (mod 2){family.origin}  [{family.source}]")
    return 0


# -- density ---------------------------------------------------------------


def _cmd_density(args) -> int:
    """Print each wanted class's report and, with --csv, write its block.

    args.csv is None or the file that main opened before any work.
    """
    wanted = list(_DENSITY_TAGS.values()) if args.cls == "all" else [_DENSITY_TAGS[args.cls]]
    status = 0
    with args.csv or contextlib.nullcontext():
        # The 8m+7 report is computed first: its cross-check builds the longest
        # cached 1/f_1 (to 2 * limit), and the census's parity series then reads
        # a truncation of it.
        last = [density_8m7(args.limit)] if "8m+7" in wanted else []
        census = sparse_odd_census(args.limit) if wanted != ["8m+7"] else []
        for report in [r for r in census if r.class_tag in wanted] + last:
            tag = report.class_tag
            if report.cross_checked:
                routes = "closed form and extraction"
                check = f"cross-checked {report.cross_checked} indices against extraction"
                series = str(DISSECTION_CLASSES["8m+7"][2])
            else:
                routes = "predicate and series"
                check = f"routes agree: {'yes' if report.mismatch is None else 'NO'}"
                series = f"{A_PARITY_QUOTIENT} extracted at n = {tag}"
            if report.mismatch is not None:
                status = 1
                print(f"FAIL {tag}: {routes} disagree at n={report.mismatch}")
            for mark in report.checkpoints:
                print(f"class {tag}: X={mark.x} odd={mark.odd_count} density={mark.density:.9f}")
            print(f"class {tag}: final density {report.checkpoints[-1].density:.9f} ({check})")
            if args.csv:
                args.csv.write(f"# class: {tag}\n# series: {series}\n# limit: {args.limit}\n"
                               "checkpoint,odd_count,density\n")
                args.csv.writelines(f"{m.x},{m.odd_count},{m.density:.9f}\n" for m in report.checkpoints)
    if args.csv:
        print(f"wrote {args.csv.name}")
    return status


# -- parser ----------------------------------------------------------------


def _head(text: str) -> str:
    """text as an error line shows it: on one line, its first 40 characters, then "..."."""
    text = text.replace("\n", "\\n")
    return text if len(text) <= 40 else text[:40] + "..."


def _integer(text: str) -> int:
    """text as an int if it is ASCII digits after at most one minus sign, and
    no more of them than int() converts (4300 by default)."""
    digits = text.removeprefix("-")
    if not (text.isascii() and digits.isdecimal()):
        raise argparse.ArgumentTypeError(f"invalid int value: {_head(repr(text))}")
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"int value of {len(digits)} digits is too long: {_head(text)}") from None


def _parse_range(text: str) -> tuple[int, int]:
    """Parse "N" or "A..B" with 0 <= A <= B; ValueError "bad range" otherwise."""
    parts = text.split("..")
    with contextlib.suppress(argparse.ArgumentTypeError):
        lo, hi = _integer(parts[0]), _integer(parts[-1])
        if len(parts) <= 2 and 0 <= lo <= hi:
            return lo, hi
    raise ValueError(f"bad range {_head(repr(text))}")


class _Parser(argparse.ArgumentParser):
    """argparse's parser (and so its subparsers'), echoing only the head of
    an invalid choice, an ambiguous option or an ignored explicit argument."""

    def _check_value(self, action, value):
        if action.choices is not None and value not in action.choices:
            choices = ", ".join(map(repr, action.choices))
            raise argparse.ArgumentError(action, f"invalid choice: {_head(repr(value))} (choose from {choices})")

    def _get_option_tuples(self, option_string):
        # refused here, before argparse's own refusal echoes all of option_string
        matches = super()._get_option_tuples(option_string)
        if len(matches) > 1:
            options = ", ".join(match[1] for match in matches)
            self.error(f"ambiguous option: {_head(option_string)} could match {options}")
        return matches

    def _parse_known_args(self, *args):
        try:
            return super()._parse_known_args(*args)
        except argparse.ArgumentError as exc:
            echo = exc.message.removeprefix("ignored explicit argument ")
            if echo != exc.message:
                exc.message = f"ignored explicit argument {_head(echo)}"
            raise


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The oddmult parser, built on the first call and shared after it.

    main may be called many times in one process; building the argparse tree
    each time cost more than most queries it parsed.
    """
    parser = _Parser(
        prog="oddmult",
        description="Parity of a(n), the number of partitions of n whose parts "
        "all appear with odd multiplicity.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_value = sub.add_parser("a-value", help="print a(n) exactly")
    p_value.add_argument("n", type=_integer)

    p_parity = sub.add_parser("a-parity", help="parity verdict for n or a range A..B")
    p_parity.add_argument("range", type=str)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("suite", choices=["identities", "theorems", "congruences"])
    p_verify.add_argument("--limit", type=_integer, default=10_000)

    p_cong = sub.add_parser("congruences", help="list congruence families")
    p_cong.add_argument("action", choices=["list"])
    p_cong.add_argument("--p", type=_integer, default=None, help="only families for this prime")

    p_density = sub.add_parser("density", help="odd-density experiment per residue class")
    p_density.add_argument("cls", choices=[*_DENSITY_TAGS, "all"])
    p_density.add_argument("--limit", type=_integer, default=1_000_000)
    p_density.add_argument("--csv", type=str, default=None)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    text = "".join(argv[1:2]) if argv[:1] == ["a-parity"] else ""
    if text[:1] == "-" and text != "-h" and not "--help".startswith(text):  # a range such as -1..5, not an option
        argv.insert(1, "--")
    args, extra = parser.parse_known_args(argv)
    if extra:
        parser.error(f"unrecognized arguments: {_head(' '.join(extra))}")

    if args.subcommand == "a-value":
        if not 0 <= args.n <= RECOMMENDED_TABLE_LIMIT:
            parser.error(f"a-value supports 0 <= n <= {RECOMMENDED_TABLE_LIMIT}")
    elif args.subcommand == "a-parity":
        try:
            args.range = _parse_range(args.range)
        except ValueError as exc:
            parser.error(str(exc))
        if args.range[1] >= A_PARITY_LIMIT:
            parser.error(f"a-parity supports 0 <= n < {A_PARITY_LIMIT}")
    else:
        if getattr(args, "limit", 1) < 1:
            parser.error("--limit must be >= 1")
        if getattr(args, "limit", 1) > LIMIT_MAX:
            parser.error(f"--limit supports at most {LIMIT_MAX}, got {_head(str(args.limit))}")
        if getattr(args, "p", None) is not None:
            if args.p >= CONGRUENCE_P_LIMIT:
                parser.error(f"--p supports primes below {CONGRUENCE_P_LIMIT}, got {_head(str(args.p))}")
            if args.p < 3 or not is_prime(args.p):
                parser.error(f"--p must be an odd prime, got {args.p}")
        if getattr(args, "csv", None) is not None:
            # opened last among the checks, so nothing is written for a refused
            # command, and before any work, so an unwritable path costs none
            try:
                args.csv = open(args.csv, "w", encoding="utf-8")
            except OSError as exc:
                parser.error(f"cannot write --csv {_head(args.csv)}: {exc.strerror}")

    commands = {
        "a-value": _cmd_value,
        "a-parity": _cmd_parity,
        "verify": _cmd_verify,
        "congruences": _cmd_congruences,
        "density": _cmd_density,
    }
    try:
        status = commands[args.subcommand](args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early, as `| head` does. Point stdout at
        # devnull so the interpreter's final flush stays quiet, and exit with
        # the status a shell gives a process that SIGPIPE killed (128 + 13).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except OSError as exc:  # a write to stdout or --csv failed: flush what stdout still takes
        with contextlib.suppress(OSError):
            sys.stdout.flush()
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"oddmult: cannot write output: {exc.strerror}", file=sys.stderr)
        return 2
    return status


if __name__ == "__main__":
    sys.exit(main())
