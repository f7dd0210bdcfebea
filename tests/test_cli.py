import errno
import hashlib
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import oddmult
from oddmult import a_parity_series, characterize, cli, sparse_odd_census
from oddmult.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_a_value(capsys):
    code, out = run_cli(capsys, "a-value", "5")
    assert code == 0 and out.strip() == "5"


def test_a_value_range_guard():
    with pytest.raises(SystemExit) as exc:
        main(["a-value", "999999999"])
    assert exc.value.code == 2


def test_a_parity_even_case(capsys):
    code, out = run_cli(capsys, "a-parity", "9")
    assert code == 0
    assert "n=9: even" in out and "agree=yes" in out


def test_a_parity_unknown_class(capsys):
    code, out = run_cli(capsys, "a-parity", "7")
    assert code == 0
    assert "unknown" in out


def test_a_parity_range(capsys):
    code, out = run_cli(capsys, "a-parity", "0..20")
    assert code == 0
    assert out.count("\n") == 21
    assert "agree=NO" not in out


def test_a_parity_range_matches_single_queries(capsys):
    code, out = run_cli(capsys, "a-parity", "995..1010")
    assert code == 0
    singles = "".join(run_cli(capsys, "a-parity", str(n))[1] for n in range(995, 1011))
    assert out == singles
    table = oddmult.build_table(1010)
    for n, line in zip(range(995, 1011), out.splitlines()):
        assert f"series={'odd' if table[n] & 1 else 'even'}" in line


@pytest.mark.parametrize("window", [1, 5, 15, 16])
def test_a_parity_range_straddling_chunks_matches_single_queries(monkeypatch, capsys, window):
    # a range is written in chunks of one flag window each. 995..1010 is 16
    # degrees: windows of 5 end at 999, 1004 and 1009, a window of 15 leaves
    # one line for the second, and one of 16 holds them all
    monkeypatch.setattr(characterize, "FLAG_WINDOW", window)
    code, out = run_cli(capsys, "a-parity", "995..1010")
    assert code == 0
    assert out == "".join(run_cli(capsys, "a-parity", str(n))[1] for n in range(995, 1011))


def test_a_parity_range_across_the_real_chunk_boundary(capsys):
    # lo..lo + FLAG_WINDOW is one full window, written as one chunk, and a
    # second of one line
    lo = 3
    hi = lo + characterize.FLAG_WINDOW
    code, out = run_cli(capsys, "a-parity", f"{lo}..{hi}")
    assert code == 0
    lines = out.splitlines(keepends=True)
    assert len(lines) == hi - lo + 1
    for n in (lo, lo + 1, hi - 2, hi - 1, hi):
        assert lines[n - lo] == run_cli(capsys, "a-parity", str(n))[1]


def singles(capsys, lo, hi):
    return "".join(run_cli(capsys, "a-parity", str(n))[1] for n in range(lo, hi + 1))


@pytest.mark.parametrize("lo, hi", [(0, 700), (262_000, 263_000)])
def test_a_parity_range_matches_single_queries_on_special_cases(capsys, lo, hi):
    # 0..700 holds n = 0 and the n = 18 j^2 whose root 3j makes them even;
    # 262000..263000 crosses the first FLAG_WINDOW edge at 262144
    code, out = run_cli(capsys, "a-parity", f"{lo}..{hi}")
    assert code == 0
    assert out == singles(capsys, lo, hi)
    if lo == 0:
        assert "n=0: odd [2m: m = 0] series=odd agree=yes\n" in out
        assert "n=648: even [2m: m = k^2 but 3 | k] series=even agree=yes\n" in out


@pytest.mark.parametrize("window", [1, 7, 24, 64, 1000])
def test_a_parity_range_in_small_windows_matches_single_queries(monkeypatch, capsys, window):
    monkeypatch.setattr(characterize, "FLAG_WINDOW", window)
    code, out = run_cli(capsys, "a-parity", "157..2100")
    assert code == 0
    assert out == singles(capsys, 157, 2100)


def test_a_parity_range_reports_a_flipped_flag(flip_flags, capsys):
    flip_flags(5, 15)  # a(5) = 5 is odd; 15 is 7 (mod 8), where flags are not read
    code, out = run_cli(capsys, "a-parity", "0..20")
    assert code == 1
    lines = out.splitlines()
    assert lines[5] == "n=5: even [4m+1: m == 1 (mod 3), exponent pattern fails] series=odd agree=NO"
    assert [n for n, line in enumerate(lines) if "agree=NO" in line] == [5]
    assert lines[15] == "n=15: unknown [8m+7: uncharacterized class] series=odd"


def test_a_parity_bad_range(monkeypatch, capsys):
    monkeypatch.setattr("oddmult.cli.a_parity_series", no_series)
    # int() alone takes "+5", " 5", "1_000" and the Arabic-Indic three
    # argparse alone would read "-1..5", "-x" and "--5" as options
    for text in ("9..3", "5..x", "x", "1..2..3", "", "..5", "5..", "-1", "10**12", "+5", " 5", "1_000", "\u0663",
                 "5..+7", "-1..5", "-x", "--5"):
        with pytest.raises(SystemExit) as exc:
            main(["a-parity", text])
        assert exc.value.code == 2, text
        assert capsys.readouterr().err.splitlines()[-1] == f"oddmult: error: bad range '{text}'"


def test_verify_identities(capsys):
    code, out = run_cli(capsys, "verify", "identities", "--limit", "1500")
    assert code == 0
    assert out.strip().endswith("PASS")
    assert out.count("ok ") == 14  # 8 identities + 6 dissections
    identities = [
        "f1^3 = f3 + q f9^3",
        "f1^3 f3^3 = f1^12 + q f3^12",
        "f3^3/f1 = sum_k q^(k(3k-2))",
        "f3/f1^3 = f1^6/f3^2 + q f3^10/f1^6",
        "f3^5/f1^3 = f1^6 f3^2 + q f3^14/f1^6",
        "f3^7/f1^3 = f1^6 f3^4 + q f3^16/f1^6",
        "f1^3 f3 = f3^2 + q f3 f9^3",
        "f1^3 f3^2 = f3^3 + q f3^2 f9^3",
    ]
    tags = ["2m", "2m+1", "4m+1", "4m+3", "8m+3", "8m+7"]
    dissections = [f"dissection {tag}: closed form matches extraction" for tag in tags]
    assert out.splitlines() == [f"ok   {line}  [to 1500]" for line in identities + dissections] + ["PASS"]


def test_verify_theorems(capsys):
    code, out = run_cli(capsys, "verify", "theorems", "--limit", "5000")
    assert code == 0
    assert "0 discrepancies" in out


def test_verify_theorems_reports_each_discrepancy(flip_flags, capsys):
    # each line gives the flipped flag's verdict and the reason for that
    # verdict, from the case of n
    cases = {
        # a(5) = 5 and a(25) are odd
        (100, (5, 25)): [
            "FAIL n=5: predicted even via [4m+1: m == 1 (mod 3), exponent pattern fails], series says odd",
            "FAIL n=25: predicted even via [4m+1: m == 0 (mod 3), 25 not a square], series says odd",
            "checked 88 values below 100 (class 8m+7 excluded): 2 discrepancies",
        ],
        # either side of 32768 = 2^15, where parity_keys goes on in its next
        # part of a window; 32767 is 7 (mod 8), where flags are not read
        (40_000, (32767, 32768, 32769)): [
            "FAIL n=32768: predicted even via [2m: m not a square], series says odd",
            "FAIL n=32769: predicted odd via [4m+1: m == 2 (mod 3) is always even, but 32769 is flagged odd], "
            "series says even",
            "checked 35000 values below 40000 (class 8m+7 excluded): 2 discrepancies",
        ],
    }
    for (limit, flips), lines in cases.items():
        flip_flags(*flips)
        code, out = run_cli(capsys, "verify", "theorems", "--limit", str(limit))
        assert code == 1
        assert out.splitlines() == lines + ["FAIL (2 discrepancies)"], limit


def test_a_flag_against_a_fixed_parity_prints_the_contradiction(flip_flags, capsys):
    # a(0) = 1 is always odd; a(9), a(18) = a(2 * 3^2) and a(19) are always
    # even. A flipped flag there gets a reason that names the contradiction.
    flip_flags(0, 9, 18, 19)
    wrong = []
    for text in ("0..1", "8..9", "17..19"):
        code, out = run_cli(capsys, "a-parity", text)
        assert code == 1, text
        wrong += [line for line in out.splitlines() if "agree=NO" in line]
    # each single query prints the same line as its range
    for n, line in zip((0, 9, 18, 19), wrong):
        assert run_cli(capsys, "a-parity", str(n)) == (1, line + "\n"), n
    assert wrong == [
        "n=0: even [2m: m = 0 is always odd, but 0 is flagged even] series=odd agree=NO",
        "n=9: odd [4m+1: m == 2 (mod 3) is always even, but 9 is flagged odd] series=even agree=NO",
        "n=18: odd [2m: m = k^2 but 3 | k is always even, but 18 is flagged odd] series=even agree=NO",
        "n=19: odd [8m+3: m == 2 (mod 3) is always even, but 19 is flagged odd] series=even agree=NO",
    ]
    code, out = run_cli(capsys, "verify", "theorems", "--limit", "100")
    assert code == 1
    assert out.splitlines() == [
        "FAIL n=0: predicted even via [2m: m = 0 is always odd, but 0 is flagged even], series says odd",
        "FAIL n=9: predicted odd via [4m+1: m == 2 (mod 3) is always even, but 9 is flagged odd], series says even",
        "FAIL n=18: predicted odd via [2m: m = k^2 but 3 | k is always even, but 18 is flagged odd], "
        "series says even",
        "FAIL n=19: predicted odd via [8m+3: m == 2 (mod 3) is always even, but 19 is flagged odd], "
        "series says even",
        "checked 88 values below 100 (class 8m+7 excluded): 4 discrepancies",
        "FAIL (4 discrepancies)",
    ]


# exit code and sha256 of stdout, clean and with every flag below 10^4
# flipped. All 26 cases occur below 10^4, so the two a-parity runs print the
# line of every case, flag and series bit that the series can give, and the
# flipped verify run the FAIL line of every reason a wrong flag can get.
EVERY_VERDICT_RUNS = {
    ("clean", "a-parity", "0..9999"): (0, "21109f8b27a77f3918caf84dc65878a7d72dcaf26239da3a3cb900a39e0ed538"),
    ("flipped", "a-parity", "0..9999"): (1, "f48e7f1355c28c5f62841ea8504bc21913ae0a7e20da6f6707382141fabc7417"),
    ("flipped", "verify", "theorems", "--limit", "10000"):
        (1, "9f6f06ad709166dc860678a15ca476c816fa088f64acbb5c9de698c30d12029a"),
}


@pytest.mark.parametrize("run", EVERY_VERDICT_RUNS, ids=" ".join)
def test_every_verdict_line_is_pinned(run, flip_flags, capsys):
    if run[0] == "flipped":
        flip_flags(*range(10_000))
    code, out = run_cli(capsys, *run[1:])
    assert (code, sha256(out)) == EVERY_VERDICT_RUNS[run]


def last_n_of_each_case(limit):
    """The last n below limit of each case of characterize.cases, in case order."""
    found = characterize.cases(0, limit)
    return [int(np.flatnonzero(found == case)[-1]) for case in range(len(characterize.REASONS) // 2)]


ONE_N_PER_CASE = last_n_of_each_case(10**6)


@pytest.mark.parametrize("flipped", [False, True], ids=["clean", "flipped"])
def test_one_n_prints_what_a_range_prints(flipped, flip_flags, capsys):
    # a-parity n, a-parity n..n and the first line of a-parity n..n+1, a range
    # that walks odd_flag_windows, print the same bytes, for one n of every
    # case, n = 0 and an 18 j^2 among them, with true and with flipped flags
    assert len(ONE_N_PER_CASE) == 26 and ONE_N_PER_CASE[characterize.ZERO] == 0
    assert ONE_N_PER_CASE[characterize.TRIPLE_ROOT] == 18 * 235**2
    if flipped:
        flip_flags(*ONE_N_PER_CASE)
    for n in ONE_N_PER_CASE:
        code, out = run_cli(capsys, "a-parity", str(n))
        assert code == (flipped and n % 8 != 7) and out.count("\n") == 1, n
        assert run_cli(capsys, "a-parity", f"{n}..{n}") == (code, out), n
        assert run_cli(capsys, "a-parity", f"{n}..{n + 1}")[1].splitlines(keepends=True)[0] == out, n


# sha256 of the stdout of `verify congruences --limit 5000`
CONGRUENCES_5000_STDOUT = "0496e38fcff25dbcc470e86438d0b57913118518876a19c734e65b718edaf179"


def test_verify_congruences(capsys):
    code, out = run_cli(capsys, "verify", "congruences", "--limit", "5000")
    assert code == 0
    assert out.count("ok ") == 24
    assert out.strip().endswith("PASS")
    # the per-family counts of indices checked
    assert sha256(out) == CONGRUENCES_5000_STDOUT


def test_verify_identities_reports_a_false_identity(monkeypatch, capsys):
    f1, f3 = (oddmult.EtaQuotient.of({r: 1}).eval(500) for r in (1, 3))
    monkeypatch.setattr(cli, "identity_suite", lambda limit: [("f1 = f3", f1, f3)])
    code, out = run_cli(capsys, "verify", "identities", "--limit", "500")
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "FAIL f1 = f3: first mismatch at degree 1"
    assert len(lines) == 8 and lines[-1] == "FAIL (1 discrepancies)"


def test_verify_identities_reports_a_wrong_closed_form(monkeypatch, capsys):
    # the 8m+3 closed form given as that of 4m+1: a(4m+1) and a(8m+3) first
    # differ at m = 3, a(13) = 40 against a(27) = 773
    classes = oddmult.etaq.DISSECTION_CLASSES
    monkeypatch.setitem(classes, "4m+1", (4, 1, classes["8m+3"][2]))
    code, out = run_cli(capsys, "verify", "identities", "--limit", "500")
    assert code == 1
    assert [line for line in out.splitlines() if line.startswith("FAIL")] == [
        "FAIL dissection 4m+1: first mismatch at index 3",
        "FAIL (1 discrepancies)",
    ]


def test_verify_congruences_reports_a_family_with_an_odd_value(monkeypatch, capsys):
    # a(8n+7) is no family: a(7) = 9
    real = cli.all_families
    monkeypatch.setattr(cli, "all_families", lambda: (oddmult.CongruenceFamily(8, 7, "the open class"), *real()))
    code, out = run_cli(capsys, "verify", "congruences", "--limit", "1000")
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "FAIL a(8n+7): a(7) is odd"
    assert lines.count("FAIL (1 discrepancies)") == 1 and len(lines) == 26


def test_congruences_list(capsys):
    code, out = run_cli(capsys, "congruences", "list")
    assert code == 0
    lines = [l for l in out.splitlines() if l]
    assert len(lines) == 24
    assert any("a(60n+13)" in l for l in lines)
    assert any("a(264n+219)" in l for l in lines)


def test_congruences_list_single_prime(capsys):
    code, out = run_cli(capsys, "congruences", "list", "--p", "5")
    assert code == 0
    assert "a(60n+13)" in out and "a(120n+99)" in out


def test_congruences_list_rejects_bad_prime():
    for bad in ("4", "2", "15"):
        with pytest.raises(SystemExit) as exc:
            main(["congruences", "list", "--p", bad])
        assert exc.value.code == 2


def test_density_plain(capsys):
    code, out = run_cli(capsys, "density", "8m7", "--limit", "2000")
    assert code == 0
    assert "final density" in out


def test_density_csv(tmp_path, capsys):
    target = tmp_path / "even.csv"
    code, out = run_cli(capsys, "density", "even", "--limit", "20000", "--csv", str(target))
    assert code == 0
    text = target.read_text()
    assert text.startswith("# class: even\n")
    assert "checkpoint,odd_count,density\n" in text
    rows = [l for l in text.splitlines() if l and not l.startswith("#")][1:]
    assert all(len(r.split(",")) == 3 for r in rows)


def test_density_csv_names_each_series(tmp_path, capsys):
    target = tmp_path / "all.csv"
    run_cli(capsys, "density", "all", "--limit", "2000", "--csv", str(target))
    assert [line for line in target.read_text().splitlines() if line.startswith("# series:")] == [
        "# series: f3 / f1^3 extracted at n = even",
        "# series: f3 / f1^3 extracted at n = 4m+1",
        "# series: f3 / f1^3 extracted at n = 8m+3",
        "# series: f3^8 / f1^3",
    ]


def test_density_csv_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run_cli(capsys, "density", "all", "--limit", "5000", "--csv", str(a))
    run_cli(capsys, "density", "all", "--limit", "5000", "--csv", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_verify_identities_builds_the_parity_series_once(monkeypatch, capsys):
    # every dissection check extracts from the one series built to 8 * limit
    built = []
    quotient = oddmult.etaq.A_PARITY_QUOTIENT

    class CountingQuotient:
        plan = quotient.plan

        def eval(self, trunc_len):
            built.append(trunc_len)
            return quotient.eval(trunc_len)

    monkeypatch.setattr(oddmult.etaq, "_longest", {})
    monkeypatch.setattr(oddmult.etaq, "A_PARITY_QUOTIENT", CountingQuotient())
    code, out = run_cli(capsys, "verify", "identities", "--limit", "500")
    assert code == 0 and out.endswith("PASS\n")
    assert built == [4000]


def test_density_all_builds_the_parity_series_once(monkeypatch, capsys):
    # the census builds the parity series to the limit; the 8m+7 cross-check
    # reads its 1000 coefficients, up to degree 8 * limit, without it
    built, sampled = [], []
    quotient = oddmult.etaq.A_PARITY_QUOTIENT
    real_parity_at = oddmult.density.a_parity_at

    class CountingQuotient:
        plan = quotient.plan

        def eval(self, trunc_len):
            built.append(trunc_len)
            return quotient.eval(trunc_len)

    def recording_parity_at(degrees):
        sampled.append(list(degrees))
        return real_parity_at(degrees)

    monkeypatch.setattr(oddmult.etaq, "_longest", {})
    monkeypatch.setattr(oddmult.etaq, "A_PARITY_QUOTIENT", CountingQuotient())
    monkeypatch.setattr(oddmult.density, "a_parity_at", recording_parity_at)
    code, out = run_cli(capsys, "density", "all", "--limit", "5000")
    assert code == 0
    assert built == [5000]
    assert len(sampled) == 1 and len(set(sampled[0])) == 1000
    assert all(n % 8 == 7 and n < 40000 for n in sampled[0])
    assert out.splitlines()[0].startswith("class even: X=1000 ")
    assert out.splitlines()[-1].startswith("class 8m+7: final density ")


def test_density_census_fails_on_mismatches_whose_counts_cancel(flip_flags, capsys):
    # a(5) = 5 is odd and a(9) = 16 even: the flipped flags keep the class's
    # odd count, so only a bit-for-bit check sees them
    flip_flags(5, 9)
    code, out = run_cli(capsys, "density", "4m1", "--limit", "2000")
    assert code == 1
    assert out.splitlines() == [
        "FAIL 4m+1: predicate and series disagree at n=5",
        "class 4m+1: X=1000 odd=61 density=0.244000000",
        "class 4m+1: X=2000 odd=103 density=0.206000000",
        "class 4m+1: final density 0.206000000 (routes agree: NO)",
    ]


@pytest.mark.parametrize("width", [1000, characterize.FLAG_WINDOW])
@pytest.mark.parametrize("limit", [8192, 32768, 32769, 65536, 100_000])
def test_density_prints_one_line_per_class_and_checkpoint(capsys, monkeypatch, limit, width):
    # windows of 1000 n end a part of keys at every decade: a checkpoint there
    # is printed once, not again at the start of the next part
    monkeypatch.setattr(characterize, "FLAG_WINDOW", width)
    code, out = run_cli(capsys, "density", "all", "--limit", str(limit))
    assert code == 0
    bits = a_parity_series(limit).to_bit_array()
    points = oddmult.density.checkpoints_upto(limit)
    for tag, step, offset in (("even", 2, 0), ("4m+1", 4, 1), ("8m+3", 8, 3)):
        odd = [int(bits[offset:x:step].sum()) for x in points]
        expected = [
            f"class {tag}: X={x} odd={o} density={o / len(range(offset, x, step)):.9f}" for x, o in zip(points, odd)
        ]
        assert [line for line in out.splitlines() if line.startswith(f"class {tag}: X=")] == expected, tag


def test_flipped_flag_past_the_first_part(flip_flags, capsys):
    # 40961 == 1 (mod 4) lies past the first part of 2^15 keys and the first
    # slice of 2^13; a flipped flag at 40967 == 7 (mod 8) means nothing
    limit = 50_000
    clean = {r.class_tag: r.checkpoints for r in sparse_odd_census(limit)}
    flip_flags(40961, 40967)
    census = sparse_odd_census(limit)
    assert {r.class_tag: r.mismatch for r in census} == {"even": None, "4m+1": 40961, "8m+3": None}
    assert {r.class_tag: r.checkpoints for r in census} == clean
    code, out = run_cli(capsys, "a-parity", "40000..41000")
    assert code == 1
    assert [line.split(":")[0] for line in out.splitlines() if "agree=NO" in line] == ["n=40961"]
    assert "n=40967: unknown " in out
    code, out = run_cli(capsys, "verify", "theorems", "--limit", str(limit))
    assert code == 1
    assert [line for line in out.splitlines() if line.startswith("FAIL")] == [
        "FAIL n=40961: predicted even via [4m+1: m == 1 (mod 3), exponent pattern fails], series says odd",
        "FAIL (1 discrepancies)",
    ]


def test_density_census_fail_still_writes_every_block(flip_flags, capsys, tmp_path):
    # a census mismatch fails the run but keeps the report: every class is
    # printed and written, in the order even, 4m+1, 8m+3, 8m+7
    flip_flags(5, 9)
    target = tmp_path / "all.csv"
    code, out = run_cli(capsys, "density", "all", "--limit", "2000", "--csv", str(target))
    assert code == 1
    lines = out.splitlines()
    assert lines[3] == "FAIL 4m+1: predicate and series disagree at n=5"
    assert [l for l in lines if l.startswith("FAIL")] == [lines[3]]
    assert lines[-1] == f"wrote {target}"
    blocks = target.read_text().split("# class: ")[1:]
    assert [block.split("\n")[0] for block in blocks] == ["even", "4m+1", "8m+3", "8m+7"]
    for block in blocks:
        tag = block.split("\n")[0]
        rows = [
            l.split(": ")[1].replace("X=", "").replace(" odd=", ",").replace(" density=", ",")
            for l in lines
            if l.startswith(f"class {tag}: X=")
        ]
        assert len(rows) == 2, tag
        assert block.split("checkpoint,odd_count,density\n")[1].splitlines() == rows, tag


def test_density_8m7_cross_check_mismatch_is_a_fail_line(monkeypatch, capsys, tmp_path):
    # a flipped extraction bit at the first sampled n fails the run but keeps
    # the report: the FAIL line opens the 8m+7 lines, and every other line and
    # all four CSV blocks are those of a clean run
    monkeypatch.chdir(tmp_path)
    argvs = (["density", "8m7", "--limit", "2000"], ["density", "all", "--limit", "2000", "--csv", "x.csv"])
    clean = [run_cli(capsys, *argv) for argv in argvs]
    assert [code for code, _ in clean] == [0, 0]
    clean_csv = (tmp_path / "x.csv").read_text()
    real_parity_at = oddmult.density.a_parity_at

    def flip_first(degrees):
        bits = real_parity_at(degrees)
        bits[0] ^= 1
        return bits

    monkeypatch.setattr(oddmult.density, "a_parity_at", flip_first)
    (tmp_path / "x.csv").unlink()
    for argv, (_, clean_out) in zip(argvs, clean):
        code, out = run_cli(capsys, *argv)
        assert code == 1, argv
        lines = clean_out.splitlines(keepends=True)
        at = next(i for i, line in enumerate(lines) if line.startswith("class 8m+7: "))
        lines.insert(at, "FAIL 8m+7: closed form and extraction disagree at n=39\n")  # m = 4
        assert out == "".join(lines), argv
    assert (tmp_path / "x.csv").read_text() == clean_csv
    assert [block.split("\n")[0] for block in clean_csv.split("# class: ")[1:]] == ["even", "4m+1", "8m+3", "8m+7"]


# sha256 of stdout and of the CSV, run in the CSV's directory, as the
# whole-range sieve gave them before the flags were read one window at a time
DENSITY_200K_STDOUT = "f756ac46632a0b18373beb15c3a08004ab1d44ddd2c1ea370625f077156d3dd1"
DENSITY_200K_CSV = "3907a2517a3cee7a31b455baf44ddd107dde6154acc6cce12baeaaa31eb5c470"
THEOREMS_200K_STDOUT = "e4a1ce94a8dc4a14aaec5a400d5cf8c85d17f96f9ca14d55fc05671ea9e6d7c5"


def sha256(data: str | bytes) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


@pytest.mark.parametrize("width", [64, 1000, characterize.FLAG_WINDOW])
def test_flag_window_seams_leave_every_byte(width, monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(characterize, "FLAG_WINDOW", width)
    monkeypatch.chdir(tmp_path)
    code, out = run_cli(capsys, "density", "all", "--limit", "200000", "--csv", "census.csv")
    assert code == 0
    assert sha256(out) == DENSITY_200K_STDOUT
    assert sha256((tmp_path / "census.csv").read_bytes()) == DENSITY_200K_CSV
    code, out = run_cli(capsys, "verify", "theorems", "--limit", "200000")
    assert code == 0
    assert sha256(out) == THEOREMS_200K_STDOUT


def test_census_and_verify_theorems_memory_envelope(monkeypatch, capsys):
    # tracemalloc sees numpy's buffers; the whole-range sieve peaked at 4.9 MB
    # here, and each window of the flags costs a few bytes per entry
    limit = 10**6
    monkeypatch.setattr(oddmult.etaq, "_longest", {})
    a_parity_series(limit)  # the series itself is outside the envelope
    for run in (lambda: sparse_odd_census(limit), lambda: cli._verify_theorems(limit)):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5e6, peak
    assert capsys.readouterr().out.endswith("0 discrepancies\n")


def test_a_parity_range_memory_envelope(monkeypatch):
    # keys are made one part of 2^15 n at a time: keys for a whole flag window
    # of 2^18 n peaked at 1.32 MB here, parts at 0.84 MB. stdout is devnull,
    # not capsys, which would hold the 78 MB of text.
    monkeypatch.setattr(oddmult.etaq, "_longest", {})
    a_parity_series(10**6)  # the series itself is outside the envelope
    with open(os.devnull, "w") as devnull:
        monkeypatch.setattr(sys, "stdout", devnull)
        tracemalloc.start()
        try:
            assert main(["a-parity", "0..999999"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak <= 1.0e6, peak


def test_verify_identities_memory_envelope(monkeypatch, capsys):
    # the identities are built one at a time: holding all 16 of their sides
    # at once peaked at 2.4 MB here, one identity's two sides at 1.4 MB
    limit = 10**6
    monkeypatch.setattr(oddmult.etaq, "_longest", {})
    a_parity_series(8 * limit)  # the series itself is outside the envelope
    tracemalloc.start()
    try:
        assert cli._verify_identities(limit) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.6e6, peak
    assert "FAIL" not in capsys.readouterr().out


def test_density_refuses_an_unwritable_csv_before_computing(monkeypatch, capsys, tmp_path):
    for name in ("density_8m7", "sparse_odd_census"):
        monkeypatch.setattr(f"oddmult.cli.{name}", no_series)
    # relative paths, shorter than the 40 characters an error line echoes
    monkeypatch.chdir(tmp_path)
    for target, reason in (("missing/x.csv", "No such file or directory"), (".", "Is a directory")):
        with pytest.raises(SystemExit) as exc:
            main(["density", "even", "--limit", "1000", "--csv", target])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"oddmult: error: cannot write --csv {target}: {reason}"
        )
    # a refused --limit writes no file
    target = tmp_path / "x.csv"
    with pytest.raises(SystemExit) as exc:
        main(["density", "all", "--limit", "10000001", "--csv", str(target)])
    assert exc.value.code == 2
    assert not target.exists()


def test_stdout_deterministic(capsys):
    _, first = run_cli(capsys, "density", "8m3", "--limit", "3000")
    _, second = run_cli(capsys, "density", "8m3", "--limit", "3000")
    assert first == second


def no_series(trunc_len):
    raise AssertionError(f"a series of {trunc_len} coefficients was built")


def test_usage_error_exit_code(monkeypatch):
    # a refused a-parity range or --limit must stop before any series or flag window is built
    for name in ("a_parity_series", "parity_keys", "identity_suite", "density_8m7", "sparse_odd_census"):
        monkeypatch.setattr(f"oddmult.cli.{name}", no_series)
    monkeypatch.setattr("oddmult.density.odd_flag_windows", no_series)
    for argv in (
        ["density", "bogus-class"],
        ["verify", "theorems", "--threads", "2"],
        ["a-parity", "80000000"],
        ["a-parity", "5..80000000"],
        ["a-parity", "10**12"],
        ["congruences", "list", "--p", "10007"],
        ["verify", "identities", "--limit", "10000001"],
        ["verify", "theorems", "--limit", "10000001"],
        ["verify", "congruences", "--limit", "10000001"],
        ["density", "all", "--limit", "10000001"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv


def test_a_parity_refusal_is_one_line(monkeypatch, capsys):
    monkeypatch.setattr("oddmult.cli.a_parity_series", no_series)
    with pytest.raises(SystemExit) as exc:
        main(["a-parity", "1000000000000"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == "oddmult: error: a-parity supports 0 <= n < 80000000"


def test_limit_refusal_is_one_line(monkeypatch, capsys):
    for name in ("a_parity_series", "parity_keys", "identity_suite"):
        monkeypatch.setattr(f"oddmult.cli.{name}", no_series)
    monkeypatch.setattr("oddmult.density.odd_flag_windows", no_series)
    for argv in (["verify", "theorems", "--limit", "10000001"], ["verify", "identities", "--limit", str(10**10)]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"oddmult: error: --limit supports at most 10000000, got {argv[-1]}"
        )


def test_limit_below_one_is_refused_in_one_line(monkeypatch, capsys):
    for name in ("_cmd_verify", "_cmd_density"):
        monkeypatch.setattr(f"oddmult.cli.{name}", no_series)
    for argv in (["verify", "theorems", "--limit", "0"], ["density", "all", "--limit", "-5"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        assert capsys.readouterr().err.splitlines()[-1] == "oddmult: error: --limit must be >= 1"


def test_limit_accepts_the_cap(monkeypatch):
    # the boundary itself: only the range check runs, nothing is computed
    seen = []
    monkeypatch.setattr("oddmult.cli._cmd_verify", lambda args: seen.append(args.limit) or 0)
    monkeypatch.setattr("oddmult.cli._cmd_density", lambda args: seen.append(args.limit) or 0)
    assert main(["verify", "identities", "--limit", "10000000"]) == 0
    assert main(["density", "8m7", "--limit", "10000000"]) == 0
    assert seen == [10**7, 10**7]


def test_integer_arguments_take_ascii_digits_only(monkeypatch, capsys):
    # int() alone would take each of these as 5, 1000 and 13
    for name in ("build_table", "_cmd_verify", "_cmd_congruences"):
        monkeypatch.setattr(f"oddmult.cli.{name}", no_series)
    for argv, shown in (
        (["a-value", "+5"], "argument n: invalid int value: '+5'"),
        (["verify", "theorems", "--limit", "1_000"], "argument --limit: invalid int value: '1_000'"),
        (["congruences", "list", "--p", "+13"], "argument --p: invalid int value: '+13'"),
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        assert capsys.readouterr().err.splitlines()[-1].endswith(shown), argv


def test_integer_arguments_past_int_digit_limit_are_one_short_line(monkeypatch, capsys):
    # int() refuses more than 4300 digits with a message naming sys.set_int_max_str_digits
    for name in ("build_table", "a_parity_series", "_cmd_verify", "_cmd_congruences"):
        monkeypatch.setattr(f"oddmult.cli.{name}", no_series)
    digits = "7" * 5000
    for argv, names in (
        (["a-value", digits], "argument n: int value of 5000 digits is too long: 7777"),
        (["a-parity", digits], "bad range '7777"),
        (["a-parity", f"0..{digits}"], "bad range '0..7777"),
        (["verify", "theorems", "--limit", digits], "argument --limit: int value of 5000 digits"),
        (["congruences", "list", "--p", digits], "argument --p: int value of 5000 digits"),
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv[:-1]
        errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        assert len(errors) == 1 and len(errors[0]) <= 200, errors
        assert names in errors[0], errors


def test_every_echo_of_a_long_argument_is_cut_to_40_characters(monkeypatch, capsys, tmp_path):
    # argparse's own refusals echoed a 300-character argument whole, in lines of 340-430 characters
    monkeypatch.setattr("oddmult.cli._cmd_density", no_series)
    monkeypatch.chdir(tmp_path)
    long, head = "x" * 300, "x" * 40 + "..."
    for argv, line in (
        ([long], f"oddmult: error: argument subcommand: invalid choice: '{head[1:]} "
                 "(choose from 'a-value', 'a-parity', 'verify', 'congruences', 'density')"),
        (["density", long], f"oddmult density: error: argument cls: invalid choice: '{head[1:]} "
                            "(choose from 'even', '4m1', '8m3', '8m7', 'all')"),
        (["verify", long], f"oddmult verify: error: argument suite: invalid choice: '{head[1:]} "
                           "(choose from 'identities', 'theorems', 'congruences')"),
        (["congruences", long], f"oddmult congruences: error: argument action: invalid choice: '{head[1:]} "
                                "(choose from 'list')"),
        (["a-value", "5", long], f"oddmult: error: unrecognized arguments: {head}"),
        (["a-value", "5", "two\nlines"], "oddmult: error: unrecognized arguments: two\\nlines"),
        (["density", "all", "--csv", f"{long}/a.csv"],
         f"oddmult: error: cannot write --csv {head}: {os.strerror(errno.ENAMETOOLONG)}"),
        (["density", "all", f"--={long}"],
         f"oddmult density: error: ambiguous option: --={head[3:]} could match --help, --limit, --csv"),
        ([f"--help={long}"], f"oddmult: error: argument -h/--help: ignored explicit argument '{head[1:]}"),
        # short echoes are whole, as before
        (["density", "all", "--=5"], "oddmult density: error: ambiguous option: --=5 could match --help, --limit, --csv"),
        (["--help=5"], "oddmult: error: argument -h/--help: ignored explicit argument '5'"),
        (["density", "bogus-class"], "oddmult density: error: argument cls: invalid choice: 'bogus-class' "
                                     "(choose from 'even', '4m1', '8m3', '8m7', 'all')"),
        (["verify", "theorems", "--threads", "2"], "oddmult: error: unrecognized arguments: --threads 2"),
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv[:1]
        assert capsys.readouterr().err.split("\n")[-2:] == [line, ""], argv[:1]


def test_congruences_prime_cap_is_one_line(monkeypatch, capsys):
    # refused before any family is generated
    monkeypatch.setattr("oddmult.congruence.generate_12p_family", no_series)
    monkeypatch.setattr("oddmult.congruence.generate_24p_family", no_series)
    for prime in ("10007", "1000003"):
        with pytest.raises(SystemExit) as exc:
            main(["congruences", "list", "--p", prime])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"oddmult: error: --p supports primes below 10000, got {prime}"
        )


def test_congruences_accepts_last_prime_below_cap(capsys):
    code, out = run_cli(capsys, "congruences", "list", "--p", "9973")
    assert code == 0
    assert out.startswith("a(119676n+13) == 0 (mod 2) (p=9973, r=1)")
    assert len(out.splitlines()) == 9972


def test_a_parity_accepts_last_index_below_limit(monkeypatch):
    # the boundary itself: only the range check runs, the series is not built
    seen = []
    monkeypatch.setattr("oddmult.cli._cmd_parity", lambda args: seen.append(args.range) or 0)
    assert main(["a-parity", "79999990..79999999"]) == 0
    assert seen == [(79999990, 79999999)]


def test_verification_failure_maps_to_exit_1(monkeypatch, capsys):
    # the real suites pass, so fake one discrepancy to pin the exit contract
    monkeypatch.setattr("oddmult.cli._verify_identities", lambda limit: 1)
    code, out = run_cli(capsys, "verify", "identities", "--limit", "16")
    assert code == 1
    assert "FAIL" in out


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_parser_rejects_missing_subcommand():
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args([])
    assert exc.value.code == 2


def test_module_entry_point():
    # run beside the imported package, so no install or PYTHONPATH is needed
    proc = subprocess.run(
        [sys.executable, "-m", "oddmult", "a-value", "9"],
        capture_output=True,
        text=True,
        cwd=Path(oddmult.__file__).parents[1],
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "16"


@pytest.mark.parametrize("argv", [["a-parity", "0..200000"], ["congruences", "list", "--p", "9973"]])
def test_closed_pipe_exits_quietly(argv):
    # a reader such as `| head -1` takes one line and closes the pipe
    proc = subprocess.Popen(
        [sys.executable, "-m", "oddmult", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        cwd=Path(oddmult.__file__).parents[1],
    )
    try:
        assert proc.stdout.readline()
        proc.stdout.close()
        assert proc.wait(timeout=60) == 141
        assert proc.stderr.read() == b""
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()


needs_dev_full = pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")


def run_buffered(argv, stdout):
    """One fresh `python -m oddmult` process, its stdout block-buffered as when redirected."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(oddmult.__file__).parents[1])
    return subprocess.run([sys.executable, "-m", "oddmult", *argv], stdout=stdout,
                          stderr=subprocess.PIPE, text=True, env=env, timeout=120)


@needs_dev_full
@pytest.mark.parametrize("argv", [["a-value", "5"], ["a-parity", "0..100000"]])
def test_unwritable_stdout_is_one_line_and_exit_2(argv):
    with open("/dev/full", "w") as full:
        proc = run_buffered(argv, full)
    assert proc.returncode == 2
    assert proc.stderr == f"oddmult: cannot write output: {os.strerror(errno.ENOSPC)}\n"


@needs_dev_full
def test_unwritable_csv_is_one_line_and_exit_2():
    # the file opens, and only its writes fail; stdout still carries the report
    proc = run_buffered(["density", "4m1", "--limit", "1", "--csv", "/dev/full"], subprocess.PIPE)
    assert proc.returncode == 2
    assert proc.stderr == f"oddmult: cannot write output: {os.strerror(errno.ENOSPC)}\n"
    assert proc.stdout.splitlines() == [
        "class 4m+1: X=1 odd=0 density=0.000000000",
        "class 4m+1: final density 0.000000000 (routes agree: yes)",
    ]


def test_mixed_calls_in_one_process_match_fresh_processes(monkeypatch, capsys, tmp_path):
    # one process serves every command, a refusal included, with the same
    # exit code, stdout, stderr and CSV bytes as a fresh process per command
    argvs = [
        ["a-value", "300"],
        ["a-parity", "100..140"],
        ["a-parity", "5..x"],
        ["density", "even", "--limit", "1000", "--csv", "out.csv"],
        ["verify", "theorems", "--limit", "1000"],
    ]
    here, fresh = tmp_path / "here", tmp_path / "fresh"
    here.mkdir()
    fresh.mkdir()
    monkeypatch.chdir(here)
    in_process = []
    for argv in argvs:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        in_process.append((code, captured.out, captured.err))
    env = {**os.environ, "PYTHONPATH": str(Path(oddmult.__file__).parents[1])}
    for argv, result in zip(argvs, in_process):
        proc = subprocess.run(
            [sys.executable, "-m", "oddmult", *argv], capture_output=True, text=True, cwd=fresh, env=env
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == result, argv
    assert in_process[2][0] == 2
    assert (here / "out.csv").read_bytes() == (fresh / "out.csv").read_bytes()
