"""The input boundary: a malformed MTX, PRM, REP, CTB, DECSTATE or fixture
text is a FormatError (exit 3), a well-formed value outside the library's
domain is another ModcharError (exit 2), and nothing else escapes."""

import contextlib
import io
import os
import string
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from modchar import cli, ctab, dxm, fixtures, gfla, rep
from modchar.cyclo import Cyclotomic, parse_cyclotomic
from modchar.errors import FieldTooLarge, FormatError, ModcharError
from modchar.textio import DIM_CEILING, ENTRY_DIGITS, grid, grid_text, read_text

sys.path.insert(0, str(Path(__file__).parent))
import oracles  # noqa: E402

GOLDEN = Path(__file__).parent / "golden"


def run_main(argv) -> int:
    """cli.main in process, with its stdout and stderr swallowed."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main([str(a) for a in argv])


# -- faults that tracebacked, hung or gave a wrong answer ----------------------

FAULTS = {
    "empty_prm": (cli.parse_perms, "", "grp enum --gens"),
    "empty_rep": (cli.parse_rep, "", "rep dual --rep"),
    "prm_without_k": (cli.parse_perms, "PRM n=3\n2 1 3\n", "grp enum --gens"),
    "mtx_without_c": (cli.parse_matrix, "MTX q=3 r=2\n1 2\n2 1\n", "mat echelon -a"),
    "non_integer_entry": (cli.parse_matrix, "MTX q=3 r=1 c=2\n1 x\n", "mat echelon -a"),
    "prm_missing_line": (cli.parse_perms, "PRM n=3 k=2\n2 1 3\n", "grp enum --gens"),
    "rep_extra_row": (cli.parse_rep, "REP q=2 d=2 k=1\n1 0\n0 1\n1 1\n", "rep dual --rep"),
    "ctb_missing_class_lines": (cli.parse_table, "CTB order=6 classes=3 p=0\n1 1 1a 1\n", "ctab blocks -p 2 --table"),
    "rep_truncated": (cli.parse_rep, "REP q=2 d=2 k=2\n1 0\n0 1\n1 1\n", "rep dual --rep"),
    "rep_ragged": (cli.parse_rep, "REP q=2 d=2 k=1\n1 0 1\n0 1\n", "rep dual --rep"),
    "mtx_entry_not_below_q": (cli.parse_matrix, "MTX q=3 r=1 c=2\n1 3\n", "mat echelon -a"),
    "rep_negative_entry": (cli.parse_rep, "REP q=3 d=1 k=1\n-1\n", "rep dual --rep"),
    "ctb_bad_cyclotomic": (
        cli.parse_table, "CTB order=20 classes=2 p=0\n1 1 1a 1\n4 5 5a 1\nordinary 1 1 cyc(5)[1\n",
        "ctab blocks -p 5 --table",
    ),
    # header counts far above the dimension ceiling: the first three ended in
    # MemoryError, the last looped over 10^14 empty generators
    "mtx_huge_column_count": (cli.parse_matrix, "MTX q=3 r=0 c=99999999999999\n", "mat nullspace -a"),
    "mtx_huge_row_count": (cli.parse_matrix, "MTX q=3 r=99999999999999 c=0\n", "mat echelon -a"),
    "prm_huge_degree": (cli.parse_perms, "PRM n=99999999999999 k=0\n", "grp enum --gens"),
    "rep_huge_generator_count": (cli.parse_rep, "REP q=3 d=0 k=100000000000000\n", "rep dual --rep"),
}


@pytest.mark.parametrize("case", sorted(FAULTS))
def test_fault_is_a_format_error_with_exit_3(case, tmp_path):
    parse, text, command = FAULTS[case]
    start = time.perf_counter()
    with pytest.raises(FormatError):
        parse(text)
    path = tmp_path / "input"
    path.write_text(text)
    assert run_main(command.split() + [path]) == 3
    assert time.perf_counter() - start < 1.0


NO_GENERATOR = (2, "", "error: GeneratorCountMismatch: at least one generator required\n")


@pytest.mark.parametrize(("command", "dim", "expected"), [
    ("rep chop --rep {}", 2, NO_GENERATOR), ("rep socle --rep {}", 1, NO_GENERATOR),
    ("rep socle --rep {}", 2, NO_GENERATOR), ("rep hom --rep {} --other {}", 2, NO_GENERATOR),
    ("rep chop --rep {}", 1, (0, "1a:1\n", "")), ("rep hom --rep {} --other {}", 0, (0, "dim 0\n", "")),
])
def test_generator_free_module(command, dim, expected, tmp_path, capsys):
    """`rep chop` and `rep socle` on a module without generators ended in
    `ValueError: empty range for randrange()`, and `rep hom` in a ValueError
    from `np.vstack`; a 1-dimensional module needs no word and still chops."""
    path = tmp_path / "input.rep"
    path.write_text(f"REP q=3 d={dim} k=0\n")
    start = time.perf_counter()
    code = cli.main(command.format(path, path).split())
    assert (code, *capsys.readouterr()) == expected
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize(("parse", "head", "body"), [
    (cli.parse_matrix, "MTX q=3 r=0 c={}", ""), (cli.parse_matrix, "MTX q=3 r={} c=0", ""),
    (cli.parse_matrix, "1 3 0 {}", ""), (cli.parse_perms, "PRM n={} k=0", ""),
    (cli.parse_perms, "PRM n=1 k={}", "1\n" * DIM_CEILING),
    (cli.parse_rep, "REP q=3 d={} k=0", ""), (cli.parse_rep, "REP q=3 d=0 k={}", ""),
])
def test_dimension_ceiling_is_inclusive(parse, head, body):
    parse(head.format(DIM_CEILING) + "\n" + body)
    with pytest.raises(FormatError, match="dimension ceiling"):
        parse(head.format(DIM_CEILING + 1) + "\n" + body)


def test_field_above_the_ceiling_fails_fast(tmp_path):
    text = "MTX q=1000000007 r=1 c=1\n1\n"
    start = time.perf_counter()
    with pytest.raises(FieldTooLarge):
        cli.parse_matrix(text)
    path = tmp_path / "big.mtx"
    path.write_text(text)
    assert run_main(["mat", "echelon", "-a", path]) == 2
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("spec", ["1000000000000000000000007,1", "3,99999999"])
def test_huge_field_option_fails_fast(spec):
    start = time.perf_counter()
    assert run_main(["field", spec]) == 2
    assert time.perf_counter() - start < 1.0


def test_non_utf8_file_is_a_format_error(tmp_path):
    path = tmp_path / "bytes.mtx"
    path.write_bytes(b"\xff\xfeMTX q=2 r=1 c=1\n1\n")
    with pytest.raises(FormatError):
        read_text(path)
    assert run_main(["mat", "echelon", "-a", path]) == 3


@pytest.mark.parametrize("argv", [["mat", "mul", "-a", GOLDEN / "a9.mtx"], ["ctab", "table"], ["rep", "iso", "--rep", GOLDEN / "a5_gf4.rep"]])
def test_missing_input_file_option_exits_3(argv):
    assert run_main(argv) == 3


def test_decstate_counts_must_match():
    good = "DECSTATE block=b k=2 l=1\nrow a 1\nrow b 2\nbasic 0\ncol P x : 1 1\ncandidates 1\ncand 1\ncand 1\nendcand\n"
    assert cli.parse_decomp_state(good).k == 2
    bad = [
        good.replace("row b 2\n", ""),
        good.replace("col P x : 1 1\n", ""),
        good.replace("candidates 1", "candidates 2"),
        good + "cand 1\n",
        good.replace("col P x : 1 1", "col P x : 1"),
        good.replace("col P x", "col P y"),
        good.replace("row b 2", "row b two"),
        good + "bogus\n",
    ]
    for text in bad:
        with pytest.raises(FormatError):
            cli.parse_decomp_state(text)


@pytest.mark.parametrize(
    "value", ["cyc(5)[1", "cyc(5", "cyc(x)[1]", "cyc(0)[1]", "cyc(5)[1/0]", "1/0", "", "a", "1.5", "cyc(7)[0,1]"]
)
def test_bad_cyclotomic_is_a_format_error(value):
    with pytest.raises(FormatError):
        parse_cyclotomic(value, 60)


# -- the shared header and grid readers ---------------------------------------

HEADER_FAULTS = {
    "no_header": "1 0\n0 1\n",
    "wrong_magic": "REP q=3 r=1 c=1\n1\n",
    "missing_key": "MTX q=3 r=1\n1\n",
    "extra_key": "MTX q=3 r=1 c=1 x=2\n1\n",
    "repeated_key": "MTX q=3 r=1 c=1 c=1\n1\n",
    "key_without_value": "MTX q=3 r=1 c\n1\n",
    "non_integer_value": "MTX q=3 r=one c=1\n1\n",
    "negative_count": "MTX q=3 r=-1 c=1\n",
    "q_zero": "MTX q=0 r=0 c=0\n",
    "q_one": "MTX q=1 r=0 c=0\n",
    "q_not_a_prime_power": "MTX q=6 r=0 c=0\n",
    "meataxe_mode_2": "2 3 1 1\n1\n",
}


@pytest.mark.parametrize("case", sorted(HEADER_FAULTS))
def test_header_fault_is_a_format_error(case):
    with pytest.raises(FormatError):
        cli.parse_matrix(HEADER_FAULTS[case])


def test_grid_ignores_line_layout_and_checks_permutations():
    assert cli.parse_matrix("MTX q=3 r=2 c=2\n1 2 2\n\n1\n") == cli.parse_matrix("MTX q=3 r=2 c=2\n1 2\n2 1\n")
    assert cli.parse_perms("PRM n=3 k=1\n2\n3 1\n") == [(1, 2, 0)]
    for body in ("1 1 2", "0 1 2", "1 2 4"):
        with pytest.raises(FormatError):
            cli.parse_perms(f"PRM n=3 k=1\n{body}\n")


SEPARATORS = st.lists(st.sampled_from([" ", "\t", "\r\n", "\n", "\v", "\f", "\n\n", " \t\n", "\r\n \r\n"]),
                      min_size=1, max_size=3).map("".join)


@st.composite
def grid_bodies(draw):
    """(body, rows, cols, bound): ASCII-digit tokens, some with leading zeros
    and some not below the bound, in a random layout; the token count is
    rows * cols or off by one."""
    rows, cols = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    bound = draw(st.sampled_from([2, 3, 9, 251, 65521, 65536]))
    count = max(0, rows * cols + draw(st.sampled_from([0, 0, 0, -1, 1])))
    values = draw(st.lists(st.one_of(st.integers(0, bound - 1), st.integers(bound, 10**6)), min_size=count, max_size=count))
    tokens = ["0" * draw(st.integers(0, 3)) + str(v) for v in values]
    seps = draw(st.lists(SEPARATORS, min_size=len(tokens) + 1, max_size=len(tokens) + 1))
    edge = draw(st.booleans())
    body = (seps[0] if edge else "") + "".join(t + sep for t, sep in zip(tokens, seps[1:]))
    return body, rows, cols, bound


@given(grid_bodies())
def test_grid_equals_the_token_reader(case):
    body, rows, cols, bound = case
    try:
        want = oracles.grid_by_tokens(body.splitlines(), rows, cols, bound)
    except FormatError:
        with pytest.raises(FormatError):
            grid(body, rows, cols, bound)
    else:
        assert np.array_equal(grid(body, rows, cols, bound), want)


@st.composite
def grid_arrays(draw):
    """An r x c array (r, c in 0..5) of entries of a field up to GF(2^16), the
    largest entry q - 1 drawn often."""
    q = draw(st.sampled_from([2, 3, 4, 9, 10, 11, 251, 256, 65521, 65536]))
    shape = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    values = draw(st.lists(st.one_of(st.integers(0, q - 1), st.just(q - 1)),
                           min_size=shape[0] * shape[1], max_size=shape[0] * shape[1]))
    return np.array(values, dtype=np.int64).reshape(shape)


@given(grid_arrays())
def test_grid_text_equals_the_str_writer(arr):
    assert grid_text(arr) == oracles.grid_text_by_str(arr)
    assert np.array_equal(grid(grid_text(arr), *arr.shape, 65536), arr)


@pytest.mark.parametrize("shape", [(3, 0), (0, 3), (0, 0)])
def test_grid_text_of_an_empty_shape(shape):
    arr = np.zeros(shape, dtype=np.int64)
    assert grid_text(arr) == oracles.grid_text_by_str(arr) == "\n" * shape[0]


def test_grid_text_writes_in_blocks():
    """Several blocks of rows give the same bytes as one, and the writer's
    peak stays below twice the array (3.5 times when it was written whole)."""
    import tracemalloc

    rng = np.random.default_rng(7)
    arr = rng.integers(0, 3, (1024, 1024))
    tracemalloc.start()
    try:
        text = grid_text(arr)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * arr.nbytes
    assert text == oracles.grid_text_by_str(arr)
    wide = rng.integers(0, 65521, (700, 500))  # a partial last block
    assert grid_text(wide) == oracles.grid_text_by_str(wide)


NARROWED = {
    "plus_sign": "+1 2", "underscore": "1_0 2", "arabic_indic_digit": "\u0663 2", "minus_zero": "1 -0",
    "nbsp_separator": "1\u00a02", "line_separator": "1 2\u2028", "file_separator": "1\x1c2",
    "entry_over_the_digit_cap": "1 " + "0" * ENTRY_DIGITS + "2",
}
REFUSED = {"trailing_minus": "1 -", "entry_not_below_q": "1 251", "letter": "1 a", "control_byte": "1\x0e2"}


@pytest.mark.parametrize("case", sorted(NARROWED) + sorted(REFUSED))
def test_entry_grammar_is_ascii_digits_and_ascii_whitespace(case, tmp_path):
    """An entry is ASCII digits and a separator ASCII whitespace: the token
    reader's `int()` and `str.split()` took each NARROWED body, and now it is
    a FormatError, like each REFUSED one before and now."""
    body = NARROWED.get(case) or REFUSED[case]
    text = f"MTX q=251 r=1 c=2\n{body}\n"
    refused_before = contextlib.suppress(FormatError) if case in REFUSED else contextlib.nullcontext()
    with refused_before:
        oracles.grid_by_tokens(text.splitlines()[1:], 1, 2, 251)
        assert case in NARROWED
    with pytest.raises(FormatError):
        cli.parse_matrix(text)
    path = tmp_path / "m.mtx"
    path.write_text(text, encoding="utf-8")
    assert run_main(["mat", "echelon", "-a", path]) == 3


def test_entry_digit_cap_counts_leading_zeros():
    assert cli.parse_matrix(f"MTX q=3 r=1 c=1\n{'0' * (ENTRY_DIGITS - 1)}2\n").arr.tolist() == [[2]]
    assert grid("9" * ENTRY_DIGITS, 1, 1, 10**ENTRY_DIGITS).tolist() == [[10**ENTRY_DIGITS - 1]]


@pytest.mark.parametrize("line", ["1 1 1a", "1 1 1a 2", "x 1 1a 1", "4 1 1a 1", "1 0 1a 1"])
def test_ctb_class_line_grammar(line):
    with pytest.raises(FormatError):
        cli.parse_table(f"CTB order=6 classes=1 p=0\n{line}\nordinary 1 1\n")


@pytest.mark.parametrize("line", ["ordinary 1", "ordinary 1 1 1", "ordinary x 1", "ordinary 2 1"])
def test_ctb_character_line_grammar(line):
    with pytest.raises(FormatError):
        cli.parse_table(f"CTB order=6 classes=1 p=0\n1 1 1a 1\n{line}\n")


def test_ctb_conductor_is_bounded_by_the_element_order(tmp_path):
    head = "CTB order=6 classes=2 p=0\n1 1 1a 1\n2 3 3a 1\nordinary 1 1 "
    # a value on a class of element order 3 lies in Q(zeta_3) = Q(zeta_6)
    assert cli.parse_table(head + "cyc(6)[0,0,1]\n").characters[0].values[1] == Cyclotomic(6, [0, 0, 1])
    with pytest.raises(FormatError):
        cli.parse_table(head + "cyc(4)[0,1]\n")
    path = tmp_path / "big.ctb"
    path.write_text(head + "cyc(99991)[0,1]\n")
    t0 = time.perf_counter()
    assert run_main(["ctab", "blocks", "--table", path, "-p", "2"]) == 3
    assert time.perf_counter() - t0 < 1


def test_ctab_blocks_on_a_large_element_order_is_fast(tmp_path):
    """A class of element order 99991 with rational values: `blocks` works in
    the values' conductor, so it never builds the 99991st cyclotomic
    polynomial."""
    path = tmp_path / "big.ctb"
    path.write_text("CTB order=99991 classes=2 p=0\n1 1 1a 1\n1 99991 b 1\nordinary 1 1 1\n")
    t0 = time.perf_counter()
    assert run_main(["ctab", "blocks", "--table", path, "-p", "2"]) in (0, 2, 3)
    assert time.perf_counter() - t0 < 1


A4_CTB = """CTB order=12 classes=4 p=0
1 1 1a 1
3 2 2a 1
4 3 3a 1
4 3 3b 1
chi1 1 1 1 1 1
chi2 1 1 1 cyc(3)[0,1] cyc(3)[0,0,1]
chi3 1 1 1 cyc(3)[0,0,1] cyc(3)[0,1]
chi4 3 3 -1 0 0
"""


@pytest.mark.parametrize("argv", [
    ["ctab", "blocks"], ["ctab", "blocks", "-p", "0"], ["ctab", "blocks", "-p", "1"], ["ctab", "blocks", "-p", "6"],
    ["ctab", "blocks", "-p", "9"], ["ctab", "blocks", "-p", "-3"], ["ctab", "heights", "-p", "6"],
    ["ctab", "project", "-p", "1"], ["ctab", "restrict"], ["ctab", "restrict", "-p", "0"],
    ["ctab", "restrict", "-p", "1"], ["ctab", "restrict", "-p", "4"], ["ctab", "restrict", "-p", "-3"],
    ["ctab", "decompose", "--char", "1", "-p", "1"],
    ["grp", "classes", "-p", "4"], ["grp", "classes", "-p", "6"], ["grp", "classes", "-p", "1"],
    ["grp", "classes", "-p", "-3"],
])
def test_ctab_blocks_refuses_a_characteristic_that_is_not_prime(tmp_path, argv):
    """p = 0 (the default of -p), 1, or a non-prime sharing a factor with the
    conductor 3 of A4's values is a typed error before the p'-part of the
    conductor or the order of p modulo it is sought (a ZeroDivisionError or
    an endless loop otherwise).  `restrict`, and `decompose` with a p, refuse
    a non-prime p before keeping the classes (a ZeroDivisionError, an
    IndexError, or a wrong table or none otherwise).  `grp classes` refuses
    a non-prime p before the p-regular flags (exit 0 with flags computed mod
    p otherwise); its default p = 0 means no prime."""
    path = tmp_path / "a4.ctb"
    path.write_text(A4_CTB)
    source = ["--table", path] if argv[0] == "ctab" else ["--gens", GOLDEN / "s4.prm"]
    assert run_main([*argv, *source]) == 2
    assert run_main(["ctab", "blocks", "--table", path, "-p", "3"]) == 0
    assert run_main(["grp", "classes", "--gens", GOLDEN / "s4.prm", "-p", "0"]) == 0


@pytest.mark.parametrize("p", [None, "0", "1", "4", "6", "-3"])
def test_ctab_brauer_refuses_a_characteristic_that_is_not_prime(p):
    """The default p = 0, or a non-prime sharing a factor with the order of a
    class of S4, is a typed error before the splitting degree is sought (an
    endless loop otherwise)."""
    argv = ["ctab", "brauer", "--gens", GOLDEN / "s4.prm"]
    t0 = time.process_time()
    assert run_main(argv + (["-p", p] if p else [])) == 2
    assert time.process_time() - t0 < 5


def test_dxm_projs_refuses_the_default_characteristic():
    assert run_main(["dxm", "projs", "--gens", GOLDEN / "s4.prm"]) == 2


FIXTURE_FAULTS = [
    "coldegrees x", "colpairs 1", "colpairs 1:x", "FIXTURE", "kind", "sline", "row : 1 2", "row a 1 2", "bogus 1",
]


@pytest.mark.parametrize("line", FIXTURE_FAULTS)
def test_fixture_fault_is_a_format_error(line, tmp_path):
    text = f"FIXTURE f\nkind decomposition\n{line}\nrow a 1 : 1\n"
    with pytest.raises(FormatError):
        fixtures.parse_fixture(text)
    path = tmp_path / "f.txt"
    path.write_text(text)
    assert run_main(["dxm", "verify", "--fixture", path]) == 3


# valuations that never ended (n = 0 or p = 1), divided by zero (p = 0), or
# would test a prime of 19 digits by trial division
SD16_FIXTURE_FAULTS = {
    "grouporder_0": ("meta grouporder 273030912000000", "meta grouporder 0"),
    "p_1": ("meta p 2", "meta p 1"),
    "p_0": ("meta p 2", "meta p 0"),
    "degree_0": ("row 17 214016 :", "row 17 0 :"),
    "p_prime_above_ceiling": ("meta p 2", "meta p 1000000000000000003"),
}


@pytest.mark.parametrize(("old", "new"), SD16_FIXTURE_FAULTS.values(), ids=list(SD16_FIXTURE_FAULTS))
def test_sd16_fixture_with_a_bad_valuation_exits_3(old, new, tmp_path):
    text = fixtures.fixture_text("hn_mod2_b1")
    assert old in text
    path = tmp_path / "f.txt"
    path.write_text(text.replace(old, new))
    t0 = time.perf_counter()
    assert run_main(["dxm", "sd16", "--fixture", path]) == 3
    assert time.perf_counter() - t0 < 1


def test_fixture_missing_meta_is_a_format_error():
    with pytest.raises(FormatError):
        fixtures.parse_fixture("FIXTURE f\n").meta_int("p")


def test_basicrows_that_are_not_row_labels_exit_3(tmp_path):
    path = tmp_path / "f.txt"
    path.write_text("FIXTURE f\nkind projbasis\nbasicrows zz\ncollabels P1\nindecomposable x\nrow a 1 : 1\n")
    with pytest.raises(FormatError):
        fixtures.parse_fixture(read_text(path)).basic_row_indices()
    assert run_main(["dxm", "enumerate", "--fixture", path]) == 3


def test_enumerate_with_an_all_zero_indecomposable_column_exits_2(tmp_path):
    """Subtracting a zero indecomposable column never goes negative, so the
    candidate search did not end."""
    path = tmp_path / "f.txt"
    path.write_text("FIXTURE f\nkind projbasis\nbasicrows a b\ncollabels P1 P2\nindecomposable . x\n"
                    "row a 1 : 1 .\nrow b 1 : 1 .\n")
    res = subprocess.run([sys.executable, "-m", "modchar.cli", "dxm", "enumerate", "--fixture", str(path)],
                         capture_output=True, text=True, timeout=60)
    assert res.returncode == 2 and res.stderr.startswith("error: Infeasible:")


def test_indecomposable_flags_short_of_the_columns_exit_3(tmp_path):
    path = tmp_path / "f.txt"
    path.write_text("FIXTURE f\nkind projbasis\nbasicrows a b\ncollabels P1 P2\nindecomposable x\n"
                    "row a 1 : 1 .\nrow b 1 : . 1\n")
    for op in ("enumerate", "eliminate"):
        assert run_main(["dxm", op, "--fixture", path]) == 3


def test_clifford_column_pair_outside_the_block_exits_2(tmp_path):
    """colpairs 0:1 is the pair (-1, 0), which dropped column 0 and exited 0."""
    path = tmp_path / "f.txt"
    path.write_text(fixtures.fixture_text("hn_mod2_b1") + "colpairs 0:1\n")
    assert run_main(["ctab", "clifford2", "--fixture", path]) == 2
    path.write_text(fixtures.fixture_text("hn_mod2_b1") + "colpairs 1:2 2:3\n")
    assert run_main(["ctab", "clifford2", "--fixture", path]) == 2


@pytest.mark.parametrize("source", ["zz", "17+zz", "17+34+37", "+"])
def test_clifford_target_row_that_names_no_source_row_exits_3(source, tmp_path):
    path = tmp_path / "t.txt"
    path.write_text(f"FIXTURE t\nkind decomposition\nrow x 1 {source} : 1\n")
    assert run_main(["ctab", "clifford2", "--fixture", "hn_mod2_b1", "--target", path]) == 3


@pytest.mark.parametrize("lines", [
    "",
    "sline basicdegrees 1\n",
    "sline bvec a : 1\n",
    "sline basicdegrees 1\nsline bvec a 1\n",
    "sline basicdegrees x\nsline bvec a : 1\n",
    "sline basicdegrees 1 2\nsline bvec a : 1\n",
])
def test_atom_fixture_without_its_sections_exits_3(lines, tmp_path):
    path = tmp_path / "f.txt"
    path.write_text("FIXTURE f\nkind atomproblem\nrow a 1 : 1\n" + lines)
    assert run_main(["dxm", "atoms", "--fixture", path]) == 3


@pytest.mark.parametrize(("body", "rows", "error"), [
    ("collabels a b\nrow c1 : 1 0\n", [], "NotSquare"),
    ("collabels a\nrow c1 : 100000000000000000000\n", [], "TooLarge"),
    ("collabels a\nrow c1 : 1\n", ["--rows", "0"], "Infeasible"),
    ("collabels a\nrow c1 : 1\n", ["--rows", "100000000000"], "TooLarge"),
], ids=["not_square", "huge_diagonal", "zero_rows", "huge_row_count"])
def test_cartan_fault_is_a_typed_error(body, rows, error, tmp_path, capsys):
    """A non-square C printed the answer for its leading block, a huge
    diagonal ended in MemoryError, --rows 0 meant the fixture's k, and a huge
    row count ended in RecursionError."""
    path = tmp_path / "c.txt"
    path.write_text("FIXTURE c\nkind cartan\nmeta k 2\n" + body)
    assert cli.main(["dxm", "dtd", "--cartan", str(path), *rows]) == 2
    assert capsys.readouterr().err.startswith(f"error: {error}:")


@pytest.mark.parametrize(
    "manifest",
    ["not json\n", "[1, 2]\n", '{"prev": ""}\n', '{"hash": 3}\n', "[" * 5000 + "\n"],
    ids=["not_json", "not_an_object", "no_hash", "hash_not_a_string", "too_deep"],
)
def test_bad_log_manifest_exits_3_before_the_command_runs(manifest, tmp_path, capsys):
    log = tmp_path / "bad.log"
    log.write_text(manifest)
    assert cli.main(["--log", str(log), "grp", "enum", "--gens", str(GOLDEN / "s4.prm")]) == 3
    assert capsys.readouterr().out == ""
    assert log.read_text() == manifest


# -- command-line arguments ----------------------------------------------------


@pytest.mark.parametrize("argv", [
    ["field", "x"],
    ["cond", "perm", "--rep", "g.prm", "--sub", "k.prm", "--field", "x"],
    ["dxm", "eliminate", "--fixture", "hn_mod3_b1_proj_c", "--known", "1"],
    ["dxm", "eliminate", "--fixture", "hn_mod3_b1_proj_c", "--known", "0:x"],
    ["dxm", "fitting", "--fixture", "hn_mod3_b1_proj_a", "--endo", "hn_mod3_e_dec", "--pins", "zz"],
])
def test_bad_option_value_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["ctab", "project", "--table", GOLDEN / "s4.ctb", "-p", "2", "--char", "9"],
    ["ctab", "project", "--table", GOLDEN / "s4.ctb", "-p", "2", "--block", "3"],
    ["ctab", "heights", "--table", GOLDEN / "s4.ctb", "-p", "2", "--block", "3"],
    ["ctab", "decompose", "--table", GOLDEN / "s4.ctb", "--char", "-1"],
    ["cond", "dim", "--gens", GOLDEN / "s4.prm", "--sub", GOLDEN / "s4.prm", "--table", GOLDEN / "s4.ctb", "--char", "9"],
    ["dxm", "projs", "--gens", GOLDEN / "s4.prm", "-p", "2", "--blockindex", "5"],
    ["dxm", "fitting", "--fixture", "hn_mod3_b1_proj_a", "--endo", "hn_mod3_e_dec", "--pins", "3_1:8,zz:49"],
])
def test_out_of_range_index_is_a_domain_error(argv):
    assert run_main(argv) == 2


# -- properties ------------------------------------------------------------------

FIELDS = [(2, 1), (3, 1), (2, 2), (3, 2), (5, 1)]
TOKEN = st.text(alphabet=string.ascii_letters + string.digits + "_'.", min_size=1, max_size=6)


@st.composite
def matrices(draw, rows=None, cols=None, field=None):
    F = field or gfla.field_make(*draw(st.sampled_from(FIELDS)))
    r = draw(st.integers(0, 5)) if rows is None else rows
    c = draw(st.integers(0, 5)) if cols is None else cols
    entries = draw(st.lists(st.integers(0, F.q - 1), min_size=r * c, max_size=r * c))
    return gfla.FqMatrix(F, np.array(entries, dtype=np.int64).reshape(r, c))


@st.composite
def reps(draw):
    F = gfla.field_make(*draw(st.sampled_from(FIELDS)))
    d = draw(st.integers(0, 4))
    gens = draw(st.lists(matrices(d, d, F), max_size=3))
    return rep.Representation(F, d, tuple(gens))


@st.composite
def perm_sets(draw):
    n = draw(st.integers(1, 6))
    return n, draw(st.lists(st.permutations(range(n)).map(tuple), max_size=4))


def cyclotomics(order):
    """Values that fit a class of this element order: conductor dividing 2 * order."""
    rationals = st.fractions(max_denominator=6).map(Cyclotomic.from_rational)
    conductors = [n for n in range(3, 13) if 2 * order % n == 0]
    if not conductors:
        return rationals
    with_conductor = st.builds(Cyclotomic, st.sampled_from(conductors), st.lists(st.integers(-3, 3), max_size=6))
    return st.one_of(rationals, with_conductor)


@st.composite
def tables(draw):
    # 27720 = 2^3 * 3^2 * 5 * 7 * 11, so every conductor 3..12 can occur
    order = draw(st.sampled_from([6, 24, 60, 120, 27720]))
    divisors = [d for d in range(1, order + 1) if order % d == 0]
    m = draw(st.integers(1, 4))
    classes = tuple(
        ctab.ClassInfo(draw(TOKEN), draw(st.sampled_from(divisors)), draw(st.sampled_from(divisors)), draw(st.booleans()))
        for _ in range(m)
    )
    chars = tuple(
        ctab.Character(
            (Cyclotomic.from_rational(draw(st.integers(1, 30))),) + tuple(draw(cyclotomics(c.order)) for c in classes[1:]),
            draw(st.sampled_from(["ordinary", "brauer", "projective", "virtual"])),
        )
        for _ in range(draw(st.integers(0, 4)))
    )
    return ctab.CharTable(order, classes, chars, draw(st.sampled_from([None, 2, 3, 5])))


@st.composite
def states(draw):
    k = draw(st.integers(0, 4))
    ints = st.lists(st.integers(-5, 99), min_size=k, max_size=k)
    cols = tuple(
        dxm.ProjectiveColumn(draw(TOKEN), dxm._vec(draw(ints)), draw(st.booleans()))
        for _ in range(draw(st.integers(0, 3)))
    )
    candidates = tuple(
        tuple(tuple(draw(st.lists(st.integers(0, 9), max_size=3))) for _ in range(k))
        for _ in range(draw(st.integers(0, 2)))
    )
    log = st.text(alphabet=string.ascii_letters + string.digits + " :,.()-", max_size=20)
    return dxm.DecompState(
        draw(TOKEN), tuple(draw(TOKEN) for _ in range(k)), tuple(draw(st.integers(0, 10**7)) for _ in range(k)),
        tuple(draw(st.lists(st.integers(0, 9), max_size=k))), cols, candidates, tuple(draw(st.lists(log, max_size=3))),
    )


@given(matrices())
def test_matrix_roundtrip(m):
    assert cli.parse_matrix(cli.format_matrix(m)) == m


@given(perm_sets())
def test_perm_roundtrip(case):
    n, perms = case
    assert cli.parse_perms(cli.format_perms(perms, n)) == perms


@given(reps())
def test_rep_roundtrip(r):
    assert cli.parse_rep(cli.format_rep(r)) == r


@given(tables())
def test_table_roundtrip(t):
    assert cli.parse_table(cli.format_table(t)) == t


@given(states())
def test_decomp_state_roundtrip(state):
    assert cli.parse_decomp_state(cli.format_decomp_state(state)) == state


PARSERS = [cli.parse_matrix, cli.parse_perms, cli.parse_rep, cli.parse_table, cli.parse_decomp_state, fixtures.parse_fixture]
HEADS = [
    "", "MTX q=3 r=2 c=2\n", "1 3 2 2\n", "PRM n=3 k=2\n", "REP q=4 d=2 k=1\n", "CTB order=6 classes=2 p=0\n",
    "CTB order=6 classes=1 p=0\n1 1 1a 1\n", "DECSTATE block=b k=1 l=1\n", "FIXTURE f\n",
]
# text shaped like a body: digits, signs, separators and the format words
BODIES = st.one_of(
    st.text(max_size=40),
    st.lists(st.sampled_from(["0", "1", "2", "3", "-1", "x", ".", ":", "1/2", "cyc(4)[0,1]", "row", "col", "cand",
                              "endcand", "candidates", "basic", "log", "meta", "colpairs", "1:2", "a", " ", "\n"]),
             max_size=16).map(" ".join),
)


@given(st.sampled_from(PARSERS), st.sampled_from(HEADS), BODIES)
def test_arbitrary_text_raises_only_modchar_errors(parse, head, body):
    with contextlib.suppress(ModcharError):
        parse(head + body)


@given(st.text(alphabet="0123456789-/,[]()x", max_size=6))
def test_arbitrary_cyclotomic_text_raises_only_format_errors(tail):
    for text in (tail, "cyc(" + tail):
        with contextlib.suppress(FormatError):
            parse_cyclotomic(text, 2520)


COMMANDS = {
    "mat echelon -a": "MTX q=3 r=2 c=2\n",
    "grp enum --gens": "PRM n=3 k=2\n",
    "rep dual --rep": "REP q=4 d=2 k=1\n",
    "rep chop --rep": "REP q=4 d=2 k=1\n",
    "rep socle --rep": "REP q=4 d=2 k=1\n",
    "ctab blocks -p 2 --table": "CTB order=6 classes=2 p=0\n",
}


@given(st.sampled_from(sorted(COMMANDS)), st.one_of(st.binary(max_size=60), BODIES.map(str.encode)), st.booleans())
def test_arbitrary_input_file_exits_0_2_or_3(command, data, with_header):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input")
        with open(path, "wb") as fh:
            fh.write(COMMANDS[command].encode() * with_header + data)
        assert run_main(command.split() + [path]) in (0, 2, 3)


# -- checks inside the library are typed errors, never asserts -----------------


def test_src_has_no_assert_statement():
    """`python -O` strips asserts, so no check in the library may be one."""
    import ast

    src = Path(cli.__file__).parent
    found = [f"{path.name}:{node.lineno}" for path in sorted(src.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.Assert)]
    assert found == []


def test_src_has_no_unused_parameter():
    """A parameter its function never reads is dead API that callers still
    have to fill; self, cls and names starting with _ are exempt."""
    import ast

    src = Path(cli.__file__).parent
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            a = node.args
            params = [*a.posonlyargs, *a.args, *a.kwonlyargs, *filter(None, (a.vararg, a.kwarg))]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {n.id for stmt in body for n in ast.walk(stmt) if isinstance(n, ast.Name)}
            found += [f"{path.name}:{getattr(node, 'name', 'lambda')}.{x.arg}" for x in params
                      if x.arg not in read and x.arg not in ("self", "cls") and not x.arg.startswith("_")]
    assert found == []


def test_src_imports_only_at_module_level():
    """An import inside a function hides a dependency and runs on every call;
    only grp's `from .rep import Representation` stays local, because rep
    imports grp."""
    import ast

    src = Path(cli.__file__).parent
    found = []
    for path in sorted(src.rglob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [f"{path.relative_to(src)}:{fn.name}:{ast.unparse(n)}" for stmt in fn.body
                          for n in ast.walk(stmt) if isinstance(n, (ast.Import, ast.ImportFrom))]
    assert found == ["grp.py:perm_rep:from .rep import Representation",
                     "grp.py:regular_rep:from .rep import Representation"]


def test_src_has_no_dead_store():
    """An assignment or augmented assignment to a local name that its function
    (nested functions included) never reads is dead code; loop targets, names
    starting with _ and names declared global or nonlocal are exempt."""
    import ast

    def own_nodes(fn):
        """The nodes of fn's body outside its nested functions and classes."""
        todo = list(fn.body)
        while todo:
            node = todo.pop()
            yield node
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)):
                todo.extend(ast.iter_child_nodes(node))

    src = Path(cli.__file__).parent
    found = []
    for path in sorted(src.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            nodes = [n for stmt in fn.body for n in ast.walk(stmt)]
            read = {n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            shared = {x for n in nodes if isinstance(n, (ast.Global, ast.Nonlocal)) for x in n.names}
            stored = set()
            for n in own_nodes(fn):
                if isinstance(n, ast.Assign):
                    targets = n.targets
                elif isinstance(n, ast.AugAssign) or isinstance(n, ast.AnnAssign) and n.value is not None:
                    targets = [n.target]
                else:
                    continue
                stored |= {t.id for tgt in targets for t in ast.walk(tgt)
                           if isinstance(t, ast.Name) and isinstance(t.ctx, ast.Store)}
            found += [f"{path.name}:{fn.name}.{x}" for x in sorted(stored - read - shared) if not x.startswith("_")]
    assert found == []


def test_src_private_names_have_a_caller():
    """A private module-level function or method that nothing else in the
    library refers to is dead code, or a helper kept in the library only for
    the test oracles; references inside its own body do not count, and
    dunder methods are exempt."""
    import ast
    from collections import Counter

    def refs(tree):
        return Counter(n.id if isinstance(n, ast.Name) else n.attr
                       for n in ast.walk(tree) if isinstance(n, (ast.Name, ast.Attribute)))

    src = Path(cli.__file__).parent
    trees = [ast.parse(path.read_text()) for path in sorted(src.rglob("*.py"))]
    total = sum(map(refs, trees), Counter())
    found = []
    for tree in trees:
        for scope in [tree, *(n for n in tree.body if isinstance(n, ast.ClassDef))]:
            found += [fn.name for fn in scope.body if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                      and fn.name.startswith("_") and not fn.name.endswith("__")
                      and total[fn.name] == refs(fn)[fn.name]]
    assert found == []


def test_former_asserts_raise_typed_errors(monkeypatch):
    from modchar import cond, cyclo
    from modchar.errors import NonIntegral, NotSquarefree, SelfCheckFailed

    with pytest.raises(NotSquarefree):
        cyclo.gauss_sqrt(12)
    # x^2 - 1 over a wrong Phi_1 = x + 2 leaves the remainder 3
    build = cyclo.cyclotomic_polynomial.__wrapped__
    monkeypatch.setattr(cyclo, "cyclotomic_polynomial", lambda d: (2, 1))
    assert cyclo._divmod_monic([-1, 0, 1], (2, 1)) == ([-2, 1], [3])
    with pytest.raises(SelfCheckFailed):
        build(2)
    monkeypatch.undo()
    with pytest.raises(SelfCheckFailed):
        gfla.FqPolynomial(gfla.field_make(3, 1), [1, 0, 1]).frobenius_root()
    # a class function that is not a character: <1_K, chi|K> = 1/2
    table = cli.parse_table("CTB order=2 classes=2 p=0\n1 1 1a 1\n1 2 2a 1\nordinary 1 1 0\n")
    with pytest.raises(NonIntegral):
        cond.condensed_dim(table, table.characters[0], (1, 1), (0, 1))
