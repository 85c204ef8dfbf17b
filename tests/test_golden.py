"""Golden corpus: the exact stdout bytes of CLI commands whose inputs pass
through the file readers, replayed in process through `cli.main()`.

The inputs and the expected `<case>.out` files live in tests/golden/; every
token of a command that names a file there is replaced by its path.
`s4.ctb` is a copy of `ctab_table.out`.  `large9.mtx` (GF(9), 110 x 140, rank
80, zero columns 10..29) and `large251.mtx` (GF(251), 100 x 130, rank 90, zero
columns 60..65) are seeded products L.R wide enough that `echelonize` works on
them panel by panel.  `large729.mtx` (GF(3^6), 70 x 100, rank 50, zero columns
20..29) is one too, and `a729.mtx`/`b729.mtx` are seeded random GF(3^6)
matrices: q = 729 is above the lookup-table ceiling, so these pin the base-p
digit `add`/`neg` and the log/exp `mul`.  `a5.prm` generates A5 from
(1,2,3,4,5) and (3,4,5); its tables carry irrational values of conductor 5.
`c7.prm` generates C7 from (1,2,3,4,5,6,7): its values have conductor 7 and
are lifted from GF(29), whose q - 1 = 28 is a proper multiple of 7, so
`ctab_table_c7` pins the fold of the lift down to the values' conductor.
`a5_gf4_4a.rep` is the 4-dimensional simple factor of `a5_gf4.rep` over
GF(4), and `a5_gf4_4b.rep` the same module conjugated by a seeded invertible
matrix, so `rep_iso` pins the intertwiner the standard-basis method finds.
`a65521.mtx`/`b65521.mtx` are seeded random GF(65521) matrices, so
`mat_mul65521` reads and writes five-digit entries.  `layout11.mtx` (GF(11),
6 x 8, rank 4) is written with CRLF line ends, tabs and runs of spaces
between entries, entries with leading zeros, and blank and whitespace-only
lines, so `mat_echelon_layout11` pins the reader's treatment of layout.
`dxm_dtd_rows10` solves the same Cartan equation with two rows more than the
fixture's k, so its one solution ends in two zero rows.
"""

from pathlib import Path

import pytest

from modchar import cli

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "mat_echelon": "mat echelon -a a9.mtx",
    "mat_mul": "mat mul -a a9.mtx -b b9.mtx",
    "mat_nullspace": "mat nullspace -a a9.mtx",
    "mat_echelon_legacy": "mat echelon -a legacy3.mtx",
    "mat_echelon_large9": "mat echelon -a large9.mtx",
    "mat_nullspace_large9": "mat nullspace -a large9.mtx",
    "mat_echelon_large251": "mat echelon -a large251.mtx",
    "mat_nullspace_large251": "mat nullspace -a large251.mtx",
    "mat_mul729": "mat mul -a a729.mtx -b b729.mtx",
    "mat_echelon_large729": "mat echelon -a large729.mtx",
    "mat_mul65521": "mat mul -a a65521.mtx -b b65521.mtx",
    "mat_echelon_layout11": "mat echelon -a layout11.mtx",
    "mat_nullspace_large729": "mat nullspace -a large729.mtx",
    "grp_enum": "grp enum --gens s4.prm",
    "grp_classes": "grp classes --gens s4.prm -p 3",
    "rep_chop": "rep chop --rep a5_gf4.rep",
    "rep_dual": "rep dual --rep a5_gf4.rep",
    "rep_iso": "rep iso --rep a5_gf4_4a.rep --other a5_gf4_4b.rep",
    "ctab_table": "ctab table --gens s4.prm",
    "ctab_brauer_p2": "ctab brauer --gens s4.prm -p 2",
    "ctab_brauer_p3": "ctab brauer --gens s4.prm -p 3",
    "ctab_table_a5": "ctab table --gens a5.prm",
    "ctab_brauer_a5_p2": "ctab brauer --gens a5.prm -p 2",
    "ctab_brauer_a5_p3": "ctab brauer --gens a5.prm -p 3",
    "ctab_table_c7": "ctab table --gens c7.prm",
    "ctab_blocks": "ctab blocks --table s4.ctb -p 2",
    "dxm_dtd": "dxm dtd --cartan hn_mod3_e_cartan",
    "dxm_dtd_rows10": "dxm dtd --cartan hn_mod3_e_cartan --rows 10",
    "dxm_enumerate": "dxm enumerate --fixture hn_mod3_b1_proj_c",
    "dxm_verify": "dxm verify --fixture hn_mod3_b0_hn2",
    "dxm_projs_s4_p3": "dxm projs --gens s4.prm -p 3 --blockindex 0",
    "fixtures_load": "fixtures load hn_mod3_b1",
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_stdout(case, capsysbinary):
    argv = [str(GOLDEN / t) if (GOLDEN / t).is_file() else t for t in CASES[case].split()]
    assert cli.main(argv) == 0
    assert capsysbinary.readouterr().out == (GOLDEN / f"{case}.out").read_bytes()
