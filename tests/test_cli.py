"""CLI: file formats, golden-byte reproducibility, exit codes, manifest."""

import hashlib
import json
import subprocess
import sys
import time

import pytest

from modchar import cli, gfla
from modchar.errors import FormatError


def run(args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "modchar.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


def test_matrix_format_roundtrip(tmp_path):
    F9 = gfla.field_make(3, 2)
    m = gfla.FqMatrix(F9, [[0, 5, 8], [1, 2, 3]])
    text = cli.format_matrix(m)
    assert text.splitlines()[0] == "MTX q=9 r=2 c=3"
    assert cli.parse_matrix(text) == m
    # classic MeatAxe text header accepted
    legacy = "1 9 2 3\n0 5 8\n1 2 3\n"
    assert cli.parse_matrix(legacy) == m
    with pytest.raises(FormatError):
        cli.parse_matrix("MTX q=9 r=2 c=3\n1 2\n")


def test_perm_format_roundtrip():
    perms = [(1, 0, 2), (1, 2, 0)]
    text = cli.format_perms(perms, 3)
    assert text.splitlines()[0] == "PRM n=3 k=2"
    assert cli.parse_perms(text) == perms


def test_rep_format_roundtrip():
    from modchar import grp

    F2 = gfla.field_make(2, 1)
    g = grp.enumerate_group([grp.perm_from_cycles(3, [(1, 2, 3)])])
    r = grp.regular_rep(g, F2)
    text = cli.format_rep(r)
    back = cli.parse_rep(text)
    assert back.dim == r.dim and back.gens == r.gens


def test_table_format_roundtrip():
    from modchar import ctab, grp

    g = grp.enumerate_group([grp.perm_from_cycles(3, [(1, 2)]), grp.perm_from_cycles(3, [(1, 2, 3)])])
    t = ctab.ordinary_table(g)
    text = cli.format_table(t)
    back = cli.parse_table(text)
    assert back.group_order == 6
    for a, b in zip(t.characters, back.characters):
        assert a.values == b.values


def test_cli_field_and_exit_codes(tmp_path):
    r = run(["field", "3,2"])
    assert r.returncode == 0
    assert "conway 2 2 1" in r.stdout
    r = run(["field", "4,1"])
    assert r.returncode == 2  # composite characteristic: domain error
    r = run(["mat", "echelon", "-a", str(tmp_path / "missing.mtx")])
    assert r.returncode == 3  # io error


def test_cli_mat_pipeline(tmp_path):
    a = tmp_path / "a.mtx"
    a.write_text("MTX q=3 r=2 c=2\n1 2\n2 1\n")
    r = run(["mat", "echelon", "-a", str(a)])
    assert r.returncode == 0
    assert r.stdout.splitlines()[0] == "rank 1"
    r = run(["mat", "minpoly", "-a", str(a)])
    assert r.returncode == 0


def test_cli_chop_s3_regular(tmp_path):
    prm = tmp_path / "s3.prm"
    prm.write_text("PRM n=3 k=2\n2 1 3\n2 3 1\n")
    # build the regular representation file through the API, then chop by CLI
    from modchar import grp

    g = grp.enumerate_group(cli.parse_perms(prm.read_text()))
    F3 = gfla.field_make(3, 1)
    reg = grp.regular_rep(g, F3)
    repfile = tmp_path / "s3_regular_gf3.rep"
    repfile.write_text(cli.format_rep(reg))
    r = run(["rep", "chop", "--rep", str(repfile), "--seed", "1"])
    assert r.returncode == 0
    assert r.stdout.strip() == "1a:3 1b:3"


def test_cli_dxm_fixture_commands():
    r = run(["dxm", "dtd", "--cartan", "hn_mod3_e_cartan"])
    assert r.returncode == 0
    assert r.stdout.splitlines()[0] == "solutions 1"
    r = run(["dxm", "sd16", "--fixture", "hn_mod2_b1"])
    assert r.returncode == 0
    assert "deltas 1 -1 -1 1" in r.stdout
    r = run(["dxm", "verify", "--fixture", "hn_mod2_b0_hn2"])
    assert r.returncode == 0 and r.stdout.strip() == "ok"
    r = run(["dxm", "atoms", "--fixture", "hn_mod3_b1_atom"])
    assert r.returncode == 0
    assert "degree 3362391" in r.stdout


def test_cli_fixtures_load(tmp_path):
    r = run(["fixtures", "list"])
    assert r.returncode == 0 and "hn_mod3_b1" in r.stdout.split()
    out = tmp_path / "fx.txt"
    r = run(["fixtures", "load", "hn_mod3_e_cartan", "--out", str(out)])
    assert r.returncode == 0
    assert out.read_text().startswith("#")


def test_golden_bytes_and_manifest(tmp_path):
    prm = tmp_path / "s3.prm"
    prm.write_text("PRM n=3 k=2\n2 1 3\n2 3 1\n")
    out1 = tmp_path / "t1.ctb"
    out2 = tmp_path / "t2.ctb"
    log = tmp_path / "manifest.jsonl"
    for out in (out1, out2):
        r = run(["ctab", "table", "--gens", str(prm), "--out", str(out), "--log", str(log)])
        assert r.returncode == 0
    assert out1.read_bytes() == out2.read_bytes()
    entries = [json.loads(l) for l in log.read_text().splitlines()]
    assert len(entries) == 2
    assert entries[1]["prev"] == entries[0]["hash"]
    assert entries[0]["outputs"][0]["sha256"] == entries[1]["outputs"][0]["sha256"]


def test_manifest_lists_neither_itself_nor_the_output_as_inputs(tmp_path):
    prm = tmp_path / "s4.prm"
    prm.write_text("PRM n=4 k=2\n2 1 3 4\n2 3 4 1\n")
    log = tmp_path / "m.log"
    out = tmp_path / "order.txt"
    for _ in range(2):
        assert cli.main(["grp", "enum", "--gens", str(prm), "--log", str(log)]) == 0
        assert cli.main(["grp", "enum", "--gens", str(prm), "--out", str(out), "--log", str(log)]) == 0
    entries = [json.loads(l) for l in log.read_text().splitlines()]
    assert len(entries) == 4
    for entry in entries:
        assert [i["path"] for i in entry["inputs"]] == [str(prm)]
    assert [o["path"] for o in entries[3]["outputs"]] == [str(out)]


def test_cli_grp_commands(tmp_path):
    prm = tmp_path / "s3.prm"
    prm.write_text("PRM n=3 k=2\n2 1 3\n2 3 1\n")
    sub = tmp_path / "c2.prm"
    sub.write_text("PRM n=3 k=1\n2 1 3\n")
    r = run(["grp", "enum", "--gens", str(prm)])
    assert r.stdout.strip() == "order 6"
    r = run(["grp", "dcosets", "--gens", str(prm), "--sub", str(sub)])
    assert r.stdout.splitlines()[0] == "count 2"
    r = run(["grp", "cosets", "--gens", str(prm), "--sub", str(sub)])
    assert r.stdout.splitlines()[0] == "PRM n=3 k=2"


def test_decomp_state_roundtrip():
    from modchar import dxm
    from modchar.fixtures import load

    fx = load("hn_mod3_b1_proj_c")
    cols = tuple(
        dxm.ProjectiveColumn(
            lbl, dxm._vec([r[j] for r in fx.matrix]), bool(fx.indecomposable[j])
        )
        for j, lbl in enumerate(fx.col_labels)
    )
    state = dxm.DecompState(
        "b1", fx.row_labels, fx.row_degrees, fx.basic_row_indices(), cols
    )
    state = dxm.enumerate_candidates(state)
    text = cli.format_decomp_state(state)
    back = cli.parse_decomp_state(text)
    assert back == state
    assert cli.format_decomp_state(back) == text


def test_cli_clifford2():
    r = run(["ctab", "clifford2", "--fixture", "hn_mod2_b0", "--target", "hn_mod2_b0_hn2"])
    assert r.returncode == 0
    head = r.stdout.splitlines()[:2]
    assert head == ["k 63", "l 12"]


def test_cli_handlers_in_process(tmp_path, capsys):
    """Exercise the thin handlers not covered elsewhere, in process."""
    from modchar import grp

    F2 = gfla.field_make(2, 1)
    # materials
    prm = tmp_path / "c3.prm"
    prm.write_text("PRM n=3 k=1\n2 3 1\n")
    g = grp.enumerate_group(cli.parse_perms(prm.read_text()))
    reg = grp.regular_rep(g, F2)
    repfile = tmp_path / "c3.rep"
    repfile.write_text(cli.format_rep(reg))
    seeds = tmp_path / "seeds.mtx"
    seeds.write_text("MTX q=2 r=1 c=3\n1 1 1\n")
    mat = tmp_path / "m.mtx"
    mat.write_text("MTX q=2 r=2 c=2\n1 1\n0 1\n")

    def ok(args):
        assert cli.main(args) == 0
        return capsys.readouterr().out

    out = ok(["mat", "nullspace", "-a", str(mat)])
    assert out.startswith("MTX")
    out = ok(["mat", "add", "-a", str(mat), "-b", str(mat)])
    assert out.splitlines()[1] == "0 0"
    out = ok(["mat", "kron", "-a", str(mat), "-b", str(mat)])
    assert "r=4 c=4" in out.splitlines()[0]
    out = ok(["mat", "charpoly", "-a", str(mat)])
    assert out.startswith("charpoly")
    out = ok(["rep", "spin", "--rep", str(repfile), "--seeds", str(seeds)])
    assert out.splitlines()[0] == "MTX q=2 r=1 c=3"
    out = ok(["rep", "dual", "--rep", str(repfile)])
    assert out.startswith("REP")
    out = ok(["rep", "tensor", "--rep", str(repfile), "--other", str(repfile)])
    assert "d=9" in out.splitlines()[0]
    out = ok(["rep", "hom", "--rep", str(repfile), "--other", str(repfile)])
    assert out.splitlines()[0] == "dim 3"
    # iso needs simple modules: use the 2-dimensional factor of the regular one
    from modchar import rep as _rep

    simple2 = next(f for f, _ in _rep.chop(reg, 1) if f.dim == 2)
    s2file = tmp_path / "c3s2.rep"
    s2file.write_text(cli.format_rep(simple2))
    out = ok(["rep", "iso", "--rep", str(s2file), "--other", str(s2file)])
    assert out.splitlines()[0].startswith("MTX")
    out = ok(["rep", "socle", "--rep", str(repfile)])
    assert out.splitlines()[0].startswith("layer 1:")
    # condensation commands on the natural S4 module
    s4 = tmp_path / "s4.prm"
    s4.write_text("PRM n=4 k=2\n2 1 3 4\n2 3 4 1\n")
    gs4 = grp.enumerate_group(cli.parse_perms(s4.read_text()))
    nat = grp.perm_rep(gs4, F2)
    natfile = tmp_path / "s4nat.rep"
    natfile.write_text(cli.format_rep(nat))
    kfile = tmp_path / "k.rep"
    km = grp.element_matrix(gs4, nat, grp.perm_from_cycles(4, [(1, 2, 3)]))
    kfile.write_text(cli.format_rep(__import__("modchar.rep", fromlist=["Representation"]).Representation(F2, 4, (km,))))
    out = ok(["cond", "make", "--rep", str(natfile), "--sub", str(kfile)])
    assert out.splitlines()[0] == "rank 2"
    elem = tmp_path / "g34.mtx"
    g34 = grp.element_matrix(gs4, nat, grp.perm_from_cycles(4, [(3, 4)]))
    elem.write_text(cli.format_matrix(g34))
    out = ok(["cond", "elem", "--rep", str(natfile), "--sub", str(kfile), "--element", str(elem)])
    assert out.splitlines()[1:] == ["0 1", "1 0"]
    space = tmp_path / "u.mtx"
    space.write_text("MTX q=2 r=1 c=2\n0 1\n")
    out = ok(["cond", "uncondense", "--rep", str(natfile), "--sub", str(kfile), "--space", str(space)])
    assert out.splitlines()[0] == "MTX q=2 r=4 c=4"
    out = ok(["cond", "tensor", "--rep", str(repfile), "--other", str(repfile)])
    assert out.startswith("MTX")
    kprm = tmp_path / "kperm.prm"
    kprm.write_text("PRM n=4 k=1\n2 3 1 4\n")
    out = ok(["cond", "perm", "--rep", str(s4), "--sub", str(kprm), "--field", "2,1"])
    assert out.splitlines()[0] == "orbits 2"


def test_table_roundtrip_with_irrational_values(tmp_path):
    """The A5 table contains golden-ratio-type cyclotomic values; the CTB
    text format carries them exactly."""
    from modchar import ctab, grp

    a5 = grp.enumerate_group(
        [grp.perm_from_cycles(5, [(1, 2, 3, 4, 5)]), grp.perm_from_cycles(5, [(3, 4, 5)])]
    )
    t = ctab.ordinary_table(a5)
    text = cli.format_table(t)
    assert "cyc(5)[" in text
    back = cli.parse_table(text)
    for a, b in zip(t.characters, back.characters):
        assert a.values == b.values


def test_cli_brauer_table(tmp_path, capsys):
    prm = tmp_path / "s3.prm"
    prm.write_text("PRM n=3 k=2\n2 1 3\n2 3 1\n")
    assert cli.main(["ctab", "brauer", "--gens", str(prm), "-p", "3"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "CTB order=6 classes=2 p=3"
    assert len(out.splitlines()) == 5  # header + 2 classes + 2 Brauer characters


def test_mat_nullspace_of_an_empty_wide_matrix(tmp_path, capsys):
    """A 0 x 2048 matrix has the identity as its null space; the kernel rows
    are written down from one elimination, not echelonized again."""
    mtx = tmp_path / "z.mtx"
    mtx.write_text("MTX q=3 r=0 c=2048\n")
    t0 = time.process_time()
    assert cli.main(["mat", "nullspace", "-a", str(mtx)]) == 0
    elapsed = time.process_time() - t0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == "50308439f5e3c5c0f87f605fadc87a5a60b5faa5a858e6bcec33de213c1c4892"
    assert elapsed < 2.0
