"""Golden report digests for every CLI command and both study scripts.

Each run happens in-process in a fresh working directory, with relative
paths only and `sys.argv` set to the same arguments, so the command echo
inside the digest carries no temporary path.  The pinned values were
recorded from the code as it stood before the stage layer moved into
`seqlab.pipeline`; a change of any digest is a change of behaviour.  The
re-pins since: ASCENT_DIGEST twice, once when the ascent study began to
check the b-file and the cubic itself and to take rho from its derived ODE,
and once when it began to guess the cubic of U itself, in place of a shifted
branch, and to read its exponent from the ODE; LCONVEX_DIGEST once, when the
L-convex study lost `--squares` and LCONVEX_ARGS with it, so that it
extrapolates on all 20 squares of its 400 terms, not the first 15; and
`extrapolate bst` once, when its report began to carry the note that the
spread is at least |limit|, which this case prints.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from conftest import CATALAN, DATA_DIR
from seqlab import gen_lconvex_area, render_bfile
from seqlab.cli import main
from test_scripts import load_script

BFILE = "b202062.txt"
GROWTH = "1,-8,5,1"

COMMANDS = {
    "gen lconvex-area": ["gen", "lconvex-area", "--n", "40"],
    "gen lconvex-perimeter": ["gen", "lconvex-perimeter", "--n", "20"],
    "gen stack": ["gen", "stack", "--n", "40"],
    "oracle lconvex": ["oracle", "lconvex", "--n", "8"],
    "oracle stack": ["oracle", "stack", "--n", "12"],
    "oracle ascent": ["oracle", "ascent", "--pattern", "201", "--n", "7"],
    "guess rec": ["guess", "rec", BFILE, "--rmax", "5", "--dmax", "2"],
    "guess algeq": ["guess", "algeq", "catalan.txt", "--dxmax", "2", "--dymax", "2"],
    "expand rec": ["expand", "rec", BFILE, "--n", "80"],
    "expand algeq": ["expand", "algeq", "catalan.txt", "--n", "40",
                     "--dxmax", "2", "--dymax", "2"],
    "expand rational": ["expand", "rational", "--num", "0,1", "--den", "1,-1,-1",
                        "--n", "25"],
    "analyze ratios": ["--precision", "40", "analyze", "ratios", "lconvex.txt"],
    "analyze stretched": ["--precision", "40", "analyze", "stretched", "lconvex.txt"],
    "analyze square": ["--precision", "40", "analyze", "square", "lconvex.txt"],
    "analyze powerlaw": ["--precision", "40", "analyze", "powerlaw", BFILE,
                         "--mu-from-poly", GROWTH],
    "extrapolate bst": ["--precision", "40", "extrapolate", "bst", "lconvex.txt",
                        "--square"],
    "fit amplitude": ["--precision", "50", "fit", "amplitude", BFILE,
                      "--mu-from-poly", GROWTH, "--g", "9/2", "--K", "6"],
    "identify rational": ["identify", "rational", "--value", "0.142857142857142857"],
    "identify mult": ["identify", "mult", "--value",
                      "0.0239385108214195776489869185088"],
    "identify minpoly": ["identify", "minpoly", "--maxdeg", "2", "--value",
                         "1.41421356237309504880168872420969807856967187537694"],
    "fetch": ["--offline", "--cache-dir", "cache", "fetch", "A000108"],
}

GOLDEN = {
    "analyze powerlaw":
        "b43a96e692fbc262f6be8d7f4c738b8d91a64a53d03ca867f9b1791eea479c51",
    "analyze ratios":
        "c1340bb6e38f64af9f53f1fd130cbee5c167e6f5d224a616055b5501402eaae4",
    "analyze square":
        "bb115e7a4e54d95aa8ce23a089f261a806cbcb6b236e428231bdb89631631285",
    "analyze stretched":
        "049871d7f1963ed00639caffc592d081759e2e11e27ecec2f3cf821e0a350e5f",
    "expand algeq":
        "7f6393cabcba71d3623746651cc3818bc5ba9357808363e028809f45b42920a2",
    "expand rational":
        "50a2b6aca0622d927d284b13e114f2b02816f67d8b682c241d199879d3bf9f57",
    "expand rec":
        "04b9477b5463f9010c3ef47d9d429ca29ac4a20c26bdc41f7e88c171a75d7e37",
    "extrapolate bst":
        "bae46e2a296c5301e1d3b8168f62f0a1582f10637baffa7c1b84a786916867b6",
    "fetch":
        "b3685343134d6e47f1d33eef74556b69c9a0543b8fdeff5d4e16f3fbcd1f280e",
    "fit amplitude":
        "53236933c2e698e5b29b461dedfdc8980f3612200dd89e065b0cf5624172faa3",
    "gen lconvex-area":
        "b3dd5c4cc0685f138cb152c6d2a7f891681d82b330ece662681d324b947aed1f",
    "gen lconvex-perimeter":
        "96de10ae14977b144ff473a885b2183bd21a7d809493e9bed1b049e63e08a01a",
    "gen stack":
        "4dada3baf7a243216503109bcbafbebf5143ea981088087c18ea005207500a77",
    "guess algeq":
        "3e968ef8d33d120ca5a9ac133bbcd3226ca283167c374753b8a11dcf5c8c2d5f",
    "guess rec":
        "8a5fd2d153fb017c0f67d83311c26d5838384f4f1715b612add76bcec75d4290",
    "identify minpoly":
        "01173798969b3b445579ee8cd0e51711d4da364ca8476159844c4dda6e87e424",
    "identify mult":
        "93838fbcaf2f0f85375e5ac5a24e499498fdb5df77f738fa131523e697e71141",
    "identify rational":
        "12c9c65f3f53d9d31fd207b5279ccc123a376c85663d0795c1c8db1b203cb0f4",
    "oracle ascent":
        "6be77ee8a463cf63bf46946366891056585a53e6fb43e271afda107962eba2e7",
    "oracle lconvex":
        "9a1eb925e953a20d2decd4bcb8536d62efb3b6c5638db6d3d0b3f9c195265124",
    "oracle stack":
        "301c67f7742ec79ac5b26447f4d9db8c97cc165df6f2fe1a53ed028619ee9ad3",
}

LCONVEX_ARGS = ["--terms", "400", "--digits", "60", "--report", "out/lconvex.json"]
ASCENT_ARGS = ["--terms", "600", "--digits", "60", "--corrections", "6",
               "--report", "out/ascent.json"]
LCONVEX_DIGEST = "955c05741ad4607b131d607f9acc5cc2c46d577bb789c3a8e04997600e8bcc9b"
ASCENT_DIGEST = "349e965d6832a3d58d2e5e831cdf67ce8dc40fa84e5f0aadc241eab19a9ef378"
LCONVEX_CSV_SHA256 = {
    "e1": "029f41023688775aa90ee310ddf432315447dd1076efcea86139489ad7a31927",
    "e2": "02dda6b6b46dad8fa3ffde2dc0d56cf45c06b435a4eacd2f4207ed00ea8442bc",
    "g2_n": "e22502049a7b91fcc4ecdb93cc509c61b241264a5673a22e446dc370a5f723e0",
    "g_n": "66063037e9a10a3bfab6bb7d76bafbfd7221b45424a1b0a201b0ff791680351e",
    "intercepts": "bf849b7e670bb1c9f1c841f9cced298ead8a48a1114be5e126fc053f8919b89c",
    "r_sq": "92f81109b06e2f9bb9fcde071fb7fca24d1c8f510634ab216c9712fc7545a575",
    "t_n": "bb15bf1b823ad038a22d7a94fc909e88fb69df1b2f46e2a134355f7ab2dcbf4c",
}


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    """A working directory holding the fixture inputs under relative names."""
    monkeypatch.chdir(tmp_path)
    Path(BFILE).write_text((DATA_DIR / BFILE).read_text())
    catalan = "".join(f"{n} {t}\n" for n, t in enumerate(CATALAN))
    Path("catalan.txt").write_text(catalan)
    Path("lconvex.txt").write_text(render_bfile(gen_lconvex_area(121)))
    Path("cache").mkdir()
    (Path("cache") / "A000108.bfile").write_text(catalan)
    return tmp_path


def report_digest(path):
    return json.loads(Path(path).read_text(encoding="utf-8"))["report_digest"]


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_cli_report_digest(name, workdir, monkeypatch):
    args = COMMANDS[name]
    monkeypatch.setattr(sys, "argv", ["seqlab", *args])
    result = CliRunner().invoke(main, args, catch_exceptions=False)
    assert result.exit_code == 0, result.output
    assert report_digest("report.json") == GOLDEN[name]


def test_expand_rec_5000_terms_pinned(workdir, monkeypatch):
    """stdout and report of a 5000-term expansion, whose last term has
    4300 digits; both hashes were recorded from the code that rendered
    every term with str(int)."""
    args = ["expand", "rec", BFILE, "--n", "5000"]
    monkeypatch.setattr(sys, "argv", ["seqlab", *args])
    result = CliRunner().invoke(main, args, catch_exceptions=False)
    assert result.exit_code == 0, result.output
    assert hashlib.sha256(result.stdout_bytes).hexdigest() == (
        "c759a76d62956b0c0f0be6feb2cee724f438293a931ca37bf53968215c532f24")
    assert report_digest("report.json") == (
        "233c3ca9a36f67348eb84a3cbe07cf5e5800b188a7e7308494d11cd93bb4ba90")


def test_fit_amplitude_on_3000_term_expansion_pinned(workdir, monkeypatch):
    """`fit amplitude` at 200 digits on the stdout of a 3000-term
    `expand rec`, the settings of the benchmark's `cli` session; both
    hashes were recorded from the code that converted every b-file term."""
    expand = ["expand", "rec", BFILE, "--n", "3000"]
    monkeypatch.setattr(sys, "argv", ["seqlab", *expand])
    result = CliRunner().invoke(main, expand, catch_exceptions=False)
    assert result.exit_code == 0, result.output
    Path("expanded.txt").write_bytes(result.stdout_bytes)
    args = ["--precision", "200", "fit", "amplitude", "expanded.txt",
            "--mu-from-poly", GROWTH, "--g", "9/2", "--K", "12"]
    monkeypatch.setattr(sys, "argv", ["seqlab", *args])
    result = CliRunner().invoke(main, args, catch_exceptions=False)
    assert result.exit_code == 0, result.output
    assert hashlib.sha256(result.stdout_bytes).hexdigest() == (
        "efd611a7d09f188a503dc9903b54ee63a8e12e627befe85068f514d709dedfd1")
    assert report_digest("report.json") == (
        "d949328ca339366139b0fee31a9cb12a491aa837dac7689ea838ce473844d1bd")


def test_fetch_of_4655_term_bfile_pinned(workdir, monkeypatch):
    """`fetch` of a cached b-file: the stdout of a 4655-term `expand rec`,
    with some values written as int() reads them but str(int) does not
    (a sign, leading zeros, an underscore, non-ASCII digits), and one
    negative value.  Both hashes
    were recorded from the code that converted every term to int."""
    expand = ["expand", "rec", BFILE, "--n", "4655"]
    monkeypatch.setattr(sys, "argv", ["seqlab", *expand])
    result = CliRunner().invoke(main, expand, catch_exceptions=False)
    assert result.exit_code == 0, result.output
    lines = result.stdout_bytes.decode().splitlines()
    odd = {3: "+{}", 10: "00{}", 20: "-0", 40: "-{}", 4000: "+{}"}
    for at, form in odd.items():
        n, v = lines[at].split()
        lines[at] = f"{n} {form.format(v)}"
    n, v = lines[7].split()
    lines[7] = f"{n} {v[:2]}_{v[2:]}"
    n, v = lines[30].split()
    lines[30] = f"{n} {''.join(chr(0x660 + int(d)) for d in v)}"
    (Path("cache") / "A202062.bfile").write_text("\n".join(lines) + "\n",
                                                 encoding="utf-8")
    args = ["--offline", "--cache-dir", "cache", "fetch", "A202062"]
    monkeypatch.setattr(sys, "argv", ["seqlab", *args])
    result = CliRunner().invoke(main, args, catch_exceptions=False)
    assert result.exit_code == 0, result.output
    assert hashlib.sha256(result.stdout_bytes).hexdigest() == (
        "835468bf34cd594372592ca60ae6b674268d6377a4612d5b0bfd26e37bb3b52c")
    assert report_digest("report.json") == (
        "130e337b85d000c2ab3d847a7a039614e3b6c6726b1eec6231dffc0c8cff34da")


def run_script(name, args, monkeypatch):
    monkeypatch.setattr(sys, "argv", [f"{name}.py", *args])
    assert load_script(name).main() == 0


def test_lconvex_script_digest_and_csvs(workdir, monkeypatch):
    run_script("lconvex_pipeline", LCONVEX_ARGS, monkeypatch)
    assert report_digest("out/lconvex.json") == LCONVEX_DIGEST
    csvs = {p.stem: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in Path("out").glob("*.csv")}
    assert csvs == LCONVEX_CSV_SHA256


def test_ascent_script_digest(workdir, monkeypatch, capsys):
    run_script("ascent_pipeline", ASCENT_ARGS, monkeypatch)
    assert report_digest("out/ascent.json") == ASCENT_DIGEST
    # C at 600 terms holds too few digits for min_poly(A^2, 3, 50); stdout
    # says so, the report's notes already did
    lines = capsys.readouterr().out.splitlines()
    at = lines.index("minimal polynomial of A^2: not found")
    assert lines[at - 1].startswith("amplitude C = ")
    assert lines[at + 1].startswith("closed-form radical for C: ")
