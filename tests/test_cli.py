"""CLI: file formats, exit codes, JSON stability."""

import ast
import builtins
import gc
import hashlib
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sspread
from sspread import ParseError, Verdict, cli, errors, examples, harness, ineq
from sspread.examples import EXAMPLE_IDS, fixture_matrices
from sspread.harness import VERIFIERS, _crandn, _hermitian, trial_args
from sspread.rng import Stream
from sspread.spectra import DiagSpec

ROOT = Path(__file__).resolve().parent.parent
FIX = str(ROOT / "fixtures")


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# -- literals and formats ------------------------------------------------------

def test_parse_complex_forms():
    assert cli.parse_complex("1.5") == 1.5
    assert cli.parse_complex("-2") == -2.0
    assert cli.parse_complex("1+2i") == 1 + 2j
    assert cli.parse_complex("-1.5-0.25i") == -1.5 - 0.25j
    assert cli.parse_complex("2i") == 2j
    assert cli.parse_complex("-i") == -1j
    assert cli.parse_complex("i") == 1j
    assert cli.parse_complex("1e-3+2.5e2i") == 1e-3 + 2.5e2j
    with pytest.raises(ParseError):
        cli.parse_complex("banana")
    with pytest.raises(ParseError):
        cli.parse_complex("1+2j+3i")
    # Python's complex grammar takes no inner whitespace; a matrix row is
    # split on whitespace, so no file holds such a token
    with pytest.raises(ParseError, match="bad complex literal"):
        cli.parse_complex("1 i")


def test_format_parse_roundtrip_random():
    m = _crandn(Stream(42), 5, 5)
    text = cli.write_matrix_text(m)
    parsed, mode = cli.parse_matrix_text(text)
    assert mode is None
    assert np.array_equal(parsed, m)  # bit-exact via repr round-trip


def test_format_parse_roundtrip_signed_zeros():
    # a negative zero keeps its sign bit in the real and the imaginary part
    zeros = (0.0, -0.0)
    m = np.array([[complex(re, im) for re in zeros for im in zeros]] * 4)
    assert cli.format_complex(complex(2.0, -0.0)) == "2.0-0.0i"
    assert cli.format_complex(complex(-0.0, 0.0)) == "-0.0+0.0i"
    parsed, _ = cli.parse_matrix_text(cli.write_matrix_text(m))
    assert np.array_equal(np.signbit(parsed.real), np.signbit(m.real))
    assert np.array_equal(np.signbit(parsed.imag), np.signbit(m.imag))
    assert parsed.tobytes() == m.tobytes()


def test_matrix_text_mode_directive_and_comments():
    text = "# a comment\nmode: matrix\ndim 2\n1 0 # trailing\n0 1\n"
    parsed, mode = cli.parse_matrix_text(text)
    assert mode == "matrix"
    assert np.array_equal(parsed, np.eye(2))
    # directive may also follow the header
    parsed, mode = cli.parse_matrix_text("dim 1\nmode: compact\n3\n")
    assert mode == "compact"


def test_matrix_text_malformed():
    for bad in (
        "",
        "dim x\n1\n",
        "dim 2\n1 0\n",
        "dim 2\n1 0 0\n0 1\n",
        "dim 0\n",
        "mode: banana\ndim 1\n1\n",
        "1 2\n3 4\n",
    ):
        with pytest.raises(ParseError):
            cli.parse_matrix_text(bad)


def test_diag_text_roundtrip():
    text = "diag\nhead: 2.5 -1.0\nliminf: 0.0\nlimsup: 0.0\ngenerator: harmonic limit=0.0 coef=1.0\n"
    spec, mode = cli.parse_matrix_text(text)
    assert mode == "diag"
    assert spec == DiagSpec(head=(2.5, -1.0), liminf=0.0, limsup=0.0,
                            generator="harmonic", params={"limit": 0.0, "coef": 1.0})


def test_diag_text_malformed():
    for bad in (
        "diag\nhead: 1.0\n",  # missing band
        "diag\nliminf: 0\nlimsup: x\n",
        "diag\nliminf: 1\nlimsup: 0\n",
        "diag\nliminf: 0\nlimsup: 0\ngenerator:\n",
        "diag\nliminf: 0\nlimsup: 0\nwhat: 1\n",
        "diag\nliminf: 0\nlimsup: 0\ngenerator: harmonic limit\n",
    ):
        with pytest.raises(ParseError):
            cli.parse_matrix_text(bad)


def test_fixture_files_match_programmatic_values():
    names = {
        "kittaneh-fail": {"A": "kittaneh_fail_A.txt", "B": "kittaneh_fail_B.txt",
                          "X": "kittaneh_fail_X.txt"},
        "agm-fail-2x2": {"S": "agm_fail_2x2_S.txt", "C": "agm_fail_2x2_C.txt",
                         "E": "agm_fail_2x2_E.txt"},
        "agm-fail-3x3": {"A": "agm_fail_3x3_A.txt", "B": "agm_fail_3x3_B.txt",
                         "E": "agm_fail_3x3_E.txt"},
    }
    for ex, files in names.items():
        mats = fixture_matrices(ex)
        for key, fname in files.items():
            payload, _, _ = cli.load_file(f"{FIX}/{fname}")
            assert np.array_equal(payload, mats[key]), (ex, key)
    payload, _, _ = cli.load_file(f"{FIX}/diag_scale.diag")
    assert payload == fixture_matrices("diag-scale")["spec"]


def test_canonical_json_is_sorted_and_17g():
    text = cli.canonical_json({"b": [1.0 / 3.0], "a": 2, "c": {"y": True, "x": None}})
    assert text == '{"a":2,"b":[0.33333333333333331],"c":{"x":null,"y":true}}'
    assert json.loads(text)  # stays valid JSON
    assert cli.canonical_json(float("nan")) == "null"


# -- subcommands ----------------------------------------------------------------

def test_scale_json_fields(capsys):
    code, out, _ = run(capsys, "scale", f"{FIX}/kittaneh_fail_B.txt", "--json")
    assert code == 0
    rep = json.loads(out)
    assert rep["command"] == "scale"
    assert rep["mode"] == "compact" and rep["K"] == 4
    assert rep["pos"] == [3.0, 0.0, 0.0, 0.0]
    assert rep["neg"] == [-1.0, 0.0, 0.0, 0.0]
    assert rep["inputs"][0]["path"].endswith("kittaneh_fail_B.txt")
    assert len(rep["inputs"][0]["digest"]) == 64


def test_check_reads_each_input_once(capsys, monkeypatch):
    opened = []

    def counting_open(path, *args, **kwargs):
        opened.append(path)
        return open(path, *args, **kwargs)

    monkeypatch.setattr(cli, "open", counting_open, raising=False)
    files = [f"{FIX}/kittaneh_fail_{name}.txt" for name in "ABX"]
    code, out, _ = run(capsys, "check", "mixed_commutator", *files, "--json")
    assert code == 0
    assert opened == files
    # the digest is of the bytes the verdict was judged on
    rep = json.loads(out)
    assert [i["path"] for i in rep["inputs"]] == files
    assert [i["digest"] for i in rep["inputs"]] == [
        hashlib.sha256(Path(f).read_bytes()).hexdigest() for f in files]


def test_scale_matrix_mode(capsys):
    code, out, _ = run(capsys, "scale", f"{FIX}/kittaneh_fail_B.txt",
                       "--mode", "matrix", "--json")
    assert code == 0
    rep = json.loads(out)
    assert rep["mode"] == "matrix" and rep["K"] == 2
    assert rep["pos"] == [3.0, -1.0]
    assert rep["pos_tail"] is None


def test_mode_directive_precedence(tmp_path, capsys):
    p = tmp_path / "m.txt"
    p.write_text("mode: matrix\ndim 2\n2 0\n0 -1\n")
    code, out, _ = run(capsys, "scale", str(p), "--json")
    assert json.loads(out)["mode"] == "matrix"
    # an explicit flag overrides the directive
    code, out, _ = run(capsys, "scale", str(p), "--mode", "compact", "--json")
    assert json.loads(out)["mode"] == "compact"


def test_spread_full(capsys):
    code, out, _ = run(capsys, "spread", f"{FIX}/diag_scale.diag",
                       "--horizon", "4", "--full", "--json")
    assert code == 0
    rep = json.loads(out)
    assert rep["values"][0] == pytest.approx(3.0)
    assert rep["tail"] == pytest.approx(2.0)
    assert rep["full_neg"] == [-x for x in rep["values"]]


def test_check_holds_exit_zero(capsys):
    code, out, _ = run(
        capsys, "check", "agm_general",
        f"{FIX}/agm_fail_3x3_A.txt", f"{FIX}/agm_fail_3x3_B.txt",
        f"{FIX}/agm_fail_3x3_E.txt", "--json",
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["check"]["holds"] is True
    assert rep["check"]["entrywise_holds"] is False
    assert rep["check"]["report"]["tail_verdict"] == "conclusive"


def test_check_of_an_overflowing_margin_exits_two(capsys, tmp_path):
    # finite operands whose scale overflows the claim: an input error naming
    # it, never a NaN verdict
    files = []
    for name, m in zip("AB", trial_args("trace_pairing", 3, (4, 4))):
        path = tmp_path / f"{name}.txt"
        path.write_text(cli.write_matrix_text(1e200 * m))
        files.append(str(path))
    with np.errstate(all="ignore"):
        code, out, err = run(capsys, "check", "trace_pairing", *files, "--json")
    assert (code, out) == (2, "")
    assert err.startswith("sspread: trace_pairing: overflow encountered in ")


def test_check_of_an_overflowing_scale_writes_one_line(tmp_path):
    # a fresh process, where no test harness collects numpy's warnings: the
    # named input error is all that reaches stderr
    files = []
    for name, m in zip("AB", trial_args("trace_pairing", 3, (4, 4))):
        path = tmp_path / f"{name}.txt"
        path.write_text(cli.write_matrix_text(1e200 * m))
        files.append(str(path))
    out = _sspread(["check", "trace_pairing", *files], capture_output=True, text=True)
    assert (out.returncode, out.stdout) == (2, "")
    assert out.stderr.count("\n") == 1
    assert out.stderr.startswith("sspread: trace_pairing: overflow encountered in ")


def test_check_split_flag(capsys, tmp_path):
    p = tmp_path / "f.txt"
    p.write_text("dim 2\n1 1\n1 1\n")
    code, out, _ = run(capsys, "check", "tao_positive", str(p), "--split", "1", "--json")
    assert code == 0
    assert json.loads(out)["check"]["extras"]["split"] == 1


def test_check_split_refused_without_split_form(capsys, tmp_path):
    # --split is out of domain for a verifier that takes no split
    code, out, err = run(capsys, "check", "zhan", f"{FIX}/kittaneh_fail_A.txt",
                         f"{FIX}/kittaneh_fail_B.txt", "--split", "7")
    assert code == 2 and out == ""
    assert "zhan takes no --split" in err
    p = tmp_path / "f.txt"
    p.write_text("dim 2\n2 1\n1 2\n")
    for ineq_id in ("tao_positive", "key"):
        code, out, _ = run(capsys, "check", ineq_id, str(p), "--split", "1", "--json")
        assert code == 0
        assert json.loads(out)["check"]["extras"]["split"] == 1


def test_check_wrong_file_count(capsys):
    code, _, err = run(capsys, "check", "zhan", f"{FIX}/kittaneh_fail_A.txt")
    assert code == 2
    assert "2 matrix files" in err


def test_check_optional_fourth_file(capsys, tmp_path):
    # agm_pair accepts 3 or 4 files
    code, _, err = run(capsys, "check", "agm_pair", f"{FIX}/kittaneh_fail_A.txt")
    assert code == 2
    assert "3 or 4 matrix files" in err
    t = np.array([0.3, 1.1])
    files = []
    for name, m in (("S", np.diag(np.sin(t))), ("C", np.diag(np.cos(t))),
                    ("E1", np.array([[1.0, 2.0], [2.0, -1.0]])),
                    ("E2", np.array([[0.0, 1.0], [1.0, 3.0]]))):
        path = tmp_path / f"{name}.txt"
        path.write_text(cli.write_matrix_text(m))
        files.append(str(path))
    for n in (3, 4):
        code, out, err = run(capsys, "check", "agm_pair", *files[:n], "--json")
        assert code == 0, err
        rep = json.loads(out)["check"]
        assert rep["holds"] is True
        # with E2 omitted the AGM corollary is implied by the judged claim,
        # so neither case records extras
        assert rep["extras"] == {}
    assert run(capsys, "check", "agm_pair", files[0], files[1])[0] == 2


def test_check_error_names_the_operand(capsys, tmp_path):
    # a gate at the verifier's boundary names the parameter it rejects
    nh, nf = tmp_path / "nh.txt", tmp_path / "nf.txt"
    nh.write_text("dim 2\n1 2\n0 1\n")
    nf.write_text("dim 2\n1 nan\n0 1\n")
    for argv, message in (
            (["zhan", f"{FIX}/kittaneh_fail_A.txt", str(nh)],
             "F: Hermitian defect 2.000e+00 exceeds 2.000e-12"),
            (["mixed_commutator", f"{FIX}/kittaneh_fail_A.txt", f"{FIX}/kittaneh_fail_B.txt",
              str(nf)], "X: matrix entries must be finite")):
        assert run(capsys, "check", *argv) == (2, "", f"sspread: {message}\n")


def test_exit_codes_parse_and_mode_and_unknown(capsys, tmp_path):
    assert run(capsys, "scale", str(tmp_path / "missing.txt"))[0] == 2
    nh = tmp_path / "nh.txt"
    nh.write_text("dim 2\n1 2\n3 4\n")
    assert run(capsys, "check", "zhan", str(nh), str(nh))[0] == 2
    assert run(capsys, "scale", f"{FIX}/diag_scale.diag", "--mode", "matrix")[0] == 3
    assert run(capsys, "scale", f"{FIX}/kittaneh_fail_A.txt",
               "--mode", "matrix", "--horizon", "4")[0] == 3
    assert run(capsys, "scale", f"{FIX}/kittaneh_fail_A.txt", "--horizon", "1")[0] == 3
    assert run(capsys, "check", "nope", f"{FIX}/kittaneh_fail_A.txt")[0] == 4
    assert run(capsys, "fuzz", "nope")[0] == 4
    assert run(capsys, "repro", "nope")[0] == 4
    assert run(capsys, "nosuchcommand")[0] == 2


def test_every_error_type_exits_as_the_readme_table_says(capsys, monkeypatch):
    # README's table: exit code | error types | stderr prefix, then the message
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    rows = re.findall(r"^\| (\d) \| ([^|]+) \| `([^`]+)` message \|$", text, flags=re.M)
    table = {name: (int(code), prefix)
             for code, names, prefix in rows for name in re.findall(r"`(\w+)`", names)}
    spread_errors = {name for name, obj in vars(errors).items()
                     if isinstance(obj, type) and issubclass(obj, errors.SpreadError)}
    assert set(table) == spread_errors | {"OSError", "ValueError"}
    for name, (code, prefix) in table.items():
        exc = getattr(errors, name, None) or getattr(builtins, name)

        def raise_it(example_id, exc=exc):
            raise exc("boom")

        monkeypatch.setattr(examples, "repro", raise_it)
        assert run(capsys, "repro", "x") == (code, "", prefix + "boom\n"), name


@pytest.mark.parametrize("rows, message", [
    ("1 0\n\n1x 1\n", "line 5: bad number '1x'"),
    ("1 0\n# a comment\n2ii 1\n", "line 5: bad complex literal '2ii'"),
    ("1 0 0\n0 1\n", "line 3: expected 2 entries per row, found 3"),
    (b"1 0\n\xff 1\n", "not UTF-8 text: byte 0xff at offset 14"),
], ids=["bad-number", "bad-complex-literal", "row-length", "not-utf8"])
def test_parse_error_names_file_and_line(capsys, tmp_path, monkeypatch, rows, message):
    # the second of two files is the bad one; its line counts blank and comment lines
    monkeypatch.chdir(tmp_path)
    if isinstance(rows, bytes):
        Path("B.txt").write_bytes(b"# B\ndim 2\n" + rows)
    else:
        Path("B.txt").write_text("# B\ndim 2\n" + rows)
    code, out, err = run(capsys, "check", "zhan", f"{FIX}/kittaneh_fail_A.txt", "B.txt")
    assert code == 2 and out == ""
    assert err == f"sspread: B.txt: {message}\n"


@pytest.mark.parametrize("command", ["scale", "spread"])
def test_non_utf8_file_is_a_parse_error(capsys, tmp_path, monkeypatch, command):
    # a diag file too: the bytes are refused before the format is looked at
    monkeypatch.chdir(tmp_path)
    Path("BAD.diag").write_bytes(b"liminf: 0\nlimsup: 1\npos: 1 \xfe\n")
    code, out, err = run(capsys, command, "BAD.diag")
    assert code == 2 and out == ""
    assert err == "sspread: BAD.diag: not UTF-8 text: byte 0xfe at offset 27\n"


def test_exit_code_fails_path(capsys, monkeypatch):
    # judged-false plumbing: patch in a verifier that always rejects; the CLI
    # looks the verifier up on sspread.ineq at call time
    def reject(e, f):
        return Verdict(ineq_id="zhan", holds=False, report=None,
                       witness="0" * 64, mode="matrix")

    monkeypatch.setattr("sspread.ineq.check_zhan", reject)
    code, out, _ = run(capsys, "check", "zhan", f"{FIX}/kittaneh_fail_A.txt",
                       f"{FIX}/kittaneh_fail_B.txt")
    assert code == 1
    assert "FAILS" in out


@pytest.mark.parametrize("ineq_id", list(VERIFIERS))
def test_check_without_files_exit_two(capsys, ineq_id):
    code, out, err = run(capsys, "check", ineq_id)
    assert code == 2
    assert out == "" and "matrix files" in err


@pytest.mark.parametrize("ineq_id", list(VERIFIERS))
def test_check_round_trips_fuzz_trials(capsys, tmp_path, ineq_id):
    # a fuzz trial written as matrix files gives check the verdict of the
    # direct call, bit for bit; matrix files are square, so a trial with a
    # rectangular X cannot be written and is skipped
    check = getattr(ineq, VERIFIERS[ineq_id].check)
    ran = 0
    for seed in range(1, 5):
        for dims in ((2, 8), (12, 16)):
            args = trial_args(ineq_id, seed, dims)
            named = dict(zip(inspect.signature(check).parameters, args))
            split = named.pop("split", None)
            mats = [m for m in named.values() if m is not None]
            if any(m.shape[0] != m.shape[1] for m in mats):
                continue
            files = []
            for i, m in enumerate(mats):
                path = tmp_path / f"{seed}_{dims[0]}_{i}.txt"
                path.write_text(cli.write_matrix_text(m))
                files.append(str(path))
            argv = ["check", ineq_id, *files, "--json"]
            if split is not None:
                argv += ["--split", str(split)]
            code, out, err = run(capsys, *argv)
            v = check(*args)
            assert code == (0 if v.holds else 1), err
            assert json.loads(out)["check"] == json.loads(cli.canonical_json(cli.verdict_to_dict(v)))
            ran += 1
    assert ran


def _file_column(check: str) -> str:
    """The README's check column: one upper-cased name per matrix file, an
    optional one in brackets, and a split parameter as (`--split N`)."""
    toks = []
    for name, p in inspect.signature(getattr(ineq, check)).parameters.items():
        if name == "split":
            toks.append("(`--split N`)")
        else:
            toks.append(name.upper() if p.default is p.empty else f"[{name.upper()}]")
    return " ".join(toks)


def test_readme_id_table_matches_registry():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    rows = re.findall(r"^\| `(\w+)` \| ([^|]+) \| ([^|]+) \|$", text, flags=re.M)
    table = {}
    for ident, cls, files in rows:
        alias = re.search(r"alias of `(\w+)`", cls)
        table[ident] = (cls.split()[0].rstrip(","), alias and alias.group(1), files.strip())
    # an alias is a non-theorem row that shares check and draw with a theorem row
    theorems = {(v.check, v.draw): v.id for v in VERIFIERS.values() if v.kind == "theorem"}
    registry = {
        v.id: (v.kind, None if v.kind == "theorem" else theorems.get((v.check, v.draw)),
               _file_column(v.check))
        for v in VERIFIERS.values()
    }
    assert table == registry


def test_repro_exit_codes(capsys):
    for ex in EXAMPLE_IDS:
        code, out, _ = run(capsys, "repro", ex)
        assert code == 0
        assert "PASS" in out


def test_fuzz_command_json(capsys):
    code, out, err = run(capsys, "fuzz", "zhan", "--trials", "12",
                         "--seed", "9", "--dims", "2..4", "--json")
    assert code == 0
    rep = json.loads(out)
    assert rep["summary"]["trials"] == 12
    assert rep["summary"]["failures"] == 0
    assert rep["dims"] == [2, 4]
    assert "runtime" not in out  # timing lives on stderr only
    assert "ms" in err


def test_env_seed_default(capsys, monkeypatch):
    monkeypatch.setenv("SSPREAD_SEED", "31")
    code, out, _ = run(capsys, "fuzz", "zhan", "--trials", "3", "--json")
    assert json.loads(out)["seed"] == 31
    monkeypatch.setenv("SSPREAD_SEED", "x")
    assert run(capsys, "fuzz", "zhan", "--trials", "3")[0] == 2


def test_dims_parse_errors(capsys):
    assert run(capsys, "fuzz", "zhan", "--dims", "46")[0] == 2
    assert run(capsys, "fuzz", "zhan", "--dims", "4..2")[0] == 2
    assert run(capsys, "fuzz", "zhan", "--dims", "a..b")[0] == 2


def test_fuzz_dims_without_d2_exit_two(capsys):
    code, out, err = run(capsys, "fuzz", "zhan", "--dims", "1..1", "--json")
    assert code == 2
    assert out == "" and "dimension 2" in err


@pytest.mark.parametrize("cmd", ["fuzz", "suite"])
def test_dims_above_max_exit_two(capsys, monkeypatch, cmd):
    # refused before any work: drawing a matrix of d = 100000 exhausts memory
    def no_work(*a, **k):
        raise AssertionError(f"{cmd} started work on an invalid --dims")

    monkeypatch.setattr(harness, "_campaign", no_work)
    monkeypatch.setattr(examples, "repro", no_work)
    argv = ["fuzz", "key"] if cmd == "fuzz" else ["suite"]
    for dims in ("2..100000", f"2..{harness.MAX_DIM + 1}"):
        code, out, err = run(capsys, *argv, "--trials", "3", "--dims", dims, "--json")
        assert code == 2, dims
        assert out == "" and f"up to {harness.MAX_DIM}" in err
    assert cli._parse_dims(f"2..{harness.MAX_DIM}") == (2, harness.MAX_DIM)


@pytest.mark.parametrize("seed", ["-5", "123456789012345678901234567890"])
def test_fuzz_seed_outside_uint64_is_masked(capsys, seed):
    # the seed is taken mod 2**64 before the child seeds are derived: the
    # report is that of its residue but for the seed as given (and for -5
    # not that of 5)
    def report(s):
        code, out, _ = run(capsys, "fuzz", "key", "--trials", "40", "--seed", str(s), "--json")
        assert code == 0
        return json.loads(out)

    masked, residue = report(seed), report(int(seed) % 2**64)
    assert masked.pop("seed") == int(seed) and residue.pop("seed") == int(seed) % 2**64
    assert masked == residue
    if int(seed) < 0:
        assert report(-int(seed))["summary"] != masked["summary"]


def test_suite_dims_without_d2_exit_two(capsys, monkeypatch):
    def no_work(*a, **k):
        raise AssertionError("suite started work on an invalid --dims")

    monkeypatch.setattr(examples, "repro", no_work)
    code, out, err = run(capsys, "suite", "--dims", "1..1", "--json")
    assert code == 2
    assert out == "" and "dimension 2" in err


def test_trials_below_one_exit_two(capsys):
    for cmd in ("fuzz", "suite"):
        for n in ("0", "-3"):
            argv = [cmd, "zhan"] if cmd == "fuzz" else [cmd]
            code, out, err = run(capsys, *argv, "--trials", n, "--json")
            assert code == 2, (cmd, n)
            assert out == "" and "trials" in err


@pytest.mark.parametrize("cmd", ["fuzz", "suite"])
def test_trials_above_max_exit_two(capsys, monkeypatch, cmd):
    # refused before any work: 10**13 trials' child seeds alone exhaust memory
    def no_work(*a, **k):
        raise AssertionError(f"{cmd} started work on an invalid --trials")

    monkeypatch.setattr(harness, "_campaign", no_work)
    monkeypatch.setattr(examples, "repro", no_work)
    argv = ["fuzz", "key"] if cmd == "fuzz" else ["suite"]
    for n in ("10000000000000", str(harness.MAX_TRIALS + 1)):
        code, out, err = run(capsys, *argv, "--trials", n, "--json")
        assert code == 2, n
        assert out == "" and str(harness.MAX_TRIALS) in err
    assert cli._parse_trials(str(harness.MAX_TRIALS)) == harness.MAX_TRIALS


class _Started(Exception):
    """Raised in place of a campaign's first step, which the CLI lets through."""


@pytest.mark.parametrize("cmd", ["fuzz", "suite"])
def test_range_errors_are_the_librarys(capsys, monkeypatch, cmd):
    # harness._check_dims alone judges the dimension and trial ranges: the
    # CLI exits 2 with its message exactly when it raises, and starts work
    # otherwise
    def started(*a, **k):
        raise _Started

    monkeypatch.setattr(harness, "_campaign", started)
    monkeypatch.setattr(examples, "repro", started)
    argv = ["fuzz", "key"] if cmd == "fuzz" else ["suite"]
    # lower bounds of 0 and ranges with hi < lo included
    edges = (0, 1, 2, 3, harness.MAX_DIM, harness.MAX_DIM + 1)
    for lo in edges:
        for hi in edges:
            for trials in (1, 2, harness.MAX_TRIALS, harness.MAX_TRIALS + 1):
                call = [*argv, "--dims", f"{lo}..{hi}", "--trials", str(trials), "--json"]
                try:
                    harness._check_dims((lo, hi), cmd, trials)
                except ValueError as exc:
                    assert run(capsys, *call) == (2, "", f"sspread: {exc}\n"), call
                else:
                    with pytest.raises(_Started):
                        cli.main(call)


def test_diag_horizon_zero_exit_two(capsys):
    for cmd in ("spread", "scale"):
        for k in ("0", "-1"):
            code, out, _ = run(capsys, cmd, f"{FIX}/diag_scale.diag", "--horizon", k, "--json")
            assert code == 2, (cmd, k)
            assert out == ""
    # the default horizon is still 8
    code, out, _ = run(capsys, "scale", f"{FIX}/diag_scale.diag", "--json")
    assert code == 0 and json.loads(out)["K"] == 8


def test_horizon_cap_exit_two(capsys):
    # a horizon far above the cap once died allocating the scale arrays
    big = str(cli._MAX_HORIZON + 1)
    for cmd in ("spread", "scale"):
        for path in (f"{FIX}/diag_scale.diag", f"{FIX}/kittaneh_fail_A.txt"):
            for k in (big, "10000000000000"):
                code, out, err = run(capsys, cmd, path, "--horizon", k, "--json")
                assert code == 2, (cmd, path, k)
                assert out == "" and str(cli._MAX_HORIZON) in err
    code, out, _ = run(capsys, "scale", f"{FIX}/kittaneh_fail_A.txt",
                       "--horizon", str(cli._MAX_HORIZON), "--json")
    assert code == 0 and json.loads(out)["K"] == cli._MAX_HORIZON


def test_non_finite_diag_file_exit_two(capsys, tmp_path):
    for text in ("diag\nhead: 3 nan\nliminf: -inf\nlimsup: nan\n",
                 "diag\nliminf: 0\nlimsup: 0\ngenerator: harmonic coef=nan\n"):
        path = tmp_path / "bad.diag"
        path.write_text(text)
        code, out, err = run(capsys, "spread", str(path), "--horizon", "3", "--json")
        assert code == 2 and out == "" and "finite" in err



@pytest.mark.parametrize("text, why", [
    # 5·I has spread 0: the band of `constant value=5` is [5, 5]
    ("diag\nliminf: 0\nlimsup: 0\ngenerator: constant value=5\n", "band"),
    ("diag\nliminf: 0\nlimsup: 0\ngenerator: harmonic limit=0 coeff=3\n", "coeff"),
    ("diag\nliminf: -1\nlimsup: 1\nliminf: 0\n", "twice"),
    ("diag\nliminf: 0\nlimsup: 0\ngenerator: harmonic coef=2\ngenerator: zero\n", "twice"),
    ("diag\nliminf: 0\nlimsup: 0\ngenerator: harmonic coef=2 coef=3\n", "twice"),
], ids=["constant-band", "coeff-typo", "repeated-key", "repeated-generator", "repeated-param"])
def test_diag_file_it_cannot_mean_exit_two(capsys, tmp_path, text, why):
    path = tmp_path / "bad.diag"
    path.write_text(text)
    for cmd in ("scale", "spread"):
        code, out, err = run(capsys, cmd, str(path), "--horizon", "3", "--json")
        assert code == 2 and out == "" and why in err, cmd

def test_suite_json_is_deterministic(capsys):
    code1, out1, _ = run(capsys, "suite", "--seed", "1", "--trials", "6", "--json")
    code2, out2, _ = run(capsys, "suite", "--seed", "1", "--trials", "6", "--json")
    assert code1 == code2 == 0
    assert out1 == out2
    rep = json.loads(out1)
    assert rep["holds"] is True
    assert len(rep["repro"]) == 4
    assert len(rep["fuzz"]) == 23
    assert all("runtime_ms" not in f for f in rep["fuzz"])


def test_repro_failure_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(examples, "repro",
                        lambda ex: {"example_id": ex, "checks": [], "holds": False})
    code, out, _ = run(capsys, "repro", "diag-scale")
    assert code == 1
    assert "FAIL" in out


# -- worked examples through the CLI -------------------------------------------

def test_scale_identity_matrix_mode(capsys, tmp_path):
    path = tmp_path / "eye.txt"
    path.write_text(cli.write_matrix_text(np.eye(4)))
    code, out, _ = run(capsys, "scale", str(path), "--mode", "matrix", "--json")
    assert code == 0
    rep = json.loads(out)
    assert rep["pos"] == [1.0, 1.0, 1.0, 1.0]
    assert rep["neg"] == [1.0, 1.0, 1.0, 1.0]


def test_scale_survives_file_roundtrip(capsys, tmp_path):
    m = _hermitian(Stream(77), 5)
    direct = tmp_path / "direct.txt"
    direct.write_text(cli.write_matrix_text(m))
    copy = tmp_path / "copy.txt"
    reparsed, _ = cli.parse_matrix_text(direct.read_text())
    copy.write_text(cli.write_matrix_text(reparsed))
    rep1 = json.loads(run(capsys, "scale", str(direct), "--json")[1])
    rep2 = json.loads(run(capsys, "scale", str(copy), "--json")[1])
    rep1.pop("inputs"), rep2.pop("inputs")
    assert rep1 == rep2


def test_check_key_diagonal_matrix(capsys, tmp_path):
    path = tmp_path / "diag.txt"
    path.write_text(cli.write_matrix_text(np.diag([3.0, 1.0, -2.0])))
    code, out, _ = run(capsys, "check", "key", str(path), "--json")
    assert code == 0
    rep = json.loads(out)
    assert rep["check"]["holds"] is True
    assert rep["check"]["ineq_id"] == "key"


@pytest.mark.parametrize("ineq_id, judged, other", [
    ("key", "compact", "matrix"), ("tao_positive", "matrix", "compact"),
])
def test_check_honours_a_declared_mode(capsys, tmp_path, ineq_id, judged, other):
    # a mode: directive that differs from the verdict's mode is a mode
    # violation, as a wrong model is for scale; the verdict's own mode, or
    # none, is not
    m = np.array([[2.0, 1.0], [1.0, 2.0]])
    for declared, want in ((other, 3), (judged, 0), (None, 0)):
        path = tmp_path / f"{declared}.txt"
        path.write_text(cli.write_matrix_text(m, mode=declared))
        code, out, err = run(capsys, "check", ineq_id, str(path), "--json")
        assert code == want, (declared, err)
        if want == 3:
            assert out == "" and f"declares mode {other}" in err
        else:
            assert json.loads(out)["check"]["mode"] == judged
    # a directive on any of the files counts
    plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
    plain.write_text(cli.write_matrix_text(m))
    marked.write_text(cli.write_matrix_text(m, mode="matrix"))
    assert run(capsys, "check", "zhan", str(plain), str(marked))[0] == 3


def test_spread_of_scalar_matrix_is_zero(capsys, tmp_path):
    path = tmp_path / "scalar.txt"
    path.write_text(cli.write_matrix_text(2.5 * np.eye(3), mode="matrix"))
    code, out, _ = run(capsys, "spread", str(path), "--json")
    assert code == 0
    assert all(v == 0.0 for v in json.loads(out)["values"])


def test_spread_translation_invariant_via_cli(capsys, tmp_path):
    m = _hermitian(Stream(5), 4)
    before = tmp_path / "a.txt"
    after = tmp_path / "b.txt"
    before.write_text(cli.write_matrix_text(m, mode="matrix"))
    after.write_text(cli.write_matrix_text(m + 3.0 * np.eye(4), mode="matrix"))
    v1 = json.loads(run(capsys, "spread", str(before), "--json")[1])["values"]
    v2 = json.loads(run(capsys, "spread", str(after), "--json")[1])["values"]
    assert v1 == pytest.approx(v2, abs=1e-9)


def test_report_field_set_is_uniform(capsys):
    rep = json.loads(run(capsys, "scale", f"{FIX}/kittaneh_fail_A.txt", "--json")[1])
    for field in ("command", "inputs", "seed", "versions"):
        assert field in rep
    rep = json.loads(run(capsys, "repro", "diag-scale", "--json")[1])
    for field in ("command", "inputs", "seed", "versions"):
        assert field in rep


# -- what each command imports -------------------------------------------------


def _child_env(**extra) -> dict:
    """os.environ with extra, for a child that imports the package under
    test, installed or not."""
    src = str(Path(sspread.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + os.pathsep + path if path else src, **extra}


# run argv through cli.main in a fresh interpreter, then print the sspread
# modules it loaded, and whether it read the Gaussian table, as the last line
# of stdout
_IMPORT_PROBE = (
    "import json, sys\n"
    "from sspread import cli\n"
    "cli.main(sys.argv[1:])\n"
    "rng = sys.modules.get('sspread.rng')\n"
    "table = rng is not None and rng._normal_table.cache_info().currsize > 0\n"
    "print(json.dumps([sorted(m for m in sys.modules if m.startswith('sspread.')), table]))\n"
)
_HEAVY = {"harness", "ineq", "major", "rng", "examples", "properties"}


@pytest.mark.parametrize("argv, never", [
    (["scale", f"{FIX}/kittaneh_fail_A.txt", "--json"], _HEAVY),
    (["spread", f"{FIX}/diag_scale.diag", "--full", "--json"], _HEAVY),
    (["check", "mixed_commutator", f"{FIX}/kittaneh_fail_A.txt", f"{FIX}/kittaneh_fail_B.txt",
      f"{FIX}/kittaneh_fail_X.txt", "--json"], {"examples", "properties"}),
    (["repro", "agm-fail-3x3", "--json"], {"harness", "rng", "properties"}),
    (["fuzz", "zhan", "--trials", "3", "--dims", "2..3", "--json"], {"examples", "properties"}),
], ids=["scale", "spread", "check", "repro", "fuzz"])
def test_command_imports_only_what_it_runs(argv, never):
    out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, *argv], capture_output=True,
                         text=True, timeout=120, env=_child_env())
    assert out.returncode == 0, out.stderr
    modules, table = json.loads(out.stdout.splitlines()[-1])
    loaded = {m.removeprefix("sspread.") for m in modules}
    assert "cli" in loaded and not loaded & never, sorted(loaded & never)
    # only a command that draws Gaussians reads the table
    assert table == (argv[0] == "fuzz")


# -- the process exit ----------------------------------------------------------


def _sspread(argv, env=None, **kwargs) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "sspread", *argv], timeout=120,
                          env=env or _child_env(), **kwargs)


def test_every_process_enters_through_run():
    # `python -m sspread` and the installed console script both exit through cli.run
    tree = ast.parse((Path(cli.__file__).parent / "__main__.py").read_text(encoding="utf-8"))
    assert [ast.unparse(node) for node in tree.body] == ["from .cli import run", "run()"]
    toml = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    scripts = toml.split("[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    assert scripts.strip() == 'sspread = "sspread.cli:run"'


@pytest.mark.parametrize("argv, code", [
    (["scale", f"{FIX}/kittaneh_fail_A.txt", "--json"], 0),
    (["spread", f"{FIX}/diag_scale.diag", "--full"], 0),
    (["check", "zhan", f"{FIX}/kittaneh_fail_A.txt", f"{FIX}/kittaneh_fail_B.txt"], 0),
    (["repro", "kittaneh-fail", "--json"], 0),
    (["check", "nope", f"{FIX}/kittaneh_fail_A.txt"], 4),
], ids=["scale", "spread", "check", "repro", "error"])
def test_main_leaves_the_collector_alone(capsys, argv, code):
    # only run(), the exit of a process, freezes the collector's objects
    before = gc.isenabled(), gc.get_freeze_count()
    assert run(capsys, *argv)[0] == code
    assert (gc.isenabled(), gc.get_freeze_count()) == before


@pytest.mark.parametrize("argv, code", [
    (["check", "agm_compact", f"{FIX}/agm_fail_2x2_S.txt", f"{FIX}/agm_fail_2x2_C.txt",
      f"{FIX}/agm_fail_2x2_E.txt", "--json"], 0),
    (["check", "control_kittaneh", f"{FIX}/kittaneh_fail_A.txt", f"{FIX}/kittaneh_fail_B.txt",
      f"{FIX}/kittaneh_fail_X.txt"], 2),
    (["scale", f"{FIX}/diag_scale.diag", "--mode", "matrix"], 3),
    (["check", "nope", f"{FIX}/kittaneh_fail_A.txt"], 4),
], ids=["holds", "input-error", "mode-violation", "unknown-id"])
def test_process_exits_as_main_returns(capsys, argv, code):
    out = _sspread(argv, capture_output=True)
    assert run(capsys, *argv) == (code, out.stdout.decode(), out.stderr.decode())
    assert out.returncode == code


@pytest.fixture(params=["unbuffered", "buffered"])
def stream_env(request):
    """A child's environment with and without PYTHONUNBUFFERED: a buffered
    stdout fails at its flush, an unbuffered one at the write itself."""
    env = _child_env(PYTHONUNBUFFERED="1")
    if request.param == "buffered":
        del env["PYTHONUNBUFFERED"]
    return env


def test_report_into_a_closed_pipe_exits_two(stream_env):
    # the reader is gone before the report is written; the verdict itself holds
    r, w = os.pipe()
    os.close(r)
    try:
        out = _sspread(["repro", "kittaneh-fail", "--json"], stdout=w, stderr=subprocess.PIPE,
                       env=stream_env)
    finally:
        os.close(w)
    assert out.returncode == 2
    assert out.stderr == b"sspread: writing the report: [Errno 32] Broken pipe\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_report_onto_a_full_disk_exits_two(stream_env):
    with open("/dev/full", "wb") as full:
        out = _sspread(["scale", f"{FIX}/kittaneh_fail_A.txt"], stdout=full,
                       stderr=subprocess.PIPE, env=stream_env)
    assert out.returncode == 2
    assert out.stderr == b"sspread: writing the report: [Errno 28] No space left on device\n"


def _closing(fd: int):
    """A preexec_fn that closes fd in the child before Python starts there."""
    return lambda: os.close(fd)


def test_report_onto_a_closed_stdout_exits_two():
    # with fd 1 closed at start Python sets sys.stdout to None, and print to
    # None would drop the report without an error
    out = _sspread(["scale", f"{FIX}/kittaneh_fail_A.txt"], stderr=subprocess.PIPE,
                   preexec_fn=_closing(1))
    assert out.returncode == 2
    assert out.stderr == b"sspread: writing the report: [Errno 9] Bad file descriptor\n"


# commands that write to stderr: a campaign that holds (its timing line), an
# input error and a mode violation (their messages)
_MESSAGES = pytest.mark.parametrize("argv", [
    ["fuzz", "zhan", "--trials", "3", "--dims", "2..3"],
    ["scale", f"{FIX}/no_such_file.txt"],
    ["scale", f"{FIX}/diag_scale.diag", "--mode", "matrix"],
], ids=["holds", "input-error", "mode-violation"])


@_MESSAGES
@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_message_onto_a_full_disk_exits_two(stream_env, argv):
    # a failed write to stderr is an error (2), never the FAILS code (1)
    with open("/dev/full", "wb") as full:
        out = _sspread(argv, stdout=subprocess.PIPE, stderr=full, env=stream_env)
    assert (out.returncode, out.stdout) == (2, b"")


@_MESSAGES
def test_message_onto_a_closed_stderr_exits_two(argv):
    # Python sets sys.stderr to None, and print to None would write the
    # message into the report on stdout
    out = _sspread(argv, stdout=subprocess.PIPE, preexec_fn=_closing(2))
    assert (out.returncode, out.stdout) == (2, b"")
