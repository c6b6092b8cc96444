"""Fuzz the command line in-process: whatever the arguments, settings and
files, ``osb`` exits 0, 1, 2 or 3 and never prints a traceback.

Every family is at most 3 x 3 and every input file is tiny, so each example
runs in milliseconds.  Nothing is run in a subprocess.
"""

import contextlib
import io
import json
import math
import os
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from osb import cli, families
from osb.corpus import CorpusSpec, corpus_to_json, generate_corpus

EXIT_CODES = {0, 1, 2, 3}
SETTING_VARS = ("OSB_SEED", "OSB_ENUM_CAP", "OSB_CONFIG")


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli-fuzz")
    paths = {}

    def put(name, text):
        path = d / name
        path.write_text(text, encoding="utf-8")
        paths[name] = str(path)

    put("m2.csv", "0.5,1\n2,0.25\n")
    put("m3.json", json.dumps([[1, 0, 2], [0.5, 3, 1], [0, 0, 1]]))
    put("m-bad.csv", "1,x\n")
    put("m-ragged.csv", "1,2\n3\n")
    put("fam-sym2.json", json.dumps({"n": 2, "N": 2, "maps": [[1, 2], [2, 1]]}))
    put("fam-biased.json", json.dumps({"n": 2, "N": 2, "maps": [[1, 2]]}))
    put("fam-bad.json", '{"n": 2, "N": 2, "maps": [[1, 3]]}')
    put("fam-bool.json", '{"n": true, "N": true, "maps": [[1]]}')
    put("fam-garbage.json", "{not json")
    put("cfg-good", "seed = 5\nenum_cap = 1000\n# comment\n")
    put("cfg-bad-seed", "seed = 1.5\n")
    put("cfg-bad-line", "just words\n")
    put("m-grid.json", json.dumps({"rows": 2, "cols": 2, "entries": 7}))
    put("m-huge.json", '{"rows": 1, "cols": 1, "entries": [[1%s]]}' % ("0" * 400))
    put("m-1e308.csv", "1e308,1e308\n1e308,1e308\n")
    put("m-digits.json", '{"rows": 1, "cols": 1, "entries": [[1%s]]}' % ("0" * 5000))
    put("fam-huge.json", '{"n": 1, "N": 1, "maps": [[1%s]]}' % ("0" * 5000))
    put("corpus-bad.json", '{"cells": 3}')
    put("corpus-cell.json", '{"cells": [3]}')
    put("corpus-rows.json", json.dumps(
        {"cells": [{"n": 2, "N": 2, "matrices": [{"entries": ["ab", "cd"]}]}]}))
    put("corpus-seed.json", '{"seed": "x", "cells": []}')
    (d / "latin1.csv").write_bytes(b"1,\xe9\n")
    paths["latin1.csv"] = str(d / "latin1.csv")
    corpus = generate_corpus(
        [CorpusSpec(cells=((1, 1), (2, 2), (2, 3), (3, 3)), matrices_per_cell=2,
                    distribution="sparse", seed=9)],
        seed=9,
    )
    put("corpus.json", corpus_to_json(corpus))
    paths["dir"] = str(d)
    paths["missing"] = str(d / "missing" / "nothing.json")
    paths["out"] = str(d / "out.txt")
    return paths


_INTS = ["0", "1", "2", "3", "-1", "abc", "1.5", "", "99999999999999999999"]
_SMALL_INTS = ["0", "1", "2", "3", "-1", "abc", "1.5", ""]
_SIZED = ["sym:1", "sym:2", "sym:3", "map:1:1", "map:2:3", "map:3:2", "map:3:3"]
_BROKEN = ["sym:0", "sym:-1", "sym:x", "map:2", "map:0:2", "map:a:b", "nope:2",
           "", "file:", "sym:2:2"]


def _family(files_):
    return st.one_of(
        st.sampled_from(_SIZED + _BROKEN + ["sym", "map"]),
        st.sampled_from(["fam-sym2.json", "fam-biased.json", "fam-bad.json", "fam-bool.json",
                         "fam-garbage.json", "fam-huge.json", "latin1.csv",
                         "missing"]).map(
            lambda k: "file:" + files_[k]),
    )


def _inputs(files_):
    return st.sampled_from(sorted(v for k, v in files_.items() if k != "out"))


def _option_pool(files_):
    # --out only ever names the scratch output, a directory or a missing
    # directory, so no example overwrites an input file
    outs = st.sampled_from([files_["out"], files_["dir"], files_["missing"]])
    return st.one_of(
        st.tuples(st.just("--seed"), st.sampled_from(_INTS)),
        st.tuples(st.just("--enum-cap"), st.sampled_from(_INTS)),
        st.tuples(st.just("--mc-samples"), st.sampled_from(_SMALL_INTS + ["50"])),
        st.tuples(st.just("--format"), st.sampled_from(["json", "csv", "xml"])),
        st.tuples(st.just("--ell"), st.sampled_from(
            ["1", "2", "1..2", "2..1", "0..5", "a..b", "1..", "-1..1", "3..3"])),
        st.tuples(st.just("--p"), st.sampled_from(
            ["1", "1,2", "1.5,3", "0.5", "abc", "", "1,,2", "inf", "nan", "-2",
             "2,2.0", "1,nan"])),
        st.tuples(st.just("--n"), st.sampled_from(_SMALL_INTS)),
        st.tuples(st.just("--N"), st.sampled_from(_SMALL_INTS)),
        st.tuples(st.just("--count"), st.sampled_from(_SMALL_INTS)),
        st.tuples(st.just("--out"), outs),
        st.tuples(st.sampled_from(["--config", "--matrix", "--corpus"]),
                  _inputs(files_)),
        st.sampled_from(["--summary", "--reduce", "--per-instance", "--bogus", "-x",
                         "--family", "--seed", "--help"]).map(lambda o: (o,)),
    )


@st.composite
def invocations(draw, files_):
    command = draw(st.sampled_from(
        ["verify-main", "verify-lp", "lemmas", "family-check", "sample",
         "corpus gen", "corpus", "bogus", ""]))
    argv = command.split()
    family = draw(_family(files_))
    if command in ("verify-main", "verify-lp", "lemmas"):
        # a bare sym/map spec runs on every cell of its corpus, so it only
        # gets an explicit small input
        source = draw(st.one_of(
            st.just([]),
            st.sampled_from([["--matrix", files_["m2.csv"]],
                             ["--corpus", files_["corpus.json"]]]),
            st.tuples(st.sampled_from(["--matrix", "--corpus"]),
                      _inputs(files_)).map(list),
        ))
        if not source and family in ("sym", "map"):
            source = ["--corpus", files_["corpus.json"]]
        argv += source
    if draw(st.booleans()) or command not in ("corpus gen", "corpus", "bogus", ""):
        argv += ["--family", family]
    for option in draw(st.lists(_option_pool(files_), max_size=4)):
        argv += list(option)
    env = {
        "OSB_SEED": draw(st.sampled_from([None, "7", "abc", "1.5", ""])),
        "OSB_ENUM_CAP": draw(st.sampled_from([None, "1000", "2", "x", "-1"])),
        "OSB_CONFIG": draw(st.sampled_from(
            [None, files_["cfg-good"], files_["cfg-bad-seed"], files_["cfg-bad-line"],
             files_["latin1.csv"], files_["missing"]])),
    }
    return argv, env


def _run(argv, env):
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ):
        for name in SETTING_VARS:
            os.environ.pop(name, None)
        os.environ.update({k: v for k, v in env.items() if v is not None})
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse: usage errors and --help
                code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_fuzzed_command_lines_keep_the_exit_code_contract(files):
    @settings(max_examples=250, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(invocations(files))
    def check(invocation):
        argv, env = invocation
        code, _, err = _run(argv, env)
        assert code in EXIT_CODES, (argv, env, code, err)
        assert "Traceback" not in err, (argv, env, err)

    check()


@pytest.mark.parametrize("argv", [
    ["sample", "--family", "sym:3", "--count", "99999999999999999999"],
    ["verify-main", "--family", "sym:2", "--seed", "99999999999999999999"],
    ["lemmas", "--family", "map:2:2", "--ell", "2..1"],
    ["verify-lp", "--family", "map:2:2", "--p", "nan"],
    ["family-check", "--family", "sym", "--n", "0"],
    ["verify-main", "--family", "map:2:2", "--ell", "2..1"],
    ["verify-main", "--family", "map:2:2", "--ell", "0..0"],
    # ranges above the n of every applicable family, and a family that fits
    # no cell of the corpus
    ["verify-main", "--family", "map:2:2", "--ell", "3"],
    ["lemmas", "--family", "sym", "--ell", "7..9"],
    ["verify-main", "--family", "map:9:9"],
    ["verify-lp", "--family", "map:9:9"],
    ["lemmas", "--family", "map:9:9"],
    # families of no member: every subcommand refuses the specifier
    *([command, "--family", family]
      for command in ("verify-main", "verify-lp", "lemmas", "family-check", "sample")
      for family in ("sym:0", "map:2:0", "map:-1:3")),
])
def test_edge_command_lines(files, argv):
    if argv[0] in ("verify-main", "verify-lp", "lemmas"):
        argv = argv + ["--corpus", files["corpus.json"]]
    code, _, err = _run(argv, {})
    assert code in EXIT_CODES, (argv, code, err)
    assert "Traceback" not in err
    ell = argv[argv.index("--ell") + 1] if "--ell" in argv else None
    if ell in ("2..1", "0..0", "3", "7..9"):  # a range that selects no ell
        assert code == 2 and err.startswith("error: ell range"), (argv, code, err)
        assert len(err.splitlines()) == 1, err
    if "map:9:9" in argv:
        assert code == 0, (argv, code, err)
        assert err.splitlines() == ["no applicable (cell, family) pairs; nothing checked"], \
            (argv, err)
    family = argv[argv.index("--family") + 1]
    if family in ("sym:0", "map:2:0", "map:-1:3"):
        assert code == 2, (argv, code, err)
        assert err.splitlines() == [f"error: bad family specifier {family!r}; "
                                    "n and N must be positive"], err


@pytest.mark.parametrize("p,message", [
    ("2,2.0", "error: p list '2,2.0' repeats p = 2"),
    ("1,3,1.5,3", "error: p list '1,3,1.5,3' repeats p = 3"),
    ("nan", "error: p must be finite and >= 1"),
    ("0.5", "error: p must be finite and >= 1"),
    ("inf", "error: p must be finite and >= 1"),
    ("2,1e999", "error: p must be finite and >= 1"),
    ("-inf", "error: p must be finite and >= 1"),
    ("", "error: p list '' names no exponent"),
    (",", "error: p list ',' names no exponent"),
    (" , ", "error: p list ' , ' names no exponent"),
])
@pytest.mark.parametrize("source", [[], ["--corpus", "missing"], ["--matrix", "m-bad.csv"]])
def test_p_lists_are_checked_before_any_input_is_read(files, p, message, source):
    # a repeated exponent would emit every report twice; a non-finite one
    # fails in the library after the inputs are read
    argv = ["verify-lp", "--family", "map:2:2", f"--p={p}"] + [files.get(a, a) for a in source]
    code, out, err = _run(argv, {})
    assert code == 2 and out == "", (argv, code, err)
    assert err.splitlines() == [message], err


@pytest.mark.parametrize("command", ["verify-main", "verify-lp"])
@pytest.mark.parametrize("family", ["map:2:2", "sym:2"])
def test_draw_counts_past_the_word_counter_fail_at_once(files, command, family):
    # 2**63 draws of two words each need word 2**64; the count is refused
    # before the first chunk is drawn
    argv = [command, "--family", family, "--matrix", files["m2.csv"],
            "--mc-samples", str(2**63)]
    code, out, err = _run(argv, {})
    assert code == 2 and out == "", (argv, code, err)
    assert err.splitlines() == [f"error: {2**63} draws run past the 64-bit word "
                                "counter of the sample stream"], err


@pytest.mark.parametrize("command", ["verify-main", "verify-lp"])
@pytest.mark.parametrize("family", ["map:2:2", "sym:3"])
def test_monte_carlo_ignores_the_enumeration_cap(files, command, family):
    # at 4096 draws each member's values are looked up in tables built from
    # the enumeration, which that lookup walks with the family's size as cap;
    # the cap from the environment is a silent default, as OSB_SEED is, but
    # the flag, which a Monte Carlo run cannot honour, is refused
    argv = [command, "--family", family, "--corpus", files["corpus.json"],
            "--mc-samples", "4096", "--seed", "5"]
    code, out, err = _run(argv, {})
    assert code in (0, 1) and err == "" and json.loads(out)["reports"], (code, err)
    assert _run(argv, {"OSB_ENUM_CAP": "1"}) == (code, out, err)
    code, out, err = _run(argv + ["--enum-cap", "1"], {})
    assert code == 2 and out == "", (code, err)
    assert err.splitlines() == [f"error: {command} --mc-samples enumerates no family, "
                                "so --enum-cap does not apply; drop one of them"], err


@pytest.mark.parametrize("argv", [
    ["verify-main"], ["verify-lp"], ["lemmas"], ["verify-main", "--mc-samples", "100"],
    ["verify-lp", "--mc-samples", "100"],
])
def test_a_column_matrix_longer_than_64_rows_runs(tmp_path, argv):
    # map:70:1 has one member; its table was built over 70 numpy axes
    matrix = tmp_path / "m.csv"
    matrix.write_text("1\n" * 69 + "2\n")
    code, out, err = _run(argv + ["--family", "map:70:1", "--matrix", str(matrix)], {})
    assert code == 0 and err == "", (argv, code, err)
    assert json.loads(out)["summary"]["failed"] == 0


@pytest.mark.parametrize("family", ["map:3:3", "sym:3"])
@pytest.mark.parametrize("cap_from", ["flag", "env"])
def test_lemma_tables_keep_the_enumeration_cap(tmp_path, family, cap_from):
    # a map table is counted, not enumerated, but the cap still refuses it
    size = 27 if family == "map:3:3" else 6
    matrix = tmp_path / "m.csv"
    matrix.write_text("1,0,2\n0.5,3,1\n0,0,1\n")
    argv = ["lemmas", "--family", family, "--matrix", str(matrix)]
    env = {}
    if cap_from == "flag":
        argv += ["--enum-cap", str(size - 1)]
    else:
        env["OSB_ENUM_CAP"] = str(size - 1)
    code, out, err = _run(argv, env)
    assert code == 2 and out == "", (argv, code, err)
    assert err.splitlines() == [f"error: family {family} has {size} members, above the "
                                f"enumeration cap {size - 1}; raise --enum-cap or OSB_ENUM_CAP"]


def test_corpus_ids_that_are_not_strings_are_format_errors(tmp_path):
    corpus = tmp_path / "corpus.json"
    corpus.write_text(json.dumps({"cells": [{"n": 2, "N": 2, "matrices": [
        {"id": {"a": 1}, "entries": [[1, 2], [3, 4]]}]}]}))
    code, out, err = _run(["verify-main", "--family", "map", "--corpus", str(corpus)], {})
    assert code == 2 and out == "", (code, err)
    assert err.splitlines() == ["error: matrix id {'a': 1} in cell 2x2 is not a string"]


@pytest.mark.parametrize("argv", [
    ["verify-main", "--family", "sym", "--matrix", "deep.json"],
    ["verify-main", "--family", "sym", "--corpus", "deep.json"],
    ["family-check", "--family", "file:deep.json"],
])
def test_json_nested_too_deeply_is_a_format_error(tmp_path, argv):
    # the decoder gives up on nesting past the interpreter's recursion limit
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200000 + "]" * 200000)
    argv = [a.replace("deep.json", str(deep)) for a in argv]
    code, out, err = _run(argv, {})
    assert code == 2 and out == "", (argv, code, err)
    assert len(err.splitlines()) == 1 and err.startswith("error: invalid JSON: "), err


def test_a_csv_field_over_the_csv_length_limit_is_a_format_error(tmp_path):
    wide = tmp_path / "wide.csv"
    wide.write_text("1" * 200000 + "\n")
    code, out, err = _run(["verify-main", "--family", "sym", "--matrix", str(wide)], {})
    assert code == 2 and out == "", (code, err)
    assert err.splitlines() == ["error: bad CSV: field larger than field limit (131072)"]


@pytest.mark.parametrize("source", ["--matrix", "--corpus"])
@pytest.mark.parametrize("seed_from", ["flag", "env", "config"])
def test_lemmas_takes_a_seed_only_for_the_built_in_corpus(files, source, seed_from):
    # the seed of a lemmas run only picks the built-in corpus; the flag with
    # an input file is refused, while OSB_SEED and the config's seed stay
    # silent defaults
    argv = ["lemmas", "--family", "map:2:2", source,
            files["m2.csv" if source == "--matrix" else "corpus.json"]]
    env = {}
    if seed_from == "flag":
        argv += ["--seed", "7"]
    elif seed_from == "env":
        env["OSB_SEED"] = "7"
    else:
        env["OSB_CONFIG"] = files["cfg-good"]
    code, out, err = _run(argv, env)
    if seed_from == "flag":
        assert code == 2 and out == "", (code, err)
        assert err.splitlines() == ["error: lemmas reads --seed only to pick the built-in "
                                    "corpus; drop it with --matrix or --corpus"]
        assert _run(argv[:3] + ["--seed", "7"], {})[0] == 0  # the built-in corpus
    else:
        assert (code, out, err) == _run(argv[:5], {})


@pytest.mark.parametrize("command", ["verify-main", "verify-lp"])
@pytest.mark.parametrize("source", ["--matrix", "--corpus"])
@pytest.mark.parametrize("seed_from", ["flag", "env", "config"])
def test_exact_verify_runs_take_a_seed_only_for_the_built_in_corpus(
        files, command, source, seed_from):
    # an exact run of an input file draws nothing, so the flag is refused;
    # with --mc-samples it picks the draws, and OSB_SEED and the config's
    # seed stay silent defaults
    argv = [command, "--family", "map:2:2", source,
            files["m2.csv" if source == "--matrix" else "corpus.json"]]
    env = {}
    if seed_from == "flag":
        argv += ["--seed", "7"]
    elif seed_from == "env":
        env["OSB_SEED"] = "7"
    else:
        env["OSB_CONFIG"] = files["cfg-good"]
    code, out, err = _run(argv, env)
    if seed_from == "flag":
        assert code == 2 and out == "", (code, err)
        assert err.splitlines() == [f"error: {command} reads --seed only to pick the built-in "
                                    "corpus or, with --mc-samples, the draws; drop it with "
                                    "--matrix or --corpus"]
        drawn = _run(argv + ["--mc-samples", "64"], {})
        assert drawn[0] == 0 and drawn != _run(argv[:5] + ["--mc-samples", "64"], {})
    else:
        assert (code, out, err) == _run(argv[:5], {})


def test_an_exact_verify_run_with_a_seed_of_any_size_is_refused(files):
    argv = ["verify-main", "--family", "sym", "--matrix", files["m2.csv"],
            "--seed", "99999999999999999999999999"]
    code, out, err = _run(argv, {})
    assert code == 2 and out == "" and len(err.splitlines()) == 1, (code, err)


@pytest.mark.parametrize("command", ["verify-main", "verify-lp", "lemmas"])
@pytest.mark.parametrize("order", ["matrix first", "corpus first"])
def test_matrix_and_corpus_together_are_a_usage_error(files, command, order):
    # one run reads one input; the flag it would ignore is refused instead
    source = ["--matrix", files["m2.csv"], "--corpus", files["corpus.json"]]
    if order == "corpus first":
        source = source[2:] + source[:2]
    code, out, err = _run([command, "--family", "map:2:2", *source], {})
    assert code == 2 and out == "", (code, err)
    assert "not allowed with argument" in err and "Traceback" not in err, err


@pytest.mark.parametrize("argv", [
    # finite entries whose sums and ratios overflow
    ["verify-main", "--family", "map:2:2", "--matrix", "m-1e308.csv"],
    ["verify-lp", "--family", "map:2:2", "--matrix", "m-1e308.csv"],
    ["lemmas", "--family", "map:2:2", "--matrix", "m-1e308.csv"],
    # map:2:2 is enumerated as one run, so its p = 1 sums are one numpy sum
    # over the path positions, and numpy's text says "in reduce"
    ["verify-lp", "--family", "map:2:2", "--matrix", "m-1e308.csv", "--p", "1"],
])
def test_values_beyond_the_float_range_are_usage_errors(files, argv):
    argv = [files.get(a, a) for a in argv]
    code, out, err = _run(argv, {})
    assert code == 2, (argv, code, err)
    assert len(err.splitlines()) == 1 and err.startswith("error: numeric overflow: "), err
    assert out == ""


@pytest.mark.parametrize("command", ["verify-main", "verify-lp"])
def test_monte_carlo_near_1e200_keeps_a_finite_stderr(tmp_path, command):
    # squared deviations overflow although the estimate and its standard
    # error are finite
    matrix = tmp_path / "m.csv"
    matrix.write_text("1e200,2e200\n3e200,1.5e200\n")
    code, out, err = _run([command, "--family", "map:2:2", "--matrix", str(matrix),
                           "--mc-samples", "1000"], {})
    assert code == 0, err
    stderrs = [r["stderr"] for r in json.loads(out)["reports"] if r["mode"] == "mc"]
    assert stderrs and all(math.isfinite(s) and s > 0 for s in stderrs)


def test_large_p_on_integer_grid_matrices_is_reported():
    # 9**400 overflows on the integer-grid matrices of the default corpus;
    # each path is scaled by its largest entry instead
    code, out, err = _run(["verify-lp", "--family", "map:2:2", "--p", "400"], {})
    assert code == 0, err
    assert err == "" and json.loads(out)["summary"]["failed"] == 0


@pytest.mark.parametrize("command", ["family-check", "sample"])
@pytest.mark.parametrize("shape", [
    ["--family", "sym:4", "--n", "3"],
    ["--family", "map:2:3", "--N", "5"],
    ["--family", "sym:3", "--N", "5"],
    ["--family", "sym", "--n", "3", "--N", "4"],
    ["--family", "file:fam-sym2.json", "--n", "5"],
])
def test_shape_flags_the_specifier_cannot_take_are_usage_errors(files, command,
                                                                shape):
    shape = [a.replace("fam-sym2.json", files["fam-sym2.json"]) for a in shape]
    code, out, err = _run([command] + shape, {})
    assert code == 2, (shape, code, out)
    assert len(err.splitlines()) == 1 and err.startswith("error: "), err


def test_an_allocation_that_fails_is_a_usage_error(monkeypatch):
    # numpy raises a MemoryError subclass for an array it cannot allocate;
    # raised here, so the test allocates nothing whatever the host allows
    message = ("Unable to allocate 2.91 TiB for an array with shape "
               "(200000000000, 2) and data type int64")

    def refuse(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "sample_array", refuse)
    code, out, err = _run(["sample", "--family", "map:2:2", "--count", "200000000000"], {})
    assert code == 2 and out == "", (code, err)
    assert err.splitlines() == [f"error: out of memory: {message}"]


@pytest.mark.parametrize("command", ["verify-main", "verify-lp", "lemmas"])
@pytest.mark.parametrize("family,size", [("map:2:2", 4), ("sym:2", 2), ("fam-sym2.json", 2)])
@pytest.mark.parametrize("cap_from", ["flag", "env"])
def test_one_run_families_are_refused_before_their_path_index_is_built(
        files, monkeypatch, command, family, size, cap_from):
    # each of these families is enumerated as one run, whose path index is
    # built on the first exact call that the cap admits
    def no_index(*args, **kwargs):
        raise AssertionError("the path index was built")

    name = family
    if family.endswith(".json"):
        name = families.load_family(files[family]).descriptor()
        family = "file:" + files[family]
    monkeypatch.setattr(families, "iter_member_arrays", no_index)
    argv = [command, "--family", family, "--matrix", files["m2.csv"]]
    env = {}
    if cap_from == "flag":
        argv += ["--enum-cap", str(size - 1)]
    else:
        env["OSB_ENUM_CAP"] = str(size - 1)
    code, out, err = _run(argv, env)
    assert code == 2 and out == "", (argv, code, err)
    # lemmas has no Monte Carlo mode, so it says to raise the cap instead
    advice = ("raise --enum-cap or OSB_ENUM_CAP" if command == "lemmas"
              else "use Monte Carlo sampling instead")
    assert err.splitlines() == [f"error: family {name} has {size} members, above the "
                                f"enumeration cap {size - 1}; {advice}"]
