import json
import os
from fractions import Fraction

import pytest

from osb import cli
from osb.matrices import render_float
from osb.reports import (
    VerificationReport,
    canonical_json,
    inequality_report,
    reports_to_csv,
    reports_to_json,
    summarize,
    vacuous_report,
)

from oracles import exact_inequality_report, oracle_sort_reports


class TestReportLogic:
    def test_exact_slack(self):
        assert inequality_report("c", {}, 1.0, 1.0 - 5e-13).status == "pass"
        assert inequality_report("c", {}, 1.0, 1.0 - 5e-12).status == "fail"

    def test_mc_slack_is_four_stderr(self):
        r = inequality_report("c", {}, 1.05, 1.0, mode="mc", stderr=0.02)
        assert r.status == "pass"
        r = inequality_report("c", {}, 1.1, 1.0, mode="mc", stderr=0.02)
        assert r.status == "fail"

    def test_mc_slack_has_a_rounding_floor(self):
        # equal draws: stderr is about 0, and the mean is off by a few ulps
        lhs, rhs, stderr = 1.0 + 4 * 2.0**-52, 1.0, 1e-18
        assert inequality_report("c", {"samples": 4096}, lhs, rhs,
                                 mode="mc", stderr=stderr).status == "pass"
        assert inequality_report("c", {}, lhs, rhs,
                                 mode="mc", stderr=stderr).status == "fail"
        # the floor is gamma(6 * 4096), about 2.7e-12 relative
        r = inequality_report("c", {"samples": 4096}, 1.0 + 1e-11, 1.0,
                              mode="mc", stderr=stderr)
        assert r.status == "fail" and r.margin == 1.0 - (1.0 + 1e-11)

    @pytest.mark.parametrize("family", ["sym:1", "map:3:1"])
    def test_mc_lp_passes_where_every_path_is_constant(self, family, capsys):
        # every path of a sym 1x1 or map nx1 cell has the same norm
        argv = ["verify-lp", "--family", family, "--seed", "5", "--summary"]
        assert cli.main(argv) == 0
        assert cli.main(argv + ["--mc-samples", "4096"]) == 0
        assert "fail: 0" in capsys.readouterr().out

    def test_exact_fraction_margin(self):
        r = exact_inequality_report("c", {}, Fraction(1, 3), Fraction(1, 3))
        assert r.status == "pass" and r.margin == 0.0
        r = exact_inequality_report(
            "c", {}, Fraction(1, 3) + Fraction(1, 10**13), Fraction(1, 3))
        assert r.status == "fail"  # an exact decision has no slack
        r = exact_inequality_report(
            "c", {}, Fraction(1, 3) + Fraction(1, 10**11), Fraction(1, 3))
        assert r.status == "fail"

    def test_vacuous_does_not_fail(self):
        r = vacuous_report("c", {}, "empty sweep")
        assert r.status == "vacuous"


class TestSerialization:
    def test_float_rendering(self):
        assert render_float(0.5) == "0.5"
        assert render_float(1 / 3) == "0.33333333333333331"
        assert float(render_float(0.1)) == 0.1

    def test_canonical_json_sorts_keys(self):
        assert canonical_json({"b": 1, "a": 2}) == '{"a":2,"b":1}'

    def test_canonical_json_fraction(self):
        assert canonical_json(Fraction(3, 2)) == '"3/2"'

    def test_canonical_json_rejects_unknown(self):
        with pytest.raises(TypeError):
            canonical_json(object())

    def _reports(self):
        return [
            inequality_report("b", {"m": 2}, 1.0, 2.0),
            inequality_report("a", {"m": 1}, 0.5, 1 / 3),
            vacuous_report("a", {"m": 0}, "none"),
        ]

    def test_sorted_and_byte_stable(self):
        one = reports_to_json(self._reports())
        two = reports_to_json(list(reversed(self._reports())))
        assert one == two
        doc = json.loads(one)
        ids = [r["check_id"] for r in doc["reports"]]
        assert ids == sorted(ids)

    def test_csv_round_trip_fields(self):
        text = reports_to_csv(self._reports())
        lines = text.strip().split("\n")
        assert lines[0].startswith("check_id,status,direction,mode,lhs,rhs")
        assert len(lines) == 4

    def test_summarize(self):
        s = summarize(oracle_sort_reports(self._reports()))
        assert s["total"] == 3 and s["failed"] == 1 and s["vacuous"] == 1
        assert s["by_check"]["a"]["failed"] == 1


@pytest.fixture()
def matrix_file(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("0.5,1\n2,0.25\n")
    return str(path)


@pytest.fixture()
def biased_family_file(tmp_path):
    path = tmp_path / "biased.json"
    path.write_text(json.dumps({"n": 2, "N": 2, "maps": [[1, 2]]}))
    return str(path)


class TestCli:
    def test_family_check_pass(self, capsys):
        assert cli.main(["family-check", "--family", "sym:3"]) == 0
        out = capsys.readouterr().out
        assert '"pairwise_constant":{"fraction":"3/2"' in out

    def test_family_check_hypothesis_failure(self, biased_family_file):
        code = cli.main(["family-check", "--family", f"file:{biased_family_file}"])
        assert code == 3

    def test_bool_dimension_in_family_file_is_a_usage_error(self, tmp_path, capsys):
        path = tmp_path / "fam.json"
        path.write_text('{"n": true, "N": true, "maps": [[1]]}')
        assert cli.main(["family-check", "--family", f"file:{path}"]) == 2
        err = capsys.readouterr().err
        assert "n and N must be positive integers" in err and "Traceback" not in err

    @pytest.mark.parametrize("seed", ["1.9", "true"])
    def test_corpus_seed_that_is_not_an_integer_is_a_usage_error(
            self, tmp_path, capsys, seed):
        path = tmp_path / "corpus.json"
        path.write_text('{"seed": %s, "cells": []}' % seed)
        assert cli.main(["verify-main", "--family", "sym", "--corpus", str(path)]) == 2
        err = capsys.readouterr().err
        assert "corpus seed must be an integer" in err and "Traceback" not in err

    def test_usage_error_exit_code(self):
        assert cli.main(["verify-main", "--family", "nope:2"]) == 2

    @pytest.mark.parametrize("name,flag", [
        ("m.csv", "--matrix"), ("m.json", "--matrix"), ("c.json", "--corpus"),
        ("f.json", "--family"), ("cfg", "--config"),
    ])
    def test_non_utf8_input_file_is_a_usage_error(self, tmp_path, capsys,
                                                  name, flag):
        path = tmp_path / name
        path.write_bytes(b"1,\xe9\n")
        value = f"file:{path}" if flag == "--family" else str(path)
        argv = ["verify-main", "--family", "sym", flag, value]
        if flag == "--family":
            argv = ["verify-main", flag, value]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert "is not UTF-8 text" in err and "Traceback" not in err

    def test_campaign_aborts_on_hypothesis_failure(self, matrix_file,
                                                   biased_family_file, capsys):
        code = cli.main([
            "verify-main", "--family", f"file:{biased_family_file}",
            "--matrix", matrix_file,
        ])
        assert code == 3
        err = capsys.readouterr().err
        assert "uniform-marginal" in err and "marginals_uniform" in err

    def test_verify_main_single_matrix(self, matrix_file, tmp_path, capsys):
        out = tmp_path / "r.json"
        code = cli.main([
            "verify-main", "--family", "map", "--matrix", matrix_file,
            "--out", str(out), "--summary",
        ])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["summary"]["failed"] == 0
        assert "worst margin" in capsys.readouterr().out

    def test_verify_main_reduce_flag(self, matrix_file, tmp_path):
        out = tmp_path / "r.json"
        code = cli.main([
            "verify-main", "--family", "sym", "--matrix", matrix_file,
            "--reduce", "--out", str(out),
        ])
        assert code == 0
        doc = json.loads(out.read_text())
        lower = [r for r in doc["reports"] if r["check_id"] == "thm1.1/lower"]
        assert lower and all(r["inputs"]["reduced"] for r in lower)

    def test_verify_lp_csv_output(self, matrix_file, tmp_path):
        out = tmp_path / "r.csv"
        code = cli.main([
            "verify-lp", "--family", "map", "--matrix", matrix_file,
            "--p", "1,2", "--format", "csv", "--out", str(out),
        ])
        assert code == 0
        assert out.read_text().startswith("check_id,")

    def test_lemmas_single_matrix_is_per_instance(self, matrix_file, tmp_path):
        out = tmp_path / "r.json"
        code = cli.main([
            "lemmas", "--family", "sym", "--matrix", matrix_file,
            "--ell", "1..2", "--out", str(out),
        ])
        assert code == 0
        doc = json.loads(out.read_text())
        ids = {r["check_id"] for r in doc["reports"]}
        assert "lemma3.1" in ids and "paley-zygmund" in ids
        swept = [r for r in doc["reports"] if r["check_id"] == "lemma3.2"]
        assert len(swept) == 2 * 4 * 9  # ell values x m sweep x theta sweep

    def test_sample_output_is_a_loadable_family(self, tmp_path):
        out = tmp_path / "maps.json"
        code = cli.main([
            "sample", "--family", "sym:3", "--count", "5",
            "--seed", "11", "--out", str(out),
        ])
        assert code == 0
        from osb.families import load_family
        fam = load_family(str(out))
        assert fam.size == 5
        for g in fam.members:
            assert sorted(g) == [1, 2, 3]

    def test_sample_seed_determinism(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        cli.main(["sample", "--family", "map:2:3", "--seed", "4", "--out", str(a)])
        cli.main(["sample", "--family", "map:2:3", "--seed", "4", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("family,want", [
        ("sym:4", '{"N":4,"maps":[[3,1,4,2],[2,4,1,3],[2,3,4,1],[1,2,3,4]],"n":4}'),
        ("map:2:3", '{"N":3,"maps":[[1,1],[1,1],[2,2],[3,3]],"n":2}'),
        ("file", '{"N":3,"maps":[[1,2],[3,3],[1,2],[2,1]],"n":2}'),
        # the shuffle table's edges (n = 1 and 7) and the swap loop (n = 8)
        ("sym:1", '{"N":1,"maps":[[1],[1],[1],[1]],"n":1}'),
        ("sym:7", '{"N":7,"maps":[[1,7,6,5,4,2,3],[6,5,7,2,4,3,1],'
                  '[5,7,4,1,3,6,2],[6,2,4,1,3,5,7]],"n":7}'),
        ("sym:8", '{"N":8,"maps":[[8,7,6,3,1,2,5,4],[2,3,5,8,1,4,6,7],'
                  '[1,7,8,5,4,3,2,6],[3,4,8,7,2,5,6,1]],"n":8}'),
        # the in-place remainder of the mapping draws, N = 1 included
        ("map:1:1", '{"N":1,"maps":[[1],[1],[1],[1]],"n":1}'),
        ("map:3:7", '{"N":7,"maps":[[6,5,1],[6,5,3],[6,1,2],[6,7,2]],"n":3}'),
        ("map:5:4", '{"N":4,"maps":[[4,1,1,3,4],[3,2,3,1,3],[1,4,3,2,2],'
                    '[3,2,4,4,1]],"n":5}'),
        # the column-wise sampler: swap codes, and member indices of a file
        # family with repeated members
        ("sym:5", '{"N":5,"maps":[[4,2,1,3,5],[1,4,5,3,2],[2,5,3,1,4],'
                  '[4,5,1,3,2]],"n":5}'),
        ("file-repeats", '{"N":3,"maps":[[2,1,2],[1,2,3],[1,2,3],[1,2,3]],"n":3}'),
    ])
    def test_sample_output_bytes_are_pinned(self, tmp_path, family, want):
        files = {
            "file": '{"n": 2, "N": 3, "maps": [[1, 2], [3, 3], [2, 1]]}',
            "file-repeats": '{"n": 3, "N": 3, "maps": [[1, 2, 3], [3, 3, 1], '
                            '[1, 2, 3], [2, 1, 2], [1, 2, 3]]}',
        }
        if family in files:
            path = tmp_path / "fam.json"
            path.write_text(files[family])
            family = f"file:{path}"
        out = tmp_path / "maps.json"
        assert cli.main(["sample", "--family", family, "--count", "4",
                         "--seed", "7", "--out", str(out)]) == 0
        assert out.read_bytes() == (want + "\n").encode()

    def test_corpus_gen_reproducible(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert cli.main(["corpus", "gen", "--seed", "5", "--out", str(a)]) == 0
        assert cli.main(["corpus", "gen", "--seed", "5", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_env_seed_is_used(self, tmp_path, monkeypatch):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        monkeypatch.setenv("OSB_SEED", "21")
        cli.main(["sample", "--family", "map:2:2", "--out", str(a)])
        monkeypatch.delenv("OSB_SEED")
        cli.main(["sample", "--family", "map:2:2", "--seed", "21", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_config_file_precedence(self, tmp_path, monkeypatch):
        cfg = tmp_path / "osb.cfg"
        cfg.write_text("seed = 33\n# comment\n")
        a, b, c = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "c.json"
        cli.main(["sample", "--family", "map:2:2", "--config", str(cfg),
                  "--out", str(a)])
        cli.main(["sample", "--family", "map:2:2", "--seed", "33", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()
        # env beats config
        monkeypatch.setenv("OSB_SEED", "34")
        cli.main(["sample", "--family", "map:2:2", "--config", str(cfg),
                  "--out", str(c)])
        assert c.read_bytes() != a.read_bytes()

    @pytest.mark.parametrize("source", ["flag", "env"])
    def test_missing_config_file_is_usage_error(self, source, tmp_path,
                                                monkeypatch, capsys):
        missing = str(tmp_path / "absent.conf")
        argv = ["corpus", "gen"]
        if source == "flag":
            argv += ["--config", missing]
        else:
            monkeypatch.setenv("OSB_CONFIG", missing)
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and missing in captured.err
        assert len(captured.err.splitlines()) == 1

    @pytest.mark.parametrize("source", ["flag", "env"])
    def test_unknown_config_key_is_usage_error(self, source, tmp_path, monkeypatch,
                                               capsys):
        cfg = tmp_path / "osb.cfg"
        cfg.write_text("enum_cap = 100\nsede = 5\n")
        argv = ["sample", "--family", "sym:3"]
        if source == "flag":
            argv += ["--config", str(cfg)]
        else:
            monkeypatch.setenv("OSB_CONFIG", str(cfg))
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: unknown config key 'sede' in {cfg}; expected seed or enum_cap"]

    def test_campaign_reports_reproducible(self, matrix_file, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["verify-main", "--family", "map", "--matrix", matrix_file]
        assert cli.main(args + ["--out", str(a)]) == 0
        assert cli.main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_enum_cap_flag_forces_resource_error(self, matrix_file):
        code = cli.main([
            "verify-main", "--family", "map", "--matrix", matrix_file,
            "--enum-cap", "2",
        ])
        assert code == 2  # surfaced as an operational error

    def test_mc_mode_reports(self, matrix_file, tmp_path):
        out = tmp_path / "r.json"
        code = cli.main([
            "verify-main", "--family", "map", "--matrix", matrix_file,
            "--mc-samples", "20000", "--seed", "8", "--out", str(out),
        ])
        assert code == 0
        doc = json.loads(out.read_text())
        assert all(r["mode"] == "mc" for r in doc["reports"])
        assert all(r["stderr"] is not None for r in doc["reports"])

    def test_lemmas_rejects_mc_samples(self, matrix_file, capsys):
        code = cli.main([
            "lemmas", "--family", "sym:2", "--matrix", matrix_file,
            "--mc-samples", "100", "--summary",
        ])
        assert code == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err and "--mc-samples" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("name", ["OSB_SEED", "OSB_ENUM_CAP"])
    def test_malformed_env_integer_is_usage_error(self, name, monkeypatch, capsys):
        monkeypatch.setenv(name, "abc")
        assert cli.main(["sample", "--family", "sym:3"]) == 2
        err = capsys.readouterr().err
        assert f"error: {name}" in err and "'abc'" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("key", ["seed", "enum_cap"])
    def test_malformed_config_integer_is_usage_error(self, key, tmp_path,
                                                     monkeypatch, capsys):
        for name in ("OSB_SEED", "OSB_ENUM_CAP"):
            monkeypatch.delenv(name, raising=False)
        cfg = tmp_path / "osb.cfg"
        cfg.write_text(f"{key} = 1.5\n")
        assert cli.main(["sample", "--family", "sym:3", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert f"error: {key} from the config file" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command,option", [
        ("family-check", ["--mc-samples", "10"]),
        ("family-check", ["--enum-cap", "10"]),
        ("family-check", ["--format", "csv"]),
        ("family-check", ["--seed", "3"]),
        ("sample", ["--mc-samples", "10"]),
        ("sample", ["--enum-cap", "10"]),
        ("sample", ["--format", "csv"]),
        ("sample", ["--summary"]),
    ])
    def test_option_the_subcommand_does_not_read_is_rejected(self, command, option,
                                                             capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--family", "sym:3", *option])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert f"unrecognized arguments: {option[0]}" in captured.err
        assert "Traceback" not in captured.err and captured.out == ""
