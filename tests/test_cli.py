import json
from fractions import Fraction
from pathlib import Path

import pytest
from click.testing import CliRunner

import nefcert as nc
from nefcert.cli import main

DIAGONAL = """{
  "n": 5, "m": 0, "k": 2, "mode": "concrete",
  "steps": [],
  "final_e_sigma": [0, 0, 0, 0, 2],
  "final_e_tau": []
}
"""

STABLE = """{
  "n": 5, "m": 0, "k": 1, "mode": "concrete",
  "steps": [
    {"sigma": [1, 5], "tau": []},
    {"sigma": [2, 5], "tau": []},
    {"sigma": [3, 5], "tau": []},
    {"sigma": [4, 5], "tau": []}
  ],
  "final_e_sigma": [0, 0, 0, 0, 2],
  "final_e_tau": []
}
"""


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, args, **kwargs):
    return runner.invoke(main, args, catch_exceptions=False, **kwargs)


class TestClassCommands:
    def test_dk_record(self, runner):
        result = invoke(runner, ["class", "dk", "--n", "5", "--m", "0",
                                 "--k", "2", "--c", "3/4"])
        assert result.exit_code == 0
        assert "psi_sigma\t3/4" in result.output
        assert "delta_s\t1/2" in result.output
        assert "delta\t-1" in result.output

    def test_dk_json(self, runner):
        result = invoke(runner, ["class", "dk", "--n", "3", "--m", "2",
                                 "--k", "2", "--c", "1/2", "--json"])
        payload = json.loads(result.output)
        assert payload["delta_s"] == "0"
        assert payload["psi_tau"] == ["1", "1"]

    def test_logcanonical(self, runner):
        result = invoke(runner, ["class", "logcanonical", "--n", "6",
                                 "--alpha", "1/2"])
        assert result.exit_code == 0
        assert "# normalized_c 2/3" in result.output
        assert "delta\t-3/2" in result.output

    def test_pull_reduction_inline(self, runner):
        result = invoke(runner, ["class", "pull-reduction", "--n", "7", "--m", "0",
                                 "--k", "3", "--c", "2/3", "--dk"])
        assert result.exit_code == 0
        assert "# exceptional boundary[3,0] 0" in result.output
        assert "psi_sigma\t2/3" in result.output
        assert "boundary" not in result.output.replace("# exceptional boundary[3,0] 0", "")

    def test_pipe_round_trip(self, runner):
        made = invoke(runner, ["class", "dk", "--n", "7", "--m", "0",
                               "--k", "3", "--c", "2/3"])
        pulled = invoke(runner, ["class", "pull-reduction", "--n", "7", "--m", "0",
                                 "--k", "3"], input=made.output)
        assert pulled.exit_code == 0
        parsed = nc.class_from_record(pulled.output, nc.make_weights(7, 0, 2))
        assert parsed == nc.dk_class(nc.make_weights(7, 0, 2), Fraction(2, 3))

    def test_pull_replacement(self, runner):
        result = invoke(runner, ["class", "pull-replacement", "--n", "7", "--m", "0",
                                 "--k", "3", "--dk", "--c", "2/3"])
        assert result.exit_code == 0
        assert "psi_tau[1]\t1" in result.output

    def test_push(self, runner):
        record = "psi_sigma\t1\ndelta\t-2\n"
        result = invoke(runner, ["class", "push", "--n", "5", "--m", "0",
                                 "--k", "2"], input=record)
        assert result.exit_code == 0
        assert "delta_s\t0" in result.output  # 2*1 + (-2)

    def test_parse_error_exits_one(self, runner):
        result = runner.invoke(main, ["class", "dk", "--n", "5", "--m", "0",
                                      "--k", "2", "--c", "0.75"])
        assert result.exit_code == 1
        assert "error" in result.stderr

    def test_invalid_weights_exit_one(self, runner):
        result = runner.invoke(main, ["class", "dk", "--n", "4", "--m", "0",
                                      "--k", "2", "--c", "1/2"])
        assert result.exit_code == 1

    @pytest.mark.parametrize("args,record,spellings", [
        (["--n", "7", "--m", "0", "--k", "2"], "boundary[3,0] 1\nboundary[4,0] 2\n",
         "'boundary[3,0]' and 'boundary[4,0]'"),
        (["--n", "3", "--m", "2", "--k", "2"], "psi_tau[1] 5\npsi_tau[01] 7\n",
         "'psi_tau[1]' and 'psi_tau[01]'"),
    ], ids=["boundary", "psi_tau"])
    def test_two_spellings_of_one_coefficient_exit_one(self, runner, args, record,
                                                       spellings):
        result = runner.invoke(main, ["class", "pull-replacement", *args], input=record)
        assert result.exit_code == 1
        assert spellings in result.stderr


class TestFamilyCommands:
    def test_validate_and_eval(self, runner, tmp_path):
        path = tmp_path / "diag.json"
        path.write_text(DIAGONAL)
        assert invoke(runner, ["family", "validate", str(path)]).output == "valid\n"
        result = invoke(runner, ["family", "eval", str(path), "--dk", "--c", "2/3"])
        assert result.output == "0\n"

    @pytest.mark.parametrize("command, options", [
        ("eval", ["--dk", "--c", "1/2"]), ("numbers", [])], ids=["eval", "numbers"])
    def test_an_abstract_family_exits_one_naming_its_mode(self, runner, command, options):
        path = str(Path(__file__).with_name("families") / "abstract.json")
        result = runner.invoke(main, ["family", command, path, *options])
        assert (result.exit_code, result.stdout, result.stderr) == (
            1, "", f"error: {path}: {command} needs a concrete family, not an abstract one\n")

    def test_validate_failure_lists_paths(self, runner, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"n": 5, "m": 0, "k": 2, "mode": "abstract", '
                        '"steps": [{"r1": 2, "r2": 0}]}')
        result = runner.invoke(main, ["family", "validate", str(path)])
        assert result.exit_code == 1
        assert "steps[0]" in result.stderr

    @pytest.mark.parametrize("command", ["validate", "numbers"])
    def test_repeated_section_index_exits_one(self, runner, tmp_path, command):
        path = tmp_path / "twice.json"
        path.write_text(STABLE.replace('"sigma": [1, 5]', '"sigma": [1, 1, 5]'))
        result = runner.invoke(main, ["family", command, str(path)])
        assert result.exit_code == 1
        assert "steps[0].sigma: index 1 listed twice" in result.stderr

    def test_numbers(self, runner, tmp_path):
        path = tmp_path / "stable.json"
        path.write_text(STABLE)
        result = invoke(runner, ["family", "numbers", str(path)])
        assert "psi_sigma\t6" in result.output
        assert "delta\t4" in result.output
        assert "boundary[2,0]\t4" in result.output

    def test_fvalues(self, runner, tmp_path):
        path = tmp_path / "stable.json"
        path.write_text(STABLE)
        result = invoke(runner, ["family", "fvalues", str(path)])
        rows = [line for line in result.output.splitlines() if not line.startswith("#")]
        assert rows[0] == "0\t4\t6\t0\t0"
        assert rows[-1] == "4\t0\t0\t0\t0"

    def test_gseries(self, runner, tmp_path):
        path = tmp_path / "stable.json"
        path.write_text(STABLE)
        result = invoke(runner, ["family", "gseries", str(path),
                                 "--a", "3/4", "--b", "0"])
        values = [line.split("\t")[1] for line in result.output.splitlines()
                  if not line.startswith("#")]
        assert values == ["1/2", "3/8", "1/4", "1/8", "0"]

    def test_eval_class_file(self, runner, tmp_path):
        family_path = tmp_path / "stable.json"
        family_path.write_text(STABLE)
        class_path = tmp_path / "cls.txt"
        class_path.write_text("psi_sigma\t1\n")
        result = invoke(runner, ["family", "eval", str(family_path),
                                 "--class-file", str(class_path)])
        assert result.output == "6\n"


class TestCertifyCommand:
    def test_interior_strict(self, runner):
        result = invoke(runner, ["certify", "--n", "7", "--m", "0", "--k", "2",
                                 "--c", "7/10"])
        assert result.exit_code == 0
        assert "verdict\tstrictly_positive" in result.output
        assert "margin\t1/12" in result.output

    def test_generic_only_zero(self, runner):
        result = runner.invoke(main, ["certify", "--n", "4", "--m", "1", "--k", "3",
                                      "--c", "5/8", "--generic-only"])
        assert result.exit_code == 2
        assert "nonnegative_zero_characterized" in result.output

    def test_out_of_interval_exit_one(self, runner):
        result = runner.invoke(main, ["certify", "--n", "7", "--m", "0", "--k", "2",
                                      "--c", "1/2"])
        assert result.exit_code == 1

    def test_eps_flag(self, runner):
        result = runner.invoke(main, ["certify", "--n", "7", "--m", "0", "--k", "2",
                                      "--c", "7/10", "--eps", "3,0=-1/5"])
        assert result.exit_code == 2
        result = invoke(runner, ["certify", "--n", "7", "--m", "0", "--k", "2",
                                 "--c", "7/10", "--eps", "3,0=-1/24"])
        assert result.exit_code == 0

    def test_json_report(self, runner):
        result = invoke(runner, ["certify", "--n", "7", "--m", "0", "--k", "2",
                                 "--c", "7/10", "--json"])
        payload = json.loads(result.output)
        assert payload["verdict"] == "strictly_positive"
        assert payload["margin"] == "1/12"
        assert [7, 0, 2] in payload["strata"]


class TestThresholdsCommand:
    def test_table(self, runner):
        result = invoke(runner, ["thresholds", "--k", "2", "--nmax", "7",
                                 "--mmax", "1"])
        lines = result.output.splitlines()
        assert lines[0] == "# ample_interval\t(2/3, 3/4]"
        assert "7\t0\t1\t3/5\t3/5\tyes" in lines
        assert "3\t1\t5\t2/3\t2/3\tno" in lines

    def test_k1_interval_only(self, runner):
        result = invoke(runner, ["thresholds", "--k", "1"])
        assert result.output == "# ample_interval\t(2/3, unbounded)\n"


class TestFixturesCommand:
    def test_all_pass(self, runner):
        result = invoke(runner, ["fixtures"])
        assert result.exit_code == 0
        lines = [line for line in result.output.splitlines()
                 if not line.startswith("#")]
        assert lines and all(line.startswith("PASS") for line in lines)
        assert any("pushforward-constants" in line for line in lines)
        assert any("pullback-constant\tk=4\texpected -4" in line for line in lines)

    def test_functoriality_rows_print_the_pair_that_certification_checks(
            self, runner, monkeypatch):
        shapes = []
        pair = nc.positivity._transport_pair

        def broken(*shape):  # the pulled-back side replaced, so the two sides differ
            shapes.append(shape)
            lower = pair(*shape)[1]
            return nc.zero_class(lower.ambient), lower

        monkeypatch.setattr(nc.positivity, "_transport_pair", broken)
        result = invoke(runner, ["fixtures"])
        rows = [line.split("\t") for line in result.stdout.splitlines()
                if "\treduction-functoriality\t" in line]
        assert shapes == [(2 * k + 1, 0, k) for k in range(2, 21)]
        for (n, m, k), row in zip(shapes, rows, strict=True):
            lower = pair(n, m, k)[1]
            assert row == ["FAIL", "reduction-functoriality", f"k={k}",
                           f"expected {lower}", f"computed {nc.zero_class(lower.ambient)}"]
        assert result.exit_code == 2 and result.stderr == "19 fixture(s) failed\n"


class TestDeterminism:
    @pytest.mark.parametrize("args", [
        ["certify", "--n", "7", "--m", "0", "--k", "2", "--c", "7/10"],
        ["thresholds", "--k", "3", "--nmax", "9", "--mmax", "3"],
        ["fixtures"],
        ["class", "dk", "--n", "5", "--m", "2", "--k", "2", "--c", "5/8"],
    ])
    def test_byte_identical_reruns(self, runner, args):
        first = invoke(runner, args)
        second = invoke(runner, args)
        assert first.output == second.output


class TestMoreSurfaces:
    def test_class_input_from_file(self, runner, tmp_path):
        record = tmp_path / "cls.txt"
        # the ray at c = 3/4 transports with vanishing exceptional coefficient
        record.write_text("psi_sigma\t3/4\ndelta_s\t1/2\ndelta\t-1\n")
        result = invoke(runner, ["class", "pull-reduction", "--n", "5", "--m", "0",
                                 "--k", "2", "--in", str(record)])
        assert result.exit_code == 0
        assert "# exceptional boundary[2,0] 0" in result.output
        # a bare psi_sigma picks up the -k correction
        record.write_text("psi_sigma\t1\n")
        result = invoke(runner, ["class", "pull-reduction", "--n", "5", "--m", "0",
                                 "--k", "2", "--in", str(record)])
        assert "boundary[2,0]\t-2" in result.output

    def test_gseries_rejects_b_without_heavy_sections(self, runner, tmp_path):
        path = tmp_path / "stable.json"
        path.write_text(STABLE)
        result = runner.invoke(main, ["family", "gseries", str(path),
                                      "--a", "3/4", "--b", "1"])
        assert result.exit_code == 1
        assert "b must be 0" in result.stderr

    def test_eval_ambient_mismatch_exit_one(self, runner, tmp_path):
        family_path = tmp_path / "diag.json"
        family_path.write_text(DIAGONAL)
        class_path = tmp_path / "cls.txt"
        class_path.write_text("psi_tau[1]\t1\n")
        result = runner.invoke(main, ["family", "eval", str(family_path),
                                      "--class-file", str(class_path)])
        assert result.exit_code == 1

    def test_thresholds_bigger_grid(self, runner):
        result = invoke(runner, ["thresholds", "--k", "4", "--nmax", "12",
                                 "--mmax", "4"])
        assert result.exit_code == 0
        assert "# ample_interval\t(3/5, 5/8]" in result.output
        assert "9\t0\t1\t4/7\t4/7\tyes" in result.output
        assert "5\t1\t5\t3/5\t3/5\tno" in result.output


def unreadable(tmp_path, kind):
    """A directory, a missing file or a file that is not UTF-8 text."""
    if kind == "directory":
        return str(tmp_path)
    path = tmp_path / kind
    if kind == "binary":
        path.write_bytes(b"\xff\xfe\x00psi_sigma")
    return str(path)


UNREADABLE = ["directory", "missing", "binary"]


class TestUnreadableInputs:
    @pytest.mark.parametrize("kind", UNREADABLE)
    @pytest.mark.parametrize("command", ["push", "pull-reduction", "pull-replacement"])
    def test_in_exits_one(self, runner, tmp_path, command, kind):
        result = runner.invoke(main, ["class", command, "--n", "5", "--m", "0",
                                      "--k", "2", "--in", unreadable(tmp_path, kind)])
        assert result.exit_code == 1
        assert result.stderr.startswith("error: --in: ")

    @pytest.mark.parametrize("kind", UNREADABLE)
    @pytest.mark.parametrize("args", [["validate"], ["eval", "--dk", "--c", "2/3"],
                                      ["numbers"], ["fvalues"],
                                      ["gseries", "--a", "3/4", "--b", "0"]])
    def test_family_path_exits_one(self, runner, tmp_path, args, kind):
        result = runner.invoke(main, ["family", args[0], unreadable(tmp_path, kind),
                                      *args[1:]])
        assert result.exit_code == 1
        assert result.stderr.startswith("error: PATH: ")

    @pytest.mark.parametrize("kind", UNREADABLE)
    def test_class_file_exits_one(self, runner, tmp_path, kind):
        family_path = tmp_path / "stable.json"
        family_path.write_text(STABLE)
        result = runner.invoke(main, ["family", "eval", str(family_path),
                                      "--class-file", unreadable(tmp_path, kind)])
        assert result.exit_code == 1
        assert result.stderr.startswith("error: --class-file: ")


class TestEpsKeys:
    BASE = ["certify", "--n", "7", "--m", "0", "--k", "2", "--c", "7/10", "--json"]

    @pytest.mark.parametrize("extra", [[], ["--generic-only"]])
    def test_complement_spelling_gives_the_same_certificate(self, runner, extra):
        first = runner.invoke(main, self.BASE + extra + ["--eps", "3,0=-1/5"])
        second = runner.invoke(main, self.BASE + extra + ["--eps", "4,0=-1/5"])
        assert (first.exit_code, first.stdout) == (second.exit_code, second.stdout)

    @pytest.mark.parametrize("extra", [[], ["--generic-only"]])
    @pytest.mark.parametrize("eps", [["2,0=-100"], ["5,0=-100"], ["99,99=-100"],
                                     ["3,0=-1", "4,0=-1"], ["3,0=-1", "3,0=0"]])
    def test_bad_keys_exit_one_naming_eps(self, runner, extra, eps):
        args = self.BASE + extra
        for entry in eps:
            args += ["--eps", entry]
        result = runner.invoke(main, args)
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr.startswith("error: --eps: ")

    @pytest.mark.parametrize("entry", ["3,0", "3,0=", "3=1/5", "a,0=1/5"])
    def test_malformed_entry_names_the_expected_form(self, runner, entry):
        result = runner.invoke(main, self.BASE + ["--eps", entry])
        assert result.exit_code == 1
        assert result.stdout == ""
        if entry == "3,0=":  # the form is right, the value is not a rational
            assert result.stderr.startswith("error: --eps: not a rational literal")
        else:
            assert result.stderr == f'error: --eps: expected "i,j=p/q", got {entry!r}\n'

    def test_root_divisor_no_visited_grid_carries_exits_one(self, runner):
        # at k = 1 strata with heavy sections are certified on regrouped grids
        # (n + m - 1, 1), none of which has the cell (1, 2) of (5, 2, 1)
        result = runner.invoke(main, ["certify", "--n", "5", "--m", "2", "--k", "1",
                                      "--c", "4/5", "--eps", "1,2=-1/100"])
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr.startswith("error: --eps: (1,2) ")


class TestInputErrors:
    """Bad input exits 1 with one message that names the field; a failed
    fixture exits 2."""

    @pytest.mark.parametrize("args, message", [
        (["class", "dk", "--n", "x", "--m", "0", "--k", "2", "--c", "3/4"],
         "error: --n: expected an integer, got 'x'\n"),
        (["class", "pull-replacement", "--n", "7", "--m", "0", "--k", "3", "--dk"],
         "error: pull-replacement: --dk needs --c\n"),
        (["family", "eval", "stable.json", "--dk"], "error: eval: --dk needs --c\n"),
        (["family", "eval", "stable.json"], "error: eval: need --dk --c or --class-file\n"),
        # the --c check comes first, then the input space, then the record
        (["class", "push", "--n", "5", "--m", "0", "--k", "1", "--dk", "--in", "missing.json"],
         "error: push: --dk needs --c\n"),
        (["class", "push", "--n", "5", "--m", "0", "--k", "1", "--dk", "--c", "1/2"],
         "error: reduction from the unweighted space needs k >= 2\n"),
        (["class", "push", "--n", "5", "--m", "0", "--k", "1", "--in", "missing.json"],
         "error: reduction from the unweighted space needs k >= 2\n"),
        (["family", "eval", "stable.json", "--dk", "--class-file", "missing.json"],
         "error: eval: --dk needs --c\n"),
        # a named input is never dropped: --dk with a record file, or --c without --dk
        (["class", "pull-reduction", "--n", "7", "--m", "0", "--k", "3", "--dk", "--c", "2/3",
          "--in", "missing.json"], "error: pull-reduction: --dk cannot be combined with --in\n"),
        (["family", "eval", "stable.json", "--dk", "--c", "2/3", "--class-file", "missing.json"],
         "error: eval: --dk cannot be combined with --class-file\n"),
        (["class", "push", "--n", "5", "--m", "1", "--k", "2", "--c", "2/3"],
         "error: push: --c needs --dk\n"),
        (["class", "pull-replacement", "--n", "7", "--m", "0", "--k", "3", "--c", "2/3",
          "--in", "missing.json"], "error: pull-replacement: --c needs --dk\n"),
        (["family", "eval", "stable.json", "--c", "2/3"], "error: eval: --c needs --dk\n"),
        (["family", "eval", "stable.json", "--c", "2/3", "--class-file", "missing.json"],
         "error: eval: --c needs --dk\n"),
        # both checks come before the input space is built
        (["class", "push", "--n", "5", "--m", "0", "--k", "1", "--dk", "--c", "1/2",
          "--in", "missing.json"], "error: push: --dk cannot be combined with --in\n"),
        (["class", "push", "--n", "5", "--m", "0", "--k", "1", "--c", "1/2"],
         "error: push: --c needs --dk\n"),
    ], ids=["integer", "pull-replacement-dk", "eval-dk", "eval-no-class", "push-dk-first",
            "push-space-before-class", "push-space-before-record", "eval-dk-first",
            "pull-reduction-dk-and-in", "eval-dk-and-class-file", "push-c-without-dk",
            "pull-replacement-c-and-in", "eval-c-without-dk", "eval-c-and-class-file",
            "push-dk-and-in-before-space", "push-c-before-space"])
    def test_message_and_exit_one(self, runner, args, message):
        with runner.isolated_filesystem():
            with open("stable.json", "w", encoding="utf-8") as handle:
                handle.write(STABLE)
            result = runner.invoke(main, args)
        assert (result.exit_code, result.stdout, result.stderr) == (1, "", message)

    def test_a_failed_fixture_exits_two(self, runner, monkeypatch):
        monkeypatch.setattr(nc.morphisms, "derive_pushforward_constants",
                            lambda n: (Fraction(2), Fraction(0)))
        result = runner.invoke(main, ["fixtures"])
        assert result.exit_code == 2
        assert result.stderr == "8 fixture(s) failed\n"
        failed = [line for line in result.stdout.splitlines() if line.startswith("FAIL")]
        assert failed[0] == "FAIL\tpushforward-constants\tn=5\texpected (Fraction(2, 1), " \
            "Fraction(1, 1))\tcomputed (Fraction(2, 1), Fraction(0, 1))"
        assert len(failed) == 8
