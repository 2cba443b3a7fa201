import hashlib
import json
import re
import sys
from collections import defaultdict

from fractions import Fraction

import pytest

from loopalg import cli
from loopalg.cli import main
from loopalg.laurent import INF, AtLeastCap


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRelations:
    def test_line(self, capsys):
        code, out, _ = run(capsys, "relations", "--f", "x1", "--d", "1", "--n", "1",
                           "--cap", "2")
        assert code == 0
        records = json.loads(out)
        assert records == [
            {"exponent": -1, "generator": "x1_-1"},
            {"exponent": 0, "generator": "x1_0"},
            {"exponent": 1, "generator": "x1_1"},
        ]

    def test_complement(self, capsys):
        code, out, _ = run(capsys, "relations", "--complement", "--f", "x1",
                           "--d", "1", "--n", "1", "--cap", "1")
        assert code == 0
        records = json.loads(out)
        assert records[0] == {"exponent": -2, "generator": "x1_-1*y_-1"}
        assert len(records) == 3

    def test_unknown_variable_is_input_error(self, capsys):
        code, _, err = run(capsys, "relations", "--f", "x3", "--d", "2")
        assert code == 1 and "unknown variable" in err

    @pytest.mark.parametrize("text, position, char", [
        ("²", 0, "²"),
        ("x1^²", 3, "²"),
        ("x1+٣", 3, "٣"),
    ])
    def test_non_ascii_digit_is_input_error(self, capsys, text, position, char):
        assert run(capsys, "relations", "--f", text, "--d", "1", "--n", "0",
                   "--cap", "1") == (
            1, "", f"error: unexpected character {char!r} (at position {position})\n"
        )

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "relations", "--f", "x1", "--d", "1", "--n", "0",
                           "--cap", "1", "--format", "csv")
        assert code == 0
        assert out == "exponent,generator\n0,x1_0\n"


class TestEvAndInvert:
    def test_ev(self, capsys):
        code, out, _ = run(capsys, "ev", "--d", "1", "--n", "1", "--cap", "2")
        assert code == 0
        assert out == "x1_-1*z^-1 + x1_0*z^0 + x1_1*z^1 + O(z^2)\n"

    def test_invert(self, capsys):
        code, out, _ = run(capsys, "invert", "--f", "x1", "--d", "1", "--n", "1",
                           "--cap", "4")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "f_min: exponent -1, lead x1_-1"
        assert lines[1].startswith("inverse: 1/x1_-1*z^1 + (-x1_0/x1_-1^2)*z^2")

    def test_invert_constant(self, capsys):
        code, out, _ = run(capsys, "invert", "--f", "1", "--d", "1")
        assert code == 0
        assert "inverse: 1*z^0" in out

    def test_invert_zero_is_input_error(self, capsys):
        code, _, err = run(capsys, "invert", "--f", "0", "--d", "1")
        assert code == 1 and "zero polynomial" in err


class TestNorm:
    def test_levels(self, capsys):
        code, out, _ = run(capsys, "norm", "--f", "x1", "--d", "1", "--n", "4",
                           "--cap", "8", "--levels", "0,1,2")
        assert code == 0
        records = json.loads(out)
        assert [r["value"] for r in records] == ["1", "2", "4"]
        assert all(not r["upper_bound"] for r in records)

    def test_epsilon_is_the_unit_of_the_printed_value(self, capsys):
        # Nothing of x1^2 + x2 survives level 0 below the cap: eps^-1 bounds it.
        code, out, _ = run(capsys, "norm", "--f", "x1^2+x2", "--d", "2", "--n", "3",
                           "--cap", "2", "--levels", "0,1", "--epsilon", "2/3",
                           "--format", "csv")
        assert (code, out) == (0, "level,value,upper_bound\n0,3/2,true\n1,9/4,false\n")

    def test_value_from_order(self):
        eps = Fraction(2, 3)
        assert cli.value_from_order(-2, eps) == ("9/4", False)
        assert cli.value_from_order(3, eps) == ("8/27", False)
        assert cli.value_from_order(AtLeastCap(-1), eps) == ("3/2", True)
        assert cli.value_from_order(AtLeastCap(INF), eps) == ("0", False)


class TestConverge:
    def test_plain_table(self, capsys):
        code, out, _ = run(capsys, "converge", "--mode", "plain", "--j", "0",
                           "--n-max", "5", "--N", "1", "--d", "1", "--cap", "8")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,ord_exponent,distance_as_rational,upper_bound_flag"
        assert lines[1:] == [
            "1,2,1/4,false",
            "2,3,1/8,false",
            "3,4,1/16,false",
            "4,5,1/32,false",
            "5,6,1/64,false",
        ]

    def test_complement_table(self, capsys):
        code, out, _ = run(capsys, "converge", "--mode", "complement", "--f", "x1",
                           "--d", "1", "--j", "1", "--n-max", "3", "--N", "1",
                           "--cap", "8")
        assert code == 0
        rows = out.splitlines()[1:]
        assert [r.split(",")[2] for r in rows] == ["1/4", "1/8", "1/16"]

    def test_insufficient_cap_is_precision_error(self, capsys):
        code, _, err = run(capsys, "converge", "--mode", "plain", "--j", "0",
                           "--n-max", "9", "--N", "1", "--d", "1", "--cap", "6")
        assert code == 2 and "cap of at least 11" in err

    @pytest.mark.parametrize("argv", [
        ("--mode", "plain", "--N", "-1", "--d", "1"),
        ("--mode", "complement", "--f", "x1", "--d", "1", "--j", "1", "--N", "-1",
         "--loop-level", "1"),
    ])
    def test_negative_norm_level_is_input_error(self, capsys, argv):
        # The message norm and approx give; an empty band window is still
        # reported first, with exit 2.
        assert run(capsys, "converge", *argv) == (1, "", "error: level must be >= 0\n")
        code, _, err = run(capsys, "converge", *argv, "--cap", "1")
        assert code == 2 and "cap of at least 7" in err

    @pytest.mark.parametrize("argv", [
        ("--mode", "plain", "--loop-level", "-2"),
        ("--mode", "complement", "--f", "x1+1", "--d", "1", "--N", "0", "--loop-level", "-1"),
    ])
    def test_negative_loop_level_is_input_error(self, capsys, argv):
        assert run(capsys, "converge", *argv) == (
            1, "", "error: truncation level must be >= 0\n"
        )


class TestNormLevel:
    """--N is the one flag of the semi-norm level, a flag of converge and
    approx only: one setting, read by the settings table like any other."""

    # Commands whose output differs between the two levels given.
    CASES = [
        (("converge", "--j", "1", "--n-max", "3", "--d", "1", "--cap", "6"), "1", "2"),
        (("approx", "--f", "x1^2+x1", "--j", "2", "--band", "2", "--cap", "8"), "0", "1"),
    ]

    @pytest.mark.parametrize("argv, low, high", CASES)
    def test_config_level_applies_without_either_flag(self, capsys, tmp_path, argv,
                                                      low, high):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"level": int(high)}))
        at_low, at_high = run(capsys, *argv, "--N", low), run(capsys, *argv, "--N", high)
        assert at_low[0] == at_high[0] == 0 and at_low != at_high
        assert run(capsys, *argv, "--config", str(config)) == at_high
        assert run(capsys, *argv, "--config", str(config), "--N", low) == at_low

    @pytest.mark.parametrize("command", ["converge", "approx"])
    def test_bad_value_is_input_error(self, capsys, command):
        assert run(capsys, command, "--f", "x1", "--N", "x") == (
            1, "", 'error: level must be an integer, got "x"\n'
        )

    # SHA-256 of `--help` at COLUMNS=80, recorded when each command came to
    # take only the flags of the settings it reads.
    HELP = {
        "converge": "2b06978d8023770314b29814d2d4409bf9eafbf40fab86c93e875a8478128e63",
        "approx": "6e00e99ce451acf7576c3bd6e8831c57b6596ff91b362a3f7ac0914a485a9bd2",
    }

    @pytest.mark.parametrize("command", sorted(HELP))
    def test_help_is_unchanged(self, capsys, monkeypatch, command):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--help"])
        assert exit_info.value.code == 0
        text = capsys.readouterr().out
        assert hashlib.sha256(text.encode()).hexdigest() == self.HELP[command]


class TestApprox:
    def test_payload(self, capsys):
        code, out, _ = run(capsys, "approx", "--f", "x1", "--d", "1", "--j", "1",
                           "--band", "1", "--N", "1", "--cap", "8")
        assert code == 0
        payload = json.loads(out)
        assert payload["distance"] == "1/4"
        assert payload["model_commutes"] is True
        assert payload["denominator_power"] == 3
        assert "ev(f)^3" in payload["element"]

    def test_negative_norm_level_is_input_error(self, capsys):
        assert run(capsys, "approx", "--f", "x1", "--d", "1", "--j", "1", "--N", "-1",
                   "--loop-level", "1") == (1, "", "error: level must be >= 0\n")
        # Without --loop-level the loop level comes from the norm level, which
        # is refused before it is used.
        assert run(capsys, "approx", "--f", "x1+1", "--d", "1", "--N", "-1") == (
            1, "", "error: level must be >= 0\n"
        )

    def test_negative_loop_level_is_input_error(self, capsys):
        assert run(capsys, "approx", "--f", "x1+1", "--d", "1", "--N", "0",
                   "--loop-level", "-1") == (1, "", "error: truncation level must be >= 0\n")


class TestCheck:
    def test_good_passes(self, capsys):
        code, out, _ = run(capsys, "check", "good", "--f", "x1^2", "--d", "1",
                           "--cap", "6", "--levels", "0,1,2")
        assert code == 0
        assert json.loads(out)["passed"] is True

    def test_good_rejects_zero(self, capsys):
        code, _, err = run(capsys, "check", "good", "--f", "0", "--d", "1")
        assert code == 1 and "zero polynomial" in err

    def test_isometry(self, capsys):
        code, out, _ = run(capsys, "check", "isometry", "--d", "1", "--samples", "20",
                           "--seed", "7", "--levels", "0,1,2")
        assert code == 0
        assert json.loads(out)["passed"] is True

    def test_ultrametric(self, capsys):
        code, out, _ = run(capsys, "check", "ultrametric", "--d", "1",
                           "--samples", "20", "--seed", "3", "--levels", "0,1")
        assert code == 0
        assert json.loads(out)["passed"] is True

    def test_no_sample_is_input_error(self, capsys):
        for suite, samples in (("isometry", "0"), ("ultrametric", "-2")):
            code, out, err = run(capsys, "check", suite, "--d", "1", "--samples", samples)
            assert (code, out) == (1, "")
            assert err == "error: a property suite needs at least one sample\n"

    def test_empty_window_is_precision_error(self, capsys):
        # cap -3 at level 0 leaves the window [0, -3): every sample would
        # hold no coefficient, so the suites must not pass on upper bounds.
        expected = (2, "", "error: cap -3 leaves the window [0, -3) empty "
                           "(a cap of at least 1 is required)\n")
        good = run(capsys, "check", "good", "--f", "x1", "--d", "1", "--cap", "-3",
                   "--levels", "0")
        assert good == expected
        for suite in ("isometry", "ultrametric"):
            assert run(capsys, "check", suite, "--d", "1", "--samples", "2",
                       "--cap", "-3", "--levels", "0") == expected

    def test_no_level_is_input_error(self, capsys, tmp_path):
        expected = (1, "", "error: check needs at least one level\n")
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"levels": []}))
        for suite in ("good", "isometry", "ultrametric"):
            assert run(capsys, "check", suite, "--f", "x1", "--d", "1",
                       "--levels", "") == expected
            assert run(capsys, "check", suite, "--f", "x1", "--d", "1",
                       "--config", str(config)) == expected

    @pytest.mark.parametrize("suite", ["isometry", "ultrametric"])
    def test_dimension_zero_is_input_error(self, capsys, suite):
        assert run(capsys, "check", suite, "--d", "0") == (
            1, "", "error: dimension must be >= 1\n"
        )

    @pytest.mark.parametrize("suite", ["good", "isometry", "ultrametric"])
    def test_negative_level_is_input_error(self, capsys, suite):
        # The samples and the composite are built at the top level; a negative
        # level is refused as a suite level before either is built.
        assert run(capsys, "check", suite, "--f", "x1", "--d", "1", "--samples", "2",
                   "--levels", "-5") == (1, "", "error: level must be >= 0\n")

    @pytest.mark.parametrize("suite", ["good", "isometry", "ultrametric"])
    def test_negative_level_below_the_top_is_input_error(self, capsys, suite):
        # At seed 0 and cap 1 the first sample holds no coefficient, so no
        # projection at level -1 would refuse it: the suite checks its levels.
        assert run(capsys, "check", suite, "--f", "x1", "--d", "1", "--samples", "1",
                   "--cap", "1", "--levels", "0,-1", "--seed", "0") == (
            1, "", "error: level must be >= 0\n"
        )

    @pytest.mark.parametrize("suite", ["good", "isometry", "ultrametric"])
    def test_epsilon_is_no_flag_of_check(self, capsys, suite):
        # The suites compare orders, so eps cannot change a verdict.
        assert run(capsys, "check", suite, "--f", "x1", "--d", "1", "--samples", "2",
                   "--epsilon", "1/3") == (
            1, "", "error: unrecognized arguments: --epsilon 1/3\n"
        )

    def test_norm_without_levels_is_empty(self, capsys, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"levels": []}))
        assert run(capsys, "norm", "--f", "x1", "--d", "1", "--levels", "") == (0, "[]\n", "")
        assert run(capsys, "norm", "--f", "x1", "--d", "1", "--config", str(config)) == (
            0, "[]\n", ""
        )


class TestExactSeriesOutput:
    # A constant f composes to an exact series, whose cap is +infinity, and
    # the constant 2 inverts exactly, so each converge distance is the exact
    # zero, whose order is +infinity. Neither infinity may reach the output.
    @pytest.mark.parametrize("argv", [
        ("norm", "--f", "3", "--d", "1", "--n", "1", "--levels", "0,1", "--format", "json"),
        ("norm", "--f", "3", "--d", "1", "--n", "1", "--levels", "0,1", "--format", "csv"),
        ("converge", "--mode", "complement", "--f", "2", "--d", "1", "--j", "0",
         "--n-max", "2", "--N", "0", "--cap", "4", "--format", "csv"),
        ("converge", "--mode", "complement", "--f", "2", "--d", "1", "--j", "0",
         "--n-max", "2", "--N", "0", "--cap", "4", "--format", "json"),
        ("approx", "--f", "2", "--d", "1", "--j", "0"),
        ("invert", "--f", "3", "--d", "1", "--n", "1"),
        ("relations", "--f", "3", "--d", "1", "--n", "1", "--cap", "2"),
        ("relations", "--complement", "--f", "3", "--d", "1", "--n", "1", "--cap", "2"),
        ("check", "good", "--f", "3", "--d", "1", "--levels", "0,1"),
    ], ids=" ".join)
    def test_infinity_never_prints(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "") and out
        assert not re.search(r"(?i)\b(inf|infinity|nan)\b", out)


class TestPlumbing:
    def test_config_file_with_flag_override(self, capsys, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"f": "x1", "d": 1, "n": 1, "cap": 2}))
        code, out, _ = run(capsys, "relations", "--config", str(config))
        assert code == 0 and len(json.loads(out)) == 3
        code, out, _ = run(capsys, "relations", "--config", str(config),
                           "--cap", "3")
        assert code == 0 and len(json.loads(out)) == 4

    def test_config_must_be_an_object(self, capsys, tmp_path):
        config = tmp_path / "run.json"
        for payload in ([1, 2], 3, "x1"):
            config.write_text(json.dumps(payload))
            code, out, err = run(capsys, "relations", "--config", str(config))
            assert code == 1 and out == "" and err.startswith("error: ")
            assert "JSON object" in err

    def test_config_values_must_have_their_type(self, capsys, tmp_path):
        config = tmp_path / "run.json"
        cases = [
            ({"cap": None}, "cap must be an integer, got null"),
            ({"cap": [1]}, "cap must be an integer, got [1]"),
            ({"cap": float("inf")}, "cap must be an integer, got Infinity"),
            ({"levels": 5}, "levels must be a string or a list, got 5"),
            ({"levels": [0, None]}, "levels must be an integer, got null"),
            ({"output": [1]}, "output must be a path, got [1]"),
            ({"output": True}, "output must be a path, got true"),
            ({"cap": 2.7}, "cap must be an integer, got 2.7"),
            ({"cap": True}, "cap must be an integer, got true"),
            ({"format": "xml"}, 'format must be one of json, csv, text, got "xml"'),
            ({"caps": 5}, f"config file {config}: unknown setting caps"),
            ({"j": 3, "f": "x1"}, f"config file {config}: unknown setting j"),
            ({"epsilon": "1/0"}, 'epsilon must be a fraction p/q, got "1/0"'),
            # norm reads neither seed nor samples.
            ({"seed": "x"}, 'seed must be an integer, got "x"'),
            ({"samples": 1.5}, "samples must be an integer, got 1.5"),
        ]
        for payload, message in cases:
            config.write_text(json.dumps(payload))
            code, out, err = run(capsys, "norm", "--f", "x1", "--config", str(config))
            assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_config_value_is_read_like_its_flag_text(self, capsys, tmp_path):
        config = tmp_path / "run.json"
        flags = ("--d", "1", "--n", "2", "--cap", "5", "--epsilon", "0.25",
                 "--levels", "0,1,2", "--format", "csv")
        code, expected, _ = run(capsys, "norm", "--f", "x1", *flags)
        assert code == 0
        for payload in (
            {"d": 1, "n": 2, "cap": 5, "epsilon": 0.25, "levels": [0, 1, 2], "format": "csv"},
            {"d": "1", "n": "2", "cap": "5", "epsilon": "1/4", "levels": "0,1,2",
             "format": "csv"},
        ):
            config.write_text(json.dumps(payload))
            assert run(capsys, "norm", "--f", "x1", "--config", str(config)) == (
                0, expected, ""
            )

    def test_config_null_unsets_f_output_and_format(self, capsys, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"f": None, "output": None, "format": None}))
        assert run(capsys, "ev", "--config", str(config)) == run(capsys, "ev")
        assert run(capsys, "relations", "--config", str(config)) == (
            1, "", "error: this command needs --f\n"
        )

    def test_flag_values_are_checked_even_when_unread(self, capsys, tmp_path):
        cases = [
            (("norm", "--f", "x1", "--epsilon", "1/0"),
             'epsilon must be a fraction p/q, got "1/0"'),
            (("norm", "--f", "x1", "--cap", "2.7"), 'cap must be an integer, got "2.7"'),
        ]
        for argv, message in cases:
            assert run(capsys, *argv) == (1, "", f"error: {message}\n")
        # ev reads neither epsilon nor seed: a config file, which serves every
        # command, may set them and has them checked; a flag is not ev's.
        config = tmp_path / "run.json"
        for payload, message in (
            ({"epsilon": "3/2"}, "epsilon must lie strictly between 0 and 1, got 3/2"),
            ({"seed": "x"}, 'seed must be an integer, got "x"'),
        ):
            config.write_text(json.dumps(payload))
            assert run(capsys, "ev", "--config", str(config)) == (1, "", f"error: {message}\n")
        assert run(capsys, "ev", "--epsilon", "3/2") == (
            1, "", "error: unrecognized arguments: --epsilon 3/2\n"
        )

    def test_prefix_of_a_flag_is_unrecognized(self, capsys):
        # --level is no flag of norm or check, and is not read as --levels.
        for argv in (("norm", "--f", "x1"), ("check", "good", "--f", "x1")):
            assert run(capsys, *argv, "--level", "2") == (
                1, "", "error: unrecognized arguments: --level 2\n"
            )

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "rels.json"
        code, out, _ = run(capsys, "relations", "--f", "x1", "--d", "1",
                           "--output", str(target))
        assert code == 0 and out == ""
        assert json.loads(target.read_text())

    def test_unwritable_output_is_io_error(self, capsys, tmp_path):
        target = tmp_path / "missing" / "rels.json"
        code, _, err = run(capsys, "relations", "--f", "x1", "--d", "1",
                           "--output", str(target))
        assert code == 3 and "error" in err

    def test_bad_epsilon(self, capsys):
        code, _, err = run(capsys, "norm", "--f", "x1", "--d", "1",
                           "--epsilon", "3/2")
        assert code == 1 and "epsilon" in err

    def test_bad_flag_is_input_error(self, capsys):
        code, _, err = run(capsys, "converge", "--mode", "sideways")
        assert code == 1

    def test_deeply_nested_polynomial_is_input_error(self, capsys):
        code, out, err = run(capsys, "invert", "--f", "(" * 250 + "x1" + ")" * 250,
                             "--d", "1")
        assert code == 1 and out == ""
        assert err == "error: parentheses nested more than 100 deep (at position 100)\n"

    def test_determinism(self, capsys, tmp_path):
        cases = [
            ("relations", "--f", "x1*x2 + 1", "--d", "2", "--n", "1", "--cap", "3"),
            ("ev", "--d", "2", "--n", "1", "--cap", "3"),
            ("invert", "--f", "x1^2", "--d", "1", "--n", "1", "--cap", "5"),
            ("norm", "--f", "x1", "--d", "1", "--levels", "0,1,2"),
            ("converge", "--mode", "plain", "--j", "1", "--n-max", "4", "--N", "1",
             "--d", "1", "--cap", "7"),
            ("approx", "--f", "x1", "--d", "1", "--j", "1", "--band", "2",
             "--N", "1", "--cap", "8"),
            ("check", "ultrametric", "--d", "1", "--samples", "15", "--seed", "11"),
        ]
        for i, case in enumerate(cases):
            first = tmp_path / f"a{i}"
            second = tmp_path / f"b{i}"
            assert main([*case, "--output", str(first)]) == main(
                [*case, "--output", str(second)]
            )
            assert first.read_bytes() == second.read_bytes()


class _RecordingSettings(dict):
    """Settings that note each key a command reads into `seen`."""

    def __init__(self, values, seen):
        super().__init__(values)
        self.seen = seen

    def __getitem__(self, key):
        self.seen.add(key)
        return super().__getitem__(key)


class TestFlagsMatchReads:
    """Each command's setting flags are exactly the settings it reads."""

    # Every branch that reads settings: both converge modes, all three
    # suites, relations with and without --complement.
    RUNS = [
        ("relations", "--f", "x1", "--n", "0", "--cap", "1"),
        ("relations", "--complement", "--f", "x1", "--n", "0", "--cap", "1"),
        ("ev", "--cap", "1"),
        ("invert", "--f", "x1", "--cap", "3"),
        ("norm", "--f", "x1", "--levels", "0,1"),
        ("converge", "--mode", "plain", "--j", "0", "--n-max", "2"),
        ("converge", "--mode", "complement", "--f", "x1", "--j", "1", "--n-max", "2"),
        ("approx", "--f", "x1"),
        ("check", "good", "--f", "x1", "--levels", "0,1"),
        ("check", "isometry", "--samples", "2", "--levels", "0,1"),
        ("check", "ultrametric", "--samples", "2", "--levels", "0,1"),
    ]

    def test_each_command_reads_exactly_its_flags(self, capsys, monkeypatch):
        read = defaultdict(set)
        settings = cli._settings
        monkeypatch.setattr(
            cli, "_settings", lambda args: _RecordingSettings(settings(args), read[args.command])
        )
        for argv in self.RUNS:
            assert run(capsys, *argv)[0] == 0, argv
        commands = {argv[0] for argv in self.RUNS}
        assert commands == set(cli._COMMAND_SETTINGS)
        for command in sorted(commands):
            assert read[command] == set(cli._COMMAND_SETTINGS[command]), command


class TestParserBuiltOnce:
    """main builds its parser on the first call and reuses it."""

    F = ("--f", "x1*x2 + 1", "--d", "2", "--n", "1", "--cap", "2")

    def test_calls_do_not_leak_into_each_other(self, capsys):
        cli._build_parser.cache_clear()
        first = run(capsys, "relations", *self.F)
        assert first[0] == 0
        complement = run(capsys, "relations", "--complement", *self.F, "--format", "csv")
        assert complement[0] == 0 and complement != first
        assert run(capsys, "relations", *self.F) == first
        assert cli._build_parser.cache_info().currsize == 1

    @pytest.mark.parametrize("command", [None, "relations", "ev", "invert", "norm",
                                         "converge", "approx", "check"])
    def test_help_is_that_of_a_fresh_parser(self, capsys, monkeypatch, command):
        argv = ["--help"] if command is None else [command, "--help"]
        # The cached parser is built at one terminal width; help is
        # formatted at the width of the call.
        cli._build_parser.cache_clear()
        monkeypatch.setenv("COLUMNS", "120")
        run(capsys, "ev", "--d", "1", "--cap", "1")
        for columns in ("60", "200"):
            monkeypatch.setenv("COLUMNS", columns)
            with pytest.raises(SystemExit):
                cli._build_parser.__wrapped__().parse_args(argv)
            expected = capsys.readouterr().out
            with pytest.raises(SystemExit) as exit_info:
                main(argv)
            assert exit_info.value.code == 0
            assert capsys.readouterr().out == expected

    def test_dispatch_sees_a_replaced_command(self, capsys, monkeypatch):
        run(capsys, "ev", "--d", "1", "--cap", "1")
        seen = []
        monkeypatch.setattr(cli, "cmd_ev", lambda cfg, args: seen.append(cfg["cap"]) or 7)
        assert main(["ev", "--cap", "3"]) == 7
        assert seen == [3]


class TestLongCoefficients:
    def test_coefficient_past_the_digit_limit(self, capsys):
        # The digit limit is lifted only to write the expected text; main
        # runs under the interpreter's own limit.
        get_limit = getattr(sys, "get_int_max_str_digits", None)
        limit = get_limit() if get_limit else 0
        try:
            if limit:
                sys.set_int_max_str_digits(0)
            expected = str(99999 ** 1000)
        finally:
            if limit:
                sys.set_int_max_str_digits(limit)
        code, out, err = run(capsys, "relations", "--f", "99999^1000*x1", "--d", "1",
                             "--n", "0", "--cap", "1")
        assert (code, err) == (0, "")
        assert json.loads(out) == [{"exponent": 0, "generator": expected + "*x1_0"}]

    def test_exponent_past_the_digit_limit(self, capsys):
        digits = "1" * 5000
        code, out, err = run(capsys, "relations", "--f", f"x1^{digits}", "--d", "1",
                             "--n", "0", "--cap", "1")
        assert (code, err) == (0, "")
        assert json.loads(out) == [{"exponent": 0, "generator": f"x1_0^{digits}"}]

    def test_coordinate_past_the_digit_limit(self, capsys):
        digits = "1" * 5000
        assert run(capsys, "relations", "--f", f"x{digits}", "--d", "1", "--n", "0",
                   "--cap", "1") == (
            1, "", f"error: unknown variable 'x{digits}' (expected x1..x1) (at position 0)\n"
        )
