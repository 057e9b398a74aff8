import contextlib
import importlib
import inspect
import io
import json
import os
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from gridutil import instance_grid, weight_compositions
from qrigged import cli as cli_module
from qrigged.bijection import path_to_rc
from qrigged.cli import BAILEY_MAX_STEPS, EXIT_OK, EXIT_UNEQUAL, \
    EXIT_UNKNOWN_PRESET, EXIT_UNSUPPORTED, EXIT_USAGE, MAX_GRID, \
    OPERATION_MAP, build_parser, main
from qrigged.combinat import Composition
from qrigged.qalg import TruncatedSeries
from qrigged.qseries.bailey import BaileyPair, unit_bailey_pair
from qrigged.crystals import Path as CrystalPath, enumerate_paths
from qrigged.qseries import presets as presets_module
from qrigged.qseries.presets import ENV_PRESET_DIR, CharacterPreset, \
    PresetRegistry
from qrigged.rc import MultiplicityArray, rc_to_json
from schemautil import load_schema, validate

GOLDEN_DIR = Path(__file__).parent / "golden"

# one representative invocation per subcommand, with its result schema
CASES = {
    "kostka": (["kostka", "--shapes", "1x1,1x1", "--n", "2",
                "--weight", "1,1", "--side", "both"], "kostka.schema.json"),
    "rc-list": (["rc-list", "--shapes", "1x1,1x1", "--n", "2",
                 "--weight", "1,1"], "rc-list.schema.json"),
    "paths": (["paths", "--shapes", "1x1,1x1,1x1", "--n", "3",
               "--weight", "1,1,1"], "paths.schema.json"),
    "bijection": (["bijection", "--n", "2", "--path", "12(x)1"],
                  "bijection.schema.json"),
    "qbinom": (["qbinom", "4", "2"], "qbinom.schema.json"),
    "pochhammer": (["pochhammer", "--length", "inf", "--order", "7"],
                   "pochhammer.schema.json"),
    "character": (["character", "--preset", "rogers-ramanujan-1",
                   "--order", "30"], "character.schema.json"),
    "bailey": (["bailey", "--mode", "verify", "--pair", "unit",
                "--order", "12", "--max-n", "6"], "bailey.schema.json"),
    "compare": (["compare", "--preset-a", "rogers-ramanujan-1",
                 "--preset-b", "rogers-ramanujan-1", "--order", "25"],
                "compare.schema.json"),
}


def run_cli(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:  # the argument parser exits by itself
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGolden:
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_against_golden_file(self, name, capsys):
        argv, _ = CASES[name]
        code, out, _ = run_cli(argv, capsys)
        assert code == EXIT_OK
        golden = (GOLDEN_DIR / f"{name}.json").read_bytes()
        assert out.encode() == golden

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_text_against_golden_file(self, name, capsys):
        # --format text prints the keys in the order the payload holds them
        argv, _ = CASES[name]
        code, out, _ = run_cli(argv + ["--format", "text"], capsys)
        golden = (GOLDEN_DIR / f"{name}.txt").read_bytes()
        if (code, out.encode()) != (EXIT_OK, golden):
            pytest.fail(f"exit {code}, text output differs from {name}.txt")

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_byte_identical_reruns(self, name, capsys):
        argv, _ = CASES[name]
        _, first, _ = run_cli(argv, capsys)
        _, second, _ = run_cli(argv, capsys)
        assert first == second

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_result_schema(self, name, capsys):
        argv, schema_name = CASES[name]
        _, out, _ = run_cli(argv, capsys)
        envelope = json.loads(out)
        validate(envelope, load_schema("envelope.schema.json"))
        validate(envelope["result"], load_schema(schema_name))

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_text_mode_carries_same_data(self, name, capsys):
        argv, _ = CASES[name]
        _, out_json, _ = run_cli(argv, capsys)
        _, out_text, _ = run_cli(argv + ["--format", "text"], capsys)
        envelope = json.loads(out_json)

        def scalars(node):
            if isinstance(node, dict):
                for v in node.values():
                    yield from scalars(v)
            elif isinstance(node, list):
                for v in node:
                    yield from scalars(v)
            else:
                yield node

        for value in scalars(envelope["result"]):
            rendered = json.dumps(value) if isinstance(value, bool) else str(value)
            assert rendered.lower() in out_text.lower() or \
                str(value) in out_text


class TestExitCodes:
    def test_usage_error(self, capsys):
        code, _, err = run_cli(["kostka", "--shapes", "1x1", "--n", "2",
                                "--weight", "1,,2"], capsys)
        assert code == EXIT_USAGE
        assert err.strip()

    def test_verified_inequality(self, capsys):
        code, _, _ = run_cli(["character", "--preset", "control-rr-mismatch"],
                             capsys)
        assert code == EXIT_UNEQUAL

    def test_unsupported_shape(self, capsys):
        code, _, err = run_cli(["kostka", "--shapes", "2x2", "--n", "3",
                                "--weight", "2,1,1"], capsys)
        assert code == EXIT_UNSUPPORTED
        assert "unsupported factor shape" in err

    def test_unknown_preset(self, capsys):
        code, _, _ = run_cli(["character", "--preset", "missing"], capsys)
        assert code == EXIT_UNKNOWN_PRESET

    def test_argparse_usage_is_exit_two(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["kostka"])  # missing required flags
        assert err.value.code == EXIT_USAGE

    def test_success(self, capsys):
        code, _, _ = run_cli(["qbinom", "3", "1"], capsys)
        assert code == EXIT_OK

    @pytest.mark.parametrize("argv", [
        ["character", "--preset", "rogers-ramanujan-1", "--order", "-3"],
        ["compare", "--preset-a", "rogers-ramanujan-1",
         "--preset-b", "rogers-ramanujan-1", "--order", "-2"],
        ["bailey", "--mode", "weak-limit", "--order", "-1"],
        ["bijection", "--n", "1", "--shapes", "1",
         "--rc", '[{"partition": [1], "riggings": [0]}]'],
        ["bailey", "--max-n", "-1"],
        ["bailey", "--order", "-1"],
        ["qbinom", "1200", "600"],
        ["pochhammer", "--exponent", "-1", "--length", "2"],
        ["bailey", "--steps", "1", "--rho", "-1"],
        ["pochhammer", "--step", "1/100000", "--order", "3"],
        ["bailey", "--steps", "1", "--rho", "1/99999", "--order", "5"],
        ["bailey", "--steps", str(BAILEY_MAX_STEPS + 1), "--order", "1"],
        ["bailey", "--steps", "1", "--rho", "4/5", "--sigma", "5/6"],
        ["character", "--preset", "rogers-ramanujan-1",
         "--order", str(MAX_GRID + 1)],
        ["compare", "--preset-a", "rogers-ramanujan-1",
         "--preset-b", "rogers-ramanujan-1", "--order", str(MAX_GRID + 1)],
        # a preset whose declared order is past the limit, in PRESET_DIR
        ["character", "--preset", "rogers-ramanujan-1",
         "--preset-dir", "PRESET_DIR"],
    ])
    def test_bad_numeric_argument_is_usage_error(self, argv, tmp_path, capsys):
        if "PRESET_DIR" in argv:
            _malformed_preset(tmp_path / "big.json",
                              lambda d: d.update(declared_order=MAX_GRID + 1))
            argv = [str(tmp_path) if a == "PRESET_DIR" else a for a in argv]
        try:
            code = main(argv)
        except SystemExit as exc:  # rejected by the argument parser
            code = exc.code
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert err.startswith(("usage:", "error:"))
        assert "Traceback" not in err

    @pytest.mark.parametrize("rc", [
        '[{"partition": [1.5], "riggings": [0.9]}]',
        '[{"partition": [true], "riggings": [false]}]',
        '[{"partition": "1", "riggings": "0"}]',
        '[{"partition": [1], "riggings": [1e400]}]',
        '{}', '[1]', 'null', '{"a": 1}', '[{"partition": [1]}]',
        "[" * 10 ** 5 + "]" * 10 ** 5,
    ], ids=["float", "bool", "digit-string", "overflow", "empty-object",
            "level-an-int", "null", "object", "level-without-riggings",
            "nested-too-deep"])
    def test_non_integer_rc_json_is_usage_error(self, rc, capsys):
        code, _, err = run_cli(["bijection", "--n", "2", "--shapes", "1x1,1x1",
                                "--rc", rc], capsys)
        if code != EXIT_USAGE or not err.startswith("error: malformed rc JSON") \
                or err.count("\n") != 1 or any(
                    text in err for text in ("Traceback", "subscriptable",
                                             "has no len", "indices must be")):
            pytest.fail(f"exit {code}: {err}")

    @pytest.mark.parametrize("mode, verdict", [("verify", "valid"),
                                               ("weak-limit", "equal")])
    def test_step_cap_is_reachable(self, mode, verdict, capsys):
        code, out, _ = run_cli(["bailey", "--mode", mode,
                                "--steps", str(BAILEY_MAX_STEPS),
                                "--order", "1"], capsys)
        assert code == EXIT_OK
        assert json.loads(out)["result"][verdict] is True

    # both outputs are past the 64 KiB a pipe buffers, so the write fails
    @pytest.mark.parametrize("argv, want", [
        (["qbinom", "3000", "5"], EXIT_OK),
        (["character", "--preset", "control-rr-mismatch", "--order", "2000"],
         EXIT_UNEQUAL)], ids=["qbinom", "character"])
    def test_closed_stdout_keeps_the_exit_code(self, argv, want):
        # a real pipe whose reader closes after 100 bytes, as `| head -c 100`
        path = [str(Path(__file__).resolve().parents[1] / "src"),
                os.environ.get("PYTHONPATH", "")]
        proc = subprocess.Popen(
            [sys.executable, "-m", "qrigged.cli", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))})
        head = proc.stdout.read(100)
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        code = proc.wait(timeout=120)
        if (code, err, len(head)) != (want, b"", 100):
            pytest.fail(f"exit {code}, {len(head)} bytes read, stderr {err!r}")

    # every refusal a subcommand raises itself, with its exact message;
    # an unknown preset's line is KeyError's str, quotes included
    @pytest.mark.parametrize("argv, want, line", [
        (["kostka", "--shapes", "1xa", "--n", "2", "--weight", "1"],
         EXIT_USAGE, "malformed shape '1xa'"),
        (["paths", "--shapes", "0x1", "--n", "2", "--weight", "1"],
         EXIT_USAGE, "malformed shape '0x1'"),
        (["kostka", "--shapes", "1x1", "--n", "2", "--weight", "1,,2"],
         EXIT_USAGE, "malformed weight: malformed composition: '1,,2'"),
        (["bijection", "--n", "2", "--path", "1a"],
         EXIT_USAGE, "malformed path: malformed path factor: '1a'"),
        # an empty --path or --rc is present, and refused as malformed
        (["bijection", "--n", "2", "--path", ""],
         EXIT_USAGE, "malformed path: malformed path factor: ''"),
        (["bijection", "--n", "2", "--rc", "[]"],
         EXIT_USAGE, "--rc requires --shapes"),
        (["bijection", "--n", "2", "--shapes", "1x1", "--rc", ""],
         EXIT_USAGE, "malformed rc JSON: Expecting value: line 1 column 1 (char 0)"),
        (["bijection", "--n", "2", "--shapes", "1x1,1x1",
          "--rc", '[{"partition": [1], "riggings": [5]}]'],
         EXIT_USAGE, "invalid rigged configuration: rigging 5 of a width-1 "
                     "row at level 1 violates its window [-1, 0]"),
        (["bijection", "--n", "2", "--shapes", "1x1,1x1", "--rc", "{}"],
         EXIT_USAGE, "malformed rc JSON: expected a JSON array of levels, got {}"),
        (["bijection", "--n", "2", "--check", "--shapes", "1x1"],
         EXIT_USAGE, "--check requires --shapes and --weight"),
        (["bijection", "--n", "2"],
         EXIT_USAGE, "exactly one of --path, --rc, --check is required"),
        (["bijection", "--n", "2", "--path", "12(x)1", "--check"],
         EXIT_USAGE, "exactly one of --path, --rc, --check is required"),
        (["bijection", "--n", "2", "--shapes", "1x1,1x1", "--path", "12",
          "--rc", '[{"partition": [1], "riggings": [0]}]'],
         EXIT_USAGE, "exactly one of --path, --rc, --check is required"),
        (["qbinom", "-3", "2"], EXIT_USAGE, "m must be nonnegative"),
        (["qbinom", "1200", "600"],
         EXIT_USAGE, "degree k(m-k) = 360000 is above the limit 20000"),
        (["pochhammer", "--step", "1/0"], EXIT_USAGE, "malformed rational '1/0'"),
        (["pochhammer", "--length", "x"], EXIT_USAGE, "malformed length 'x'"),
        (["pochhammer", "--step", "1/100000", "--order", "3"],
         EXIT_USAGE, "series grid order*d = 300000 is above the limit 20000"),
        (["character", "--preset", "rogers-ramanujan-1", "--order", "20001"],
         EXIT_USAGE, "order = 20001 is above the limit 20000"),
        (["bailey", "--pair", "nope"], EXIT_USAGE,
         "unknown Bailey pair 'nope'; available: rogers-ramanujan-seed, unit"),
        (["bailey", "--steps", "101", "--order", "1"],
         EXIT_USAGE, "101 steps is above the limit 100"),
        (["bailey", "--steps", "1", "--rho", "x"],
         EXIT_USAGE, "malformed rational 'x'"),
        (["character", "--preset", "no-such-preset"],
         EXIT_UNKNOWN_PRESET, "no-such-preset"),
        (["compare", "--preset-a", "nope", "--preset-b", "lebesgue"],
         EXIT_UNKNOWN_PRESET, "nope"),
        (["compare", "--preset-a", "lebesgue", "--preset-b", "nope"],
         EXIT_UNKNOWN_PRESET, "nope"),
    ], ids=lambda x: " ".join(x) if isinstance(x, list) else str(x))
    def test_refusal_names_its_reason(self, argv, want, line, capsys):
        if want == EXIT_UNKNOWN_PRESET:
            line = (f"\"unknown preset '{line}'; available: "
                    f"{', '.join(sorted(PresetRegistry().names()))}\"")
        code, out, err = run_cli(argv, capsys)
        if (code, out, err) != (want, "", f"error: {line}\n"):
            pytest.fail(f"exit {code}, stdout {out[:80]!r}, stderr {err!r}")

    def test_compare_order_zero_is_checked_at_zero(self, capsys):
        code, out, _ = run_cli(["compare", "--preset-a", "rogers-ramanujan-1",
                                "--preset-b", "rogers-ramanujan-1",
                                "--order", "0"], capsys)
        assert code == EXIT_OK
        assert json.loads(out)["result"]["checked_order"] == "0"


def _malformed_preset(path: Path, malform) -> None:
    """Write rogers-ramanujan-1, changed by `malform`, to `path`; a string
    `malform` is written as the whole file."""
    if isinstance(malform, str):
        path.write_text(malform)
        return
    data = json.loads((Path(presets_module.__file__).parent / "presets"
                       / "rogers-ramanujan-1.json").read_text())
    malform(data)
    path.write_text(json.dumps(data))


MALFORMED_PRESETS = {
    "fermionic-without-dim": lambda d: d["fermionic"].pop("dim"),
    "factor-without-exponent":
        lambda d: d["fermionic"]["factors"][0].pop("exponent"),
    "factor-not-an-object": lambda d: d["fermionic"].update(factors=[1]),
    "quadratic-not-a-list": lambda d: d["fermionic"].update(quadratic=5),
    "congruence-without-modulus": lambda d: d["fermionic"].update(
        congruences=[{"form": ["0", "1"]}]),
    "theta-without-quadratic": lambda d: d["bosonic"]["theta"].pop("quadratic"),
    # JSON true is no order 1, and 1.5 is no version 1
    "declared-order-a-bool": lambda d: d.update(declared_order=True),
    "version-a-float": lambda d: d.update(version=1.5),
    # nor is true a dim or a parity, -1.0 a power or "7" a modulus
    "dim-a-bool": lambda d: d["fermionic"].update(dim=True),
    "power-a-float": lambda d: d["fermionic"]["factors"][0].update(power=-1.0),
    "modulus-a-string": lambda d: d["fermionic"].update(
        congruences=[{"form": ["0", "1"], "modulus": "7"}]),
    "parity-a-bool": lambda d: d["bosonic"]["theta"].update(parity=True),
    # rationals are JSON integers or strings, never floats, even exact ones
    "offset-a-float": lambda d: d.update(offset=0.5),
    "exponent-a-bool":
        lambda d: d["fermionic"]["factors"][0].update(exponent=True),
    # a modulus below 1 and a factor sign other than +-1
    "modulus-zero": lambda d: d["fermionic"].update(
        congruences=[{"form": ["0", "1"], "modulus": 0}]),
    "factor-sign-two": lambda d: d["fermionic"]["factors"][0].update(sign=2),
    # factors no point can evaluate: refused on loading, with the file named
    "factor-exponent-zero":
        lambda d: d["fermionic"]["factors"][0].update(exponent="0"),
    "factor-length-negative": lambda d: d["fermionic"]["factors"][0].update(
        length=["-1", "0"]),
    # too deep for the JSON parser's recursion
    "nested-too-deep": "[" * 10 ** 5 + "]" * 10 ** 5,
}


class TestMalformedPresets:
    @pytest.mark.parametrize("case", sorted(MALFORMED_PRESETS) + ["directory"])
    def test_malformed_file_is_usage_error(self, case, tmp_path, monkeypatch,
                                           capsys):
        if case == "directory":  # unreadable: open() raises an OSError
            (tmp_path / "broken.json").mkdir()
        else:
            _malformed_preset(tmp_path / "broken.json", MALFORMED_PRESETS[case])
        for argv in (["character", "--preset", "rogers-ramanujan-1"],
                     ["compare", "--preset-a", "rogers-ramanujan-1",
                      "--preset-b", "rogers-ramanujan-1"],
                     ["compare", "--preset-a", "rogers-ramanujan-1",
                      "--side-a", "bosonic", "--preset-b",
                      "rogers-ramanujan-1", "--side-b", "bosonic"]):
            code, out, err = run_cli(argv + ["--preset-dir", str(tmp_path)],
                                     capsys)
            assert (code, out) == (EXIT_USAGE, "")
            assert err.startswith("error: ") and err.count("\n") == 1, err
            assert "broken.json" in err
        monkeypatch.setenv(ENV_PRESET_DIR, str(tmp_path))
        code, out, err = run_cli(["--version"], capsys)
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "broken.json" in err

    def test_side_that_cannot_be_evaluated_names_the_preset(self, tmp_path,
                                                           capsys):
        # the length 3 - n_1 depends on the point, so the file loads; the
        # point n_1 = 4 makes it -1
        _malformed_preset(tmp_path / "rr.json", lambda d: d["fermionic"][
            "factors"][0].update(length=["3", "-1"]))
        code, out, err = run_cli(["character", "--preset", "rogers-ramanujan-1",
                                  "--preset-dir", str(tmp_path)], capsys)
        line = ("error: preset 'rogers-ramanujan-1', fermionic side: Pochhammer "
                "length -1 is not a nonnegative integer\n")
        if (code, out, err) != (EXIT_USAGE, "", line):
            pytest.fail(f"exit {code}, stderr {err!r}")

    def test_far_theta_vertex_is_compared(self, tmp_path, capsys):
        # theta linear 10^9 puts the least term near j = -2 * 10^8: the
        # walk starts there, not at j = 0
        _malformed_preset(tmp_path / "rr.json", lambda d: d["bosonic"][
            "theta"].update(linear="1000000000"))
        code, out, err = run_cli(["compare", "--preset-dir", str(tmp_path),
                                  "--preset-a", "rogers-ramanujan-1",
                                  "--side-a", "bosonic",
                                  "--preset-b", "rogers-ramanujan-1",
                                  "--side-b", "bosonic", "--order", "12"],
                                 capsys)
        if code != EXIT_OK or json.loads(out)["result"]["equal"] is not True:
            pytest.fail(f"exit {code}, stdout {out!r}, stderr {err!r}")

    def test_far_fermionic_vertex_is_compared(self, tmp_path, capsys):
        # fermionic linear -10^9 puts the least term near n = 5 * 10^8: the
        # lattice walk starts there and Horner skips the factors past the
        # order, so the comparison ends at once
        _malformed_preset(tmp_path / "rr.json", lambda d: d["fermionic"].update(
            linear=["-1000000000"]))
        code, out, err = run_cli(["compare", "--preset-dir", str(tmp_path),
                                  "--preset-a", "rogers-ramanujan-1",
                                  "--side-a", "fermionic",
                                  "--preset-b", "rogers-ramanujan-1",
                                  "--side-b", "fermionic", "--order", "12"],
                                 capsys)
        if code != EXIT_OK or json.loads(out)["result"]["equal"] is not True:
            pytest.fail(f"exit {code}, stdout {out!r}, stderr {err!r}")

    def test_other_subcommands_ignore_the_preset_dir(self, tmp_path,
                                                     monkeypatch, capsys):
        _malformed_preset(tmp_path / "broken.json",
                          MALFORMED_PRESETS["fermionic-without-dim"])
        monkeypatch.setenv(ENV_PRESET_DIR, str(tmp_path))
        code, out, _ = run_cli(CASES["qbinom"][0], capsys)
        assert code == EXIT_OK
        assert out.encode() == (GOLDEN_DIR / "qbinom.json").read_bytes()
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        err = capsys.readouterr().err
        assert exc.value.code == EXIT_USAGE
        assert err.startswith("error: ") and err.count("\n") == 1, err

    def test_character_loads_the_presets_once(self, monkeypatch, capsys):
        built = []

        class CountingRegistry(PresetRegistry):
            def __init__(self, *args, **kwargs):
                built.append(args)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr("qrigged.cli.PresetRegistry", CountingRegistry)
        code, _, _ = run_cli(CASES["character"][0], capsys)
        assert code == EXIT_OK
        assert len(built) == 1


class TestPresetSeriesGrid:
    """`character` and `compare` bound the series grid order*d of a preset,
    with step 1/d from its factor exponents and steps, as `pochhammer` does,
    and from the denominators of its point and theta exponents, constants
    included, and `compare` from the two presets' offset difference, all
    before either side is evaluated; the verdict bounds the one list its
    comparison fills."""

    # b = 1/1000003 puts the points on a grid of step 1/1000003, which
    # eval_fermionic would fill to order 12 (12,000,037 coefficients); a
    # theta a2 = 1/1000003 (a1 = -1/2) puts its terms on steps 2a2 and
    # a2 + a1, d = 2,000,006; a fermionic constant 1/1000003 leaves each
    # side on integers, but the comparison's own list has step 1/1000003
    @pytest.mark.parametrize("malform, argv, grid", [
        (lambda d: d["fermionic"].update(linear=["1/1000003"]),
         ["compare", "--side-a", "fermionic", "--side-b", "fermionic"],
         12000036),
        (lambda d: d["bosonic"]["theta"].update(quadratic="1/1000003"),
         ["compare", "--side-a", "bosonic", "--side-b", "bosonic"], 24000072),
        (lambda d: d["fermionic"].update(constant="1/1000003"),
         ["character"], 12000036),
    ], ids=["fermionic-linear", "theta-quadratic", "fermionic-constant"])
    def test_fine_point_exponents_exceed_the_grid(self, malform, argv, grid,
                                                  tmp_path, capsys):
        _malformed_preset(tmp_path / "fine.json", malform)
        presets = (["--preset", "rogers-ramanujan-1"] if argv == ["character"]
                   else ["--preset-a", "rogers-ramanujan-1",
                         "--preset-b", "rogers-ramanujan-1"])
        line = f"error: series grid order*d = {grid} is above the limit 20000\n"
        code, out, err = run_cli(argv + presets + [
            "--preset-dir", str(tmp_path), "--order", "12"], capsys)
        if (code, out, err) != (EXIT_USAGE, "", line):
            pytest.fail(f"exit {code}, stderr {err!r}")

    def test_fine_factor_step_exceeds_the_grid(self, tmp_path, capsys):
        _malformed_preset(tmp_path / "fine.json", lambda d: d["fermionic"][
            "factors"][0].update(step="1/10000000"))
        line = "error: series grid order*d = 500000000 is above the limit 20000\n"
        for argv in (["character", "--preset", "rogers-ramanujan-1"],
                     ["compare", "--preset-a", "rogers-ramanujan-1",
                      "--side-a", "bosonic", "--preset-b",
                      "rogers-ramanujan-1"]):
            code, out, err = run_cli(argv + ["--preset-dir", str(tmp_path)],
                                     capsys)
            if (code, out, err) != (EXIT_USAGE, "", line):
                pytest.fail(f"{argv[0]}: exit {code}, stderr {err!r}")

    @pytest.mark.parametrize("malform, argv", [
        (lambda d: d["fermionic"].update(constant="1/1000003"),
         ["character", "--preset", "rogers-ramanujan-1"]),
        (lambda d: d["bosonic"]["theta"].update(constant="1/1000003"),
         ["character", "--preset", "rogers-ramanujan-1"]),
        (lambda d: d.update(offset="1/1000003"),
         ["compare", "--preset-a", "rogers-ramanujan-1",
          "--preset-b", "rogers-ramanujan-2"]),
    ], ids=["fermionic-constant", "theta-constant", "offset-difference"])
    def test_offsets_are_refused_before_evaluation(self, malform, argv,
                                                   tmp_path, monkeypatch, capsys):
        # the offsets that decide the verdict's d are counted up front, so
        # an over-limit grid costs no evaluation at any order
        def evaluate_side(*args):
            raise AssertionError("a side was evaluated before the refusal")

        monkeypatch.setattr(cli_module, "evaluate_side", evaluate_side)
        _malformed_preset(tmp_path / "rr1.json", malform)
        (tmp_path / "rr2.json").write_text(
            (Path(presets_module.__file__).parent / "presets"
             / "rogers-ramanujan-2.json").read_text())
        line = "error: series grid order*d = 2000006000 is above the limit 20000\n"
        code, out, err = run_cli(argv + ["--preset-dir", str(tmp_path),
                                         "--order", "2000"], capsys)
        if (code, out, err) != (EXIT_USAGE, "", line):
            pytest.fail(f"exit {code}, stderr {err!r}")

    def test_shipped_presets_are_bounded_by_their_order(self):
        # integer exponents and steps: d = 1, so every order within
        # MAX_GRID is still accepted
        registry = PresetRegistry()
        names = sorted(registry.names())
        assert len(names) == 11
        for name in names:
            preset = registry.get(name)
            for f in preset.fermionic.factors + preset.bosonic.prefactors:
                assert f.exponent.denominator == f.step.denominator == 1, name
            # nor do the point exponents refine the grid: A_ij and
            # A_ii/2 + b_i are integers (scale 2 of lattice_points is not
            # the grid, for euler-distinct-parts and lebesgue), and so are
            # the theta's 2a2 and a2 + a1, which _preset checks
            A, b = preset.fermionic.quadratic, preset.fermionic.linear
            for i, row in enumerate(A):
                assert all(x.denominator == 1 for x in row), name
                assert (row[i] / 2 + b[i]).denominator == 1, name
            assert cli_module._preset(registry, name, MAX_GRID) == \
                (preset, MAX_GRID)


class TestRepeatedCalls:
    """Many `main` calls in one process share one parser and parse the
    shipped presets once; an override directory is read on every call."""

    def test_shared_parser_keeps_every_output(self, capsys):
        build_parser.cache_clear()
        golden = {name: (GOLDEN_DIR / f"{name}.json").read_text()
                  for name in CASES}
        for name in sorted(CASES):
            if run_cli(CASES[name][0], capsys) != (EXIT_OK, golden[name], ""):
                pytest.fail(f"golden {name} differs")
        # what the parser prints itself must match a parser built afresh
        for argv in (["kostka"], ["--help"], ["kostka", "--help"],
                     ["--version"]):
            shared = run_cli(argv, capsys)
            with pytest.raises(SystemExit) as exc:
                build_parser.__wrapped__().parse_args(argv)
            fresh = (exc.value.code, *capsys.readouterr())
            if shared != fresh or not (shared[1] or shared[2]):
                pytest.fail(f"{argv}: shared parser gave {shared}, "
                            f"a fresh one {fresh}")
        code, out, _ = run_cli(CASES["qbinom"][0] + ["--format", "text"],
                                capsys)
        if code != EXIT_OK or not out.startswith("command: qbinom\n"):
            pytest.fail(f"--format text: exit {code}, {out!r}")
        code, out, _ = run_cli(CASES["qbinom"][0] + ["--timing"], capsys)
        if code != EXIT_OK or "timing_ms" not in json.loads(out):
            pytest.fail(f"--timing: exit {code}, {out!r}")
        for name in sorted(CASES, reverse=True):
            if run_cli(CASES[name][0], capsys) != (EXIT_OK, golden[name], ""):
                pytest.fail(f"golden {name} differs on the second pass")
        if build_parser() is not build_parser() or \
                build_parser.cache_info().misses != 1:
            pytest.fail(f"parser not shared: {build_parser.cache_info()}")

    def test_shipped_presets_are_parsed_once(self, monkeypatch, capsys):
        shipped = len(list(PresetRegistry().directory.glob("*.json")))
        _clear_caches()
        parsed = []
        from_dict = CharacterPreset.from_dict

        def counted(data):
            parsed.append(data.get("name"))
            return from_dict(data)

        monkeypatch.setattr(CharacterPreset, "from_dict", staticmethod(counted))
        for order in ("20", "21"):
            code, _, err = run_cli(["character", "--preset",
                                    "rogers-ramanujan-1", "--order", order],
                                   capsys)
            if code != EXIT_OK:
                pytest.fail(f"character: exit {code}: {err}")
        if len(parsed) != shipped:
            pytest.fail(f"{len(parsed)} presets parsed for two calls on "
                        f"{shipped} shipped files")

    def test_preset_dir_is_read_on_every_call(self, tmp_path, capsys):
        argv = ["character", "--preset", "rogers-ramanujan-1", "--order", "5",
                "--preset-dir", str(tmp_path)]
        for note in ("first note", "second note"):
            _malformed_preset(tmp_path / "rr.json",
                              lambda d: d.update(note=note))
            code, out, err = run_cli(argv, capsys)
            if code != EXIT_OK or json.loads(out)["result"]["note"] != note:
                pytest.fail(f"exit {code}, expected note {note!r}: {out}{err}")
        _malformed_preset(tmp_path / "rr.json",
                          MALFORMED_PRESETS["dim-a-bool"])
        code, out, err = run_cli(argv, capsys)
        if (code, out) != (EXIT_USAGE, "") or "rr.json" not in err:
            pytest.fail(f"rewritten malformed file: exit {code}: {out}{err}")


# one invocation per subcommand that runs every operation mapped to it
REACHING_ARGV = {name: argv for name, (argv, _) in CASES.items()}
REACHING_ARGV["bijection"] = ["bijection", "--n", "3", "--shapes", "1x2,1x1",
                              "--weight", "1,1,1", "--check"]
REACHING_ARGV["bailey"] = ["bailey", "--steps", "1", "--order", "6",
                           "--max-n", "3"]


def _operation_code(op: str):
    module, *attrs = op.split(".")
    obj = importlib.import_module(f"qrigged.{module}")
    for attr in attrs:
        obj = getattr(obj, attr)
    return inspect.unwrap(obj).__code__


def _clear_caches():
    for name, module in list(sys.modules.items()):
        if name.startswith("qrigged"):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()


class TestSurface:
    def test_every_operation_has_exactly_one_subcommand(self):
        parser = build_parser()
        subcommands = set()
        for action in parser._actions:
            if hasattr(action, "choices") and isinstance(action.choices, dict):
                subcommands |= set(action.choices)
        assert subcommands == {"kostka", "rc-list", "paths", "bijection",
                               "qbinom", "pochhammer", "character", "bailey",
                               "compare"} == set(REACHING_ARGV)
        # spec module coverage: every module contributes operations
        modules = {op.split(".")[0] for op in OPERATION_MAP}
        assert modules == {"qalg", "combinat", "crystals", "rc", "bijection",
                           "kostka", "qseries"}

    @pytest.mark.parametrize("op", sorted(OPERATION_MAP))
    def test_operation_is_reached_by_its_subcommand(self, op, capsys):
        code = _operation_code(op)
        entered = set()

        def profile(frame, event, arg):
            if event == "call":
                entered.add(frame.f_code)

        _clear_caches()
        sys.setprofile(profile)
        try:
            main(REACHING_ARGV[OPERATION_MAP[op]])
        finally:
            sys.setprofile(None)
        capsys.readouterr()
        assert code in entered, f"{op} is not run by {OPERATION_MAP[op]}"

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["--version"])
        assert err.value.code == 0
        out = capsys.readouterr().out
        assert "qrigged 0.1.0" in out
        assert "rogers-ramanujan-1@1" in out

    def test_rc_list_accepts_rectangles(self, capsys):
        code, out, _ = run_cli(["rc-list", "--shapes", "2x1", "--n", "3",
                                "--weight", "1,1,0"], capsys)
        assert code == EXIT_OK
        assert json.loads(out)["result"]["count"] >= 1

    def test_bijection_rc_input_roundtrip(self, capsys):
        code, out, _ = run_cli(["bijection", "--n", "2", "--path", "12(x)1"],
                               capsys)
        rc_json = json.dumps(json.loads(out)["result"]["rc"])
        code2, out2, _ = run_cli(["bijection", "--n", "2", "--shapes",
                                  "1x2,1x1", "--rc", rc_json], capsys)
        assert code2 == EXIT_OK
        assert json.loads(out2)["result"]["path"] == "12(x)1"

    def test_paths_feed_bijection_at_rank_12(self, capsys):
        # two-digit letters are comma separated, so each printed path is
        # read back as itself, and the old digit form no longer parses
        code, out, err = run_cli(["paths", "--shapes", "1x2,1x1", "--n", "12",
                                  "--weight", "0,0,0,0,0,0,0,0,0,0,2,1"], capsys)
        printed = [o["path"] for o in json.loads(out)["result"]["objects"]]
        if code != EXIT_OK or printed != ["11,11(x)12", "11,12(x)11"]:
            pytest.fail(f"paths: exit {code}, {printed}, {err!r}")
        for literal in printed:
            code, out, err = run_cli(["bijection", "--n", "12", "--path",
                                      literal], capsys)
            if code != EXIT_OK or json.loads(out)["result"]["path"] != literal:
                pytest.fail(f"bijection --path {literal}: exit {code}, {err!r}")
        code, out, err = run_cli(["bijection", "--n", "12", "--path",
                                  "1111(x)12"], capsys)
        if (code, out, err) != (EXIT_USAGE, "", "error: malformed path: "
                                "letter 1111 out of range 1..12\n"):
            pytest.fail(f"digit form: exit {code}, {err!r}")

    # deeper than the default recursion limit: the configuration walk has
    # 999 levels at rank 1000, and the path enumeration 1,200 factors
    @pytest.mark.parametrize("argv, want", [
        (["kostka", "--shapes", "1x1", "--n", "1000", "--weight", "1"],
         lambda r: (r["fermionic"]["text"], r["path"]["text"], r["equal"])
         == ("1", "1", True)),
        (["rc-list", "--shapes", "1x1", "--n", "1000", "--weight", "1"],
         lambda r: r["count"] == 1),
        (["paths", "--shapes", ",".join(["1x1"] * 1200), "--n", "2",
          "--weight", "1200,0"],
         lambda r: r["count"] == 1 and r["objects"][0]["energy"] == 0),
    ], ids=["kostka-rank-1000", "rc-list-rank-1000", "paths-1200-factors"])
    def test_deep_instance_needs_no_recursion(self, argv, want, capsys):
        code, out, err = run_cli(argv, capsys)
        if code != EXIT_OK or not want(json.loads(out)["result"]):
            pytest.fail(f"exit {code}: {out[-300:]}{err[-300:]}")

    def test_bijection_check(self, capsys):
        code, out, _ = run_cli(["bijection", "--n", "3", "--shapes",
                                "1x2,1x1", "--weight", "1,1,1", "--check"],
                               capsys)
        assert code == EXIT_OK
        result = json.loads(out)["result"]
        assert result["roundtrip"] == "ok" and result["statistic"] == "ok"

    def test_bijection_check_refuses_shifted_energy(self, capsys, monkeypatch):
        # cocharge = energy - 1 on every path is a constant relation, but
        # not the frozen normalization
        energy = cli_module.intrinsic_energy
        monkeypatch.setattr(cli_module, "intrinsic_energy",
                            lambda p: energy(p) + 1)
        code, out, _ = run_cli(["bijection", "--n", "3", "--shapes",
                                "1x2,1x1", "--weight", "1,1,1", "--check"],
                               capsys)
        result = json.loads(out)["result"]
        if code != EXIT_UNEQUAL or result["statistic"] != "cocharge != energy":
            pytest.fail(f"exit {code}: {result}")
        assert result["roundtrip"] == "ok" and "path" in result

    def test_bijection_path_writes_cocharge_minus_energy(self, capsys,
                                                         monkeypatch):
        # the golden case has shift 0, which cannot tell c - e from e - c
        original = cli_module.cocharge
        monkeypatch.setattr(cli_module, "cocharge", lambda rc: original(rc) + 1)
        code, out, _ = run_cli(["bijection", "--n", "2", "--path", "12(x)1"],
                               capsys)
        statistic = json.loads(out)["result"]["statistic"]
        if code != EXIT_OK or statistic["relation"] != {"sign": 1, "shift": 1}:
            pytest.fail(f"exit {code}: {statistic}")

    def test_paths_highest_weight_filter_matches_kostka_number(self, capsys):
        from oracles import kostka_number
        from qrigged.combinat import Composition, Partition
        code, out, _ = run_cli(["paths", "--shapes", "1x1,1x1,1x1", "--n", "3",
                                "--weight", "2,1,0", "--highest-weight-only"],
                               capsys)
        count = json.loads(out)["result"]["count"]
        assert count == kostka_number(Partition((2, 1)), Composition((1, 1, 1)))

    def test_timing_flag_is_opt_in(self, capsys):
        _, out, _ = run_cli(["qbinom", "2", "1"], capsys)
        assert "timing_ms" not in json.loads(out)
        _, out, _ = run_cli(["qbinom", "2", "1", "--timing"], capsys)
        assert "timing_ms" in json.loads(out)

    def test_kostka_both_evaluates_each_side_once(self, capsys, monkeypatch):
        import qrigged.cli as cli_module
        import qrigged.kostka as kostka_module
        calls = {"fermionic_kostka": 0, "path_kostka": 0}
        for name in calls:
            original = getattr(kostka_module, name)

            def counted(inst, _original=original, _name=name):
                calls[_name] += 1
                return _original(inst)

            monkeypatch.setattr(kostka_module, name, counted)
            monkeypatch.setattr(cli_module, name, counted)
        code, _, _ = run_cli(["kostka", "--shapes", "1x1,1x1,1x1", "--n", "2",
                              "--weight", "2,1", "--side", "both"], capsys)
        assert code == EXIT_OK
        assert calls == {"fermionic_kostka": 1, "path_kostka": 1}

    @pytest.mark.parametrize("argv, paths", [
        (["bijection", "--n", "3", "--shapes", "1x2,1x1,1x1",
          "--weight", "2,1,1", "--check"], 7),
        (["bijection", "--n", "2", "--path", "12(x)1"], 1),
    ], ids=["check", "path"])
    def test_bijection_maps_each_path_once(self, argv, paths, capsys,
                                           monkeypatch):
        import qrigged.bijection as bijection_module
        import qrigged.cli as cli_module
        calls = []

        def counted(p, _original=bijection_module.path_to_rc):
            calls.append(p)
            return _original(p)

        monkeypatch.setattr(bijection_module, "path_to_rc", counted)
        monkeypatch.setattr(cli_module, "path_to_rc", counted)
        code, _, _ = run_cli(argv, capsys)
        if code != EXIT_OK or len(calls) != paths:
            pytest.fail(f"exit {code}, {len(calls)} path_to_rc calls for "
                        f"{paths} paths")


CHECK_ARGV = ["bijection", "--n", "3", "--shapes", "1x2,1x1",
              "--weight", "1,1,1", "--check"]


class TestCheckPayloads:
    """Every payload of `bijection --check` and `kostka --side both`, and the
    exit-3 payloads of `character`, `compare` and `bailey`, match their
    result schemas; exit-3 payloads that no shipped input gives are forced
    by patching what the subcommand reads.  Written without assert so that
    it also checks under python -O."""

    @pytest.mark.parametrize("name, patched, code, want", [
        (None, None, EXIT_OK,
         {"roundtrip": "ok", "statistic": "ok", "paths": 3,
          "relation": {"sign": 1, "shift": 0}}),
        ("rc_to_path", lambda rc, L, widths: None, EXIT_UNEQUAL,
         {"roundtrip": "failed", "path": "12(x)3"}),
        ("cocharge", lambda rc: -1, EXIT_UNEQUAL,
         {"roundtrip": "ok", "statistic": "cocharge != energy",
          "path": "12(x)3"}),
        ("enumerate_rc", lambda L, weight: [], EXIT_UNEQUAL,
         {"roundtrip": "ok", "statistic": "cardinality mismatch 3 vs 0"}),
    ], ids=["ok", "roundtrip", "statistic", "cardinality"])
    def test_bijection_check(self, name, patched, code, want, capsys,
                             monkeypatch):
        if name is not None:
            monkeypatch.setattr(f"qrigged.cli.{name}", patched)
        got, result = self.run_valid(CHECK_ARGV, "bijection.schema.json",
                                     capsys)
        if (got, result) != (code, want):
            pytest.fail(f"exit {got}: {result}")

    def test_kostka_counterexample(self, capsys, monkeypatch):
        # a path side shifted by one: fermionic 1 + q against q + q^2
        path_kostka = cli_module.path_kostka
        monkeypatch.setattr(cli_module, "path_kostka",
                            lambda inst: path_kostka(inst).shift(1))
        argv, schema = CASES["kostka"]
        code, result = self.run_valid(argv, schema, capsys)
        want = {"first_difference_exponent": 0, "fermionic_coefficient": 1,
                "path_coefficient": 0}
        if (code, result["equal"], result.get("counterexample")) != (
                EXIT_UNEQUAL, False, want):
            pytest.fail(f"exit {code}: {result}")

    @pytest.mark.parametrize("argv, schema, want", [
        (["character", "--preset", "control-rr-mismatch"], "character.schema.json",
         {"equal": False, "checked_order": "20", "first_difference":
          {"exponent": "1", "left": 0, "right": 1}, "negative_control": True}),
        (["compare", "--preset-a", "rogers-ramanujan-1",
          "--preset-b", "rogers-ramanujan-2"], "compare.schema.json",
         {"equal": False, "checked_order": "50", "first_difference":
          {"exponent": "1", "left": 1, "right": 0}}),
    ], ids=["character", "compare"])
    def test_unequal_series(self, argv, schema, want, capsys):
        code, result = self.run_valid(argv, schema, capsys)
        if (code, {k: result.get(k) for k in want}) != (EXIT_UNEQUAL, want):
            pytest.fail(f"exit {code}: {result}")

    def test_bailey_verify_failing_pair(self, capsys, monkeypatch):
        # the unit pair with q^2 added to beta_2: the relation fails at n = 2
        unit = unit_bailey_pair()

        def bad_seed(order, nmax):
            alphas, betas = unit.seed(order, nmax)
            betas[2] = betas[2] + TruncatedSeries((0, 0, 1) + (0,) * (order - 2))
            return alphas, betas

        monkeypatch.setitem(cli_module._BAILEY_PAIRS, "unit",
                            lambda: BaileyPair(Fraction(0), bad_seed, "bad"))
        code, result = self.run_valid(["bailey", "--mode", "verify", "--order",
                                       "10", "--max-n", "5"],
                                      "bailey.schema.json", capsys)
        want = {"pair": "bad", "valid": False, "order": 10, "checked_n": 2,
                "failing_n": 2, "failing_exponent": "2"}
        if (code, result) != (EXIT_UNEQUAL, want):
            pytest.fail(f"exit {code}: {result}")

    def test_bailey_weak_limit_unequal(self, capsys, monkeypatch):
        # the right side shifted by q: 1/(q)_inf = 1 + q + ... against q + ...
        weak_lemma = cli_module.weak_lemma

        def shifted(pair, order):
            lhs, rhs = weak_lemma(pair, order)
            return lhs, rhs.shift(1)

        monkeypatch.setattr(cli_module, "weak_lemma", shifted)
        code, result = self.run_valid(["bailey", "--mode", "weak-limit",
                                       "--order", "5"], "bailey.schema.json",
                                      capsys)
        want = {"equal": False, "checked_order": "5", "first_difference":
                {"exponent": "0", "left": 1, "right": 0}}
        if (code, {k: result.get(k) for k in want}) != (EXIT_UNEQUAL, want):
            pytest.fail(f"exit {code}: {result}")

    def test_schema_refuses_other_statistic_types(self):
        schema = load_schema("bijection.schema.json")
        for statistic in (3, True, None, ["ok"]):
            with pytest.raises(AssertionError, match="statistic"):
                validate({"statistic": statistic}, schema)

    @staticmethod
    def run_valid(argv, schema, capsys):
        """Exit code and result of one call, its output checked against
        the envelope and result schemas."""
        code, out, err = run_cli(argv, capsys)
        if not out:
            pytest.fail(f"exit {code}, no output: {err}")
        envelope = json.loads(out)
        validate(envelope, load_schema("envelope.schema.json"))
        validate(envelope["result"], load_schema(schema))
        return code, envelope["result"]


# -- fuzz: every q-series invocation ends in a documented exit code ----------
# Orders, lengths and step counts stay small so that each call is cheap; the
# values past the CLI limits are drawn far past them, where they are refused.

def _not_int(text: str) -> bool:
    try:
        int(text)
    except ValueError:
        return True
    return False


GARBAGE = (st.sampled_from(["", "x", "1/0", "0/0", "nan", "inf", "-inf", "1.5",
                            "1e3", "--", "0x10", "1//2", "\u00bd", "2/-3"])
           | st.text(max_size=4).filter(_not_int))
RATIONAL = (st.integers(-3, 5).map(str)
            | st.fractions(min_value=-4, max_value=4, max_denominator=6).map(str)
            | st.builds("{}/{}".format, st.integers(-5, 5),
                        st.integers(10 ** 5, 10 ** 12))
            | GARBAGE)
ORDER = (st.integers(-3, 12) | st.integers(MAX_GRID + 1, 10 ** 12)).map(str) \
    | GARBAGE
MAX_N = (st.integers(-2, 6) | st.integers(10 ** 3, 10 ** 9)).map(str) | GARBAGE
STEPS = (st.integers(-1, 6) | st.integers(BAILEY_MAX_STEPS + 1, 10 ** 9)) \
    .map(str) | GARBAGE
LENGTH = (st.integers(-3, 8) | st.integers(10 ** 6, 10 ** 30)).map(str) \
    | st.sampled_from(["inf", "infinity"]) | GARBAGE
INTEGER = (st.integers(-3, 40) | st.integers(10 ** 4, 10 ** 12)).map(str) | GARBAGE
PRESET = st.sampled_from(PresetRegistry().names()) | st.just("no-such") | GARBAGE
SIDE = st.sampled_from(["fermionic", "bosonic"]) | GARBAGE


@st.composite
def qseries_argv(draw):
    command = draw(st.sampled_from(
        ["pochhammer", "qbinom", "character", "compare", "bailey"]))
    if command == "qbinom":
        return ["qbinom", draw(INTEGER), draw(INTEGER)]
    argv = [command]

    def flag(name, values, optional=True):
        value = draw(st.none() | values) if optional else draw(values)
        if value is not None:
            argv.append(f"--{name}={value}")

    if command == "pochhammer":
        flag("sign", st.sampled_from(["1", "-1", "0", "2"]) | GARBAGE)
        for name in ("exponent", "step"):
            flag(name, RATIONAL)
        flag("length", LENGTH)
        flag("order", ORDER, optional=False)
    elif command == "character":
        flag("preset", PRESET, optional=False)
        flag("order", ORDER)
    elif command == "compare":
        for side in ("a", "b"):
            flag(f"preset-{side}", PRESET, optional=False)
            flag(f"side-{side}", SIDE)
        flag("order", ORDER)
    else:
        flag("mode", st.sampled_from(["verify", "weak-limit"]) | GARBAGE)
        flag("pair", st.sampled_from(["unit", "rogers-ramanujan-seed"]) | GARBAGE)
        flag("steps", STEPS)
        for name in ("rho", "sigma"):
            flag(name, RATIONAL | st.just("inf"))
        flag("order", ORDER, optional=False)
        flag("max-n", MAX_N, optional=False)
    return argv


MALFORMED_SHAPES = st.sampled_from(
    ["", ",", "x", "1x", "x1", "0x1", "1x0", "-1x2", "1x-1", "1xx1", "1x1x1",
     "ax1", "1x1,", ",1x1", "1.5", "1x\u00bd", "--"])
MALFORMED_WEIGHT = st.sampled_from(
    ["", ",", "1,,2", "a", "-1,1", "1.5", "1;1", "--", "\u00bd", "1,-0"]) \
    | st.text(max_size=4) \
    | st.lists(st.integers(-1, 5), max_size=5).map(lambda w: ",".join(map(str, w)))


@st.composite
def kostka_family_argv(draw):
    """`kostka`, `rc-list` or `paths` on at most 4 boxes, mostly rows, and a
    rank of at most 4; in half the calls the shapes, the rank or the weight
    is malformed instead."""
    command = draw(st.sampled_from(["kostka", "rc-list", "paths"]))
    shapes, boxes = [], 0
    for r, c in draw(st.lists(st.tuples(st.sampled_from([1, 1, 1, 2]),
                                        st.integers(1, 4)),
                              min_size=1, max_size=4)):
        if boxes + r * c <= 4:
            bare = r == 1 and draw(st.booleans())  # "3" means "1x3"
            shapes.append(str(c) if bare else f"{r}x{c}")
            boxes += r * c
    n = draw(st.integers(2, 4))
    weight = [0] * draw(st.integers(1, n))
    for _ in range(boxes):
        weight[draw(st.integers(0, len(weight) - 1))] += 1
    flags = {"shapes": ",".join(shapes), "n": str(n),
             "weight": ",".join(map(str, weight))}
    bad = draw(st.sampled_from([None, None, None, "shapes", "n", "weight"]))
    if bad is not None:
        flags[bad] = draw({"shapes": MALFORMED_SHAPES, "weight": MALFORMED_WEIGHT,
                           "n": st.integers(-1, 1).map(str) | GARBAGE}[bad])
    argv = [command] + [f"--{name}={value}" for name, value in flags.items()]
    if command == "kostka":
        argv.append("--side=" + draw(st.sampled_from(["fermionic", "path",
                                                      "both"])))
    elif command == "paths" and draw(st.booleans()):
        argv.append("--highest-weight-only")
    return argv


# Valid `bijection --rc` inputs of every instance with at most 3 boxes, as
# (widths, n, rc JSON levels); the fuzz mutates them.
VALID_RC = [(widths, n, rc_to_json(path_to_rc(p),
                                   MultiplicityArray.from_rows(widths, n)))
            for widths, n in instance_grid(3)
            for w in weight_compositions(sum(widths), n)
            for p in enumerate_paths(widths, n, Composition(w))]
ODD_VALUE = st.sampled_from([1.5, -0.0, True, False, 10 ** 40, -10 ** 40,
                             float("inf"), float("nan"), "1", None, [1]])


@st.composite
def bijection_rc_argv(draw):
    """`bijection --rc` on a valid object after up to three changes of a
    rigging by +-k, a part by +-1 or a dropped row, and perhaps one float,
    bool, huge or otherwise non-integer value put in."""
    widths, n, levels = draw(st.sampled_from(VALID_RC))
    levels = json.loads(json.dumps(levels))
    for _ in range(draw(st.integers(0, 3))):
        level = draw(st.sampled_from(levels))
        if not level["partition"]:
            continue
        k = draw(st.integers(0, len(level["partition"]) - 1))
        kind = draw(st.sampled_from(["rigging", "part", "drop"]))
        if kind == "rigging":
            level["riggings"][k] += draw(st.integers(-3, 3))
        elif kind == "part":
            level["partition"][k] += draw(st.sampled_from([-1, 1]))
        else:
            del level["partition"][k]
            del level["riggings"][k]
    if draw(st.booleans()):
        level = draw(st.sampled_from(levels))
        key = draw(st.sampled_from(["partition", "riggings"]))
        if level[key] and draw(st.booleans()):
            level[key][draw(st.integers(0, len(level[key]) - 1))] = \
                draw(ODD_VALUE)
        else:
            level[key] = draw(ODD_VALUE)
    shapes = ",".join(f"1x{s}" for s in widths)
    return ["bijection", "--n", str(n), "--shapes", shapes,
            "--rc", json.dumps(levels)], widths, n


# A shipped preset file with one to three numeric fields replaced: the
# theta's quadratic, linear and constant part, the fermionic diagonal,
# linear and constant part, a factor's exponent, step or length, or the
# offset, each by 0, a small or huge integer or a rational of denominator
# at most 13.
PRESET_VALUE = st.sampled_from(["0", "-1", "1000000000", "-1000000000",
                                "1000000000/7", "-1000000000/13"]) \
    | st.fractions(min_value=-12, max_value=12, max_denominator=13).map(str)


@st.composite
def mutated_preset(draw):
    """(name, JSON text) of a shipped preset with 1-3 fields mutated."""
    name = draw(st.sampled_from(PresetRegistry().names()))
    data = json.loads((Path(presets_module.__file__).parent / "presets"
                       / f"{name}.json").read_text())
    fermionic, theta = data["fermionic"], data["bosonic"].get("theta")
    factors = fermionic.get("factors", []) + data["bosonic"].get("prefactors", [])
    fields = [(data, "offset"), (fermionic, "constant")]
    fields += [(fermionic["quadratic"][i], i) for i in range(fermionic["dim"])]
    fields += [(fermionic["linear"], i) for i in range(fermionic["dim"])]
    fields += [(theta, key) for key in ("quadratic", "linear", "constant")
               if theta is not None]
    fields += [(f, key) for f in factors for key in ("exponent", "step", "length")]
    for _ in range(draw(st.integers(1, 3))):
        node, key = draw(st.sampled_from(fields))
        value = draw(PRESET_VALUE)
        if key == "length":  # one entry of the affine length; an infinite
            node[key] = node[key] or ["0"]  # one becomes a constant length
            node[key][draw(st.integers(0, len(node[key]) - 1))] = value
        else:
            node[key] = value
    return name, json.dumps(data)


# Each call just past one cap, with the function it guards, patched to raise
# so that the refusal provably comes before any series is filled.
PAST_CAPS = [
    (["qbinom", "20002", "1"], "q_binomial",
     "degree k(m-k) = 20001 is above the limit 20000"),
    (["qbinom", "6670", "3"], "q_binomial",
     "degree k(m-k) = 20001 is above the limit 20000"),
    (["pochhammer", "--order", "20001"], "pochhammer",
     "series grid order*d = 20001 is above the limit 20000"),
    (["pochhammer", "--step", "1/2", "--order", "10001"], "pochhammer",
     "series grid order*d = 20002 is above the limit 20000"),
    (["bailey", "--steps", "101"], "bailey_step", "101 steps is above the limit 100"),
    (["character", "--preset", "rogers-ramanujan-1", "--order", "20001"],
     "evaluate_side", "order = 20001 is above the limit 20000"),
]


def run_documented(argv):
    """Run main, returning (exit code, stdout) and asserting that it ends
    in a documented exit code without a traceback."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # rejected by the argument parser
            code = exc.code
    if code not in (0, 2, 3, 4, 5) or "Traceback" in err.getvalue():
        pytest.fail(f"{argv}: exit {code}: {err.getvalue()}")
    return code, out.getvalue()


class TestFuzz:
    @settings(max_examples=300, deadline=None)
    @given(qseries_argv())
    def test_exit_code_is_documented(self, argv):
        run_documented(argv)

    @settings(max_examples=300, deadline=None)
    @given(kostka_family_argv())
    def test_kostka_family_exit_code_is_documented(self, argv):
        # rows of at most 4 boxes are verified: both sides never differ
        if run_documented(argv)[0] == EXIT_UNEQUAL:
            pytest.fail(f"{argv}: the two sides differ")

    @settings(max_examples=100, deadline=None)
    @given(mutated_preset(), st.integers(0, 40))
    def test_mutated_preset_files(self, preset, order):
        name, text = preset
        with tempfile.TemporaryDirectory() as directory:
            (Path(directory) / f"{name}.json").write_text(text)
            flags = ["--preset-dir", directory, "--order", str(order)]
            run_documented(["character", "--preset", name] + flags)
            run_documented(["compare", "--preset-a", name, "--side-a", "bosonic",
                            "--preset-b", name, "--side-b", "bosonic"] + flags)

    @pytest.mark.parametrize("argv, guarded, line", PAST_CAPS,
                             ids=[" ".join(argv) for argv, _, _ in PAST_CAPS])
    def test_calls_just_past_each_cap(self, argv, guarded, line, monkeypatch,
                                      capsys):
        def refuse(*args, **kwargs):
            raise AssertionError(f"{guarded} was called before the refusal")

        monkeypatch.setattr(cli_module, guarded, refuse)
        code, out, err = run_cli(argv, capsys)
        if (code, out, err) != (EXIT_USAGE, "", f"error: {line}\n"):
            pytest.fail(f"{argv}: exit {code}, stderr {err!r}")

    @settings(max_examples=300, deadline=None)
    @given(bijection_rc_argv())
    def test_bijection_rc_input(self, case):
        argv, widths, n = case
        code, out = run_documented(argv)
        if code == EXIT_OK:
            result = json.loads(out)["result"]
            back = path_to_rc(CrystalPath.parse(result["path"], n))
            L = MultiplicityArray.from_rows(widths, n)
            assert rc_to_json(back, L) == result["rc"]
