import json
from pathlib import Path

import pytest

from qrigged.cli import EXIT_OK, EXIT_UNEQUAL, EXIT_UNKNOWN_PRESET, \
    EXIT_UNSUPPORTED, EXIT_USAGE, OPERATION_MAP, build_parser, main
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
    code = main(argv)
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


class TestSurface:
    def test_every_operation_has_exactly_one_subcommand(self):
        parser = build_parser()
        subcommands = set()
        for action in parser._actions:
            if hasattr(action, "choices") and isinstance(action.choices, dict):
                subcommands |= set(action.choices)
        assert subcommands == {"kostka", "rc-list", "paths", "bijection",
                               "qbinom", "pochhammer", "character", "bailey",
                               "compare"}
        for op, cmd in OPERATION_MAP.items():
            assert cmd in subcommands, f"{op} mapped to unknown {cmd}"
        # spec module coverage: every module contributes operations
        modules = {op.split(".")[0] for op in OPERATION_MAP}
        assert modules == {"qalg", "combinat", "crystals", "rc", "bijection",
                           "kostka", "qseries"}

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

    def test_bijection_check(self, capsys):
        code, out, _ = run_cli(["bijection", "--n", "3", "--shapes",
                                "1x2,1x1", "--weight", "1,1,1", "--check"],
                               capsys)
        assert code == EXIT_OK
        result = json.loads(out)["result"]
        assert result["roundtrip"] == "ok" and result["statistic"] == "ok"

    def test_paths_highest_weight_filter_matches_kostka_number(self, capsys):
        from qrigged.combinat import Composition, Partition, kostka_number
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
