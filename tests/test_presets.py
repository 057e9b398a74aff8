import json

import pytest

from qrigged.qseries.presets import (ENV_PRESET_DIR, CharacterPreset,
                                     PresetFormatError, PresetRegistry,
                                     UnknownPresetError, character)


@pytest.fixture(scope="module")
def registry():
    return PresetRegistry()


class TestRegistry:
    def test_names_nonempty(self, registry):
        assert "rogers-ramanujan-1" in registry.names()

    def test_unknown_preset(self, registry):
        with pytest.raises(UnknownPresetError):
            registry.get("no-such-preset")

    def test_declared_order_required(self):
        with pytest.raises(PresetFormatError):
            CharacterPreset.from_dict({
                "name": "x", "version": 1,
                "fermionic": {"dim": 0}, "bosonic": {}})

    @pytest.mark.parametrize("key, value", [
        ("declared_order", True), ("declared_order", 30.0),
        ("version", 1.5), ("version", "1"), ("version", False)])
    def test_integer_fields_are_json_integers(self, key, value):
        data = {"name": "x", "version": 1, "declared_order": 30,
                "fermionic": {"dim": 0}, "bosonic": {}}
        CharacterPreset.from_dict(data)
        with pytest.raises(ValueError, match=key):
            CharacterPreset.from_dict({**data, key: value})

    def test_declared_orders_at_least_twenty(self, registry):
        for name in registry.names():
            assert registry.get(name).declared_order >= 20

    def test_notes_present(self, registry):
        for name in registry.names():
            assert registry.get(name).note.strip()

    def test_env_override(self, registry, tmp_path, monkeypatch):
        preset = registry.get("rogers-ramanujan-1")
        src = PresetRegistry().directory / "rogers-ramanujan-1.json"
        data = json.loads(src.read_text())
        data["name"] = "override-only"
        (tmp_path / "override-only.json").write_text(json.dumps(data))
        monkeypatch.setenv(ENV_PRESET_DIR, str(tmp_path))
        override = PresetRegistry()
        assert override.names() == ["override-only"]
        assert character(override.get("override-only"), 20).equal
        assert preset.declared_order == 50  # original untouched

    def test_version_summary(self, registry):
        summary = registry.version_summary()
        assert "rogers-ramanujan-1@1" in summary


class TestVerification:
    def test_all_shipped_presets_verify(self, registry):
        for name in registry.names():
            preset = registry.get(name)
            report = character(preset)
            if preset.negative_control:
                continue
            assert report.equal, f"{name} failed at {report.comparison.first_difference}"

    def test_negative_controls_fail_with_discrepancy(self, registry):
        controls = [registry.get(n) for n in registry.names()
                    if registry.get(n).negative_control]
        assert controls, "at least one negative-control preset must ship"
        for preset in controls:
            report = character(preset)
            assert not report.equal
            assert report.comparison.first_difference is not None
            assert report.comparison.left_coefficient != \
                report.comparison.right_coefficient

    def test_leading_coefficient_after_offset(self, registry):
        # at order 0 both sides reduce to coefficient 1 at the offset
        for name in registry.names():
            preset = registry.get(name)
            if preset.negative_control:
                continue
            report = character(preset, 0)
            assert report.fermionic.coefficient(report.fermionic.offset) == 1
            assert report.bosonic.coefficient(report.bosonic.offset) == 1

    def test_rational_offsets_recorded(self, registry):
        report = character(registry.get("virasoro-m25-vacuum"), 20)
        assert report.rescale_denominator == 60
        assert str(report.fermionic.offset) == "11/60"


def _check_pass(registry, order):
    """Every shipped preset at `order`: identities equal, controls unequal
    with a first difference; through pytest.fail, so also under python -O."""
    for name in registry.names():
        preset = registry.get(name)
        comparison = character(preset, order).comparison
        if preset.negative_control:
            if comparison.equal or comparison.first_difference is None:
                pytest.fail(f"control {name} at order {order}: {comparison}")
        elif not comparison.equal:
            pytest.fail(f"{name} at order {order} differs at "
                        f"q^{comparison.first_difference}")


class TestHigherOrder:
    def test_every_preset_at_order_300(self, registry):
        _check_pass(registry, 300)

    @pytest.mark.slow
    def test_every_preset_at_order_3000(self, registry):
        _check_pass(registry, 3000)
