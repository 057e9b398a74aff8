"""Tiny validator for the subset of JSON Schema used by the shipped schemas:
type (a name or a list of names), properties, required, items (schema or
positional list), $ref to a sibling schema file."""
from __future__ import annotations

import json
from pathlib import Path

SCHEMA_DIR = Path(__file__).parent.parent / "src" / "qrigged" / "schemas"

_TYPES = {
    "object": dict,
    "array": list,
    "string": str,
    "integer": int,
    "number": (int, float),
    "boolean": bool,
}


def load_schema(name: str) -> dict:
    with open(SCHEMA_DIR / name, "r", encoding="utf-8") as fh:
        return json.load(fh)


def validate(data, schema: dict, where: str = "$") -> None:
    if "$ref" in schema:
        validate(data, load_schema(schema["$ref"]), where)
        return
    expected = schema.get("type")
    if expected is not None:
        names = expected if isinstance(expected, list) else [expected]
        if not any(isinstance(data, _TYPES[name])
                   and not (name == "integer" and isinstance(data, bool))
                   for name in names):
            raise AssertionError(
                f"{where}: expected {expected}, got {type(data).__name__}")
    if "enum" in schema and data not in schema["enum"]:
        raise AssertionError(f"{where}: {data!r} not in {schema['enum']}")
    if isinstance(data, dict):
        for key in schema.get("required", ()):
            if key not in data:
                raise AssertionError(f"{where}: missing required key {key!r}")
        for key, sub in schema.get("properties", {}).items():
            if key in data:
                validate(data[key], sub, f"{where}.{key}")
    if isinstance(data, list) and "items" in schema:
        items = schema["items"]
        if isinstance(items, list):
            for i, (element, sub) in enumerate(zip(data, items)):
                validate(element, sub, f"{where}[{i}]")
        else:
            for i, element in enumerate(data):
                validate(element, items, f"{where}[{i}]")
