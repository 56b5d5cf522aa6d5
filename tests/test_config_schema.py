"""The in-package config check against config_schema.json, with jsonschema
as its oracle.

``cli.check_schema`` reads only the draft-07 keywords the shipped schema
uses. jsonschema is a test-only dependency: here it decides the same
mutated configs, and the schema is walked for any keyword the checker
would silently ignore.
"""

import copy
import json

import jsonschema
from hypothesis import given, settings, strategies as st

from semiper import cli
from semiper.errors import ConfigError

from conftest import CONFIG_DIR

SCHEMA = cli.load_schema()
ORACLE = jsonschema.Draft7Validator(SCHEMA)
CONFIGS = {path.name: json.loads(path.read_text())
           for path in sorted(CONFIG_DIR.glob("*.json"))}

# every keyword check_schema reads, and the two annotations it skips
CHECKED_KEYWORDS = {"type", "enum", "minimum", "exclusiveMinimum", "items",
                    "minItems", "maxItems", "properties", "required",
                    "additionalProperties", "$ref"}
ANNOTATIONS = {"$schema", "title"}


def _subschemas(node):
    """``node`` and every schema below it, through properties, items and
    definitions."""
    yield node
    children = [*node.get("properties", {}).values(),
                *node.get("definitions", {}).values()]
    if "items" in node:
        children.append(node["items"])
    for child in children:
        yield from _subschemas(child)


def test_schema_uses_only_checked_keywords():
    """A keyword the checker does not implement (pattern, maximum, a type
    list, a non-string enum value, additionalProperties as a schema, a $ref
    with siblings, which draft-07 ignores) fails here instead of being
    skipped on every run."""
    for node in _subschemas(SCHEMA):
        allowed = CHECKED_KEYWORDS | ANNOTATIONS | ({"definitions"} if node is SCHEMA
                                                   else set())
        assert set(node) <= allowed, sorted(set(node) - allowed)
        if "type" in node:
            assert node["type"] in cli._SCHEMA_TYPES
        if "enum" in node:
            # the checker compares with ==, JSON equality on strings only
            assert all(isinstance(value, str) for value in node["enum"])
        if "additionalProperties" in node:
            assert node["additionalProperties"] is False
        if "items" in node:
            assert isinstance(node["items"], dict)
        if "$ref" in node:
            assert set(node) == {"$ref"}
            prefix, _, name = node["$ref"].rpartition("/")
            assert prefix == "#/definitions" and name in SCHEMA["definitions"]


def _bounds(schema):
    return sorted({node[key] for node in _subschemas(schema)
                   for key in ("minimum", "exclusiveMinimum") if key in node})


# values a mutation sets: each other JSON type, enum-like strings, and
# integers, integral floats and fractions around every schema bound
# (a list, not a set, which would fold 2.0 into 2)
BOUNDARY_VALUES = [v for b in _bounds(SCHEMA)
                   for v in (b - 1, b, b + 1, float(b - 1), float(b), float(b + 1),
                             b - 0.5, b + 0.5)]
OTHER_VALUES = ["x", "ones", "constant", "linear", True, False, None, [], {},
                [1.0], [0, 1.5], [2, 3, 4], {"kind": "constant"}]
VALUES = st.sampled_from(BOUNDARY_VALUES + OTHER_VALUES)
# keys an added key is drawn from: every name the schema declares, so an
# added key can be legal in one section and unknown in another
KEYS = st.sampled_from(sorted({name for node in _subschemas(SCHEMA)
                               for name in node.get("properties", {})} | {"mystery"}))


def _paths(node, path=()):
    """Every path into ``node``, the root () included."""
    yield path
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, sub in items:
        yield from _paths(sub, path + (key,))


def _at(cfg, path):
    for step in path:
        cfg = cfg[step]
    return cfg


@st.composite
def mutated_configs(draw):
    """A shipped config after one to three mutations: a key or item
    dropped, a key or item added, or a value set, a number half the time to
    a value around a bound (an add that does not apply sets a value)."""
    cfg = copy.deepcopy(CONFIGS[draw(st.sampled_from(sorted(CONFIGS)))])
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(cfg))))
        node = _at(cfg, path)
        kind = draw(st.sampled_from(["drop", "add", "set"]))
        if kind == "add" and isinstance(node, dict):
            node[draw(KEYS)] = copy.deepcopy(draw(VALUES))
        elif kind == "add" and isinstance(node, list):
            node.append(copy.deepcopy(draw(VALUES)))
        elif kind == "drop" and path:
            del _at(cfg, path[:-1])[path[-1]]
        elif path:
            number = isinstance(node, (int, float)) and not isinstance(node, bool)
            values = st.one_of(st.sampled_from(BOUNDARY_VALUES), VALUES) if number else VALUES
            _at(cfg, path[:-1])[path[-1]] = copy.deepcopy(draw(values))
    return cfg


def _where(path):
    return "config" + "".join(f"[{step}]" if isinstance(step, int) else f".{step}"
                              for step in path)


@given(cfg=mutated_configs())
@settings(max_examples=400, deadline=None)
def test_check_schema_agrees_with_jsonschema(cfg):
    """The checker refuses exactly the configs Draft7Validator refuses,
    and its message is one of jsonschema's errors, at the same path."""
    expected = {f"{_where(e.absolute_path)}: {e.message}" for e in ORACLE.iter_errors(cfg)}
    try:
        cli.check_schema(cfg, SCHEMA)
    except ConfigError as e:
        assert str(e) in expected
    else:
        assert expected == set()


def _edge_values(node):
    """One value of each JSON type, and values at and around each bound,
    item count, enum and required key of ``node``."""
    values = ["x", True, None, 1, 1.5, [], {}, {"mystery": 1}]
    for key in ("minimum", "exclusiveMinimum"):
        if key in node:
            b = node[key]
            values += [b - 1, b, b + 1, float(b - 1), float(b), b - 0.5, b + 0.5]
    for key in ("minItems", "maxItems"):
        if key in node:
            values += [[1.0] * n for n in (node[key] - 1, node[key], node[key] + 1)
                       if n >= 0]
    values += node.get("enum", [])[:1]
    values.append(dict.fromkeys(node.get("required", ()), 1.0))
    return values


def test_every_keyword_edge_matches_jsonschema():
    """At every node of the schema, each edge value is refused exactly when
    Draft7Validator refuses it there, integral floats and bools included."""
    for node in _subschemas(SCHEMA):
        oracle = jsonschema.Draft7Validator({**node, "definitions": SCHEMA["definitions"]})
        for value in _edge_values(node):
            try:
                cli.check_schema(value, node, SCHEMA)
                refused = False
            except ConfigError:
                refused = True
            assert refused == (not oracle.is_valid(value)), (node, value)
