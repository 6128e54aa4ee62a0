"""Scenario loading: the node walk that builds a file's values builds
what `yaml.load` builds, and raises what it raises, with libyaml's
composer and with PyYAML's own."""

import pytest
import yaml
from hypothesis import given, settings, strategies as st

from xchainsim import (ScenarioError, ValidationError, bundled_scenarios,
                       load_scenario)
from xchainsim import scenario as scenario_module
from xchainsim.scenario import parse_scenario, read_yaml, \
    resolve_scenario_path

COMPOSERS = [yaml.CSafeLoader, yaml.SafeLoader]


def parsed(raw, name):
    """parse_scenario's result by repr, or its error message."""
    try:
        return repr(parse_scenario(raw, default_name=name))
    except ScenarioError as err:   # a ValidationError, or a bad order
        return "%s: %s" % (type(err).__name__, err)


def assert_loads_alike(text, loader=yaml.CSafeLoader, name="scenario"):
    """`read_yaml` with `loader` as the composer returns what yaml.load
    returns, repr for repr (so 1 and True, or 1 and 1.0, differ), and a
    scenario parsed from either is the same; or both raise the same
    YAMLError.  Returns the walk's value."""
    try:
        expected = yaml.load(text, Loader=loader)
    except yaml.YAMLError as err:
        with pytest.raises(yaml.YAMLError) as raised:
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(scenario_module, "_YAML_LOADER", loader)
                read_yaml(text)
        assert (type(raised.value), str(raised.value)) == (type(err),
                                                           str(err))
        return None
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scenario_module, "_YAML_LOADER", loader)
        value = read_yaml(text)
    assert repr(value) == repr(expected)
    assert parsed(value, name) == parsed(expected, name)
    return value


@pytest.mark.parametrize("name", bundled_scenarios())
def test_bundled_files_load_as_yaml_load_does(name):
    path = resolve_scenario_path(name)
    value = assert_loads_alike(path.read_text(), name=name)
    assert value == yaml.load(path.read_text(), Loader=yaml.CSafeLoader)
    assert repr(load_scenario(name)) == \
        parsed(yaml.load(path.read_text(), Loader=yaml.CSafeLoader), name)


def test_bundled_names_resolve_under_the_package():
    path = resolve_scenario_path("swap")
    assert path == scenario_module._BUNDLED / "swap.yaml"
    assert path.parent.name == "scenarios" and path.is_file()


LOAD_CASES = {
    "shared-alias": "a: &x {k: [1, 2]}\nb: *x\nc: [*x, *x]\n",
    "recursive-list": "&r [1, *r]\n",
    "recursive-map": "&m {self: *m, n: 1}\n",
    "merge-key": "base: &b {x: 1, y: 2}\nderived: {<<: *b, y: 3}\n",
    "merge-list": "{<<: [{a: 1}, {b: 2}], c: 3}\n",
    "value-key": "{=: 1}\n",
    "tag-str": "a: !!str 5\nb: !!str true\n",
    "tag-int": "a: !!int '7'\n",
    "tag-float": "a: !!float 1\nb: 1.5\nc: .inf\nd: 1e3\n",
    "tag-binary": "a: !!binary aGVsbG8=\n",
    "tag-set": "a: !!set {x, y}\n",
    "tag-omap": "a: !!omap [x: 1, y: 2]\n",
    "timestamp": "a: 2001-12-14t21:59:43.10-05:00\nb: 2002-12-14\n",
    "ints": "octal: 017\nhex: 0x1F\nsexagesimal: 190:20:30\n"
            "underscores: 1_000_000\nbinary: -0b101\nsigned: +12\n"
            "zero: 0\nnot-octal: 0o17\n",
    "bools": "[yes, No, on, OFF, true, False]\n",
    "nulls": "a: ~\nb: null\nc:\n? d\n",
    "empty-document": "",
    "comment-only": "# nothing here\n",
    "duplicate-keys": "a: 1\nb: 2\na: 3\n",
    "alias-into-a-tagged-node": "a: &x [1]\nb: !!omap [k: *x]\n",
    "nested-flow-and-block": "a:\n  - {b: [c, {d: e}]}\n  - - 1\n    - 2\n",
    "scenario": "name: s\nchains:\n  - id: a\n    contracts: "
                "[{local: t, init: {alice: 5}}]\n",
}
ERROR_CASES = {
    "unhashable-key": "? [1, 2]\n: x\n",
    "unhashable-set-key": "? !!set {a}\n: 1\n",
    "second-document": "a: 1\n---\nb: 2\n",
    "unknown-tag": "a: !nope x\n",
    "value-as-value": "a: =\n",
    "str-tag-on-a-mapping": "!!str {a: 1}\n",
    "map-tag-on-a-list": "!!map [1, 2]\n",
}


@pytest.mark.parametrize("loader", COMPOSERS, ids=lambda c: c.__name__)
@pytest.mark.parametrize("text", list(LOAD_CASES.values()),
                         ids=list(LOAD_CASES))
def test_walk_builds_what_yaml_load_builds(text, loader):
    assert_loads_alike(text, loader)


@pytest.mark.parametrize("loader", COMPOSERS, ids=lambda c: c.__name__)
@pytest.mark.parametrize("text", list(ERROR_CASES.values()),
                         ids=list(ERROR_CASES))
def test_walk_raises_what_yaml_load_raises(text, loader):
    with pytest.raises(yaml.YAMLError):
        yaml.load(text, Loader=loader)
    assert_loads_alike(text, loader)


@pytest.mark.parametrize("loader", COMPOSERS, ids=lambda c: c.__name__)
def test_aliases_share_one_object(loader):
    shared = assert_loads_alike(LOAD_CASES["shared-alias"], loader)
    assert shared["a"] is shared["b"] is shared["c"][0] is shared["c"][1]
    recursive = assert_loads_alike(LOAD_CASES["recursive-list"], loader)
    assert recursive[1] is recursive
    recursive = assert_loads_alike(LOAD_CASES["recursive-map"], loader)
    assert recursive["self"] is recursive
    tagged = assert_loads_alike(LOAD_CASES["alias-into-a-tagged-node"],
                                loader)
    assert tagged["b"][0][1] is tagged["a"]


def test_a_file_too_deep_to_walk_is_a_parse_error(tmp_path):
    path = tmp_path / "deep.yaml"
    path.write_text("chains: %s%s\n" % ("[" * 5000, "]" * 5000))
    with pytest.raises(ValidationError, match="deep.yaml: parse error: "):
        load_scenario(str(path))


VALUES = st.recursive(
    st.one_of(st.text(max_size=8), st.integers(), st.booleans(), st.none(),
              st.floats(allow_nan=False)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.text(max_size=6), inner, max_size=4)),
    max_leaves=20)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(value=VALUES, flow=st.booleans())
def test_dumped_values_load_alike(value, flow):
    text = yaml.safe_dump(value, default_flow_style=flow)
    loaded = assert_loads_alike(text)
    assert loaded == value == yaml.load(text, Loader=yaml.CSafeLoader)
