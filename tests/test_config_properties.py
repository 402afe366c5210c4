"""Property tests: random single mutations of the reference configuration,
at any depth, are rejected with one ConfigError naming the mutated key."""

import copy
import tempfile
from pathlib import Path

import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dfgnoise import cli
from dfgnoise.config import DEFAULT_CONFIG_YAML, parse_config
from dfgnoise.errors import ConfigError

TEMPLATE = yaml.safe_load(DEFAULT_CONFIG_YAML)
OPTIONAL_KEYS = {"center_nm", "peak_transmission", "lambda_vis_nm"}


def _dotted(path) -> str:
    text = ""
    for key in path:
        text += f"[{key}]" if isinstance(key, int) else f".{key}" if text else key
    return text


def _sites(value, path=()):
    """(path, value) for every node below the root.  A [label, factor]
    transmission pair is one leaf: the schema checks it as a whole."""
    if path:
        yield path, value
    if path[-2:-1] == ("transmissions",):
        return
    if isinstance(value, (dict, list)):
        for key, item in value.items() if isinstance(value, dict) else enumerate(value):
            yield from _sites(item, path + (key,))


SITES = list(_sites(TEMPLATE))


def _kind(value) -> str:
    if isinstance(value, bool) or value is None:
        return repr(value)
    return {int: "number", float: "number", str: "str", list: "list", dict: "dict"}[type(value)]


WRONG_TYPED = {
    "number": st.one_of(st.integers(), st.floats(allow_nan=False, allow_infinity=False)),
    "str": st.text(alphabet="abxyz01 ", max_size=5),
    "True": st.just(True),
    "None": st.none(),
    "list": st.lists(st.integers(), min_size=1, max_size=3),
    "dict": st.dictionaries(st.text(alphabet="abxyz", min_size=1, max_size=3), st.integers(),
                            min_size=1, max_size=2),
}


@st.composite
def mutations(draw):
    """(config, dotted path of the mutated key)."""
    raw = copy.deepcopy(TEMPLATE)
    path, value = draw(st.sampled_from(SITES))
    kinds = ["wrong_type"]
    # optional keys and the entries of a collection table may be left out
    in_table = path[0] == "collection" and len(path) == 3
    if isinstance(path[-1], str) and path[-1] not in OPTIONAL_KEYS and not in_table:
        kinds.append("delete")
    if _kind(value) == "number":
        kinds.append("non_finite")
    if isinstance(value, dict):
        kinds.append("unknown_key")
    if isinstance(value, list) and path[-1] != "transmissions":  # a chain may have none
        kinds.append("empty_list")
    kind = draw(st.sampled_from(kinds))
    parent = raw
    for key in path[:-1]:
        parent = parent[key]
    if kind == "delete":
        del parent[path[-1]]
    elif kind == "wrong_type":
        other = draw(st.sampled_from(sorted(set(WRONG_TYPED) - {_kind(value)})))
        parent[path[-1]] = draw(WRONG_TYPED[other])
    elif kind == "non_finite":
        parent[path[-1]] = draw(st.sampled_from([float("nan"), float("inf"), float("-inf")]))
    elif kind == "unknown_key":
        parent[path[-1]]["zz_extra"] = 0.5
        path = path + ("zz_extra",)
    else:
        parent[path[-1]] = []
    return raw, _dotted(path)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(mutations())
def test_mutated_config_is_rejected_by_path(mutation):
    raw, path = mutation
    try:
        parse_config(raw)
    except ConfigError as exc:
        assert path in str(exc)
    else:
        raise AssertionError(f"mutation at {path} was accepted")
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "run.yaml"
        config.write_text(yaml.safe_dump(raw))
        assert cli.main(["validate-config", "--config", str(config)]) == cli.EXIT_DATA
