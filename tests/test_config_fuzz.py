"""Property test of parse_config on mutated copies of the shipped configs.

Each example applies one to three mutations: a value set to 0, -1, NaN,
+-inf, 1e308 or 2.5; a key or list entry dropped; a mapping swapped for a
list or a scalar, a list for a mapping, or a scalar for a list.  Whatever
the input, parse_config returns a RunConfig or raises ConfigError, and a
returned RunConfig holds no NaN.
"""

import cmath
import dataclasses
import glob
import math
import os

import numpy as np
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from vortexlab.cli import ConfigError, RunConfig, parse_config

CONFIGS = sorted(glob.glob(os.path.join(os.path.dirname(__file__), os.pardir,
                                        "configs", "*.yaml")))
SHIPPED = [yaml.safe_load(open(path)) for path in CONFIGS]
NUMBERS = [0, -1, math.nan, math.inf, -math.inf, 1e308, 2.5]


def _paths(node, path=()):
    """The path of every value inside node."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield path + (key,)
        yield from _paths(child, path + (key,))


@st.composite
def mutated_configs(draw):
    data = yaml.safe_load(yaml.safe_dump(draw(st.sampled_from(SHIPPED))))
    for _ in range(draw(st.integers(1, 3))):
        *parent_path, key = draw(st.sampled_from(list(_paths(data))))
        parent = data
        for step in parent_path:
            parent = parent[step]
        value = parent[key]
        how = draw(st.sampled_from(["number", "drop", "swap"]))
        if how == "drop":
            del parent[key]
        elif how == "number":
            parent[key] = draw(st.sampled_from(NUMBERS))
        elif isinstance(value, dict):
            parent[key] = draw(st.sampled_from([list(value.values()), 1.0]))
        elif isinstance(value, list):
            parent[key] = {str(i): v for i, v in enumerate(value)}
        else:
            parent[key] = [value]
    return data


def _has_nan(value) -> bool:
    if dataclasses.is_dataclass(value):
        return any(_has_nan(getattr(value, f.name)) for f in dataclasses.fields(value))
    if isinstance(value, dict):
        return any(_has_nan(k) or _has_nan(v) for k, v in value.items())
    if isinstance(value, (list, tuple)):
        return any(_has_nan(v) for v in value)
    if isinstance(value, np.ndarray):
        return value.dtype.kind in "fc" and bool(np.isnan(value).any())
    if isinstance(value, (float, complex)):
        return cmath.isnan(value)
    return False


def test_shipped_configs_parse():
    assert all(isinstance(parse_config(path), RunConfig) for path in CONFIGS)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(data=mutated_configs())
def test_mutated_config_parses_or_is_a_config_error(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "mutated.yaml"
    path.write_text(yaml.safe_dump(data))
    try:
        cfg = parse_config(str(path))
    except ConfigError as exc:
        assert exc.problems
        return
    assert isinstance(cfg, RunConfig)
    assert not _has_nan(dataclasses.replace(cfg, raw={}))
