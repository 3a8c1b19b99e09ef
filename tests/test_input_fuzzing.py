"""Malformed config and trace input ends in ConfigError/TraceError, never in
another exception.

`config_from_dict` gets mappings built from the real section and key names,
unknown keys and values of every YAML type.  `parse_trace` gets lines built
from the real ops and keys, junk tokens and junk values.  Traces of
well-formed lines with odd values are replayed by a `TraceDriver` in TC, SD
and MO, one event at a time, and each event may end only in a `HeapError`
(a `TraceError`, or a heap that is too small).  Named cases below are the
crashes these found.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from dualheap import ConfigError, HeapError, RuntimeConfig, TraceError
from dualheap.config import config_from_dict, load_config
from dualheap.workload import TraceDriver, parse_trace

from conftest import make_config

_SECTIONS = {
    "h1": ["young_size", "old_size", "tenuring_threshold", "card_segment"],
    "h2": ["size", "region_size", "card_segment", "stripe_size", "scan_threads", "backing"],
    "migration": ["strategy", "batch_buffer"],
    "sd": ["cache_fraction"],
}
_TOP_KEYS = ["mode", "seed", "trace", "metrics_out", "mo_old_size"]

_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(1 << 70), 1 << 70),
    st.sampled_from([0, 1, 8, 80, 512, 4096, 8192, 80 * 1024, 1 << 20]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(["TC", "SD", "MO", "direct_copy", "batched_async", "anonymous"]),
    st.sampled_from(["4K", "8 KiB", "1M", "2MiB", "1G", "0", "-8", "12Q", " 16 kb ", "1.5M"]),
    st.text(max_size=12),
    st.text("0123456789", min_size=4300, max_size=4400),  # beyond int()'s digit limit
)
_values = st.one_of(
    _scalars,
    st.lists(_scalars, max_size=3),
    st.dictionaries(st.text(max_size=4), _scalars, max_size=2),
)


def _mostly(known, other, odds=10):
    """Draws from `other` once in `odds` times, else from `known`."""
    return st.integers(1, odds).flatmap(lambda n: other if n == 1 else known)


@st.composite
def _section(draw, keys):
    names = draw(st.lists(_mostly(st.sampled_from(keys), st.text(max_size=6)), max_size=4))
    return {name: draw(_values) for name in names}


@st.composite
def _raw_config(draw):
    raw = {}
    for section, keys in _SECTIONS.items():
        if draw(st.booleans()):
            raw[section] = draw(_mostly(_section(keys), _values))
    top = draw(st.lists(_mostly(st.sampled_from(_TOP_KEYS), st.text(max_size=6)), max_size=3))
    for key in top:
        raw[key] = draw(_values)
    return draw(_mostly(st.just(raw), _values))


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(raw=_raw_config())
def test_config_from_dict_ends_in_config_error_or_a_config(raw):
    try:
        cfg = config_from_dict(raw)
    except ConfigError:
        return
    assert isinstance(cfg, RuntimeConfig)
    assert cfg.validate() is cfg


@pytest.mark.parametrize("raw", [{"h2": {"size": "9" * 5000}}, {"mo_old_size": "1" * 4301 + "K"}])
def test_size_with_too_many_digits_is_a_config_error(raw):
    # int() refuses strings of more than 4,300 digits with a ValueError.
    with pytest.raises(ConfigError, match="too many digits"):
        config_from_dict(raw)


def test_yaml_int_with_too_many_digits_is_a_config_error(tmp_path):
    # The YAML loader itself calls int() on a plain scalar of digits.
    path = tmp_path / "cfg.yaml"
    path.write_text("seed: " + "9" * 5000 + "\n")
    with pytest.raises(ConfigError, match="not valid YAML"):
        load_config(path)


# -- traces ---------------------------------------------------------------------

_OPS = {
    "define_class": ["id", "scalars"],
    "build_partition": ["part", "family", "count", "fanout", "tfrac", "seed"],
    "persist": ["part"],
    "access": ["part", "kind", "seed"],
    "mutate": ["part", "count", "seed"],
    "unpersist": ["part"],
    "gc_hint": ["kind"],
}
# Mostly valid values, so that many traces parse and reach the driver.
_KEY_VALUES = {
    "id": st.sampled_from([1, 1, 2, 0]),
    "scalars": st.sampled_from([2, 1, 3, 0, -1]),
    "part": st.sampled_from([0, 1, -1, 1 << 63]),
    "family": st.sampled_from([1, 1, 1, 2, 0]),
    "count": st.sampled_from([30, 5, 1, 0, -1, -30]),
    "fanout": st.sampled_from([2, 1, 0, 4, -1]),
    "tfrac": st.sampled_from(["0", "0.25", "1", "nan", "inf", "-1", "1e400"]),
    "seed": st.integers(-5, 1 << 64),
    "kind": st.sampled_from(["scan", "point", "minor", "major", "full", ""]),
}
_junk = st.text(st.characters(blacklist_categories=("Cs",)), max_size=8)


@st.composite
def _trace_line(draw, junk=10):
    """One trace line of a real op and keys; with `junk`, about one line in
    `junk` has a junk op, one in `junk` a key given twice, and a key in
    4 * `junk` a junk value or token."""
    ops = st.sampled_from(list(_OPS) + ["build_partition", "persist"])  # the state-making ops twice
    op = draw(_mostly(ops, _junk, junk) if junk else ops)
    tokens = [op]
    for key in _OPS.get(op, []):
        values = _KEY_VALUES[key].map(str)
        value = draw(_mostly(values, _junk, 4 * junk) if junk else values)
        tokens.append(f"{key}={value}")
        if junk and draw(st.integers(1, 4 * junk)) == 1:
            tokens[-1] = draw(st.sampled_from(["", value, f"{key}="]))  # "" drops the key
    if junk and len(tokens) > 1 and draw(st.integers(1, junk)) == 1:
        key = tokens[draw(st.integers(1, len(tokens) - 1))].partition("=")[0]
        tokens.append(f"{key}={draw(_KEY_VALUES.get(key, _junk))}")
    if junk and draw(st.integers(1, junk)) == 1:
        tokens.insert(draw(st.integers(1, len(tokens))), draw(_junk))
    return " ".join(tokens) + draw(st.sampled_from(["", "  # note", "\t"]))


@settings(max_examples=300, deadline=None)
@given(lines=st.lists(_trace_line(), max_size=12))
def test_parse_trace_ends_in_trace_error_or_events(lines):
    try:
        events = parse_trace("\n".join(lines))
    except TraceError:
        return
    assert all(evt.op in _OPS for evt in events)
    for line in lines:  # a parsed line names each key once
        keys = [token.partition("=")[0] for token in line.partition("#")[0].split()[1:]]
        assert len(keys) == len(set(keys))


_VALID_PREFIX = [
    "define_class id=1 scalars=2",
    "build_partition part=0 family=1 count=30 fanout=2 tfrac=0.5 seed=3",
    "persist part=0",
]


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(prefix=st.booleans(), lines=st.lists(_trace_line(junk=0), max_size=12))
def test_driver_ends_each_event_in_heap_error_or_a_report(prefix, lines):
    events = parse_trace("\n".join((_VALID_PREFIX if prefix else []) + lines))
    for mode in ("TC", "SD", "MO"):
        with TraceDriver(make_config(), mode) as driver:
            # One event at a time, so that an event the driver rejects does
            # not keep the later ones from running.
            for evt in events:
                try:
                    report = driver.run([evt])
                except TraceError:
                    continue
                except HeapError:
                    break
                assert report.mode == mode


@pytest.mark.parametrize("mode", ["TC", "SD", "MO"])
@pytest.mark.parametrize("pid", [-1, 1 << 63])
def test_partition_id_outside_the_cache_word_is_a_trace_error(mode, pid):
    # TC stores the id in 63 bits of the header's cache word; before, a
    # persist of such a partition failed in the word store with ValueError.
    text = "\n".join(
        [
            "define_class id=1 scalars=2",
            f"build_partition part={pid} family=1 count=5 fanout=2 tfrac=0.5 seed=1",
            f"persist part={pid}",
            "gc_hint kind=major",
        ]
    )
    with TraceDriver(make_config(), mode) as driver:
        with pytest.raises(TraceError, match="outside"):
            driver.run(parse_trace(text))
