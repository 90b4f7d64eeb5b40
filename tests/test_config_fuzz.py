"""Random configs through the subcommands: each run ends in exit 0, 2 or 3,
and a run that exits 0 writes the same bytes when run again.

The strategy draws every top-level config key at small sizes (caps <= 6,
``n`` <= 60, ``max_mass`` <= 8, ``gw.population_cap`` <= 60), with numbers as
ints, floats and rational strings, malformed values mixed in, and runs each
config through one of ``analyze``, ``ode``, ``explicit``, ``simulate``,
``limit`` and ``gw``.  A valid config is a valid run, so the sizes are
bounded here, not by a timeout.
"""

import contextlib
import io
import json
import math
import tempfile
from fractions import Fraction
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings, strategies as st

from coaglab import cli

COMMANDS = ("analyze", "ode", "explicit", "simulate", "limit", "gw")

_JUNK = st.sampled_from(
    [None, True, False, "", "x", "3", "1/2/3", "1/0", "1e400", -1, 2.5, math.nan, [], {}, [1]]
)
_NUMBER = st.one_of(
    st.integers(0, 4),
    st.floats(0, 4, allow_nan=False, allow_infinity=False),
    st.sampled_from([0.5, 1e-300, 1e308, "1/3", "1/2", "2", "-1/2", "1/0", "1e400"]),
)


def _size(least, most):
    """An integer field in range, as an int or an integral float."""
    return st.one_of(st.integers(least, most), st.integers(least, most).map(float))


def _law(*valid):
    """An arm law: one of ``valid`` or a random small one."""
    return st.one_of(
        st.sampled_from(valid),
        st.dictionaries(
            st.sampled_from(["0", "1", "2", "3", "-1", "x"]), _NUMBER, min_size=1, max_size=3
        ),
    )


_UNIT_MEAN = (
    {"1": 1},
    {"0": "1/2", "2": "1/2"},
    {"0": 0.5, "2": 0.5},
    {"0": "1/4", "1": "1/2", "2": "1/4"},
)
_FAMILY = st.one_of(
    st.fixed_dictionaries({"family": st.just("one_female"), "mu1": _law(*_UNIT_MEAN)}),
    st.fixed_dictionaries(
        {
            "family": st.just("random_gender"),
            "mu1": _law({"2": 1}, {"1": "1/2", "3": "1/2"}, {"0": 0.25, "2": 0.25, "3": 0.5}),
        }
    ),
    st.fixed_dictionaries(
        {
            "family": st.just("two_gender"),
            "mu1": _law(*_UNIT_MEAN, {"2": "1e400", "1": 0.5}),
            "mu2": _law(*_UNIT_MEAN),
        }
    ),
)
_ROW = st.fixed_dictionaries(
    {"a": st.integers(0, 4), "b": st.integers(0, 4), "m": st.integers(1, 3), "conc": _NUMBER}
)
_PARTICLES = st.one_of(
    st.sampled_from(
        [
            [{"a": 1, "b": 1, "m": 1, "conc": 1}],
            [
                {"a": 1, "b": 0, "m": 1, "conc": "1/2"},
                {"a": 0, "b": 1, "m": 1, "conc": "1/2"},
                {"a": 1, "b": 1, "m": 1, "conc": "1/2"},
            ],
            [{"a": 3, "b": 0, "m": 1, "conc": 0.5}, {"a": 0, "b": 3, "m": 1, "conc": 0.5}],
            [{"a": 2, "b": 1, "m": 2, "conc": "1/3"}, {"a": 1, "b": 2, "m": 1, "conc": 0.25}],
        ]
    ),
    st.lists(_ROW, min_size=1, max_size=3),
)
_TIMES = st.lists(
    st.sampled_from([0, 0.25, 0.5, 1, 2, "1/3", "1/2", "3/2"]), min_size=1, max_size=3, unique=True
).map(lambda ts: sorted(ts, key=Fraction))

_VALID = st.fixed_dictionaries(
    {
        "initial": st.one_of(_FAMILY, _PARTICLES),
        "truncation": st.fixed_dictionaries({"mass_cap": _size(1, 6), "arm_cap": _size(0, 6)}),
        "solver": st.fixed_dictionaries(
            {"dt": st.sampled_from([0.05, 0.1, 0.25, "1/8"])},
            optional={"rhs": st.sampled_from(["full", "reduced"])},
        ),
        "n": _size(1, 60),
        "max_mass": _size(1, 8),
        "gw": st.fixed_dictionaries({"replicates": _size(1, 20), "population_cap": _size(2, 60)}),
    },
    optional={"t_grid": _TIMES, "seed": _size(0, 9), "replicates": _size(1, 2)},
)
# where a spoiled config holds a wrong value; the last path is an unknown key
_PATHS = [
    ("initial",),
    ("initial", "family"),
    ("initial", "mu1"),
    ("initial", "mu2"),
    ("truncation",),
    ("truncation", "mass_cap"),
    ("truncation", "arm_cap"),
    ("solver",),
    ("solver", "dt"),
    ("solver", "rhs"),
    ("t_grid",),
    ("n",),
    ("seed",),
    ("replicates",),
    ("max_mass",),
    ("gw",),
    ("gw", "replicates"),
    ("gw", "population_cap"),
    ("unknown",),
]

@st.composite
def configs(draw):
    """A config at small sizes, with at most two values made wrong: a wrong
    type, a bad string or a number out of range.  A wrong size is drawn
    here from a fixed list, so no run is large."""
    config = draw(_VALID)
    for path in draw(st.lists(st.sampled_from(_PATHS), max_size=2)):
        *parents, key = path
        node = config
        for parent in parents:
            node = node.get(parent)
        if isinstance(node, dict):
            node[key] = draw(_JUNK)
    return config


OVERFLOW = {"initial": {"family": "two_gender", "mu1": {"2": "1e400", "1": 0.5}, "mu2": {"1": 1}}}


def _run(command: str, config_path: Path, out: Path) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one subcommand run."""
    std, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(std), contextlib.redirect_stderr(err):
        code = cli.main([command, str(config_path), "--out", str(out)])
    return code, std.getvalue(), err.getvalue()


def _written(out: Path) -> "bytes | dict":
    """What a run wrote: the bytes of the one file ``analyze`` writes, or for
    the other subcommands the bytes of each file in the ``--out`` directory,
    by name."""
    if out.is_file():
        return out.read_bytes()
    return {path.name: path.read_bytes() for path in out.iterdir()}


@settings(
    max_examples=300,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@example(OVERFLOW, "analyze")
@given(configs(), st.sampled_from(COMMANDS))
def test_every_config_exits_0_2_or_3_and_a_failure_writes_nothing(config, command):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        outs = [Path(tmp) / "out", Path(tmp) / "again"]
        if command != "analyze":  # analyze takes a file, the others a directory
            for out in outs:
                out.mkdir()
        code, std, err = _run(command, path, outs[0])
        assert code in (0, 2, 3), (code, err)
        assert "Traceback" not in err, err
        if code:
            assert err.strip()
            assert not outs[0].exists() if command == "analyze" else not any(outs[0].iterdir())
            return
        # the same config into a fresh --out writes the same bytes (stderr may hold wall times)
        again, std_again, err_again = _run(command, path, outs[1])
        assert again == 0, err_again
        assert std_again == std
        assert _written(outs[1]) == _written(outs[0])
