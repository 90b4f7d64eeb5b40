"""Output bytes of the CLI subcommands against committed goldens.

Each case runs one subcommand on a fixed config and compares every file it
writes, byte for byte, with ``tests/golden/<case>/``.  The goldens were
written by the code as it stood before each case was added, from the same
configs.  A change that means to alter output bytes rewrites them and says
so; any other byte that moves is a regression.  ``ode_fft`` runs the
uniform-arm FFT engine, so its bytes also follow the FFT rounding of the
installed numpy build.
"""

import json
from pathlib import Path

import pytest

from coaglab.cli import main, parse_config
from coaglab.kinetics import UniformArmSystem, make_system

GOLDEN = Path(__file__).resolve().parent / "golden"

PQ = [
    {"a": 1, "b": 0, "m": 1, "conc": "1/2"},
    {"a": 0, "b": 1, "m": 1, "conc": "1/2"},
    {"a": 1, "b": 1, "m": 1, "conc": "1/2"},
]

# A non-gelling state (M = 5/9) whose weights have denominators 3 and 9.
THIRDS = [
    {"a": 1, "b": 0, "m": 1, "conc": "4/9"},
    {"a": 0, "b": 1, "m": 1, "conc": "4/9"},
    {"a": 1, "b": 1, "m": 1, "conc": "1/3"},
    {"a": 2, "b": 0, "m": 2, "conc": "1/9"},
    {"a": 0, "b": 2, "m": 1, "conc": "1/9"},
    {"a": 0, "b": 0, "m": 1, "conc": "1/3"},
]

# case -> (subcommand, config); the goldens of a case are in tests/golden/<case>/
CASES = {
    "explicit": (
        "explicit",
        {
            "initial": {"family": "random_gender", "mu1": {"1": "1/2", "3": "1/2"}},
            "t_grid": ["1/4", "1"],
            "max_mass": 8,
        },
    ),
    "explicit_thirds": (  # non-dyadic weights: common denominators other than 2
        "explicit",
        {
            "initial": {
                "family": "two_gender",
                "mu1": {"0": "1/3", "1": "1/3", "2": "1/3"},
                "mu2": {"0": "1/3", "3": "1/3"},
            },
            "t_grid": ["1/3", "2/3", "2"],
            "max_mass": 9,
        },
    ),
    "limit": ("limit", {"initial": PQ, "max_mass": 16}),
    "limit_thirds": ("limit", {"initial": THIRDS, "max_mass": 24}),
    "gw": (
        "gw",
        {"initial": PQ, "seed": 4, "max_mass": 8, "gw": {"replicates": 2000, "population_cap": 10000}},
    ),
    "simulate": (
        "simulate",
        {
            "initial": [{"a": 3, "b": 0, "m": 1, "conc": "1/3"}, {"a": 0, "b": 3, "m": 1, "conc": "1/3"}],
            "t_grid": [0.25, 0.5],
            "n": 600,
            "seed": 7,
            "replicates": 2,
        },
    ),
    "ode": (
        "ode",
        {  # mixed arm counts: the pair engine
            "initial": PQ,
            "truncation": {"mass_cap": 8, "arm_cap": 3},
            "solver": {"dt": 0.01},
            "t_grid": [0.5, 1.0],
        },
    ),
    "ode_reduced": (
        "ode",
        {  # the reduced loss term on the pair engine, with a + b = 3
            "initial": [
                {"a": 2, "b": 1, "m": 1, "conc": "1/4"},
                {"a": 1, "b": 2, "m": 1, "conc": "1/4"},
                {"a": 1, "b": 0, "m": 1, "conc": "1/4"},
                {"a": 0, "b": 1, "m": 1, "conc": "1/4"},
            ],
            "truncation": {"mass_cap": 8, "arm_cap": 4},
            "solver": {"rhs": "reduced", "dt": 0.01},
            "t_grid": [0.5, 1.0],
        },
    ),
    "ode_asym": (
        "ode",
        {  # a mirror-closed support with asymmetric weights: the unmirrored pair engine
            "initial": [
                {"a": 2, "b": 0, "m": 1, "conc": "1/4"},
                {"a": 0, "b": 2, "m": 1, "conc": "1/8"},
                {"a": 1, "b": 0, "m": 1, "conc": "1/4"},
                {"a": 0, "b": 1, "m": 1, "conc": "1/2"},
            ],
            "truncation": {"mass_cap": 10, "arm_cap": 4},
            "solver": {"dt": 0.01},
            "t_grid": [0.5, 1.0],
        },
    ),
    "ode_fft": (
        "ode",
        {  # three arms on every particle: the uniform-arm FFT engine, before T_c = 1
            "initial": [{"a": 3, "b": 0, "m": 1, "conc": "1/3"}, {"a": 0, "b": 3, "m": 1, "conc": "1/3"}],
            "truncation": {"mass_cap": 24, "arm_cap": 26},
            "solver": {"dt": 0.05},
            "t_grid": [0.25, 0.5],
        },
    ),
}


def test_ode_fft_runs_the_fft_engine():
    cfg = parse_config(CASES["ode_fft"][1])
    c0, _ = cfg.state()
    assert isinstance(make_system(c0, cfg.truncation), UniformArmSystem)


@pytest.mark.parametrize("case", sorted(CASES))
def test_outputs_equal_goldens(tmp_path, monkeypatch, capsys, case):
    monkeypatch.delenv("COAG_THREADS", raising=False)
    command, cfg = CASES[case]
    config = tmp_path / "config.json"
    config.write_text(json.dumps(cfg), encoding="utf-8")
    out = tmp_path / "out"
    assert main([command, str(config), "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    written = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    golden = {p.name: p.read_bytes() for p in sorted((GOLDEN / case).iterdir())}
    assert sorted(written) == sorted(golden)
    for name, data in golden.items():
        assert written[name] == data, f"{case}/{name} differs from its golden"
