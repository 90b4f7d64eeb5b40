import csv
import dataclasses
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from coaglab import cli, kinetics
from coaglab.cli import ConfigError, cmd_analyze, load_config, main, parse_config
from coaglab.kinetics import SolverSettings, TruncatedSystem, TruncationPolicy
from coaglab.limits import GWConfig


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


THREE_ARM = {
    "initial": [
        {"a": 3, "b": 0, "m": 1, "conc": "1/3"},
        {"a": 0, "b": 3, "m": 1, "conc": "1/3"},
    ],
    "t_grid": [0.25],
}

D11_FAMILY = {"initial": {"family": "one_female", "mu1": {"1": 1}}, "t_grid": [0.25, 1.0]}


def test_analyze_three_arm(tmp_path, capsys):
    assert main(["analyze", write_config(tmp_path, THREE_ARM)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["M"] == 2.0
    assert report["T_c"] == 1.0
    assert report["degenerate"] is False


def test_analyze_degenerate_alternating(tmp_path, capsys):
    cfg = {"initial": [{"a": 1, "b": 1, "m": 1, "conc": 1.0}], "t_grid": [1.0]}
    assert main(["analyze", write_config(tmp_path, cfg)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["M"] == 1.0
    assert report["T_c"] == "inf"
    assert report["degenerate"] is True


def test_analyze_unbalanced_arms_exit_2(tmp_path, capsys):
    cfg = {"initial": [{"a": 2, "b": 1, "m": 1, "conc": 1.0}], "t_grid": [1.0]}
    assert main(["analyze", write_config(tmp_path, cfg)]) == 2
    err = capsys.readouterr().err
    assert "<a>" in err and "<b>" in err


def test_config_rejects_unknown_keys(tmp_path, capsys):
    cfg = dict(THREE_ARM)
    cfg["surprise"] = 1
    assert main(["analyze", write_config(tmp_path, cfg)]) == 2
    assert "unknown keys" in capsys.readouterr().err


@pytest.mark.parametrize(
    "mutate",
    [
        pytest.param(lambda c: c.update(initial=[]), id="<lambda>0"),
        pytest.param(lambda c: c.update(initial=[{"a": 1, "b": 1, "m": 1}]), id="<lambda>1"),
        pytest.param(lambda c: c.update(initial={"family": "nope", "mu1": {"1": 1}}), id="<lambda>2"),
        pytest.param(lambda c: c.update(initial=[{"a": 1, "b": 1, "m": 1, "conc": "1/0"}]), id="<lambda>3"),
        pytest.param(lambda c: c.update(t_grid=[2.0, 1.0]), id="<lambda>4"),
        pytest.param(lambda c: c.update(truncation={"mass_cap": 0}), id="<lambda>5"),
        pytest.param(lambda c: c.update(solver={"rhs": "magic"}), id="<lambda>6"),
        pytest.param(lambda c: c.update(t_grid=[0.5, 0.5]), id="<lambda>7"),
        pytest.param(lambda c: c.update(t_grid=[0.5, "1/2"]), id="<lambda>8"),
        pytest.param(lambda c: c.update(t_grid=["1e400"]), id="<lambda>9"),
        pytest.param(lambda c: c.update(solver={"dt": "1e400"}), id="<lambda>10"),
    ],
)
def test_config_validation_failures(tmp_path, mutate):
    cfg = {"initial": [{"a": 1, "b": 1, "m": 1, "conc": 1.0}], "t_grid": [1.0]}
    mutate(cfg)
    with pytest.raises(ConfigError):
        parse_config(cfg)


SMALL_SIM = {"initial": [{"a": 1, "b": 1, "m": 1, "conc": 1.0}], "t_grid": [0.5], "n": 100}


def _set_row(field, value):
    return lambda c: c["initial"][0].update({field: value})


def _set(key, value):
    return lambda c: c.update({key: value})


@pytest.mark.parametrize(
    "mutate, where",
    [
        pytest.param(_set_row("a", 1.5), "initial[0].a", id="a-fraction"),
        pytest.param(_set_row("a", "1"), "initial[0].a", id="a-string"),
        pytest.param(_set_row("b", True), "initial[0].b", id="b-bool"),
        pytest.param(_set_row("m", 0.5), "initial[0].m", id="m-fraction"),
        pytest.param(_set("truncation", {"mass_cap": "64"}), "mass_cap", id="mass_cap-string"),
        pytest.param(_set("truncation", {"arm_cap": 2.5}), "arm_cap", id="arm_cap-fraction"),
        pytest.param(_set("n", "abc"), "n:", id="n-string"),
        pytest.param(_set("n", 2.5), "n:", id="n-fraction"),
        pytest.param(_set("n", 0), "n:", id="n-zero"),
        pytest.param(_set("n", -5), "n:", id="n-negative"),
        pytest.param(_set("seed", -1), "seed", id="seed-negative"),
        pytest.param(_set("seed", True), "seed", id="seed-bool"),
        pytest.param(_set("replicates", 1.5), "replicates", id="replicates-fraction"),
        pytest.param(_set("max_mass", "12"), "max_mass", id="max_mass-string"),
        pytest.param(_set("gw", {"replicates": False}), "gw.replicates", id="gw-replicates-bool"),
        pytest.param(_set("gw", {"population_cap": 2.5}), "population_cap", id="gw-cap-fraction"),
        pytest.param(_set("solver", {"dt": "abc"}), "solver.dt", id="dt-string"),
        pytest.param(_set("solver", {"dt": [0.1]}), "solver.dt", id="dt-list"),
        pytest.param(_set("solver", {"dt": float("nan")}), "solver.dt", id="dt-nan"),
        pytest.param(_set("solver", {"dt": "1e400"}), "solver.dt", id="dt-past-float-range"),
        pytest.param(_set("t_grid", ["1e400"]), "t_grid", id="t_grid-past-float-range"),
        pytest.param(
            _set("initial", {"family": "two_gender", "mu1": {"1": 1}}),
            "two_gender takes exactly the laws ['mu1', 'mu2'], got ['mu1']",
            id="two_gender-without-mu2",
        ),
        pytest.param(
            _set("initial", {"family": "one_female", "mu1": {"1": 1}, "mu2": {"1": 1}}),
            "one_female takes exactly the laws ['mu1'], got ['mu1', 'mu2']",
            id="one_female-with-mu2",
        ),
        pytest.param(
            _set("initial", {"family": "random_gender"}),
            "random_gender takes exactly the laws ['mu1'], got []",
            id="random_gender-without-mu1",
        ),
        pytest.param(
            _set("initial", {"family": "two_gender", "mu1": {"2": "1e400", "1": 0.5}, "mu2": {"1": 1}}),
            "initial.mu1: weights sum past the float range",
            id="two_gender-law-with-a-float-beside-an-exact-weight-past-the-float-range",
        ),
        pytest.param(
            _set("initial", {"family": [], "mu1": {"1": 1}}),
            "initial.family must be one of",
            id="family-name-a-list",
        ),
        pytest.param(_set("solver", {"rhs": {}}), "solver.rhs", id="rhs-an-object"),
        pytest.param(
            _set(
                "initial",
                [{"a": 1, "b": 1, "m": 1, "conc": 2.5}, {"a": 1, "b": 1, "m": 1, "conc": "1e400"}],
            ),
            "initial concentrations",
            id="float-concentration-beside-an-exact-one-past-the-float-range",
        ),
        pytest.param(
            _set("initial", [{"a": 1, "b": 1, "m": 1, "conc": 1e308}] * 2),
            "must be positive and finite",
            id="float-concentrations-summing-past-the-float-range",
        ),
    ],
)
def test_config_bad_values_exit_2(tmp_path, capsys, mutate, where):
    cfg = json.loads(json.dumps(SMALL_SIM))
    mutate(cfg)
    out = tmp_path / "out"
    assert main(["simulate", write_config(tmp_path, cfg), "--out", str(out)]) == 2
    assert where in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


def test_config_accepts_integral_floats_and_documented_configs():
    cfg = parse_config(dict(SMALL_SIM, n=1e5, truncation={"mass_cap": 64.0}))
    assert (cfg.n, cfg.truncation.mass_cap) == (100_000, 64)
    assert isinstance(cfg.n, int)
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```json\n(.*?)```", readme, flags=re.S)
    assert blocks
    for block in blocks:
        parse_config(json.loads(block))


def test_config_defaults_are_the_classes_defaults():
    """A config with only ``initial`` takes every default from its class."""
    cfg = parse_config({"initial": THREE_ARM["initial"]})
    assert cfg.truncation == TruncationPolicy()
    assert cfg.solver == SolverSettings()
    gw = {f.name: f.default for f in dataclasses.fields(GWConfig)}
    assert (cfg.gw_replicates, cfg.gw_population_cap) == (gw["replicates"], gw["population_cap"])


def test_gw_refuses_degenerate_state(tmp_path, capsys):
    """The (1,1) state of criterion 1 would grow every tree to the population cap."""
    cfg = {"initial": [{"a": 1, "b": 1, "m": 1, "conc": 1.0}], "t_grid": [1.0]}
    out = tmp_path / "gw"
    assert main(["gw", write_config(tmp_path, cfg), "--out", str(out)]) == 2
    assert "single atom at (1,1)" in capsys.readouterr().err
    assert not any(out.iterdir())


def test_config_round_trip(tmp_path):
    cfg_path = write_config(
        tmp_path,
        {
            "initial": {"family": "two_gender", "mu1": {"1": 1}, "mu2": {"1": "1/2", "0": 0, "2": "1/4"}},
            "t_grid": [0.5, "3/2"],
            "truncation": {"mass_cap": 16, "arm_cap": 8},
            "seed": 5,
        },
    )
    # mu2 mean: 1/2 + 2/4 = 1; mu1(0) = mu2(0) = 0
    first = load_config(cfg_path)
    again = parse_config(first.raw)
    assert again.family == first.family
    assert again.t_grid == first.t_grid
    assert again.truncation == first.truncation
    assert again.seed == first.seed


@pytest.mark.parametrize(
    "initial, truncation, solver",
    [
        pytest.param(
            {"family": "one_female", "mu1": {"1": 1}},
            {"mass_cap": 48, "arm_cap": 4},
            {"dt": 0.001},
            id="one_female",
        ),
        # The reduced RHS with caps that bind nowhere up to mass 10 (at most
        # m + 2 arms) leaves only the RK4 step error.
        pytest.param(
            {"family": "random_gender", "mu1": {"1": "1/2", "3": "1/2"}},
            {"mass_cap": 10, "arm_cap": 12},
            {"dt": 0.001, "rhs": "reduced"},
            id="random_gender",
        ),
    ],
)
def test_ode_explicit_agreement(tmp_path, capsys, initial, truncation, solver):
    cfg = {
        "initial": initial,
        "t_grid": [0.25, 1.0],
        "truncation": truncation,
        "solver": solver,
        "max_mass": 10,
    }
    path = write_config(tmp_path, cfg)
    ode_dir = tmp_path / "ode"
    exp_dir = tmp_path / "explicit"
    assert main(["ode", path, "--out", str(ode_dir)]) == 0
    assert main(["explicit", path, "--out", str(exp_dir)]) == 0
    # restrict the ODE table to the masses the explicit table carries
    ode_rows = (ode_dir / "concentrations.csv").read_text().splitlines()
    trimmed = tmp_path / "ode_trimmed.csv"
    with open(trimmed, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        for i, line in enumerate(ode_rows):
            row = line.split(",")
            if i == 0 or (int(row[3]) <= 10 and float(row[0]) > 0):
                w.writerow(row)
    code = main(
        ["compare", str(trimmed), str(exp_dir / "explicit.csv"), "--tolerance", "1e-8"]
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["max_abs_diff"] <= 1e-8


def test_ode_fft_engine_writes_only_reachable_species(tmp_path):
    """FFT rounding noise on cells no merge reaches stays out of the table."""
    truncation = {"mass_cap": 40, "arm_cap": 42}
    cfg = dict(THREE_ARM, t_grid=[0.25, 0.5, 0.75], truncation=truncation, solver={"dt": 0.05})
    assert main(["ode", write_config(tmp_path, cfg), "--out", str(tmp_path / "ode")]) == 0
    reachable = set(TruncatedSystem([(3, 0, 1), (0, 3, 1)], TruncationPolicy(**truncation)).types)
    with open(tmp_path / "ode" / "concentrations.csv", newline="", encoding="utf-8") as fh:
        written = {(int(r["a"]), int(r["b"]), int(r["m"])) for r in csv.DictReader(fh)}
    assert written and written <= reachable


@pytest.mark.parametrize(
    "initial, truncation",
    [
        pytest.param(THREE_ARM["initial"], {"mass_cap": 40, "arm_cap": 42}, id="fft"),
        pytest.param(
            [{"a": 2, "b": 0, "m": 1, "conc": 0.25}, {"a": 0, "b": 2, "m": 1, "conc": 0.25},
             {"a": 1, "b": 1, "m": 1, "conc": 0.5}, {"a": 1, "b": 1, "m": 2, "conc": 0.25}],
            {"mass_cap": 10, "arm_cap": 4},
            id="pair",
        ),
    ],
)
def test_ode_builds_no_particle_types(tmp_path, monkeypatch, initial, truncation):
    """``ode`` writes its tables straight from the engine's int arrays."""
    built, particle_type = [], kinetics.ParticleType

    def counting(*fields):
        built.append(fields)
        return particle_type(*fields)

    monkeypatch.setattr(kinetics, "ParticleType", counting)
    cfg = {"initial": initial, "t_grid": [0.25, 0.5], "truncation": truncation, "solver": {"dt": 0.05}}
    assert main(["ode", write_config(tmp_path, cfg), "--out", str(tmp_path / "ode")]) == 0
    rows = (tmp_path / "ode" / "concentrations.csv").read_text().splitlines()
    assert len(rows) > 3 and built == []


def test_compare_identical_and_mismatch(tmp_path, capsys):
    a = tmp_path / "a.csv"
    a.write_text("t,a,b,m,value\n1,1,1,1,0.5\n", encoding="utf-8")
    b = tmp_path / "b.csv"
    b.write_text("t,a,b,m,value\n1,1,1,1,0.5\n", encoding="utf-8")
    assert main(["compare", str(a), str(b), "--tolerance", "0"]) == 0
    capsys.readouterr()
    c = tmp_path / "c.csv"
    c.write_text("m,value\n1,0.5\n", encoding="utf-8")
    assert main(["compare", str(a), str(c), "--tolerance", "0"]) == 2


def test_compare_matches_keys_written_as_different_numerals(tmp_path, capsys):
    """A key cell is read as an exact number, so ``1``, ``1.0`` and ``1/1``
    key the same row; before, each row counted as only in its own table."""
    a = _table(tmp_path, "a.csv", "t,a,b,m,value\n1,1,1,1,0.5\n0.5,2,1,3,0.25\n")
    b = _table(tmp_path, "b.csv", "t,a,b,m,value\n1.0,1,1,1,0.5\n1/2,2.0,1,3,0.25\n")
    assert main(["compare", a, b, "--tolerance", "0"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["shared_rows"], report["only_in_a"], report["only_in_b"]) == (2, 0, 0)
    assert report["max_abs_diff"] == 0.0


GOLDEN = Path(__file__).resolve().parent / "golden"


def _moved_copy(src: Path, dest: Path, row: int, col: int, delta: float) -> float:
    """Copy the CSV ``src`` to ``dest`` with cell (row, col) moved by about
    ``delta``; returns the change as ``compare`` reads it back."""
    with open(src, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    old = float(rows[row][col])
    rows[row][col] = repr(old + delta)
    with open(dest, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    return abs(float(rows[row][col]) - old)


def test_compare_keys_observables_on_time_alone(tmp_path, capsys):
    """Every column after ``t`` is a value, compared cell by cell, so one
    moved cell is the whole difference, however the other cells read."""
    src = GOLDEN / "ode_reduced" / "observables.csv"
    moved = tmp_path / "observables.csv"
    gap = _moved_copy(src, moved, row=2, col=5, delta=1e-12)  # second_a at t = 0.5
    assert main(["compare", str(src), str(moved), "--tolerance", "1e-11"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["max_abs_diff"] == gap
    assert report["mean_abs_diff"] == pytest.approx(gap / 30)  # 3 rows of 10 values
    assert (report["shared_rows"], report["only_in_a"], report["only_in_b"]) == (3, 0, 0)


def test_compare_keys_gw_on_mass_alone(tmp_path, capsys):
    """``gw.csv`` has four value columns after ``m``; a table with another
    count of value columns is refused."""
    src = GOLDEN / "gw" / "gw.csv"
    moved = tmp_path / "gw.csv"
    gap = _moved_copy(src, moved, row=3, col=3, delta=1e-3)  # pmf_sampled at m = 3
    assert main(["compare", str(moved), str(src), "--tolerance", "0"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["max_abs_diff"] == gap
    assert (report["shared_rows"], report["only_in_a"], report["only_in_b"]) == (8, 0, 0)
    limit = GOLDEN / "limit" / "limit.csv"
    assert main(["compare", str(src), str(limit), "--tolerance", "1"]) == 2
    assert "value column counts differ: 4 vs 1" in capsys.readouterr().err


PQ = [
    {"a": 1, "b": 0, "m": 1, "conc": "1/2"},
    {"a": 0, "b": 1, "m": 1, "conc": "1/2"},
    {"a": 1, "b": 1, "m": 1, "conc": "1/2"},
]
MIXED = [{"a": a, "b": b, "m": 1, "conc": 1} for a, b in ((2, 1), (1, 2), (1, 0), (0, 1))]


@pytest.mark.parametrize("command", ["ode", "simulate"])
@pytest.mark.parametrize(
    "initial, t_end, notices",
    [
        pytest.param(THREE_ARM["initial"], 2.0, 1, id="three_arm-past"),  # T_c = 1
        pytest.param(PQ, 2.0, 0, id="pq"),  # T_c infinite
        pytest.param(MIXED, 1.0, 0, id="mixed-before"),  # T_c = 2
    ],
)
def test_run_past_the_critical_time_says_so(tmp_path, capsys, command, initial, t_end, notices):
    cfg = {
        "initial": initial,
        "t_grid": [0.5, t_end],
        "truncation": {"mass_cap": 12, "arm_cap": 14},
        "solver": {"dt": 0.01},
        "n": 300,
    }
    assert main([command, write_config(tmp_path, cfg), "--out", str(tmp_path / "out")]) == 0
    lines = [line for line in capsys.readouterr().err.splitlines() if "T_c" in line]
    assert len(lines) == notices
    assert all(line.startswith(f"{command}: ") and "T_c = 1.0" in line for line in lines)


def test_simulate_determinism_across_workers(tmp_path, monkeypatch):
    cfg = {
        "initial": [{"a": 1, "b": 1, "m": 1, "conc": 1.0}],
        "t_grid": [0.5, 1.0],
        "n": 400,
        "seed": 9,
        "replicates": 3,
    }
    path = write_config(tmp_path, cfg)
    outs = []
    for threads, sub in (("1", "run1"), ("3", "run2"), ("1", "run3")):
        monkeypatch.setenv("COAG_THREADS", threads)
        out = tmp_path / sub
        assert main(["simulate", path, "--out", str(out)]) == 0
        outs.append(
            {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        )
    assert outs[0] == outs[1] == outs[2]
    meta = json.loads((tmp_path / "run1" / "meta.json").read_text())
    assert meta["replicates"] == 3 and len(meta["events"]) == 3
    assert len(meta["rejections"]) == 3


def test_worker_count_is_capped(monkeypatch):
    assert cli._usable_cpus() >= 1
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 3)
    monkeypatch.delenv("COAG_THREADS", raising=False)
    assert cli._worker_count(10) == 1
    monkeypatch.setenv("COAG_THREADS", "100000")
    assert cli._worker_count(10_000) == 3
    assert cli._worker_count(2) == 2


def test_importing_the_cli_leaves_the_worker_pool_unloaded():
    """The pool's modules load only where ``simulate`` starts workers."""
    src = Path(__file__).resolve().parents[1] / "src"
    probe = "import sys, coaglab.cli; print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("threads", ["0", "-2", "four", "2.5", ""])
def test_bad_coag_threads_exit_2(tmp_path, monkeypatch, capsys, threads):
    cfg = {"initial": [{"a": 1, "b": 1, "m": 1, "conc": 1.0}], "t_grid": [1.0], "n": 50}
    monkeypatch.setenv("COAG_THREADS", threads)
    out = tmp_path / "out"
    assert main(["simulate", write_config(tmp_path, cfg), "--out", str(out)]) == 2
    assert "COAG_THREADS" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_simulate_arm_total_past_word_range_exit_2(tmp_path):
    """An arm total above 2**63 leaves the sampler no word to accept.  Run in
    a subprocess with a timeout, so a simulator that loops fails the test."""
    cfg = {"initial": [{"a": 1, "b": 1, "m": 1, "conc": 1}], "t_grid": [1.0], "n": 2**64}
    out = tmp_path / "out"
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "coaglab.cli", "simulate", write_config(tmp_path, cfg), "--out", str(out)],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 2, proc.stderr
    assert f"n = {2**64}" in proc.stderr and "2**63" in proc.stderr
    assert list(out.iterdir()) == []


def test_simulate_float_conc_with_n_past_float_range_exit_2(tmp_path, capsys):
    cfg = {"initial": [{"a": 1, "b": 1, "m": 1, "conc": 1.0}], "t_grid": [0], "n": 10**400}
    out = tmp_path / "out"
    assert main(["simulate", write_config(tmp_path, cfg), "--out", str(out)]) == 2
    assert f"n = {10**400}" in capsys.readouterr().err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize(
    "armless, quantity",
    [
        ({1: "1" + "0" * 400}, "c_inf(1)"),
        # each c_inf fits a float, their sum does not
        ({1: "15" + "0" * 307, 2: "15" + "0" * 307}, "total_concentration"),
    ],
    ids=["c_inf", "total"],
)
def test_limit_past_float_range_exit_2(tmp_path, capsys, armless, quantity):
    """An exact result too large for a float is refused, not a traceback."""
    initial = [{"a": a, "b": b, "m": 1, "conc": "1/2"} for a, b in ((1, 0), (0, 1), (1, 1))]
    initial += [{"a": 0, "b": 0, "m": m, "conc": w} for m, w in armless.items()]  # never merge
    cfg = {"initial": initial, "max_mass": 6}
    out = tmp_path / "out"
    assert main(["limit", write_config(tmp_path, cfg), "--out", str(out)]) == 2
    assert f"{quantity} is past the float range" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_simulate_counts_are_exact_past_float_precision(tmp_path):
    # conc 1 at n = 2**60 + 1 is 2**60 + 1 particles; through a float it was 2**60.
    n = 2**60 + 1
    cfg = {"initial": [{"a": 1, "b": 1, "m": 1, "conc": "1"}], "t_grid": [0], "n": n}
    out = tmp_path / "out"
    assert main(["simulate", write_config(tmp_path, cfg), "--out", str(out)]) == 0
    meta = json.loads((out / "meta.json").read_text())
    assert meta["final_totals"][0]["particles"] == n


def test_gw_command(tmp_path):
    cfg = {
        "initial": [
            {"a": 1, "b": 0, "m": 1, "conc": "1/2"},
            {"a": 0, "b": 1, "m": 1, "conc": "1/2"},
            {"a": 1, "b": 1, "m": 1, "conc": "1/2"},
        ],
        "t_grid": [1.0],
        "seed": 4,
        "max_mass": 8,
        "gw": {"replicates": 5000, "population_cap": 100000},
    }
    path = write_config(tmp_path, cfg)
    out_a = tmp_path / "gw_a"
    out_b = tmp_path / "gw_b"
    assert main(["gw", path, "--out", str(out_a)]) == 0
    assert main(["gw", path, "--out", str(out_b)]) == 0
    assert (out_a / "gw.csv").read_bytes() == (out_b / "gw.csv").read_bytes()
    summary = json.loads((out_a / "gw_summary.json").read_text())
    assert summary["censored"] == 0 and summary["nodes"] >= 2 * 5000
    rows = list(csv.DictReader((out_a / "gw.csv").open()))
    row2 = next(r for r in rows if r["m"] == "2")
    assert float(row2["pmf_series"]) == 0.25
    assert abs(float(row2["pmf_sampled"]) - 0.25) < 0.03
    assert float(row2["c_inf"]) == 0.25


def test_gw_command_at_max_mass_one(tmp_path):
    cfg = {
        "initial": [
            {"a": 1, "b": 0, "m": 1, "conc": "1/2"},
            {"a": 0, "b": 1, "m": 1, "conc": "1/2"},
            {"a": 1, "b": 1, "m": 1, "conc": "1/2"},
        ],
        "max_mass": 1,
        "gw": {"replicates": 100},
    }
    out = tmp_path / "gw"
    assert main(["gw", write_config(tmp_path, cfg), "--out", str(out)]) == 0
    assert (out / "gw.csv").read_text().splitlines()[1:] == ["1,0,0,0,0"]


def test_limit_command(tmp_path):
    cfg = {
        "initial": [
            {"a": 1, "b": 0, "m": 1, "conc": 1.0},
            {"a": 0, "b": 1, "m": 1, "conc": 1.0},
        ],
        "t_grid": [1.0],
        "max_mass": 6,
    }
    path = write_config(tmp_path, cfg)
    out = tmp_path / "limit"
    assert main(["limit", path, "--out", str(out)]) == 0
    rows = list(csv.DictReader((out / "limit.csv").open()))
    vals = {int(r["m"]): float(r["c_inf"]) for r in rows}
    assert vals[2] == 1.0 and vals[3] == 0.0
    summary = json.loads((out / "limit_summary.json").read_text())
    assert summary["total_mass"] == 2.0


def test_gw_rejects_polydisperse_initial(tmp_path, capsys):
    cfg = {
        "initial": [
            {"a": 1, "b": 1, "m": 2, "conc": 1.0},
        ],
        "t_grid": [1.0],
    }
    path = write_config(tmp_path, cfg)
    out = tmp_path / "gw_bad"
    assert main(["gw", path, "--out", str(out)]) == 2
    assert "gw: initial state is not monodisperse: contains mass-2 species" in capsys.readouterr().err
    assert not any(out.iterdir())  # partial outputs removed


def test_explicit_requires_family(tmp_path):
    path = write_config(tmp_path, THREE_ARM)
    assert main(["explicit", path, "--out", str(tmp_path / "x")]) == 2


def test_crash_in_handler_removes_its_outputs(tmp_path, monkeypatch):
    out = tmp_path / "limit"

    def crash(_mu):
        assert (out / "limit.csv").exists()  # the table is written before this call
        raise RuntimeError("forced failure")

    monkeypatch.setattr("coaglab.cli.degeneracy_reasons", crash)
    cfg = {"initial": [{"a": 1, "b": 1, "m": 1, "conc": 1.0}], "max_mass": 4}
    with pytest.raises(RuntimeError, match="forced failure"):
        main(["limit", write_config(tmp_path, cfg), "--out", str(out)])
    assert not any(out.iterdir())



def _table(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.mark.parametrize(
    "argv, message",
    [
        pytest.param(
            lambda d: ["compare", str(d / "missing.csv"), _table(d, "x.csv", "m,v\n1,2\n"),
                       "--tolerance", "1"],
            "missing.csv",
            id="compare-missing-file",
        ),
        pytest.param(
            lambda d: ["compare", _table(d, "a.csv", "m,v\n1,abc\n"),
                       _table(d, "b.csv", "m,v\n1,2\n"), "--tolerance", "1"],
            "line 2",
            id="compare-non-numeric-cell",
        ),
        pytest.param(
            lambda d: ["compare", _table(d, "a.csv", "m,v\n1,2\n3\n"),
                       _table(d, "b.csv", "m,v\n1,2\n"), "--tolerance", "1"],
            "line 3",
            id="compare-short-row",
        ),
        pytest.param(
            # The second row of a key would otherwise overwrite the first, and
            # its 0.5 would never be compared.
            lambda d: ["compare", _table(d, "a.csv", "t,a,b,m,v\n1,1,1,1,0.5\n1,1,1,1,0.9\n"),
                       _table(d, "b.csv", "t,a,b,m,v\n1,1,1,1,0.9\n"), "--tolerance", "0"],
            "a.csv, lines 2 and 3",
            id="compare-repeated-key",
        ),
        pytest.param(
            # 1 and 1.0 are one key, however they are written.
            lambda d: ["compare", _table(d, "a.csv", "t,a,b,m,v\n1,1,1,1,0.5\n1.0,1,1,1,0.9\n"),
                       _table(d, "b.csv", "t,a,b,m,v\n1,1,1,1,0.9\n"), "--tolerance", "0"],
            "a.csv, lines 2 and 3: the same key ('1.0', '1', '1', '1')",
            id="compare-repeated-key-written-two-ways",
        ),
        pytest.param(
            lambda d: ["compare", _table(d, "a.csv", "t,v\n1,2\nlate,3\n"),
                       _table(d, "b.csv", "t,v\n1,2\n"), "--tolerance", "1"],
            "a.csv, line 3: key cells ['late'] are not all numbers",
            id="compare-non-numeric-key",
        ),
        pytest.param(
            lambda d: ["compare", _table(d, "a.csv", "m,v\n1,2\n"),
                       _table(d, "b.csv", "m,v\n1,2\n"), "--tolerance", "nan"],
            "--tolerance",
            id="compare-tolerance-nan",
        ),
        pytest.param(
            lambda d: ["compare", _table(d, "a.csv", "m,v\n1,2\n"),
                       _table(d, "b.csv", "m,v\n1,2\n"), "--tolerance", "-1"],
            "--tolerance",
            id="compare-tolerance-negative",
        ),
        pytest.param(
            lambda d: ["analyze", write_config(d, THREE_ARM), "--out", str(d / "nodir" / "x.json")],
            "nodir",
            id="analyze-out-in-missing-dir",
        ),
        pytest.param(
            lambda d: ["ode", write_config(d, {"initial": [{"a": 40, "b": 40, "m": 1, "conc": 1.0}],
                                               "truncation": {"arm_cap": 32}}),
                       "--out", str(d / "out")],
            "exceeds truncation caps",
            id="ode-seed-outside-caps",
        ),
        pytest.param(
            lambda d: ["limit", write_config(d, THREE_ARM), "--out", str(d / "out")],
            "limit: the initial state gels at T_c = 1;",
            id="limit-gelling-state",
        ),
        pytest.param(
            lambda d: ["gw", write_config(d, THREE_ARM), "--out", str(d / "out")],
            "gw: the initial state gels at T_c = 1;",
            id="gw-gelling-state",
        ),
    ],
)
def test_bad_command_line_inputs_exit_2(tmp_path, capsys, argv, message):
    assert main(argv(tmp_path)) == 2
    out, err = capsys.readouterr()
    assert message in err
    assert out == ""  # no report on bad input
    out_dir = tmp_path / "out"
    assert not out_dir.exists() or not any(out_dir.iterdir())  # the subcommand wrote no file
