import csv
import errno
import io
import json
import math
import os
import re
import stat
import subprocess
import sys
import threading
import time
import typing
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings, strategies as st

import rydshe.sweeps

from rydshe import (AtomParams, BeamSpec, ConfigError, DomainError,
                    DriveParams, Layer, LayerStack, PropagationError,
                    RunConfig, SingularityError, parse_config,
                    serialize_config, shifts_from_coefficients, stack_fresnel,
                    susceptibility)
from rydshe import quantum
from rydshe.config import AXES, QUANTITIES, TWO_PI
from rydshe.sweeps import (SweepResult, run_sweep, emit, format_csv, format_json,
                           write_text)
from rydshe.cli import main as cli_main


# ------------------------------------------------------------------- config

def test_empty_config_is_canonical():
    cfg = parse_config("")
    assert cfg.omega_c_mhz == 4.0
    assert cfg.omega_p_mhz == 0.75
    assert cfg.density_mm3 == 4e7
    assert cfg.lambda_um == 0.78
    assert cfg.delta_c_mhz == -0.1
    assert cfg.d2_um == 100.0
    assert cfg.w0_um == 50.0
    assert cfg.n1 == 1.49 and cfg.n3 == 1.49


def test_config_units_into_physics():
    cfg = parse_config("[drive]\nomega_c_mhz = 4.0\ndelta_c_mhz = -0.1\n")
    drv = cfg.drive_params()
    assert drv.Omega_c == pytest.approx(TWO_PI * 4.0, rel=1e-15)
    assert drv.Delta_c == pytest.approx(-TWO_PI * 0.1, rel=1e-15)
    assert drv.Delta3 == pytest.approx(drv.Delta2 + drv.Delta_c, abs=0)
    atom = cfg.atom_params()
    assert atom.Na == pytest.approx(0.04, rel=1e-15)          # 4e7 mm^-3
    assert atom.C6 == pytest.approx(TWO_PI * 1.4e5, rel=1e-15)
    beam = cfg.beam_spec()
    assert beam.theta_i == pytest.approx(math.radians(33.87), rel=1e-15)
    assert beam.n_in == 1.49


def test_config_rejects_bad_values():
    with pytest.raises(ConfigError):
        parse_config("[atom]\ndensity_mm3 = -1\n")
    with pytest.raises(ConfigError):
        parse_config("[beam]\ntheta_deg = 2.0\n")
    with pytest.raises(ConfigError):
        parse_config("[output]\nformat = yaml\n")
    with pytest.raises(ConfigError):
        parse_config("[sweep]\nvariable = bogus\n")
    with pytest.raises(ConfigError):
        parse_config("[sweep]\nsteps = 1\n")


@pytest.mark.parametrize("setting, message", [
    ({"gamma21_mhz": 0.0}, "gamma21_mhz must be > 0"),
    ({"n3": -1.49}, "window indices must be positive"),
    ({"quantity": "spectrum"}, "quantity must be one of"),
    ({"variable2": "w0"}, "variable2 must be one of"),
    ({"precision": 0}, r"precision must lie in \[1, 17\]"),
])
def test_run_config_refuses_out_of_range_setting(setting, message):
    with pytest.raises(ConfigError, match=message):
        RunConfig(**setting)


@pytest.mark.parametrize("text", ["density_mm3 = 1\n", "[atom]\n[atom]\n"],
                         ids=["key before a section", "repeated section"])
def test_config_malformed_text(text):
    with pytest.raises(ConfigError, match="malformed config"):
        parse_config(text)


def test_config_empty_value_keeps_the_default():
    text = "[atom]\ndensity_mm3 =\n[sweep]\nvariable2 =\n"
    assert parse_config(text) == RunConfig()


def test_config_unknown_key_reports_line():
    text = "[atom]\ndensity_mm3 = 4e7\nbananas = 3\n"
    with pytest.raises(ConfigError, match=r"line 3"):
        parse_config(text)
    with pytest.raises(ConfigError, match="unknown section"):
        parse_config("[fruit]\nbananas = 3\n")
    with pytest.raises(ConfigError, match="bad value"):
        parse_config("[atom]\ndensity_mm3 = apple\n")
    # the spectral grid is an oracle argument, not a run setting
    with pytest.raises(ConfigError, match=r"unknown key 'grid_n'.*line 3"):
        parse_config("[beam]\nw0_um = 50\ngrid_n = 2048\n")
    # [DEFAULT] is a section like any other, not keys shared by all
    for text, line in (("[DEFAULT]\ndensity_mm3 = 1e9\n", 1),
                       ("[DEFAULT]\nfoo = 1\n[atom]\n", 1),
                       ("[atom]\nc6_ghz_um6 = 1\n[DEFAULT]\nfoo = 1\n", 3)):
        with pytest.raises(ConfigError, match=rf"unknown section \[DEFAULT\] "
                                              rf"\(line {line}\)$"):
            parse_config(text)
    # an unknown section reports its header's line, whatever its case;
    # inline comments and the ':' delimiter do not hide a line
    for text, line in (("[foo]\na = 1\n\n[atom]\n", 1),
                       ("[atom]\nc6_ghz_um6 = 1\n[bogus]\nx=1\n", 3),
                       ("[Atom]\nc6_ghz_um6 = 1\n", 1),
                       ("[drive]\n[foo]  # note\na = 1\n", 2),
                       ("[atom]  # medium\nbananas = 3\n", 2),
                       ("[atom]\nlambda_um = 1\nbananas : 3\n", 3)):
        with pytest.raises(ConfigError, match=rf"\(line {line}\)$"):
            parse_config(text)


# (section, key, raw value) of settings that must be finite
_NON_FINITE = [("atom", "density_mm3", "nan"), ("atom", "density_mm3", "inf"),
               ("drive", "omega_p_mhz", "nan"), ("drive", "delta2_mhz", "-inf"),
               ("beam", "w0_um", "nan"), ("atom", "coh21_mhz", "nan"),
               ("geometry", "d2_um", "inf")]


@pytest.mark.parametrize("path", ["config", "override"])
@pytest.mark.parametrize("section, key, raw", _NON_FINITE)
def test_non_finite_setting_rejected(tmp_path, capsys, path, section, key,
                                     raw):
    # nan passes every `<` check, so it must be refused where it enters
    if path == "config":
        with pytest.raises(ConfigError,
                           match=rf"'{key}' in \[{section}\] \(line 2\)"):
            parse_config(f"[{section}]\n{key} = {raw}\n")
        ini = tmp_path / "bad.ini"
        ini.write_text(f"[{section}]\n{key} = {raw}\n")
        argv = ["--config", str(ini)]
    else:
        with pytest.raises(ConfigError, match=key):
            RunConfig(**{key: float(raw)})
        flag = {"density_mm3": "--density", "omega_p_mhz": "--omega-p",
                "delta2_mhz": "--delta2", "w0_um": "--w0",
                "d2_um": "--d2"}.get(key)
        argv = [] if flag is None else [f"{flag}={raw}"]
    if argv:
        out = tmp_path / "x.csv"
        assert run_cli("chi", *argv, "--steps", "2", "--delta2-min", "-1",
                       "--delta2-max", "1", "--out", str(out)) == 2
        assert key in capsys.readouterr().err
        assert not out.exists()


_FLOAT_FIELDS = [name for name, hint in
                 typing.get_type_hints(RunConfig).items()
                 if float in (typing.get_args(hint) or (hint,))]


@pytest.mark.parametrize("name", _FLOAT_FIELDS)
def test_run_config_refuses_nan(name):
    # library callers and dataclasses.replace pass no parser
    with pytest.raises(ConfigError, match=rf"^{name} = nan is not finite$"):
        RunConfig(**{name: math.nan})
    with pytest.raises(ConfigError, match=rf"^{name} = inf is not finite$"):
        replace(RunConfig(), **{name: math.inf})


@pytest.mark.parametrize("argv, keys", [
    (["chi", "--delta2-min", "-1e308", "--delta2-max", "1e308", "--steps",
      "5"], "max - min"),
    (["map", "--delta2-min", "1e308", "--delta2-max", "-1e308"],
     "max2 - min2")], ids=["chi", "map"])
def test_cli_refuses_a_sweep_span_past_the_float_range(tmp_path, capsys,
                                                       argv, keys):
    # max - min overflows: the grid has no finite step, so the run is a
    # config error naming the keys, with no numpy warning and no output
    out = tmp_path / "x.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(*argv, "--out", str(out)) == 2
    assert capsys.readouterr().err == (
        f"config error: {keys} = {argv[4]} - {argv[2]} is not finite\n"
        .replace("1e308", "1e+308"))
    assert not out.exists()


@pytest.mark.parametrize("sfx", ["", "2"])
def test_config_file_refuses_a_sweep_span_past_the_float_range(tmp_path,
                                                               capsys, sfx):
    text = f"[sweep]\nmin{sfx} = -1e308\nmax{sfx} = 1e308\n"
    with pytest.raises(ConfigError, match=re.escape(
            f"max{sfx} - min{sfx} = 1e+308 - -1e+308 is not finite")):
        parse_config(text)
    ini, out = tmp_path / "span.ini", tmp_path / "x.csv"
    ini.write_text(text)
    assert run_cli("chi", "--config", str(ini), "--out", str(out)) == 2
    assert f"max{sfx} - min{sfx}" in capsys.readouterr().err
    assert not out.exists()


_PHYSICS_INPUTS = {
    AtomParams: ("Gamma21", "Gamma32", "C6", "Na", "lambda_p", "coh21",
                 "coh31", "coh32"),
    DriveParams: ("Omega_p", "Omega_c", "Delta_c"),
    Layer: ("d",),
    LayerStack: ("n_in", "n_out"),
    BeamSpec: ("w0", "theta_i", "lambda_p", "n_in"),
}


@pytest.mark.parametrize("cls, name", [(cls, name) for cls, names
                                       in _PHYSICS_INPUTS.items()
                                       for name in names])
def test_physics_inputs_refuse_nan(cls, name):
    # each range check fails on nan, where `x < 0` would pass it
    cfg = RunConfig()
    valid = {AtomParams: cfg.atom_params(), DriveParams: cfg.drive_params(),
             Layer: cfg.layer_stack().layers[0], LayerStack: cfg.layer_stack(),
             BeamSpec: cfg.beam_spec()}[cls]
    with pytest.raises(DomainError):
        replace(valid, **{name: math.nan})


def test_config_roundtrip_idempotent():
    text = "[drive]\nomega_c_mhz = 6.25\n[sweep]\nvariable = theta_i\nmin = 33.5\nmax = 34.2\nsteps = 11\n"
    cfg = parse_config(text)
    assert parse_config(serialize_config(cfg)) == cfg


def test_coherence_overrides():
    cfg = parse_config("[atom]\ncoh32_mhz = 0.0015\n")
    atom = cfg.atom_params()
    assert atom.gamma32 == pytest.approx(TWO_PI * 0.0015, rel=1e-15)


# a valid value other than the default, for every RunConfig field
_NON_DEFAULT = {
    "gamma21_mhz": st.floats(0.1, 50), "gamma32_mhz": st.floats(0, 1),
    "c6_ghz_um6": st.floats(-500, 500), "density_mm3": st.floats(0, 1e9),
    "lambda_um": st.floats(0.3, 2), "coh21_mhz": st.floats(0.01, 10),
    "coh31_mhz": st.floats(0, 10), "coh32_mhz": st.floats(0, 10),
    "omega_p_mhz": st.floats(0, 5), "omega_c_mhz": st.floats(0, 10),
    "delta2_mhz": st.floats(-20, 20), "delta_c_mhz": st.floats(-5, 5),
    "n1": st.floats(1, 2), "n3": st.floats(1, 2), "d2_um": st.floats(0, 500),
    "w0_um": st.floats(1, 500), "theta_deg": st.floats(5, 85),
    "quantity": st.sampled_from(QUANTITIES),
    "variable": st.sampled_from(list(AXES)),
    "sweep_min": st.floats(-1e9, 1e9), "sweep_max": st.floats(-1e9, 1e9),
    "steps": st.integers(2, 10**6), "variable2": st.sampled_from(list(AXES)),
    "sweep_min2": st.floats(-1e9, 1e9), "sweep_max2": st.floats(-1e9, 1e9),
    "steps2": st.integers(2, 10**6),
    # '%', '#', ';', spaces and newlines: what a file cannot hold is refused
    "out_path": st.text("ab.%#;/ \né", min_size=1, max_size=12),
    "out_format": st.sampled_from(["csv", "json"]),
    "precision": st.integers(1, 17),
}


# no explain phase: over 29 fields it takes minutes to report a failure
@settings(max_examples=200, deadline=None,
          phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.shrink])
@given(st.fixed_dictionaries({
    f.name: _NON_DEFAULT[f.name].filter(lambda v, d=f.default: v != d)
    for f in fields(RunConfig)}))
@example({**{f.name: f.default for f in fields(RunConfig)},
          "out_path": "run%1.csv", "coh21_mhz": 2.5})
def test_config_roundtrip_every_field(values):
    try:
        cfg = RunConfig(**values)
    except ConfigError as exc:
        # a config file strips the ends of a value and splits it at a
        # newline, and a '#' or ';' first or after a space starts a comment
        assert re.search(r"^\s|\s$|\n|(^|\s)[#;]", values["out_path"]), exc
        return
    assert parse_config(serialize_config(cfg)) == cfg


def test_percent_is_read_literally(tmp_path, monkeypatch, capsys):
    # no interpolation: '%' is a plain character, and '%%' stays two
    assert parse_config("[output]\npath = a%%b.csv\n").out_path == "a%%b.csv"
    ini = tmp_path / "pct.ini"
    ini.write_text("[output]\npath = out%.csv\n")
    monkeypatch.chdir(tmp_path)
    assert run_cli("chi", "--config", str(ini), "--steps", "2") == 0
    assert (tmp_path / "out%.csv").exists()


@pytest.mark.parametrize("key, raw", [("coh21_mhz", "0"), ("coh21_mhz", "-1"),
                                      ("coh31_mhz", "-0.5"),
                                      ("coh32_mhz", "-3")])
@pytest.mark.parametrize("command", ["chi", "profile"])
def test_cli_refuses_bad_coherence_rate(tmp_path, capsys, key, raw, command):
    # a negative rate (a medium with gain) or gamma21 <= 0 is a config
    # error naming the key, not rows of gain or of DomainError
    ini = tmp_path / "coh.ini"
    ini.write_text(f"[atom]\n{key} = {raw}\n")
    out = tmp_path / "x.csv"
    assert run_cli(command, "--config", str(ini), "--out", str(out)) == 2
    assert key in capsys.readouterr().err
    assert not out.exists()


# ------------------------------------------------------------------- sweeps

def test_chi_sweep_schema_contract():
    cfg = RunConfig(quantity="chi", variable="Delta2",
                    sweep_min=-1.0, sweep_max=1.0, steps=3)
    res = run_sweep(cfg)
    assert res.columns == ["delta2_MHz", "re_chi1", "im_chi1",
                           "re_chi3_local", "im_chi3_local",
                           "re_chi3_nonlocal", "im_chi3_nonlocal", "error"]
    assert len(res.rows) == 3
    header = format_csv(res).splitlines()[2]
    assert header == ("delta2_MHz,re_chi1,im_chi1,re_chi3_local,"
                      "im_chi3_local,re_chi3_nonlocal,im_chi3_nonlocal,error")


def test_degenerate_sweep_constant_rows():
    cfg = RunConfig(quantity="shift", variable="Delta2",
                    sweep_min=1.0, sweep_max=1.0, steps=2,
                    variable2="theta_i", sweep_min2=33.9,
                    sweep_max2=33.9, steps2=2)
    res = run_sweep(cfg)
    assert len(res.rows) == 4
    vals = {tuple(r[2:]) for r in res.rows}
    assert len(vals) == 1


def test_sweep_deterministic_bytes(tmp_path):
    cfg = RunConfig(quantity="fresnel", variable="theta_i",
                    sweep_min=33.0, sweep_max=34.0, steps=5)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    emit(run_sweep(cfg), "csv", str(a))
    emit(run_sweep(cfg), "csv", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_sweep_json_roundtrip():
    cfg = RunConfig(quantity="chi", variable="Delta2",
                    sweep_min=-2.0, sweep_max=2.0, steps=4)
    res = run_sweep(cfg)
    back = json.loads(format_json(res, precision=17))
    assert back["columns"] == res.columns
    for r1, r2 in zip(back["rows"], res.rows):
        assert r1[-1] == r2[-1]
        np.testing.assert_allclose(np.array(r1[:-1], dtype=float),
                                   np.array(r2[:-1], dtype=float), rtol=1e-15)


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_sweep_json_non_finite_cells_are_null():
    res = SweepResult(columns=["x", "a", "b", "error"],
                      rows=[[1.0, math.inf, -math.inf, ""],
                            [2.0, math.nan, np.float64(-np.inf), "E: x"]],
                      config_hash="0" * 16)
    back = json.loads(format_json(res), parse_constant=_reject_constant)
    assert back["rows"] == [[1.0, None, None, ""], [2.0, None, None, "E: x"]]


def _old_json(result: SweepResult, precision: int) -> str:
    """The JSON writer format_json replaced: each cell rounded through
    float(%g), then json.dumps of the whole document."""
    rows = [[v if isinstance(v, str) else
             (float(f"{v:.{precision}g}") if math.isfinite(v) else None)
             for v in row] for row in result.rows]
    return json.dumps({"meta": {"version": rydshe.__version__,
                                "config": result.config_hash},
                       "columns": result.columns,
                       "rows": rows}, indent=1, sort_keys=True,
                      allow_nan=False) + "\n"


@pytest.mark.parametrize("precision", [3, 12, 15, 16, 17])
def test_sweep_json_matches_the_encoder_byte_for_byte(precision):
    values = [-0.0, 0.0, 3.0, -7.0, 5, 12.5, 1e-5, -1.5e-5, 1e-4, 0.1 + 0.2,
              math.pi, 999999999999.5, 1e12, -1.23456789012345e13,
              9.99999999999e15, 9999999999999998.0, 1e16, 1.5e16, 1e300,
              5e-324, 2.0**53, 123456.0, 1e5, math.nan, math.inf, -math.inf,
              np.float64(2.5), np.float64(-4.0)]
    rng = np.random.default_rng(precision)
    values += (rng.choice([-1.0, 1.0], 300) * rng.uniform(1, 10, 300)
               * 10.0 ** rng.integers(-320, 300, 300)).tolist()
    errors = ["", 'E: bad "x" \\ at 34\u00b0 \u2014 \u00fc', "tab\tnew\nline",
              "nan", "1e12"]
    rows = [[values[(i + j) % len(values)] for j in range(3)]
            + [errors[i % len(errors)]] for i in range(2 * len(values))]
    res = SweepResult(columns=["a", "b", "c", "error"], rows=rows,
                      config_hash="0" * 16)
    assert format_json(res, precision) == _old_json(res, precision)
    empty = SweepResult(columns=["a", "error"], rows=[], config_hash="1")
    assert format_json(empty, precision) == _old_json(empty, precision)


def test_sweep_json_of_a_map_matches_the_encoder():
    cfg = RunConfig(quantity="map", variable="theta_i",
                    sweep_min=33.5, sweep_max=34.2, steps=8,
                    variable2="Delta2", sweep_min2=-5.0, sweep_max2=5.0,
                    steps2=11)
    res = run_sweep(cfg)
    assert format_json(res) == _old_json(res, 12)


def _old_cell(v, precision: int) -> str:
    """The per-cell CSV formatter format_csv used before it formatted
    each row with one call, with a string cell quoted as the csv module
    quotes a cell after another one."""
    if isinstance(v, str):
        buf = io.StringIO()
        csv.writer(buf).writerow(["", v])
        return buf.getvalue()[1:-2]
    if isinstance(v, float) and math.isnan(v):
        return "nan"
    return f"{v:.{precision}g}"


_CELLS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.floats(allow_nan=True, allow_infinity=True).map(np.float64),
    st.sampled_from([-0.0, 5e-324, -2.2250738585072014e-308, math.nan,
                     math.inf, -math.inf]),
    st.integers(min_value=-10**300, max_value=10**300),
)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 17), st.integers(1, 6), st.data())
def test_csv_row_format_matches_per_cell_format(precision, n_cols, data):
    rows = [data.draw(st.lists(_CELLS, min_size=n_cols, max_size=n_cols))
            + [data.draw(st.text(alphabet=st.characters(
                blacklist_categories=("Cs",), blacklist_characters="\n"),
                max_size=40)
                | st.sampled_from(["", "ConfigError: a, b: c",
                                   "DomainError: 100% at 5,6",
                                   'E: "x", y', 'E: ""']))]
            for _ in range(data.draw(st.integers(0, 4)))]
    res = SweepResult(columns=[f"c{i}" for i in range(n_cols)] + ["error"],
                      rows=rows, config_hash="0" * 16)
    body = format_csv(res, precision).split("\n")[3:-1]
    assert body == [",".join(_old_cell(v, precision) for v in row)
                    for row in rows]


def test_csv_error_cells_read_back_at_header_width(tmp_path):
    # an error message may hold a comma, so its cell is quoted: a CSV
    # reader sees one cell per column and the whole message
    res = run_sweep(RunConfig(quantity="shift", variable="d2",
                              sweep_min=-1.0, sweep_max=1.0, steps=3))
    assert "," in res.rows[0][-1]
    path = tmp_path / "d2.csv"
    emit(res, "csv", str(path))
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(ln for ln in fh if not ln.startswith("#")))
    assert rows[0] == res.columns
    assert all(len(r) == len(res.columns) for r in rows)
    assert [r[-1] for r in rows[1:]] == [r[-1] for r in res.rows]


def test_sweep_refuses_a_map_without_variable2_and_an_unknown_format(
        tmp_path):
    with pytest.raises(ConfigError, match="map sweeps need variable2"):
        run_sweep(RunConfig(quantity="map"))
    with pytest.raises(ConfigError,
                       match="^variable2 = Delta2 repeats variable$"):
        run_sweep(RunConfig(quantity="chi", variable="Delta2",
                            sweep_min=-1.0, sweep_max=1.0, steps=3,
                            variable2="Delta2", sweep_min2=2.0,
                            sweep_max2=3.0, steps2=2))
    out = tmp_path / "chi.xml"
    with pytest.raises(ConfigError, match="unknown output format 'xml'"):
        emit(run_sweep(RunConfig(quantity="chi", steps=2)), "xml", str(out))
    assert not out.exists()


def test_sweep_isolates_failing_points():
    cfg = RunConfig(quantity="chi", variable="Na",
                    sweep_min=-1e7, sweep_max=4e7, steps=3)
    res = run_sweep(cfg)
    errors = [r[-1] for r in res.rows]
    assert errors[0] != "" and "ConfigError" in errors[0]
    assert errors[-1] == ""
    assert all(math.isnan(v) for v in res.rows[0][1:-1])


def test_map_row_major_grid():
    cfg = RunConfig(quantity="map", variable="theta_i",
                    sweep_min=33.8, sweep_max=33.9, steps=2,
                    variable2="Delta2", sweep_min2=-1.0, sweep_max2=1.0,
                    steps2=3)
    res = run_sweep(cfg)
    assert len(res.rows) == 6
    assert res.columns[:2] == ["theta_deg", "delta2_MHz"]
    # axis1 outer, axis2 inner
    assert [r[0] for r in res.rows[:3]] == [33.8] * 3
    assert [r[1] for r in res.rows[:3]] == [-1.0, 0.0, 1.0]


def _fail_block_at(monkeypatch, delta2_mhz):
    """Make the batched block 4x4 solve fail at one probe detuning: the
    first entry of its right-hand side is i Gamma32 + d21, whose real
    part is Delta2, and the index of that entry is the detuning's."""
    solve = quantum._solve_checked

    def failing(A, b, what):
        x, errors = solve(A, b, what)
        if what == "third-order two-body (block 4x4)":
            at = b[:, 0, 0].real == delta2_mhz * TWO_PI
            errors.update({int(i): SingularityError("injected")
                           for i in np.flatnonzero(at)})
        return x, errors
    monkeypatch.setattr(quantum, "_solve_checked", failing)


def test_map_chi_failure_lands_on_its_detuning(monkeypatch):
    # one susceptibility call over the group's three detunings; the
    # failure injected at one index of the batch marks only its rows
    real = rydshe.sweeps.susceptibility
    seen = []

    def counting(drive, atom):
        seen.append(drive.Delta2)
        return real(drive, atom)
    monkeypatch.setattr(rydshe.sweeps, "susceptibility", counting)
    _fail_block_at(monkeypatch, 0.0)
    # a p error on one Delta2 = 0 row (flat row 1, theta outer): the
    # detuning's error runs earlier and wins
    fresnel = rydshe.sweeps.stack_fresnel

    def failing_p(stack, theta, k0, pol):
        r, t, errors = fresnel(stack, theta, k0, pol)
        if pol == "p":
            errors[1] = DomainError("injected p error")
        return r, t, errors
    monkeypatch.setattr(rydshe.sweeps, "stack_fresnel", failing_p)
    cfg = RunConfig(quantity="map", variable="theta_i",
                    sweep_min=33.8, sweep_max=33.9, steps=3,
                    variable2="Delta2", sweep_min2=-1.0, sweep_max2=1.0,
                    steps2=3)
    res = run_sweep(cfg)
    assert len(seen) == 1
    assert np.array_equal(seen[0], TWO_PI * np.array([-1.0, 0.0, 1.0]))
    for row in res.rows:
        if row[1] == 0.0:
            assert row[-1] == ("SingularityError: injected at "
                               "Delta2 = 0 rad/us")
            assert all(math.isnan(v) for v in row[2:-1])
        else:
            assert row[-1] == "" and all(math.isfinite(v) for v in row[2:-1])


@pytest.mark.filterwarnings("error")
def test_empty_input_gives_empty_results_in_each_stage():
    # no detuning, angle or coefficient: empty parts and no error, unwarned
    cfg, empty = RunConfig(), np.array([])
    atom, drive = cfg.atom_params(), replace(cfg.drive_params(), Delta2=empty)
    for result in (susceptibility(drive, atom),
                   quantum.response_parts(drive, atom),
                   shifts_from_coefficients(cfg.beam_spec(), empty, empty)):
        assert result.errors == {}
        assert all(np.shape(getattr(result, f.name)) == (0,)
                   for f in fields(result) if f.name != "errors")
    r, t, errors = stack_fresnel(cfg.layer_stack(0.01 + 0.001j), empty,
                                 cfg.beam_spec().k0, "p")
    assert r.shape == t.shape == (0,) and errors == {}


@pytest.mark.parametrize("quantity", ["chi", "fresnel", "shift"])
def test_chi_failure_cell_is_the_scalar_error(monkeypatch, quantity):
    # a 201-point sweep with one failing detuning: its error cell is the
    # text a scalar chi call raises there, every value cell of its row is
    # nan (the optics see its nan chi), and the other 200 rows are
    # byte-identical to a clean run
    cfg = RunConfig(quantity=quantity, variable="Delta2",
                    sweep_min=-10.0, sweep_max=10.0, steps=201)
    clean = format_csv(run_sweep(cfg)).splitlines()
    bad = np.linspace(-10.0, 10.0, 201)[57]
    _fail_block_at(monkeypatch, bad)
    one = replace(cfg, delta2_mhz=bad)
    with pytest.raises(SingularityError) as exc:
        susceptibility(one.drive_params(), one.atom_params())
    assert re.search(r"at Delta2 = \S+ rad/us$", str(exc.value))
    res = run_sweep(cfg)
    assert all(math.isnan(v) for v in res.rows[57][1:-1])
    lines = format_csv(res).splitlines()
    header = 3
    assert lines[header + 57].endswith(f",SingularityError: {exc.value}")
    del lines[header + 57], clean[header + 57]
    assert lines == clean


def test_chi_sweep_makes_one_susceptibility_call(monkeypatch):
    real = rydshe.sweeps.susceptibility
    calls = []

    def counting(drive, atom):
        calls.append(np.size(drive.Delta2))
        return real(drive, atom)
    monkeypatch.setattr(rydshe.sweeps, "susceptibility", counting)
    cfg = RunConfig(quantity="chi", variable="Delta2",
                    sweep_min=-10.0, sweep_max=10.0, steps=201)
    res = run_sweep(cfg)
    assert calls == [201]
    assert all(r[-1] == "" for r in res.rows)


def test_fresnel_config_error_stays_on_its_row():
    cfg = RunConfig(quantity="fresnel", variable="theta_i",
                    sweep_min=4.0, sweep_max=6.0, steps=3)
    res = run_sweep(cfg)
    assert [r[0] for r in res.rows] == [4.0, 5.0, 6.0]
    assert res.rows[0][-1].startswith("ConfigError")
    assert all(math.isnan(v) for v in res.rows[0][1:-1])
    assert [r[-1] for r in res.rows[1:]] == ["", ""]


def _set_fresnel_at(monkeypatch, theta_deg, **r):
    """Make the sweep's Fresnel call return r[pol] at one incidence angle
    (deg) for each polarization pol named in `r`."""
    real = rydshe.sweeps.stack_fresnel
    calls = []

    def patched(stack, theta, k0, pol):
        calls.append((pol, np.size(theta)))
        out = real(stack, theta, k0, pol)
        if pol in r:
            out[0][np.asarray(theta) == math.radians(theta_deg)] = r[pol]
        return out
    monkeypatch.setattr(rydshe.sweeps, "stack_fresnel", patched)
    return calls


_SHIFT_21 = RunConfig(quantity="shift", variable="theta_i",
                      sweep_min=33.0, sweep_max=35.0, steps=21)


def test_shift_error_stays_on_its_row(monkeypatch):
    # a non-finite r_p at 34 deg fails that row alone, with the text a
    # scalar shift call there raises
    clean = format_csv(run_sweep(_SHIFT_21)).splitlines()
    _set_fresnel_at(monkeypatch, 34.0, p=complex(math.nan, 0.0))
    lines = format_csv(run_sweep(_SHIFT_21)).splitlines()
    bad = 3 + 10
    cfg = replace(_SHIFT_21, theta_deg=34.0)
    stack = cfg.layer_stack(susceptibility(cfg.drive_params(),
                                           cfg.atom_params()).total)
    rs, _ = stack_fresnel(stack, math.radians(34.0),
                          TWO_PI / cfg.lambda_um, "s")
    with pytest.raises(PropagationError) as exc:
        shifts_from_coefficients(cfg.beam_spec(), complex(math.nan, 0.0), rs)
    assert str(exc.value).startswith(
        "non-finite Fresnel coefficients rp=(nan+0j), rs=(")
    # the message holds a comma, so its CSV cell is quoted
    assert lines[bad].endswith(f',"PropagationError: {exc.value}"')
    assert lines[bad].split(",")[:5] == ["34"] + ["nan"] * 4
    del lines[bad], clean[bad]
    assert lines == clean


def test_zero_power_error_stays_on_its_row(monkeypatch):
    clean = format_csv(run_sweep(_SHIFT_21)).splitlines()
    _set_fresnel_at(monkeypatch, 34.0, p=0j, s=0j)
    lines = format_csv(run_sweep(_SHIFT_21)).splitlines()
    bad = 3 + 10
    assert lines[bad].endswith(
        ",DomainError: zero reflected power: shift undefined")
    del lines[bad], clean[bad]
    assert lines == clean


def test_active_index_fails_its_detuning_rows_only(monkeypatch):
    # a conjugated-looking chi (Im n < -0.1) at one detuning of a map
    # fails every row of that detuning with a scalar stack call's error
    cfg = RunConfig(quantity="map", variable="theta_i",
                    sweep_min=33.5, sweep_max=34.2, steps=8,
                    variable2="Delta2", sweep_min2=-2.0, sweep_max2=2.0,
                    steps2=5)
    clean = format_csv(run_sweep(cfg)).splitlines()
    real = rydshe.sweeps.susceptibility
    active_chi = -0.5j

    def active_at_zero(drive, atom):
        b = real(drive, atom)
        chi1 = np.where(drive.Delta2 == 0.0, active_chi - b.chi3_local_contrib
                        - b.chi3_nonlocal_contrib, b.chi1)
        return replace(b, chi1=chi1)
    monkeypatch.setattr(rydshe.sweeps, "susceptibility", active_at_zero)
    beam = cfg.beam_spec()
    with pytest.raises(DomainError) as exc:
        stack_fresnel(cfg.layer_stack(active_chi), beam.theta_i, beam.k0, "p")
    assert str(exc.value) == "layer index is strongly active (Im n << 0)"
    lines = format_csv(run_sweep(cfg)).splitlines()
    bad = [i for i, line in enumerate(lines[3:], start=3)
           if line.split(",")[1] == "0"]
    assert len(bad) == 8
    for i in bad:
        assert lines[i].endswith(f",DomainError: {exc.value}")
    for i in reversed(bad):
        del lines[i], clean[i]
    assert lines == clean


def test_layer_error_stays_on_its_row(monkeypatch):
    # errors injected into the Fresnel calls' error maps at single rows
    # of a map fail those rows alone; p's error wins over s's on a row
    cfg = RunConfig(quantity="map", variable="theta_i",
                    sweep_min=33.5, sweep_max=34.2, steps=8,
                    variable2="Delta2", sweep_min2=-2.0, sweep_max2=2.0,
                    steps2=5)
    clean = format_csv(run_sweep(cfg)).splitlines()
    real = rydshe.sweeps.stack_fresnel
    at = {"p": [3 + 8 * 2], "s": [3 + 8 * 2, 6 + 8 * 4]}   # row indices

    def patched(stack, theta, k0, pol):
        r, t, errors = real(stack, theta, k0, pol)
        for i in at[pol]:
            r[i] = t[i] = complex(math.nan, math.nan)
            errors[i] = SingularityError(f"injected into {pol}")
        return r, t, errors
    monkeypatch.setattr(rydshe.sweeps, "stack_fresnel", patched)
    lines = format_csv(run_sweep(cfg)).splitlines()
    assert lines[3 + 3 + 8 * 2].endswith(",SingularityError: injected into p")
    assert lines[3 + 6 + 8 * 4].endswith(",SingularityError: injected into s")
    for i in (3 + 6 + 8 * 4, 3 + 3 + 8 * 2):
        assert lines[i].split(",")[2:6] == ["nan"] * 4
        del lines[i], clean[i]
    assert lines == clean


def test_fresnel_sweep_rows_match_scalar_calls(monkeypatch):
    # every fresnel column against per-angle scalar calls; ratio_s_over_p
    # is inf where |r_p| = 0
    cfg = RunConfig(quantity="fresnel", variable="theta_i",
                    sweep_min=20.0, sweep_max=50.0, steps=7)
    _set_fresnel_at(monkeypatch, 35.0, p=0j)
    res = run_sweep(cfg)
    stack = cfg.layer_stack(susceptibility(cfg.drive_params(),
                                           cfg.atom_params()).total)
    k0 = TWO_PI / cfg.lambda_um
    for row in res.rows:
        theta = math.radians(row[0])
        rp = 0j if row[0] == 35.0 else stack_fresnel(stack, theta, k0, "p")[0]
        rs = stack_fresnel(stack, theta, k0, "s")[0]
        ratio = abs(rs) / abs(rp) if abs(rp) > 0 else math.inf
        assert row[1:] == [rp.real, rp.imag, rs.real, rs.imag, abs(rp),
                           abs(rs), ratio, ""]
    assert res.rows[3][7] == math.inf


def test_map_makes_one_fresnel_call_per_polarization(monkeypatch):
    calls = _set_fresnel_at(monkeypatch, 0.0)
    cfg = RunConfig(quantity="map", variable="theta_i",
                    sweep_min=33.5, sweep_max=34.2, steps=71,
                    variable2="Delta2", sweep_min2=-5.0, sweep_max2=5.0,
                    steps2=51)
    res = run_sweep(cfg)
    assert calls == [("p", 71 * 51), ("s", 71 * 51)]
    assert all(r[-1] == "" for r in res.rows)


def test_shift_sweep_over_thickness_builds_each_stack():
    cfg = RunConfig(quantity="shift", variable="d2",
                    sweep_min=50.0, sweep_max=150.0, steps=3)
    res = run_sweep(cfg)
    assert [r[0] for r in res.rows] == [50.0, 100.0, 150.0]
    for row in res.rows:
        pcfg = replace(cfg, d2_um=row[0])
        chi = susceptibility(pcfg.drive_params(), pcfg.atom_params()).total
        stack, beam = pcfg.layer_stack(chi), pcfg.beam_spec()
        rp, rs = (stack_fresnel(stack, beam.theta_i, beam.k0, pol)[0]
                  for pol in "ps")
        want = shifts_from_coefficients(beam, rp, rs)
        got = dict(zip(res.columns, row))
        scale = max(abs(want.delta_plus), pcfg.lambda_um)
        assert abs(got["delta_plus_um"] - want.delta_plus) <= 1e-10 * scale
        assert got["power_plus"] == pytest.approx(want.power_plus, rel=1e-10)
    assert len({r[1] for r in res.rows}) == 3


def _config_error_cell(cfg, **fields) -> str:
    """The error cell of a row whose fields are applied one by one."""
    try:
        for field, value in fields.items():
            cfg = replace(cfg, **{field: value})
    except ConfigError as exc:
        return f"ConfigError: {exc}"
    return ""


def _bounded_axes() -> set:
    """Sweep variables whose field RunConfig rejects somewhere on the
    real line."""
    bounded = set()
    for var, (field, _) in AXES.items():
        if any(_config_error_cell(RunConfig(), **{field: v})
               for v in (-1e9, -1.0, 1e9)):
            bounded.add(var)
    return bounded


# one sweep range per bound, crossing it
_CROSSING_RANGES = [("theta_i", 3.0, 7.0), ("theta_i", 83.0, 87.0),
                    ("Na", -2e7, 2e7), ("Omega_c", -1.0, 1.0),
                    ("Omega_p", -1.0, 1.0), ("d2", -50.0, 50.0)]


def test_crossing_ranges_cover_every_bounded_axis():
    assert {var for var, _, _ in _CROSSING_RANGES} == _bounded_axes()


@pytest.mark.parametrize("variable, lo, hi", _CROSSING_RANGES)
def test_axis_crossing_its_bound_errors_per_value(variable, lo, hi):
    cfg = RunConfig(quantity="fresnel", variable=variable,
                    sweep_min=lo, sweep_max=hi, steps=9)
    res = run_sweep(cfg)
    field = AXES[variable][0]
    want = [_config_error_cell(cfg, **{field: r[0]}) for r in res.rows]
    assert "" in want and any(want)
    assert [r[-1] for r in res.rows] == want
    for row, err in zip(res.rows, want):
        assert all(math.isnan(v) == bool(err) for v in row[1:-1])


@pytest.mark.parametrize("axes", [
    (("Na", -1e7, 1e7, 3), ("theta_i", 3.0, 7.0, 5)),
    (("theta_i", 3.0, 7.0, 5), ("Na", -1e7, 1e7, 3)),
])
def test_first_axis_error_wins(axes):
    (v1, lo1, hi1, n1), (v2, lo2, hi2, n2) = axes
    cfg = RunConfig(quantity="fresnel", variable=v1,
                    sweep_min=lo1, sweep_max=hi1, steps=n1, variable2=v2,
                    sweep_min2=lo2, sweep_max2=hi2, steps2=n2)
    res = run_sweep(cfg)
    f1, f2 = AXES[v1][0], AXES[v2][0]
    n_both = 0
    for row in res.rows:
        e1 = _config_error_cell(cfg, **{f1: row[0]})
        e2 = _config_error_cell(cfg, **{f2: row[1]})
        assert row[-1] == (e1 or e2)
        if e1 and e2:
            assert e1 != e2
            n_both += 1
    assert n_both == 2


def test_map_builds_one_config_per_group(monkeypatch):
    # the CLI default map: 71 angles x 51 detunings, one group (theta and
    # Delta2 are both batched), plus two endpoint checks per axis
    calls = []

    def counting_replace(obj, **changes):
        calls.append(changes)
        return replace(obj, **changes)
    monkeypatch.setattr(rydshe.sweeps, "replace", counting_replace)
    cfg = RunConfig(quantity="map", variable="theta_i",
                    sweep_min=33.5, sweep_max=34.2, steps=71,
                    variable2="Delta2", sweep_min2=-5.0, sweep_max2=5.0,
                    steps2=51)
    res = run_sweep(cfg)
    assert len(res.rows) == 71 * 51 and all(r[-1] == "" for r in res.rows)
    assert len(calls) <= 1 + 2 * 2


def test_chi_sweep_throughput():
    cfg = RunConfig(quantity="chi", variable="Delta2",
                    sweep_min=-10.0, sweep_max=10.0, steps=200)
    t0 = time.perf_counter()
    res = run_sweep(cfg)
    assert time.perf_counter() - t0 < 10.0
    assert len(res.rows) == 200


# ---------------------------------------------------------------------- cli

def run_cli(*argv):
    return cli_main(list(argv))


def _status(command, out):
    """The pattern of the status line a sweep writes to stderr."""
    return rf"{command}: \d+ rows -> {re.escape(str(out))} \(\d+ ms\)\n"


def test_cli_chi_to_dev_stdout_is_the_csv_alone(capfd, monkeypatch):
    # the status line goes to stderr: written to /dev/stdout (a file under
    # capfd, as under `> f.csv`), the CSV is neither followed nor
    # overwritten by it
    argv = ["chi", "--steps", "5", "--delta2-min", "-1", "--delta2-max", "1",
            "--out", "/dev/stdout"]
    assert run_cli(*argv) == 0
    out, err = capfd.readouterr()
    cfg = _cli_sweep_config(monkeypatch, *argv)
    assert out == format_csv(run_sweep(cfg), cfg.precision)
    assert re.fullmatch(_status("chi", "/dev/stdout"), err)


def test_cli_defaults_prints_canonical(capsys):
    assert run_cli("defaults") == 0
    out = capsys.readouterr().out
    assert "[atom]" in out and "omega_c_mhz = 4" in out
    assert parse_config(out) == RunConfig()


def test_cli_unknown_subcommand_usage_exit():
    with pytest.raises(SystemExit) as exc:
        run_cli("frobnicate")
    assert exc.value.code == 1


def test_cli_no_subcommand_usage_exit():
    assert run_cli() == 1


def test_cli_config_error_exit(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[atom]\ndensity_mm3 = -5\n")
    assert run_cli("chi", "--config", str(bad), "--out",
                   str(tmp_path / "x.csv"), "--steps", "3") == 2
    bad.write_text("[beam]\ngrid_span = 8.0\n")
    assert run_cli("shift-angle", "--config", str(bad), "--out",
                   str(tmp_path / "x.csv"), "--steps", "3") == 2


def test_cli_config_with_a_byte_order_mark(tmp_path):
    # a leading UTF-8 byte-order mark is not part of the file's text: the
    # run and its config= hash are those of the file without the mark
    text = b"[atom]\ndensity_mm3 = 2e7\n"
    written = {}
    for name, data in (("plain", text), ("bom", b"\xef\xbb\xbf" + text),
                       ("defaults", b"")):
        ini, out = tmp_path / f"{name}.ini", tmp_path / f"{name}.csv"
        ini.write_bytes(data)
        assert run_cli("chi", "--config", str(ini), "--steps", "3",
                       "--out", str(out)) == 0
        written[name] = out.read_text()
    # the first line holds the config= hash
    assert written["bom"] == written["plain"] != written["defaults"]


def test_cli_io_error_exit(tmp_path):
    # a path whose parent directory does not exist always fails to open
    missing = tmp_path / "no" / "such" / "dir" / "x.csv"
    code = run_cli("chi", "--steps", "3", "--delta2-min", "-1",
                   "--delta2-max", "1", "--out", str(missing))
    assert code == 4


def test_cli_chi_and_overrides(tmp_path, capsys):
    out = tmp_path / "chi.csv"
    code = run_cli("chi", "--delta2-min", "-1", "--delta2-max", "1",
                   "--steps", "5", "--density", "2e7", "--omega-c", "6",
                   "--out", str(out))
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[2].startswith("delta2_MHz,re_chi1")
    assert len(lines) == 3 + 5


@pytest.mark.filterwarnings("error")
def test_cli_detuning_past_the_float_range(tmp_path):
    # a probe detuning past the float range of the solves, or of rad/us,
    # fails its rows by name without a numpy warning; the sweep exits 0
    for argv in (["chi", "--delta2-min", "-1e300", "--delta2-max", "1e300"],
                 ["chi", "--delta2-min", "1e308", "--delta2-max", "1.5e308"],
                 ["shift-angle", "--delta2", "1e307"]):
        out = tmp_path / "far.csv"
        assert run_cli(*argv, "--steps", "2", "--out", str(out)) == 0
        rows = out.read_text().splitlines()[3:]
        assert len(rows) == 2
        for row in rows:
            assert re.search(r",nan,DomainError: Delta2 = \S+ rad/us is "
                             r"outside the float range "
                             r"\(\|Delta2\| <= 1e\+150\)$", row), row


def test_cli_chi_writes_no_negative_zero(tmp_path):
    # a zero density makes every chi column 0 and a zero probe the
    # third-order ones: written as 0 at every detuning, never as -0
    for flag in ("--density", "--omega-p"):
        out = tmp_path / "chi.csv"
        assert run_cli("chi", flag, "0", "--out", str(out)) == 0
        cells = [c for line in out.read_text().splitlines()[3:]
                 for c in line.split(",")[1:-1]]
        assert "0" in cells and "-0" not in cells


def test_cli_shift_detuning_and_json(tmp_path):
    out = tmp_path / "s.json"
    code = run_cli("shift-detuning", "--delta2-min", "-1", "--delta2-max", "1",
                   "--steps", "3", "--theta", "33.87", "--format", "json",
                   "--out", str(out))
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["columns"][0] == "delta2_MHz"
    assert len(doc["rows"]) == 3


def test_cli_map_axes(tmp_path):
    out = tmp_path / "map.csv"
    code = run_cli("map", "--theta-min", "33.8", "--theta-max", "33.9",
                   "--theta-steps", "2", "--delta2-min", "-1",
                   "--delta2-max", "1", "--delta2-steps", "2",
                   "--density", "8e7", "--out", str(out))
    assert code == 0
    rows = out.read_text().splitlines()[3:]
    assert len(rows) == 4
    firsts = [float(r.split(",")[0]) for r in rows]
    assert min(firsts) == 33.8 and max(firsts) == 33.9


def test_cli_profile(tmp_path):
    out = tmp_path / "prof.csv"
    code = run_cli("profile", "--delta2", "3.5", "--out", str(out))
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[2] == "y_um,i_incident,i_plus,i_minus,error"
    assert len(lines) > 100


def test_cli_profile_full_map(tmp_path):
    # at the default w0 and at narrow beams alike, each axis is written
    # in full and strictly increasing
    for w0 in ([], ["--w0", "1e-5"], ["--w0", "1e-7"]):
        out = tmp_path / "prof2d.json"
        code = run_cli("profile", "--full-map", *w0, "--out", str(out))
        assert code == 0
        doc = json.loads(out.read_text())
        assert set(doc) == {"x_um", "y_um", "i_incident", "i_plus", "i_minus"}
        assert len(doc["i_plus"]) == len(doc["x_um"])
        for axis, n in (("x_um", 129), ("y_um", 257)):
            v = doc[axis]
            assert len(v) == n, (w0, axis)
            assert all(a < b for a, b in zip(v, v[1:])), (w0, axis)


def test_cli_entry_point_installed():
    proc = subprocess.run([sys.executable, "-m", "rydshe.cli", "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0


def test_cli_import_leaves_scipy_unloaded():
    code = ("import sys, rydshe.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cli_sweeps_leave_scipy_and_numpy_ma_unloaded(tmp_path):
    # a 2-point run of every sweep subcommand, as CSV and as JSON, in one
    # fresh process; after each, neither scipy nor numpy.ma (about 1 MB
    # of RSS and set-up time, which e.g. np.unique pulls in) is imported
    code = f"""
import contextlib, io, sys
from rydshe.cli import _SWEEP_COMMANDS, main
runs = [[name] + [a for _, _, _, flag, _ in axes for a in ("--" + flag, "2")]
        for name, (_, _, axes) in _SWEEP_COMMANDS.items()] + [["profile"]]
for argv in runs:
    for fmt in ("csv", "json"):
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv + ["--format", fmt, "--out",
                                {str(tmp_path / "out")!r}]) == 0, argv
        print(argv[0], fmt, sorted(m for m in sys.modules if m == "numpy.ma"
                                   or m.split(".")[0] == "scipy"))
"""
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        f"{name} {fmt} []" for name in ("chi", "fresnel", "shift-angle",
                                        "shift-detuning", "map", "profile")
        for fmt in ("csv", "json")]


def test_cli_sweep_leaves_oracle_and_configparser_unloaded(tmp_path):
    # a sweep calls neither, so a fresh process neither compiles the
    # references nor imports the config-file parser
    code = f"""
import contextlib, io, sys
from rydshe.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["chi", "--out", {str(tmp_path / "chi.csv")!r}]) == 0
print(sorted(m for m in ("rydshe.oracle", "configparser") if m in sys.modules))
"""
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cli_shift_detuning_strong_coupling(tmp_path):
    out = tmp_path / "sd8.csv"
    code = run_cli("shift-detuning", "--omega-c", "8", "--delta2-min", "-1",
                   "--delta2-max", "1", "--steps", "3", "--out", str(out))
    assert code == 0
    rows = out.read_text().splitlines()[3:]
    assert len(rows) == 3 and all(r.endswith(",") for r in rows)


def test_sweep_threads_same_result(tmp_path, capsys):
    # --threads is accepted for old scripts, hidden, and changes no byte
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["shift-angle", "--theta-min", "33.5", "--theta-max", "34.2",
            "--steps", "8"]
    assert run_cli(*argv, "--out", str(a)) == 0
    assert run_cli(*argv, "--threads", "4", "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()
    with pytest.raises(SystemExit):
        run_cli("shift-angle", "--help")
    assert "--threads" not in capsys.readouterr().out


class _Captured(Exception):
    pass


def _cli_sweep_config(monkeypatch, *argv) -> RunConfig:
    """The RunConfig the CLI hands to run_sweep for `argv`."""
    seen = []

    def capture(cfg, **_):
        seen.append(cfg)
        raise _Captured
    monkeypatch.setattr("rydshe.cli.run_sweep", capture)
    with pytest.raises(_Captured):
        run_cli(*argv)
    return seen[0]


@pytest.mark.parametrize("command, fields", [
    ("chi", ("chi", "Delta2", -10.0, 10.0, 201, None)),
    ("fresnel", ("fresnel", "theta_i", 20.0, 50.0, 601, None)),
    ("shift-angle", ("shift", "theta_i", 33.5, 34.2, 501, None)),
    ("shift-detuning", ("shift", "Delta2", -5.0, 5.0, 201, None)),
    ("map", ("map", "theta_i", 33.5, 34.2, 71, "Delta2", -5.0, 5.0, 51)),
    ("profile", ("profile", "Delta2", -5.0, 5.0, 101, None)),
])
def test_cli_sweep_defaults(monkeypatch, tmp_path, command, fields):
    cfg = _cli_sweep_config(monkeypatch, command, "--out",
                            str(tmp_path / "x.csv"))
    got = (cfg.quantity, cfg.variable, cfg.sweep_min, cfg.sweep_max,
           cfg.steps, cfg.variable2)
    if cfg.variable2 is not None:
        got += (cfg.sweep_min2, cfg.sweep_max2, cfg.steps2)
    assert got == fields


@pytest.mark.parametrize("flag, field, value", [
    ("--density", "density_mm3", 8e7), ("--omega-c", "omega_c_mhz", 6.5),
    ("--omega-p", "omega_p_mhz", 0.3), ("--d2", "d2_um", 75.0),
    ("--w0", "w0_um", 40.0), ("--delta2", "delta2_mhz", 1.25),
    ("--theta", "theta_deg", 34.5),
])
def test_cli_overrides_reach_config(monkeypatch, tmp_path, flag, field, value):
    # fresnel sweeps the angle, which leaves --theta out of its run
    command = "chi" if flag == "--theta" else "fresnel"
    cfg = _cli_sweep_config(monkeypatch, command, flag, repr(value),
                            "--out", str(tmp_path / "x.csv"))
    assert getattr(cfg, field) == value
    assert cfg == replace(_cli_sweep_config(
        monkeypatch, command, "--out", str(tmp_path / "x.csv")),
        **{field: value})


def test_cli_fresnel_row_at_the_exit_critical_angle(tmp_path, capsys):
    # an exit medium thinner than the entry one: at its critical angle
    # p3 = n3 / cos is infinite, and the row is still finite and unfailed
    ini = tmp_path / "thin_exit.ini"
    ini.write_text("[geometry]\nn1 = 1.5\nn3 = 1.49\n")
    out = tmp_path / "fresnel.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli("fresnel", "--config", str(ini), "--theta-min",
                       "83.3803722047161", "--theta-max", "84", "--steps",
                       "3", "--out", str(out)) == 0
    assert re.fullmatch(_status("fresnel", out), capsys.readouterr().err)
    row = out.read_text().splitlines()[3].split(",")
    assert float(row[0]) == pytest.approx(83.3803722047161)
    assert row[-1] == ""
    assert all(math.isfinite(float(v)) for v in row[:-1])


def test_cli_names_the_sweep_keys_it_replaces(tmp_path, capsys):
    # the file's [sweep] keys that differ from the default and from the
    # subcommand's own run are named on stderr; the data file is as
    # without the config file
    ini = tmp_path / "na.ini"
    ini.write_text("[sweep]\nvariable = Na\nmin = 1e7\nmax = 8e7\n"
                   "steps = 5\n")
    out, plain = tmp_path / "chi.csv", tmp_path / "plain.csv"
    assert run_cli("chi", "--out", str(plain)) == 0
    assert re.fullmatch(_status("chi", plain), capsys.readouterr().err)
    assert run_cli("chi", "--config", str(ini), "--out", str(out)) == 0
    assert re.fullmatch(re.escape(
        f"rydshe chi: the subcommand replaces [sweep] variable, min, max, "
        f"steps of {ini}\n") + _status("chi", out), capsys.readouterr().err)
    assert out.read_bytes() == plain.read_bytes()
    # a file of defaults, as `rydshe defaults` writes it, names nothing
    assert run_cli("defaults") == 0
    ini.write_text(capsys.readouterr().out)
    assert run_cli("map", "--config", str(ini), "--out", str(out)) == 0
    assert re.fullmatch(_status("map", out), capsys.readouterr().err)


def test_cli_one_axis_drops_config_variable2(tmp_path):
    ini = tmp_path / "two_axes.ini"
    ini.write_text("[sweep]\nvariable2 = theta_i\nmin2 = 33.5\nmax2 = 34.0\n"
                   "steps2 = 3\n")
    out = tmp_path / "chi.csv"
    assert run_cli("chi", "--config", str(ini), "--steps", "2",
                   "--delta2-min", "-1", "--delta2-max", "1",
                   "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[2].startswith("delta2_MHz,re_chi1")
    assert len(lines) == 3 + 2


@pytest.mark.parametrize("argv, flags, ini, named", [
    (["chi"], [], "[sweep]\nmin2 = 33.5\nmax2 = 34.0\nsteps2 = 3\n",
     "[sweep] min2, max2, steps2 of {ini}"),
    (["shift-angle", "--steps", "3"], ["--theta", "40"], None, "--theta"),
    (["chi", "--steps", "3"], ["--delta2", "3"], None, "--delta2"),
    (["fresnel", "--steps", "3"], [], "[beam]\ntheta_deg = 40\n",
     "[beam] theta_deg of {ini}"),
    (["map", "--theta-steps", "2", "--delta2-steps", "2"], ["--delta2", "1"],
     "[beam]\ntheta_deg = 40\n[sweep]\nsteps = 7\nsteps2 = 9\n",
     "--delta2, [beam] theta_deg, [sweep] steps, steps2 of {ini}"),
    (["profile"], [], "[sweep]\nvariable = Na\nsteps = 5\n",
     "[sweep] variable, steps of {ini}"),
], ids=["chi-min2-file", "shift-angle-theta-flag", "chi-delta2-flag",
        "fresnel-theta-file", "map-flag-and-file", "profile-sweep-file"])
def test_cli_names_the_settings_a_run_leaves_out(tmp_path, capsys, argv,
                                                 flags, ini, named):
    # a swept setting's fixed value, from a flag or the file, and the
    # [sweep] keys the subcommand does not use are named on stderr; the
    # output, header hash included, is byte for byte the run without them
    plain, out = tmp_path / "plain.csv", tmp_path / "out.csv"
    assert run_cli(*argv, "--out", str(plain)) == 0
    assert re.fullmatch(_status(argv[0], plain), capsys.readouterr().err)
    if ini is not None:
        path = tmp_path / "run.ini"
        path.write_text(ini)
        flags = flags + ["--config", str(path)]
        named = named.format(ini=path)
    assert run_cli(*argv, *flags, "--out", str(out)) == 0
    assert re.fullmatch(re.escape(
        f"rydshe {argv[0]}: the subcommand replaces {named}\n")
        + _status(argv[0], out), capsys.readouterr().err)
    assert out.read_bytes() == plain.read_bytes()


def test_cli_full_map_refuses_format_csv(tmp_path, capsys):
    # the 2-D map is JSON only: an explicit --format csv is a usage error
    out = tmp_path / "m.csv"
    with pytest.raises(SystemExit) as exc:
        run_cli("profile", "--full-map", "--format", "csv", "--out", str(out))
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert "--full-map" in err and "--format csv" in err
    assert not out.exists()
    assert run_cli("profile", "--full-map", "--format", "json",
                   "--out", str(out)) == 0
    assert set(json.loads(out.read_text())) == {
        "x_um", "y_um", "i_incident", "i_plus", "i_minus"}


_COMMON_FLAGS = [
    ("--config", "PATH", None), ("--out", "PATH", None),
    ("--format", None, None), ("--threads", None, None),
    ("--density", "MM3", None), ("--omega-c", "MHZ", None),
    ("--omega-p", "MHZ", None), ("--d2", "UM", None), ("--w0", "UM", None),
    ("--delta2", "MHZ", None), ("--theta", "DEG", None)]


@pytest.mark.parametrize("command, own_flags", [
    ("chi", [("--delta2-min", "MHZ", -10.0), ("--delta2-max", "MHZ", 10.0),
             ("--steps", None, 201)]),
    ("fresnel", [("--theta-min", "DEG", 20.0), ("--theta-max", "DEG", 50.0),
                 ("--steps", None, 601)]),
    ("shift-angle", [("--theta-min", "DEG", 33.5),
                     ("--theta-max", "DEG", 34.2), ("--steps", None, 501)]),
    ("shift-detuning", [("--delta2-min", "MHZ", -5.0),
                        ("--delta2-max", "MHZ", 5.0),
                        ("--steps", None, 201)]),
    ("map", [("--theta-min", "DEG", 33.5), ("--theta-max", "DEG", 34.2),
             ("--theta-steps", None, 71), ("--delta2-min", "MHZ", -5.0),
             ("--delta2-max", "MHZ", 5.0), ("--delta2-steps", None, 51)]),
    ("profile", [("--full-map", None, False)]),
])
def test_cli_sweep_flags_metavars_and_defaults(command, own_flags):
    import argparse
    from rydshe.cli import build_parser
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    got = [(a.option_strings[-1], a.metavar, a.default)
           for a in subparsers.choices[command]._actions
           if a.option_strings != ["-h", "--help"]]
    assert got == _COMMON_FLAGS + own_flags


def test_every_axis_field_has_an_override_flag():
    # an axis's range flags are its field's override flag with -min/-max
    from rydshe.cli import _OVERRIDES
    assert {field for field, _ in AXES.values()} <= set(_OVERRIDES)


_DENSE = "PropagationError: non-finite chi3_nonlocal_contrib"
_FAR_RB = "DomainError: need C6 != 0 and R_b in float range: inf um"
_FAR_POLE = "SingularityError: non-finite pole or residue of rr33_31^(3)"
_FAR_R = "PropagationError: non-finite r or t"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv, code, cell", [
    # K scales as Na and stays finite; the nonlocal part, as Na^2, does not
    (["chi", "--density", "1e300"], 0, _DENSE),
    (["fresnel", "--density", "1e300"], 0, _DENSE),
    (["shift-detuning", "--density", "1e300"], 0, _DENSE),
    (["profile", "--density", "1e300"], 3, None),
    (["profile", "--full-map", "--density", "1e300"], 3, None),
    (["chi", "--omega-c", "1e160"], 0, "DomainError: need C6 != 0 and R_b"),
    # Omega_c^2 underflows to 0: the same error as an overflowing one
    (["chi", "--omega-c", "1e-300"], 0, _FAR_RB),
    (["shift-angle", "--omega-c", "1e-170"], 0, _FAR_RB),
    (["profile", "--omega-c", "1e-300"], 3, "R_b in float range: inf um"),
    (["chi", "--omega-c", "1e150"], 0, _FAR_POLE),
    (["chi", "--omega-p", "1e300"], 0,
     "PropagationError: non-finite chi3_local_contrib and "
     "chi3_nonlocal_contrib"),
    (["shift-angle", "--w0", "1e300"], 0, ""),
    (["shift-angle", "--w0", "1e-300"], 0, "DomainError: beam power"),
    (["profile", "--w0", "1e300"], 3, "w0 = 1e+300 um"),
    (["profile", "--w0", "1e-300"], 3, "w0 = 1e-300 um"),
    (["profile", "--full-map", "--w0", "1e300"], 3, "w0 = 1e+300 um"),
    (["profile", "--full-map", "--w0", "1e-300"], 3, "w0 = 1e-300 um"),
    # settings only a config file sets, given here as the file's text
    (["chi", "--config", "[atom]\nlambda_um = 1e125"], 0,
     "PropagationError: non-finite chi1 "),
    (["chi", "--config", "[atom]\nlambda_um = 1e300"], 0,
     "PropagationError: non-finite chi1 "),
    (["chi", "--config", "[atom]\ngamma32_mhz = 1e300"], 0, _FAR_POLE),
    (["chi", "--config", "[atom]\ncoh31_mhz = 1e300"], 0, _FAR_POLE),
    (["fresnel", "--config", "[geometry]\nn1 = 1e160"], 0, _FAR_R),
    (["fresnel", "--config", "[geometry]\nn1 = 1e300"], 0, _FAR_R),
    (["shift-angle", "--config", "[geometry]\nn1 = 1e160"], 0, _FAR_R),
    (["shift-angle", "--config", "[geometry]\nn1 = 1e300"], 0, _FAR_R),
], ids=lambda v: " ".join(v).replace("\n", " ") if isinstance(v, list)
    else None)
def test_cli_settings_past_the_float_range(tmp_path, capsys, argv, code, cell):
    # a setting whose chi, blockade radius, poles, Fresnel coefficients,
    # beam power or beam profile leaves the float range fails its rows by
    # name, or a profile run with exit 3; no nan or inf is written
    # silently, and no warning or traceback is raised
    argv = list(argv)
    if "--config" in argv:
        i = argv.index("--config") + 1
        ini = tmp_path / "far.ini"
        ini.write_text(argv[i] + "\n")
        argv[i] = str(ini)
    out = tmp_path / "out.txt"
    assert run_cli(*argv, "--out", str(out)) == code
    if code == 3:
        err = capsys.readouterr().err
        assert err.startswith("numerical error: ") and (cell or "") in err
        assert not out.exists()
        return
    # csv reads quoted error cells, which may hold commas or line breaks
    rows = list(csv.reader(io.StringIO(out.read_text())))[3:]
    assert rows and all(r[-1].startswith(cell) for r in rows)
    for r in rows:
        assert r[-1] or all(math.isfinite(float(v)) for v in r[:-1])


def test_cli_reads_negative_values_in_exponent_form(tmp_path, capsys):
    # -1e1 is a value, as -10 is; a token that is not a number is not
    short, plain = tmp_path / "e.csv", tmp_path / "p.csv"
    assert run_cli("chi", "--delta2-min", "-1e1", "--delta2-max", "1e1",
                   "--steps", "3", "--out", str(short)) == 0
    assert run_cli("chi", "--delta2-min", "-10", "--delta2-max", "10",
                   "--steps", "3", "--out", str(plain)) == 0
    assert short.read_bytes() == plain.read_bytes()
    assert run_cli("shift-angle", "--delta2", "-5e-1", "--steps", "2",
                   "--out", str(short)) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        run_cli("chi", "--delta2", "-x", "--out", str(short))
    assert exc.value.code == 1
    assert "--delta2: expected one argument" in capsys.readouterr().err


def test_cli_missing_config_file_exit(tmp_path, capsys):
    missing = tmp_path / "no_such.ini"
    assert run_cli("chi", "--config", str(missing), "--steps", "3",
                   "--out", str(tmp_path / "x.csv")) == 2
    assert capsys.readouterr().err.startswith(
        f"config error: cannot read config {missing}")


def test_cli_verify_writes_its_report(tmp_path, capsys):
    from rydshe.oracle import CheckResult
    out = tmp_path / "report.json"
    assert run_cli("verify", "--out", str(out)) == 0
    report = json.loads(out.read_text())
    assert isinstance(report, list) and report
    assert all(set(r) == {f.name for f in fields(CheckResult)}
               and r["status"] == "pass" for r in report)
    assert f"report written to {out}\n" in capsys.readouterr().err


def test_cli_chi_names_a_vanishing_eit_denominator(tmp_path, capsys):
    # with no coupling and no 3-1 dephasing, D = d21 d31 vanishes at the
    # two-photon resonance Delta2 = -Delta_c = 0.1 MHz alone: that row
    # holds the error, the others finite values, and the run exits 0
    cfg_path, out = tmp_path / "dark.ini", tmp_path / "chi.csv"
    cfg_path.write_text("[atom]\ncoh31_mhz = 0\n")
    assert run_cli("chi", "--config", str(cfg_path), "--omega-c", "0",
                   "--delta2-min", "0.1", "--delta2-max", "0.3", "--steps",
                   "3", "--out", str(out)) == 0
    assert capsys.readouterr().err.endswith(", 1 failed points)\n")
    rows = list(csv.reader(out.read_text().splitlines()[3:]))
    assert rows[0][-1] == ("SingularityError: EIT denominator vanishes at "
                           "Delta2 = 0.628319 rad/us")
    assert all(v == "nan" for v in rows[0][1:-1])
    for row in rows[1:]:
        assert row[-1] == "" and all(math.isfinite(float(v))
                                     for v in row[:-1])


def test_cli_verify_report_io_error_exit(tmp_path, capsys, monkeypatch):
    # the suite's result is not under test here: one canned check
    import rydshe.oracle
    from rydshe.oracle import CheckResult
    monkeypatch.setattr(rydshe.oracle, "verify_suite", lambda: [
        CheckResult("canned", "pass", 0.0, 1.0, 0.0)])
    missing = tmp_path / "no" / "such" / "report.json"
    assert run_cli("verify", "--out", str(missing)) == 4
    assert capsys.readouterr().err.startswith("io error: ")


def test_cli_verify_to_dev_stdout_is_the_report_alone(capfd, monkeypatch):
    # with --out, the table and verdict follow the report on stderr:
    # written to /dev/stdout (a file under capfd, as under `> f.json`),
    # the report parses and holds every check
    import rydshe.oracle
    from rydshe.oracle import CheckResult
    checks = [CheckResult("canned", "pass", 0.0, 1.0, 0.0),
              CheckResult("other", "pass", 0.5, 1.0, 2.0)]
    monkeypatch.setattr(rydshe.oracle, "verify_suite", lambda: checks)
    assert run_cli("verify", "--out", "/dev/stdout") == 0
    out, err = capfd.readouterr()
    assert [r["check_name"] for r in json.loads(out)] == ["canned", "other"]
    assert err.startswith("report written to /dev/stdout\ncanned  ")
    assert err.endswith("verify: PASS\n")


def test_cli_verify_names_the_error_of_a_check_that_raised(tmp_path, capsys,
                                                           monkeypatch):
    # a reference that raises fails its check with the error on its table
    # line and in its record, where its nan measured is a strict JSON
    # null; the checks that ran carry no error text
    import rydshe.oracle

    def raising(drive, atom):
        raise SingularityError("injected")
    monkeypatch.setattr(rydshe.oracle, "gauss_legendre_nonlocal_integral",
                        raising)
    out = tmp_path / "report.json"
    assert run_cli("verify", "--out", str(out)) == 3
    lines = capsys.readouterr().err.splitlines()
    failed = [line for line in lines if " FAIL " in line]
    assert len(failed) == 1
    assert failed[0].startswith("shell_integral_vs_gauss_legendre  FAIL  "
                                "measured=nan  ")
    assert failed[0].endswith(" ms)  SingularityError: injected")
    assert all(line.endswith(" ms)") for line in lines[1:-1]
               if line not in failed)
    assert lines[-1] == "verify: FAIL"

    def strict(constant):
        raise ValueError(f"{constant} is not JSON")
    records = {r["check_name"]: r for r in
               json.loads(out.read_text(), parse_constant=strict)}
    assert records["shell_integral_vs_gauss_legendre"]["measured"] is None
    errors = {name: r["error"] for name, r in records.items()}
    assert errors.pop("shell_integral_vs_gauss_legendre") == (
        "SingularityError: injected")
    assert set(errors.values()) == {""}


# ------------------------------------------------------------ the writer

def test_emit_overwrites_a_longer_file_with_exactly_the_csv(tmp_path):
    # the file is rewritten in place and cut to the new length: no tail
    # of the old content is left behind the new bytes
    res = run_sweep(RunConfig(quantity="chi", steps=3))
    out = tmp_path / "chi.csv"
    out.write_bytes(b"x" * 100_000)
    emit(res, "csv", str(out))
    assert out.read_bytes() == format_csv(res).encode()


def _sweep_to_dev_stdout(command, stdout):
    """Run `rydshe COMMAND --steps 2 --out /dev/stdout` in a fresh process
    with its standard output on the open file `stdout`."""
    proc = subprocess.run([sys.executable, "-m", "rydshe.cli", command,
                           "--steps", "2", "--out", "/dev/stdout"],
                          stdout=stdout, stderr=subprocess.PIPE, text=True)
    assert proc.returncode == 0, proc.stderr


def test_dev_stdout_appends_to_a_redirect(tmp_path):
    # `>> log`: the CSV follows what the file held, which is not cut
    log, plain = tmp_path / "log", tmp_path / "plain.csv"
    log.write_text("first\n")
    with open(log, "a") as stdout:
        _sweep_to_dev_stdout("chi", stdout)
    assert run_cli("chi", "--steps", "2", "--out", str(plain)) == 0
    assert log.read_bytes() == b"first\n" + plain.read_bytes()


def test_dev_stdout_of_two_runs_into_one_redirect(tmp_path):
    # `{ chi; fresnel; } > both.csv`: each run writes at the shared
    # offset, so the second neither overwrites nor cuts the first
    both, plain = tmp_path / "both.csv", tmp_path / "plain.csv"
    with open(both, "w") as stdout:
        for command in ("chi", "fresnel"):
            _sweep_to_dev_stdout(command, stdout)
    want = b""
    for command in ("chi", "fresnel"):
        assert run_cli(command, "--steps", "2", "--out", str(plain)) == 0
        want += plain.read_bytes()
    assert both.read_bytes() == want


def test_cli_writes_to_dev_null():
    assert run_cli("chi", "--steps", "3", "--out", os.devnull) == 0


def test_cli_writes_a_fifo_as_a_stream(tmp_path):
    # a FIFO is written as a stream, never cut to length
    fifo, plain = tmp_path / "pipe", tmp_path / "plain.csv"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(
        fifo.read_bytes()), daemon=True)
    reader.start()
    assert run_cli("chi", "--steps", "3", "--out", str(fifo)) == 0
    reader.join(timeout=30)
    assert not reader.is_alive()
    assert run_cli("chi", "--steps", "3", "--out", str(plain)) == 0
    assert received == [plain.read_bytes()]


def test_cli_output_keeps_its_inode_and_hard_links(tmp_path):
    out, link = tmp_path / "chi.csv", tmp_path / "link.csv"
    out.write_text("old content\n" * 1000)
    os.link(out, link)
    inode = out.stat().st_ino
    assert run_cli("chi", "--steps", "3", "--out", str(out)) == 0
    assert out.stat().st_ino == inode
    assert link.read_bytes() == out.read_bytes()
    assert out.read_text().startswith("# rydshe ")


@pytest.mark.parametrize("umask", [0o022, 0o077])
def test_cli_new_output_mode_follows_the_umask(tmp_path, umask):
    out = tmp_path / "chi.csv"
    old = os.umask(umask)
    try:
        assert run_cli("chi", "--steps", "3", "--out", str(out)) == 0
    finally:
        os.umask(old)
    assert stat.S_IMODE(out.stat().st_mode) == 0o666 & ~umask


def test_cli_failed_write_leaves_an_empty_file(tmp_path, capsys,
                                               monkeypatch):
    # a write that raises partway cuts the file to zero length: neither
    # the old content nor a head of the new one is left
    out = tmp_path / "chi.csv"
    out.write_bytes(b"x" * 100_000)
    write, calls = os.write, []

    def failing(fd, data):
        calls.append(fd)
        if len(calls) > 1:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return write(fd, data[:10])
    monkeypatch.setattr(os, "write", failing)
    assert run_cli("chi", "--steps", "3", "--out", str(out)) == 4
    assert len(calls) == 2
    assert out.read_bytes() == b""
    assert capsys.readouterr().err == (
        f"io error: cannot write {out}: [Errno 28] "
        f"{os.strerror(errno.ENOSPC)}\n")


def test_interrupted_write_leaves_an_empty_file(tmp_path, monkeypatch):
    # Ctrl-C between two writes: the interrupt propagates, and the file
    # holds neither the old content nor a head of the new one
    out = tmp_path / "chi.csv"
    out.write_bytes(b"x" * 100_000)
    write, calls = os.write, []

    def interrupted(fd, data):
        calls.append(fd)
        if len(calls) > 1:
            raise KeyboardInterrupt
        return write(fd, data[:10])
    monkeypatch.setattr(os, "write", interrupted)
    with pytest.raises(KeyboardInterrupt):
        write_text(str(out), "new content\n" * 10)
    assert len(calls) == 2
    assert out.read_bytes() == b""


@pytest.mark.parametrize("argv", [["chi", "--steps", "3"],
                                  ["profile", "--full-map"], ["verify"]],
                         ids=" ".join)
@pytest.mark.parametrize("target", ["missing directory", "directory"])
def test_cli_unwritable_output_is_an_io_error(argv, target, tmp_path,
                                              capsys, monkeypatch):
    # the suite's result is not under test here: one canned check
    import rydshe.oracle
    from rydshe.oracle import CheckResult
    monkeypatch.setattr(rydshe.oracle, "verify_suite", lambda: [
        CheckResult("canned", "pass", 0.0, 1.0, 0.0)])
    out = {"missing directory": tmp_path / "no" / "x.json",
           "directory": tmp_path}[target]
    assert run_cli(*argv, "--out", str(out)) == 4
    assert capsys.readouterr().err.startswith(f"io error: cannot write {out}: ")


@pytest.mark.parametrize("command", ["chi", "verify"])
def test_cli_refuses_an_empty_out(command, tmp_path, capsys, monkeypatch):
    # "" names no file: a usage error, not the default path or no report
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        run_cli(command, "--out", "")
    assert exc.value.code == 1
    assert "argument --out: expected a path" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
