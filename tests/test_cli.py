import contextlib
import io
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stablerkhs.cli import main
from stablerkhs.config import (
    BASIS_SCHEMA,
    COMMAND_SCHEMA,
    COMMANDS,
    KERNEL_SCHEMA,
    MAX_SIZE,
    PARAM_KEYS,
    ExperimentConfig,
    as_size,
    config_from_dict,
    load_config,
)
from stablerkhs.errors import ConfigError
from stablerkhs.kernels import EPS_PSD, StableSpline, truncate
from stablerkhs.spectral import eigendecompose


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# --------------------------------------------------------------------------
# Config layer

def test_config_round_trips_losslessly(tmp_path):
    cfg = ExperimentConfig(command="classify", seed=3, output_dir="out",
                           threads=2, params={"kernel": "gaussian"})
    path = tmp_path / "c.json"
    path.write_text(cfg.to_json())
    again = load_config(str(path))
    assert again == cfg
    assert config_from_dict(json.loads(cfg.to_json())) == cfg


def test_config_rejects_unknown_keys_by_name():
    with pytest.raises(ConfigError, match="shenanigan"):
        config_from_dict({"command": "classify", "shenanigan": 1})
    with pytest.raises(ConfigError, match="wobble"):
        config_from_dict({"command": "classify", "params": {"wobble": 2}})


def test_config_rejects_unknown_command_and_schema():
    with pytest.raises(ConfigError):
        config_from_dict({"command": "dance"})
    with pytest.raises(ConfigError):
        config_from_dict({"command": "classify", "schema_version": 99})


# --------------------------------------------------------------------------
# classify

def test_classify_gaussian_verdict(capsys):
    code, out, _ = run(capsys, "classify", "--kernel", "gaussian")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "AnalyticallyUnstable"


def test_classify_stable_spline_default_alpha(capsys):
    code, out, _ = run(capsys, "classify", "--kernel", "stable-spline",
                       "--alpha", "0.95")
    assert code == 0
    assert json.loads(out)["verdict"] == "EvidenceStable"


def test_classify_rank_one_flags(capsys):
    code, out, _ = run(capsys, "classify", "--kernel", "rank-one",
                       "--v", "power:-1")
    assert code == 0
    payload = json.loads(out)
    assert payload["class_flags"]["finite_trace"] == "yes"
    assert payload["class_flags"]["stable"] == "no"


def test_classify_missing_generator_is_config_error(capsys):
    code, _, err = run(capsys, "classify", "--kernel", "rank-one")
    assert code == 2
    assert "v" in err


@pytest.mark.parametrize("argv", [
    ["classify", "--kernel", "diagonal", "--g", "power:nan"],
    ["classify", "--kernel", "diagonal", "--g", "geometric:inf"],
    ["classify", "--kernel", "diagonal", "--g", "lit:1,nan"],
    ["synth", "--basis", "canonical", "--count", "20", "--window", "40",
     "--eigenvalues", "power:nan"],
])
def test_non_finite_generator_parameter_is_config_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "non-finite" in err


def test_classify_gaussian_tiny_width(capsys):
    code, out, err = run(capsys, "classify", "--kernel", "gaussian",
                         "--width", "1e-300")
    assert code == 0
    assert json.loads(out)["verdict"] == "AnalyticallyUnstable"
    assert "Warning" not in err


def test_classify_non_psd_kernel_is_numerical_failure(capsys):
    code, _, err = run(capsys, "classify", "--kernel",
                       "translation-invariant", "--h", "lit:1,-1,-1")
    assert code == 3


def test_classify_byte_identical_across_runs(capsys):
    _, out1, _ = run(capsys, "classify", "--kernel", "rank-one",
                     "--v", "power:-1", "--seed", "5")
    _, out2, _ = run(capsys, "classify", "--kernel", "rank-one",
                     "--v", "power:-1", "--seed", "5")
    assert out1 == out2


def test_classify_writes_report_files(tmp_path, capsys):
    out_dir = tmp_path / "o"
    code, _, _ = run(capsys, "classify", "--kernel", "diagonal",
                     "--g", "geometric:0.5", "--output-dir", str(out_dir))
    assert code == 0
    report = json.loads((out_dir / "classify_report.json").read_text())
    assert report["verdict"] == "AnalyticallyStable"
    assert (out_dir / "classify_series.csv").exists()


def _write_config(tmp_path, command, params, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps({"schema_version": 1, "command": command,
                                "seed": 5, "params": params}))
    return str(path)


@pytest.mark.parametrize("command, argv, key", [
    ("classify", ["--kernel", "stable-spline", "--width", "3"], "width"),
    ("classify", ["--kernel", "gaussian", "--alpha", "0.5"], "alpha"),
    ("classify", ["--kernel", "mercer", "--basis", "canonical", "--pole",
                  "0.5", "--count", "8", "--window", "8",
                  "--eigenvalues", "power:-2"], "pole"),
    ("synth", ["--basis", "canonical", "--pole", "0.5", "--count", "8",
               "--window", "8", "--eigenvalues", "power:-2"], "pole"),
])
def test_key_of_another_family_is_config_error(capsys, command, argv, key):
    code, out, err = run(capsys, command, *argv)
    assert code == 2
    assert err.startswith("config error:") and repr(key) in err
    assert out == ""


REPLAY_PARAMS = [
    {"kernel": "stable-spline", "alpha": 0.9},
    {"kernel": "gaussian", "width": 3.0},
    {"kernel": "translation-invariant", "h": "geometric:0.5"},
    {"kernel": "rank-one", "v": "power:-0.5000001"},
    {"kernel": "diagonal", "g": "lit:3,1,2"},
    {"kernel": "mercer", "basis": "canonical", "count": 16, "window": 16,
     "eigenvalues": "power:-2"},
    {"kernel": "mercer", "basis": "laguerre", "pole": 0.5, "count": 8,
     "window": 60, "eigenvalues": "power:-4"},
    {"kernel": "mercer", "basis": "random", "seed": 3, "count": 8,
     "window": 32, "eigenvalues": "power:-3.7"},
]


@pytest.mark.parametrize("params", REPLAY_PARAMS,
                         ids=lambda p: p.get("basis", p["kernel"]))
def test_classify_report_replays_from_its_kernel_block(tmp_path, capsys,
                                                       params):
    code, first, err = run(capsys, "classify", "--config",
                           _write_config(tmp_path, "classify", params))
    assert code == 0, err
    kernel = json.loads(first)["kernel"]
    for key, value in params.items():
        assert kernel["family" if key == "kernel" else key] == value
    kernel["kernel"] = kernel.pop("family")
    code, second, err = run(capsys, "classify", "--config",
                            _write_config(tmp_path, "classify", kernel,
                                          "replay.json"))
    assert code == 0, err
    assert second == first


def test_finite_trace_follows_the_exact_factor(capsys):
    # power:-0.5000001 is square-summable; power:-0.5 is not.
    _, out, _ = run(capsys, "classify", "--kernel", "rank-one",
                    "--v", "power:-0.5000001")
    assert json.loads(out)["class_flags"]["finite_trace"] == "yes"
    _, out, _ = run(capsys, "classify", "--kernel", "rank-one",
                    "--v", "power:-0.5")
    assert json.loads(out)["class_flags"]["finite_trace"] == "no"


# --------------------------------------------------------------------------
# Config fuzz: whatever the params, the exit code is 0, 2 or 3.

_JUNK = st.one_of(st.none(), st.booleans(), st.text(max_size=6),
                  st.sampled_from([0.5, -1, float("nan"), float("inf"),
                                   [], ["x"], {"a": 1}]))
_GENERATORS = st.sampled_from(["power:-2", "power:-0.5000001",
                               "geometric:0.5", "const:1", "lit:3,1,2",
                               "power:", "lit:1,-1,-1"])
#: Good values per key; sizes stay at most 64 so every run is quick.
_VALUES = {
    "kernel": st.sampled_from(sorted(KERNEL_SCHEMA)),
    "basis": st.sampled_from(sorted(BASIS_SCHEMA)),
    "h": _GENERATORS, "v": _GENERATORS, "g": _GENERATORS,
    "eigenvalues": _GENERATORS,
    "alpha": st.floats(-0.5, 1.5), "width": st.floats(-1.0, 20.0),
    "pole": st.floats(-1.0, 1.0), "bound": st.floats(-1.0, 200.0),
    "sigma": st.floats(-0.1, 1.0), "gamma": st.floats(-1.0, 1e6),
    "seed": st.integers(-1, 2 ** 40),
    "count": st.integers(-1, 64), "window": st.integers(-1, 64),
    "n": st.integers(-1, 64), "d": st.integers(-1, 64),
    "grid": st.sampled_from(["10:30:10", "8:64:8", "30:10:10", [8, 16],
                             "1:2"]),
    "track": st.sampled_from(["1-3", "1,2", [1, 2], "5-1", "", "0"]),
    "input": st.sampled_from(["white", "filtered", "step", "impulse",
                              "pink"]),
    "ranks": st.lists(st.integers(-1, 64), max_size=4),
    "orders": st.lists(st.integers(-1, 64), max_size=4),
    "gammas": st.lists(st.floats(-1.0, 1e6), max_size=3),
    "truth_coeffs": st.lists(st.floats(-10.0, 10.0), max_size=3),
    "truth_poles": st.lists(st.floats(-1.5, 1.5), max_size=3),
}
#: Keys given whenever they are drawn absent: their defaults are large.
_SIZED = {"spectrum": "grid", "identify": "window", "reconstruct": "d"}


@st.composite
def _fuzzed_configs(draw):
    command = draw(st.sampled_from(COMMANDS))
    keys = sorted(PARAM_KEYS[command])
    params = {}
    families = COMMAND_SCHEMA[command][0]
    if families and draw(st.booleans()):
        # A whole kernel block, so that the fuzz gets past required keys.
        family = draw(st.sampled_from(families))
        if len(families) > 1:
            params["kernel"] = family
        for key in KERNEL_SCHEMA[family]:
            params[key] = draw(_VALUES[key])
        for key in BASIS_SCHEMA.get(params.get("basis"), ()):
            params[key] = draw(_VALUES[key])
    for key in draw(st.lists(st.sampled_from(keys), unique=True)):
        params[key] = draw(st.one_of(_VALUES[key], _JUNK))
    if command in _SIZED:
        params.setdefault(_SIZED[command], draw(_VALUES[_SIZED[command]]))
    if command == "identify":
        params.setdefault("n", draw(_VALUES["n"]))
    if draw(st.booleans()):
        params[draw(st.sampled_from(["wobble", "family", "kernel"]))] = (
            draw(_JUNK))
    return command, params


@given(case=_fuzzed_configs())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_fuzzed_params_exit_cleanly(case):
    command, params = case
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w") as fh:
            json.dump({"command": command, "seed": 1, "output_dir": tmp,
                       "params": params}, fh)
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = main([command, "--config", path])
    assert code in (0, 2, 3), err.getvalue()
    assert "Traceback" not in err.getvalue()


# --------------------------------------------------------------------------
# spectrum

def test_spectrum_writes_expected_files(tmp_path, capsys):
    out_dir = tmp_path / "s"
    code, _, _ = run(capsys, "spectrum", "--kernel", "stable-spline",
                     "--alpha", "0.95", "--grid", "40:120:40",
                     "--track", "1-3", "--output-dir", str(out_dir))
    assert code == 0
    paths = (out_dir / "eigenvalue_paths.csv").read_text().splitlines()
    assert paths[0] == "d,eig_1,eig_2,eig_3"
    assert len(paths) == 4
    disc = (out_dir / "discrepancies.csv").read_text().splitlines()
    assert disc[0] == "d_from,d_to,disc_1,disc_2,disc_3"
    assert len(disc) == 3
    vectors = (out_dir / "eigenvectors.csv").read_text().splitlines()
    assert len(vectors) == 121


def test_spectrum_diagonal_zero_discrepancies(tmp_path, capsys):
    out_dir = tmp_path / "s"
    code, _, _ = run(capsys, "spectrum", "--kernel", "diagonal",
                     "--g", "geometric:0.5", "--grid", "10:30:10",
                     "--track", "1,2", "--output-dir", str(out_dir))
    assert code == 0
    rows = (out_dir / "discrepancies.csv").read_text().splitlines()[1:]
    for row in rows:
        _, _, d1, d2 = row.split(",")
        assert float(d1) == 0.0
        assert float(d2) == 0.0


def test_spectrum_tracked_index_beyond_grid_fails(tmp_path, capsys):
    code, _, err = run(capsys, "spectrum", "--kernel", "stable-spline",
                       "--grid", "40:80:40", "--track", "41",
                       "--output-dir", str(tmp_path))
    assert code == 2
    assert "41" in err


def test_spectrum_threads_do_not_change_output(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    run(capsys, "spectrum", "--kernel", "stable-spline", "--grid",
        "30:90:30", "--track", "1,2", "--output-dir", str(a))
    run(capsys, "spectrum", "--kernel", "stable-spline", "--grid",
        "30:90:30", "--track", "1,2", "--output-dir", str(b), "--threads", "3")
    for name in ("eigenvalue_paths.csv", "discrepancies.csv",
                 "eigenvectors.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_spectrum_gaps_cover_resolved_eigenvalues_in_order_of_d(tmp_path,
                                                                 capsys):
    # At alpha 0.5 the windows past d = 32 resolve only 32 eigenvalues and
    # clamp some of the rest to zero, so a gap over all of them reads 0.
    out_dir = tmp_path / "s"
    code, _, _ = run(capsys, "spectrum", "--kernel", "stable-spline",
                     "--alpha", "0.5", "--grid", "50:200:50", "--track",
                     "1,2", "--output-dir", str(out_dir))
    assert code == 0
    summary = json.loads((out_dir / "spectrum_summary.json").read_text())
    gaps = summary["min_adjacent_gaps"]
    assert [entry["d"] for entry in gaps] == [50, 100, 150, 200]
    for entry in gaps:
        s = eigendecompose(truncate(StableSpline(0.5), entry["d"]))
        lam = s.eigenvalues
        resolved = lam[lam > EPS_PSD * lam[0]]
        assert entry["clamped"] == s.clamped
        assert entry["min_gap"] == float(np.abs(np.diff(resolved)).min())
        assert entry["min_gap"] > 0.0
    assert gaps[-1]["clamped"] >= 2


# --------------------------------------------------------------------------
# synth

def test_synth_certified_cases(capsys):
    code, out, _ = run(capsys, "synth", "--basis", "canonical", "--count",
                       "128", "--window", "128", "--eigenvalues", "power:-2")
    assert code == 0
    assert json.loads(out)["certification"]["verdict"] == "Certified"

    code, out, _ = run(capsys, "synth", "--basis", "laguerre", "--pole",
                       "0.8", "--count", "20", "--window", "400",
                       "--eigenvalues", "power:-4")
    assert json.loads(out)["certification"]["verdict"] == "Certified"

    code, out, _ = run(capsys, "synth", "--basis", "laguerre", "--pole",
                       "0.8", "--count", "20", "--window", "400",
                       "--eigenvalues", "power:-2")
    assert json.loads(out)["certification"]["verdict"] == "NotCertified"


def test_synth_bound_flag_adds_reduction(capsys):
    code, out, _ = run(capsys, "synth", "--basis", "canonical", "--count",
                       "128", "--window", "128", "--eigenvalues", "power:-1",
                       "--bound", "1.0")
    assert code == 0
    payload = json.loads(out)
    assert payload["bounded_l1"]["verdict"] == "unstable"


# --------------------------------------------------------------------------
# identify

def test_identify_requires_seed(tmp_path, capsys):
    code, _, err = run(capsys, "identify", "--output-dir", str(tmp_path))
    assert code == 2
    assert "seed" in err


def test_identify_runs_and_reports_equivalence(tmp_path, capsys):
    out_dir = tmp_path / "i"
    code, out, _ = run(capsys, "identify", "--seed", "1", "--n", "60",
                       "--window", "120", "--output-dir", str(out_dir))
    assert code == 0
    summary = json.loads(out)
    assert summary["equivalence_gap_full_rank"] <= 1e-8
    assert (out_dir / "sweep.csv").exists()
    assert (out_dir / "impulse_responses.csv").exists()


def test_identify_byte_identical_given_seed(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    args = ["identify", "--seed", "9", "--n", "50", "--window", "100"]
    run(capsys, *args, "--output-dir", str(a))
    run(capsys, *args, "--output-dir", str(b))
    for name in ("identify_summary.json", "sweep.csv",
                 "impulse_responses.csv"):
        a_bytes = (a / name).read_bytes()
        b_bytes = (b / name).read_bytes()
        if name == "identify_summary.json":
            # the config echo contains the output dir; strip those lines
            a_bytes = b"\n".join(l for l in a_bytes.split(b"\n")
                                 if b"output_dir" not in l)
            b_bytes = b"\n".join(l for l in b_bytes.split(b"\n")
                                 if b"output_dir" not in l)
        assert a_bytes == b_bytes, name


def test_identify_emits_monotone_gamma_path(tmp_path, capsys):
    out_dir = tmp_path / "g"
    code, _, _ = run(capsys, "identify", "--seed", "2", "--n", "60",
                     "--window", "120", "--output-dir", str(out_dir))
    assert code == 0
    rows = (out_dir / "gamma_path.csv").read_text().splitlines()[1:]
    rss = [float(r.split(",")[1]) for r in rows]
    hnorm = [float(r.split(",")[2]) for r in rows]
    assert rss == sorted(rss)                  # RSS non-decreasing in gamma
    assert hnorm == sorted(hnorm, reverse=True)


def test_identify_noiseless_fit_is_essentially_perfect(tmp_path, capsys):
    code, out, _ = run(capsys, "identify", "--seed", "3", "--n", "150",
                       "--window", "150", "--sigma", "0.0",
                       "--gamma", "1e-8", "--output-dir", str(tmp_path / "n"))
    assert code == 0
    assert json.loads(out)["fits"]["rels"] >= 99.99


def test_identify_config_file_with_flag_override(tmp_path, capsys):
    cfg = {"schema_version": 1, "command": "identify", "seed": 4,
           "output_dir": str(tmp_path / "x"),
           "params": {"n": 40, "window": 80}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, out, _ = run(capsys, "identify", "--config", str(path),
                       "--seed", "5")
    assert code == 0
    assert json.loads(out)["config"]["seed"] == 5


def test_identify_default_aic_grid_fits_a_short_window(tmp_path, capsys):
    code, out, err = run(capsys, "identify", "--seed", "1", "--n", "30",
                         "--window", "40", "--output-dir", str(tmp_path))
    assert code == 0, err
    assert 1 <= json.loads(out)["ls_selected_order"] <= 40


#: A valid params block per command; each malformed case spoils one value.
VALID_PARAMS = {
    "identify": {"n": 20, "window": 60},
    "classify": {"kernel": "stable-spline", "alpha": 0.9},
    "spectrum": {"kernel": "stable-spline", "grid": "10:20:10", "track": "1,2"},
    "synth": {"basis": "laguerre", "pole": 0.5, "count": 8, "window": 60,
              "eigenvalues": "power:-2", "bound": 10},
    "reconstruct": {"kernel": "stable-spline", "d": 20},
}


def _malformed_config(tmp_path, top, params):
    command = top.get("command", "identify")
    cfg = {"schema_version": 1, "command": command, "seed": 4,
           "output_dir": str(tmp_path / "x"),
           "params": {**VALID_PARAMS[command], **params}, **top}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return command, str(path)


@pytest.mark.parametrize("command", sorted(VALID_PARAMS))
def test_malformed_config_base_is_valid(tmp_path, capsys, command):
    # The cases below differ from these configs in the one spoiled value.
    code, _, err = run(capsys, command, "--config",
                       _malformed_config(tmp_path, {"command": command}, {})[1])
    assert code == 0, err


@pytest.mark.parametrize("top, params", [
    ({}, {"gamma": "abc"}),
    ({}, {"n": "x"}),
    ({}, {"sigma": "abc"}),
    ({}, {"sigma": "nan"}),
    ({}, {"gammas": ["a"]}),
    ({}, {"gammas": []}),
    ({}, {"gammas": 5}),
    ({}, {"orders": ["z"]}),
    ({}, {"truth_poles": "x"}),
    ({}, {"window": 0}),
    ({"seed": "x"}, {}),
    ({"seed": -1}, {}),
    ({"command": "classify", "threads": "abc"}, {}),
    ({"command": "classify", "seed": "x"}, {}),
    ({"command": "classify", "seed": True}, {}),
    ({"command": "classify", "output_dir": 5}, {}),
    ({"command": "classify"}, {"alpha": "abc"}),
    ({"command": "classify"}, {"kernel": "translation-invariant", "h": 5}),
    ({"command": "spectrum", "threads": "abc"}, {}),
    ({"command": "spectrum", "threads": 1.5}, {}),
    ({"command": "spectrum"}, {"alpha": "abc"}),
    ({"command": "spectrum"}, {"grid": "a:b:c"}),
    ({"command": "spectrum"}, {"grid": 5}),
    ({"command": "spectrum"}, {"track": "a-b"}),
    ({"command": "synth", "threads": "abc"}, {}),
    ({"command": "synth"}, {"count": "x"}),
    ({"command": "synth"}, {"pole": "x"}),
    ({"command": "synth"}, {"bound": "x"}),
    ({"command": "synth"}, {"eigenvalues": 5}),
    ({"command": "reconstruct", "seed": "x"}, {}),
    ({"command": "reconstruct"}, {"d": "x"}),
    ({"command": "reconstruct"}, {"ranks": ["x"]}),
], ids=lambda v: json.dumps(v))
def test_identify_malformed_input_is_config_error(tmp_path, capsys, top,
                                                  params):
    # Despite the name, it covers every command: "command" in top picks it.
    command, path = _malformed_config(tmp_path, top, params)
    code, _, err = run(capsys, command, "--config", path)
    assert code == 2
    assert err.startswith("config error:")
    assert "Traceback" not in err
    assert not (tmp_path / "x").exists()


def test_size_ceiling_bounds_magnitude():
    assert as_size(MAX_SIZE, "d") == MAX_SIZE
    assert as_size(-MAX_SIZE, "d") == -MAX_SIZE
    assert as_size(float(MAX_SIZE), "d") == MAX_SIZE
    for value in (MAX_SIZE + 1, -MAX_SIZE - 1, 1e300, "99999999999999999999"):
        with pytest.raises(ConfigError, match=f"at most {MAX_SIZE}"):
            as_size(value, "d")


# Each size is far past MAX_SIZE, so the check rejects it before anything
# is allocated.
@pytest.mark.parametrize("command, params", [
    ("classify", {"kernel": "mercer", "basis": "canonical", "count": 4,
                  "window": 1e300, "eigenvalues": "power:-2"}),
    ("classify", {"kernel": "mercer", "basis": "canonical", "count": 1e300,
                  "window": 8, "eigenvalues": "power:-2"}),
    ("reconstruct", {"d": 1e12}),
    ("reconstruct", {"ranks": [1, 1e300]}),
    ("spectrum", {"grid": [10, 1e300]}),
    ("spectrum", {"grid": "10:100000000000000000000:10"}),
    ("synth", {"window": 1e300}),
    ("identify", {"n": 1e300}),
    ("identify", {"orders": [1e300]}),
], ids=lambda v: json.dumps(v))
def test_oversized_size_is_config_error(tmp_path, capsys, command, params):
    if params.get("kernel") != "mercer":    # a Mercer kernel takes no alpha
        params = {**VALID_PARAMS[command], **params}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"command": command, "seed": 4,
                                "output_dir": str(tmp_path / "x"),
                                "params": params}))
    code, _, err = run(capsys, command, "--config", str(path))
    assert code == 2
    assert err.startswith("config error:")
    assert f"at most {MAX_SIZE}" in err
    assert not (tmp_path / "x").exists()


def test_config_command_mismatch_rejected(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"schema_version": 1, "command": "classify",
                                "params": {}}))
    code, _, err = run(capsys, "identify", "--config", str(path))
    assert code == 2


# --------------------------------------------------------------------------
# reconstruct + output containment

def test_reconstruct_errors_decrease(tmp_path, capsys):
    out_dir = tmp_path / "r"
    code, _, _ = run(capsys, "reconstruct", "--kernel", "stable-spline",
                     "--alpha", "0.9", "--d", "60", "--output-dir",
                     str(out_dir))
    assert code == 0
    rows = (out_dir / "reconstruction.csv").read_text().splitlines()[1:]
    errs = [float(r.split(",")[1]) for r in rows]
    assert errs == sorted(errs, reverse=True)
    assert errs[-1] <= 1e-9


def test_outputs_stay_inside_output_dir(tmp_path, capsys):
    out_dir = tmp_path / "only"
    before = set(os.listdir(tmp_path))
    code, _, _ = run(capsys, "reconstruct", "--kernel", "stable-spline",
                     "--alpha", "0.9", "--d", "30",
                     "--output-dir", str(out_dir))
    assert code == 0
    after = set(os.listdir(tmp_path))
    assert after - before == {"only"}
