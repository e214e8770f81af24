"""Command-line front end: experiments in, CSV/JSON reports out.

Subcommands: classify, spectrum, synth, identify, reconstruct. Every
command accepts --config (a JSON experiment config; flags override it),
--seed, --output-dir and --threads. Exit codes: 0 for any completed
scientific verdict, 2 for configuration errors, 3 for numerical
failures. Outputs are deterministic: the same config and seed produce
byte-identical files.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from typing import Any, Sequence

import numpy as np

from . import basis as basis_mod
from . import spectral, stability, sysid
from .config import (
    CLI_KERNEL,
    COMMAND_SCHEMA,
    PARAM_KEYS,
    SIZE_KEYS,
    TOP_KEYS,
    ExperimentConfig,
    as_number,
    as_size,
    config_from_dict,
    load_config,
)
from .errors import ConfigError, DomainError, NumericalError, StructuralError
from .kernels import KernelSpec, StableSpline, spec_from_config, truncate


def _fmt(x: Any) -> str:
    """Shortest round-trip decimal for floats; plain str otherwise."""
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def _out_path(output_dir: str | None, name: str) -> str:
    base = output_dir or "."
    os.makedirs(base, exist_ok=True)
    path = os.path.normpath(os.path.join(base, name))
    if os.path.relpath(path, base).startswith(".."):
        raise ConfigError(f"output file {name!r} escapes the output directory")
    return path


def _write_csv(path: str, header: Sequence[str],
               rows: Sequence[Sequence[Any]]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(x) for x in row])


def _write_json(path: str, payload: dict[str, Any]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _coerce(key: str, value: Any, kind: type, what: str) -> Any:
    """value as kind; a value of a SIZE_KEYS key must be a bounded int."""
    if key in SIZE_KEYS:
        return as_size(value, what)
    return as_number(value, kind, what)


def _param(params: dict[str, Any], key: str, default: Any,
           kind: type = float) -> Any:
    return _coerce(key, params.get(key, default), kind, repr(key))


def _param_list(params: dict[str, Any], key: str, default: list[Any],
                kind: type = float) -> list[Any]:
    value = params.get(key, default)
    if not isinstance(value, list):
        raise ConfigError(f"{key!r} must be a list of numbers, got {value!r}")
    return [_coerce(key, v, kind, f"each entry of {key!r}") for v in value]


def _kernel_spec(config: ExperimentConfig) -> KernelSpec:
    """The kernel that config's params describe.

    Every params key that is not the command's own goes to
    spec_from_config unchanged, so a key of another family is rejected
    there. The "kernel" key names the family.
    """
    families, own = COMMAND_SCHEMA[config.command]
    kernel = {key: value for key, value in config.params.items()
              if key not in own}
    kernel["family"] = (kernel.pop("kernel", CLI_KERNEL["family"])
                        if len(families) > 1 else families[0])
    if kernel["family"] == CLI_KERNEL["family"]:
        kernel = {**CLI_KERNEL, **kernel}
    return spec_from_config(kernel)


def _parse_grid(params: dict[str, Any]) -> list[int]:
    """params["grid"]: either a list of ints or a "start:stop:step" string."""
    value = params.get("grid", "200:2000:200")
    if isinstance(value, str):
        parts = value.split(":")
        if len(parts) != 3:
            raise ConfigError(f"grid string must be start:stop:step, got {value!r}")
        start, stop, step = (as_size(p, f"grid bound in {value!r}")
                             for p in parts)
        if step <= 0 or stop < start:
            raise ConfigError(f"bad grid range {value!r}")
        return list(range(start, stop + 1, step))
    return _param_list(params, "grid", [], int)


def _parse_track(params: dict[str, Any]) -> list[int]:
    """params["track"]: either a list of ints or a "1-5,100" style string."""
    value = params.get("track", "1-5,100")
    if isinstance(value, str):
        what = f"track index in {value!r}"
        out: list[int] = []
        for chunk in value.split(","):
            chunk = chunk.strip()
            if "-" in chunk:
                lo, _, hi = chunk.partition("-")
                out.extend(range(as_size(lo, what), as_size(hi, what) + 1))
            elif chunk:
                out.append(as_size(chunk, what))
        if not out:
            raise ConfigError(f"empty track specification {value!r}")
        return out
    return _param_list(params, "track", [], int)


# --------------------------------------------------------------------------
# Command handlers

def _cmd_classify(config: ExperimentConfig) -> int:
    spec = _kernel_spec(config)
    report = stability.classify(spec, seed=config.seed or 0)
    sys.stdout.write(report.to_json())
    if config.output_dir is not None:
        _write_json(_out_path(config.output_dir, "classify_report.json"),
                    report.to_dict())
        _write_csv(_out_path(config.output_dir, "classify_series.csv"),
                   ["test", "d", "value"], report.series_rows())
    return 0


def _cmd_spectrum(config: ExperimentConfig) -> int:
    params = dict(config.params)
    spec = _kernel_spec(config)
    grid = _parse_grid(params)
    track = _parse_track(params)
    trace = spectral.convergence_scan(spec, grid, track,
                                      threads=config.threads)
    cols = [f"eig_{i}" for i in trace.tracked]
    _write_csv(_out_path(config.output_dir, "eigenvalue_paths.csv"),
               ["d", *cols],
               [[d, *(trace.eigenvalue_paths[i][g] for i in trace.tracked)]
                for g, d in enumerate(trace.grid)])
    _write_csv(_out_path(config.output_dir, "discrepancies.csv"),
               ["d_from", "d_to", *(f"disc_{i}" for i in trace.tracked)],
               [[trace.grid[g], trace.grid[g + 1],
                 *(trace.discrepancies[i][g] for i in trace.tracked)]
                for g in range(len(trace.grid) - 1)])
    final = trace.final
    _write_csv(_out_path(config.output_dir, "eigenvectors.csv"),
               ["t", *(f"rho_{i}" for i in trace.tracked)],
               [[t + 1, *(final.eigenvectors[t, i - 1] for i in trace.tracked)]
                for t in range(final.d)])
    _write_json(_out_path(config.output_dir, "spectrum_summary.json"), {
        "config": config.to_dict(),
        "grid": list(trace.grid),
        "tracked": list(trace.tracked),
        "unreliable_tracked": sorted(trace.unreliable),
        # Ordered by d; a gap over fewer than two resolved eigenvalues
        # is null.
        "min_adjacent_gaps": [
            {"d": d, "min_gap": g if np.isfinite(g) else None,
             "clamped": trace.clamped[d]}
            for d, g in trace.min_gaps.items()],
    })
    return 0


def _cmd_synth(config: ExperimentConfig) -> int:
    model = _kernel_spec(config).model
    cert = basis_mod.sufficient_stability_test(model)
    profile = basis_mod.l1_profile(model.basis)
    payload: dict[str, Any] = {
        "config": config.to_dict(),
        "model": model.to_config(),
        "l1_profile": {"norms": list(profile.norms),
                       "max_ratio": profile.max_ratio,
                       "slope": profile.slope},
        "certification": cert.to_dict(),
    }
    if "bound" in config.params:
        result = basis_mod.bounded_l1_test(
            model, _param(config.params, "bound", None))
        payload["bounded_l1"] = result.to_dict()
    sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    if config.output_dir is not None:
        _write_json(_out_path(config.output_dir, "synth_report.json"), payload)
    return 0


def _cmd_identify(config: ExperimentConfig) -> int:
    if config.seed is None:
        raise ConfigError("identify requires a seed (noise realizations must "
                          "be reproducible)")
    params = dict(config.params)
    alpha = _param(params, "alpha", 0.95)
    n = _param(params, "n", 200, int)
    sigma = _param(params, "sigma", 0.1)
    gamma = _param(params, "gamma", 100.0)
    window = _param(params, "window", 600, int)
    input_kind = params.get("input", "white")
    coeffs = _param_list(params, "truth_coeffs", [4.0, -3.0])
    poles = _param_list(params, "truth_poles", [0.9, 0.8])
    gammas = sorted(set(_param_list(params, "gammas",
                                    [10.0 ** e for e in range(-2, 7)])))
    if not gammas:
        raise ConfigError("empty gamma grid")
    orders = _param_list(params, "orders", [], int)
    truth = sysid.decaying_exponential_mix(coeffs, poles, window)
    problem, f0 = sysid.simulate(truth, input_kind, n, sigma,
                                 seed=config.seed, window=window)

    kernel = StableSpline(alpha)
    spectrum = spectral.eigendecompose(truncate(kernel, window))
    rank = spectrum.rank()
    if rank == 0:
        raise ConfigError(f"'alpha' = {alpha:g} gives a zero kernel window "
                          f"(spectral rank 0); identify needs alpha > 0")
    # The main estimate and the gamma path share one kernel Gram.
    rels, *gamma_path = sysid.rels_path(problem, kernel, [gamma, *gammas])

    if "orders" not in params:
        orders = [d for d in (5, 10, 20, 50, 100, 200) if d < rank]
    orders = sorted({d for d in orders if 1 <= d <= rank} | {rank})
    short = min(20, rank)
    # Full rank, the sweep and the order-20 estimate share one projection.
    sweep = {row.order: row
             for row in sysid.sweep_d(problem, spectrum, gamma,
                                      [*orders, short], reference=rels)}
    full, best_tm = sweep[rank].estimate, sweep[short].estimate
    equivalence_gap = sweep[rank].l2_gap

    lsq_basis = basis_mod.canonical_basis(window)
    aic_orders = sorted({min(d, window) for d in (2, 5, 10, 20, 50)})
    selection = sysid.select_order(problem, lsq_basis, aic_orders)
    lsq = sysid.ls_estimate(problem, lsq_basis, selection.order)

    summary = {
        "config": config.to_dict(),
        "problem": {"n": n, "sigma": sigma, "gamma": gamma, "window": window,
                    "input": input_kind, "alpha": alpha},
        "equivalence_gap_full_rank": equivalence_gap,
        "spectral_rank": rank,
        "fits": {
            "rels": sysid.fit_percent(f0, rels.impulse_response),
            "trunc_mercer_full": sysid.fit_percent(f0, full.impulse_response),
            "ls_aic": sysid.fit_percent(f0, lsq.impulse_response),
        },
        "ls_selected_order": selection.order,
        "rss": {"rels": rels.rss, "trunc_mercer_full": full.rss,
                "ls_aic": lsq.rss},
    }
    sys.stdout.write(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    _write_json(_out_path(config.output_dir, "identify_summary.json"), summary)
    _write_csv(_out_path(config.output_dir, "sweep.csv"),
               ["d", "l2_gap_to_rels", "seminorm_gap", "cost_proxy"],
               [[d, sweep[d].l2_gap, sweep[d].seminorm_gap,
                 sweep[d].cost_proxy] for d in orders])
    _write_csv(_out_path(config.output_dir, "gamma_path.csv"),
               ["gamma", "rss", "rkhs_norm_sq", "fit_percent"],
               [[g, est.rss, est.diagnostics["rkhs_norm_sq"],
                 sysid.fit_percent(f0, est.impulse_response)]
                for g, est in zip(gammas, gamma_path)])
    _write_csv(_out_path(config.output_dir, "impulse_responses.csv"),
               ["t", "truth", "ls_aic", "rels", "trunc_mercer_20"],
               [[t + 1, f0[t], lsq.impulse_response[t],
                 rels.impulse_response[t], best_tm.impulse_response[t]]
                for t in range(window)])
    return 0


def _cmd_reconstruct(config: ExperimentConfig) -> int:
    params = dict(config.params)
    spec = _kernel_spec(config)
    d = _param(params, "d", 500, int)
    kernel = truncate(spec, d)
    spectrum = spectral.eigendecompose(kernel)
    ranks = _param_list(params, "ranks", [0, 1, 2, 5, 10, 20, 50, d], int)
    rows = []
    for r in sorted(set(min(r, d) for r in ranks)):
        _, err, tail = spectral.mercer_reconstruct(spectrum, r, reference=kernel)
        rows.append([r, err, tail])
    _write_csv(_out_path(config.output_dir, "reconstruction.csv"),
               ["rank", "frobenius_error", "tail_energy_ratio"], rows)
    return 0


HANDLERS = {
    "classify": _cmd_classify,
    "spectrum": _cmd_spectrum,
    "synth": _cmd_synth,
    "identify": _cmd_identify,
    "reconstruct": _cmd_reconstruct,
}

def _flags(command: str) -> dict[str, Any]:
    """The params keys of command that have a flag, with their types.

    List-valued keys have none, and neither has a key named like a
    top-level key: --seed is the top-level seed.
    """
    return {key: kind for key, kind in PARAM_KEYS[command].items()
            if kind is not list and key not in TOP_KEYS}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stablerkhs",
        description="Kernel stability diagnostics, truncated spectra and "
                    "regularized identification over the natural numbers.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command in HANDLERS:
        p = sub.add_parser(command)
        p.add_argument("--config", help="JSON experiment config file")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--output-dir", default=None)
        p.add_argument("--threads", type=int, default=None)
        families = " | ".join(COMMAND_SCHEMA[command][0])
        for name, kind in _flags(command).items():
            p.add_argument(f"--{name}", default=None,
                           type=kind if kind in (int, float) else None,
                           help=families if name == "kernel" else None)
    return parser


def resolve_config(args: argparse.Namespace) -> ExperimentConfig:
    """Merge a config file (if any) with command-line overrides."""
    if args.config:
        base = load_config(args.config)
        if base.command != args.command:
            raise ConfigError(f"config file is for {base.command!r}, invoked "
                              f"as {args.command!r}")
        raw = base.to_dict()
    else:
        raw = {"schema_version": 1, "command": args.command, "seed": None,
               "output_dir": None, "threads": 1, "params": {}}
    if args.seed is not None:
        raw["seed"] = args.seed
    if args.output_dir is not None:
        raw["output_dir"] = args.output_dir
    if args.threads is not None:
        raw["threads"] = args.threads
    for name in _flags(args.command):
        value = getattr(args, name, None)
        if value is not None:
            raw["params"][name] = value
    return config_from_dict(raw)


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = resolve_config(args)
        return HANDLERS[config.command](config)
    except (ConfigError, DomainError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, StructuralError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":   # pragma: no cover
    sys.exit(main())
