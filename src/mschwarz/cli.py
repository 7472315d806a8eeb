"""Experiment command-line harness.

Subcommands: ``run`` (single trajectory), ``expect`` (Monte Carlo sweep plus
exact/brute-force oracle columns when applicable), ``bounds`` (bound curves
standalone), ``rate`` (log-log slope fit), ``check`` (invariant suite).
Outputs are CSV traces with a JSON metadata sidecar; identical configs
produce byte-identical files.  Exit codes: 0 success, 1 invariant or
assertion failure, 2 configuration error or input the library rejects.
"""

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (
    GreedyBoundSpec,
    RandomBoundSpec,
    bruteforce_expected_error,
    exact_expected_error,
    fit_rate,
    greedy_bound,
    mc_expected_error,
    random_bound,
)
from .config import MAX_SEED, ConfigError, parse_config, serialize
from .diagonal import DiagonalModel, a1_norm, ainfty_pi_norm
from .problems import (
    MatrixSchwarzModel,
    energy_norm,
    local_solve,
    representation_block_norms,
    stability_constants,
    uniform_bound_lambda,
)
from .solver import GreedyRule, PureRelaxation, RandomRule, iterate, run

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2

BOUND_SLACK = 1e-9


def _fmt(x):
    """17-significant-digit decimal serialization (ints stay integral)."""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return "%.17g" % float(x)


def _write_csv(path, header, columns):
    """Write columns (already formatted strings or numeric arrays) as CSV."""
    rows = len(columns[0])
    cells = []
    for col in columns:
        cells.append([v if isinstance(v, str) else _fmt(v) for v in col])
    lines = [",".join(header)]
    for r in range(rows):
        lines.append(",".join(col[r] for col in cells))
    Path(path).write_text("\n".join(lines) + "\n")


def _config_hash(config):
    return hashlib.sha256(serialize(config).encode()).hexdigest()


def _model_metadata(config, model):
    """Uniform bound, stability constants and class norms for the sidecar.

    For matrix splittings the class norms come from one explicit (minimum
    energy) representation of u*, so they are upper estimates and flagged as
    such; the diagonal model's norms are exact.  Returns the sidecar dict and
    the per-component norms of that representation (None for the diagonal
    model).
    """
    meta = {
        "tool": "mschwarz",
        "version": __version__,
        "rng": "PCG64",
        "config_hash": _config_hash(config),
        "seed": config.data["seed"],
    }
    block = None
    if isinstance(model, DiagonalModel):
        meta["lambda"] = 1.0
        meta["stability"] = {"lam_min": 1.0, "lam_max": 1.0, "kappa": 1.0}
        meta["a_norms"] = {
            "norm_a": model.solution_norm(),
            "a1": a1_norm(model),
            "estimate": "exact",
        }
    else:
        lam = uniform_bound_lambda(model.problem, model.splitting)
        block = representation_block_norms(
            model.problem, model.splitting, model.problem.exact_solution
        )
        sc = stability_constants(model.problem, model.splitting)
        meta["lambda"] = lam
        meta["stability"] = {
            "lam_min": sc.lam_min,
            "lam_max": sc.lam_max,
            "kappa": sc.kappa if np.isfinite(sc.kappa) else None,
        }
        meta["a_norms"] = {
            "norm_a": model.solution_norm(),
            "a1": float(block.sum()),
            "estimate": "upper-estimate",
        }
    return meta, block


def _bound_evaluator(config, model, meta, block):
    """(column name, callable m -> bound) for the configured selection rule.

    ``meta`` and ``block`` are what :func:`_model_metadata` returned.  Returns
    None when no a-priori bound applies (deterministic sequences).
    """
    sel = config.data["selection"]
    norm_a = meta["a_norms"]["norm_a"]
    lam = meta["lambda"]
    if sel["kind"] == "greedy":
        spec = GreedyBoundSpec(
            norm_a=norm_a, lam=lam, beta=float(sel["beta"]), a1=meta["a_norms"]["a1"]
        )
        return "greedy_bound", (lambda m: greedy_bound(m, spec))
    if sel["kind"] == "random":
        _, base = config.build_distribution(model)
        if isinstance(model, DiagonalModel):
            ainf = ainfty_pi_norm(model, base)
        else:
            ainf = 0.0
            for c, nrm in zip(model.splitting, block):
                if nrm == 0.0:
                    continue
                p = base.prob(int(c.index))
                ainf = float("inf") if p == 0.0 else max(ainf, nrm / p)
        meta["a_norms"]["ainf_pi"] = ainf
        spec = RandomBoundSpec(norm_a=norm_a, lam=lam, ainf=ainf)
        return "random_bound", (lambda m: random_bound(m, spec))
    return None


def _build(config):
    model = config.build_model()
    selection = config.build_selection(model)
    relaxation = config.build_relaxation()
    return model, selection, relaxation


def _out_paths(config, args, default_trace):
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    outputs = config.data.get("outputs", {})
    trace = out / outputs.get("trace", default_trace)
    summary = out / outputs.get("summary", "summary.json")
    return trace, summary


def _write_summary(path, meta, extra=None):
    payload = dict(meta)
    if extra:
        payload.update(extra)
    Path(path).write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


# ---------------------------------------------------------------------------
# subcommands

def _cmd_run(config, args):
    model, selection, relaxation = _build(config)
    trace = run(model, selection, relaxation, config.data["steps"], config.data["seed"])
    meta, block = _model_metadata(config, model)
    header = ["m", "index", "alpha", "omega", "local_norm", "error_a", "error_a_sq"]
    ms = np.arange(trace.steps + 1)
    columns = [
        ms,
        trace.index,
        trace.alpha,
        trace.omega,
        trace.local_norm,
        trace.error,
        trace.error_sq,
    ]
    bound = _bound_evaluator(config, model, meta, block) if config.data["bounds"] else None
    if bound is not None:
        name, fn = bound
        vals = fn(ms)
        header.append(name)
        columns.append(vals)
    trace_path, summary_path = _out_paths(config, args, "trace.csv")
    _write_csv(trace_path, header, columns)
    _write_summary(summary_path, meta)
    print(f"wrote {trace_path}")
    print(f"wrote {summary_path}")
    if args.assert_bounds:
        if bound is None:
            print("run: --assert-bounds set but no bound applies", file=sys.stderr)
            return EXIT_CONFIG
        bad = np.nonzero(trace.error_sq > vals + BOUND_SLACK)[0]
        if bad.size:
            m = int(bad[0])
            print(
                f"run: bound violated at m={m}: "
                f"error_sq={trace.error_sq[m]!r} > bound={vals[m]!r}",
                file=sys.stderr,
            )
            return EXIT_FAIL
    return EXIT_OK


def _cmd_expect(config, args):
    if config.data["trials"] < 2:
        print("expect: trials must be >= 2 for a standard error", file=sys.stderr)
        return EXIT_CONFIG
    model, selection, relaxation = _build(config)
    M = config.data["steps"]
    est = mc_expected_error(
        model, selection, relaxation, M, config.data["trials"], config.data["seed"]
    )
    meta, block = _model_metadata(config, model)
    ms = np.arange(M + 1)
    header = ["m", "mean_err_sq", "stderr", "K"]
    columns = [ms, est.mean, est.stderr, [str(est.trials)] * (M + 1)]
    bound = _bound_evaluator(config, model, meta, block) if config.data["bounds"] else None
    if bound is not None:
        name, fn = bound
        vals = fn(ms)
        header.append(name)
        columns.append(vals)
    # oracle columns for the orthonormal model under a fixed distribution
    exact_vals = None
    if (
        isinstance(model, DiagonalModel)
        and isinstance(selection, RandomRule)
        and isinstance(relaxation, PureRelaxation)
        and not callable(selection.schedule)
    ):
        pi = selection.schedule
        exact_vals = exact_expected_error(model, pi, ms)
        header.append("exact")
        columns.append(exact_vals)
        n = pi.support_bound()
        if n is not None and n <= 4:
            header.append("bruteforce")
            columns.append(
                [
                    _fmt(bruteforce_expected_error(model, pi, m)) if m <= 8 else ""
                    for m in range(M + 1)
                ]
            )
    trace_path, summary_path = _out_paths(config, args, "expect.csv")
    _write_csv(trace_path, header, columns)
    _write_summary(summary_path, meta, {"trials": est.trials})
    print(f"wrote {trace_path}")
    print(f"wrote {summary_path}")
    if args.assert_bounds:
        if bound is None:
            print("expect: --assert-bounds set but no bound applies", file=sys.stderr)
            return EXIT_CONFIG
        bad = np.nonzero(est.mean > vals + 3.0 * est.stderr + BOUND_SLACK)[0]
        if bad.size:
            m = int(bad[0])
            print(
                f"expect: bound violated at m={m}: "
                f"mean={est.mean[m]!r} > bound={vals[m]!r} + 3*stderr",
                file=sys.stderr,
            )
            return EXIT_FAIL
    return EXIT_OK


def _cmd_bounds(config, args):
    model = config.build_model()
    meta, block = _model_metadata(config, model)
    bound = _bound_evaluator(config, model, meta, block)
    if bound is None:
        print("bounds: no a-priori bound for deterministic selection", file=sys.stderr)
        return EXIT_CONFIG
    name, fn = bound
    ms = np.arange(config.data["steps"] + 1)
    trace_path, summary_path = _out_paths(config, args, "bounds.csv")
    _write_csv(trace_path, ["m", name], [ms, fn(ms)])
    _write_summary(summary_path, meta)
    print(f"wrote {trace_path}")
    print(f"wrote {summary_path}")
    return EXIT_OK


def _cmd_rate(config, args):
    model, selection, relaxation = _build(config)
    trace = run(model, selection, relaxation, config.data["steps"], config.data["seed"])
    window = config.data.get("rate_fit")
    m_range = (window["lo"], window["hi"]) if window else None
    fit = fit_rate(trace.error, m_range)
    meta, _ = _model_metadata(config, model)
    _, summary_path = _out_paths(config, args, "rate.csv")
    _write_summary(
        summary_path,
        meta,
        {
            "rate_fit": {
                "slope": None if np.isnan(fit.slope) else fit.slope,
                "intercept": None if np.isnan(fit.intercept) else fit.intercept,
                "residual": fit.residual,
                "converged_exactly": fit.converged_exactly,
            }
        },
    )
    if fit.converged_exactly:
        print("slope: converged exactly (zero error in fit window)")
    else:
        print(f"slope {_fmt(fit.slope)}")
    print(f"wrote {summary_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# invariant suite (`check`)

def _clone_state(model, state):
    clone = model.new_state()
    clone.u = state.u.copy()
    if hasattr(state, "w"):
        clone.w = state.w.copy()
    clone.steps = state.steps
    return clone


def _error_after(model, state, res, alpha, omega):
    clone = _clone_state(model, state)
    model.apply_update(clone, res, alpha, omega)
    return model.error(clone)


def _check_omega_optimality(model, selection, relaxation, steps, seed):
    """Three-point test: perturbing omega can only increase the step error."""
    for _, state, res, a, w in iterate(model, selection, relaxation, steps, seed):
        base = _error_after(model, state, res, a, w)
        delta = max(abs(w), 1.0) * 1e-3
        for wp in (w - delta, w + delta):
            if _error_after(model, state, res, a, wp) < base - 1e-10 * (1 + base):
                return False
    return True


def _fresh_local_norms(model, state, indices):
    """The pool's local norms one component at a time, not through the
    model's pool scan, so that the scan is checked against an independent
    computation."""
    if isinstance(model, MatrixSchwarzModel):
        g = model.problem.b - state.w
        return np.array([local_solve(model.problem, model.splitting[i], g).local_norm
                         for i in indices])
    return np.array([model.local_residual(state, i).local_norm for i in indices])


def _check_greedy_compliance(model, rule, relaxation, steps, seed):
    for m, state, res, _, _ in iterate(model, rule, relaxation, steps, seed):
        indices = np.asarray(rule.pool.indices(model, state, m))
        norms = _fresh_local_norms(model, state, indices)
        if res.local_norm < rule.beta * norms.max() - 1e-12 * (1 + norms.max()):
            return False
    return True


def _cmd_check(config, args):
    model, selection, relaxation = _build(config)
    short = min(config.data["steps"], 100)
    seed = config.data["seed"]
    results = []

    reparsed = parse_config(serialize(config))
    results.append(("config round-trip", reparsed == config))

    t1 = run(model, selection, relaxation, short, seed)
    t2 = run(config.build_model(), config.build_selection(model), relaxation, short, seed)
    results.append(
        (
            "determinism",
            bool(
                np.array_equal(t1.index, t2.index)
                and np.array_equal(t1.error, t2.error)
            ),
        )
    )

    if isinstance(relaxation, PureRelaxation):
        mono = bool(np.all(np.diff(t1.error) <= 1e-10 * (t1.error[0] + 1.0)))
        results.append(("pure-step monotonicity", mono))

    omega_ok = _check_omega_optimality(model, selection, relaxation, min(short, 25), seed)
    results.append(("omega optimality", omega_ok))

    if isinstance(selection, GreedyRule):
        greedy_ok = _check_greedy_compliance(model, selection, relaxation, min(short, 50), seed)
        results.append(("greedy compliance", greedy_ok))

    metadata = _model_metadata(config, model) if config.data["bounds"] else None

    if isinstance(model, MatrixSchwarzModel):
        sc = stability_constants(model.problem, model.splitting)
        results.append(("stability lam_min > 0", sc.lam_min > 0.0))
        lam = uniform_bound_lambda(model.problem, model.splitting)
        rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0xC0DE]))
        ok = True
        for c in model.splitting:
            v = rng.standard_normal(c.dim)
            lhs = energy_norm(model.problem, c.prolong(v))
            rhs = lam * np.sqrt(max(c.local_inner(v, v), 0.0))
            if lhs > rhs * (1.0 + 1e-10):
                ok = False
        results.append(("uniform bound certificate", ok))

    if metadata is not None:
        bound = _bound_evaluator(config, model, *metadata)
        if bound is not None:
            _, fn = bound
            vals = fn(np.arange(short + 1))
            results.append(
                ("bound compliance", bool(np.all(t1.error_sq <= vals + BOUND_SLACK)))
            )

    failed = [name for name, ok in results if not ok]
    for name, ok in results:
        print(f"{'PASS' if ok else 'FAIL'} {name}")
    return EXIT_OK if not failed else EXIT_FAIL


# ---------------------------------------------------------------------------
# entry point

def _parser():
    parser = argparse.ArgumentParser(
        prog="mschwarz",
        description="Greedy and randomized multiplicative Schwarz experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in [
        ("run", "single trajectory to a trace CSV"),
        ("expect", "Monte Carlo expectation sweep (plus oracles when exact)"),
        ("bounds", "emit the a-priori bound curve standalone"),
        ("rate", "fit and print the log-log convergence slope"),
        ("check", "run the invariant suite applicable to the config"),
    ]:
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", required=True, help="path to a YAML config")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=".", help="output directory")
        if name in ("run", "expect"):
            p.add_argument(
                "--assert-bounds",
                action="store_true",
                help="exit 1 if the run violates its a-priori bound",
            )
    return parser


_COMMANDS = {
    "run": _cmd_run,
    "expect": _cmd_expect,
    "bounds": _cmd_bounds,
    "rate": _cmd_rate,
    "check": _cmd_check,
}


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        text = Path(args.config).read_text()
    except OSError as exc:
        print(f"config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        config = parse_config(text)
        if args.seed is not None:
            if not 0 <= args.seed <= MAX_SEED:
                raise ConfigError(["--seed: must be a 64-bit unsigned integer"])
            config.data["seed"] = args.seed
        return _COMMANDS[args.command](config, args)
    except ConfigError as exc:
        for err in exc.errors:
            print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:
        # e.g. trace arrays for a step count no machine can hold
        print(f"{args.command}: out of memory: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
