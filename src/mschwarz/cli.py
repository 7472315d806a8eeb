"""Experiment command-line harness.

Subcommands: ``run`` (single trajectory), ``expect`` (Monte Carlo sweep plus
exact/brute-force oracle columns when applicable), ``bounds`` (bound curves
standalone), ``rate`` (log-log slope fit), ``check`` (invariant suite).
Outputs are CSV traces with a JSON metadata sidecar; identical configs
produce byte-identical files at a fixed BLAS thread count.  Exit codes: 0
success, 1 invariant or assertion failure, 2 configuration error, input the
library rejects or an output that cannot be written.
"""

import argparse
import copy
import errno
import json
import os
import sys
from pathlib import Path

# CPython's built-in SHA-256 gives hashlib.sha256's digest without loading
# OpenSSL's _hashlib (3.4 MB of RSS); hashlib is the fallback for an
# interpreter built without it
try:
    from _sha2 import sha256  # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10-3.11
    except ImportError:
        from hashlib import sha256

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
from .diagonal import DiagonalModel, a1_norm, ainfty_pi_norm, sup_norm_over_pi
from .problems import (
    MatrixSchwarzModel,
    energy_norm,
    representation_block_norms,
    stability_constants,
    uniform_bound_lambda,
)
from .solver import GreedyRule, PureRelaxation, RandomRule, _import_numpy_random, iterate, run

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2

BOUND_SLACK = 1e-9
CSV_BLOCK_ROWS = 4096
# the default name of each command's CSV; ``rate`` and ``check`` write none
_CSV_NAMES = {"run": "trace.csv", "expect": "expect.csv", "bounds": "bounds.csv"}


def _fmt(x):
    """17-significant-digit decimal serialization (ints stay integral)."""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return "%.17g" % float(x)


def _write_csv(path, header, columns):
    """Write columns (integer or float arrays, or lists of formatted strings)
    as CSV, CSV_BLOCK_ROWS rows at a time.

    One ``%`` row format per table gives each cell the text :func:`_fmt`
    gives it, so only a block of cells is held as Python objects.
    """
    columns = [np.asarray(col) for col in columns]
    spec = {"i": "%d", "f": "%.17g", "U": "%s"}
    row = ",".join(spec[col.dtype.kind] for col in columns) + "\n"
    B = CSV_BLOCK_ROWS
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for s in range(0, len(columns[0]), B):
            fh.write("".join(row % r for r in zip(*(col[s:s + B].tolist() for col in columns))))


def _model_metadata(config, model, ms=None):
    """The sidecar's metadata and the a-priori bound at each m of ``ms``.

    The sidecar holds the uniform bound, the stability constants and the
    class norms.  For matrix splittings the class norms come from one
    explicit (minimum energy) representation of u*, so they are upper
    estimates and flagged as such; the diagonal model's norms are exact.
    Returns ``(meta, bound)``: ``bound`` is (column name, values) for the
    configured selection rule, None when ``ms`` is None or no bound applies
    (deterministic sequences).  The random rule's bound adds its class
    norm ``ainf_pi`` to the sidecar.
    """
    meta = {
        "tool": "mschwarz",
        "version": __version__,
        "rng": "PCG64",
        "config_hash": sha256(serialize(config).encode()).hexdigest(),
        "seed": config.data["seed"],
    }
    norm_a = model.solution_norm()
    if isinstance(model, DiagonalModel):
        lam, block = 1.0, None
        meta["stability"] = {"lam_min": 1.0, "lam_max": 1.0, "kappa": 1.0}
        meta["a_norms"] = {"norm_a": norm_a, "a1": a1_norm(model), "estimate": "exact"}
    else:
        lam = uniform_bound_lambda(model.problem, model.splitting)
        block = representation_block_norms(
            model.problem, model.splitting, model.problem.exact_solution
        )
        sc = stability_constants(model.problem, model.splitting)
        meta["stability"] = {
            "lam_min": sc.lam_min,
            "lam_max": sc.lam_max,
            "kappa": sc.kappa if np.isfinite(sc.kappa) else None,
        }
        meta["a_norms"] = {"norm_a": norm_a, "a1": float(block.sum()),
                           "estimate": "upper-estimate"}
    meta["lambda"] = lam
    sel = config.data["selection"]
    if ms is None or sel["kind"] not in ("greedy", "random"):
        return meta, None
    if sel["kind"] == "greedy":
        spec = GreedyBoundSpec(
            norm_a=norm_a, lam=lam, beta=float(sel["beta"]), a1=meta["a_norms"]["a1"]
        )
        return meta, ("greedy_bound", greedy_bound(ms, spec))
    _, base = config.build_distribution(model)
    if block is None:
        ainf = ainfty_pi_norm(model, base)
    else:
        ainf = sup_norm_over_pi([c.index for c in model.splitting], block, base)
    meta["a_norms"]["ainf_pi"] = ainf if np.isfinite(ainf) else None  # strict JSON
    spec = RandomBoundSpec(norm_a=norm_a, lam=lam, ainf=ainf)
    return meta, ("random_bound", random_bound(ms, spec))


def _build(config):
    model = config.build_model()
    selection = config.build_selection(model)
    relaxation = config.build_relaxation()
    return model, selection, relaxation


def _output_paths(config, args):
    """The files the command writes into ``--out``: its CSV, if it has one,
    then the summary sidecar; ``check`` writes none."""
    if args.command == "check":
        return []
    out = Path(args.out)
    outputs = config.data.get("outputs", {})
    csv = _CSV_NAMES.get(args.command)
    paths = [] if csv is None else [out / outputs.get("trace", csv)]
    return paths + [out / outputs.get("summary", "summary.json")]


def _prepare_outputs(args, paths):
    """Create ``--out`` and raise the ``OSError`` of an output that could
    not be written: its directory is missing or not a directory, or it is
    a directory itself.  Called before the first step, so that a config
    with such an output takes none."""
    if not paths:
        return
    Path(args.out).mkdir(parents=True, exist_ok=True)
    for path in paths:
        if not path.parent.is_dir():
            raise FileNotFoundError(errno.ENOENT, "no such directory", str(path.parent))
        if path.is_dir():
            raise IsADirectoryError(errno.EISDIR, "is a directory", str(path))


def _write_outputs(config, args, meta, header=None, columns=None, extra=None):
    """Write the CSV (when the command has one), then the summary sidecar
    with ``extra`` merged in, into ``--out`` (see ``_prepare_outputs``);
    print one ``wrote`` line per file."""
    *csv, summary = _output_paths(config, args)
    if csv:
        _write_csv(csv[0], header, columns)
    payload = dict(meta, **(extra or {}))
    summary.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    for path in csv + [summary]:
        print(f"wrote {path}")


def _assert_bound(args, bound, observed, limit, what):
    """The exit code of ``--assert-bounds``: EXIT_CONFIG when no bound
    applies, EXIT_FAIL at the first m with observed > limit + BOUND_SLACK
    (reported through the format ``what`` of observed[m] and bound[m]),
    else EXIT_OK."""
    if not args.assert_bounds:
        return EXIT_OK
    if bound is None:
        print(f"{args.command}: --assert-bounds set but no bound applies", file=sys.stderr)
        return EXIT_CONFIG
    bad = np.nonzero(observed > limit + BOUND_SLACK)[0]
    if bad.size:
        m = int(bad[0])
        print(f"{args.command}: bound violated at m={m}: {what.format(observed[m], bound[m])}",
              file=sys.stderr)
        return EXIT_FAIL
    return EXIT_OK


# ---------------------------------------------------------------------------
# subcommands

def _cmd_run(config, args):
    model, selection, relaxation = _build(config)
    trace = run(model, selection, relaxation, config.data["steps"], config.data["seed"])
    ms = np.arange(trace.steps + 1)
    meta, bound = _model_metadata(config, model, ms if config.data["bounds"] else None)
    header = ["m", "index", "alpha", "omega", "local_norm", "error_a", "error_a_sq"]
    columns = [ms, trace.index, trace.alpha, trace.omega, trace.local_norm, trace.error,
               trace.error_sq]
    vals = None if bound is None else bound[1]
    if bound is not None:
        header.append(bound[0])
        columns.append(vals)
    _write_outputs(config, args, meta, header, columns)
    return _assert_bound(args, vals, trace.error_sq, vals, "error_sq={!r} > bound={!r}")


def _cmd_expect(config, args):
    if config.data["trials"] < 2:
        print("expect: trials must be >= 2 for a standard error", file=sys.stderr)
        return EXIT_CONFIG
    model, selection, relaxation = _build(config)
    M = config.data["steps"]
    est = mc_expected_error(
        model, selection, relaxation, M, config.data["trials"], config.data["seed"]
    )
    ms = np.arange(M + 1)
    meta, bound = _model_metadata(config, model, ms if config.data["bounds"] else None)
    header = ["m", "mean_err_sq", "stderr", "K"]
    columns = [ms, est.mean, est.stderr, np.full(M + 1, est.trials)]
    vals = limit = None
    if bound is not None:
        vals, limit = bound[1], bound[1] + 3.0 * est.stderr
        header.append(bound[0])
        columns.append(vals)
    # oracle columns for the orthonormal model under a fixed distribution
    if (
        isinstance(model, DiagonalModel)
        and isinstance(selection, RandomRule)
        and isinstance(relaxation, PureRelaxation)
        and not callable(selection.schedule)
    ):
        pi = selection.schedule
        header.append("exact")
        columns.append(exact_expected_error(model, pi, ms))
        n = pi.support_bound()
        if n is not None and n <= 4:
            header.append("bruteforce")
            columns.append(
                [
                    _fmt(bruteforce_expected_error(model, pi, m)) if m <= 8 else ""
                    for m in range(M + 1)
                ]
            )
    _write_outputs(config, args, meta, header, columns, {"trials": est.trials})
    return _assert_bound(args, vals, est.mean, limit, "mean={!r} > bound={!r} + 3*stderr")


def _cmd_bounds(config, args):
    model = config.build_model()
    ms = np.arange(config.data["steps"] + 1)
    meta, bound = _model_metadata(config, model, ms)
    if bound is None:
        print("bounds: no a-priori bound for deterministic selection", file=sys.stderr)
        return EXIT_CONFIG
    _write_outputs(config, args, meta, ["m", bound[0]], [ms, bound[1]])
    return EXIT_OK


def _cmd_rate(config, args):
    model, selection, relaxation = _build(config)
    trace = run(model, selection, relaxation, config.data["steps"], config.data["seed"])
    window = config.data.get("rate_fit")
    m_range = (window["lo"], window["hi"]) if window else None
    fit = fit_rate(trace.error, m_range)
    meta, _ = _model_metadata(config, model)
    if fit.converged_exactly:
        print("slope: converged exactly (zero error in fit window)")
    else:
        print(f"slope {_fmt(fit.slope)}")
    rate_fit = {
        "slope": None if np.isnan(fit.slope) else fit.slope,
        "intercept": None if np.isnan(fit.intercept) else fit.intercept,
        "residual": fit.residual,
        "converged_exactly": fit.converged_exactly,
    }
    _write_outputs(config, args, meta, extra={"rate_fit": rate_fit})
    return EXIT_OK


# ---------------------------------------------------------------------------
# invariant suite (`check`)

def _error_after(model, state, res, alpha, omega):
    """The error after one step applied to a copy of ``state``."""
    clone = copy.deepcopy(state)
    model.apply_update(clone, res, alpha, omega)
    return model.error(clone)


def _check_steps(model, selection, relaxation, short, seed):
    """The per-step checks on one run: omega optimality over the first 25
    steps, and for a greedy rule greedy compliance over the first 50.

    Omega optimality is a three-point test (perturbing omega can only
    increase the step error); greedy compliance compares the pick with the
    pool's norms from per-component solves.  A NaN comparison passes.
    Returns (omega_ok, greedy_ok), greedy_ok None for other rules.
    """
    greedy = isinstance(selection, GreedyRule)
    omega_ok, greedy_ok = True, True if greedy else None
    steps = min(short, 50 if greedy else 25)
    for m, state, res, a, w in iterate(model, selection, relaxation, steps, seed):
        if omega_ok and m < 25:
            base = _error_after(model, state, res, a, w)
            delta = max(abs(w), 1.0) * 1e-3
            omega_ok = not any(_error_after(model, state, res, a, wp) < base - 1e-10 * (1 + base)
                               for wp in (w - delta, w + delta))
        if greedy_ok:
            # one solve per component, not the model's pool scan, which this checks
            pool = model.default_pool_indices()[:selection.pool.size(model, m)]
            norms = np.array([model.local_residual(state, i).local_norm for i in pool])
            greedy_ok = not (res.local_norm
                             < selection.beta * norms.max() - 1e-12 * (1 + norms.max()))
        if not omega_ok and not greedy_ok:
            break
    return omega_ok, greedy_ok


def _cmd_check(config, args):
    short = min(config.data["steps"], 100)
    seed = config.data["seed"]
    # the determinism check's second run, on a build of its own; it runs
    # first, so that its model is freed before the checked one is built
    t2 = run(*_build(config), short, seed)
    model, selection, relaxation = _build(config)
    results = []

    reparsed = parse_config(serialize(config))
    results.append(("config round-trip", reparsed == config))

    t1 = run(model, selection, relaxation, short, seed)
    same = np.array_equal(t1.index, t2.index) and np.array_equal(t1.error, t2.error)
    results.append(("determinism", bool(same)))

    if isinstance(relaxation, PureRelaxation):
        mono = bool(np.all(np.diff(t1.error) <= 1e-10 * (t1.error[0] + 1.0)))
        results.append(("pure-step monotonicity", mono))

    omega_ok, greedy_ok = _check_steps(model, selection, relaxation, short, seed)
    results.append(("omega optimality", omega_ok))
    if greedy_ok is not None:
        results.append(("greedy compliance", greedy_ok))

    meta, bound = _model_metadata(config, model,
                                  np.arange(short + 1) if config.data["bounds"] else None)

    if isinstance(model, MatrixSchwarzModel):
        results.append(("stability lam_min > 0", meta["stability"]["lam_min"] > 0.0))
        lam = meta["lambda"]
        _import_numpy_random()
        rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0xC0DE]))
        ok = True
        for c in model.splitting:
            v = rng.standard_normal(c.dim)
            lhs = energy_norm(model.problem, c.prolong(v))
            rhs = lam * np.sqrt(max(c.local_inner(v, v), 0.0))
            if lhs > rhs * (1.0 + 1e-10):
                ok = False
        results.append(("uniform bound certificate", ok))

    if bound is not None:
        results.append(("bound compliance", bool(np.all(t1.error_sq <= bound[1] + BOUND_SLACK))))

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
        text = Path(args.config).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        print(f"config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        config = parse_config(text)
        if args.seed is not None:
            if not 0 <= args.seed <= MAX_SEED:
                raise ConfigError(["--seed: must be a 64-bit unsigned integer"])
            config.data["seed"] = args.seed
        paths = _output_paths(config, args)
        if len({os.path.realpath(path) for path in paths}) < len(paths):
            raise ConfigError([f"outputs: the trace and the summary are one file, {paths[-1]}"])
        _prepare_outputs(args, paths)
        return _COMMANDS[args.command](config, args)
    except ConfigError as exc:
        for err in exc.errors:
            print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"{args.command}: cannot write the outputs: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:
        # e.g. trace arrays for a step count no machine can hold
        print(f"{args.command}: out of memory: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
