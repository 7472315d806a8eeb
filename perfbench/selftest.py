"""Self-test of the benchmark: every workload at a tiny size through run.py.

    python3 perfbench/selftest.py

Checks that config generation is deterministic in the seed, that the output
comparison catches changed outputs, that each workload passes its checks with
tracing off and on, that traced and untraced samples write identical outputs,
that the printed metrics are exactly those BENCHMARK.json names, and that the
traced spans nest: every self time and trace.unaccounted_s is at least 0, and
the layer self times add up to the time of the root span, cli.main.
"""

import contextlib
import io
import json
import sys

import run
from workloads import DEFAULT_SEED, HELD_OUT_SEED, WORKLOADS, config_text


def require(condition, message):
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def printed_result(argv):
    """run.main at the tiny size; its last printed line, parsed."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = run.main(argv, size="tiny")
    require(code == 0, f"run.py {' '.join(argv)} exited {code}")
    return json.loads(buffer.getvalue().strip().splitlines()[-1])


def check_generation():
    for workload in WORKLOADS.values():
        for size in ("tiny", "full"):
            text = config_text(workload.config(DEFAULT_SEED, size))
            require(text == config_text(workload.config(DEFAULT_SEED, size)),
                    f"{workload.name}: config text differs for one seed")
            require(text != config_text(workload.config(HELD_OUT_SEED, size)),
                    f"{workload.name}: config ignores the seed")


def check_comparison():
    reference = run.load_reference(WORKLOADS["poisson_greedy"])
    require(run.output_difference(reference, reference) is None, "reference differs from itself")
    header, first, *rest = reference["trace.csv"].decode().split("\n")
    columns, cells = header.split(","), first.split(",")
    for column, change, caught in (
        ("index", lambda cell: str(int(cell) + 1), True),
        ("error_a", lambda cell: repr(float(cell) * (1 + 1e-6)), True),
        ("error_a", lambda cell: repr(float(cell) * (1 + 1e-12)), False),
    ):
        changed = list(cells)
        k = columns.index(column)
        changed[k] = change(cells[k])
        outputs = dict(reference, **{
            "trace.csv": "\n".join([header, ",".join(changed), *rest]).encode()})
        found = run.output_difference(outputs, reference) is not None
        require(found == caught, f"changed {column} {cells[k]} -> {changed[k]}: caught {found}")
    short = dict(reference, **{
        "trace.csv": "\n".join([header, ",".join(cells[:-1]), *rest]).encode()})
    require(run.output_difference(short, reference) is not None,
            "a row without its last cell passes")


def check_workload(workload, names):
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        result = printed_result(["--workload", workload.name, "--seconds", "0",
                                 "--trace", str(trace)])
        require(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                f"{workload.name} trace {trace}: {result['failed']} failed samples")
        require(list(result["metrics"]) == names[kind],
                f"{workload.name} trace {trace}: metrics differ from BENCHMARK.json")
    metrics = {name: metric["value"] for name, metric in result["metrics"].items()}
    require(metrics["cli.outputs_identical"] == 1,
            f"{workload.name}: traced and untraced outputs differ")
    require(metrics["trace.errors"] == 0, f"{workload.name}: errors while traced")
    for name, value in metrics.items():
        if name.endswith("self_s") or name == "trace.unaccounted_s":
            require(value >= 0, f"{workload.name}: {name} is {value} < 0")
    layers = sum(metrics[f"layer.{layer}.self_s"] for layer in run.LAYERS)
    gap = layers - metrics["cli.main.s"]
    require(abs(gap) <= 1e-9 * metrics["cli.main.s"],
            f"{workload.name}: layer self times miss the cli.main span by {gap}")
    print(f"{workload.name}: ok")


def main():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    names = {kind: [metric["name"] for metric in spec[kind]]
             for kind in ("end_to_end", "per_layer")}
    require([w["name"] for w in spec["workloads"]] == list(WORKLOADS),
            "BENCHMARK.json workloads differ from workloads.py")
    check_generation()
    check_comparison()
    for workload in WORKLOADS.values():
        check_workload(workload, names)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
