"""natkit benchmark: one run of one workload.

    python3 perfbench/run.py --workload train|translate|score --seed N \
        --seconds S --trace 0|1

Run from the root of a natkit checkout. A run builds its inputs from the
seed (the set-up), measures, checks every output, and prints one JSON
object as the last line of standard output: ``correct``, ``attempted``,
``failed`` and ``metrics`` -- the end-to-end metrics with ``--trace 0``,
the per-layer metrics from spans with ``--trace 1``.

Every run measures every stage, so that every run reports every metric; the
workload names the stages that get twice the others' share of the time. Files go to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import resource
import shutil
import sys
import time

import common

# the stages each workload gives twice the others' share of the run
WORKLOADS = {"train": ("train",), "translate": ("translate",), "score": ("score", "ter")}
FOCUS_WEIGHT = 2.0


def seconds_since_process_start() -> float:
    """Wall time since the kernel started this process (Linux)."""
    with open("/proc/self/stat", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    started = int(fields[19]) / os.sysconf("SC_CLK_TCK")  # field 22: starttime
    return time.clock_gettime(time.CLOCK_BOOTTIME) - started


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not 1 <= args.seconds <= 600:
        p.error("--seconds must lie in [1, 600]")
    return args


def measure(stages: dict, focus: tuple[str, ...], seconds: float) -> None:
    """Interleave the stages' units until ``seconds`` have passed.

    Each next unit comes from the stage that has used the least time for
    its weight: the focus stages weigh FOCUS_WEIGHT, the others 1. Once
    time is up no stage starts a new round, and the rounds under way run to
    their end, so every stage does whole rounds.
    """
    weight = {name: FOCUS_WEIGHT if name in focus else 1.0 for name in stages}
    used = dict.fromkeys(stages, 0.0)
    pending = {name: collections.deque() for name in stages}
    start = time.perf_counter()
    while True:
        over = time.perf_counter() - start >= seconds
        ready = []
        for name, stage in stages.items():
            if not pending[name] and not (over and stage.rounds >= stage.min_rounds):
                pending[name].extend(stage.round_units())
            if pending[name]:
                ready.append(name)
        if not ready:
            return
        name = min(ready, key=lambda n: used[n] / weight[n])
        t = time.perf_counter()
        pending[name].popleft()()
        used[name] += time.perf_counter() - t
        if not pending[name]:
            stages[name].rounds += 1


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        common.use_checkout_natkit()
        declared = json.loads((common.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (common.SetupError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    e2e_units = {m["name"]: m["unit"] for m in declared["end_to_end"]}

    import layers
    import stages as st
    import tracer

    rec = tracer.Recorder(enabled=bool(args.trace))
    common.OUT_DIR.mkdir(exist_ok=True)
    workdir = common.OUT_DIR / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        stages = {
            "train": st.TrainStage(args.seed, rec),
            "translate": st.TranslateStage(args.seed, rec),
            "score": st.ScoreStage(args.seed, rec, workdir),
            "ter": st.TerStage(args.seed, rec, workdir),
        }
        if args.trace:
            hooks = {}
            for stage in stages.values():
                hooks.update(stage.hooks())
            tracer.install(rec, hooks)
        setup_s = seconds_since_process_start()

        measure(stages, WORKLOADS[args.workload], args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        rec.enabled = False  # checks are not part of any span
        for stage in stages.values():
            stage.check()
        e2e = {"setup_s": setup_s, "peak_rss_mb": peak_rss_mb}
        for stage in stages.values():
            e2e.update(stage.end_to_end())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    problems = [p for stage in stages.values() for p in stage.problems]
    for line in problems:
        sys.stderr.write(f"check failed: {line}\n")
    reference = stages["translate"].reference_figures()
    rounds = {name: stage.rounds for name, stage in stages.items()}
    if args.trace:
        spans = tracer.Spans(rec)
        metrics = layers.compute(spans, stages["train"], stages["translate"])
        units = {m["name"]: m["unit"] for m in declared["per_layer"]}
    else:
        metrics, units = e2e, e2e_units
    if set(metrics) != set(units):
        sys.stderr.write(f"error: measured {sorted(metrics)}, BENCHMARK.json declares {sorted(units)}\n")
        return 2
    if args.trace:
        rec.write(common.OUT_DIR / f"spans-{args.workload}.tsv")
        table = layers.table(metrics, units, spans, stages["ter"].refs)
        table += overhead_table(args.workload, e2e, e2e_units)
        (common.OUT_DIR / f"layers-{args.workload}.tsv").write_text(
            f"# per-layer metrics, workload {args.workload}, seed {args.seed}\n" + table,
            encoding="utf-8")
    result = {
        "correct": not problems,
        "attempted": sum(s.attempted for s in stages.values()),
        "failed": sum(s.failed for s in stages.values()),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    samples = {name: stage.samples() for name, stage in stages.items()}
    record = dict(result, seed=args.seed, seconds=args.seconds, rounds=rounds,
                  end_to_end=e2e, reference=reference, samples=samples)
    out = common.OUT_DIR / f"result-{args.workload}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    sys.stderr.write(f"rounds {rounds}; AT/CTC p50 ratio {reference['at_over_ctc_p50']:.1f}; "
                     f"exact match AT {reference['at_exact_match']:.3f}, "
                     f"CTC {reference['ctc_exact_match']:.3f}\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def overhead_table(workload: str, traced: dict, units: dict) -> str:
    """Traced minus untraced end-to-end figures, against the last untraced
    run of the same workload."""
    lines = ["", "# tracing overhead: traced minus untraced end-to-end value"]
    untraced = common.OUT_DIR / f"result-{workload}-trace0.json"
    if not untraced.is_file():
        return "\n".join(lines + ["# no untraced run of this workload yet: run with --trace 0 first", ""])
    base = json.loads(untraced.read_text(encoding="utf-8"))
    lines += [f"# untraced run: seed {base['seed']}, {base['seconds']} s",
              "metric\ttraced\tuntraced\ttraced-untraced\tunit"]
    for name, unit in units.items():
        t, u = traced[name], base["end_to_end"][name]
        lines.append(f"{name}\t{t:.6g}\t{u:.6g}\t{t - u:+.6g}\t{unit}")
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    sys.exit(main())
