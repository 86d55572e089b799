"""The traced run: per-layer metrics from spans, ablations and
same-run ratios.

:func:`traced_run` does three things in one process:

1. runs the workload's own operations with spans (executor workloads at
   ``jobs = 1``, so spans land here), interleaved with untraced runs of
   the same operations; the rate difference is the tracing overhead;
2. runs the layer suite with spans: the per-cycle ablation ladder on
   both engines, a checkpointed and journalled cycle-tier campaign, a
   TLM campaign, TLM validation and a fuzz campaign;
3. measures the same-run ratios (``compiled.speedup``,
   ``power.powertest_ratio.<e>``, ``exec.scaling.<tier>``,
   ``tlm.speedup``), each from interleaved arms with its A/A spread.

Every traced run reports the whole per-layer set whatever its workload,
so the per-layer metrics of any two runs line up.
"""

from __future__ import annotations

import gc
import os
import shutil
import time

from . import stats
from .spans import Spans
from .workloads import CYCLES_PER_US, NPROC, Campaign, Fuzz, run_for

ENGINES = ("interpreted", "compiled")

#: Ablation ladder: each rung adds one layer to the one before.
RUNGS = ("models", "power", "protocol", "telemetry", "kernel")
LADDER_ROUNDS = 6
LADDER_WARM_CYCLES = 200
LADDER_CYCLES = 1000

SCALING_PAIRS = {"cycle": 2, "tlm": 6}
VALIDATION_ROUNDS = 3
PROBE_ROUNDS = 2
PROBE_SPECS = 8


#: Every per-layer metric: name -> (unit, which direction is better).
PER_LAYER = {}
for _engine in ENGINES:
    PER_LAYER.update({
        "amba.us_per_cycle." + _engine: ("us", "lower"),
        "power.us_per_cycle." + _engine: ("us", "lower"),
        "power.powertest_ratio." + _engine: ("ratio", "lower"),
        "power.powertest_ratio.%s.aa" % _engine: ("fraction", "lower"),
        "protocol.us_per_cycle." + _engine: ("us", "lower"),
        "telemetry.us_per_cycle." + _engine: ("us", "lower"),
        "telemetry.kernel_us_per_cycle." + _engine: ("us", "lower"),
        "ladder.aa." + _engine: ("fraction", "lower"),
    })
for _timing in ("workloads.build_s", "compiled.compile_s",
                "replay.execute_s", "state.checkpoint_s", "exec.journal_s",
                "tlm.execute_s", "fuzz.execute_s"):
    PER_LAYER[_timing] = ("s", "lower")
    PER_LAYER[_timing + ".tail"] = ("s", "lower")
for _tier in ("cycle", "tlm"):
    PER_LAYER.update({
        "exec.scaling." + _tier: ("ratio", "higher"),
        "exec.scaling.%s.aa" % _tier: ("fraction", "lower"),
        "exec.overhead_s." + _tier: ("s", "lower"),
        "exec.utilisation." + _tier: ("fraction", "higher"),
    })
for _scenario in ("portable-audio-player", "portable-videogame",
                  "wireless-modem"):
    PER_LAYER["tlm.energy_err_pct." + _scenario] = ("%", "lower")
PER_LAYER.update({
    "compiled.speedup": ("ratio", "higher"),
    "compiled.speedup.aa": ("fraction", "lower"),
    "compiled.declines": ("count", "lower"),
    "state.checkpoints": ("count", "lower"),
    "state.bytes": ("B", "lower"),
    "exec.journal_bytes": ("B", "lower"),
    "exec.utilisation.fuzz": ("fraction", "higher"),
    "tlm.txns_per_s": ("1/s", "higher"),
    "tlm.speedup": ("ratio", "higher"),
    "tlm.speedup.aa": ("fraction", "lower"),
    "tlm.energy_err_pct.worst": ("%", "lower"),
    "fuzz.probe_us_per_cycle": ("us", "lower"),
    "fuzz.admit_ratio": ("fraction", "higher"),
    "fuzz.shrink_executions": ("count", "lower"),
    "fuzz.coverage_keys": ("count", "higher"),
    "trace.ops_per_s.traced": ("1/s", "higher"),
    "trace.ops_per_s.untraced": ("1/s", "higher"),
    "trace.overhead_pct": ("%", "lower"),
})


def traced_run(workload, inputs, ctx, seconds, seed, details, trace_path):
    spans = Spans()
    metrics = {}
    overhead(workload, inputs, ctx, seconds, spans, metrics)
    engine_details = {}
    ladder(seed, ctx, spans, metrics, engine_details)
    campaign_layers(seed, ctx, spans, metrics)
    with spans.patched():
        spans.run_id = "suite/tlm-validate"
        tlm_layers(metrics)
    fuzz_layers(seed, ctx, spans, metrics)
    span_metrics(spans, metrics, details)
    details["engine"] = dict(engine_details, compiles=spans.compiles,
                             declines=spans.declines,
                             fallback_reasons=spans.fallback_reasons)
    spans.dump(trace_path)
    details["trace_file"] = os.path.relpath(trace_path)
    return {name: {"value": metrics[name], "unit": unit}
            for name, (unit, _) in PER_LAYER.items()}


# -- 1. the workload itself, traced and untraced ------------------------

def overhead(workload, inputs, ctx, seconds, spans, metrics):
    """Traced and untraced runs of the same operation in pairs, the
    order alternating from pair to pair."""
    serial = dict(inputs, jobs=1) if "jobs" in inputs else inputs
    rates = {"traced": [], "untraced": []}
    ratios = []

    def pair(index):
        spans.run_id = "own/%d" % index
        order = ("traced", "untraced") if index % 2 == 0 \
            else ("untraced", "traced")
        for arm in order:
            if arm == "traced":
                with spans.patched():
                    sample = workload.op(serial, ctx, index)
                spans.fold_engines()
            else:
                sample = workload.op(serial, ctx, index)
            rates[arm].append(workload.summarize([sample])["ops_per_s"])
        ratios.append(rates["untraced"][-1] / rates["traced"][-1])
        return index

    run_for(seconds, pair)
    for arm, values in rates.items():
        metrics["trace.ops_per_s." + arm] = stats.median(values)
    metrics["trace.overhead_pct"] = 100.0 * (stats.median(ratios) - 1.0)


# -- 2. per-cycle ablation ladder ---------------------------------------

def _rung_system(seed, rung):
    import repro.workloads
    from repro.telemetry import Telemetry
    kwargs = {}
    if rung == "models":
        kwargs = {"power_analysis": False, "checker": False}
    elif rung == "power":
        kwargs = {"checker": False}
    elif rung == "telemetry":
        kwargs = {"telemetry": Telemetry(trace_kernel=False)}
    elif rung == "kernel":
        kwargs = {"telemetry": Telemetry()}
    return repro.workloads.build_paper_testbench(seed=seed, **kwargs)


def ladder(seed, ctx, spans, metrics, ladder_details):
    """µs per cycle of each rung on each engine, GC off while timed,
    rungs and engines interleaved round by round.  The ladder's own
    compiles, a fixed number per run, give ``compiled.declines``."""
    import repro.compiled
    us = {(engine, rung): [] for engine in ENGINES for rung in RUNGS}
    declined = {}
    for round_index in range(LADDER_ROUNDS):
        spans.run_id = "suite/ladder/%d" % round_index
        order = ENGINES if round_index % 2 == 0 else ENGINES[::-1]
        energies = set()
        for engine in order:
            for rung in RUNGS:
                compiled = None
                with spans.patched():
                    system = _rung_system(seed, rung)
                    if engine == "compiled":
                        compiled = repro.compiled.compile_system(system)
                period = system.clk.period
                system.run(LADDER_WARM_CYCLES * period)
                gc.collect()
                gc.disable()
                try:
                    start = time.perf_counter()
                    system.run(LADDER_CYCLES * period)
                    elapsed = time.perf_counter() - start
                finally:
                    gc.enable()
                us[engine, rung].append(1e6 * elapsed / LADDER_CYCLES)
                if rung != "models":
                    energies.add(system.total_energy)
                if compiled is not None and compiled.runs_compiled == 0:
                    reason = compiled.fallback_reason or "unknown"
                    declined[reason] = declined.get(reason, 0) + 1
                del system, compiled
        spans.fold_engines()
        # Every powered rung on either engine simulates one trajectory.
        ctx.count(1, 0 if len(energies) == 1 else 1,
                  "ladder round %d energies %r" % (round_index, energies))

    def paired(engine, top, base, ratio=False):
        return [(a / b if ratio else a - b) for a, b in
                zip(us[engine, top], us[engine, base])]

    for engine in ENGINES:
        metrics["amba.us_per_cycle." + engine] = stats.median(
            us[engine, "models"])
        for layer, top, base in (("power", "power", "models"),
                                 ("protocol", "protocol", "power"),
                                 ("telemetry", "telemetry", "protocol")):
            metrics["%s.us_per_cycle.%s" % (layer, engine)] = stats.median(
                paired(engine, top, base))
        metrics["telemetry.kernel_us_per_cycle." + engine] = stats.median(
            paired(engine, "kernel", "telemetry"))
        ratios = paired(engine, "power", "models", ratio=True)
        metrics["power.powertest_ratio." + engine] = stats.median(ratios)
        metrics["power.powertest_ratio.%s.aa" % engine] = stats.spread(
            ratios)
        metrics["ladder.aa." + engine] = max(
            stats.spread(us[engine, rung]) for rung in RUNGS)
    metrics["compiled.declines"] = sum(declined.values())
    ladder_details["ladder_compiles"] = LADDER_ROUNDS * len(RUNGS)
    ladder_details["ladder_fallback_reasons"] = declined
    speedups = [a / b for a, b in zip(us["interpreted", "protocol"],
                                      us["compiled", "protocol"])]
    metrics["compiled.speedup"] = stats.median(speedups)
    metrics["compiled.speedup.aa"] = stats.spread(speedups)


# -- 3. executor, journal, checkpoints ----------------------------------

def _executor_figures(sample):
    """Idle seconds and utilisation of the executor over one call."""
    capacity = sample["jobs"] * sample["executor_wall_s"]
    return (sample["executor_wall_s"] - sample["busy_s"] / sample["jobs"],
            sample["busy_s"] / capacity)


def campaign_layers(seed, ctx, spans, metrics):
    journal_bytes = []
    for tier in ("cycle", "tlm"):
        workload = Campaign(tier)
        inputs = workload.inputs(seed)
        spans.run_id = "suite/campaign-%s" % tier
        with spans.patched():
            sample = workload.op(dict(inputs, jobs=1), ctx, 0)
        spans.fold_engines()
        journal_bytes.append(sample["journal_bytes"])
        if tier == "cycle":
            metrics["state.bytes"] = \
                sample["checkpoint_bytes"] / sample["units"]
        else:
            executed = spans.durations("execute_tlm",
                                       run_prefix="suite/campaign-tlm")
            metrics["tlm.txns_per_s"] = sample["transactions"] / sum(executed)
        # exec.scaling: jobs = nproc against jobs = 1, interleaved pairs.
        scaling, overheads, utilisation = [], [], []
        for index in range(SCALING_PAIRS[tier]):
            rates = {}
            for jobs in ((1, NPROC) if index % 2 == 0 else (NPROC, 1)):
                sample = workload.op(dict(inputs, jobs=jobs), ctx, index)
                rates[jobs] = sample["units"] / sample["wall"]
                if jobs == NPROC:
                    idle, busy = _executor_figures(sample)
                    overheads.append(idle)
                    utilisation.append(busy)
            scaling.append(rates[NPROC] / rates[1])
        metrics["exec.scaling." + tier] = stats.median(scaling)
        metrics["exec.scaling.%s.aa" % tier] = stats.spread(scaling)
        metrics["exec.overhead_s." + tier] = stats.median(overheads)
        metrics["exec.utilisation." + tier] = stats.median(utilisation)
    metrics["exec.journal_bytes"] = stats.median(journal_bytes)


def tlm_layers(metrics):
    """Validation against the cycle tier on the held-out seed, which
    also times both tiers on the same stimulus."""
    import repro.tlm
    table = repro.tlm.load_default_table()
    speedups = []
    for _ in range(VALIDATION_ROUNDS):
        report = repro.tlm.validate_table(table)
        speedups.append(stats.median([
            (entry.tlm_transactions / entry.tlm_wall_s)
            / (entry.cycle_transactions / entry.cycle_wall_s)
            for entry in report.entries]))
    for entry in report.entries:
        metrics["tlm.energy_err_pct." + entry.scenario] = \
            entry.energy_error_pct
    metrics["tlm.energy_err_pct.worst"] = max(
        abs(entry.energy_error_pct) for entry in report.entries)
    metrics["tlm.speedup"] = stats.median(speedups)
    metrics["tlm.speedup.aa"] = stats.spread(speedups)


# -- 4. fuzzing ---------------------------------------------------------

def fuzz_layers(seed, ctx, spans, metrics):
    import repro.fuzz
    import repro.fuzz.engine
    import repro.replay
    from repro.fuzz.coverage import CoverageProbe

    workload = Fuzz()
    inputs = workload.inputs(seed)
    first = inputs["fuzz_seeds"][0]
    root = ctx.scratch("suite-corpus")
    spans.run_id = "suite/fuzz"
    with spans.patched():
        report = repro.fuzz.run_fuzz_campaign(
            root, workload.setup(dict(inputs, jobs=1))[first])
    spans.fold_engines()
    metrics["fuzz.admit_ratio"] = report.admitted / report.executions
    metrics["fuzz.shrink_executions"] = report.shrink_executions
    metrics["fuzz.coverage_keys"] = report.coverage_keys
    specs = [entry.spec for entry in repro.fuzz.Corpus.load(root)]
    specs = specs[:PROBE_SPECS]
    shutil.rmtree(root, ignore_errors=True)

    # The coverage probe's cost: the same specs with and without it.
    cycles = sum(CYCLES_PER_US * spec.duration_us for spec in specs)
    deltas = []
    for _ in range(PROBE_ROUNDS):
        walls = {}
        for probe in (False, True):
            start = time.perf_counter()
            for spec in specs:
                repro.replay.execute(
                    spec, instrument=CoverageProbe().install
                    if probe else None)
            walls[probe] = time.perf_counter() - start
        deltas.append(1e6 * (walls[True] - walls[False]) / cycles)
    metrics["fuzz.probe_us_per_cycle"] = stats.median(deltas)

    # Executor utilisation of the workload's own configuration.
    busy = []
    original = repro.fuzz.engine.execute_campaign

    def capture(runs, config=None):
        report = original(runs, config)
        busy.append((sum(result.wall_time_s
                         for result in report.results.values()),
                     report.wall_time_s))
        return report

    repro.fuzz.engine.execute_campaign = capture
    try:
        repro.fuzz.run_fuzz_campaign(root, workload.setup(inputs)[first])
    finally:
        repro.fuzz.engine.execute_campaign = original
        shutil.rmtree(root, ignore_errors=True)
    metrics["exec.utilisation.fuzz"] = sum(b for b, _ in busy) / (
        inputs["jobs"] * sum(w for _, w in busy))


# -- span-derived timings -----------------------------------------------

def span_metrics(spans, metrics, details):
    builds = (spans.durations("build_paper_testbench")
              + spans.durations("build_scenario"))
    stats.timing("workloads.build_s", builds, metrics, details)
    stats.timing("compiled.compile_s", spans.durations("compile_system"),
                 metrics, details)
    stats.timing("replay.execute_s",
                 spans.durations_under("run_fault_campaign",
                                       "replay.execute", tier="cycle"),
                 metrics, details)
    stats.timing("tlm.execute_s", spans.durations("execute_tlm"),
                 metrics, details)
    stats.timing("exec.journal_s",
                 spans.durations("CampaignJournal.append"),
                 metrics, details)
    stats.timing("fuzz.execute_s",
                 spans.durations_under("run_fuzz_campaign",
                                       "execute_payload"),
                 metrics, details)
    puts = spans.group_under("replay.execute", "CheckpointStore.put")
    snapshots = spans.group_under("replay.execute", "AhbSystem.snapshot")
    per_checkpoint = [
        sum(s["end"] - s["start"] for s in group + snapshots.get(run, []))
        / len(group) for run, group in puts.items()]
    stats.timing("state.checkpoint_s", per_checkpoint, metrics, details)
    metrics["state.checkpoints"] = stats.median(
        [len(group) for group in puts.values()])
