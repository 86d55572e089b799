"""The benchmark's workloads: inputs from a seed, timed operations,
output checks and the independent-path reference of each.

Every workload drives the simulator through its public functions only,
looked up on their modules at call time so that a traced run
(:mod:`perfbench.spans`) sees each call.  An *operation* is one
testbench run, one campaign call (its runs are the counted units) or
one fuzz campaign (its candidates are the counted units).
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time

from . import stats

#: Executor workers; ``jobs`` never exceeds the cores this process may use.
NPROC = len(os.sched_getaffinity(0))

#: Every named scenario clocks its bus at 100 MHz.
CYCLES_PER_US = 100

#: Paper §6 / Table 1: data transfers ≈ 87.3 %, arbitration ≈ 11.5 %.
PAPER_SHARES = {"data_transfer": 0.873, "arbitration": 0.115}

#: Outcomes that are failures of the execution machinery, never
#: simulated behaviour.
INFRA_OUTCOMES = ("timeout", "worker-crashed", "quarantined")


def digest(obj):
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def table1_shares(ledger):
    from repro.power.instructions import is_arbitration, is_data_transfer
    return {"data_transfer": ledger.class_share(is_data_transfer),
            "arbitration": ledger.class_share(is_arbitration)}


def baseline_shares(scenarios, seed, duration_us, tier="cycle"):
    """Table 1 shares over the fault-free runs of *scenarios*, the
    cells campaigns and fuzz seed genomes start from (untimed)."""
    import repro.replay
    energy = {"data_transfer": 0.0, "arbitration": 0.0}
    total = 0.0
    for scenario in scenarios:
        system, _ = repro.replay.execute(repro.replay.campaign_spec(
            scenario, "none", seed=seed, duration_us=duration_us,
            tier=tier))
        for key, share in table1_shares(system.ledger).items():
            energy[key] += share * system.ledger.total_energy
        total += system.ledger.total_energy
    return dict({key: value / total for key, value in energy.items()},
                paper=PAPER_SHARES)


class Context:
    """Bookkeeping of one benchmark run: scratch space, operation
    counts, failures and the reported simulated statistics."""

    def __init__(self, work_dir, references):
        self.work_dir = work_dir
        #: Reference group -> recorded outputs for this seed (None when
        #: none were recorded).
        self.references = references
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.sim = {"cycles": 0, "transactions": 0, "energy_j": 0.0}
        self.notes = {}
        self._seen = {}
        self._scratch = 0

    def reference(self, key):
        return self.references.get(key)

    def count(self, units, failed, what):
        self.attempted += units
        self.failed += failed
        if failed and len(self.failures) < 20:
            self.failures.append(what)

    def expect(self, key, value, expected):
        """True when *value* matches what the reference recorded for
        *key* and what an earlier operation of this run produced."""
        ok = expected is None or value == expected
        ok = self._seen.setdefault(key, value) == value and ok
        return ok

    def add_sim(self, cycles, transactions, energy_j):
        self.sim["cycles"] += cycles
        self.sim["transactions"] += transactions
        self.sim["energy_j"] += energy_j

    def scratch(self, name):
        self._scratch += 1
        return os.path.join(self.work_dir, "%s-%d" % (name, self._scratch))


def run_for(seconds, op, min_ops=1):
    """Call ``op(index)`` until *seconds* have passed and at least
    *min_ops* operations completed; return their samples."""
    samples = []
    start = time.perf_counter()
    while len(samples) < min_ops or time.perf_counter() - start < seconds:
        samples.append(op(len(samples)))
    return samples


# -- paper testbench ----------------------------------------------------

class Testbench:
    """The paper's §6 testbench at its defaults: each operation builds
    (and compiles) it, then simulates :attr:`HORIZON` cycles in one
    ``AhbSystem.run`` call."""

    HORIZON = 20_000
    WHY = {
        "interpreted": "paper testbench on the interpreted kernel: "
                       "per-cycle layers (kernel, amba, power, protocol) "
                       "do nearly all the work",
        "compiled": "paper testbench on the compiled engine: the same "
                    "work with static scheduling and the batched power "
                    "monitor",
        "telemetry": "paper testbench, compiled engine requested, full "
                     "Telemetry bundle attached: the cost of leaving "
                     "telemetry on",
    }

    def __init__(self, arm):
        self.arm = arm
        self.name = "testbench-" + arm
        self.why = self.WHY[arm]
        #: All three arms must reproduce one recorded trajectory.
        self.reference_key = "testbench"

    def inputs(self, seed):
        return {"testbench_seed": seed}

    def setup(self, inputs):
        """Imports, elaboration and compile: everything before the
        first simulating call."""
        import repro.compiled
        import repro.workloads
        telemetry = None
        if self.arm == "telemetry":
            from repro.telemetry import Telemetry
            telemetry = Telemetry()
        system = repro.workloads.build_paper_testbench(
            seed=inputs["testbench_seed"], telemetry=telemetry)
        engine = None
        if self.arm != "interpreted":
            engine = repro.compiled.compile_system(system)
        return system, engine

    @staticmethod
    def outputs(system):
        return {"cycles": system.clk.cycles,
                "transactions": system.transactions_completed(),
                "energy_j": system.total_energy,
                "shares": table1_shares(system.ledger)}

    def reference(self, inputs, work_dir):
        """One interpreted run of the same horizon, no telemetry."""
        import repro.workloads
        system = repro.workloads.build_paper_testbench(
            seed=inputs["testbench_seed"])
        system.run(self.HORIZON * system.clk.period)
        return self.outputs(system)

    @staticmethod
    def min_ops(inputs):
        return 1

    def op(self, inputs, ctx, index):
        start = time.perf_counter()
        system, engine = self.setup(inputs)
        began = time.perf_counter()
        system.run(self.HORIZON * system.clk.period)
        end = time.perf_counter()
        out = self.outputs(system)
        ok = ctx.expect("testbench", out, ctx.reference("testbench"))
        ctx.count(1, 0 if ok else 1, "testbench outputs %r" % (out,))
        ctx.add_sim(out["cycles"], out["transactions"], out["energy_j"])
        ctx.notes["table1_shares"] = dict(out["shares"],
                                          paper=PAPER_SHARES)
        if engine is not None and engine.runs_compiled == 0:
            declines = ctx.notes.setdefault("engine_declines", {})
            reason = engine.fallback_reason
            declines[reason] = declines.get(reason, 0) + 1
        return {"run_s": end - began, "op_s": end - start}

    def summarize(self, samples):
        """Medians over operations of cycles ÷ the ``AhbSystem.run``
        call's time and of one run ÷ its build + compile + run time."""
        return {"sim_cycles_per_s": stats.median(
                    [self.HORIZON / s["run_s"] for s in samples]),
                "ops_per_s": stats.median(
                    [1.0 / s["op_s"] for s in samples])}


# -- fault campaigns ----------------------------------------------------

class Campaign:
    """``run_fault_campaign`` over every scenario × (``none`` + the
    three behavioural faults), one call per base seed, at the CLI's
    20 µs runs, compiled engine, ``jobs = nproc`` and a journal; the
    cycle tier also checkpoints at the CLI's default interval."""

    DURATION_US = 20.0
    CHECKPOINT_INTERVAL = 1000
    BASE_SEEDS = {"cycle": 2, "tlm": 8}
    WHY = {
        "cycle": "short faulted campaign runs: per-run elaboration, "
                 "compile, checkpoints and journal are a real share; "
                 "RETRY/SPLIT/hang recovery paths",
        "tlm": "the same cells on the TLM tier over more base seeds: "
               "many ms-scale runs, so dispatch and journal fsync "
               "dominate; per-cycle layers are bypassed",
    }

    def __init__(self, tier):
        self.tier = tier
        self.name = self.reference_key = "campaign-" + tier
        self.why = self.WHY[tier]

    def inputs(self, seed):
        from repro.faults.campaign import FAULT_MODES
        from repro.workloads import SCENARIOS
        count = self.BASE_SEEDS[self.tier]
        return {"scenarios": sorted(SCENARIOS),
                "faults": sorted(FAULT_MODES),
                "base_seeds": [seed * 100 + k for k in range(count)],
                "jobs": NPROC}

    def setup(self, inputs):
        """Imports and, on the TLM tier, the calibration table.
        ``run_fault_campaign`` enumerates its cells itself, inside the
        timed call."""
        import repro.exec  # noqa: F401  (the executor the campaign uses)
        import repro.faults  # noqa: F401
        if self.tier == "tlm":
            import repro.tlm
            repro.tlm.load_default_table()

    def call(self, inputs, base_seed, journal=None, checkpoint_dir=None,
             engine="compiled"):
        import repro.faults
        return repro.faults.run_fault_campaign(
            inputs["scenarios"], inputs["faults"], seed=base_seed,
            duration_us=self.DURATION_US, tier=self.tier, engine=engine,
            jobs=inputs["jobs"], journal=journal,
            checkpoint_dir=checkpoint_dir,
            checkpoint_interval=self.CHECKPOINT_INTERVAL)

    @staticmethod
    def fingerprints(result):
        return [digest(run.fingerprint) for run in result.runs]

    def reference(self, inputs, work_dir):
        """Serial, interpreted, unjournalled and uncheckpointed calls."""
        serial = dict(inputs, jobs=1)
        return {str(base): self.fingerprints(self.call(
                    serial, base, engine="interpreted"))
                for base in inputs["base_seeds"]}

    @staticmethod
    def min_ops(inputs):
        return len(inputs["base_seeds"])

    def op(self, inputs, ctx, index):
        self.setup(inputs)
        bases = inputs["base_seeds"]
        base = bases[index % len(bases)]
        journal = ctx.scratch("journal") + ".jsonl"
        checkpoints = ctx.scratch("ckpt") if self.tier == "cycle" else None
        start = time.perf_counter()
        result = self.call(inputs, base, journal=journal,
                           checkpoint_dir=checkpoints)
        wall = time.perf_counter() - start
        journal_bytes = os.path.getsize(journal)
        checkpoint_bytes = _tree_bytes(checkpoints) if checkpoints else 0
        os.remove(journal)
        if checkpoints:
            shutil.rmtree(checkpoints, ignore_errors=True)
        self.check(result, base, ctx)
        if "table1_shares" not in ctx.notes:
            ctx.notes["table1_shares"] = baseline_shares(
                inputs["scenarios"], base, self.DURATION_US, self.tier)
        return {"wall": wall, "units": len(result.runs),
                "cycles": CYCLES_PER_US * self.DURATION_US
                * len(result.runs),
                "transactions": sum(run.completed for run in result.runs),
                "busy_s": sum(run.wall_time_s for run in result.runs),
                "executor_wall_s": result.wall_time_s, "jobs": result.jobs,
                "journal_bytes": journal_bytes,
                "checkpoint_bytes": checkpoint_bytes}

    def check(self, result, base, ctx):
        expected = (ctx.reference(self.reference_key) or {}).get(str(base))
        got = self.fingerprints(result)
        seen = ctx.expect((self.name, base), got, None)
        for index, run in enumerate(result.runs):
            bad = run.outcome in INFRA_OUTCOMES
            if expected is not None:
                bad = bad or index >= len(expected) \
                    or got[index] != expected[index]
            elif run.outcome == "crashed":
                bad = True     # no reference records this crash
            bad = bad or not seen
            ctx.count(1, 1 if bad else 0,
                      "%s base %d: %s" % (run.run_id, base, run.outcome))
            ctx.add_sim(int(CYCLES_PER_US * self.DURATION_US),
                        run.completed, run.total_energy)
        outcomes = ctx.notes.setdefault("outcomes", {})
        for run in result.runs:
            outcomes[run.outcome] = outcomes.get(run.outcome, 0) + 1

    @staticmethod
    def summarize(samples):
        return {"ops_per_s": stats.median(
                    [s["units"] / s["wall"] for s in samples]),
                "sim_cycles_per_s": stats.median(
                    [s["cycles"] / s["wall"] for s in samples])}


def _tree_bytes(root):
    total = 0
    for folder, _, files in os.walk(root):
        for name in files:
            total += os.path.getsize(os.path.join(folder, name))
    return total


# -- coverage-guided fuzzing --------------------------------------------

class Fuzz:
    """``run_fuzz_campaign`` at a fixed budget per campaign over
    :attr:`CAMPAIGNS` seeds derived from the workload seed, compiled
    engine, shrinking on, ``jobs = nproc``."""

    BUDGET = 16
    CAMPAIGNS = 12
    #: Simulated window of the seed genomes (the CLI default is 20 µs);
    #: halving it fits twice the campaigns in a run, which is what
    #: averages out the seed-to-seed spread of candidate cost.
    DURATION_US = 10.0
    name = reference_key = "fuzz"
    why = ("coverage-guided fuzzing: mutators, the coverage probe, the "
           "corpus store and the shrinker, which no other workload runs")

    def inputs(self, seed):
        return {"fuzz_seeds": [seed * 100 + k
                               for k in range(self.CAMPAIGNS)],
                "budget": self.BUDGET, "duration_us": self.DURATION_US,
                "jobs": NPROC}

    def setup(self, inputs, engine="compiled"):
        """Imports and the ``FuzzConfig`` of every campaign, by seed."""
        import repro.fuzz
        return {seed: repro.fuzz.FuzzConfig(
                    budget=inputs["budget"], seed=seed, jobs=inputs["jobs"],
                    duration_us=inputs["duration_us"], engine=engine)
                for seed in inputs["fuzz_seeds"]}

    @staticmethod
    def outputs(report, root):
        from repro.fuzz import CoverageMap
        keys = sorted(CoverageMap.load(
            os.path.join(root, "coverage.json")).counts)
        signatures = sorted(failure["signature"]
                            for failure in report.failures)
        return {"coverage_keys": len(keys),
                "digest": digest([keys, signatures])}

    def reference(self, inputs, work_dir):
        """Serial campaigns on the interpreted engine."""
        import repro.fuzz
        found = {}
        configs = self.setup(dict(inputs, jobs=1), engine="interpreted")
        for fuzz_seed, config in configs.items():
            root = os.path.join(work_dir, "ref-corpus-%d" % fuzz_seed)
            report = repro.fuzz.run_fuzz_campaign(root, config)
            found[str(fuzz_seed)] = self.outputs(report, root)
            shutil.rmtree(root, ignore_errors=True)
        return found

    @staticmethod
    def min_ops(inputs):
        return len(inputs["fuzz_seeds"])

    def op(self, inputs, ctx, index):
        import repro.fuzz
        fuzz_seed = inputs["fuzz_seeds"][index % len(inputs["fuzz_seeds"])]
        config = self.setup(inputs)[fuzz_seed]
        root = ctx.scratch("corpus")
        start = time.perf_counter()
        report = repro.fuzz.run_fuzz_campaign(root, config)
        wall = time.perf_counter() - start
        out = self.outputs(report, root)
        shutil.rmtree(root, ignore_errors=True)
        candidates = report.executions + report.shrink_executions
        expected = (ctx.reference("fuzz") or {}).get(str(fuzz_seed))
        ok = ctx.expect(("fuzz", fuzz_seed), out, expected)
        infra = report.timeouts + sum(
            1 for failure in report.failures
            if failure["signature"].startswith("outcome|"))
        ctx.count(candidates, candidates if not ok else infra,
                  "fuzz seed %d: %r" % (fuzz_seed, out))
        ctx.add_sim(int(CYCLES_PER_US * report.sim_us), 0,
                    report.energy_j)
        keys = ctx.notes.setdefault("coverage_keys", {})
        keys[str(fuzz_seed)] = out["coverage_keys"]
        if "table1_shares" not in ctx.notes:
            from repro.workloads import SCENARIOS
            ctx.notes["table1_shares"] = baseline_shares(
                sorted(SCENARIOS), fuzz_seed, inputs["duration_us"])
        return {"wall": wall, "units": candidates, "seed": fuzz_seed,
                "cycles": CYCLES_PER_US * report.sim_us}

    @staticmethod
    def summarize(samples):
        """Aggregate over the campaigns, each at its median wall time
        (repeats of one campaign do identical work)."""
        by_seed = {}
        for sample in samples:
            by_seed.setdefault(sample["seed"], []).append(sample)
        wall = units = cycles = 0.0
        for group in by_seed.values():
            wall += stats.median([s["wall"] for s in group])
            units += group[0]["units"]
            cycles += group[0]["cycles"]
        return {"ops_per_s": units / wall,
                "sim_cycles_per_s": cycles / wall}


WORKLOADS = {workload.name: workload for workload in (
    Testbench("interpreted"), Testbench("compiled"),
    Testbench("telemetry"), Campaign("cycle"), Campaign("tlm"), Fuzz())}
