"""Bit-identity oracle for the compiled engine.

The compiled engine's whole value rests on one claim: for any run the
interpreted kernel can execute, compiling first changes *nothing* —
not the state digest, not the energy ledger down to the last bit, not
the outcome fingerprint.  These tests attack that claim from several
directions: the paper testbench directly, the power replay's NumPy
and scalar paths, flush-cap boundaries, the per-cycle scalar replay
used when batching is ineligible, checkpointed digest streams, and a
Hypothesis sweep over scenarios, fault schedules and seeds.  Both
engines share the power replay, so the energy code itself is pinned
by the golden values in ``test_power_golden.py``.
"""

import pytest

from repro.amba.transactions import reset_txn_ids
from repro.compiled import compile_system
from repro.kernel import us
from repro.replay import FaultEntry, campaign_spec, execute
from repro.state import CheckpointPlan
from repro.telemetry import Telemetry
from repro.workloads import build_paper_testbench

DURATION_US = 20          # 2000 cycles at 100 MHz — enough to split,
                          # retry and hand the bus over many times


def _run_paper(setup=None, seed=1, duration_us=DURATION_US):
    """Build the paper testbench, optionally compile, run, and return
    ``(digest, ledger_state, engine)``.

    ``setup`` receives the elaborated testbench and returns the engine
    (or None for an interpreted run).  The process-global transaction
    id counter is reset first so back-to-back builds in one process
    stay comparable.
    """
    reset_txn_ids()
    testbench = build_paper_testbench(seed=seed, checker=False)
    engine = setup(testbench) if setup is not None else None
    testbench.sim.run(until=us(duration_us))
    return (testbench.snapshot().digest,
            testbench.ledger.state_dict(), engine)


class TestPaperTestbenchIdentity:
    def test_compiled_digest_and_ledger_match_interpreted(self):
        digest, ledger, _ = _run_paper()
        c_digest, c_ledger, engine = _run_paper(compile_system)
        assert engine.runs_compiled > 0, engine.fallback_reason
        assert c_digest == digest
        assert c_ledger == ledger

    def test_python_flush_fallback_matches_numpy(self, monkeypatch):
        # The scalar row replay is the reference; the OverflowError
        # path (values beyond int64) must land on identical state.
        digest, ledger, _ = _run_paper(compile_system)

        from repro.power.replay import BusPowerModel

        def _overflow(self, arr):
            raise OverflowError("forced: exercise the scalar replay")

        monkeypatch.setattr(BusPowerModel, "_replay_np", _overflow)
        p_digest, p_ledger, engine = _run_paper(compile_system)
        assert engine.runs_compiled > 0, engine.fallback_reason
        assert p_digest == digest
        assert p_ledger == ledger

    def test_flush_cap_boundaries_are_invisible(self, monkeypatch):
        # A tiny cap forces many mid-run flushes; replayed state must
        # not depend on where the batch was cut.
        digest, ledger, _ = _run_paper(compile_system)

        from repro.power import replay
        flushes = []
        original = replay.BusPowerModel.flush

        def _counting_flush(self):
            flushes.append(self.pending)
            original(self)

        monkeypatch.setattr(replay, "FLUSH_ROWS", 32)
        monkeypatch.setattr(replay.BusPowerModel, "flush", _counting_flush)
        c_digest, c_ledger, engine = _run_paper(compile_system)
        assert engine.runs_compiled > 0, engine.fallback_reason
        assert flushes.count(32) == DURATION_US * 100 // 32
        assert c_digest == digest
        assert c_ledger == ledger

    def test_live_monitor_slot_when_not_batchable(self, monkeypatch):
        # A model that cannot rule out negative energies diverts every
        # row to the scalar replay inside its clock process, one cycle
        # at a time; results are identical, just slower.
        digest, ledger, _ = _run_paper()

        from repro.power.replay import BusPowerModel
        monkeypatch.setattr(BusPowerModel, "_signs_ok", lambda self: False)
        replayed = []
        original = BusPowerModel._replay_rows

        def _counting_rows(self, rows):
            replayed.append(len(rows))
            original(self, rows)

        monkeypatch.setattr(BusPowerModel, "_replay_rows", _counting_rows)
        c_digest, c_ledger, engine = _run_paper(compile_system)
        assert engine.runs_compiled > 0, engine.fallback_reason
        assert replayed == [1] * (DURATION_US * 100)
        assert c_digest == digest
        assert c_ledger == ledger


def _run_telemetry(compiled):
    """Paper testbench with the full telemetry bundle, in two ``run``
    calls; returns ``(system, telemetry, engine)``."""
    reset_txn_ids()
    telemetry = Telemetry()
    system = build_paper_testbench(seed=1, telemetry=telemetry)
    engine = compile_system(system) if compiled else None
    system.run(us(DURATION_US / 2))
    system.run(us(DURATION_US / 2))
    telemetry.finalize()
    return system, telemetry, engine


class TestTelemetryAttachedIdentity:
    """The kernel observer keeps the compiled engine and changes no
    result; only deduplicated combinational activations may count
    fewer (docs/OBSERVABILITY.md)."""

    def test_compiled_matches_interpreted_with_telemetry(self):
        system, telemetry, _ = _run_telemetry(False)
        c_system, c_telemetry, engine = _run_telemetry(True)
        assert (engine.runs_compiled, engine.runs_declined) == (2, 0)
        assert engine.fallback_reason is None

        assert c_system.snapshot().digest == system.snapshot().digest
        assert c_system.ledger.state_dict() == system.ledger.state_dict()
        assert c_system.sim.delta_count == system.sim.delta_count

        snapshot = telemetry.snapshot()
        c_snapshot = c_telemetry.snapshot()
        for name in ("sim_time_steps_total", "sim_delta_cycles_total"):
            assert c_snapshot["counters"][name] \
                == snapshot["counters"][name]
        assert c_snapshot["histograms"]["sim_deltas_per_step"] \
            == snapshot["histograms"]["sim_deltas_per_step"]

        activations = snapshot["counters"][
            "sim_process_activations_total"]["series"]
        c_activations = c_snapshot["counters"][
            "sim_process_activations_total"]["series"]
        assert set(c_activations) == set(activations)
        comb = {info.name for info in engine.graph.comb}
        sequential = {info.name for domain in engine.graph.domains
                      for info in domain.seq_pos + domain.seq_neg}
        sequential.add("clk.driver")
        assert comb and len(sequential) > 10
        for key, count in activations.items():
            name = key.split("=", 1)[1]
            if name in comb:
                assert c_activations[key] <= count, name
            else:
                assert name in sequential, name
                assert c_activations[key] == count, name


class TestReplayEngineIdentity:
    def test_checkpoint_digest_streams_match(self):
        spec = campaign_spec("portable-audio-player",
                             fault="always-retry", seed=5,
                             duration_us=4.0)
        _, interpreted = execute(
            spec, checkpoint=CheckpointPlan(interval_cycles=100))
        _, compiled = execute(
            spec.replace(engine="compiled"),
            checkpoint=CheckpointPlan(interval_cycles=100))
        assert compiled.outcome == interpreted.outcome
        assert interpreted.digests["entries"]
        assert compiled.digests == interpreted.digests
        assert compiled.fingerprint() == interpreted.fingerprint()


hypothesis = pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

SCENARIOS = ("portable-audio-player", "wireless-modem",
             "portable-videogame")
BEHAVIOURAL = ("none", "always-retry", "hung-slave")


@st.composite
def run_specs(draw):
    spec = campaign_spec(
        draw(st.sampled_from(SCENARIOS)),
        fault=draw(st.sampled_from(BEHAVIOURAL)),
        seed=draw(st.integers(min_value=0, max_value=2**16)),
        duration_us=draw(st.sampled_from((3.0, 4.0))),
    )
    if draw(st.booleans()):  # optional mid-run signal corruption
        start = draw(st.integers(min_value=0, max_value=2)) * 1_000_000
        spec.faults = list(spec.faults) + [FaultEntry.signal_fault(
            draw(st.sampled_from(("bit-flip", "stuck-at", "glitch"))),
            draw(st.sampled_from(("hrdata", "haddr", "htrans"))),
            bit=draw(st.integers(min_value=0, max_value=7)),
            value=draw(st.integers(min_value=0, max_value=255)),
            start_ps=start, end_ps=start + 2_000_000,
            probability=draw(st.sampled_from((0.1, 0.5, 1.0))),
        )]
    return spec


class TestCompiledEqualsInterpretedProperty:
    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.too_slow],
              derandomize=True)
    @given(spec=run_specs())
    def test_fingerprint_digest_and_ledger_match(self, spec):
        i_system, i_outcome = execute(spec)
        c_system, c_outcome = execute(spec.replace(engine="compiled"))

        assert c_outcome.fingerprint() == i_outcome.fingerprint()
        # Crashed/hung runs can stop mid-delta, where snapshot() is
        # not defined to be quiescent; the fingerprint (which embeds
        # exact energy totals) is the oracle there.
        if i_outcome.outcome == "ok":
            assert (c_system.snapshot().digest
                    == i_system.snapshot().digest)
        if i_system.ledger is not None and c_system.ledger is not None:
            assert (c_system.ledger.state_dict()
                    == i_system.ledger.state_dict())
