"""The power replay: batched NumPy replay ≡ scalar row-at-a-time reference.

:class:`~repro.power.replay.BusPowerModel` has two replays of the same
recorded rows — the columnar NumPy replay every run uses and the scalar
reference it falls back to.  These tests drive both with the same rows,
kernel-free, and require identical state and identical sink calls, over
random row streams with every sink attached, the clock-tree ("CLK")
column, values at the int64 edge and arbitrary flush-cap cuts.
"""

import io
import json

import pytest

from repro.amba.config import AhbConfig
from repro.power import replay
from repro.power.replay import BusPowerModel

N_MASTERS = 3
M2S_WIDTHS = (2, 32, 1, 3, 3, 4, 32)
S2M_WIDTHS = (32, 2, 1)


class _Column:
    def __init__(self, name, width):
        self.name = name
        self.width = width
        self.value = 0


class _Gate:
    """Only its presence matters to the replay: the row's last column
    holds the gate's recorded enable."""

    gated = None


class _Tracer:
    def __init__(self):
        self.calls = []

    def on_step(self, time_ps, mode, instruction, block_energies, total,
                response):
        self.calls.append((time_ps, mode, instruction,
                           list(block_energies.items()), total, response))


def _model(clock_tree):
    config = AhbConfig.with_uniform_map(n_masters=N_MASTERS, n_slaves=3,
                                        default_master=N_MASTERS - 1)
    model = BusPowerModel(
        config,
        [_Column("m%d" % i, w) for i, w in enumerate(M2S_WIDTHS)],
        [_Column("s%d" % i, w) for i, w in enumerate(S2M_WIDTHS)],
        [_Column("r%d" % i, 1) for i in range(2 * N_MASTERS)],
        with_traces=True, datafile=io.StringIO(),
        clock_tree_flops=200 if clock_tree else None,
        clock_gate=_Gate() if clock_tree else None)
    model.fsm.enable_logging()
    model.fsm.tracer = _Tracer()
    return model


def _observed(model):
    fsm = model.fsm
    return {
        "state": json.dumps(model.state_dict(), sort_keys=True),
        "log": fsm.instruction_log,
        "traces": {name: (trace._times, trace._energies)
                   for name, trace in model.traces.traces.items()},
        "datafile": fsm.datafile.getvalue(),
        "tracer": fsm.tracer.calls,
    }


def test_sinks_follow_the_step_arguments():
    rows = [
        # htrans, haddr, hwrite, hsize, hburst, hprot, hwdata
        (2, 0x1004, 1, 2, 0, 1, 0xFF,
         # hrdata, hresp, hready
         0, 0, 1,
         # hbusreq/hlock x 3
         1, 0, 0, 0, 0, 0,
         # owner, grant, dsel, time, gated
         0, 0, 1, 5_000, 0),
        (0, 0x1004, 0, 2, 0, 1, 0xFF, 0x55, 1, 1, 0, 0, 0, 0, 0, 0,
         2, 2, 0, 15_000, 1),
    ]
    model = _model(clock_tree=True)
    for row in rows:
        model.push(row)
    assert model.pending == 2
    model.flush()
    assert model.pending == 0
    tracer = model.fsm.tracer
    assert [call[0] for call in tracer.calls] == [5_000, 15_000]
    assert [call[2] for call in tracer.calls] == ["IDLE_WRITE",
                                                  "WRITE_IDLE_HO"]
    assert [call[5] for call in tracer.calls] == ["OKAY", "ERROR"]
    assert [key for key, _ in tracer.calls[0][3]] == [
        "M2S", "S2M", "DEC", "ARB", "CLK"]
    assert tracer.calls[1][3][-1] == ("CLK", 0.0)   # gated cycle
    assert model.ledger.response_energy["ERROR"] == tracer.calls[1][4]
    assert model.fsm.instruction_log == [
        (call[0], call[2], call[4]) for call in tracer.calls]


hypothesis = pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

#: Values an int64 column still holds (the mask must cope) and values
#: it cannot (the replay must fall back to the scalar reference).
INT64_EDGE = (2**62 - 1, 2**62, 2**63 - 1)
BEYOND_INT64 = (2**63, 2**64 + 5)


def _value(width, extremes):
    choices = [st.integers(min_value=0, max_value=(1 << width) - 1),
               st.integers(min_value=-3, max_value=-1)]
    if extremes:
        choices.append(st.sampled_from(extremes))
    return st.one_of(*choices)


@st.composite
def _rows(draw, clock_tree, extremes):
    count = draw(st.integers(min_value=1, max_value=40))
    time = 5_000
    rows = []
    for _ in range(count):
        m2s = [draw(st.integers(min_value=0, max_value=3))]
        m2s += [draw(_value(width, extremes))
                for width in M2S_WIDTHS[1:]]
        s2m = [draw(_value(32, extremes)),
               draw(st.integers(min_value=0, max_value=3)),
               draw(_value(1, extremes))]
        arb = [draw(_value(1, extremes)) for _ in range(2 * N_MASTERS)]
        owner = draw(st.integers(min_value=-N_MASTERS,
                                 max_value=N_MASTERS - 1))
        tail = [owner,
                draw(st.one_of(st.just(owner), _value(4, extremes))),
                draw(_value(8, extremes)), time]
        if clock_tree:
            tail.append(draw(st.integers(min_value=0, max_value=2)))
        rows.append(tuple(m2s + s2m + arb + tail))
        time += 10_000
    return rows


class TestBatchedEqualsScalar:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data(), clock_tree=st.booleans(),
           extremes=st.sampled_from(((), INT64_EDGE, BEYOND_INT64)),
           cap=st.integers(min_value=1, max_value=50))
    def test_replays_agree(self, data, clock_tree, extremes, cap):
        rows = data.draw(_rows(clock_tree, extremes))
        cuts = set(data.draw(st.lists(
            st.integers(min_value=0, max_value=len(rows)), max_size=4)))

        reference = _model(clock_tree)
        reference._replay_rows(rows)

        original_cap = replay.FLUSH_ROWS
        replay.FLUSH_ROWS = cap
        try:
            batched = _model(clock_tree)
        finally:
            replay.FLUSH_ROWS = original_cap
        fallbacks = []

        def scalar(rows, _replay=batched._replay_rows):
            fallbacks.append(len(rows))
            _replay(rows)

        batched._replay_rows = scalar
        for index, row in enumerate(rows):
            if index in cuts:
                batched.flush()
            batched.push(row)
        batched.flush()

        assert _observed(batched) == _observed(reference)
        if extremes is not BEYOND_INT64:
            assert not fallbacks      # NumPy replayed every row
