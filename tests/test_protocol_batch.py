"""The rule catalogue's batched forms ≡ the scalar per-cycle reference.

Every built-in rule has two forms over the same recorded rows: ``batch``
over a :class:`~repro.protocol.rules.RowBlock` (NumPy masks, in-order
loops) and ``check`` one cycle at a time.  These tests drive both with
the same rows, kernel-free, over random row streams cut into blocks at
arbitrary points, and require the same violations — cycle, rule id and
message, in per-cycle order — and the same rule state.
"""

import json

import pytest

from repro.protocol.rules import (
    BATCHED_RULES,
    CycleView,
    RowBlock,
    advisory_rules,
    mandatory_rules,
)

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

N_SELS = 3        # two slaves plus the default slave
N_GRANTS = 3

#: Addresses an int64 column still holds.
INT64_EDGE = (2**62 - 1, 2**62, 2**63 - 1)


def _rules():
    return mandatory_rules() + advisory_rules(wait_limit=2, retry_limit=1,
                                              split_limit=2)


def _bits(count):
    return st.lists(st.integers(min_value=0, max_value=1),
                    min_size=count, max_size=count)


@st.composite
def _rows(draw):
    count = draw(st.integers(min_value=1, max_value=40))
    # few distinct values per column, so runs, bursts and streaks form
    small = st.integers(min_value=0, max_value=3)
    rows = []
    time = 5_000
    for _ in range(count):
        haddr = draw(st.one_of(
            st.sampled_from((0x100, 0x104, 0x108, 0x10C, 0x102)),
            st.integers(min_value=0, max_value=2**32 - 1),
            st.sampled_from(INT64_EDGE)))
        hready = draw(st.integers(min_value=0, max_value=1))
        row = (time, draw(small), haddr,
               draw(st.integers(min_value=0, max_value=1)),
               draw(st.sampled_from((0, 1, 2, 2, 2, 7))),
               draw(st.integers(min_value=0, max_value=7)),
               hready, draw(small),
               draw(st.integers(min_value=0, max_value=2)),
               draw(st.integers(min_value=0, max_value=2)))
        row += tuple(draw(_bits(N_SELS))) + tuple(draw(_bits(N_GRANTS)))
        row += (draw(st.integers(min_value=0, max_value=7)),
                draw(st.integers(min_value=0, max_value=1)))
        rows.append(row)
        time += 10_000
    return rows


def _scalar(rules, rows):
    hits = []
    prev = None
    for cycle, row in enumerate(rows):
        view = CycleView.from_row(row, cycle, N_SELS)
        for position, rule in enumerate(rules):
            for rule_id, message in rule.check(prev, view) or ():
                hits.append((cycle, position, rule_id, message))
        prev = view
    return hits


def _batched(rules, rows, cuts):
    hits = []
    prev = None
    edges = [0] + sorted({cut for cut in cuts if 0 < cut < len(rows)}) \
        + [len(rows)]
    for start, stop in zip(edges, edges[1:]):
        block = RowBlock(rows[start:stop], prev, start, N_SELS)
        found = []
        for position, rule in enumerate(rules):
            for order, (index, rule_id, message) in enumerate(
                    rule.batch(block)):
                found.append((start + index, position, order, rule_id,
                              message))
        found.sort()
        hits += [(cycle, position, rule_id, message)
                 for cycle, position, _, rule_id, message in found]
        prev = block.view(block.count - 1)
    return hits


def _states(rules):
    return json.dumps([rule.state_dict() for rule in rules],
                      sort_keys=True)


def test_every_built_in_rule_is_batched():
    assert {type(rule) for rule in _rules()} == set(BATCHED_RULES)


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_batch_agrees_with_check(data):
    rows = data.draw(_rows())
    cuts = data.draw(st.lists(
        st.integers(min_value=0, max_value=len(rows)), max_size=4))
    reference, batched = _rules(), _rules()
    expected = _scalar(reference, rows)
    assert _batched(batched, rows, cuts) == expected
    assert _states(batched) == _states(reference)


def test_view_of_a_row():
    row = (5_000, 2, 0x104, 1, 2, 3, 1, 0, 1, 0, 0, 1, 0, 0, 1, 0, 4, 1)
    view = CycleView.from_row(row, 7, N_SELS)
    assert (view.time, view.htrans, view.haddr, view.hmaster_d) \
        == (5_000, 2, 0x104, 0)
    assert view.hsels == (0, 1, 0) and view.hgrants == (0, 1, 0)
    assert (view.split_mask, view.dactive, view.cycle) == (4, 1, 7)
    assert CycleView.from_state(view.to_state()).to_state() \
        == view.to_state()


def test_block_rejects_values_beyond_int64():
    row = (5_000, 2, 2**63, 1, 2, 3, 1, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 1)
    with pytest.raises(OverflowError):
        RowBlock([row], None, 0, N_SELS)
