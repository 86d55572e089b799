"""Coverage-guided protocol fuzzing.

Closes the loop between the compliance oracle (:mod:`repro.protocol`),
the supervised executor (:mod:`repro.exec`), the ddmin shrinker
(:mod:`repro.replay.shrink`) and telemetry-style coverage signals:

* :mod:`repro.fuzz.coverage` — per-run coverage probe (rule arms,
  bus/power FSM transition pairs, latency buckets) and the campaign
  :class:`CoverageMap`;
* :mod:`repro.fuzz.mutators` — structured mutators over
  RunSpec-encodable genomes;
* :mod:`repro.fuzz.corpus` — deterministic, seed-stable corpus store;
* :mod:`repro.fuzz.engine` — the campaign loop: mutate, execute under
  budget, admit novel coverage, shrink novel failures into committed
  reproducer regression tests.

See ``docs/RESILIENCE.md`` §6 for the workflow.
"""

from .corpus import Corpus, CorpusEntry, entry_id_for
from .coverage import CoverageMap, CoverageProbe
from .engine import (
    FuzzCampaign,
    FuzzConfig,
    FuzzReport,
    run_fuzz_campaign,
    write_reproducer,
)
from .mutators import MUTATOR_NAMES, MUTATORS, mutate

__all__ = [
    "Corpus",
    "CorpusEntry",
    "CoverageMap",
    "CoverageProbe",
    "FuzzCampaign",
    "FuzzConfig",
    "FuzzReport",
    "MUTATORS",
    "MUTATOR_NAMES",
    "entry_id_for",
    "mutate",
    "run_fuzz_campaign",
    "write_reproducer",
]
