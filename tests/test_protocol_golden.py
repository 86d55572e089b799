"""Golden pins for the protocol compliance engine.

The checker's output is pinned against values recorded with the
original per-cycle live checker, which built a ``CycleView`` and ran
every rule's ``check`` in its clock process each cycle:

* faulted campaign runs on three scenarios — behavioural fault modes,
  net-level faults on the shared bus signals, and glitch / stuck-at
  faults on one master's ``HGRANT`` and one slave's ``HSEL`` — so that
  every one of the 14 catalogue rules fires at least once;
* per run, the SHA-256 of the violation list (``to_dict()``),
  ``rule_counts``, ``cycles_checked`` and ``state_dict()``, plus the
  checker's state-section digest at every checkpoint boundary of
  :func:`~repro.state.run_with_checkpoints`;
* runs that die at ``raise`` severity (global or a per-rule override):
  the exception, the kernel time, ``cycles_checked``, the number of
  violations and the torn ``state_dict()``;
* the ``warn`` severity's stderr text.

Every value is a pure function of simulated behaviour, so the same
values must come out on either engine.  Run this file as a script to
print the current values.
"""

import contextlib
import functools
import hashlib
import io
import json

import pytest

from repro.amba.transactions import reset_txn_ids
from repro.kernel import FaultInjector, us
from repro.protocol import CATALOGUE
from repro.replay import FaultEntry, RunSpec, execute
from repro.state import CheckpointPlan
from repro.workloads import build_scenario

ENGINES = ("interpreted", "compiled")

#: Checkpoint interval of the campaign runs (cycles).
INTERVAL = 150

_sf = FaultEntry.signal_fault

#: Shared-bus faults, by case name.
SIGNAL_CASES = {
    "htrans-seq": [_sf("glitch", "htrans", value=3, cycles=1,
                       start_ps=1_000_000)],
    "htrans-busy": [_sf("glitch", "htrans", value=1, cycles=2,
                        start_ps=1_500_000)],
    "htrans-flip": [_sf("bit-flip", "htrans", bit=0, probability=0.02,
                        start_ps=500_000)],
    "haddr-flip1": [_sf("bit-flip", "haddr", bit=1, probability=0.02)],
    "haddr-flip4": [_sf("bit-flip", "haddr", bit=4, probability=0.02)],
    "hready-low": [_sf("glitch", "hready", value=0, cycles=3,
                       probability=0.01)],
    "hresp-error": [_sf("glitch", "hresp", value=1, cycles=1,
                        probability=0.01)],
    "hresp-retry": [_sf("glitch", "hresp", value=2, cycles=2,
                        probability=0.01)],
    "hburst-flip": [_sf("bit-flip", "hburst", bit=1, probability=0.02)],
    "hsize-flip": [_sf("bit-flip", "hsize", bit=0, probability=0.02)],
    "hwrite-flip": [_sf("bit-flip", "hwrite", bit=0, probability=0.02)],
    "hmaster-flip": [_sf("bit-flip", "hmaster", bit=0,
                         probability=0.02)],
    "stall-haddr": [_sf("glitch", "hready", value=0, cycles=2,
                        probability=0.03),
                    _sf("bit-flip", "haddr", bit=3, probability=0.05)],
    "stall-hwrite": [_sf("glitch", "hready", value=0, cycles=2,
                         probability=0.03),
                     _sf("bit-flip", "hwrite", bit=0, probability=0.05)],
}

#: Faults on one port's grant/select net: ``(kind, side, index, args)``.
PORT_CASES = {
    "hgrant-glitch": ("glitch", "master", 0,
                      dict(value=1, cycles=3, probability=0.02)),
    "hgrant-stuck0": ("stuck_at", "master", 0,
                      dict(bit=0, stuck_value=0, start=2_000_000,
                           end=2_200_000)),
    "hsel-stuck1": ("stuck_at", "slave", 1,
                    dict(bit=0, stuck_value=1, start=1_000_000,
                         end=1_100_000)),
    "hsel-glitch": ("glitch", "slave", 1,
                    dict(value=1, cycles=2, probability=0.02)),
}

BEHAVIOURAL = ("always-retry", "hung-slave", "unreleased-split")

SCENARIOS = ("portable-audio-player", "wireless-modem")


def _digest(obj):
    text = json.dumps(obj, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _port_injector(case):
    kind, side, index, args = PORT_CASES[case]

    def instrument(system):
        injector = FaultInjector(system.sim, system.clk, seed=5,
                                 name="port_injector")
        ports = (system.bus.master_ports if side == "master"
                 else system.bus.slave_ports)
        signal = ports[index].hgrant if side == "master" \
            else ports[index].hsel
        getattr(injector, kind)(signal, **args)
        system.sim.register_state("port_injector", injector)
    return instrument


def _case(name):
    """``(faults, instrument, spec kwargs)`` of run *name*
    (``scenario/case``)."""
    _, case = name.split("/", 1)
    kwargs = {}
    if case.endswith("+nowd"):
        case = case[:-len("+nowd")]
        kwargs["watchdog"] = False
    if case.endswith("+tight"):
        case = case[:-len("+tight")]
        kwargs["protocol_kwargs"] = {"wait_limit": 2, "retry_limit": 1,
                                     "split_limit": 4}
    if case in BEHAVIOURAL:
        return [FaultEntry.behavioural(case, 0, 4)], None, kwargs
    if case in PORT_CASES:
        return [], _port_injector(case), kwargs
    if case == "clean":
        return [], None, kwargs
    return list(SIGNAL_CASES[case]), None, kwargs


def _run_names():
    names = []
    for scenario in SCENARIOS:
        for case in (("clean",) + BEHAVIOURAL + tuple(SIGNAL_CASES)
                     + tuple(PORT_CASES)):
            names.append("%s/%s" % (scenario, case))
    names += [
        "portable-videogame/hresp-retry",
        "portable-videogame/htrans-flip",
        "portable-audio-player/always-retry+nowd",
        "portable-audio-player/hung-slave+nowd",
        "portable-audio-player/unreleased-split+nowd",
        "wireless-modem/always-retry+tight",
        "wireless-modem/unreleased-split+tight",
        "wireless-modem/stall-haddr+tight",
    ]
    return names


RUNS = _run_names()


def _checker_record(checker):
    return {
        "violations": [v.to_dict() for v in checker.violations],
        "rule_counts": checker.rule_counts,
        "cycles_checked": checker.cycles_checked,
        "state": checker.state_dict(),
    }


@functools.lru_cache(maxsize=None)
def campaign_run(name, engine="interpreted"):
    """One faulted scenario run, 6 µs, checkpointed every
    :data:`INTERVAL` cycles."""
    scenario = name.split("/", 1)[0]
    faults, instrument, kwargs = _case(name)
    spec = RunSpec(scenario, seed=2, duration_us=6.0, faults=faults,
                   engine=engine, **kwargs)
    system, outcome = execute(
        spec, instrument=instrument,
        checkpoint=CheckpointPlan(interval_cycles=INTERVAL))
    checker = system.checker
    return {
        "outcome": outcome.outcome,
        "rules": dict(sorted(checker.rule_counts.items())),
        "digest": _digest(_checker_record(checker)),
        "checkpoints": _digest([
            entry["sections"]["components.checker"]
            for entry in outcome.digests["entries"]]),
    }


def long_run(engine="interpreted"):
    """A faulted run of 6000 cycles in two ``run`` calls, long enough
    for a 4096-row record to fill mid-run."""
    reset_txn_ids()
    system = build_scenario("wireless-modem", seed=4, watchdog=True)
    injector = FaultInjector(system.sim, system.clk, seed=9)
    injector.glitch(system.bus.hready, value=0, cycles=2,
                    probability=0.01)
    injector.bit_flip(system.bus.haddr, bit=2, probability=0.01)
    injector.glitch(system.bus.hresp, value=2, cycles=1,
                    probability=0.005)
    _maybe_compile(system, engine)
    system.run(us(25))
    system.run(us(35))
    return _digest(_checker_record(system.checker))


def _maybe_compile(system, engine):
    if engine == "compiled":
        from repro.compiled import compile_system
        compile_system(system)


#: Runs that die at ``raise`` severity:
#: ``name -> (scenario, faults, check_protocol, overrides)``.
RAISE_CASES = {
    "raise-htrans-seq": ("portable-audio-player",
                         SIGNAL_CASES["htrans-flip"], "raise", None),
    "raise-hresp": ("wireless-modem", SIGNAL_CASES["hresp-error"],
                    "raise", None),
    "raise-hgrant": ("portable-audio-player", None, "raise", None),
    "override-stall": ("wireless-modem", SIGNAL_CASES["stall-haddr"],
                       "record", {"stall-stability": "raise"}),
    "override-burst": ("portable-audio-player",
                       SIGNAL_CASES["haddr-flip4"], "record",
                       {"burst-address": "raise"}),
    "override-wait": ("portable-audio-player", None, "record",
                      {"wait-limit": "raise"}),
}


def raise_run(name, engine="interpreted"):
    scenario, faults, severity, overrides = RAISE_CASES[name]
    reset_txn_ids()
    kwargs = {}
    if name == "override-wait":
        kwargs["slave_overrides"] = {0: _hung_slave()}
    protocol_kwargs = {}
    if overrides:
        protocol_kwargs["severity_overrides"] = overrides
    system = build_scenario(scenario, seed=2, watchdog=True,
                            check_protocol=severity,
                            protocol_kwargs=protocol_kwargs, **kwargs)
    injector = FaultInjector(system.sim, system.clk, seed=0)
    for fault in faults or ():
        target = getattr(system.bus, fault.signal)
        window = {"start": fault.start_ps, "end": fault.end_ps,
                  "probability": fault.probability}
        if fault.kind == "bit-flip":
            injector.bit_flip(target, fault.bit, **window)
        else:
            injector.glitch(target, fault.value, cycles=fault.cycles,
                            **window)
    if name == "raise-hgrant":
        injector.glitch(system.bus.master_ports[0].hgrant, value=1,
                        cycles=3, probability=0.02)
    _maybe_compile(system, engine)
    error = None
    try:
        system.run(us(3))
        system.run(us(3))
    except Exception as exc:          # noqa: BLE001 - recorded below
        error = exc
    checker = system.checker
    original = getattr(error, "original", None)
    return {
        "error": type(error).__name__ if error is not None else None,
        "original": type(original).__name__
        if original is not None else None,
        "now": system.sim.now,
        "cycles_checked": checker.cycles_checked,
        "violations": len(checker.violations),
        "state": _digest(checker.state_dict()),
    }


def _hung_slave():
    from repro.faults import fault_slave_factory
    return fault_slave_factory("hung-slave", 4)


def warn_run(engine="interpreted"):
    """``warn`` severity: the text printed to stderr."""
    reset_txn_ids()
    system = build_scenario("wireless-modem", seed=2, watchdog=True,
                            check_protocol="warn")
    injector = FaultInjector(system.sim, system.clk, seed=1)
    for fault in SIGNAL_CASES["stall-hwrite"]:
        target = getattr(system.bus, fault.signal)
        if fault.kind == "bit-flip":
            injector.bit_flip(target, fault.bit,
                              probability=fault.probability)
        else:
            injector.glitch(target, fault.value, cycles=fault.cycles,
                            probability=fault.probability)
    _maybe_compile(system, engine)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        system.run(us(3))
        system.run(us(3))
    return {"stderr": err.getvalue(),
            "state": _digest(system.checker.state_dict())}


# -- values recorded with the per-cycle live checker ---------------------
#
# Printed by running this file as a script against the source tree in
# which ``ComplianceEngine`` still evaluated every rule live in its clock
# process (interpreted kernel).  Never re-record them from the batched
# evaluation they are meant to check.

CAMPAIGN = {
    "portable-audio-player/always-retry": {
        "checkpoints": "642723be4411011fae23c28dd8eb79a7cf995ed47a86ffbff2afa2ef42f977ed",
        "digest": "43c2ecfd6ad59e78c7a39be66382bad64ebb16f5d3168747ae6b40e533efdaf1",
        "outcome": "recovered",
        "rules": {"retry-livelock": 1},
    },
    "portable-audio-player/always-retry+nowd": {
        "checkpoints": "0d0097ea9a0e546c06de6ab23a6a69f3aabad2940e7d9cf5f211701565683fae",
        "digest": "03f23b857c789839c96fb06737c5a996c67076f3a8fa93c6d766e8875c162c37",
        "outcome": "degraded",
        "rules": {"retry-livelock": 1},
    },
    "portable-audio-player/clean": {
        "checkpoints": "cdc387494d44fd9130bae5f3a5006d8824fee499f3190dfb8345496d48864993",
        "digest": "5570c3cf5e4cabaea7efe95b1900be7030fde078ebf45af2a24f4efc1fe9188b",
        "outcome": "completed",
        "rules": {},
    },
    "portable-audio-player/haddr-flip1": {
        "checkpoints": "928c08aa3771a7b6470b34e562107182b017e58eb804454309a525c3b475bc6e",
        "digest": "fb04ac04155a2443e2461dd2bdf7fa5ea47fce4d43ffd7918d01f033809cd664",
        "outcome": "completed",
        "rules": {"alignment": 6, "burst-address": 7},
    },
    "portable-audio-player/haddr-flip4": {
        "checkpoints": "e8069fef46add6d8f94599bfb0372d9318caca8758a61271beafb6f8b86d98f9",
        "digest": "75782696776ba987517b240415a278f5bca08bb9471290e37ec0a643495cdabe",
        "outcome": "completed",
        "rules": {"burst-address": 7},
    },
    "portable-audio-player/hburst-flip": {
        "checkpoints": "b908fb4158f21034fc735d02652141ec320ac7ccbdea8de0a7babea8861f3d3c",
        "digest": "21e0c21bf90f020157f438041a760fb418dd8b1e1b8a29c33b3e54fc4f897d18",
        "outcome": "completed",
        "rules": {"burst-control": 4},
    },
    "portable-audio-player/hgrant-glitch": {
        "checkpoints": "b07222c096f0076d6796d02720db6687d90d9e81e4ee3e62ae0baf7a6b17be8e",
        "digest": "d814f14ba042fdb4a5356aa33a31607f203e709b58958bb7349dd05718573cb5",
        "outcome": "completed",
        "rules": {"hgrant-one-hot": 24},
    },
    "portable-audio-player/hgrant-stuck0": {
        "checkpoints": "30b177b59603c78085af666d15e17bfc488065e912fc723698c74692241a1a18",
        "digest": "bce3e30296793e5a6a7fa2924fc17ca5b5beeccf25ede8c269d71c9dcd05c513",
        "outcome": "completed",
        "rules": {"hgrant-one-hot": 20},
    },
    "portable-audio-player/hmaster-flip": {
        "checkpoints": "449e0828445b5df8d2dd17e91eb538a9f8e76699390062887907faf6ac936daf",
        "digest": "e37f69e87f1ff5317a3c1f75641e8b4834f55ed35c0cbcc421dcdd5b70915860",
        "outcome": "crashed",
        "rules": {"grant-handover": 1, "seq-without-nonseq": 4},
    },
    "portable-audio-player/hready-low": {
        "checkpoints": "cd5b5a631c5e42d07f59aab25a67d665cec1180c7a1ebd831bbe20a84ac9e3e8",
        "digest": "4399b79f7787953730deee3076c3e376f846b356ac4c6eea54c3a20ad7de92d0",
        "outcome": "completed",
        "rules": {"idle-okay": 3},
    },
    "portable-audio-player/hresp-error": {
        "checkpoints": "c987078619577a52b17f0d364394cd426744cbe10f9551bf1394307520d62a6c",
        "digest": "7d15e759008e2494499420ded22d0cc8c19c9645dd475470488e43b59667df3c",
        "outcome": "degraded",
        "rules": {"idle-okay": 4, "two-cycle-response": 10},
    },
    "portable-audio-player/hresp-retry": {
        "checkpoints": "86946023e4152a011b149d7bd615c00988f6c74dc4eb0d106787f0841f5a5381",
        "digest": "fb80db4f2eec0e912ea50e368422164f70f249731de25279ec52f5d98fb3971a",
        "outcome": "completed",
        "rules": {"idle-okay": 5, "two-cycle-response": 16},
    },
    "portable-audio-player/hsel-glitch": {
        "checkpoints": "e6b3ab44bb00e67c441e3e935d62b6e350c7f81b13ff09b6e508994b890e1a5a",
        "digest": "5464e0cb12233f170bdd0bdc98b222d9627a0978b888f59caf588fec118059e1",
        "outcome": "completed",
        "rules": {"hsel-one-hot": 22},
    },
    "portable-audio-player/hsel-stuck1": {
        "checkpoints": "4390f0492857a1a0d644222fc83a3de38c44dcc712df5a4f1165f82ad1645199",
        "digest": "cc090c097e3dbe880f518006f0cb299bde2ab25cecdb6c67224bafd3834327b6",
        "outcome": "completed",
        "rules": {"hsel-one-hot": 10},
    },
    "portable-audio-player/hsize-flip": {
        "checkpoints": "aee546819acd862df6732c03501e7dad60ce1c4f5ee9f6897e5a0028593286cb",
        "digest": "289d8f7582ba63f16a883e4081411cbebf6b79bc96b2e21e8b40818b9a597c54",
        "outcome": "completed",
        "rules": {"alignment": 4, "burst-control": 4},
    },
    "portable-audio-player/htrans-busy": {
        "checkpoints": "cdc387494d44fd9130bae5f3a5006d8824fee499f3190dfb8345496d48864993",
        "digest": "5570c3cf5e4cabaea7efe95b1900be7030fde078ebf45af2a24f4efc1fe9188b",
        "outcome": "completed",
        "rules": {},
    },
    "portable-audio-player/htrans-flip": {
        "checkpoints": "38fdfb03133011956d102d8821c1efb15486e9c8a384c52d81572bf0a22e4871",
        "digest": "926371a7c838281ac6ef479a1b078c34dcc51c129d068135a53278af0db33493",
        "outcome": "completed",
        "rules": {
            "busy-outside-burst": 1,
            "grant-handover": 1,
            "seq-without-nonseq": 1,
        },
    },
    "portable-audio-player/htrans-seq": {
        "checkpoints": "b88aa81ed492b3aff8645beb673565f3c883d3fc9ae8a0422dc45ce434159697",
        "digest": "6d4450f6828cfae6f3f7e043cf2d57debab58aa20b84435bc7eaaaafe9d9cb28",
        "outcome": "completed",
        "rules": {"burst-address": 1},
    },
    "portable-audio-player/hung-slave": {
        "checkpoints": "6479aeedda36965e32c2a111edd2c72a32171007f008fff656ef8febfd9b5653",
        "digest": "46db20becdb2c77279651d4a61716bafc04bb031c5662910dbacfd86fee18e36",
        "outcome": "recovered",
        "rules": {"wait-limit": 27},
    },
    "portable-audio-player/hung-slave+nowd": {
        "checkpoints": "c2ecfd27c329d9b2e371b1f2bd872c56d222c50b6f8d2bf09953124c60485e60",
        "digest": "89c2bb0e282e69fb577a9253b84d9b4c50e342a3f22ac4dceadd8041e68fd456",
        "outcome": "completed",
        "rules": {"wait-limit": 1},
    },
    "portable-audio-player/hwrite-flip": {
        "checkpoints": "68a7a294345c24e595688b22434c66570f72a39e2dcdb6b87dfdbdb101df87fe",
        "digest": "53340405dc55a9b065dac6799c3d3c72c399c7bd7d471f048b0bb517e7d7045b",
        "outcome": "completed",
        "rules": {"burst-control": 4},
    },
    "portable-audio-player/stall-haddr": {
        "checkpoints": "b385cd06ac2cfb752c421febd26a95a3c4b1ca57614c97002244275ea34e10fb",
        "digest": "10180289eb0400642c53defa48c33cf61ddbcdb5e1920af468f8a4353357af92",
        "outcome": "completed",
        "rules": {"burst-address": 23, "idle-okay": 11, "stall-stability": 14},
    },
    "portable-audio-player/stall-hwrite": {
        "checkpoints": "68e0b6c965cbd057413465d6c91efe0fc0a0bd59700d62b942b96d07af9d35c5",
        "digest": "56645e9ea00d069b118536086c695e96b4a2b115886f2eb7a0ffe711567aac63",
        "outcome": "completed",
        "rules": {"burst-control": 25, "idle-okay": 11, "stall-stability": 14},
    },
    "portable-audio-player/unreleased-split": {
        "checkpoints": "7552809e3683e1bda3a4c88c7bef080e08a232ab17b77af74130963fde593ea6",
        "digest": "bed3ff61c1d103d0e5a4cadf1d3a3ba40df193cc6fbbc328424d0a4171d879cf",
        "outcome": "recovered",
        "rules": {"split-release": 8},
    },
    "portable-audio-player/unreleased-split+nowd": {
        "checkpoints": "f9e410911a4357421869b4c5a22fbd25187f3018c3004e63575a95f6ef70f376",
        "digest": "608d8d2f8bf3f9eba83c6e5a8d5db8f31767fd036ea875f277e099b680720a66",
        "outcome": "completed",
        "rules": {"split-release": 1},
    },
    "portable-videogame/hresp-retry": {
        "checkpoints": "3d78215dca4fa271465181d9f43dafcd4d59c0d2468e502ce069ce90b64096ba",
        "digest": "c846f396fe785c64ccf4a39d7480003922144e2c6d51b591793e52298d6e2bc8",
        "outcome": "completed",
        "rules": {"idle-okay": 3, "two-cycle-response": 16},
    },
    "portable-videogame/htrans-flip": {
        "checkpoints": "6330629a6031d5050a6e30b913bc40b805ae41b9bc774ebd003da10f4593fff1",
        "digest": "bb40877dcac8c716e82554fbd8d7c7d79c7a935860ef44aaff606e1598d0f67d",
        "outcome": "completed",
        "rules": {"grant-handover": 1, "seq-without-nonseq": 1},
    },
    "wireless-modem/always-retry": {
        "checkpoints": "aa16f16dd0a9441c286dabd237ff7a2c4a1bf5d2fc50b9ef69ed168f339090b1",
        "digest": "0e4735d48a620d61c0caed71a0c40ae36226e4cbe53aac93e0164d2358189db6",
        "outcome": "recovered",
        "rules": {"retry-livelock": 1},
    },
    "wireless-modem/always-retry+tight": {
        "checkpoints": "04a84728eaf387e841ea56c333620dde45004f50ad3c6a6affc15405ed9e9c63",
        "digest": "2d9ff1e7e8d4c644da2c32c1c12823c3fc2913c58086283225dafa6e5fb8ba59",
        "outcome": "recovered",
        "rules": {"retry-livelock": 1},
    },
    "wireless-modem/clean": {
        "checkpoints": "b98fd2bb9bb036966539f2cdb5514cdf38aea150ed70a24a405e70338333b5a9",
        "digest": "69c0d04fd2501cf7a3510783f17ec3fd9b29d6857d4116de039c3ee3b18f2214",
        "outcome": "completed",
        "rules": {},
    },
    "wireless-modem/haddr-flip1": {
        "checkpoints": "03152f03705b8394556250b89ac9245557350a177831786f079a73138024d678",
        "digest": "79d1002faad4902671a1e7d00dd4d7314ccb644eeb3dee5e395a5b353db8ff08",
        "outcome": "completed",
        "rules": {"alignment": 7, "stall-stability": 6},
    },
    "wireless-modem/haddr-flip4": {
        "checkpoints": "de38c2d4c3e4214465a54eba7a0c268a60f07cf2eee035926ab1c39d938b78d5",
        "digest": "ee07ab651466423a50240e4ad604293c95ed77eb2e3235b665599945f4b09e04",
        "outcome": "completed",
        "rules": {"stall-stability": 6},
    },
    "wireless-modem/hburst-flip": {
        "checkpoints": "fff354538290ac2bb075ac09b04dee6b6aa4d107f30b1deaf9d5ac3ca514f619",
        "digest": "acf675fe777932c3415a9a69d5aa0740525d4be997dd3d52f7c868e04d3da444",
        "outcome": "completed",
        "rules": {"stall-stability": 6},
    },
    "wireless-modem/hgrant-glitch": {
        "checkpoints": "42ecc197d239d03be5a73666167f00f88012840d2b0d1d90bce953721116bcdb",
        "digest": "99797a815f841722b4f0f10ca2c214be0b5d7c31e52bec696ea0ac63c7ccabba",
        "outcome": "completed",
        "rules": {"hgrant-one-hot": 33},
    },
    "wireless-modem/hgrant-stuck0": {
        "checkpoints": "87f4da533e66ff596f5cff1f15ad26fae20014549371f7235f79a9c0e58f92c0",
        "digest": "c1ed94de1250953fd60af50314e32fe6607c4bc3f8714da3db2268f766a9fcea",
        "outcome": "completed",
        "rules": {"hgrant-one-hot": 15},
    },
    "wireless-modem/hmaster-flip": {
        "checkpoints": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "digest": "676755d58b00200b453ec336c997d5fbd5f6c5383271afd1ce2401ef258bfaf7",
        "outcome": "crashed",
        "rules": {},
    },
    "wireless-modem/hready-low": {
        "checkpoints": "42834ae230478afe0852fafed45174369b76d78220a8a4f2b5dbc3f671e4c43e",
        "digest": "61dbf078949bb322dc5261fd6c2d6fc7954e9e6a0e443ec879de5e548b6275f0",
        "outcome": "completed",
        "rules": {"idle-okay": 3},
    },
    "wireless-modem/hresp-error": {
        "checkpoints": "80b2bd90a6fcfd57e30bb8a971f31f6c3cc89312dead806ca35f1616a70801db",
        "digest": "914ea04361325852de796849aa434034263143193f4180a158fdfecbe9b14264",
        "outcome": "degraded",
        "rules": {"idle-okay": 2, "two-cycle-response": 9},
    },
    "wireless-modem/hresp-retry": {
        "checkpoints": "3ed76ff2a8c17ed63e7674faa70d59b6002b0bc35812d605ba2c90dcd7f00bae",
        "digest": "16f44874e6f9013951ac0a7377aa780bf01327eaa1a9a4ce9b71b41f75dcd195",
        "outcome": "completed",
        "rules": {"idle-okay": 7, "two-cycle-response": 12},
    },
    "wireless-modem/hsel-glitch": {
        "checkpoints": "69c9c6805701def522c785d813d1e3112fa491551ee7edd8a7826a7fc38215fe",
        "digest": "d629ff76769dadccc753506379280e871e73acf4d08fba58356ae08e29873959",
        "outcome": "completed",
        "rules": {"hsel-one-hot": 13},
    },
    "wireless-modem/hsel-stuck1": {
        "checkpoints": "9a1af25b62cf73af1fdf4a92677922a89073ba52a1fd9b0f0ca26ad155e87565",
        "digest": "07a91c2b8f97ce59dbf6904d1be12b8e40c33cf7e86fb9e39935b142868c489b",
        "outcome": "completed",
        "rules": {"hsel-one-hot": 10},
    },
    "wireless-modem/hsize-flip": {
        "checkpoints": "d980b097d4d51f8b16f2419b608a72163fe4b3ab33a9c33beaa3a33f6d4799c2",
        "digest": "40345b704d117930b9ebb0538e0e4b0b2ecb46181b3a90e3659a83016f363a0b",
        "outcome": "completed",
        "rules": {"alignment": 5, "stall-stability": 6},
    },
    "wireless-modem/htrans-busy": {
        "checkpoints": "19a67826b3c347f0a6606182e280cc3d4471424d0a64b365796e304ef2f0adff",
        "digest": "a2faf2f368d6b2871a3fbff46d2900df5f493c3c156181837721d57eb67584e6",
        "outcome": "completed",
        "rules": {"busy-outside-burst": 2},
    },
    "wireless-modem/htrans-flip": {
        "checkpoints": "c184b2ed2f570e2ca558207d863930cf2c42b9b12dfe5d85c53b8df04743527c",
        "digest": "9d66887efc9d8a5f7a62da1727f6efcf0367b4856a709e42003aeb40495a25b2",
        "outcome": "completed",
        "rules": {
            "burst-control": 1,
            "busy-outside-burst": 4,
            "stall-stability": 3,
        },
    },
    "wireless-modem/htrans-seq": {
        "checkpoints": "b98fd2bb9bb036966539f2cdb5514cdf38aea150ed70a24a405e70338333b5a9",
        "digest": "69c0d04fd2501cf7a3510783f17ec3fd9b29d6857d4116de039c3ee3b18f2214",
        "outcome": "completed",
        "rules": {},
    },
    "wireless-modem/hung-slave": {
        "checkpoints": "90170da94504c390b45abeedfa971e9c3f2a25c0371fde22b3bbe48c6002a654",
        "digest": "bf6da1ec40be12a09b34c3b8fe35595c28bae57f54b937fb11a91397ce0766bd",
        "outcome": "recovered",
        "rules": {"wait-limit": 24},
    },
    "wireless-modem/hwrite-flip": {
        "checkpoints": "a822dc1c7a5b1c66324a496dd020bd70652abd8871877bd3d30fd48bfac0f74a",
        "digest": "640e3724ddb6ef3f98f267ce7cb84b49e35d4042df9c5dc8dc6aeb94f7c62920",
        "outcome": "completed",
        "rules": {"stall-stability": 6},
    },
    "wireless-modem/stall-haddr": {
        "checkpoints": "efaa6cfc76e824eeda0998e5c96a0277f4b2126b34a767843250fda8d9df72f8",
        "digest": "827b675e10552c9353eaa189af03676e5079e1fc5586926b9f461e214a270055",
        "outcome": "completed",
        "rules": {"burst-address": 5, "idle-okay": 11, "stall-stability": 22},
    },
    "wireless-modem/stall-haddr+tight": {
        "checkpoints": "bf89047294877d66ec5ac2b9dc4c2feca356eb4fef2b331cadc0835e946d80ed",
        "digest": "777a0859673a9241c47c368ea4d89d8b3b4ff07b8b6cc04895c73453fc44dfd7",
        "outcome": "completed",
        "rules": {
            "burst-address": 5,
            "idle-okay": 11,
            "stall-stability": 22,
            "wait-limit": 2,
        },
    },
    "wireless-modem/stall-hwrite": {
        "checkpoints": "cf03ccad0152e9667abf2a47efaffa82fa30550f210322cbfd87476d428713c7",
        "digest": "41b39f64bf006289b71e590390c9b3b4e82c2f0c2e8053e2cfbd83b0f785d55a",
        "outcome": "completed",
        "rules": {"burst-control": 8, "idle-okay": 11, "stall-stability": 22},
    },
    "wireless-modem/unreleased-split": {
        "checkpoints": "a434acc55fa8c5412b5886d5aefb053eb62ea22dac9c4c9f8b31c7ca1bf7dc91",
        "digest": "3e575cd0fb835cfcd6f85a15c6d6c7048b53681ccf4879e0530a1ce4416cd45d",
        "outcome": "recovered",
        "rules": {"split-release": 8},
    },
    "wireless-modem/unreleased-split+tight": {
        "checkpoints": "498777472e910f26d4b373eb2a0e843eb45e31b76dfa4f5dd307483b919d27b1",
        "digest": "2605d09878c3bd646d1a0ae23146bd5789ec3ac640132265b7b880a95312cfa3",
        "outcome": "recovered",
        "rules": {"split-release": 8},
    },
}

LONG = "61f8cf97acff96c8f92d07cc6705ddd68a86778b92af995470166dcada1e331d"

RAISE = {
    "override-burst": {
        "cycles_checked": 37,
        "error": "ProcessError",
        "now": 365000,
        "original": "ProtocolComplianceError",
        "state": "ae27a9400e72b4902670329577260f91f9f461d429a3c45c8d41749fb1b70516",
        "violations": 1,
    },
    "override-stall": {
        "cycles_checked": 19,
        "error": "ProcessError",
        "now": 185000,
        "original": "ProtocolComplianceError",
        "state": "529491bb895ce7b5e017410def37c3fff805e6f93616a468ef23b109d7db3a71",
        "violations": 1,
    },
    "override-wait": {
        "cycles_checked": 29,
        "error": "ProcessError",
        "now": 285000,
        "original": "ProtocolComplianceError",
        "state": "27fef8b8f4d298619d4291cacda896315d6b1074668267e69800cf2cdb3b8963",
        "violations": 1,
    },
    "raise-hgrant": {
        "cycles_checked": 37,
        "error": "ProcessError",
        "now": 365000,
        "original": "ProtocolComplianceError",
        "state": "fd7d899177d2e847308a40829a7a61a10861e5ca8528e4008a88d0a15245c4e1",
        "violations": 1,
    },
    "raise-hresp": {
        "cycles_checked": 42,
        "error": "ProcessError",
        "now": 415000,
        "original": "ProtocolComplianceError",
        "state": "0967c4d736b8f11ea872c5a50f62c5e5cc36b2c93887a95aac90a4734146616c",
        "violations": 1,
    },
    "raise-htrans-seq": {
        "cycles_checked": 281,
        "error": "ProcessError",
        "now": 2805000,
        "original": "ProtocolComplianceError",
        "state": "c829ff084a5b92c39e2191cf252f50e243c7c2a7e6b905bbebc7b542007fa86b",
        "violations": 1,
    },
}

WARN = {
    "state": "e42c253cff563f6aea09d5bbe208ae89fa32c7e5b7cdcbd8e81aa1c9d4207c90",
    "stderr": (
        "[checker] ProtocolViolation(t=165000, idle-okay: IDLE "
        "transfer answered HREADY=0/OKAY instead of a zero-wait OKAY)"
        "\n[checker] ProtocolViolation(t=215000, burst-control: "
        "control changed mid-burst: (1, 2, 2, 1) -> (0, 2, 2, 1))\n"
        "[checker] ProtocolViolation(t=225000, stall-stability: "
        "address phase changed while HREADY low (HTRANS 3->3, HADDR "
        "0x1428->0x1428))\n"),
}


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("name", RUNS)
def test_campaign_run(name, engine):
    assert campaign_run(name, engine) == CAMPAIGN[name]


def test_every_rule_fires():
    fired = set()
    for name in RUNS:
        fired.update(campaign_run(name)["rules"])
    assert fired == set(CATALOGUE)


@pytest.mark.parametrize("engine", ENGINES)
def test_long_run(engine):
    assert long_run(engine) == LONG


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("name", sorted(RAISE_CASES))
def test_raise_run(name, engine):
    assert raise_run(name, engine) == RAISE[name]


@pytest.mark.parametrize("engine", ENGINES)
def test_warn_run(engine):
    assert warn_run(engine) == WARN


def _all():
    return {
        "CAMPAIGN": {name: campaign_run(name) for name in RUNS},
        "LONG": long_run(),
        "RAISE": {name: raise_run(name) for name in sorted(RAISE_CASES)},
        "WARN": warn_run(),
    }


if __name__ == "__main__":
    import pprint
    for key, value in _all().items():
        print("%s = %s\n" % (key, pprint.pformat(value, width=72)))
