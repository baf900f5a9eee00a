"""The benchmark's span tracer (`bench/spans.py`) against the package.

The tracer wraps each traced layer by name from outside the package, so a
renamed or deleted target would otherwise surface only when the benchmark
runs. Here it is installed and uninstalled in process.
"""

import importlib
import sys
from pathlib import Path

from fairdiv import BidProfile, Instance, axioms, core, mechanisms

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _bindings():
    """Every name the tracer may rebind: the globals of each loaded fairdiv
    module, the axiom checker table and the traced classes' attributes."""
    out = {}
    for key, module in list(sys.modules.items()):
        if key == "fairdiv" or key.startswith("fairdiv."):
            out.update(((key, attr), value) for attr, value in vars(module).items())
    out.update((("CHECKERS", name), fn) for name, fn in axioms.CHECKERS.items())
    for cls in (mechanisms.Mechanism, core.AllocationDistribution):
        out.update(((cls.__name__, attr), value) for attr, value in vars(cls).items())
    return out


def test_tracer_wraps_every_target_and_restores_every_original(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    spans = importlib.import_module("spans")
    del sys.modules["spans"]
    targets = [(owner, attr) for places in spans.TARGETS.values() for owner, attr in places]
    missing = [f"{owner.__name__}.{attr}" for owner, attr in targets if attr not in vars(owner)]
    assert not missing

    before = _bindings()
    originals = [vars(owner)[attr] for owner, attr in targets]
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert all(vars(owner)[attr] is not original
                   for (owner, attr), original in zip(targets, originals))
        tracer.active = True
        inst = Instance(((1, 2), (2, 1)))
        mechanisms.pareto_like().run(inst)
        # pareto-like builds its moves table on ints, past the traced wrapper
        mechanisms.pareto_levels(BidProfile.sincere(inst))
        # the engine hands core its int weights, past the validating path
        core.AllocationDistribution.from_map(inst, {core.Allocation((0, 1)): 1})
        tracer.active = False
        names = {span[0] for span in tracer.take()}
        assert {"mechanisms.run", "mechanisms.allocate", "mechanisms.pareto_levels",
                "core.distribution"} <= names
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert [key for key, value in before.items() if after[key] is not value] == []
