"""Every dataclass the package defines is frozen: no code can rebind a
field of a record it was handed, so a record that several runs read (a
config, a prepared start, a model state) is the same record for each."""
import dataclasses
import importlib
import inspect
import pkgutil

import opendomain


def _dataclasses() -> dict:
    """Each dataclass defined in a package module, by qualified name."""
    found = {}
    for info in pkgutil.iter_modules(opendomain.__path__):
        module = importlib.import_module(f"opendomain.{info.name}")
        for name, obj in vars(module).items():
            if (inspect.isclass(obj) and dataclasses.is_dataclass(obj)
                    and obj.__module__ == module.__name__):
                found[f"{module.__name__}.{name}"] = obj
    return found


def test_every_dataclass_is_frozen():
    records = _dataclasses()
    assert sorted(records) == [
        "opendomain.config.ExperimentConfig", "opendomain.config.PretrainSchedule",
        "opendomain.evaluate.AccuracyTriple", "opendomain.gcn.GcnSchedule",
        "opendomain.graph.KnowledgeGraph", "opendomain.losses.LossWeights",
        "opendomain.matching.MatchedPairs", "opendomain.model.ModelState",
        "opendomain.synth.LabeledDataset", "opendomain.synth.SynthConfig",
        "opendomain.synth.UnlabeledDataset", "opendomain.trainer.Prepared"]
    thawed = sorted(name for name, cls in records.items()
                    if not cls.__dataclass_params__.frozen)
    assert not thawed, f"not frozen: {thawed}"
