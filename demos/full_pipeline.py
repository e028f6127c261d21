"""The whole training story on the synthetic benchmark.

Stages: pretrain an encoder and known-class classifier on labeled source
data; propagate classifier weights to the unknown classes over the
taxonomy; match source and target instances; then jointly minimize
cross-entropy + matched-pair discrepancy + limited balance + the graph
regularizer. The ablation table at the end reads, on `all`: the limited
balance alone falls far below the baseline; adding the matched-pair
discrepancy lifts it above the baseline; the graph term then moves it by
less than the spread over the seeds.

Run:  python3 demos/full_pipeline.py       (about 2 s on two Xeon cores)
"""
from dataclasses import replace

from opendomain.config import ExperimentConfig, SynthConfig
from opendomain.trainer import format_ablation_table, run_ablation, run_pipeline

cfg = ExperimentConfig()
print(f"benchmark: {cfg.synth.known_classes} known / "
      f"{cfg.synth.total_classes} total classes, "
      f"{cfg.synth.input_dim}-d features, affine domain shift\n")

print("single full run (lb + sgmd + gcn), epoch by epoch:")
_, history = run_pipeline(cfg)
for rec in history[:: max(1, len(history) // 8)]:
    print(f"  epoch {rec['epoch']:>2}  cls {rec['loss_cls']:.3f}  "
          f"sgmd {rec['loss_sgmd']:.3f}  balance {rec['loss_balance']:.3f}  "
          f"gated {rec['gated_fraction']:5.1%}  all-acc {rec['all']:.3f}")
final = history[-1]
print(f"final: known {final['known']:.3f}  unknown {final['unknown']:.3f}  "
      f"all {final['all']:.3f}\n")

print("ablation over 5 seeds (each seed regenerates the benchmark):")
results = run_ablation(cfg, seeds=range(5))
print(format_ablation_table(results))

print("symmetric label spaces (every class known): does the matched-pair")
print("discrepancy alone close the domain gap?")
sym = SynthConfig(known_classes=8, total_classes=8)
da_cfg = ExperimentConfig(synth=sym, enable_lb=False, enable_gcn=False)
out = run_ablation(da_cfg, seeds=[da_cfg.seed])
print(f"  source-only {out['source_only']['all_mean']:.3f}  "
      f"with discrepancy {out['sgmd']['all_mean']:.3f}")
no_shift = run_ablation(replace(
    da_cfg, synth=replace(sym, translation_scale=0.0, rotation_angle=0.0)),
    seeds=[da_cfg.seed])
print(f"  (no shift)  {no_shift['source_only']['all_mean']:.3f}  "
      f"with discrepancy {no_shift['sgmd']['all_mean']:.3f}")
print("the gain comes from the shift being undone, not from the term")
print("helping on already-aligned domains.")
