"""Train on the cross-channel-recurrence benchmark and ablate the memories.

Generates a series where three spike motifs share the same onset but
continue differently, trains the full model and the no-memory baseline
for a short budget, and compares test error. (The acceptance suite runs
the long 20k-step version over five seeds.)
"""

import time

import numpy as np

from memdiff import SynthSpec, TrainConfig, Trainer, prepare, synth_generate
from memdiff.data import surprise_motifs


def make_trainer(seed, **overrides):
    cfg = TrainConfig(
        lookback=24, horizon=8, n_channels=4, latent_dim=16,
        enc_hidden=[32], den_hidden=[64, 64], embed_dim=8,
        diffusion_steps=10, semantic_size=16, episodic_size=48, queue_size=16,
        recall_top_k=5, batch_size=16, epochs=10 ** 9, max_steps=4000, lr=1e-3,
        alpha1=0.0, alpha2=0.0, dataset="synthetic", seed=seed, **overrides,
    ).validate()
    spec = SynthSpec(length=1200, channels=4, sinusoids=[(24.0, 0.4)],
                     channel_phase=0.35, motifs=surprise_motifs(),
                     motif_rate=0.012, motif_amp=4.0, noise=0.25)
    ds, injections = synth_generate(spec, seed)
    return Trainer(cfg, prepare(cfg, ds)), injections


seed = 0
trainer, injections = make_trainer(seed)
print(f"dataset: 1200 steps x 4 channels, {len(injections)} motif injections")
motif_channels = {}
for ch, _, m in injections:
    motif_channels.setdefault(m, set()).add(ch)
for m, chs in sorted(motif_channels.items()):
    print(f"  motif {m} recurs in channels {sorted(chs)}")

t0 = time.perf_counter()
history = trainer.fit()
print(f"\nfull model: {trainer.step_count} steps in {time.perf_counter() - t0:.0f}s, "
      f"first/last-100 median loss "
      f"{np.median([h.total for h in history[:100]]):.3f} -> "
      f"{np.median([h.total for h in history[-100:]]):.3f}")
store = trainer.model.episodic
print(f"episodic store: {len(store.entries)} entries + {len(store.queue)} queued")
full = trainer.evaluate("test")
print(f"test MSE {full.mse:.4f}, MAE {full.mae:.4f}")

baseline, _ = make_trainer(seed, use_semantic=False, use_episodic=False)
baseline.fit()
base = baseline.evaluate("test")
print(f"\nno-memory baseline: test MSE {base.mse:.4f}, MAE {base.mae:.4f}")
print(f"memory improvement: {(1 - full.mse / base.mse) * 100:+.1f}% MSE")
