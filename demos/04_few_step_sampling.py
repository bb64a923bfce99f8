"""Few-step and one-step sampling.

With an oracle predictor the deterministic skip-step sampler recovers
the target exactly at any number of substeps; with a real (untrained)
network it shows the one-jump inference path used by default, and that
fixed seeds give bit-identical forecasts. The step count is the config's
`substeps`, so the ten-step forecast comes from a second model built with
substeps = 10 on the same seed, hence with the same parameters.
"""

import dataclasses

import numpy as np

from memdiff import ForecastModel, TrainConfig, make_schedule
from memdiff.denoiser import ddim_sample

sched = make_schedule(10)
truth = np.random.default_rng(0).standard_normal((8, 3))

print("oracle predictor (always returns the true target):")
for substeps in (1, 2, 5, 10):
    out = ddim_sample(lambda y, k: truth, 8, 3, sched, substeps, np.random.default_rng(1))
    print(f"  substeps={substeps:2d}: max |error| = {np.max(np.abs(out - truth)):.2e}")

cfg = TrainConfig(lookback=16, horizon=8, n_channels=3, latent_dim=8,
                  enc_hidden=[16], den_hidden=[32], embed_dim=8,
                  diffusion_steps=10, semantic_size=4, episodic_size=6, queue_size=3,
                  recall_top_k=2).validate()
model = ForecastModel(cfg, np.random.default_rng(2))
x0 = np.random.default_rng(3).standard_normal((16, 3))

a = model.forecast(x0, np.random.default_rng(42))
b = model.forecast(x0, np.random.default_rng(42))
print(f"\nuntrained model, one-jump forecast shape {a.shape}; "
      f"same seed twice -> bit-identical: {np.array_equal(a, b)}")

ten_step = ForecastModel(dataclasses.replace(cfg, substeps=10).validate(),
                         np.random.default_rng(2))
full = ten_step.forecast(x0, np.random.default_rng(42))
print(f"one-step vs ten-step forecast differ by {np.max(np.abs(a - full)):.3f} "
      "(different paths through the same model)")
