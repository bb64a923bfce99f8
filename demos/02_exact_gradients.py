"""Verify the hand-written backward pass against finite differences.

Builds a small forecaster, freezes one training step's randomness, runs
the exact backward pass, and compares every parameter gradient with
central differences of the same frozen loss.
"""

import numpy as np

from memdiff import ForecastModel, TrainConfig, draw_step_randomness, finite_diff_check

cfg = TrainConfig(
    lookback=8, horizon=4, n_channels=2, latent_dim=4,
    enc_hidden=[8], den_hidden=[16, 16], embed_dim=8,
    diffusion_steps=4, semantic_size=3, episodic_size=4, queue_size=2,
    recall_top_k=2, batch_size=2,
).validate()

rng = np.random.default_rng(0)
model = ForecastModel(cfg, np.random.default_rng(1))
for _ in range(3):  # populate the episodic store so recall is on the graph
    model.episodic.update(rng.standard_normal((cfg.n_channels, cfg.latent_dim)))

batch_x = rng.standard_normal((2, cfg.lookback, cfg.n_channels))
batch_y = rng.standard_normal((2, cfg.horizon, cfg.n_channels))
draws = draw_step_randomness(rng, cfg, 2)


def loss():
    return model.loss(batch_x, batch_y, draws, compute_grad=False).total


model.params.zero_grads()
out = model.loss(batch_x, batch_y, draws)
print(f"total loss {out.total:.6f} = condition {out.condition:.6f} "
      f"+ a1*{out.l1:.6f} + a2*{out.l2:.6f}")

report = finite_diff_check(loss, model.params, tolerance=1e-4, h=1e-5)
print(f"\nchecked {report.n_checked} coordinates, max relative error "
      f"{report.max_rel_error:.3e} (worst: {report.worst_param})")
print("per-parameter worst errors:")
for pid, err in sorted(report.per_param.items()):
    print(f"  {pid:24s} {err:.3e}")
print("\nPASS" if report.passed else "\nFAIL")
