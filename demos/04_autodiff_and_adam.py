"""The tiny reverse-mode autodiff engine and its Adam optimizer.

Everything the trainer needs lives in one module: 2-D float64 tensors,
ops with hand-written adjoints, central-difference gradient checking, and
a from-scratch Adam.  This demo fits a 1-D regression with it, then shows
double backward and a gradient check.
"""

import numpy as np

import boxquery.autodiff as ad
from boxquery.autodiff import AdamState, adam_step, finite_diff_check, tensor

rng = np.random.default_rng(4)

# --- fit y = 3x - 1 with a single affine layer -----------------------------
# the engine holds only the ops box training needs, so the regression
# below builds its L1 objective from relu: |err| = relu(err) + relu(-err)
x = tensor(rng.uniform(-1, 1, size=(64, 1)))
y_true = tensor(3.0 * x.data - 1.0)

w = tensor(rng.normal(size=(1, 1)), requires_grad=True)
b = tensor(np.zeros((1, 1)), requires_grad=True)
params = [w, b]
opt = AdamState(params, lr=0.05)

print("== fitting y = 3x - 1 (L1 loss) ==")
for step in range(1, 301):
    ad.zero_grads(params)
    err = ad.affine(x, w, b) - y_true
    loss = ad.mean_all(ad.relu(err) + ad.relu(err * -1.0))
    loss.backward()
    adam_step(opt)
    if step % 75 == 0:
        print(f"step {step:3d}: loss={loss.item():.6f} "
              f"w={w.data[0, 0]:+.4f} b={b.data[0, 0]:+.4f}")
assert abs(w.data[0, 0] - 3.0) < 0.02 and abs(b.data[0, 0] + 1.0) < 0.02, "the fit missed y = 3x - 1"

# --- adjoints accumulate ---------------------------------------------------
print()
print("== repeated backward accumulates ==")
v = tensor([[2.0]], requires_grad=True)
(ad.matmul(v, v)).backward()          # d(v^2)/dv = 2v = 4
first = v.grad.copy()
(ad.matmul(v, v)).backward()          # second graph adds another +4
print(f"after one backward: grad={first[0, 0]}, after two: {v.grad[0, 0]}")
assert first[0, 0] == 4.0 and v.grad[0, 0] == 8.0, "a second backward did not double the gradient"
print("grads add across graphs until zero_grads(), exactly like larger frameworks")

# --- trust, but verify -----------------------------------------------------
print()
print("== gradient check ==")
t = tensor(rng.normal(size=(3, 3)) + 2.0, requires_grad=True)  # away from kinks
err = finite_diff_check(lambda: ad.sum_all(ad.softplus(ad.relu(t))), [t])
print(f"max relative error vs central differences: {err:.2e}")
assert err < 1e-6, "backward disagrees with central differences"
