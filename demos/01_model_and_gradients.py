"""The shared model: softmax-linear classification with exact gradients.

Every client in a federation trains the same convex model, so a single
global optimum exists and gradient correctness is checkable against
finite differences.
"""

import numpy as np

from fedmesh import Dataset, ModelSpec, gradient, init_params, loss, param_dim, predict_classes

spec = ModelSpec(feature_dim=2, class_count=3)
print(f"model: {spec.family}, parameter dim = {param_dim(spec)} (3 classes x (2 weights + bias))")

# At the all-zero start the model is maximally uncertain: loss is ln K.
rng = np.random.default_rng(0)
data = Dataset(rng.normal(0, 1, (200, 2)), rng.integers(0, 3, 200), 3)
theta = init_params(spec)
print(f"loss at zero parameters: {loss(spec, theta, data):.6f}  (ln 3 = {np.log(3):.6f})")

# The analytic gradient agrees with central finite differences.
theta = rng.normal(0, 0.5, param_dim(spec))
analytic = gradient(spec, theta, data)
h = 1e-5
numeric = np.empty_like(analytic)
for i in range(len(theta)):
    up, down = theta.copy(), theta.copy()
    up[i] += h
    down[i] -= h
    numeric[i] = (loss(spec, up, data) - loss(spec, down, data)) / (2 * h)
err = np.max(np.abs(analytic - numeric) / np.maximum(np.abs(numeric), 1e-8))
print(f"max relative gradient error vs finite differences: {err:.2e}")

# A few hundred descent steps drive the gradient toward zero (convexity).
for step in range(500):
    theta = theta - 0.5 * gradient(spec, theta, data)
print(f"gradient norm after 500 descent steps: {np.linalg.norm(gradient(spec, theta, data)):.2e}")
print(f"prediction for a point near the class-0 region: {predict_classes(spec, theta, data.features[:1])[0]}")
