"""Federated vs pooled-data training, and privacy-aware weighting.

Under an IID partition the federated model tracks the centralized
baseline closely.  Under severe label skew (dirichlet alpha = 0.05) the
gap can widen - recorded here for reference, not asserted.  The last
section shows the weighting policy that down-weights clients with strict
privacy budgets.
"""

from fedmesh import ClientState, PrivacyBudget, builtin_recipe, derive_privacy_weights, synthesize
from fedmesh.config import load_config
from fedmesh.experiment import build_baseline, build_engine

def final_accuracies(overrides):
    config = load_config("configs/iid_baseline.cfg", overrides=overrides)
    fed_acc = build_engine(config).run()[-1].global_metrics.accuracy
    base_acc = build_baseline(config).run()[-1].global_metrics.accuracy
    return fed_acc, base_acc


fed, base = final_accuracies([])
print(f"IID partition:     federated {fed:.4f}  pooled baseline {base:.4f}  gap {abs(fed-base):+.4f}")

fed, base = final_accuracies(["partition.scheme=dirichlet_label_skew", "partition.dirichlet_alpha=0.05"])
print(f"severe skew (0.05): federated {fed:.4f}  pooled baseline {base:.4f}  gap {abs(fed-base):+.4f}"
      "   (recorded, not asserted)")

# Privacy-aware weights: w_i ~ |D_i| * min(eps_i, cap)/cap.  A strict
# budget shrinks a client's influence on the global step.
clients = [
    ClientState(0, "strict", synthesize(builtin_recipe("medical"), 100, 1), PrivacyBudget(epsilon=1.0)),
    ClientState(1, "loose", synthesize(builtin_recipe("financial"), 100, 2), PrivacyBudget(epsilon=8.0)),
    ClientState(2, "open", synthesize(builtin_recipe("user"), 100, 3), PrivacyBudget(enabled=False)),
]
weights = derive_privacy_weights(clients, epsilon_cap=8.0)
print("\nprivacy-derived aggregation weights (equal data sizes):")
for client in clients:
    print(f"  client {client.client_id} ({client.domain_tag:<6}): {weights[client.client_id]:.4f}")
