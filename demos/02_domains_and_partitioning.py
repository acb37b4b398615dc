"""Synthetic domains and non-IID partitioning.

The three built-in recipes (medical, financial, user) share class centers
but differ in mean shift and label prior, so their distributions overlap
without coinciding.  Within a domain, the dirichlet_label_skew scheme
splits data across clients with a single heterogeneity knob: smaller
alpha means more skew.
"""

import numpy as np

from fedmesh import PartitionPlan, builtin_recipe, partition, synthesize

for name in ("medical", "financial", "user"):
    recipe = builtin_recipe(name)
    data = synthesize(recipe, 3000, seed=11)
    mix = np.bincount(data.labels, minlength=3) / len(data)
    print(f"{name:<10} label prior {np.round(recipe.label_prior, 2)}  empirical mix {np.round(mix, 3)}")

# Same seed, same bytes: generation is reproducible.
again = synthesize(builtin_recipe("medical"), 3000, seed=11)
print("regenerated medical domain identical:", np.array_equal(again.features, synthesize(builtin_recipe('medical'), 3000, seed=11).features))

# The alpha knob: average total-variation distance of client label mixes
# from the pooled mix, over 10 partition seeds.
pool = synthesize(builtin_recipe("user"), 2400, seed=5)


def mean_skew(alpha):
    distances = []
    for seed in range(10):
        plan = PartitionPlan(scheme="dirichlet_label_skew", dirichlet_alpha=alpha, seed=seed)
        shards = partition(pool, plan, 4)
        overall = np.bincount(pool.labels, minlength=3) / len(pool)
        for shard in shards:
            mix = np.bincount(shard.labels, minlength=3) / len(shard)
            distances.append(0.5 * np.abs(mix - overall).sum())
    return float(np.mean(distances))


print("\nalpha -> mean TV distance from pooled label mix (4 clients):")
for alpha in (0.05, 0.1, 1.0, 10.0, 100.0):
    print(f"  alpha={alpha:<6} skew={mean_skew(alpha):.3f}")

print("\npartition is exact: shard sizes", [len(s) for s in partition(pool, PartitionPlan(seed=1), 4)],
      "sum to", len(pool))
