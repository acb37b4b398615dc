import hashlib
import itertools
import json
import re
import tracemalloc

import pytest

from fedmesh.config import (
    ConfigError,
    apply_overrides,
    canonical_text,
    config_hash,
    load_config,
    parse_config,
)

MINIMAL = {
    "seed": 1,
    "model": {"feature_dim": 2, "class_count": 3},
    "domains": [{"recipe": "medical", "train_samples": 60, "eval_samples": 30}],
    "schedule": {"rounds": 2},
}


CSV_DOMAIN = {
    "tag": "file",
    "csv": {"path": "domain.csv", "feature_columns": ["f0", "f1"], "label_column": "label"},
}
RECIPE_DOMAIN = {
    "tag": "inline",
    "recipe": {
        "class_means": [[1, 0], [0, 1], [-1, 0]],
        "class_covariance_scale": 0.5,
        "mean_shift": [0, 0],
        "label_prior": [0.4, 0.3, 0.3],
    },
    "train_samples": 30,
    "eval_samples": 10,
}

# Frozen from the bundled configs: (config_hash hex, sha256 of canonical_text).
BUNDLED_GOLDENS = {
    "configs/three_domains.cfg": (
        "771d4932c982192f83fcab3091d921bea9f730ed7e6a7c8a723d834db9bdd513",
        "bdbf16cb2324ba0d0df9ade7d223036f7540d341e5fd0590b3ea55b320537f84",
    ),
    "configs/iid_baseline.cfg": (
        "c4ea5f1852a91e7d07b5c998da7013cc8871d39eb6ec0129c67e2544d456463a",
        "1e8339e05edfa60b63d399282c5c89b7452c4ecbca78f4088bdd3cd5b4a380a6",
    ),
}
# The bundled configs spell out most keys; these leave them to their
# defaults.  MINIMAL takes every default, and the CSV config's one client
# override takes the rest of its budget from the privacy section's.  The
# inline recipe's integer literals canonicalize to floats.
CSV_OVERRIDE_CONFIG = dict(
    MINIMAL,
    domains=[dict(CSV_DOMAIN, clients=2)],
    privacy={"client_overrides": {"1": {"epsilon": 4.0}}},
)
INLINE_AND_CSV_CONFIG = dict(
    MINIMAL,
    domains=[RECIPE_DOMAIN, dict(CSV_DOMAIN, csv=dict(CSV_DOMAIN["csv"], eval_fraction=0.4))],
)
DEFAULTED_GOLDENS = {
    "minimal": (
        MINIMAL,
        "9529c4d7269c67526dc460c0c5bc2447433065bec976144a95b8bf302a2d1001",
        "6a3275e6ce2c2f970b334afd7cfc54f4c64e4793cbe6fc905a845a79a672c7fb",
    ),
    "csv_override": (
        CSV_OVERRIDE_CONFIG,
        "27f4413f1705c7d90df1a4acd160c6063031192219ead880b23f9ccfa788fa13",
        "7a56e0b03c836bc462a472bb58268caa6886542ff8cfec7d3ac5ca01b5a67a48",
    ),
    "inline_and_csv": (
        INLINE_AND_CSV_CONFIG,
        "0166de286703a65e90a4236c2554559531c621805929ecf179ebeb45326e9b27",
        "b7c750ca1f4dbf2344272d1ea0c649d36c8ecaab3a8fc52b833394893c7c2b0a",
    ),
}


def _raw(**updates):
    raw = json.loads(json.dumps(MINIMAL))
    raw.update(updates)
    return raw


def test_minimal_config_fills_defaults():
    config = parse_config(_raw())
    assert config.schedule.local_epochs == 5
    assert config.schedule.lr_decay == 0.99
    assert config.policy.kind == "uniform"
    assert not config.default_budget.enabled
    assert config.scale_bits == 24
    assert config.transport.port == 7700
    assert config.domains[0].tag == "medical"
    assert config.client_count == 1


def test_canonical_round_trip_is_fixed_point():
    config = parse_config(_raw())
    text = canonical_text(config)
    reparsed = parse_config(json.loads(text))
    assert canonical_text(reparsed) == text
    assert config_hash(reparsed) == config_hash(config)


def test_hash_ignores_output_and_transport():
    a = parse_config(_raw(output_dir="x", transport={"port": 1234}))
    b = parse_config(_raw(output_dir="y", transport={"port": 4321}))
    assert config_hash(a) == config_hash(b)
    c = parse_config(_raw(seed=2))
    assert config_hash(a) != config_hash(c)


@pytest.mark.parametrize(
    "mutate,needle",
    [
        (lambda r: r.pop("seed"), "seed"),
        (lambda r: r["model"].pop("feature_dim"), "model.feature_dim"),
        (lambda r: r["model"].update(class_count=1), "model"),
        (lambda r: r["schedule"].update(rounds=0), "schedule"),
        (lambda r: r["domains"][0].update(recipe="nope"), "domains[0].recipe"),
        (lambda r: r["domains"][0].update(train_samples=0), "domains[0].train_samples"),
        (lambda r: r.update(tracked_indices=[99]), "tracked_indices[0]"),
        (lambda r: r.update(policy={"kind": "bogus"}), "policy.kind"),
        (lambda r: r.update(privacy={"epsilon": -1.0, "enabled": True}), "privacy"),
        (lambda r: r.update(fixed_point_scale_bits=60), "fixed_point_scale_bits"),
        (lambda r: r.update(unknown_key=1), "unknown_key"),
        (lambda r: r["domains"][0].update(surprise=2), "domains[0].surprise"),
        (lambda r: r["domains"][0].update(tag="global"), "domains[0].tag: 'global' is reserved"),
    ],
)
def test_errors_name_offending_key(mutate, needle):
    raw = _raw()
    mutate(raw)
    with pytest.raises(ConfigError, match=__import__("re").escape(needle)):
        parse_config(raw)


def test_domains_require_recipe_xor_csv():
    raw = _raw()
    raw["domains"][0].pop("recipe")
    with pytest.raises(ConfigError, match="recipe"):
        parse_config(raw)


def test_custom_weighted_requires_full_weights():
    raw = _raw(policy={"kind": "custom_weighted", "weights": {}})
    with pytest.raises(ConfigError, match="policy.weights"):
        parse_config(raw)
    ok = parse_config(_raw(policy={"kind": "custom_weighted", "weights": {"0": 2.0}}))
    assert ok.policy.weights == {0: 2.0}


def test_a_missing_custom_weight_is_found_without_an_entry_per_client():
    raw = _raw(policy={"kind": "custom_weighted", "weights": {"0": 2.0}})
    raw["domains"][0]["clients"] = 10**6
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError) as info:
            parse_config(raw)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert str(info.value) == (
        "policy.weights: custom_weighted policy is missing a weight for client 1"
    )
    assert peak < 1 << 20


def test_csv_domain_sizes_are_checked_though_unused():
    # A csv domain's file sets its sizes, so it refuses any size it is given.
    for key, value in itertools.product(("train_samples", "eval_samples"), (0, 5)):
        domain = dict(json.loads(json.dumps(CSV_DOMAIN)), **{key: value})
        message = f"domains[0].{key}: must be left out of a csv domain, whose file sets its sizes"
        with pytest.raises(ConfigError, match=re.escape(message)):
            parse_config(_raw(domains=[domain]))


def test_privacy_derived_policy():
    config = parse_config(_raw(policy={"kind": "custom_weighted", "privacy_derived": True}))
    assert config.policy.privacy_derived
    with pytest.raises(ConfigError, match="privacy_derived"):
        parse_config(_raw(policy={"kind": "uniform", "privacy_derived": True}))


def test_budget_overrides_parsed():
    raw = _raw(
        privacy={
            "enabled": True,
            "epsilon": 2.0,
            "client_overrides": {"0": {"epsilon": 0.5}},
        }
    )
    config = parse_config(raw)
    assert config.budget_for(0).epsilon == 0.5
    assert config.budget_for(0).enabled
    raw["privacy"]["client_overrides"] = {"5": {}}
    with pytest.raises(ConfigError, match="client_overrides.5"):
        parse_config(raw)


def test_apply_overrides_paths_and_json_values():
    raw = _raw()
    out = apply_overrides(
        raw,
        [
            "schedule.rounds=9",
            "privacy.enabled=true",
            "domains.0.train_samples=120",
            "output_dir=somewhere",
        ],
    )
    assert out["schedule"]["rounds"] == 9
    assert out["privacy"]["enabled"] is True
    assert out["domains"][0]["train_samples"] == 120
    assert out["output_dir"] == "somewhere"
    assert raw["schedule"]["rounds"] == 2  # original untouched


def test_apply_overrides_errors():
    with pytest.raises(ConfigError, match="KEY=VALUE"):
        apply_overrides(_raw(), ["oops"])
    with pytest.raises(ConfigError, match="array index"):
        apply_overrides(_raw(), ["domains.notanumber.clients=2"])


def test_apply_overrides_index_into_lists():
    raw = _raw(tracked_indices=[0, 1, 2])
    out = apply_overrides(raw, ["tracked_indices.1=5", "domains.0.clients=2"])
    assert out["tracked_indices"] == [0, 5, 2]
    assert out["domains"][0]["clients"] == 2
    assert raw["tracked_indices"] == [0, 1, 2]  # original untouched


@pytest.mark.parametrize("segment", ["7", "a"])
def test_apply_overrides_refuse_a_bad_last_index(segment):
    with pytest.raises(ConfigError) as info:
        apply_overrides(_raw(tracked_indices=[0, 1, 2]), [f"tracked_indices.{segment}=5"])
    assert str(info.value) == (
        f"override 'tracked_indices.{segment}': bad array index '{segment}'"
    )


@pytest.mark.parametrize(
    "raw, item, scalar",
    [
        (MINIMAL, "seed.x=1", "seed"),
        (MINIMAL, "seed.x.y=1", "seed"),
        (MINIMAL, "model.feature_dim.z=3", "model.feature_dim"),
        (5, "seed=1", "config"),
    ],
)
def test_apply_overrides_name_the_scalar_a_path_runs_through(raw, item, scalar):
    key = item.partition("=")[0]
    with pytest.raises(ConfigError) as info:
        apply_overrides(raw, [item])
    assert str(info.value) == f"override {key!r}: {scalar} is a scalar"


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(str(tmp_path / "nope.cfg"))


def test_load_config_bad_json(tmp_path):
    path = tmp_path / "broken.cfg"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(str(path))


def test_bundled_configs_parse():
    for name in ("configs/three_domains.cfg", "configs/iid_baseline.cfg"):
        config = load_config(name)
        assert config.client_count >= 1


@pytest.mark.parametrize("path", sorted(BUNDLED_GOLDENS))
def test_bundled_config_hash_and_canonical_text_are_pinned(path):
    config = load_config(path)
    hash_hex, text_sha = BUNDLED_GOLDENS[path]
    assert config_hash(config).hex() == hash_hex
    assert hashlib.sha256(canonical_text(config).encode("utf-8")).hexdigest() == text_sha


@pytest.mark.parametrize("name", sorted(DEFAULTED_GOLDENS))
def test_defaulted_config_hash_and_canonical_text_are_pinned(name):
    raw, hash_hex, text_sha = DEFAULTED_GOLDENS[name]
    config = parse_config(json.loads(json.dumps(raw)))
    assert config_hash(config).hex() == hash_hex
    assert hashlib.sha256(canonical_text(config).encode("utf-8")).hexdigest() == text_sha


@pytest.mark.parametrize(
    "path,section",
    [
        ("model", lambda r: r["model"]),
        ("partition", lambda r: r.setdefault("partition", {})),
        ("schedule", lambda r: r["schedule"]),
        ("policy", lambda r: r.setdefault("policy", {})),
        ("privacy", lambda r: r["privacy"]),
        ("privacy.client_overrides.0", lambda r: r["privacy"]["client_overrides"]["0"]),
        ("transport", lambda r: r.setdefault("transport", {})),
        ("domains[0].csv", lambda r: r["domains"][0]["csv"]),
        ("domains[0].recipe", lambda r: r["domains"][0]["recipe"]),
    ],
)
def test_unknown_key_rejected_in_every_section(path, section):
    domain = CSV_DOMAIN if path.endswith("csv") else RECIPE_DOMAIN
    raw = _raw(domains=[json.loads(json.dumps(domain))], privacy={"client_overrides": {"0": {}}})
    parse_config(raw)  # valid before the stray key goes in
    section(raw)["surprise"] = 1
    with pytest.raises(ConfigError, match=re.escape(f"{path}.surprise: unknown key")):
        parse_config(raw)
