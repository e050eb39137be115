//! End-to-end autotuning: `TrainConfig::tuning` wired through the whole
//! trainer (satellites c/d, acceptance gates on Off/Auto equivalence).
//!
//! - `Off` is the default and dispatches the static plans — two runs are
//!   bit-identical, and `Auto` must stay within the oracle's tolerance of
//!   that trajectory (plans only pass the tuner if the oracle accepts
//!   their output, so training cannot drift further than the band).
//! - `Cached` round-trips plans through the JSON file: the second process
//!   re-evaluates nothing and reproduces the first's losses exactly.

use halfgnn::graph::datasets::Dataset;
use halfgnn::nn::trainer::{
    train, ModelKind, PartitionStrategy, PrecisionMode, TrainConfig, Tuning,
};

fn cfg(model: ModelKind, tuning: Tuning, epochs: usize) -> TrainConfig {
    TrainConfig {
        model,
        precision: PrecisionMode::HalfGnn,
        epochs,
        hidden: 16,
        lr: 0.02,
        seed: 1,
        tuning,
        ..TrainConfig::default()
    }
}

#[test]
fn tuning_defaults_to_off_and_off_is_deterministic() {
    assert_eq!(TrainConfig::default().tuning, Tuning::Off);
    let data = Dataset::cora().load(42);
    let a = train(&data, &cfg(ModelKind::Gcn, Tuning::Off, 4));
    let b = train(&data, &cfg(ModelKind::Gcn, Tuning::Off, 4));
    assert_eq!(
        a.losses.iter().map(|l| l.to_bits()).collect::<Vec<_>>(),
        b.losses.iter().map(|l| l.to_bits()).collect::<Vec<_>>(),
    );
    assert!(a.tuning_counters.is_none(), "Off must not instantiate a tuner");
}

#[test]
fn auto_tuning_stays_within_oracle_tolerance_of_off() {
    let data = Dataset::cora().load(42);
    let off = train(&data, &cfg(ModelKind::Gcn, Tuning::Off, 8));
    let auto = train(&data, &cfg(ModelKind::Gcn, Tuning::Auto, 8));
    assert!(auto.nan_epoch.is_none(), "tuned plans must not destabilize training");
    for (e, (a, b)) in off.losses.iter().zip(&auto.losses).enumerate() {
        assert!((a - b).abs() < 0.05 + 0.02 * a.abs(), "epoch {e}: off {a} vs auto {b}");
    }
    let c = auto.tuning_counters.expect("Auto must report plan-cache counters");
    assert!(c.misses > 0, "first epoch must tune");
    assert!(c.evaluations > c.misses, "each miss tries several candidates");
    // Epochs 1..7 re-resolve the same keys: hits dominate after warm-up.
    assert!(c.hits >= c.misses, "hits {} vs misses {}", c.hits, c.misses);
}

#[test]
fn auto_tuning_covers_gat_sddmm_dispatch() {
    let data = Dataset::cora().load(42);
    let r = train(&data, &cfg(ModelKind::Gat, Tuning::Auto, 2));
    assert!(r.nan_epoch.is_none());
    let c = r.tuning_counters.unwrap();
    // GAT resolves SpMMve (forward + backward feature dims) and SDDMM
    // keys: strictly more distinct plans than GCN's single-op pattern.
    assert!(c.misses >= 2, "GAT must tune both SpMMve and SDDMM, got {} misses", c.misses);
}

#[test]
fn cached_tuning_round_trips_through_the_json_file() {
    let dir = std::env::temp_dir().join("halfgnn-e2e-tuning");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("plans.json");
    std::fs::remove_file(&path).ok();
    let tuning = Tuning::Cached(path.to_string_lossy().into_owned());

    let data = Dataset::cora().load(42);
    let first = train(&data, &cfg(ModelKind::Gcn, tuning.clone(), 3));
    assert!(path.exists(), "Cached mode must write the plan file");
    let c1 = first.tuning_counters.unwrap();
    assert!(c1.evaluations > 0, "cold cache must evaluate candidates");

    let second = train(&data, &cfg(ModelKind::Gcn, tuning, 3));
    let c2 = second.tuning_counters.unwrap();
    assert_eq!(c2.evaluations, 0, "warm cache must evaluate nothing");
    assert_eq!(c2.misses, 0, "every key must hit the loaded cache");
    assert_eq!(
        first.losses.iter().map(|l| l.to_bits()).collect::<Vec<_>>(),
        second.losses.iter().map(|l| l.to_bits()).collect::<Vec<_>>(),
        "identical plans must reproduce identical losses"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn one_shard_runs_reuse_cached_plans_whatever_the_partition() {
    // `--partition` is ignored at one shard, so it must not key the plan
    // cache either: a `balanced` run hits every plan a default run cached.
    let dir = std::env::temp_dir().join("halfgnn-e2e-tuning-partition");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("plans.json");
    std::fs::remove_file(&path).ok();
    let tuning = Tuning::Cached(path.to_string_lossy().into_owned());

    let data = Dataset::cora().load(42);
    let first = train(&data, &cfg(ModelKind::Gcn, tuning.clone(), 2));
    assert!(first.tuning_counters.unwrap().evaluations > 0, "cold cache must evaluate");

    let balanced = TrainConfig {
        partition: PartitionStrategy::DegreeBalanced,
        ..cfg(ModelKind::Gcn, tuning, 2)
    };
    assert_eq!(balanced.effective_partition(), PartitionStrategy::Contiguous);
    let c = train(&data, &balanced).tuning_counters.unwrap();
    assert_eq!(c.evaluations, 0, "one-shard balanced run re-tuned cached plans: {c:?}");
    assert_eq!(c.misses, 0, "every key must hit the cache: {c:?}");
    std::fs::remove_file(&path).ok();
}
