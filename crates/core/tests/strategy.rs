//! Property: the guided generation strategy is deterministic and the
//! `Uniform` default is invisible.
//!
//! Guided planning is a pure function of `(campaign first seed, frontier
//! snapshot at campaign start)`, so for a fixed seed and a fixed persisted
//! frontier the guided campaign must reproduce bit-identically at worker
//! counts 1/2/8/16, on a cached *and* an uncached backend —
//! the same contract `parallel.rs` pins for the uniform reference. And a
//! guided campaign planning against a *cold* frontier degenerates to the
//! uniform plan exactly, which is what keeps `Strategy::Uniform` (and every
//! pre-strategy caller) byte-identical to the pre-guide behavior.
//!
//! Kept in its own file with a small case count: every case runs several
//! full generate→compile→run→oracle campaigns.

use proptest::prelude::*;
use std::sync::Arc;
use ubfuzz::campaign::{CampaignConfig, ParallelCampaign};
use ubfuzz::store::{frontier::FRONTIER_FILE, FrontierStore};
use ubfuzz::{run_campaign, SimBackend, Strategy};

fn small_config(first_seed: u64, strategy: Strategy) -> CampaignConfig {
    CampaignConfig::builder()
        .first_seed(first_seed)
        .seeds(3)
        .strategy(strategy)
        .seed_options(ubfuzz::seedgen::SeedOptions {
            max_helpers: 1,
            max_globals: 5,
            max_stmts: 4,
            max_depth: 2,
            ..ubfuzz::seedgen::SeedOptions::default()
        })
        .gen_options(ubfuzz::ubgen::GenOptions {
            max_per_kind: 2,
            ..ubfuzz::ubgen::GenOptions::default()
        })
        .build()
}

/// A runner over `cfg` at `workers`: on the default cached backend, or on
/// an explicitly uncached one.
fn runner(cfg: &CampaignConfig, workers: usize, cache: bool) -> ParallelCampaign {
    let runner = ParallelCampaign::new(cfg.clone()).with_shards(workers);
    if cache {
        runner
    } else {
        runner.with_backend(Arc::new(SimBackend::uncached()))
    }
}

/// A store directory whose frontier was warmed by a uniform campaign over
/// an unrelated seed range, so guided runs have coverage to plan against.
fn warmed_store(label: &str, warm_seed: u64) -> std::path::PathBuf {
    let dir = std::env::temp_dir()
        .join(format!("ubfuzz-strategy-{label}-{}-{warm_seed}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let warm = ParallelCampaign::new(small_config(warm_seed, Strategy::Uniform))
        .with_shards(2)
        .with_checkpoint(&dir)
        .run();
    assert!(warm.frontier_points > 0, "warm-up must cover coverage points");
    assert_eq!(FrontierStore::open(&dir).len(), warm.frontier_points);
    dir
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 3, .. ProptestConfig::default() })]

    /// Fixed seed + fixed persisted frontier ⇒ bit-identical guided runs at
    /// every worker count, cached and uncached.
    #[test]
    fn guided_campaign_is_deterministic(first_seed in 0u64..400) {
        let first_seed: u64 = first_seed;
        let dir = warmed_store("det", first_seed + 1000);
        let frontier0 = FrontierStore::open(&dir).covered().clone();
        let cfg = small_config(first_seed, Strategy::Guided);
        let mut reference = None;
        for workers in [1usize, 2, 8, 16] {
            for cache in [true, false] {
                // Every run must plan against the SAME frontier snapshot:
                // a completed guided run rewrites `frontier.bin` with the
                // union, so restore the warm-up snapshot between runs.
                let mut store = FrontierStore::open(&dir);
                store.save(&frontier0);
                let guided = runner(&cfg, workers, cache).with_checkpoint(&dir).run();
                // The checkpoint log now holds this run; sweep it so the
                // next configuration computes instead of replaying.
                for entry in std::fs::read_dir(&dir).unwrap() {
                    let path = entry.unwrap().path();
                    if path.file_name().is_some_and(|n| {
                        n.to_string_lossy().starts_with("campaign")
                    }) {
                        std::fs::remove_file(path).unwrap();
                    }
                }
                match &reference {
                    None => reference = Some(guided),
                    Some(reference) => {
                        prop_assert_eq!(
                            reference, &guided,
                            "guided first_seed {} diverges at {} workers (cache {})",
                            first_seed, workers, cache
                        );
                        prop_assert_eq!(
                            reference.frontier_fingerprint, guided.frontier_fingerprint,
                            "guided frontier diverges at {} workers (cache {})",
                            workers, cache
                        );
                    }
                }
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A guided campaign with nothing persisted plans against a cold
    /// frontier, which is by construction the uniform plan: results match
    /// the storeless uniform reference bit-for-bit.
    #[test]
    fn cold_frontier_guided_equals_uniform(first_seed in 0u64..400) {
        let uniform = run_campaign(&small_config(first_seed, Strategy::Uniform));
        let guided = run_campaign(&small_config(first_seed, Strategy::Guided));
        prop_assert_eq!(&uniform, &guided, "cold guided diverges at seed {}", first_seed);
        prop_assert_eq!(uniform.frontier_fingerprint, guided.frontier_fingerprint);
    }
}

/// The frontier union is deterministic across the sequential loop and the
/// unit executor, cached or not: every unit runs its sanitizer pass, so the
/// union is a pure function of the campaign plan.
#[test]
fn frontier_union_matches_between_sequential_and_parallel() {
    let cfg = small_config(11, Strategy::Uniform);
    let sequential = run_campaign(&cfg);
    assert!(sequential.frontier_points > 0, "campaigns cover coverage points");
    for cache in [true, false] {
        let parallel = runner(&cfg, 4, cache).run();
        assert_eq!(
            sequential.frontier_points, parallel.frontier_points,
            "frontier size diverges (cache {cache})"
        );
        assert_eq!(
            sequential.frontier_fingerprint, parallel.frontier_fingerprint,
            "frontier fingerprint diverges (cache {cache})"
        );
    }
}

/// Cross-run feedback: a warm frontier makes the guided plan *smaller* than
/// uniform over the same seeds (saturated kinds get residual budgets), and
/// the persisted frontier only ever grows.
#[test]
fn warm_frontier_steers_the_guided_plan() {
    let dir = warmed_store("steer", 2000);
    let points_after_warmup = FrontierStore::open(&dir).len();
    let uniform = run_campaign(&small_config(5, Strategy::Uniform));
    let guided = ParallelCampaign::new(small_config(5, Strategy::Guided))
        .with_shards(2)
        .with_checkpoint(&dir)
        .run();
    assert!(
        guided.units < uniform.units,
        "a warm frontier must shrink the guided plan: {} guided vs {} uniform units",
        guided.units,
        uniform.units
    );
    let persisted = FrontierStore::open(&dir);
    assert!(persisted.len() >= points_after_warmup, "the persisted frontier only grows");
    assert_eq!(persisted.len(), guided.frontier_points);
    assert!(dir.join(FRONTIER_FILE).is_file());
    let _ = std::fs::remove_dir_all(&dir);
}

/// `Strategy` parsing round-trips through its wire names and rejects
/// unknown values — the seam `ubfuzz-serve` and the bench flags build on.
#[test]
fn strategy_parse_round_trips() {
    for strategy in [Strategy::Uniform, Strategy::Guided] {
        assert_eq!(Strategy::parse(strategy.name()), Some(strategy));
        assert_eq!(format!("{strategy}"), strategy.name());
    }
    assert_eq!(Strategy::parse("greedy"), None);
    assert_eq!(Strategy::parse(""), None);
    assert_eq!(Strategy::default(), Strategy::Uniform);
}
