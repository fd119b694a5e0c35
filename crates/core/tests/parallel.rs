//! Property: the unit-executor campaign runner is observationally identical
//! to the sequential loop (proptest), whatever backend plumbing is in play.
//!
//! Same deduplicated bug reports — same order, same test cases, same
//! `missed_at`/`duplicates` — and same counters, for the same campaign
//! seed, at worker counts 1/2/8/16, on a cached *and* an uncached backend,
//! and with an explicitly shared [`SimBackend`] standing in
//! for the default per-run one. This is what keeps the paper's Table 3/4/6
//! and figure outputs reproducible under parallelism — and what pins the
//! `CompilerBackend` refactor to the pre-refactor behavior.
//!
//! Kept in its own file with a small case count: every case runs ten full
//! generate→compile→run→oracle campaigns.

use proptest::prelude::*;
use std::sync::Arc;
use ubfuzz::campaign::{CampaignConfig, GeneratorChoice, ParallelCampaign};
use ubfuzz::{run_campaign, SimBackend};

fn small_config(first_seed: u64, generator: GeneratorChoice) -> CampaignConfig {
    // Small seed programs and a slim per-seed program budget keep each
    // case fast (the full suite runs in debug mode on one core); the
    // equivalence argument is size-independent, and the in-crate
    // campaign tests cover default-sized runs.
    CampaignConfig::builder()
        .first_seed(first_seed)
        .seeds(3)
        .generator(generator)
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

proptest! {
    #![proptest_config(ProptestConfig { cases: 4, .. ProptestConfig::default() })]

    #[test]
    fn parallel_campaign_equals_sequential(first_seed in 0u64..400) {
        let generator = if first_seed % 3 == 0 {
            GeneratorChoice::Music
        } else {
            GeneratorChoice::Ubfuzz
        };
        let cfg = small_config(first_seed, generator);
        let sequential = run_campaign(&cfg);
        let mut two_workers = None;
        for workers in [1usize, 2, 8, 16] {
            for cache in [true, false] {
                // Reuse the exact `cfg` the sequential side ran — the
                // property must compare the same config on both sides.
                let parallel = runner(&cfg, workers, cache).run();
                prop_assert_eq!(
                    &sequential, &parallel,
                    "first_seed {} diverges at {} workers (cache {})",
                    first_seed, workers, cache
                );
                if !cache {
                    prop_assert_eq!(parallel.cache, ubfuzz::SessionStats::default());
                }
                if workers == 2 && cache {
                    two_workers = Some(parallel);
                }
            }
        }
        // An explicitly shared backend (the cross-campaign persistence
        // path) must be just as invisible: run it twice so the second pass
        // serves prefixes cached by the first.
        let shared = Arc::new(SimBackend::new());
        let mut last = None;
        for workers in [2usize, 8] {
            let parallel = ParallelCampaign::new(cfg.clone())
                .with_backend(shared.clone())
                .with_shards(workers)
                .run();
            prop_assert_eq!(
                &sequential, &parallel,
                "first_seed {} diverges on the shared backend at {} workers",
                first_seed, workers
            );
            last = Some(parallel);
        }
        let last = last.expect("shared-backend runs happened");
        prop_assert_eq!(
            last.cache.misses, 0,
            "second run over the shared backend re-misses: {:?}", last.cache
        );
        // And the rendered reports are byte-identical.
        let parallel = two_workers.expect("workers=2 ran");
        prop_assert_eq!(ubfuzz::report::table3(&sequential), ubfuzz::report::table3(&parallel));
        prop_assert_eq!(ubfuzz::report::table6(&sequential), ubfuzz::report::table6(&parallel));
        prop_assert_eq!(ubfuzz::report::fig7(&sequential), ubfuzz::report::fig7(&parallel));
    }
}

/// The high-width determinism gate CI runs: many more workers than tasks per
/// group, so the work-stealing path is exercised hard. Worker count is
/// overridable via `UBFUZZ_TEST_WORKERS` (CI pins 16).
#[test]
fn parallel_campaign_equals_sequential_at_high_worker_count() {
    let workers: usize = std::env::var("UBFUZZ_TEST_WORKERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(16);
    let cfg = small_config(7, GeneratorChoice::Ubfuzz);
    let sequential = run_campaign(&cfg);
    for cache in [true, false] {
        let parallel = runner(&cfg, workers, cache).run();
        assert_eq!(sequential, parallel, "{workers} workers diverge (cache {cache})");
        assert_eq!(ubfuzz::report::table3(&sequential), ubfuzz::report::table3(&parallel));
        if cache {
            assert!(
                parallel.cache.hits > 0,
                "sanitizer matrix must share compile prefixes: {:?}",
                parallel.cache
            );
        }
    }
}
