//! Property: partitioned-sanitization campaigns are deterministic.
//!
//! The instrumented site subset is a pure function of `(campaign seed,
//! salt, function id, site loc)` — no worker count, schedule, or cache
//! state participates. So a partial-policy campaign must equal its
//! sequential run at worker counts 1/2/8/16, on a cached *and* an uncached
//! backend, down to the per-sanitizer expected-miss
//! accounting (telemetry is excluded from `CampaignStats` equality, so the
//! property compares it explicitly). And the boundary policies collapse:
//! `partial:1.0` is byte-identical to `full`, `partial:0.0` to `none`.
//!
//! Kept in its own file with a small case count: every case runs a dozen
//! full generate→compile→run→oracle campaigns.

use proptest::prelude::*;
use std::sync::Arc;
use ubfuzz::campaign::{CampaignConfig, GeneratorChoice, ParallelCampaign};
use ubfuzz::{run_campaign, SanPolicy, SimBackend};

fn small_config(first_seed: u64, policy: SanPolicy) -> CampaignConfig {
    // Mirrors `parallel.rs`: small programs keep each case fast; the
    // determinism argument is size-independent.
    CampaignConfig::builder()
        .first_seed(first_seed)
        .seeds(3)
        .generator(GeneratorChoice::Ubfuzz)
        .san_policy(policy)
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
    #![proptest_config(ProptestConfig { cases: 3, .. ProptestConfig::default() })]

    #[test]
    fn partial_campaign_is_schedule_invariant(first_seed in 0u64..400) {
        // One proptest parameter keeps the vendored macro's expansion
        // depth in bounds; salt and ratio derive from the case seed. (The
        // macro binds the parameter through an untyped closure, so name
        // the type before calling an inference-sensitive method on it.)
        let first_seed: u64 = first_seed;
        let salt = first_seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let ratio_pm = 250 + (salt % 3) as u16 * 250; // 250 / 500 / 750
        let policy = SanPolicy::Partial { ratio_pm, salt };
        let cfg = small_config(first_seed, policy);
        let sequential = run_campaign(&cfg);
        for workers in [1usize, 2, 8, 16] {
            for cache in [true, false] {
                let parallel = runner(&cfg, workers, cache).run();
                prop_assert_eq!(
                    &sequential, &parallel,
                    "seed {} {} diverges at {} workers (cache {})",
                    first_seed, policy, workers, cache
                );
                // The site subset — and with it the expected-miss
                // accounting — must not depend on the schedule or on
                // whether the sanitize stage was served from cache.
                prop_assert_eq!(
                    sequential.oracle.expected_miss_total(),
                    parallel.oracle.expected_miss_total(),
                    "expected-miss accounting diverges at {} workers (cache {})",
                    workers, cache
                );
            }
        }
        // Detection can only shrink as instrumentation shrinks: a partial
        // subset's reports are a subset of full instrumentation's.
        let full = run_campaign(&small_config(first_seed, SanPolicy::Full));
        prop_assert!(sequential.bugs.len() <= full.bugs.len());
        prop_assert_eq!(full.oracle.expected_miss_total(), 0, "full skips nothing");
    }
}

/// The ratio boundaries degenerate exactly: keeping every site is `Full`
/// (bit-identical results AND zero expected misses), keeping none is
/// `None`.
#[test]
fn boundary_ratios_collapse_to_full_and_none() {
    let full = run_campaign(&small_config(9, SanPolicy::Full));
    let all = run_campaign(&small_config(9, SanPolicy::Partial { ratio_pm: 1000, salt: 77 }));
    assert_eq!(full, all, "partial:1.0 must be byte-identical to full");
    assert_eq!(all.oracle.expected_miss_total(), 0);
    assert_eq!(ubfuzz::report::table3(&full), ubfuzz::report::table3(&all));

    let none = run_campaign(&small_config(9, SanPolicy::None));
    let empty = run_campaign(&small_config(9, SanPolicy::Partial { ratio_pm: 0, salt: 77 }));
    assert_eq!(none, empty, "partial:0.0 must be byte-identical to none");
    assert!(none.bugs.is_empty(), "uninstrumented campaigns cannot report");
    assert_eq!(
        none.oracle.expected_miss_total(),
        empty.oracle.expected_miss_total(),
        "both zero-site policies account the same expected misses"
    );
}
