//! Unit-executor vs. sequential campaign: same config, bit-identical
//! reports, plus the staged-compile cache telemetry.
//!
//! ```sh
//! cargo run --release --example parallel_campaign -- [seeds] [workers]
//! ```

use std::sync::Arc;
use ubfuzz::campaign::{CampaignConfig, ParallelCampaign};
use ubfuzz::{run_campaign, SimBackend};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let seeds = args.get(1).and_then(|v| v.parse().ok()).unwrap_or(8);
    let workers = args.get(2).and_then(|v| v.parse().ok()).unwrap_or(4);
    let cfg = CampaignConfig::builder().seeds(seeds).build();

    let t0 = std::time::Instant::now();
    let sequential = run_campaign(&cfg);
    let t_seq = t0.elapsed();

    let t0 = std::time::Instant::now();
    let parallel = ParallelCampaign::new(cfg.clone()).with_shards(workers).run();
    let t_par = t0.elapsed();

    let t0 = std::time::Instant::now();
    let uncached = ParallelCampaign::new(cfg)
        .with_shards(workers)
        .with_backend(Arc::new(SimBackend::uncached()))
        .run();
    let t_nocache = t0.elapsed();

    println!(
        "sequential: {} bugs from {} programs in {t_seq:.2?}",
        sequential.bugs.len(),
        sequential.total_programs()
    );
    println!(
        "{workers}-worker:   {} bugs from {} programs in {t_par:.2?} (no cache: {t_nocache:.2?})",
        parallel.bugs.len(),
        parallel.total_programs()
    );
    println!(
        "compile cache: {} hits, {} misses, prefix reuse ratio {:.1}%",
        parallel.cache.hits,
        parallel.cache.misses,
        100.0 * parallel.cache.reuse_ratio()
    );
    println!(
        "reports identical: {}",
        if sequential == parallel && sequential == uncached {
            "yes"
        } else {
            "NO — DETERMINISM BUG"
        }
    );
    println!("{}", ubfuzz::report::table3(&parallel));
}
