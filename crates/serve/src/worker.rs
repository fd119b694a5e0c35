//! Worker-mode entry: one leased unit range, compiled and checkpointed.
//!
//! The daemon spawns `<bin> worker --store DIR --seeds N --first-seed F
//! --shard ID --start A --end B [--threads T]` once per lease; the shard id
//! *is* the lease id, so every worker writes its own `campaign.s<ID>.bin`
//! (single-writer-per-file keeps the torn-tail recovery story) while the
//! open-time replay scan unions every sibling shard — a worker re-issued
//! over a half-finished range only pays for the missing units.
//!
//! The worker runs [`ubfuzz::executor::run_unit_range`] over a
//! store-backed `SimBackend` (the backend is where the compile cache is
//! chosen): compile and record only, **no oracle** — merging is the
//! daemon's job, through the same plan and record steps. Its stdout is
//! the completion receipt the daemon parses: one `computed=N replayed=N`
//! line followed by `metric …` lines ([`ubfuzz::obs::MetricsSnapshot::
//! encode_lines`]) carrying the per-stage latency histograms sampled in
//! this process — the daemon cannot time compiles it never runs, so the
//! receipt is the only road those samples have back to `METRICS`.
//! Everything diagnostic goes to stderr.

use std::sync::Arc;
use ubfuzz::backend::SimBackend;
use ubfuzz::campaign::CampaignConfig;
use ubfuzz::executor::run_unit_range;
use ubfuzz::{obs, SanPolicy, Strategy};

use crate::{flag_num, flag_value};

/// Runs worker mode from CLI-style arguments (a leading `worker` token is
/// tolerated so the daemon can drive `ubfuzz-serve worker …` and the
/// `campaign_worker` wrapper with the same argument list). Returns the
/// process exit code: 0 on completion, 2 on flag misuse.
pub fn worker_main(args: &[String]) -> i32 {
    let args = match args.first().map(String::as_str) {
        Some("worker") => &args[1..],
        _ => args,
    };
    let misuse = |what: &str| -> i32 {
        eprintln!("ubfuzz-serve worker: {what}");
        eprintln!(
            "usage: worker --store DIR --shard ID --start A --end B \
             [--seeds N] [--first-seed N] [--strategy uniform|guided] \
             [--san full|none|partial[:ratio[:salt]]] [--threads N] [--stall-ms MS]"
        );
        2
    };
    let Some(store) = flag_value(args, "--store") else {
        return misuse("--store DIR is required");
    };
    let (Some(seeds), Some(first_seed)) =
        (flag_num(args, "--seeds", 1_usize), flag_num(args, "--first-seed", 0_u64))
    else {
        return misuse("bad --seeds / --first-seed");
    };
    let strategy = match flag_value(args, "--strategy") {
        None => Strategy::Uniform,
        Some(v) => match Strategy::parse(v) {
            Some(s) => s,
            None => return misuse("bad --strategy (uniform|guided)"),
        },
    };
    let san = match flag_value(args, "--san") {
        None => SanPolicy::Full,
        Some(v) => match SanPolicy::parse(v) {
            Some(p) => p,
            None => return misuse("bad --san (full|none|partial[:ratio[:salt]])"),
        },
    };
    let (Some(shard), Some(start), Some(end)) = (
        flag_num(args, "--shard", 0_u64),
        flag_num(args, "--start", 0_usize),
        flag_num(args, "--end", 0_usize),
    ) else {
        return misuse("bad --shard / --start / --end");
    };
    if shard == 0 {
        return misuse("--shard ID is required (nonzero; 0 is the primary log)");
    }
    let (Some(threads), Some(stall_ms)) =
        (flag_num(args, "--threads", 2_usize), flag_num(args, "--stall-ms", 0_u64))
    else {
        return misuse("bad --threads / --stall-ms");
    };
    // Test hook: hold the lease alive before doing any work, so kill/expiry
    // tests have a deterministic window in which the worker is running.
    if stall_ms > 0 {
        std::thread::sleep(std::time::Duration::from_millis(stall_ms));
    }

    let store = std::path::PathBuf::from(store);
    // Attach the metrics sink before the backend opens its stores, so the
    // open-time replay scan is timed along with the compile stages.
    let sink = Arc::new(obs::MetricsSink::new());
    let _obs = obs::attach(sink.clone());
    let mut cfg = CampaignConfig::builder()
        .seeds(seeds)
        .first_seed(first_seed)
        .strategy(strategy)
        .san_policy(san)
        .recorder(sink.clone())
        .build();
    // Store-backed compile session: staged prefixes persist to the shared
    // `prefix.bin` (O_APPEND, so concurrent workers interleave whole
    // records), warming every sibling and the daemon's merge pass.
    let backend = SimBackend::with_store_capacity(&store, cfg.prefix_key_bound());
    cfg.backend = Some(Arc::new(backend));
    let stats = run_unit_range(&cfg, threads.max(1), &store, shard, start..end);
    println!("computed={} replayed={}", stats.computed, stats.replayed);
    print!("{}", sink.snapshot().encode_lines());
    0
}
