//! Worker-mode entry: one leased group range, judged and checkpointed.
//!
//! The daemon spawns `<bin> worker --store DIR --seeds N --first-seed F
//! --shard ID --start A --end B --seed-start S --seed-end E --base G
//! --span-end H --groups M [--threads T]` once per lease; the shard id
//! *is* the lease id, so every worker writes its own `campaign.s<ID>.bin`
//! (single-writer-per-file keeps the torn-tail recovery story) while the
//! open-time replay scan unions every sibling shard — a worker re-issued
//! over a half-finished range only pays for the missing groups. `--start`
//! and `--end` are group indices of the campaign plan; the rest is the
//! lease's seed span ([`ubfuzz::executor::CampaignPlan::seed_span`]):
//! seed offsets `S..E`, the global indices `G..H` of their groups, and the
//! plan's group count `M`. The worker generates only seeds `S..E`.
//!
//! The worker runs [`ubfuzz::executor::run_group_range`] over a
//! store-backed `SimBackend` (the backend is where the compile cache is
//! chosen): it compiles each `(program, sanitizer)` group, judges it with
//! the campaign's oracle and records the verdict — the daemon's merge only
//! folds verdicts, through the same judge step. A span its seeds do not
//! plan exits 1 with the reason on stderr and records nothing; the daemon
//! reclaims the lease like any failed worker. Its stdout is
//! the completion receipt the daemon parses: one `computed=N replayed=N`
//! line (in units, i.e. matrix cells) followed by `metric …` lines ([`ubfuzz::obs::MetricsSnapshot::
//! encode_lines`]) carrying the per-stage latency histograms sampled in
//! this process — the daemon cannot time compiles it never runs, so the
//! receipt is the only road those samples have back to `METRICS`.
//! Everything diagnostic goes to stderr.

use std::sync::Arc;
use ubfuzz::backend::SimBackend;
use ubfuzz::campaign::CampaignConfig;
use ubfuzz::executor::{run_group_range, SeedSpan};
use ubfuzz::{obs, SanPolicy, Strategy};

use crate::{flag_num, flag_value};

/// Runs worker mode from CLI-style arguments (a leading `worker` token is
/// tolerated, so every binary that forwards its arguments here — the
/// `ubfuzz-serve` executable, the `ubbench` benchmark — takes the daemon's
/// spawn line unchanged). Returns the process exit code: 0 on completion,
/// 1 when the seed span disagrees with this worker's plan, 2 on flag
/// misuse.
pub fn worker_main(args: &[String]) -> i32 {
    let args = match args.first().map(String::as_str) {
        Some("worker") => &args[1..],
        _ => args,
    };
    let misuse = |what: &str| -> i32 {
        eprintln!("ubfuzz-serve worker: {what}");
        eprintln!(
            "usage: worker --store DIR --shard ID --start A --end B \
             --seed-start S --seed-end E --base G --span-end H --groups M \
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
    let span_flags = ["--seed-start", "--seed-end", "--base", "--span-end", "--groups"]
        .map(|f| flag_value(args, f).and_then(|v| v.parse::<usize>().ok()));
    let [Some(seed_start), Some(seed_end), Some(base), Some(span_end), Some(groups)] = span_flags
    else {
        return misuse(
            "the lease's seed span is required: --seed-start S --seed-end E --base G \
             --span-end H --groups M",
        );
    };
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
    let span = SeedSpan { seeds: seed_start..seed_end, groups: base..span_end };
    let stats = match run_group_range(&cfg, threads.max(1), &store, shard, start..end, &span, groups)
    {
        Ok(stats) => stats,
        Err(reason) => {
            eprintln!("ubfuzz-serve worker: shard {shard}: {reason}");
            return 1;
        }
    };
    println!("computed={} replayed={}", stats.computed, stats.replayed);
    print!("{}", sink.snapshot().encode_lines());
    0
}
