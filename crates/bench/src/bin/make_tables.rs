//! Regenerates the paper's tables: `make_tables --table 2|3|4|5|6|7|8|9 [--seeds N]`.
//! `--table 0` prints all byte-stable tables plus the §4.4 oracle statistics.
//! Table 7 is this repo's extension table: the guided-vs-uniform strategy
//! comparison (warm-up campaign persists a coverage frontier, then the same
//! evaluation seeds run under both strategies — see `ubfuzz-guide`).
//! Table 8 is the per-stage latency breakdown of the standard campaign
//! (wall-clock numbers, so it is excluded from `--table 0` and from the
//! CI stdout diffs).
//! Table 9 is the partial-sanitization comparison: the same seeds run under
//! the full, `partial:500`, and none policies over one scratch store, with
//! per-unit bug yield and expected-miss counts as columns.
//! `--trace-out FILE` streams every pipeline event (spans, counters,
//! store notes) as JSONL to `FILE` — an observer that changes no campaign
//! output byte.
//! `--strategy uniform|guided` selects the generation strategy of the
//! campaign behind Tables 3/6 (guided only differs once `--store --resume`
//! gives it a warm frontier to plan against).
//! `--san full|none|partial[:ratio[:salt]]` selects the sanitization policy
//! of the same campaign: non-full policies skip a deterministic site subset
//! per function and report expected misses on stderr
//! (`[oracle] expected-miss: …`). The default `full` is byte-identical to
//! not passing the flag at all.
//! `--ablation` prints the §4.4 oracle ablation (naive vs crash-site
//! mapping in the pristine world) instead.
//!
//! Every entry point shares ONE `SimBackend`, sized from the campaign
//! config, so the staged-compile cache is shared across tables. In memory
//! it keeps a byte-bounded window of recent prefixes; with `--store` every
//! compiled stage persists across tables and invocations.
//!
//! Persistence flags (shared with `make_figures`, see `ubfuzz_bench`):
//!
//! * `--store DIR` — back the prefix cache by the on-disk store at `DIR`
//!   and merge found bugs into its cross-invocation corpus. A second
//!   invocation over the same store recompiles nothing (zero prefix
//!   misses) and renders byte-identical tables; stderr reports a
//!   machine-readable `[store] …` summary.
//! * `--resume` (requires `--store`) — additionally checkpoint the campaign
//!   one `(program, sanitizer)` group verdict at a time and resume any
//!   compatible checkpoint already in the store, so a killed invocation
//!   continues where it died with a bit-identical final report.
//! * `--store-budget BYTES` (requires `--store`) — after the run, compact
//!   `prefix.bin` so that it and `frontier.bin` fit this byte budget,
//!   evicting least-recently-hit entries first (see also the standalone
//!   `store_compact` binary).

use std::sync::Arc;
use ubfuzz::backend::CompilerBackend;
use ubfuzz::campaign::CampaignConfig;
use ubfuzz::obs::MetricsSink;
use ubfuzz::report;
use ubfuzz_bench::{
    arg_value, compact_backend_stores, compare_policies, compare_strategies, install_recorders,
    render_stage_breakdown, report_frontier_telemetry, report_store_telemetry, run_stored_campaign,
    san_arg, shared_backend, store_args, strategy_arg, trace_out_arg,
};
use ubfuzz_simcc::defects::DefectRegistry;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let table = arg_value(&args, "make_tables", "--table", 0);
    let seeds = arg_value(&args, "make_tables", "--seeds", 30);
    let store = store_args(&args, "make_tables");
    let strategy = strategy_arg(&args, "make_tables");
    let san = san_arg(&args, "make_tables");
    // `--trace-out FILE` streams every pipeline event as JSONL; table 8
    // additionally aggregates into per-stage histograms. Both observe via
    // the process-wide recorder — campaign output bytes do not change.
    let trace_out = trace_out_arg(&args, "make_tables");
    let sink = (table == 8).then(|| Arc::new(MetricsSink::new()));
    install_recorders(trace_out.as_deref(), sink.as_ref(), "make_tables");
    let backend = shared_backend(&CampaignConfig::builder().seeds(seeds).build(), &store);
    let backend_dyn: Arc<dyn CompilerBackend> = backend.clone();
    let campaign = || run_stored_campaign(seeds, Arc::clone(&backend_dyn), &store, strategy, san);
    // The frontier's load-time recovery is read before the campaign re-saves
    // the file.
    let frontier = store.dir.as_deref().map(ubfuzz::store::FrontierStore::open);
    if args.iter().any(|a| a == "--ablation") {
        // The ablation replaces the table output but not the persistence
        // contract: prefixes still flow through the (possibly store-backed)
        // backend, so fall through to the telemetry tail below.
        print!("{}", report::oracle_ablation(Arc::clone(&backend_dyn), seeds));
    } else {
        run_tables(table, seeds, &backend, &campaign, sink.as_deref());
    }
    // Cache/store telemetry goes to stderr so stdout stays byte-comparable
    // between invocations (the CI persistence job diffs it).
    let cache = backend.session().stats();
    eprintln!(
        "[make_tables] shared compile cache across entry points: {} hits, {} misses ({:.1}% reuse)",
        cache.hits,
        cache.misses,
        100.0 * cache.reuse_ratio()
    );
    report_store_telemetry(&backend, &store);
    report_frontier_telemetry(frontier.as_ref());
    compact_backend_stores(&backend, &store);
}

/// Runs the guided-vs-uniform comparison behind Table 7. The warm-up
/// frontier always lives in a scratch directory that is removed afterwards
/// — never the shared `--store` — so the rendered table depends only on
/// `--seeds` and repeated invocations over one store stay byte-identical
/// (the CI persistence job diffs stdout; a store-resident frontier growing
/// between runs would change the guided plan).
fn table7(seeds: usize) -> String {
    let scratch = std::env::temp_dir().join(format!("ubfuzz_table7_{}", std::process::id()));
    let rendered = compare_strategies(seeds, (seeds / 2).max(2), &scratch).render();
    let _ = std::fs::remove_dir_all(&scratch);
    rendered
}

/// Runs the partial-sanitization comparison behind Table 9. Same scratch
/// discipline as Table 7: the three policy legs share one throwaway store
/// (so the prefix stage compiles once), never the `--store` directory, and
/// the rendered table depends only on `--seeds`.
fn table9(seeds: usize) -> String {
    let scratch = std::env::temp_dir().join(format!("ubfuzz_table9_{}", std::process::id()));
    let rendered = compare_policies(seeds, &scratch).render();
    let _ = std::fs::remove_dir_all(&scratch);
    rendered
}

fn run_tables(
    table: usize,
    seeds: usize,
    backend: &Arc<ubfuzz::SimBackend>,
    campaign: &dyn Fn() -> ubfuzz::CampaignStats,
    sink: Option<&MetricsSink>,
) {
    match table {
        2 => print!("{}", report::table2()),
        3 => {
            let stats = campaign();
            print!("{}", report::table3(&stats));
            print!("{}", report::oracle_stats(&stats));
        }
        4 => print!("{}", report::table4(&report::generator_comparison(seeds.min(200)))),
        5 => print!("{}", report::coverage_experiment(backend.as_ref(), seeds.min(20))),
        6 => print!("{}", report::table6(&campaign())),
        7 => print!("{}", table7(seeds)),
        9 => print!("{}", table9(seeds)),
        8 => {
            // Stage-time breakdown of the standard campaign: run it under
            // the aggregating sink main installed, then render what it saw.
            let _ = campaign();
            let sink = sink.expect("main installs a metrics sink for table 8");
            print!("{}", render_stage_breakdown(&sink.snapshot()));
        }
        _ => {
            print!("{}", report::table2());
            let stats = campaign();
            print!("{}", report::table3(&stats));
            print!("{}", report::table4(&report::generator_comparison((seeds / 3).max(2))));
            print!(
                "{}",
                report::coverage_experiment(backend.as_ref(), (seeds / 6).max(2))
            );
            print!("{}", report::table6(&stats));
            print!("{}", table7((seeds / 3).max(2)));
            print!("{}", table9((seeds / 3).max(2)));
            print!("{}", report::oracle_stats(&stats));
            let _ = DefectRegistry::full();
        }
    }
}
