//! Regenerates the paper's figures: `make_figures --figure 7|9|10|11 [--seeds N]`.
//! `--figure 0` prints all of them.
//!
//! Like `make_tables`, all entry points share one `SimBackend` (sized from
//! the campaign config): the Fig. 10/11 replays recompile every found bug's
//! test case across stable versions and levels, which re-hits the prefixes
//! the campaign cached — those still resident in memory (a byte-bounded
//! window), or all of them with `--store`. The shared `--store DIR` /
//! `--resume` / `--store-budget BYTES` persistence flags (see
//! `ubfuzz_bench` and `make_tables`) apply here too, as do `--trace-out
//! FILE` (JSONL event stream; an observer — figure bytes do not change),
//! `--strategy`, and `--san full|none|partial[:ratio[:salt]]`
//! (partial-sanitization policy of the campaign behind the figures).

use std::sync::Arc;
use ubfuzz::backend::CompilerBackend;
use ubfuzz::campaign::CampaignConfig;
use ubfuzz::report;
use ubfuzz_bench::{
    arg_value, compact_backend_stores, install_recorders, report_store_telemetry,
    run_stored_campaign, san_arg, shared_backend, store_args, strategy_arg, trace_out_arg,
};
use ubfuzz_simcc::defects::DefectRegistry;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let figure = arg_value(&args, "make_figures", "--figure", 0);
    let seeds = arg_value(&args, "make_figures", "--seeds", 30);
    let store = store_args(&args, "make_figures");
    let strategy = strategy_arg(&args, "make_figures");
    let san = san_arg(&args, "make_figures");
    let trace_out = trace_out_arg(&args, "make_figures");
    install_recorders(trace_out.as_deref(), None, "make_figures");
    let registry = DefectRegistry::full();
    let backend = shared_backend(&CampaignConfig::builder().seeds(seeds).build(), &store);
    let backend_dyn: Arc<dyn CompilerBackend> = backend.clone();
    let campaign =
        || run_stored_campaign(seeds, Arc::clone(&backend_dyn), &store, strategy, san);
    match figure {
        9 => print!("{}", report::fig9()),
        7 | 10 | 11 => {
            let stats = campaign();
            match figure {
                7 => print!("{}", report::fig7(&stats)),
                10 => print!("{}", report::fig10(&stats, &registry, backend.as_ref())),
                _ => print!("{}", report::fig11(&stats, &registry, backend.as_ref())),
            }
        }
        _ => {
            let stats = campaign();
            print!("{}", report::fig7(&stats));
            print!("{}", report::fig9());
            print!("{}", report::fig10(&stats, &registry, backend.as_ref()));
            print!("{}", report::fig11(&stats, &registry, backend.as_ref()));
        }
    }
    report_store_telemetry(&backend, &store);
    compact_backend_stores(&backend, &store);
}
