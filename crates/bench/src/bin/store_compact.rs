//! Standalone store compactor:
//! `store_compact --store DIR --store-budget BYTES`.
//!
//! Compacts `prefix.bin` and `sanitized.bin` under `DIR` down to a combined
//! byte budget without running a campaign — the offline counterpart of
//! passing `--store-budget` to `make_tables`/`make_figures`. Opening a
//! table indexes its keys without decoding any module, so compacting a
//! large store is cheap. With no hit-recency on record (nothing ran),
//! eviction deterministically keeps the newest tail of each log.
//!
//! Flag misuse exits with status 2, exactly like the two benchmark
//! binaries; a well-formed invocation prints the shared `[store] compact:`
//! accounting on stderr and exits 0. Corruption found while opening
//! (truncated torn tails, cold rebuilds) is reported as `[store] event: …`
//! lines: the stores mirror every telemetry event through the attached
//! recorder, so a read-only consumer like this one no longer drops them
//! on the floor.

use std::sync::Arc;
use ubfuzz::obs::{self, event_line, Event, Recorder};
use ubfuzz::store::{FrontierStore, PrefixStore, SanitizedStore};
use ubfuzz_bench::{compact_stores, report_compaction, store_args};

/// Prints every store note as a `[store] event: …` stderr line the moment
/// it is recorded — the compactor never renders `telemetry().events()`
/// itself, so without this recorder open-time corruption was invisible.
#[derive(Debug)]
struct StderrEvents;

impl Recorder for StderrEvents {
    fn record(&self, event: &Event<'_>) {
        if let Event::Note { topic, text } = event {
            eprintln!("{}", event_line(topic, text));
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let store = store_args(&args, "store_compact");
    let (Some(dir), Some(budget)) = (&store.dir, store.budget) else {
        eprintln!("store_compact: requires --store DIR and --store-budget BYTES");
        std::process::exit(2);
    };
    let _obs = obs::attach(Arc::new(StderrEvents));
    let prefix = PrefixStore::open(dir);
    let sanitized = SanitizedStore::open(dir);
    // The frontier is not compactable, but its on-disk bytes count against
    // the directory budget the caller asked for.
    let frontier = FrontierStore::open(dir).size_bytes();
    let (ps, ss) = compact_stores(&prefix, &sanitized, frontier, budget);
    report_compaction(&ps, &ss);
}
