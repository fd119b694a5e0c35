//! `ubfuzz-bench` — the benchmark harness that regenerates every table and
//! figure of the paper's evaluation section.
//!
//! Two binaries drive the experiments (sizes are laptop-scale by default;
//! pass `--seeds N` to push further):
//!
//! * `make_tables --table 2|3|4|5|6|7|8|9 [--seeds N]`
//! * `make_figures --figure 7|9|10|11 [--seeds N]`
//!
//! Their stdout is a committed contract: `tests/golden.rs` diffs seven
//! invocations byte for byte against `tests/golden/`. The Criterion
//! benches in `benches/paper.rs` measure the cost of each pipeline stage
//! (seed generation, UB generation, compilation at every level, VM
//! execution, crash-site mapping).

use std::path::{Path, PathBuf};
use std::sync::Arc;
use ubfuzz::backend::{CompilerBackend, SimBackend};
use ubfuzz::campaign::{CampaignConfig, CampaignStats, ParallelCampaign};
use ubfuzz::executor::CampaignPlan;
use ubfuzz::obs::{
    self, event_line, Fanout, Line, MetricsSink, MetricsSnapshot, Recorder, Stage, TraceRecorder,
};
use ubfuzz::{persist, store, SanPolicy, Strategy};
use ubfuzz_simcc::Sanitizer;

/// The value after `flag`, parsed by `parse`: `None` when the flag is
/// absent. A present flag whose value is missing or does not parse prints
/// `{binary}: {flag} requires {what}` and exits with status 2 — the one
/// misuse contract every flag of the binaries shares.
fn flag_value<T>(
    args: &[String],
    binary: &str,
    flag: &str,
    what: &str,
    parse: impl Fn(&str) -> Option<T>,
) -> Option<T> {
    let i = args.iter().position(|a| a == flag)?;
    match args.get(i + 1).and_then(|v| parse(v)) {
        Some(value) => Some(value),
        None => {
            eprintln!("{binary}: {flag} requires {what}");
            std::process::exit(2);
        }
    }
}

/// Parses a numeric `--flag N` (`--seeds`, `--table`, `--figure`): the
/// default when absent, exit status 2 when the value is missing or not a
/// number (see `flag_value`).
pub fn arg_value(args: &[String], binary: &str, flag: &str, default: usize) -> usize {
    flag_value(args, binary, flag, "a number", |v| v.parse().ok()).unwrap_or(default)
}

/// Parses `--trace-out FILE`: `None` when absent, exit status 2 when the
/// value is missing or is itself a flag (see `flag_value`).
pub fn trace_out_arg(args: &[String], binary: &str) -> Option<String> {
    flag_value(args, binary, "--trace-out", "a file path", |v| {
        (!v.starts_with("--")).then(|| v.to_string())
    })
}

/// Installs the process-wide recorder both binaries share: a JSONL
/// [`TraceRecorder`] when `--trace-out FILE` was given, a [`MetricsSink`]
/// when the caller wants aggregation (`make_tables --table 8`), fanned
/// out when both are wanted. The global default reaches executor worker
/// threads without touching the campaign config, and tracing is an
/// observer — stdout stays byte-identical to an uninstrumented run.
/// Exits 2 when the trace file cannot be created (same misuse contract as
/// the persistence flags).
pub fn install_recorders(trace_out: Option<&str>, sink: Option<&Arc<MetricsSink>>, binary: &str) {
    let mut recorders: Vec<Arc<dyn Recorder>> = Vec::new();
    if let Some(path) = trace_out {
        match TraceRecorder::create(Path::new(path)) {
            Ok(trace) => recorders.push(Arc::new(trace)),
            Err(e) => {
                eprintln!("{binary}: --trace-out {path}: {e}");
                std::process::exit(2);
            }
        }
    }
    if let Some(sink) = sink {
        recorders.push(Arc::clone(sink) as Arc<dyn Recorder>);
    }
    match recorders.len() {
        0 => {}
        1 => {
            obs::set_global(recorders.remove(0));
        }
        _ => {
            obs::set_global(Arc::new(Fanout(recorders)));
        }
    }
}

/// Renders the `make_tables --table 8` per-stage latency breakdown from an
/// aggregated snapshot. Stages render in canonical order; the numbers are
/// wall-clock, so this is the one table that is NOT byte-stable across
/// invocations (the persistence job never diffs it).
pub fn render_stage_breakdown(snap: &MetricsSnapshot) -> String {
    let mut out = String::from("Table 8: per-stage latency breakdown\n");
    out.push_str(&format!(
        "{:<16} {:>8} {:>12} {:>12} {:>12} {:>10}\n",
        "stage", "count", "p50_ns", "p95_ns", "max_ns", "total_s"
    ));
    for stage in Stage::ALL {
        let Some(h) = snap.stages.get(&stage) else { continue };
        out.push_str(&format!(
            "{:<16} {:>8} {:>12} {:>12} {:>12} {:>10.4}\n",
            stage.name(),
            h.count,
            h.p50(),
            h.p95(),
            h.max_ns,
            h.sum_ns as f64 / 1e9
        ));
    }
    out
}

/// The persistence flags both binaries share.
#[derive(Debug, Clone, Default)]
pub struct StoreArgs {
    /// `--store DIR`: the persistent store directory.
    pub dir: Option<PathBuf>,
    /// `--resume`: checkpoint the campaign and resume a compatible log.
    pub resume: bool,
    /// `--store-budget BYTES`: compact the prefix table after the run so
    /// that it and `frontier.bin` fit this byte budget.
    pub budget: Option<u64>,
}

/// Parses `--store DIR` / `--resume` / `--store-budget BYTES`, exiting with
/// status 2 on misuse (both binaries must reject it identically — the CI
/// persistence job drives them interchangeably). A `--store` whose value is
/// missing or is itself a flag is an error, not a silently storeless run or
/// a directory literally named `--resume`; likewise a `--store-budget`
/// whose value is missing or not a byte count.
pub fn store_args(args: &[String], binary: &str) -> StoreArgs {
    let dir = flag_value(args, binary, "--store", "a directory argument", |v| {
        (!v.starts_with("--")).then(|| PathBuf::from(v))
    });
    let resume = args.iter().any(|a| a == "--resume");
    if resume && dir.is_none() {
        eprintln!("{binary}: --resume requires --store DIR");
        std::process::exit(2);
    }
    let budget = flag_value(args, binary, "--store-budget", "a byte count", |v| v.parse().ok());
    if budget.is_some() && dir.is_none() {
        eprintln!("{binary}: --store-budget requires --store DIR");
        std::process::exit(2);
    }
    StoreArgs { dir, resume, budget }
}

/// Parses `--strategy uniform|guided` (default [`Strategy::Uniform`]),
/// exiting with status 2 on an unknown value — the same misuse contract as
/// the persistence flags above.
pub fn strategy_arg(args: &[String], binary: &str) -> Strategy {
    flag_value(args, binary, "--strategy", "uniform|guided", Strategy::parse)
        .unwrap_or(Strategy::Uniform)
}

/// Parses `--san full|none|partial[:ratio[:salt]]` (default
/// [`SanPolicy::Full`]), exiting with status 2 on an unknown value — the
/// same misuse contract as `--strategy` (the CI partial job asserts
/// `--san banana` exits 2).
pub fn san_arg(args: &[String], binary: &str) -> SanPolicy {
    flag_value(args, binary, "--san", "full|none|partial[:ratio[:salt]]", SanPolicy::parse)
        .unwrap_or(SanPolicy::Full)
}

/// The shared backend both binaries thread through every entry point:
/// store-backed when `--store` was given, in-memory otherwise, session
/// sized from the campaign configuration either way.
pub fn shared_backend(cfg: &CampaignConfig, store: &StoreArgs) -> Arc<SimBackend> {
    let capacity = cfg.prefix_key_bound();
    match &store.dir {
        Some(dir) => Arc::new(SimBackend::with_store_capacity(dir, capacity)),
        None => Arc::new(SimBackend::with_session(
            ubfuzz_simcc::session::CompileSession::with_capacity(capacity),
        )),
    }
}

/// Runs the default campaign over `backend`, checkpointing under `--resume`
/// and merging found bugs into the store's corpus — the campaign step both
/// binaries share. Corpus telemetry goes to stderr in the exact format the
/// CI persistence job greps (`[store] corpus: total=… new=… known=…`),
/// followed by `truncated=` and any recovery events of the corpus open
/// (the campaign itself never writes the corpus, so that open sees the
/// file as the last invocation left it). Under `--resume` a
/// `[store] campaign: replayed=… cold=… truncated=…` line and its events
/// come first: the checkpoint log as this invocation found it, opened on
/// the plan the campaign then runs.
pub fn run_stored_campaign(
    seeds: usize,
    backend: Arc<dyn CompilerBackend>,
    store_args: &StoreArgs,
    strategy: Strategy,
    san: SanPolicy,
) -> CampaignStats {
    let cfg = CampaignConfig::builder()
        .seeds(seeds)
        .backend(backend)
        .strategy(strategy)
        .san_policy(san)
        .build();
    let stats = if store_args.resume {
        let dir = store_args.dir.as_deref().expect("--resume implies --store");
        let plan = CampaignPlan::new(&cfg, Some(dir));
        report_checkpoint_recovery(&store::CampaignLog::open(dir, plan.fingerprint(), plan.units()));
        ParallelCampaign::new(cfg).with_checkpoint(dir).run_planned(&plan)
    } else {
        ParallelCampaign::new(cfg).run()
    };
    report_expected_misses(&stats);
    if let Some(dir) = &store_args.dir {
        let mut corpus = store::BugCorpus::open(dir);
        let merge = persist::merge_bugs(&mut corpus, &stats);
        eprintln!(
            "{}",
            Line::new("store", "corpus")
                .field("total", corpus.len())
                .field("new", merge.new)
                .field("known", merge.known)
                .field("truncated", corpus.telemetry().tail_truncated())
                .render()
        );
        for event in corpus.telemetry().events() {
            eprintln!("{}", event_line("store", &event));
        }
    }
    stats
}

/// Prints the checkpoint log's load-time recovery (stderr): how many units
/// it holds for replay, whether it cold-started, whether a torn tail was
/// cut, and the recovery events.
fn report_checkpoint_recovery(log: &store::CampaignLog) {
    let t = log.telemetry();
    eprintln!(
        "{}",
        Line::new("store", "campaign")
            .field("replayed", log.replayed())
            .field("cold", t.recovered_cold())
            .field("truncated", t.tail_truncated())
            .render()
    );
    for event in t.events() {
        eprintln!("{}", event_line("store", &event));
    }
}

/// Prints the partial-sanitization expected-miss accounting (stderr,
/// stable format — the CI partial job greps `[oracle] expected-miss:`).
/// Only printed when at least one miss was recorded, so a full-policy
/// leg's stderr stays byte-identical to the pre-partition harness.
pub fn report_expected_misses(stats: &CampaignStats) {
    if stats.oracle.expected_miss_total() == 0 {
        return;
    }
    let mut line =
        Line::new("oracle", "expected-miss").field("total", stats.oracle.expected_miss_total());
    for s in Sanitizer::ALL {
        line = line.field(&s.name().to_ascii_lowercase(), stats.oracle.expected_misses(s));
    }
    eprintln!("{}", line.render());
}

/// The prefix table's telemetry line (`[store] prefix: …`).
fn prefix_line(t: &store::StoreTelemetry, hits: u64, misses: u64) -> String {
    Line::new("store", "prefix")
        .field("loaded", t.loaded())
        .field("persisted", t.persisted())
        .field("hits", hits)
        .field("misses", misses)
        .field("cold", t.recovered_cold())
        .field("truncated", t.tail_truncated())
        .render()
}

/// Prints the store-backed compile-cache telemetry lines (stderr, stable
/// format — the CI persistence job greps `[store] prefix: .* misses=0 `).
/// No-op for in-memory backends. The size line covers `frontier.bin` too,
/// so the reported total is what the compile cache and the frontier
/// occupy.
pub fn report_store_telemetry(backend: &SimBackend, store_args: &StoreArgs) {
    let Some(prefix) = backend.prefix_store() else { return };
    let cache = backend.session().stats();
    let t = prefix.telemetry();
    eprintln!("{}", prefix_line(t, cache.hits, cache.misses));
    for event in t.events() {
        eprintln!("{}", event_line("store", &event));
    }
    let frontier =
        store_args.dir.as_deref().map_or(0, |dir| store::FrontierStore::open(dir).size_bytes());
    eprintln!(
        "{}",
        Line::new("store", "size")
            .field("prefix", prefix.size_bytes())
            .field("frontier", frontier)
            .field("total", prefix.size_bytes() + frontier)
            .render()
    );
}

/// Prints the persisted coverage-frontier telemetry line (stderr, stable
/// format — the CI guided job greps `[store] frontier: points=[1-9]`, also
/// on a cold first leg). `opened` is the store's frontier as opened before
/// the campaign ran: `cold=`, `truncated=` and the events report what that
/// open recovered, which the campaign's own re-save would hide. `points=`
/// counts the file as the campaign left it. No-op without `--store`.
pub fn report_frontier_telemetry(opened: Option<&store::FrontierStore>) {
    let Some(opened) = opened else { return };
    let dir = opened.path().parent().expect("frontier.bin lives in its store directory");
    let t = opened.telemetry();
    eprintln!(
        "{}",
        Line::new("store", "frontier")
            .field("points", store::FrontierStore::open(dir).len())
            .field("cold", t.recovered_cold())
            .field("truncated", t.tail_truncated())
            .render()
    );
    for event in t.events() {
        eprintln!("{}", event_line("store", &event));
    }
}

/// One guided-vs-uniform comparison run (see [`compare_strategies`]).
#[derive(Debug, Clone)]
pub struct StrategyComparison {
    /// The uniform evaluation leg (storeless reference).
    pub uniform: CampaignStats,
    /// The guided evaluation leg (planned against the warm frontier).
    pub guided: CampaignStats,
}

impl StrategyComparison {
    /// Deduplicated bugs per planned compile unit for one leg.
    pub fn bugs_per_unit(stats: &CampaignStats) -> f64 {
        if stats.units == 0 {
            0.0
        } else {
            stats.bugs.len() as f64 / stats.units as f64
        }
    }

    /// Renders the comparison as the `make_tables --table 7` text table:
    /// one row per strategy over the same evaluation seeds, with the
    /// per-unit bug yield and the final frontier size as columns.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("Table 7: feedback-directed generation (uniform vs guided)\n");
        out.push_str(&format!(
            "{:<10} {:>8} {:>6} {:>11} {:>9}\n",
            "strategy", "units", "bugs", "bugs/unit", "frontier"
        ));
        for (name, stats) in [("uniform", &self.uniform), ("guided", &self.guided)] {
            out.push_str(&format!(
                "{:<10} {:>8} {:>6} {:>11.4} {:>9}\n",
                name,
                stats.units,
                stats.bugs.len(),
                Self::bugs_per_unit(stats),
                stats.frontier_points
            ));
        }
        out
    }
}

/// Runs the paper-style feedback experiment behind `make_tables --table 7`
/// (pinned by the `table7.txt` golden): a uniform warm-up campaign over
/// `warm_seeds` seeds persists its coverage frontier into `dir`, then the
/// SAME follow-on seed range runs twice — once uniform (storeless, the
/// reference denominator) and once guided against the warm frontier. Guided
/// planning is a pure function of `(first seed, frontier snapshot)`, so the
/// whole comparison is deterministic: a second invocation over a fresh store
/// reproduces it bit-for-bit.
pub fn compare_strategies(warm_seeds: usize, eval_seeds: usize, dir: &Path) -> StrategyComparison {
    let _warm = ParallelCampaign::new(CampaignConfig::builder().seeds(warm_seeds).build())
        .with_checkpoint(dir)
        .run();
    let eval = |strategy: Strategy| {
        let cfg = CampaignConfig::builder()
            .seeds(eval_seeds)
            .first_seed(warm_seeds as u64)
            .strategy(strategy)
            .build();
        let mut runner = ParallelCampaign::new(cfg);
        if strategy == Strategy::Guided {
            // Checkpointing is what routes the store directory (and with it
            // the persisted frontier) into the runner; the uniform leg stays
            // storeless so it cannot see the warm-up at all.
            runner = runner.with_checkpoint(dir);
        }
        runner.run()
    };
    let uniform = eval(Strategy::Uniform);
    let guided = eval(Strategy::Guided);
    StrategyComparison { uniform, guided }
}

/// One full-vs-partial-vs-none sanitization comparison run (see
/// [`compare_policies`]).
#[derive(Debug, Clone)]
pub struct PolicyComparison {
    /// The full-instrumentation leg (the pre-partition reference).
    pub full: CampaignStats,
    /// The `partial:500` leg: every other check site, deterministically.
    pub partial: CampaignStats,
    /// The uninstrumented leg (compile-overhead floor, zero detection).
    pub none: CampaignStats,
}

impl PolicyComparison {
    /// The legs in rendering order, labelled with their policy spelling.
    pub fn legs(&self) -> [(SanPolicy, &CampaignStats); 3] {
        [
            (SanPolicy::Full, &self.full),
            (SanPolicy::Partial { ratio_pm: 500, salt: 0 }, &self.partial),
            (SanPolicy::None, &self.none),
        ]
    }

    /// Renders the comparison as the `make_tables --table 9` text table:
    /// one row per policy over the same seeds, with the per-unit bug yield
    /// and the expected-miss count as the detection-vs-overhead columns.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("Table 9: partial sanitization (overhead vs detection)\n");
        out.push_str(&format!(
            "{:<14} {:>8} {:>6} {:>11} {:>10}\n",
            "policy", "units", "bugs", "bugs/unit", "exp-miss"
        ));
        for (policy, stats) in self.legs() {
            out.push_str(&format!(
                "{:<14} {:>8} {:>6} {:>11.4} {:>10}\n",
                policy.to_string(),
                stats.units,
                stats.bugs.len(),
                StrategyComparison::bugs_per_unit(stats),
                stats.oracle.expected_miss_total()
            ));
        }
        out
    }
}

/// Runs the overhead-vs-detection experiment behind `make_tables --table 9`
/// (pinned by the `table9.txt` golden): the SAME seed range runs under
/// the full, `partial:500`, and none policies over ONE store directory.
/// The sanitizer-independent prefix stage compiles once and replays into
/// the other legs; only the sanitize stage differs, and it runs for every
/// leg, so no leg can see another's site subset. Every leg is a pure
/// function of `(seeds, policy)`, so the rendered table is byte-stable.
pub fn compare_policies(seeds: usize, dir: &Path) -> PolicyComparison {
    let leg = |policy: SanPolicy| {
        let capacity = CampaignConfig::builder().seeds(seeds).build().prefix_key_bound();
        let backend: Arc<dyn CompilerBackend> =
            Arc::new(SimBackend::with_store_capacity(dir, capacity));
        let cfg =
            CampaignConfig::builder().seeds(seeds).backend(backend).san_policy(policy).build();
        ParallelCampaign::new(cfg).run()
    };
    let full = leg(SanPolicy::Full);
    let partial = leg(SanPolicy::Partial { ratio_pm: 500, salt: 0 });
    let none = leg(SanPolicy::None);
    PolicyComparison { full, partial, none }
}

/// Runs the post-run compaction pass when `--store-budget` was given,
/// reporting before/after accounting on stderr. No-op for in-memory
/// backends or when no budget was requested.
pub fn compact_backend_stores(backend: &SimBackend, store_args: &StoreArgs) {
    let (Some(budget), Some(prefix)) = (store_args.budget, backend.prefix_store()) else {
        return;
    };
    // `frontier.bin` is not compactable (the static coverage registry
    // bounds it), but its bytes count against the directory's budget.
    let frontier =
        store_args.dir.as_deref().map_or(0, |dir| store::FrontierStore::open(dir).size_bytes());
    report_compaction(&prefix.compact(budget.saturating_sub(frontier)));
}

/// The shared `[store] compact:` stderr report both the binaries and the
/// standalone compactor print.
pub fn report_compaction(s: &store::CompactStats) {
    eprintln!(
        "{}",
        Line::new("store", "compact")
            .text("prefix")
            .field("before", s.before_bytes)
            .field("after", s.after_bytes)
            .field("kept", s.kept)
            .field("evicted", s.evicted)
            .render()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arg_parsing() {
        let args: Vec<String> =
            ["prog", "--seeds", "42", "--table", "3"].iter().map(|s| s.to_string()).collect();
        assert_eq!(arg_value(&args, "prog", "--seeds", 5), 42);
        assert_eq!(arg_value(&args, "prog", "--table", 0), 3);
        assert_eq!(arg_value(&args, "prog", "--missing", 7), 7);
    }

    /// The `[store] …` stderr lines are a CI interface: the persistence and
    /// guided jobs grep them. Unifying the emitters behind [`Line`] must
    /// not move a byte.
    #[test]
    fn telemetry_lines_keep_the_ci_grep_format() {
        assert_eq!(
            Line::new("store", "corpus")
                .field("total", 3)
                .field("new", 0)
                .field("known", 3)
                .render(),
            "[store] corpus: total=3 new=0 known=3"
        );
        assert_eq!(
            Line::new("store", "compact")
                .text("prefix")
                .field("before", 10)
                .field("after", 5)
                .field("kept", 1)
                .field("evicted", 2)
                .render(),
            "[store] compact: prefix before=10 after=5 kept=1 evicted=2"
        );
        assert_eq!(
            prefix_line(&store::StoreTelemetry::default(), 4, 0),
            "[store] prefix: loaded=0 persisted=0 hits=4 misses=0 cold=false truncated=false"
        );
        assert_eq!(
            event_line("store", "prefix.bin: truncated torn tail"),
            "[store] event: prefix.bin: truncated torn tail"
        );
    }
}
