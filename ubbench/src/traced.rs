//! The traced run: each workload once more at workers=1, with every layer
//! timed from outside — wrappers passed through `CampaignConfig::backend`
//! and `CampaignConfig::oracle`, a stage-by-stage replay of `cold`, and
//! the public `STATUS`/`METRICS` surfaces of `served`.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use ubfuzz::backend::{
    Artifact, CompileRequest, CompilerBackend, PrefixCache, RunOutcome, RunRequest, SimBackend,
    SiteTrace, ToolchainDesc, TraceCapability,
};
use ubfuzz::campaign::{CampaignConfig, CampaignStats, ParallelCampaign};
use ubfuzz::minic::Program;
use ubfuzz::oracle::{CompiledCell, CrashOracle, OracleInput, OracleStack, OracleVerdicts};
use ubfuzz::simcc::lower::CompileError;
use ubfuzz::simcc::session::{CompileSession, ProgramFingerprint};
use ubfuzz::store::modser::module_to_bytes;
use ubfuzz::store::wire::fnv1a;
use ubfuzz::store::{PrefixStore, SanitizedStore};

use crate::replay::{self, PASSES};
use crate::spans::Spans;
use crate::workloads::spawn_served;
use crate::{bugs_digest, digest, num, report_text, Reference, Tally, WorkDir, Workload};

/// Every per-layer metric with its unit, in output order. Metrics a
/// workload does not exercise read 0 on it.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = [
        ("seedgen.generate_s", "s"),
        ("seedgen.seeds", "count"),
        ("ubgen.generate_s", "s"),
        ("ubgen.programs", "count"),
        ("simcc.lower_s", "s"),
        ("simcc.lower_calls", "count"),
        ("simcc.lowers_per_program", "ratio"),
        ("simcc.early_opt_s", "s"),
        ("simcc.early_opt_instrs_in", "count"),
        ("simcc.early_opt_instrs_out", "count"),
    ]
    .iter()
    .map(|(n, u)| (n.to_string(), *u))
    .collect();
    for p in PASSES {
        m.push((format!("simcc.pass.{p}_s"), "s"));
        m.push((format!("simcc.pass.{p}_calls"), "count"));
    }
    m.extend(
        [
            ("simcc.pass.replay_identical", "count"),
            ("simcc.sanitize_s", "s"),
            ("simcc.checks_inserted", "count"),
            ("simcc.late_opt_s", "s"),
            ("session.prefix_hits", "count"),
            ("session.prefix_misses", "count"),
            ("session.san_hits", "count"),
            ("session.san_misses", "count"),
            ("session.prefix_reuse", "ratio"),
            ("backend.compile_s", "s"),
            ("backend.compile_calls", "count"),
            ("backend.fingerprint_s", "s"),
            ("simvm.run_s", "s"),
            ("simvm.runs", "count"),
            ("simvm.reports", "count"),
            ("simvm.trace_s", "s"),
            ("simvm.traces", "count"),
            ("oracle.judge_s", "s"),
            ("oracle.groups", "count"),
            ("oracle.discrepancies", "count"),
            ("oracle.selected", "count"),
            ("oracle.select_ratio", "ratio"),
            ("store.open_s", "s"),
            ("store.bytes_read", "B"),
            ("store.entries_loaded", "count"),
            ("store.encode_s", "s"),
            ("store.decode_s", "s"),
            ("store.module_bytes", "B"),
            ("store.disk_mb", "MB"),
            ("serve.plan_s", "s"),
            ("serve.lease_s", "s"),
            ("serve.merge_s", "s"),
            ("serve.leases", "count"),
            ("serve.reissued", "count"),
        ]
        .iter()
        .map(|(n, u)| (n.to_string(), *u)),
    );
    for stage in SERVE_STAGES {
        m.push((format!("serve.metrics.{stage}_s"), "s"));
    }
    m.extend(
        [
            ("core.other_s", "s"),
            ("trace.verify_s", "s"),
            ("trace.wall_s", "s"),
            ("trace.overhead_frac", "ratio"),
        ]
        .iter()
        .map(|(n, u)| (n.to_string(), *u)),
    );
    m
}

/// `METRICS` stages whose summed time the served trace reports.
const SERVE_STAGES: [&str; 8] = [
    "generate",
    "prefix_compile",
    "sanitize",
    "late_opt",
    "run",
    "store_open",
    "store_persist",
    "merge",
];

thread_local! {
    /// The compile sequence number of the unit this thread last compiled:
    /// the campaign runs each unit's artifact right after compiling it.
    static UNIT: Cell<u64> = const { Cell::new(0) };
}

/// `SimBackend` with every trait method forwarded through a span.
pub struct TracedBackend {
    inner: SimBackend,
    spans: Arc<Spans>,
    /// Record each compile's module digest (for the replay check).
    verify: bool,
    compiles: AtomicU64,
    digests: Mutex<Vec<Option<u64>>>,
    runs: AtomicU64,
    reports: AtomicU64,
    traces: AtomicU64,
}

impl std::fmt::Debug for TracedBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TracedBackend")
            .field("inner", &self.inner)
            .finish()
    }
}

impl TracedBackend {
    fn new(inner: SimBackend, spans: Arc<Spans>, verify: bool) -> TracedBackend {
        TracedBackend {
            inner,
            spans,
            verify,
            compiles: AtomicU64::new(0),
            digests: Mutex::new(Vec::new()),
            runs: AtomicU64::new(0),
            reports: AtomicU64::new(0),
            traces: AtomicU64::new(0),
        }
    }

    fn digests(&self) -> Vec<Option<u64>> {
        self.digests
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }
}

impl CompilerBackend for TracedBackend {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn toolchains(&self) -> Vec<ToolchainDesc> {
        self.inner.toolchains()
    }

    fn fingerprint(&self, program: &Program) -> ProgramFingerprint {
        self.spans
            .time("backend.fingerprint", 0, || self.inner.fingerprint(program))
    }

    fn compile(
        &self,
        fp: &ProgramFingerprint,
        program: &Program,
        req: &CompileRequest<'_>,
    ) -> Result<Artifact, CompileError> {
        let unit = self.compiles.fetch_add(1, Ordering::Relaxed);
        UNIT.with(|u| u.set(unit));
        let artifact = self.spans.time("backend.compile", unit, || {
            self.inner.compile(fp, program, req)
        });
        if self.verify {
            let d = artifact.as_ref().ok().and_then(Artifact::module).map(|m| {
                self.spans
                    .time("trace.verify", unit, || fnv1a(&module_to_bytes(m)))
            });
            let mut digests = self.digests.lock().unwrap_or_else(|e| e.into_inner());
            let i = unit as usize;
            if digests.len() <= i {
                digests.resize(i + 1, None);
            }
            digests[i] = d;
        }
        artifact
    }

    fn execute(&self, artifact: &Artifact, req: &RunRequest) -> RunOutcome {
        let unit = UNIT.with(Cell::get);
        let outcome = self
            .spans
            .time("simvm.run", unit, || self.inner.execute(artifact, req));
        self.runs.fetch_add(1, Ordering::Relaxed);
        if outcome.is_report() {
            self.reports.fetch_add(1, Ordering::Relaxed);
        }
        outcome
    }

    fn trace_capability(&self) -> TraceCapability {
        self.inner.trace_capability()
    }

    fn trace(&self, artifact: &Artifact, req: &RunRequest) -> Option<SiteTrace> {
        self.traces.fetch_add(1, Ordering::Relaxed);
        self.spans
            .time("simvm.trace", 0, || self.inner.trace(artifact, req))
    }

    fn prefix_cache(&self) -> Option<&dyn PrefixCache> {
        self.inner.prefix_cache()
    }
}

/// `OracleStack::standard()` with each judgment in a span.
pub struct TracedOracle {
    inner: OracleStack,
    spans: Arc<Spans>,
    groups: AtomicU64,
}

impl std::fmt::Debug for TracedOracle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TracedOracle")
            .field("inner", &self.inner)
            .finish()
    }
}

impl CrashOracle for TracedOracle {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn judge(
        &self,
        backend: &dyn CompilerBackend,
        input: OracleInput,
        cells: &[CompiledCell],
    ) -> OracleVerdicts {
        let group = self.groups.fetch_add(1, Ordering::Relaxed);
        self.spans.time("oracle.judge", group, || {
            self.inner.judge(backend, input, cells)
        })
    }
}

/// The campaign over `backend` at workers=1 with the traced oracle, timed
/// from `from_ns` (which may precede it, e.g. to cover a store open).
fn traced_campaign(
    cfg: &CampaignConfig,
    backend: Arc<TracedBackend>,
    spans: &Arc<Spans>,
) -> (CampaignStats, u64) {
    let oracle = Arc::new(TracedOracle {
        inner: OracleStack::standard(),
        spans: Arc::clone(spans),
        groups: AtomicU64::new(0),
    });
    let mut cfg = cfg.clone();
    cfg.backend = Some(backend);
    cfg.oracle = Some(oracle.clone());
    let stats = ParallelCampaign::new(cfg).with_shards(1).run();
    (stats, oracle.groups.load(Ordering::Relaxed))
}

/// Runs the traced pass of `workload` and returns every per-layer metric.
pub fn run(
    workload: Workload,
    cfg: &CampaignConfig,
    untraced_wall: f64,
    work: &WorkDir,
    reference: &Reference,
    tally: &mut Tally,
) -> Vec<(String, f64, String)> {
    let spans = Arc::new(Spans::new());
    let mut v: BTreeMap<String, f64> = BTreeMap::new();
    match workload {
        Workload::Cold => {
            let sim =
                SimBackend::with_session(CompileSession::with_capacity(cfg.prefix_key_bound()));
            let backend = Arc::new(TracedBackend::new(sim, Arc::clone(&spans), true));
            let from = spans.now_ns();
            let (stats, groups) = traced_campaign(cfg, Arc::clone(&backend), &spans);
            let to = spans.now_ns();
            tally.record(matches_reference(&stats, reference));
            campaign_metrics(&mut v, &stats, &backend, groups);
            let r = replay::run(cfg, &spans, &backend.digests());
            tally.record(r.identical);
            if !r.identical {
                eprintln!("[ubbench] stage replay differs from the campaign's artifacts");
            }
            replay_metrics(&mut v, &r, &spans, to);
            window_metrics(&mut v, &spans, from, to);
        }
        Workload::Warm => {
            let dir = &work.0.join(crate::WARM_STORE);
            // The open without module decode (zero budget) against the full
            // open inside the timed window: the difference is decode time.
            let scan = spans.time("store.scan", 0, || {
                (
                    PrefixStore::open_budgeted(dir, 0),
                    SanitizedStore::open_budgeted(dir, 0),
                )
            });
            drop(scan);
            let from = spans.now_ns();
            let sim = spans.time("store.open", 0, || {
                SimBackend::with_store_capacity(dir, cfg.prefix_key_bound())
            });
            let (bytes, loaded) = match (sim.prefix_store(), sim.sanitized_store()) {
                (Some(p), Some(s)) => (
                    p.size_bytes() + s.size_bytes(),
                    p.telemetry().loaded() + s.telemetry().loaded(),
                ),
                _ => (0, 0),
            };
            let backend = Arc::new(TracedBackend::new(sim, Arc::clone(&spans), false));
            let (stats, groups) = traced_campaign(cfg, Arc::clone(&backend), &spans);
            let to = spans.now_ns();
            tally.record(matches_reference(&stats, reference));
            campaign_metrics(&mut v, &stats, &backend, groups);
            let st = crate::spans::self_times(&spans.snapshot(), 0, u64::MAX);
            let open = st.get("store.open").map_or(0.0, |e| e.0);
            let scan = st.get("store.scan").map_or(0.0, |e| e.0);
            v.insert("store.decode_s".into(), (open - scan).max(0.0));
            v.insert("store.bytes_read".into(), bytes as f64);
            v.insert("store.entries_loaded".into(), loaded as f64);
            v.insert(
                "store.disk_mb".into(),
                crate::dir_bytes(dir) as f64 / 1048576.0,
            );
            window_metrics(&mut v, &spans, from, to);
        }
        Workload::Served => {
            let from = spans.now_ns();
            let result = spawn_served(cfg.first_seed, 1, work, "traced", true);
            let ok = result.as_ref().is_some_and(|(r, _)| reference.matches(r));
            tally.record(ok);
            if let Some((r, lines)) = result {
                served_metrics(&mut v, &spans, &r, &lines, from);
                write_metrics_payload(&lines);
                // The host's own clock runs from SUBMIT; use it for the wall.
                // `core.other_s` stays absent: the timeline spans run back to
                // back up to the report, so no uncovered time is visible.
                v.insert("trace.wall_s".into(), num(&r, "wall_s"));
            }
        }
    }
    let wall = v.get("trace.wall_s").copied().unwrap_or(0.0);
    if untraced_wall > 0.0 && wall > 0.0 {
        v.insert("trace.overhead_frac".into(), wall / untraced_wall - 1.0);
    }
    let path = trace_path(workload, "jsonl");
    if let Err(e) = spans.write_jsonl(&path) {
        eprintln!("[ubbench] could not write {}: {e}", path.display());
    } else {
        eprintln!("[ubbench] spans written to {}", path.display());
    }
    per_layer()
        .into_iter()
        .map(|(name, unit)| {
            let value = v.get(&name).copied().unwrap_or(0.0);
            (name, value, unit.to_string())
        })
        .collect()
}

/// Layer self times of the traced campaign window `[from, to)`, its wall
/// time, and the part of it no span covers.
fn window_metrics(v: &mut BTreeMap<String, f64>, spans: &Spans, from: u64, to: u64) {
    let snapshot = spans.snapshot();
    let st = crate::spans::self_times(&snapshot, from, to);
    for (metric, span) in [
        ("backend.compile_s", "backend.compile"),
        ("backend.fingerprint_s", "backend.fingerprint"),
        ("simvm.run_s", "simvm.run"),
        ("simvm.trace_s", "simvm.trace"),
        ("oracle.judge_s", "oracle.judge"),
        ("store.open_s", "store.open"),
        ("trace.verify_s", "trace.verify"),
    ] {
        v.insert(metric.into(), st.get(span).map_or(0.0, |e| e.0));
    }
    v.insert("trace.wall_s".into(), (to - from) as f64 / 1e9);
    v.insert(
        "core.other_s".into(),
        crate::spans::uncovered_s(&snapshot, from, to),
    );
}

fn trace_path(workload: Workload, ext: &str) -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("work")
        .join(format!("trace-{}.{ext}", workload.name()))
}

fn matches_reference(stats: &CampaignStats, reference: &Reference) -> bool {
    let ok =
        digest(&report_text(stats)) == reference.report && bugs_digest(stats) == reference.bugs;
    if !ok {
        eprintln!("[ubbench] traced report differs from the reference");
    }
    ok
}

fn campaign_metrics(
    v: &mut BTreeMap<String, f64>,
    stats: &CampaignStats,
    backend: &TracedBackend,
    groups: u64,
) {
    let c = stats.cache;
    let mut put = |k: &str, x: f64| {
        v.insert(k.to_string(), x);
    };
    put("session.prefix_hits", c.hits as f64);
    put("session.prefix_misses", c.misses as f64);
    put("session.san_hits", c.san_hits as f64);
    put("session.san_misses", c.san_misses as f64);
    put("session.prefix_reuse", c.reuse_ratio());
    // Every prefix miss is one `lower_stage` + `early_opt_stage` call.
    put("simcc.lower_calls", c.misses as f64);
    let programs: usize = stats.ub_programs.values().sum();
    if programs > 0 {
        put(
            "simcc.lowers_per_program",
            c.misses as f64 / programs as f64,
        );
    }
    put(
        "backend.compile_calls",
        backend.compiles.load(Ordering::Relaxed) as f64,
    );
    put("simvm.runs", backend.runs.load(Ordering::Relaxed) as f64);
    put(
        "simvm.reports",
        backend.reports.load(Ordering::Relaxed) as f64,
    );
    put(
        "simvm.traces",
        backend.traces.load(Ordering::Relaxed) as f64,
    );
    put("oracle.groups", groups as f64);
    put("oracle.discrepancies", stats.discrepancies as f64);
    put("oracle.selected", stats.selected as f64);
    if stats.discrepancies > 0 {
        put(
            "oracle.select_ratio",
            stats.selected as f64 / stats.discrepancies as f64,
        );
    }
}

fn replay_metrics(v: &mut BTreeMap<String, f64>, r: &replay::Replay, spans: &Spans, from: u64) {
    let st = crate::spans::self_times(&spans.snapshot(), from, u64::MAX);
    let secs = |span: &str| st.get(span).map_or(0.0, |e| e.0);
    let mut put = |k: &str, x: f64| {
        v.insert(k.to_string(), x);
    };
    put("seedgen.generate_s", secs("seedgen.generate"));
    put("seedgen.seeds", r.seeds as f64);
    put("ubgen.generate_s", secs("ubgen.generate"));
    put("ubgen.programs", r.programs as f64);
    put("simcc.lower_s", secs("simcc.lower"));
    put("simcc.early_opt_s", secs("simcc.early_opt"));
    put("simcc.early_opt_instrs_in", r.instrs_in as f64);
    put("simcc.early_opt_instrs_out", r.instrs_out as f64);
    put("simcc.sanitize_s", secs("simcc.sanitize"));
    put("simcc.checks_inserted", r.checks_inserted as f64);
    put("simcc.late_opt_s", secs("simcc.late_opt"));
    put("store.encode_s", secs("store.encode"));
    put("store.decode_s", secs("store.decode"));
    put("store.module_bytes", r.module_bytes as f64);
    // Per-pass figures only when the copied schedule reproduced the stage;
    // otherwise they stay 0 and `replay_identical` says why.
    put(
        "simcc.pass.replay_identical",
        if r.passes_identical { 1.0 } else { 0.0 },
    );
    if r.passes_identical {
        for p in PASSES {
            put(&format!("simcc.pass.{p}_s"), secs(replay::pass_span(p)));
            put(
                &format!("simcc.pass.{p}_calls"),
                r.pass_calls.get(p).copied().unwrap_or(0) as f64,
            );
        }
    } else {
        eprintln!(
            "[ubbench] pass-by-pass replay differs from early_opt_stage; pass metrics absent"
        );
    }
}

/// The served campaign's `STATUS` timeline (recorded as spans from
/// `SUBMIT`) and its `METRICS` stage sums.
fn served_metrics(
    v: &mut BTreeMap<String, f64>,
    spans: &Spans,
    r: &crate::ChildResult,
    lines: &[String],
    from: u64,
) {
    if let Some(tl) = lines.iter().find_map(|l| l.strip_prefix("TIMELINE ")) {
        let f: BTreeMap<&str, f64> = tl
            .split_whitespace()
            .filter_map(|kv| kv.split_once('='))
            .filter_map(|(k, x)| Some((k, x.parse().ok()?)))
            .collect();
        let get = |k: &str| f.get(k).copied().unwrap_or(0.0);
        let mut at = from;
        for (metric, span) in [
            ("plan_s", "serve.plan"),
            ("lease_s", "serve.lease"),
            ("merge_s", "serve.merge"),
        ] {
            let d = (get(metric) * 1e9) as u64;
            spans.record(span, 0, at, at + d);
            at += d;
            v.insert(format!("serve.{metric}"), get(metric));
        }
        v.insert("serve.leases".into(), get("leases"));
        v.insert("serve.reissued".into(), get("reissued"));
    }
    for stage in SERVE_STAGES {
        let needle = format!(" stage={stage} ");
        let ns: f64 = lines
            .iter()
            .filter(|l| l.starts_with("METRICS ") && l.contains(&needle))
            .filter_map(|l| {
                l.split_whitespace()
                    .find_map(|t| t.strip_prefix("sum_ns=")?.parse::<f64>().ok())
            })
            .sum();
        v.insert(format!("serve.metrics.{stage}_s"), ns / 1e9);
    }
    // The workers' prefix misses, folded by the daemon: their lowerings.
    let lowerings: f64 = lines
        .iter()
        .filter(|l| l.starts_with("METRICS ") && l.contains(" counter=prefix_misses "))
        .filter_map(|l| {
            l.split_whitespace()
                .find_map(|t| t.strip_prefix("value=")?.parse::<f64>().ok())
        })
        .sum();
    v.insert("simcc.lower_calls".into(), lowerings);
    v.insert("store.disk_mb".into(), num(r, "store_bytes") / 1048576.0);
}

fn write_metrics_payload(lines: &[String]) {
    let payload: Vec<&str> = lines
        .iter()
        .filter_map(|l| l.strip_prefix("METRICS "))
        .collect();
    let path = trace_path(Workload::Served, "metrics.txt");
    let _ = std::fs::write(&path, payload.join("\n") + "\n");
}
