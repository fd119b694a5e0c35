//! Layered campaign benchmark for ubfuzz-rs.
//!
//! ```text
//! cargo run --release --manifest-path ubbench/Cargo.toml -- \
//!     --workload cold|warm|served --seed N --seconds S --trace 0|1
//! ```
//!
//! Each invocation runs one workload over the default campaign config
//! (UBfuzz generator, full defect registry, `full` policy, uniform strategy)
//! for the seed range `[N mod WINDOWS, N mod WINDOWS + SEEDS_PER_CAMPAIGN)`:
//!
//! * `cold`   — an in-process `ParallelCampaign` on a fresh default
//!   `SimBackend` (cache on, no store);
//! * `warm`   — the same campaign over a store populated during set-up; the
//!   timer starts before `SimBackend::with_store_capacity` opens it;
//! * `served` — one closed-loop client submitting the campaign to an
//!   in-process `run_daemon` (fresh store per campaign, one worker thread
//!   per worker process) and polling `REPORT` until it is ready.
//!
//! Every timed campaign runs in a child process of this binary, so its
//! `VmHWM` is its own. Every report (`report::table3` + `report::oracle_stats`,
//! what `REPORT` serves) and bug list is checked against the sequential,
//! uncached `run_campaign` of the same seeds, computed once per invocation
//! outside every timed region. The last stdout line is the JSON result:
//! end-to-end metrics with `--trace 0`; with `--trace 1` the per-layer
//! metrics of one more run at workers=1 (see `traced`).

mod replay;
mod spans;
mod traced;
mod workloads;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

use ubfuzz::campaign::{run_campaign, CampaignConfig, CampaignStats};
use ubfuzz::report;

/// Seeds per campaign: the 8-seed, ~4100-unit campaign the repository's
/// `campaign_smoke` bench and ROADMAP figures use.
pub const SEEDS_PER_CAMPAIGN: usize = 8;

/// Distinct campaign windows `--seed` selects from. A seed's cost varies
/// about 5× from one seed to the next, with a heavy tail, so disjoint
/// 8-seed ranges differ by far more than any bound a regression check
/// could use; even windows starting at 0..4 differ by 25% in planning time.
/// The two windows starting at 0 and 1 share 7 of their 8 seeds and cost
/// the same to plan and to run, so every `--seed` measures the same amount
/// of work while still changing the inputs at the window edges.
pub const WINDOWS: u64 = 2;

/// When the set-up trials run; `setup_s` is their median. One trial varies
/// by ±20% on a shared host, and the host's speed also drifts over tens of
/// seconds, so trials bunched together measure one moment of it. Cold and
/// served set-up take about 0.3 s, so three trials run before every timed
/// campaign, spread over the whole measured window like the campaigns
/// themselves (about 20 per run). Warm's trial is a whole store-populating
/// campaign and the first timed campaign needs its store, so warm's five
/// run up front. Returns (trials up front, trials before each campaign).
fn setup_schedule(workload: Workload, trace: bool) -> (usize, usize) {
    match (workload, trace) {
        (_, true) => (1, 0),
        (Workload::Warm, false) => (5, 0),
        (Workload::Cold | Workload::Served, false) => (0, 3),
    }
}

/// The workload's set-up trials and what they found.
struct Setup<'a> {
    workload: Workload,
    seed: u64,
    workers: usize,
    work: &'a WorkDir,
    reference: &'a Reference,
    secs: Vec<f64>,
    units: usize,
}

impl Setup<'_> {
    /// One trial: plan the campaign (its unit count is the throughput
    /// numerator), then prepare the workload's environment. The plan runs in
    /// a fresh process: planning in this one would reuse whatever heap the
    /// reference left behind, which makes its time vary by process.
    fn trial(&mut self, tally: &mut Tally) {
        let t = Instant::now();
        match workloads::spawn_plan(self.seed, &self.work.0) {
            Some(n) => self.units = n,
            None => tally.record(false),
        }
        match self.workload {
            Workload::Cold => {}
            Workload::Warm => {
                let store = self.work.fresh(WARM_STORE);
                let r = workloads::spawn_populate(self.seed, self.workers, &store, &self.work.0);
                tally.record(r.as_ref().is_some_and(|r| self.reference.matches(r)));
            }
            Workload::Served => {
                if workloads::spawn_served_ready(self.workers, self.work).is_none() {
                    eprintln!("[ubbench] daemon did not start");
                }
            }
        }
        self.secs.push(t.elapsed().as_secs_f64());
    }
}

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Cold,
    Warm,
    Served,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "cold" => Some(Workload::Cold),
            "warm" => Some(Workload::Warm),
            "served" => Some(Workload::Served),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Cold => "cold",
            Workload::Warm => "warm",
            Workload::Served => "served",
        }
    }
}

/// The campaign every workload runs: the default config over the seed
/// window `seed` selects.
pub fn campaign_config(seed: u64) -> CampaignConfig {
    CampaignConfig::builder()
        .first_seed(seed % WINDOWS)
        .seeds(SEEDS_PER_CAMPAIGN)
        .build()
}

/// Worker threads (or worker processes) per campaign: at most 2, and never
/// more than the machine's cores.
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(2)
}

/// The text `REPORT` serves for a finished campaign.
pub fn report_text(stats: &CampaignStats) -> String {
    format!("{}{}", report::table3(stats), report::oracle_stats(stats))
}

pub fn digest(text: &str) -> String {
    format!("{:016x}", ubfuzz::store::wire::fnv1a(text.as_bytes()))
}

/// Digest of the full deduplicated bug list (in-process campaigns).
pub fn bugs_digest(stats: &CampaignStats) -> String {
    digest(&format!("{:?}", stats.bugs))
}

/// The `CORPUS` lines a fresh store holds after merging `stats` once,
/// sorted — how a served campaign's bug list is compared.
pub fn corpus_digest_of_stats(stats: &CampaignStats) -> String {
    let lines: Vec<String> = stats
        .bugs
        .iter()
        .map(|b| {
            format!(
                "corpus key={} campaigns=1 duplicates={}",
                b.corpus_key(),
                b.duplicates
            )
        })
        .collect();
    corpus_digest(lines)
}

pub fn corpus_digest(mut lines: Vec<String>) -> String {
    lines.sort();
    digest(&lines.join("\n"))
}

/// `VmHWM` (peak resident set) of this process, in MB.
pub fn vm_hwm_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Total bytes of the regular files directly under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// The reference every report is checked against.
pub struct Reference {
    pub report: String,
    pub bugs: String,
    pub corpus: String,
}

impl Reference {
    fn compute(cfg: &CampaignConfig) -> Reference {
        let stats = run_campaign(cfg);
        Reference {
            report: digest(&report_text(&stats)),
            bugs: bugs_digest(&stats),
            corpus: corpus_digest_of_stats(&stats),
        }
    }

    /// Whether a child's `RESULT` matches: report digest plus the bug list
    /// (full list in-process, corpus lines when served).
    pub fn matches(&self, r: &ChildResult) -> bool {
        let bugs_ok = match (r.get("bugs"), r.get("corpus")) {
            (Some(b), _) => *b == self.bugs,
            (None, Some(c)) => *c == self.corpus,
            (None, None) => false,
        };
        r.get("report") == Some(&self.report) && bugs_ok
    }
}

/// `key=value` fields of a child's `RESULT` line.
pub type ChildResult = BTreeMap<String, String>;

pub fn num(r: &ChildResult, key: &str) -> f64 {
    r.get(key).and_then(|v| v.parse().ok()).unwrap_or(0.0)
}

/// Runs this binary with `args` (cwd `cwd`, extra environment `env`),
/// waits for it, and returns its `RESULT` fields plus every other stdout
/// line; `None` if it failed or printed no result.
pub fn run_child(
    args: &[String],
    cwd: &Path,
    env: &[(&str, &Path)],
) -> Option<(ChildResult, Vec<String>)> {
    let exe = std::env::current_exe().expect("own executable path");
    let mut cmd = Command::new(exe);
    cmd.args(args)
        .current_dir(cwd)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    for (k, v) in env {
        cmd.env(k, v);
    }
    let out = cmd.output().ok()?;
    if !out.status.success() {
        eprintln!(
            "[ubbench] child {:?} exited with {}",
            args.first(),
            out.status
        );
        return None;
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut result = None;
    let mut rest = Vec::new();
    for line in stdout.lines() {
        match line.strip_prefix("RESULT ") {
            Some(fields) => {
                result = Some(
                    fields
                        .split_whitespace()
                        .filter_map(|kv| kv.split_once('='))
                        .map(|(k, v)| (k.to_string(), v.to_string()))
                        .collect(),
                )
            }
            None => rest.push(line.to_string()),
        }
    }
    result.map(|r| (r, rest))
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// One invocation's accounting.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }
}

/// The warm workload's store, under the invocation's work directory: each
/// set-up trial repopulates it from empty.
pub const WARM_STORE: &str = "store";

/// A scratch directory for one invocation inside the benchmark's own
/// directory, removed when dropped.
pub struct WorkDir(pub PathBuf);

impl WorkDir {
    fn create(tag: &str) -> WorkDir {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("work")
            .join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create benchmark work directory");
        WorkDir(dir)
    }

    /// A fresh (emptied) subdirectory.
    pub fn fresh(&self, name: &str) -> PathBuf {
        let d = self.0.join(name);
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).expect("create benchmark scratch subdirectory");
        d
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let value = |flag: &str| -> Result<&str, String> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag}"))
    };
    let workload = Workload::parse(value("--workload")?)
        .ok_or_else(|| "unknown --workload (cold|warm|served)".to_string())?;
    let seed = value("--seed")?
        .parse()
        .map_err(|_| "bad --seed".to_string())?;
    let seconds: u64 = value("--seconds")?
        .parse()
        .map_err(|_| "bad --seconds".to_string())?;
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        _ => return Err("bad --trace (0|1)".into()),
    };
    if seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("worker") => std::process::exit(workloads::worker_entry(&argv)),
        Some("child") => std::process::exit(workloads::child_entry(&argv[1..])),
        _ => {}
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ubbench: {e}");
            eprintln!(
                "usage: ubbench --workload cold|warm|served --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    let json = run(&args);
    println!("{json}");
}

/// One invocation: reference, set-up, timed (or traced) runs, result line.
fn run(args: &Args) -> String {
    let cfg = campaign_config(args.seed);
    let workers = default_workers();
    let work = WorkDir::create(args.workload.name());
    eprintln!(
        "[ubbench] workload={} seeds={}..{} workers={workers} trace={}",
        args.workload.name(),
        cfg.first_seed,
        cfg.first_seed + SEEDS_PER_CAMPAIGN as u64,
        args.trace
    );

    let t = Instant::now();
    let reference = Reference::compute(&cfg);
    eprintln!(
        "[ubbench] reference (sequential, uncached) {:.2}s",
        t.elapsed().as_secs_f64()
    );

    let mut tally = Tally::default();
    let (up_front, per_campaign) = setup_schedule(args.workload, args.trace);
    let mut setup = Setup {
        workload: args.workload,
        seed: args.seed,
        workers,
        work: &work,
        reference: &reference,
        secs: Vec::new(),
        units: 0,
    };
    for _ in 0..up_front {
        setup.trial(&mut tally);
    }

    // Timed runs; the traced mode times workers=1 so its overhead compares
    // like with like.
    let timed_workers = if args.trace { 1 } else { workers };
    let timed = workloads::timed_loop(
        args.workload,
        args.seed,
        timed_workers,
        args.seconds,
        &work,
        &reference,
        &mut tally,
        &mut |tally| {
            for _ in 0..per_campaign {
                setup.trial(tally);
            }
        },
    );
    let units = setup.units;
    let setup_secs = setup.secs;
    eprintln!("[ubbench] setup {setup_secs:?} units={units}");
    let rate: Vec<f64> = timed.iter().map(|r| units as f64 / r.wall_s).collect();
    let rss: Vec<f64> = timed.iter().map(|r| r.rss_mb).collect();
    let walls: Vec<f64> = timed.iter().map(|r| r.wall_s).collect();
    eprintln!("[ubbench] campaign walls (s): {walls:?}");
    eprintln!(
        "[ubbench] {} timed campaigns at workers={timed_workers}: units/s median {:.1}; \
         peak RSS median {:.1} MB",
        timed.len(),
        median(&rate),
        median(&rss)
    );

    let metrics = if args.trace {
        let untraced = median(&walls);
        traced::run(args.workload, &cfg, untraced, &work, &reference, &mut tally)
    } else {
        vec![
            ("units_per_s", median(&rate), "units/s"),
            ("peak_rss_mb", median(&rss), "MB"),
            ("setup_s", median(&setup_secs), "s"),
        ]
        .into_iter()
        .map(|(n, v, u)| (n.to_string(), v, u.to_string()))
        .collect()
    };
    drop(work);
    result_json(&tally, &metrics)
}

fn result_json(tally: &Tally, metrics: &[(String, f64, String)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let v = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0 && tally.attempted > 0,
        tally.attempted,
        tally.failed,
        body.join(", ")
    )
}
