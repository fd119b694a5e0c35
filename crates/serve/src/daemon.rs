//! The campaign daemon: submissions in, leases out, merged reports back.
//!
//! One accept loop (unix-domain socket, one request per connection) and one
//! scheduler thread that runs queued campaigns strictly in submission
//! order. For each campaign the scheduler:
//!
//! 1. builds the campaign's [`CampaignPlan`] once — generation on every
//!    core, no compilation — for its fingerprint and its unit and group
//!    counts, and opens the store's primary checkpoint log so an
//!    incompatible log (and its shards) is swept before workers arrive;
//! 2. carves the `(program, sanitizer)` groups `0..groups` into contiguous
//!    leases in the store's [`LeaseTable`] ([`LeaseTable::carve`]),
//!    numbered past every lease already there so checkpoint shard files
//!    never collide;
//! 3. spawns one worker *process* per lease (`<worker-bin> worker …`,
//!    defaulting to the daemon's own binary) and polls: a clean exit
//!    completes the lease; a nonzero exit, a SIGKILL, or a blown deadline
//!    reclaims it — the range is re-issued under a fresh lease id and the
//!    replacement's shard replay skips whatever the dead worker finished.
//!    A worker that cannot be spawned is reclaimed the same way; past a
//!    re-issue cap the campaign fails instead of retrying forever;
//! 4. merges by folding: it replays the shard union's group verdicts
//!    through the canonical sequential-order fold
//!    ([`ParallelCampaign::run_planned`] over the plan from step 1, with a
//!    checkpoint over the same store), so the stored report is
//!    **bit-identical** to a single-process run. The merge reuses the plan,
//!    so it generates nothing; every group's verdict is already
//!    checkpointed, so it compiles, decodes and traces no module and runs
//!    on the config's in-memory backend, opening no store module table.
//!
//! Connections are served one at a time on the accept thread, each within
//! a request deadline and a request-length cap (`err timeout`,
//! `err too-long`), so a silent or runaway client cannot stall the rest.
//!
//! Backpressure is a bounded submission queue: `SUBMIT` beyond the cap is
//! answered `err busy`. The lease ledger is the store's [`LeaseTable`]:
//! every grant, completion, and reclaim of a granted lease rewrites
//! `leases.bin`, so a post-mortem sees who held what, and `STATUS` renders
//! the same records.
//! Completed work lives in the checkpoint shards, so a daemon restart
//! simply re-carves and replays.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use ubfuzz::campaign::{CampaignConfig, ParallelCampaign};
use ubfuzz::executor::CampaignPlan;
use ubfuzz::obs::{self, MetricsSnapshot, Stage};
use ubfuzz::store::{BugCorpus, CampaignLog, FrontierStore, LeaseRecord, LeaseTable};
use ubfuzz::{SanPolicy, Strategy};
use ubfuzz::{persist, report};

use crate::protocol::{parse_request, Request};

/// How the daemon runs. Construct with [`DaemonConfig::new`] and override
/// fields as needed.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Unix-domain socket path (created on start, removed on exit).
    pub socket: PathBuf,
    /// Store directory: checkpoint log + shards, prefix cache, corpus,
    /// lease table.
    pub store: PathBuf,
    /// Worker processes per campaign when `SUBMIT` has no `workers=`.
    pub workers: usize,
    /// Executor threads inside each worker process.
    pub worker_threads: usize,
    /// Lease time-to-live: an active worker past its deadline is killed
    /// and its range re-issued.
    pub ttl_secs: u64,
    /// Bounded submission queue; beyond this, `SUBMIT` answers
    /// `err busy`.
    pub queue_cap: usize,
    /// Worker binary (anything that forwards `worker --store … --shard …`
    /// to [`crate::worker::worker_main`], e.g. the `ubbench` benchmark
    /// binary); defaults to the daemon's own `ubfuzz-serve` executable.
    pub worker_bin: Option<PathBuf>,
    /// Test hook, forwarded to workers as `--stall-ms`: sleep before
    /// working so kill tests have a deterministic live window.
    pub worker_stall_ms: u64,
}

impl DaemonConfig {
    /// Defaults: 2 worker processes × 2 threads, 10-minute leases, queue
    /// of 8.
    pub fn new(socket: impl Into<PathBuf>, store: impl Into<PathBuf>) -> DaemonConfig {
        DaemonConfig {
            socket: socket.into(),
            store: store.into(),
            workers: 2,
            worker_threads: 2,
            ttl_secs: 600,
            queue_cap: 8,
            worker_bin: None,
            worker_stall_ms: 0,
        }
    }
}

/// A campaign's lifecycle as reported by `STATUS`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Queued,
    Running,
    Done,
    Failed,
}

impl Phase {
    fn name(self) -> &'static str {
        match self {
            Phase::Queued => "queued",
            Phase::Running => "running",
            Phase::Done => "done",
            Phase::Failed => "failed",
        }
    }
}

/// One submitted campaign.
#[derive(Debug)]
struct CampaignView {
    id: u64,
    seeds: usize,
    first_seed: u64,
    workers: usize,
    strategy: Strategy,
    san: SanPolicy,
    phase: Phase,
    fingerprint: u64,
    units: usize,
    computed: usize,
    replayed: usize,
    reissued: usize,
    /// Coverage-frontier size: the persisted point count at planning time,
    /// updated to the merged campaign's final count once done.
    frontier: usize,
    report: Option<String>,
    /// This run's leases as of the last scheduling tick (`pid=` is what a
    /// supervisor — or the CI kill leg — targets).
    leases: Vec<LeaseRecord>,
    /// Per-stage latency histograms and counters: the scheduler thread's
    /// own sink (lease lifecycle + merge) folded with every worker
    /// receipt, in lease-completion order (histogram merge is commutative,
    /// so the fold order cannot change the numbers).
    metrics: MetricsSnapshot,
}

#[derive(Debug, Default)]
struct State {
    queue: VecDeque<u64>,
    campaigns: Vec<CampaignView>,
    shutdown: bool,
    /// Unix-seconds timestamp of daemon start (`uptime_secs=` on `STATUS`).
    started_unix: u64,
    /// Lifetime lease counters across all campaigns, for the `STATUS`
    /// daemon line: issued = spawned under a lease, reclaimed = range
    /// re-issued after death/expiry, units_merged = units folded into
    /// finished reports.
    leases_issued: u64,
    leases_reclaimed: u64,
    units_merged: u64,
}

type Shared = Arc<Mutex<State>>;

/// Locks the daemon state, recovering from a poisoned lock — one panicked
/// connection handler must not wedge the scheduler (same contract as the
/// store's `relock`).
fn relock(shared: &Shared) -> std::sync::MutexGuard<'_, State> {
    shared.lock().unwrap_or_else(|e| e.into_inner())
}

fn unix_now() -> u64 {
    SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_secs()).unwrap_or(0)
}

/// Runs the daemon until a `SHUTDOWN` request: binds the socket, serves
/// requests, and drives queued campaigns on a scheduler thread. Removes
/// the socket file on exit. `Err` only for a failed bind — a running
/// daemon degrades per-connection, it does not exit on request errors.
pub fn run_daemon(config: DaemonConfig) -> std::io::Result<()> {
    // A stale socket file from a SIGKILLed daemon would fail the bind.
    let _ = std::fs::remove_file(&config.socket);
    if let Some(dir) = config.socket.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    let listener = UnixListener::bind(&config.socket)?;
    let config = Arc::new(config);
    let shared: Shared = Arc::new(Mutex::new(State::default()));
    relock(&shared).started_unix = unix_now();

    let scheduler = {
        let config = Arc::clone(&config);
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || scheduler_loop(&config, &shared))
    };

    for stream in listener.incoming() {
        let Ok(stream) = stream else { continue };
        if handle_connection(stream, &config, &shared) {
            break;
        }
    }

    let _ = scheduler.join();
    let _ = std::fs::remove_file(&config.socket);
    Ok(())
}

/// How long a connection may take to deliver its request line. The accept
/// thread serves connections one at a time, so this bounds how long a
/// silent client can hold up everyone else.
const REQUEST_DEADLINE: Duration = Duration::from_secs(2);

/// The longest request line the daemon reads, newline included; every
/// verb fits in a few dozen bytes.
const MAX_REQUEST: u64 = 4096;

/// A connection's read side that fails with `TimedOut` once `until` has
/// passed, however the client spaces its bytes (a per-read timeout alone
/// would let a client dripping one byte at a time hold the accept thread
/// for up to [`MAX_REQUEST`] timeouts).
struct Deadline<'a> {
    stream: &'a UnixStream,
    until: Instant,
}

impl Read for Deadline<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let left = self.until.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(std::io::ErrorKind::TimedOut.into());
        }
        self.stream.set_read_timeout(Some(left))?;
        let mut stream = self.stream;
        stream.read(buf)
    }
}

/// Reads one request line within [`REQUEST_DEADLINE`] and [`MAX_REQUEST`];
/// `Err` carries the reason for the `err …` answer.
fn read_request(stream: &UnixStream) -> Result<String, &'static str> {
    let deadline = Deadline { stream, until: Instant::now() + REQUEST_DEADLINE };
    let mut line = String::new();
    match BufReader::new(deadline.take(MAX_REQUEST)).read_line(&mut line) {
        Err(e)
            if matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ) =>
        {
            Err("timeout")
        }
        Err(_) => Err("bad-request"),
        Ok(n) if n as u64 == MAX_REQUEST && !line.ends_with('\n') => Err("too-long"),
        Ok(_) => Ok(line),
    }
}

/// Serves one connection; `true` when the request was `SHUTDOWN`.
fn handle_connection(mut stream: UnixStream, config: &DaemonConfig, shared: &Shared) -> bool {
    let _ = stream.set_write_timeout(Some(REQUEST_DEADLINE));
    let line = match read_request(&stream) {
        Ok(line) => line,
        Err(reason) => {
            let _ = stream.write_all(format!("err {reason}\n").as_bytes());
            return false;
        }
    };
    let response = match parse_request(line.trim()) {
        Err(reason) => format!("err {reason}\n"),
        Ok(Request::Submit { seeds, first_seed, workers, strategy, san }) => {
            let mut st = relock(shared);
            if st.shutdown {
                "err shutting down\n".into()
            } else if st.queue.len() >= config.queue_cap {
                "err busy\n".into()
            } else {
                let id = st.campaigns.len() as u64 + 1;
                st.campaigns.push(CampaignView {
                    id,
                    seeds,
                    first_seed,
                    workers: workers.unwrap_or(config.workers).max(1),
                    strategy,
                    san,
                    phase: Phase::Queued,
                    fingerprint: 0,
                    units: 0,
                    computed: 0,
                    replayed: 0,
                    reissued: 0,
                    frontier: 0,
                    report: None,
                    leases: Vec::new(),
                    metrics: MetricsSnapshot::default(),
                });
                st.queue.push_back(id);
                format!("ok id={id}\n")
            }
        }
        Ok(Request::Status) => render_status(&relock(shared)),
        Ok(Request::Metrics) => render_metrics(&relock(shared)),
        Ok(Request::Report { id }) => {
            let st = relock(shared);
            match st.campaigns.iter().find(|c| c.id == id) {
                None => format!("err unknown campaign {id}\n"),
                Some(c) => match &c.report {
                    Some(text) => format!("ok\n{text}"),
                    None => format!("err campaign {id} is {}\n", c.phase.name()),
                },
            }
        }
        Ok(Request::Corpus) => {
            let corpus = BugCorpus::open(&config.store);
            let mut out = String::from("ok\n");
            for (key, entry) in corpus.entries() {
                out.push_str(&format!(
                    "corpus key={key} campaigns={} duplicates={}\n",
                    entry.campaigns, entry.total_duplicates
                ));
            }
            out
        }
        Ok(Request::Shutdown) => {
            relock(shared).shutdown = true;
            "ok\n".into()
        }
    };
    let _ = stream.write_all(response.as_bytes());
    let _ = stream.flush();
    line.trim().starts_with("SHUTDOWN")
}

/// The machine-readable `STATUS` payload.
fn render_status(st: &State) -> String {
    let mut out = String::from("ok\n");
    out.push_str(&format!(
        "daemon pid={} queue={} campaigns={} uptime_secs={} leases_issued={} \
         leases_reclaimed={} units_merged={}\n",
        std::process::id(),
        st.queue.len(),
        st.campaigns.len(),
        unix_now().saturating_sub(st.started_unix),
        st.leases_issued,
        st.leases_reclaimed,
        st.units_merged
    ));
    for c in &st.campaigns {
        out.push_str(&format!(
            "campaign id={} state={} seeds={} first_seed={} workers={} units={} \
             computed={} replayed={} reissued={} strategy={} san={} frontier={}\n",
            c.id,
            c.phase.name(),
            c.seeds,
            c.first_seed,
            c.workers,
            c.units,
            c.computed,
            c.replayed,
            c.reissued,
            c.strategy,
            c.san,
            c.frontier
        ));
        for l in &c.leases {
            out.push_str(&format!(
                "lease id={} campaign={} start={} end={} pid={} state={}\n",
                l.id,
                c.id,
                l.start,
                l.end,
                l.pid,
                l.state.name()
            ));
        }
    }
    out
}

/// The machine-readable `METRICS` payload: one header line per campaign
/// (frontier growth across the run), then one line per stage with
/// bucket-resolution quantiles, then one line per counter (cache reuse,
/// store telemetry). Stages and counters render in canonical order, so
/// two daemons that folded the same samples answer byte-identically.
fn render_metrics(st: &State) -> String {
    let mut out = String::from("ok\n");
    for c in &st.campaigns {
        out.push_str(&format!(
            "metrics campaign={} state={} units={} frontier={}\n",
            c.id,
            c.phase.name(),
            c.units,
            c.frontier
        ));
        for (stage, h) in &c.metrics.stages {
            out.push_str(&format!(
                "metrics campaign={} stage={} count={} p50_ns={} p95_ns={} max_ns={} sum_ns={}\n",
                c.id,
                stage.name(),
                h.count,
                h.p50(),
                h.p95(),
                h.max_ns,
                h.sum_ns
            ));
        }
        for (name, value) in &c.metrics.counters {
            out.push_str(&format!("metrics campaign={} counter={name} value={value}\n", c.id));
        }
    }
    out
}

/// Pops and runs queued campaigns in submission order until shutdown.
fn scheduler_loop(config: &DaemonConfig, shared: &Shared) {
    loop {
        let next = {
            let mut st = relock(shared);
            if st.shutdown {
                return;
            }
            st.queue.pop_front()
        };
        match next {
            Some(id) => run_campaign_job(config, shared, id),
            None => std::thread::sleep(Duration::from_millis(20)),
        }
    }
}

/// A worker process bound to a lease.
struct Worker {
    lease_id: u64,
    child: Child,
}

/// Reclaims `w`'s lease: kills and reaps the process (a no-op for one that
/// already exited) and marks the lease reclaimed, re-issuing its range
/// under a fresh id.
fn reclaim(w: &mut Worker, table: &mut LeaseTable, shared: &Shared) {
    let _reclaim = obs::Span::enter(Stage::LeaseReclaim, w.lease_id);
    let _ = w.child.kill();
    let _ = w.child.wait();
    table.reclaim(w.lease_id);
    relock(shared).leases_reclaimed += 1;
}

/// Runs one campaign end to end: carve, spawn, reclaim, merge.
fn run_campaign_job(config: &DaemonConfig, shared: &Shared, id: u64) {
    // The scheduler thread's own sink: lease lifecycle spans, store opens
    // and the merge replay land here; per-stage compile/run samples arrive
    // via worker receipts and are folded in as leases complete.
    let sink = Arc::new(obs::MetricsSink::new());
    let _obs = obs::attach(sink.clone());
    let mut worker_metrics = MetricsSnapshot::default();
    let (seeds, first_seed, workers, strategy, san) = {
        let mut st = relock(shared);
        let c = campaign_mut(&mut st, id);
        c.phase = Phase::Running;
        (c.seeds, c.first_seed, c.workers, c.strategy, c.san)
    };
    // One config for the plan and the merge, so both resolve the same
    // backend (program fingerprints agree). Its recorder is the sink:
    // planning generates on executor threads, which attach it per task.
    let cfg = CampaignConfig::builder()
        .seeds(seeds)
        .first_seed(first_seed)
        .strategy(strategy)
        .san_policy(san)
        .recorder(sink.clone())
        .build();
    // The plan depends on the store for guided campaigns: daemon and
    // workers all derive guidance from the persisted frontier, which is
    // only rewritten at merge completion — so every participant of *this*
    // campaign sees the same snapshot and computes the same fingerprint.
    let frontier0 = FrontierStore::open(&config.store).len();
    let plan = CampaignPlan::new(&cfg, Some(&config.store));
    let (fingerprint, units, groups) = (plan.fingerprint(), plan.units(), plan.groups());

    // Opening the primary log writes/validates the campaign header and
    // sweeps shards of an incompatible prior campaign, so workers never
    // scan foreign data. Dropped before the merge reopens it.
    drop(CampaignLog::open(&config.store, fingerprint, groups));
    let mut table = LeaseTable::open(&config.store);
    table.retain_campaign(fingerprint);
    table.carve(fingerprint, groups, workers, config.ttl_secs);

    {
        let mut st = relock(shared);
        let c = campaign_mut(&mut st, id);
        c.fingerprint = fingerprint;
        c.units = units;
        c.frontier = frontier0;
    }

    // A worker that fails deterministically (bad binary, broken store
    // mount) would otherwise reclaim forever; past this many re-issues the
    // campaign fails instead.
    let reissue_cap = 8 * workers as u64;
    let mut active: Vec<Worker> = Vec::new();
    let mut computed = 0usize;
    let mut replayed = 0usize;
    let mut reissued = 0u64;

    let failed = loop {
        if relock(shared).shutdown || reissued > reissue_cap {
            for w in &mut active {
                reclaim(w, &mut table, shared);
            }
            table.cancel_pending();
            break true;
        }

        // Keep `workers` processes in flight while leases are pending. A
        // spawn failure re-issues the lease and counts against the cap
        // right here, so a worker binary that never starts fails the
        // campaign instead of spinning this loop.
        while active.len() < workers && reissued <= reissue_cap {
            let Some(lease) = table.next_pending().cloned() else { break };
            let _issue = obs::Span::enter(Stage::LeaseIssue, lease.id);
            let now = unix_now();
            match spawn_worker(config, seeds, first_seed, strategy, san, &lease) {
                Ok(child) => {
                    table.claim(lease.id, child.id() as u64, now);
                    active.push(Worker { lease_id: lease.id, child });
                    relock(shared).leases_issued += 1;
                }
                Err(e) => {
                    eprintln!("[serve] campaign {id}: worker spawn failed: {e}");
                    table.reclaim(lease.id);
                    reissued += 1;
                    relock(shared).leases_reclaimed += 1;
                }
            }
        }

        if active.is_empty() && table.all_done() {
            break false;
        }

        std::thread::sleep(Duration::from_millis(20));
        let now = unix_now();
        let expired = table.expired(now);
        // One heartbeat span per liveness sweep over live workers: its
        // histogram is how long the daemon spends probing children, its
        // count is the number of scheduling ticks the campaign took.
        let _heartbeat = (!active.is_empty()).then(|| obs::Span::enter(Stage::LeaseHeartbeat, 0));
        let mut i = 0;
        while i < active.len() {
            let lease_id = active[i].lease_id;
            let child = &mut active[i].child;
            let exited = match child.try_wait() {
                Ok(status) => status,
                // The handle is unusable; treat as a dead worker.
                Err(_) => {
                    let _ = child.kill();
                    child.wait().ok()
                }
            };
            match exited {
                Some(status) if status.success() => {
                    if let Some(mut out) = child.stdout.take() {
                        let mut receipt = String::new();
                        let _ = out.read_to_string(&mut receipt);
                        let (c, r) = parse_receipt(&receipt);
                        computed += c;
                        replayed += r;
                        worker_metrics.merge(&parse_receipt_metrics(&receipt));
                    }
                    table.complete(lease_id);
                    active.swap_remove(i);
                }
                // Nonzero exit or signal death (SIGKILL lands here), or an
                // overrun deadline: re-issue the range under a fresh lease id.
                _ if exited.is_some() || expired.contains(&lease_id) => {
                    reclaim(&mut active.swap_remove(i), &mut table, shared);
                    reissued += 1;
                }
                _ => i += 1,
            }
        }

        publish_leases(shared, id, &table, computed, replayed, reissued);
    };

    publish_leases(shared, id, &table, computed, replayed, reissued);
    if failed {
        let mut st = relock(shared);
        let c = campaign_mut(&mut st, id);
        c.phase = Phase::Failed;
        // Publish whatever was sampled before the failure — a reclaim
        // storm's latency profile is exactly what METRICS is for.
        c.metrics = sink.snapshot();
        c.metrics.merge(&worker_metrics);
        return;
    }

    // Merge: fold the shard union's verdicts in canonical order over the
    // plan built above. Every group is checkpointed, so this compiles
    // nothing and needs no store-backed backend (a record that fails to
    // replay is rejudged in memory, to the same verdict), and the rendered
    // report is bit-identical to a single-process run.
    let stats = {
        let _merge = obs::Span::enter(Stage::Merge, 0);
        ParallelCampaign::new(cfg).with_checkpoint(&config.store).run_planned(&plan)
    };
    let mut corpus = BugCorpus::open(&config.store);
    let merge = persist::merge_bugs(&mut corpus, &stats);
    eprintln!(
        "[serve] campaign {id}: merged, corpus total={} new={} known={}",
        corpus.len(),
        merge.new,
        merge.known
    );
    let text = format!("{}{}", report::table3(&stats), report::oracle_stats(&stats));

    let mut st = relock(shared);
    st.units_merged += units as u64;
    let c = campaign_mut(&mut st, id);
    c.phase = Phase::Done;
    c.frontier = stats.frontier_points;
    c.report = Some(text);
    c.metrics = sink.snapshot();
    c.metrics.merge(&worker_metrics);
}

fn campaign_mut(st: &mut State, id: u64) -> &mut CampaignView {
    st.campaigns
        .iter_mut()
        .find(|c| c.id == id)
        .expect("scheduler jobs reference submitted campaigns")
}

/// Publishes this run's leases and counters to the `STATUS` snapshot.
fn publish_leases(
    shared: &Shared,
    id: u64,
    table: &LeaseTable,
    computed: usize,
    replayed: usize,
    reissued: u64,
) {
    let leases = table.run().cloned().collect();
    let mut st = relock(shared);
    let c = campaign_mut(&mut st, id);
    c.leases = leases;
    c.computed = computed;
    c.replayed = replayed;
    c.reissued = reissued as usize;
}

/// One field=value receipt line (`computed=N replayed=N`) from a worker's
/// stdout; unparsable receipts count as zeros rather than failing the
/// lease — the checkpoint shard, not the receipt, is the work.
fn parse_receipt(receipt: &str) -> (usize, usize) {
    let field = |key: &str| -> usize {
        receipt
            .split_whitespace()
            .find_map(|t| t.strip_prefix(key).and_then(|v| v.strip_prefix('=')))
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(0)
    };
    (field("computed"), field("replayed"))
}

/// Folds a receipt's `metric …` lines into one snapshot; lines that parse
/// as neither histogram nor counter are skipped with the same tolerance as
/// [`parse_receipt`] — the checkpoint shard, not the telemetry, is the
/// work.
fn parse_receipt_metrics(receipt: &str) -> MetricsSnapshot {
    let mut snap = MetricsSnapshot::default();
    for line in receipt.lines() {
        if let Some((stage, h)) = obs::parse_metric_line(line) {
            snap.stages.entry(stage).or_default().merge(&h);
        } else if let Some((name, value)) = obs::parse_counter_line(line) {
            *snap.counters.entry(name).or_insert(0) += value;
        }
    }
    snap
}

fn spawn_worker(
    config: &DaemonConfig,
    seeds: usize,
    first_seed: u64,
    strategy: Strategy,
    san: SanPolicy,
    lease: &LeaseRecord,
) -> std::io::Result<Child> {
    let bin = match &config.worker_bin {
        Some(bin) => bin.clone(),
        None => std::env::current_exe()?,
    };
    let mut cmd = Command::new(bin);
    cmd.arg("worker")
        .arg("--store")
        .arg(&config.store)
        .arg("--seeds")
        .arg(seeds.to_string())
        .arg("--first-seed")
        .arg(first_seed.to_string())
        .arg("--strategy")
        .arg(strategy.name())
        .arg("--san")
        .arg(san.to_string())
        .arg("--shard")
        .arg(lease.id.to_string())
        .arg("--start")
        .arg(lease.start.to_string())
        .arg("--end")
        .arg(lease.end.to_string())
        .arg("--threads")
        .arg(config.worker_threads.to_string())
        .stdin(Stdio::null())
        .stdout(Stdio::piped());
    if config.worker_stall_ms > 0 {
        cmd.arg("--stall-ms").arg(config.worker_stall_ms.to_string());
    }
    cmd.spawn()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn receipts_parse_defensively() {
        assert_eq!(parse_receipt("computed=12 replayed=3\n"), (12, 3));
        assert_eq!(parse_receipt(""), (0, 0));
        assert_eq!(parse_receipt("garbage computed=x"), (0, 0));
    }

    #[test]
    fn status_renders_every_layer() {
        let mut st = State::default();
        st.campaigns.push(CampaignView {
            id: 1,
            seeds: 4,
            first_seed: 0,
            workers: 2,
            strategy: Strategy::Guided,
            san: SanPolicy::Partial { ratio_pm: 500, salt: 3 },
            phase: Phase::Running,
            fingerprint: 7,
            units: 10,
            computed: 3,
            replayed: 0,
            reissued: 1,
            frontier: 12,
            report: None,
            leases: vec![LeaseRecord {
                id: 2,
                campaign_fp: 7,
                start: 0,
                end: 5,
                pid: 42,
                granted: 0,
                ttl_secs: 600,
                state: ubfuzz::store::LeaseState::Active,
            }],
            metrics: MetricsSnapshot::default(),
        });
        let s = render_status(&st);
        assert!(s.starts_with("ok\n"), "{s}");
        assert!(s.contains(" uptime_secs="), "{s}");
        assert!(s.contains(" leases_issued=0 leases_reclaimed=0 units_merged=0"), "{s}");
        assert!(s.contains("campaign id=1 state=running seeds=4"), "{s}");
        assert!(s.contains("strategy=guided san=partial:500:3 frontier=12"), "{s}");
        assert!(s.contains("lease id=2 campaign=1 start=0 end=5 pid=42 state=active"), "{s}");
    }

    #[test]
    fn receipt_metric_lines_fold_into_a_snapshot() {
        let mut h = ubfuzz::obs::Histogram::new();
        h.record(1_000);
        h.record(3_000);
        let receipt = format!(
            "computed=2 replayed=0\nmetric stage=run {}\nmetric counter=prefix_hits value=5\nnoise\n",
            h.encode()
        );
        assert_eq!(parse_receipt(&receipt), (2, 0));
        let snap = parse_receipt_metrics(&receipt);
        assert_eq!(snap.stages.get(&Stage::Run), Some(&h));
        assert_eq!(snap.counter("prefix_hits"), 5);
    }

    #[test]
    fn metrics_renders_quantiles_per_campaign_stage() {
        let mut st = State::default();
        let mut metrics = MetricsSnapshot::default();
        let mut h = ubfuzz::obs::Histogram::new();
        for nanos in [100, 200, 400, 90_000] {
            h.record(nanos);
        }
        metrics.stages.insert(Stage::Run, h.clone());
        metrics.counters.insert("prefix_hits".into(), 7);
        st.campaigns.push(CampaignView {
            id: 3,
            seeds: 4,
            first_seed: 0,
            workers: 2,
            strategy: Strategy::Uniform,
            san: SanPolicy::Full,
            phase: Phase::Done,
            fingerprint: 7,
            units: 10,
            computed: 10,
            replayed: 0,
            reissued: 0,
            frontier: 9,
            report: None,
            leases: Vec::new(),
            metrics,
        });
        let s = render_metrics(&st);
        assert!(s.starts_with("ok\n"), "{s}");
        assert!(s.contains("metrics campaign=3 state=done units=10 frontier=9\n"), "{s}");
        let line = format!(
            "metrics campaign=3 stage=run count=4 p50_ns={} p95_ns={} max_ns={} sum_ns={}\n",
            h.p50(),
            h.p95(),
            h.max_ns,
            h.sum_ns
        );
        assert!(s.contains(&line), "{s}");
        assert!(h.p95() >= h.p50(), "quantiles are monotone");
        assert!(s.contains("metrics campaign=3 counter=prefix_hits value=7\n"), "{s}");
    }
}
