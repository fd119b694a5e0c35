//! Child-process entry points (one timed campaign per process, so each
//! `VmHWM` is that campaign's own) and the timed loop that drives them.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ubfuzz::backend::SimBackend;
use ubfuzz::campaign::ParallelCampaign;
use ubfuzz::executor::plan_campaign;
use ubfuzz::{SanPolicy, Strategy};
use ubfuzz_serve::{client, run_daemon, DaemonConfig};

use crate::{
    bugs_digest, campaign_config, corpus_digest, digest, dir_bytes, num, report_text, run_child,
    vm_hwm_mb, ChildResult, Reference, Tally, WorkDir, Workload, WARM_STORE,
};

/// Environment variable naming the directory where daemon worker processes
/// leave their peak RSS.
const RSS_DIR_ENV: &str = "UBBENCH_RSS_DIR";

/// Socket path of a served campaign's daemon, relative to the host's
/// working directory (keeps it short of the unix socket path limit).
const SOCKET: &str = "serve.sock";

/// A served campaign that has not reported by then has failed (a normal
/// one takes seconds; this keeps a stuck one inside the run's time limit).
const SERVED_DEADLINE: Duration = Duration::from_secs(60);

/// One timed campaign that matched the reference.
pub struct Timed {
    pub wall_s: f64,
    pub rss_mb: f64,
}

/// `worker …`: the daemon's worker processes. Runs the library's worker
/// entry, then leaves this process's peak RSS where the host can read it.
pub fn worker_entry(argv: &[String]) -> i32 {
    let code = ubfuzz_serve::worker::worker_main(argv);
    if let Some(dir) = std::env::var_os(RSS_DIR_ENV) {
        let path = PathBuf::from(dir).join(format!("worker-{}", std::process::id()));
        let _ = std::fs::write(path, format!("{}", vm_hwm_mb()));
    }
    code
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    ubfuzz_serve::flag_value(args, name)
}

/// `child MODE --seed N --workers W [--store DIR] [--timeline]`.
pub fn child_entry(args: &[String]) -> i32 {
    let mode = args.first().map(String::as_str).unwrap_or("");
    let (Some(seed), Some(workers)) = (
        flag(args, "--seed").and_then(|v| v.parse::<u64>().ok()),
        flag(args, "--workers").and_then(|v| v.parse::<usize>().ok()),
    ) else {
        eprintln!("ubbench child: --seed and --workers are required");
        return 2;
    };
    let store = flag(args, "--store").map(PathBuf::from);
    match (mode, store) {
        ("plan", _) => plan_child(seed),
        ("cold", _) => cold_child(seed, workers),
        ("store", Some(store)) => store_child(seed, workers, &store),
        ("served", Some(store)) => served_child(
            seed,
            workers,
            &store,
            args.iter().any(|a| a == "--timeline"),
        ),
        ("served-ready", _) => served_ready_child(workers),
        _ => {
            eprintln!("ubbench child: unknown mode {mode:?} (or missing --store)");
            2
        }
    }
}

/// Set-up trial: plans the campaign and prints its unit count.
fn plan_child(seed: u64) -> i32 {
    let units = plan_campaign(&campaign_config(seed), true, None).1;
    println!("RESULT units={units}");
    0
}

fn cold_child(seed: u64, workers: usize) -> i32 {
    let cfg = campaign_config(seed);
    let t = Instant::now();
    let stats = ParallelCampaign::new(cfg).with_shards(workers).run();
    let wall = t.elapsed().as_secs_f64();
    println!(
        "RESULT wall_s={wall} units={} rss_mb={} report={} bugs={}",
        stats.units,
        vm_hwm_mb(),
        digest(&report_text(&stats)),
        bugs_digest(&stats)
    );
    0
}

/// The campaign over a store-backed backend. Over an empty store this is
/// the warm workload's set-up (it populates the store); over a populated
/// one it is the warm workload itself. The timer covers the store open.
fn store_child(seed: u64, workers: usize, store: &Path) -> i32 {
    let cfg = campaign_config(seed);
    let t = Instant::now();
    let backend = SimBackend::with_store_capacity(store, cfg.prefix_key_bound());
    let stats = ParallelCampaign::new(cfg)
        .with_shards(workers)
        .with_backend(Arc::new(backend))
        .run();
    let wall = t.elapsed().as_secs_f64();
    println!(
        "RESULT wall_s={wall} units={} rss_mb={} report={} bugs={} store_bytes={}",
        stats.units,
        vm_hwm_mb(),
        digest(&report_text(&stats)),
        bugs_digest(&stats),
        dir_bytes(store)
    );
    0
}

/// A daemon on a background thread of this process, with this binary as
/// its worker executable and one thread per worker process.
struct Daemon {
    thread: Option<std::thread::JoinHandle<std::io::Result<()>>>,
    socket: PathBuf,
}

impl Daemon {
    fn start(store: &Path, workers: usize) -> std::io::Result<Daemon> {
        let socket = PathBuf::from(SOCKET);
        let mut config = DaemonConfig::new(&socket, store);
        config.workers = workers;
        config.worker_threads = 1;
        config.worker_bin = Some(std::env::current_exe()?);
        let thread = std::thread::spawn(move || run_daemon(config));
        let daemon = Daemon {
            thread: Some(thread),
            socket,
        };
        let deadline = Instant::now() + Duration::from_secs(10);
        while client::status(&daemon.socket).is_err() {
            if Instant::now() > deadline {
                return Err(std::io::Error::other("daemon did not come up"));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok(daemon)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = client::shutdown(&self.socket);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// Set-up trial of the served workload: start a daemon until it answers
/// `STATUS`, then shut it down.
fn served_ready_child(workers: usize) -> i32 {
    let store = PathBuf::from("store");
    match Daemon::start(&store, workers) {
        Ok(_daemon) => {
            println!("RESULT ready=1");
            0
        }
        Err(e) => {
            eprintln!("ubbench: {e}");
            1
        }
    }
}

/// What `STATUS` polling saw of one campaign (seconds since `SUBMIT`).
#[derive(Default)]
struct Timeline {
    first_active: Option<f64>,
    all_leases_done: Option<f64>,
    done: Option<f64>,
    leases: usize,
    reissued: usize,
}

impl Timeline {
    fn observe(&mut self, status: &str, id: u64, at: f64) {
        let campaign = format!("campaign={id} ");
        let leases: Vec<&str> = status
            .lines()
            .filter(|l| l.starts_with("lease ") && l.contains(&campaign))
            .collect();
        if self.first_active.is_none()
            && leases
                .iter()
                .any(|l| l.contains("state=active") || l.contains("state=done"))
        {
            self.first_active = Some(at);
        }
        if self.all_leases_done.is_none()
            && !leases.is_empty()
            && leases.iter().all(|l| l.ends_with("state=done"))
        {
            self.all_leases_done = Some(at);
        }
        self.leases = self.leases.max(leases.len());
        let head = format!("campaign id={id} ");
        if let Some(line) = status.lines().find(|l| l.starts_with(&head)) {
            if let Some(r) = field(line, "reissued") {
                self.reissued = r;
            }
            if self.done.is_none() && line.contains(" state=done ") {
                self.done = Some(at);
            }
        }
    }
}

fn field(line: &str, key: &str) -> Option<usize> {
    line.split_whitespace()
        .find_map(|t| t.strip_prefix(key)?.strip_prefix('=')?.parse().ok())
}

/// One served campaign: `SUBMIT`, poll `REPORT` (closed loop, one client)
/// until ready. With `timeline`, `STATUS` is polled too and the campaign's
/// lease timeline and `METRICS` payload are printed.
fn served_child(seed: u64, workers: usize, store: &Path, timeline: bool) -> i32 {
    let daemon = match Daemon::start(store, workers) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("ubbench: {e}");
            return 1;
        }
    };
    let sock = daemon.socket.clone();
    let t = Instant::now();
    let cfg = campaign_config(seed);
    let id = match client::submit(
        &sock,
        cfg.seeds,
        cfg.first_seed,
        Some(workers),
        Strategy::Uniform,
        SanPolicy::Full,
    ) {
        Ok(id) => id,
        Err(e) => {
            eprintln!("ubbench: SUBMIT failed: {e}");
            return 1;
        }
    };
    let submitted = t.elapsed().as_secs_f64();
    let mut tl = Timeline::default();
    let report = loop {
        if timeline {
            if let Ok(status) = client::status(&sock) {
                tl.observe(&status, id, t.elapsed().as_secs_f64() - submitted);
            }
        }
        match client::report(&sock, id) {
            Ok(text) => break text,
            Err(e)
                if e.to_string().contains(" is queued")
                    || e.to_string().contains(" is running") => {}
            Err(e) => {
                eprintln!("ubbench: REPORT failed: {e}");
                return 1;
            }
        }
        if t.elapsed() > SERVED_DEADLINE {
            eprintln!("ubbench: served campaign did not finish in {SERVED_DEADLINE:?}");
            return 1;
        }
        std::thread::sleep(Duration::from_millis(if timeline { 2 } else { 5 }));
    };
    let wall = t.elapsed().as_secs_f64();
    let received = wall - submitted;
    let corpus: Vec<String> = client::corpus(&sock)
        .unwrap_or_default()
        .lines()
        .map(str::to_string)
        .collect();
    let status = client::status(&sock).unwrap_or_default();
    let metrics = if timeline {
        client::metrics(&sock).unwrap_or_default()
    } else {
        String::new()
    };
    drop(daemon);
    if timeline {
        tl.observe(&status, id, received);
        let all_done = tl.all_leases_done.unwrap_or(received);
        let first = tl.first_active.unwrap_or(0.0).min(all_done);
        println!(
            "TIMELINE plan_s={first} lease_s={} merge_s={} leases={} reissued={}",
            all_done - first,
            tl.done.unwrap_or(received).max(all_done) - all_done,
            tl.leases,
            tl.reissued
        );
        for line in metrics.lines() {
            println!("METRICS {line}");
        }
    }
    let rss = worker_rss().into_iter().fold(vm_hwm_mb(), f64::max);
    let units = status
        .lines()
        .find(|l| l.starts_with(&format!("campaign id={id} ")))
        .and_then(|l| field(l, "units"))
        .unwrap_or(0);
    println!(
        "RESULT wall_s={wall} units={units} rss_mb={rss} report={} corpus={} store_bytes={}",
        digest(&report),
        corpus_digest(corpus),
        dir_bytes(store)
    );
    0
}

/// Peak RSS of every worker process this host's daemon ran.
fn worker_rss() -> Vec<f64> {
    let Some(dir) = std::env::var_os(RSS_DIR_ENV) else {
        return Vec::new();
    };
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(Result::ok)
                .filter_map(|e| std::fs::read_to_string(e.path()).ok())
                .filter_map(|s| s.trim().parse().ok())
                .collect()
        })
        .unwrap_or_default()
}

fn child_args(mode: &str, seed: u64, workers: usize) -> Vec<String> {
    [
        "child",
        mode,
        "--seed",
        &seed.to_string(),
        "--workers",
        &workers.to_string(),
    ]
    .iter()
    .map(|s| s.to_string())
    .collect()
}

/// Plans the campaign in a child process; returns its unit count.
pub fn spawn_plan(seed: u64, cwd: &Path) -> Option<usize> {
    let (r, _) = run_child(&child_args("plan", seed, 1), cwd, &[])?;
    r.get("units")?.parse().ok()
}

/// The warm workload's set-up: the campaign into the empty store `store`.
pub fn spawn_populate(seed: u64, workers: usize, store: &Path, cwd: &Path) -> Option<ChildResult> {
    let mut args = child_args("store", seed, workers);
    args.extend(["--store".to_string(), store.display().to_string()]);
    run_child(&args, cwd, &[]).map(|(r, _)| r)
}

/// The served workload's set-up trial: a daemon brought up and shut down.
pub fn spawn_served_ready(workers: usize, work: &WorkDir) -> Option<ChildResult> {
    let dir = work.fresh("ready");
    let r = run_child(&child_args("served-ready", 0, workers), &dir, &[]).map(|(r, _)| r);
    let _ = std::fs::remove_dir_all(&dir);
    r
}

/// One served campaign in a fresh host process with a fresh store; returns
/// its `RESULT` and the other stdout lines (timeline, metrics).
pub fn spawn_served(
    seed: u64,
    workers: usize,
    work: &WorkDir,
    name: &str,
    timeline: bool,
) -> Option<(ChildResult, Vec<String>)> {
    let dir = work.fresh(name);
    let rss = dir.join("rss");
    let _ = std::fs::create_dir_all(&rss);
    let mut args = child_args("served", seed, workers);
    args.extend([
        "--store".to_string(),
        dir.join("store").display().to_string(),
    ]);
    if timeline {
        args.push("--timeline".into());
    }
    let r = run_child(&args, &dir, &[(RSS_DIR_ENV, &rss)]);
    let _ = std::fs::remove_dir_all(&dir);
    r
}

/// Runs the workload's campaign in child processes for `seconds` (at least
/// once), checking every report against the reference. `before_each` runs
/// ahead of every campaign, outside its timer and outside the `seconds`.
#[allow(clippy::too_many_arguments)]
pub fn timed_loop(
    workload: Workload,
    seed: u64,
    workers: usize,
    seconds: u64,
    work: &WorkDir,
    reference: &Reference,
    tally: &mut Tally,
    before_each: &mut dyn FnMut(&mut Tally),
) -> Vec<Timed> {
    let start = Instant::now();
    let mut out = Vec::new();
    let mut rep = 0;
    let mut outside = Duration::ZERO;
    while rep == 0 || ((start.elapsed() - outside).as_secs_f64() < seconds as f64 && rep < 1000) {
        rep += 1;
        let t = Instant::now();
        before_each(tally);
        outside += t.elapsed();
        let result = match workload {
            Workload::Cold => {
                run_child(&child_args("cold", seed, workers), &work.0, &[]).map(|(r, _)| r)
            }
            Workload::Warm => {
                let store = work.0.join(WARM_STORE);
                let mut args = child_args("store", seed, workers);
                args.extend(["--store".to_string(), store.display().to_string()]);
                run_child(&args, &work.0, &[]).map(|(r, _)| r)
            }
            Workload::Served => {
                spawn_served(seed, workers, work, &format!("served{rep}"), false).map(|(r, _)| r)
            }
        };
        let ok = result.as_ref().is_some_and(|r| reference.matches(r));
        tally.record(ok);
        match result {
            Some(r) if ok => out.push(Timed {
                wall_s: num(&r, "wall_s"),
                rss_mb: num(&r, "rss_mb"),
            }),
            Some(r) => eprintln!("[ubbench] report differs from the reference: {r:?}"),
            None => {}
        }
    }
    out
}
