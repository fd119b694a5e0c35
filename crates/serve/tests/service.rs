//! End-to-end tests for the campaign service.
//!
//! The daemon runs **in-process** (a thread driving `run_daemon`) while
//! workers are the real `ubfuzz-serve` binary (`CARGO_BIN_EXE_ubfuzz-serve`
//! — the daemon's `current_exe()` default would be this *test* binary,
//! which has no worker mode). Everything here is unix-only, like the
//! socket itself.
//!
//! The properties under test are the ISSUE's acceptance gates:
//!
//! * a daemon campaign over N≥2 worker processes renders a merged report
//!   **byte-identical** to a fresh single-process run;
//! * that still holds when one worker is SIGKILLed mid-campaign (its lease
//!   is reclaimed and re-issued);
//! * a second submission of the same campaign replays entirely from the
//!   checkpoint (zero units computed);
//! * submissions beyond the queue bound answer `err busy`;
//! * a worker binary that cannot be spawned fails its campaign within the
//!   re-issue cap instead of wedging the scheduler;
//! * a worker that exits 0 with no receipt, or with a garbage one, still
//!   ends in a byte-identical report (the merge judges what no shard
//!   holds), and a worker sent a seed span its seeds do not plan exits
//!   nonzero and records nothing;
//! * two worker processes hammering the same store directory concurrently
//!   — plus one killed mid-run — corrupt no table.

#![cfg(unix)]

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ubfuzz::backend::SimBackend;
use ubfuzz::campaign::{CampaignConfig, CampaignStats, ParallelCampaign};
use ubfuzz::executor::CampaignPlan;
use ubfuzz::report;
use ubfuzz::store::CampaignLog;
use ubfuzz_serve::{client, run_daemon, DaemonConfig};

const WORKER_BIN: &str = env!("CARGO_BIN_EXE_ubfuzz-serve");

/// A test's store directory and daemon socket path, both removed when the
/// test ends, whether it passes or not.
struct Scratch {
    dir: PathBuf,
    socket: PathBuf,
}

impl Scratch {
    /// A fresh store directory, and a short socket path (AF_UNIX paths are
    /// length-limited).
    fn new(tag: &str) -> Scratch {
        let pid = std::process::id();
        let dir = std::env::temp_dir().join(format!("ubfz-serve-{pid}-{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create store dir");
        Scratch { dir, socket: std::env::temp_dir().join(format!("ubfz-{pid}-{tag}.sock")) }
    }

    fn daemon_config(&self) -> DaemonConfig {
        let mut config = DaemonConfig::new(self.socket.clone(), self.dir.clone());
        config.worker_bin = Some(PathBuf::from(WORKER_BIN));
        config.worker_threads = 2;
        config
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
        let _ = std::fs::remove_file(&self.socket);
    }
}

/// What the daemon's REPORT must byte-match: the single-process rendering.
/// Every test here drives the same 3-seed campaign, so the reference run is
/// shared (tests run in one process).
fn single_process_report() -> &'static str {
    static REFERENCE: std::sync::OnceLock<String> = std::sync::OnceLock::new();
    REFERENCE.get_or_init(|| {
        let stats: CampaignStats =
            ParallelCampaign::new(CampaignConfig::builder().seeds(3).build()).run();
        format!("{}{}", report::table3(&stats), report::oracle_stats(&stats))
    })
}

fn start_daemon(config: DaemonConfig) -> (PathBuf, std::thread::JoinHandle<()>) {
    let socket = config.socket.clone();
    let handle = std::thread::spawn(move || {
        run_daemon(config).expect("daemon binds its socket");
    });
    let deadline = Instant::now() + Duration::from_secs(10);
    while !socket.exists() {
        assert!(Instant::now() < deadline, "daemon socket never appeared");
        std::thread::sleep(Duration::from_millis(10));
    }
    (socket, handle)
}

/// Polls STATUS until campaign `id` reaches a terminal state; returns the
/// final status payload.
fn await_done(socket: &Path, id: u64, timeout: Duration) -> String {
    let needle_done = format!("campaign id={id} state=done");
    let needle_failed = format!("campaign id={id} state=failed");
    let deadline = Instant::now() + timeout;
    loop {
        let status = client::status(socket).expect("status");
        if status.contains(&needle_done) {
            return status;
        }
        assert!(!status.contains(&needle_failed), "campaign {id} failed:\n{status}");
        assert!(Instant::now() < deadline, "campaign {id} never finished:\n{status}");
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// The `key=value` field of the `campaign id=N …` status line.
fn campaign_field(status: &str, id: u64, key: &str) -> String {
    let line = status
        .lines()
        .find(|l| l.starts_with(&format!("campaign id={id} ")))
        .unwrap_or_else(|| panic!("no campaign {id} in status:\n{status}"));
    line.split_whitespace()
        .find_map(|t| t.strip_prefix(key).and_then(|v| v.strip_prefix('=')))
        .unwrap_or_else(|| panic!("no {key}= in {line:?}"))
        .to_string()
}

#[test]
fn daemon_report_is_bit_identical_and_resubmission_replays() {
    let reference = single_process_report();
    let scratch = Scratch::new("e2e");
    let (socket, daemon) = start_daemon(scratch.daemon_config());

    let id = client::submit(&socket, 3, 0, Some(2), ubfuzz::Strategy::Uniform, ubfuzz::SanPolicy::Full).expect("submit");
    assert_eq!(id, 1);
    let status = await_done(&socket, id, Duration::from_secs(120));
    assert_ne!(campaign_field(&status, id, "computed"), "0", "first run computes units");
    let merged = client::report(&socket, id).expect("report");
    assert_eq!(merged, reference, "daemon merge must be byte-identical to single-process");

    // Plan once, slice per worker: the daemon generates every seed once,
    // each worker only its lease's seed span (workers are separate
    // processes), and the merge nothing.
    let spans: Vec<(u64, u64)> = status
        .lines()
        .filter(|l| l.starts_with("lease id="))
        .map(|l| {
            let seeds = l.split_whitespace().find_map(|t| t.strip_prefix("seeds="));
            let (s, e) = seeds.and_then(|v| v.split_once("..")).expect("seeds=S..E");
            (s.parse().expect("S"), e.parse().expect("E"))
        })
        .collect();
    assert!(spans.len() >= 2, "one line per lease, each with its seed span:\n{status}");
    let metrics = client::metrics(&socket).expect("metrics");
    let generated: u64 = metrics
        .lines()
        .find_map(|l| l.strip_prefix("metrics campaign=1 stage=generate count="))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
        .unwrap_or_else(|| panic!("no generate stage in metrics:\n{metrics}"));
    let spanned: u64 = spans.iter().map(|(s, e)| e - s).sum();
    assert_eq!(generated, 3 + spanned, "seeds + each lease's span:\n{metrics}\n{status}");
    let overlap = spans.len() as u64 - 1;
    assert!(generated <= 3 + 3 + overlap, "one overlap seed per lease boundary:\n{status}");

    // Same campaign again: every unit replays out of the checkpoint
    // shards, so the workers compile nothing and the report is unchanged.
    let again = client::submit(&socket, 3, 0, Some(2), ubfuzz::Strategy::Uniform, ubfuzz::SanPolicy::Full).expect("resubmit");
    assert_eq!(again, 2);
    let status = await_done(&socket, again, Duration::from_secs(120));
    assert_eq!(campaign_field(&status, again, "computed"), "0", "resubmission replays:\n{status}");
    assert_eq!(client::report(&socket, again).expect("report"), reference);

    // The corpus endpoint serves whatever the merges recorded.
    let corpus = client::corpus(&socket).expect("corpus");
    for line in corpus.lines() {
        assert!(line.starts_with("corpus key="), "unexpected corpus line {line:?}");
    }

    client::shutdown(&socket).expect("shutdown");
    daemon.join().expect("daemon thread");
    assert!(!socket.exists(), "socket file is removed on exit");
}

#[test]
fn sigkilled_worker_is_reclaimed_and_merge_still_bit_identical() {
    let reference = single_process_report();
    let scratch = Scratch::new("kill");
    let mut config = scratch.daemon_config();
    // Workers hold their lease ~1.5s before working, so there is a
    // deterministic window in which SIGKILL lands on a live worker.
    config.worker_stall_ms = 1500;
    let (socket, daemon) = start_daemon(config);

    let id = client::submit(&socket, 3, 0, Some(2), ubfuzz::Strategy::Uniform, ubfuzz::SanPolicy::Full).expect("submit");

    // Find a live worker pid and SIGKILL it.
    let deadline = Instant::now() + Duration::from_secs(30);
    let victim = loop {
        let status = client::status(&socket).expect("status");
        let pid = status.lines().find_map(|l| {
            if !l.starts_with("lease id=") || !l.contains(" state=active") {
                return None;
            }
            l.split_whitespace()
                .find_map(|t| t.strip_prefix("pid=").and_then(|v| v.parse::<u32>().ok()))
                .filter(|pid| *pid != 0)
        });
        if let Some(pid) = pid {
            break pid;
        }
        assert!(Instant::now() < deadline, "no active lease appeared:\n{status}");
        std::thread::sleep(Duration::from_millis(20));
    };
    let killed = std::process::Command::new("sh")
        .arg("-c")
        .arg(format!("kill -9 {victim}"))
        .status()
        .expect("spawn kill")
        .success();
    assert!(killed, "SIGKILL of worker {victim} failed");

    let status = await_done(&socket, id, Duration::from_secs(120));
    assert_ne!(
        campaign_field(&status, id, "reissued"),
        "0",
        "the killed worker's lease must be re-issued:\n{status}"
    );
    assert!(status.contains("state=reclaimed"), "reclaimed lease is visible:\n{status}");
    let merged = client::report(&socket, id).expect("report");
    assert_eq!(merged, reference, "reclaim must not change the merged report");

    client::shutdown(&socket).expect("shutdown");
    daemon.join().expect("daemon thread");
}

#[test]
fn submissions_beyond_the_queue_bound_answer_busy() {
    let scratch = Scratch::new("busy");
    let mut config = scratch.daemon_config();
    config.queue_cap = 1;
    // Keep campaign 1 running long enough that campaign 2 stays queued.
    config.worker_stall_ms = 1500;
    let (socket, daemon) = start_daemon(config);

    let first = client::submit(&socket, 2, 0, Some(1), ubfuzz::Strategy::Uniform, ubfuzz::SanPolicy::Full).expect("submit 1");
    // Wait until the scheduler picked up campaign 1 (queue drained)…
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let status = client::status(&socket).expect("status");
        if status.contains("campaign id=1 state=running") {
            break;
        }
        assert!(Instant::now() < deadline, "campaign 1 never started:\n{status}");
        std::thread::sleep(Duration::from_millis(20));
    }
    // …so this fills the queue, and the next submission must bounce.
    let second = client::submit(&socket, 2, 0, Some(1), ubfuzz::Strategy::Uniform, ubfuzz::SanPolicy::Full).expect("submit 2");
    let bounced = client::submit(&socket, 2, 0, Some(1), ubfuzz::Strategy::Uniform, ubfuzz::SanPolicy::Full);
    let err = bounced.expect_err("queue is full; submission must be rejected");
    assert!(err.to_string().contains("busy"), "expected err busy, got {err}");

    for id in [first, second] {
        await_done(&socket, id, Duration::from_secs(120));
    }
    client::shutdown(&socket).expect("shutdown");
    daemon.join().expect("daemon thread");
}

/// Front door: a client that connects and says nothing holds the accept
/// thread for at most the request deadline, so a concurrent STATUS is
/// answered within it; the silent client itself is told `err timeout`.
#[test]
fn silent_client_does_not_stall_status_beyond_the_deadline() {
    use std::io::Read as _;
    let scratch = Scratch::new("silent");
    let (socket, daemon) = start_daemon(scratch.daemon_config());
    use std::io::Write as _;
    let mut silent = std::os::unix::net::UnixStream::connect(&socket).expect("connect");
    // STATUS by hand, with a client-side timeout well past the deadline,
    // so a daemon that waits on the silent client fails instead of hanging.
    let t = Instant::now();
    let mut stream = std::os::unix::net::UnixStream::connect(&socket).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).expect("client timeout");
    stream.write_all(b"STATUS\n").expect("write");
    stream.shutdown(std::net::Shutdown::Write).expect("half-close");
    let mut status = String::new();
    stream.read_to_string(&mut status).expect("STATUS answered while a client is silent");
    assert!(status.starts_with("ok\ndaemon pid="), "{status}");
    assert!(t.elapsed() < Duration::from_secs(5), "STATUS waited {:?}", t.elapsed());
    let mut answer = String::new();
    silent.read_to_string(&mut answer).expect("read timeout answer");
    assert_eq!(answer, "err timeout\n");
    client::shutdown(&socket).expect("shutdown");
    daemon.join().expect("daemon thread");
}

/// Front door: the deadline covers the whole request line, so a client
/// that drips bytes slower than the deadline but faster than any one read
/// could time out is still cut off.
#[test]
fn dripping_client_is_cut_off_at_the_deadline() {
    use std::io::{Read as _, Write as _};
    let scratch = Scratch::new("drip");
    let (socket, daemon) = start_daemon(scratch.daemon_config());
    let mut stream = std::os::unix::net::UnixStream::connect(&socket).expect("connect");
    let t = Instant::now();
    // Drip "STATUS" (no newline) a byte every 500 ms until the daemon
    // answers; stop after 10 s so a daemon without a deadline fails.
    stream.set_nonblocking(true).expect("nonblocking");
    let mut answer = Vec::new();
    let mut chunk = [0u8; 64];
    for byte in b"STATUS".iter().cycle() {
        let _ = stream.write_all(&[*byte]);
        std::thread::sleep(Duration::from_millis(500));
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => answer.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                assert!(t.elapsed() < Duration::from_secs(10), "no answer after {:?}", t.elapsed());
            }
            // A byte that landed after the answer resets the connection.
            Err(_) => break,
        }
    }
    assert_eq!(String::from_utf8_lossy(&answer), "err timeout\n");
    assert!(t.elapsed() < Duration::from_secs(5), "cut off after {:?}", t.elapsed());
    client::shutdown(&socket).expect("shutdown");
    daemon.join().expect("daemon thread");
}

/// Front door: a request line past the length cap (no newline in sight)
/// is answered `err too-long`, and the daemon keeps serving.
#[test]
fn over_long_request_is_rejected_and_the_daemon_keeps_serving() {
    use std::io::{Read as _, Write as _};
    let scratch = Scratch::new("long");
    let (socket, daemon) = start_daemon(scratch.daemon_config());
    let mut stream = std::os::unix::net::UnixStream::connect(&socket).expect("connect");
    stream.write_all(&[b'A'; 5000]).expect("write");
    // The daemon closes with the rest of the line unread, which resets the
    // connection after the answer: read up to EOF or that reset.
    let mut answer = Vec::new();
    let mut chunk = [0u8; 64];
    while let Ok(n @ 1..) = stream.read(&mut chunk) {
        answer.extend_from_slice(&chunk[..n]);
    }
    assert_eq!(String::from_utf8_lossy(&answer), "err too-long\n");
    assert!(client::status(&socket).expect("status after").starts_with("daemon pid="));
    client::shutdown(&socket).expect("shutdown");
    daemon.join().expect("daemon thread");
}

/// A guided submission runs end to end: the SUBMIT line carries
/// `strategy=guided`, STATUS reports the strategy and the frontier size,
/// the merge persists `frontier.bin`, and a malformed strategy value is
/// rejected as `err bad-request` without dropping the connection.
#[test]
fn guided_submission_reports_strategy_and_persists_the_frontier() {
    let scratch = Scratch::new("guided");
    let config = scratch.daemon_config();
    let store = config.store.clone();
    let (socket, daemon) = start_daemon(config);

    let bad = client::request(&socket, "SUBMIT seeds=2 strategy=greedy").expect("connect");
    assert_eq!(bad.trim(), "err bad-request", "malformed strategy is a bad request");

    let id = client::submit(&socket, 2, 0, Some(2), ubfuzz::Strategy::Guided, ubfuzz::SanPolicy::Full).expect("submit");
    let status = await_done(&socket, id, Duration::from_secs(120));
    assert_eq!(campaign_field(&status, id, "strategy"), "guided");
    let frontier: usize = campaign_field(&status, id, "frontier").parse().expect("frontier=N");
    assert!(frontier > 0, "a finished campaign covered sanitizer points:\n{status}");
    let on_disk = ubfuzz::store::FrontierStore::open(&store);
    assert_eq!(on_disk.len(), frontier, "STATUS reports the persisted frontier");

    client::shutdown(&socket).expect("shutdown");
    daemon.join().expect("daemon thread");
}

/// A worker binary that does not exist: every spawn fails, so every lease
/// is reclaimed without ever holding a pid and re-issued, until the
/// re-issue cap fails the campaign. The scheduler must not spin on the
/// re-issued leases: the campaign reads `failed` within a bounded wait,
/// STATUS keeps answering, and SHUTDOWN still joins the daemon.
#[test]
fn unspawnable_worker_binary_fails_the_campaign_instead_of_wedging() {
    let scratch = Scratch::new("nobin");
    let mut config = scratch.daemon_config();
    config.worker_bin = Some(PathBuf::from("/nonexistent/ubfuzz-worker"));
    let workers = 2;
    // The daemon's cap on re-issues per campaign: 8 per worker process.
    let cap = 8 * workers;
    let (socket, daemon) = start_daemon(config);

    let id = client::submit(&socket, 2, 0, Some(workers), ubfuzz::Strategy::Uniform, ubfuzz::SanPolicy::Full)
        .expect("submit");
    let deadline = Instant::now() + Duration::from_secs(30);
    let status = loop {
        let status = client::status(&socket).expect("status answers while spawns fail");
        if status.contains(&format!("campaign id={id} state=failed")) {
            break status;
        }
        let line = status.lines().find(|l| l.starts_with("campaign id=")).unwrap_or("");
        assert!(Instant::now() < deadline, "campaign never failed: {line}");
        std::thread::sleep(Duration::from_millis(25));
    };
    let reissued: usize = campaign_field(&status, id, "reissued").parse().expect("reissued=N");
    assert!(reissued <= cap + workers, "re-issues stop at the cap ({cap}):\n{status}");
    let leases: Vec<&str> = status.lines().filter(|l| l.starts_with("lease id=")).collect();
    assert!(!leases.is_empty(), "issued leases are listed:\n{status}");
    for lease in &leases {
        assert!(lease.ends_with(" pid=0 state=reclaimed"), "{lease:?} in:\n{status}");
    }
    assert!(client::status(&socket).is_ok(), "STATUS answers after the failure");

    client::shutdown(&socket).expect("shutdown");
    let deadline = Instant::now() + Duration::from_secs(10);
    while !daemon.is_finished() {
        assert!(Instant::now() < deadline, "daemon thread never exited after SHUTDOWN");
        std::thread::sleep(Duration::from_millis(20));
    }
    daemon.join().expect("daemon thread");
}

/// Satellite: concurrent opens of one store directory must not corrupt any
/// table — including when one of the processes is SIGKILLed mid-run.
///
/// Two worker processes each judge the *full* group range (whose seed span
/// is every seed) into their own checkpoint shard while racing appends to the shared `prefix.bin`; a
/// third is killed shortly after starting. Afterwards every table must
/// open clean, the shard union must replay every group, and a merge over
/// the store must render the same report as a fresh single-process run.
#[test]
fn concurrent_store_opens_survive_racing_and_killed_workers() {
    let seeds = 3;
    let scratch = Scratch::new("race");
    let dir = scratch.dir.clone();
    let cfg = CampaignConfig::builder().seeds(seeds).build();
    let plan = CampaignPlan::new(&cfg, Some(&dir));
    let (fingerprint, groups) = (plan.fingerprint(), plan.groups());
    assert!(groups > 0);

    let (groups_arg, seeds_arg) = (groups.to_string(), seeds.to_string());
    let worker = |shard: u64, stall_ms: u64| {
        std::process::Command::new(WORKER_BIN)
            .args(["worker", "--store"])
            .arg(&dir)
            .args(["--seeds", &seeds_arg, "--shard", &shard.to_string()])
            .args(["--start", "0", "--end", &groups_arg])
            .args(["--seed-start", "0", "--seed-end", &seeds_arg])
            .args(["--base", "0", "--span-end", &groups_arg, "--groups", &groups_arg])
            .args(["--threads", "2", "--stall-ms", &stall_ms.to_string()])
            .stdout(std::process::Stdio::piped())
            .spawn()
            .expect("spawn worker")
    };

    // The kill leg: a worker SIGKILLed right after its stall window, i.e.
    // in the middle of compiling and appending.
    let mut victim = worker(1, 50);
    std::thread::sleep(Duration::from_millis(90));
    let _ = victim.kill();
    let _ = victim.wait();

    // Two live workers race over the same full range and store.
    let mut a = worker(2, 0);
    let mut b = worker(3, 0);
    assert!(a.wait().expect("worker a").success());
    assert!(b.wait().expect("worker b").success());

    // Every table opens clean and the shard union covers every group.
    let log = CampaignLog::open(&dir, fingerprint, groups);
    let replayable = (0..groups).filter(|i| log.has_replay(*i)).count();
    assert_eq!(replayable, groups, "shard union must cover the whole campaign");
    drop(log);
    let prefix = ubfuzz::store::PrefixStore::open(&dir);
    assert!(!prefix.telemetry().recovered_cold(), "prefix table must not cold-start");
    assert!(prefix.telemetry().loaded() > 0, "racing workers persisted prefixes");

    // The merge replays the union; its report matches a fresh run.
    let backend = SimBackend::with_store_capacity(&dir, cfg.prefix_key_bound());
    let merged = ParallelCampaign::new(CampaignConfig::builder().seeds(seeds).build())
        .with_backend(Arc::new(backend))
        .with_checkpoint(&dir)
        .run();
    let rendered = format!("{}{}", report::table3(&merged), report::oracle_stats(&merged));
    assert_eq!(rendered, single_process_report());
}

/// Runs one 3-seed campaign on a daemon whose worker binary is the shell
/// script `body`, and requires a done campaign whose report is the
/// single-process one.
fn campaign_over_fake_worker(tag: &str, body: &str) {
    use std::os::unix::fs::PermissionsExt as _;
    let scratch = Scratch::new(tag);
    let script = scratch.dir.join("fake-worker.sh");
    std::fs::write(&script, format!("#!/bin/sh\n{body}\n")).expect("write worker script");
    std::fs::set_permissions(&script, std::fs::Permissions::from_mode(0o755)).expect("chmod");
    let mut config = scratch.daemon_config();
    config.worker_bin = Some(script);
    let (socket, daemon) = start_daemon(config);

    let id = client::submit(&socket, 3, 0, Some(2), ubfuzz::Strategy::Uniform, ubfuzz::SanPolicy::Full)
        .expect("submit");
    let status = await_done(&socket, id, Duration::from_secs(120));
    assert_eq!(campaign_field(&status, id, "computed"), "0", "{tag}: no receipt counts:\n{status}");
    let merged = client::report(&socket, id).expect("report");
    assert_eq!(merged, single_process_report(), "{tag}: the merge judges the missing groups");

    client::shutdown(&socket).expect("shutdown");
    daemon.join().expect("daemon thread");
}

/// Fault injection: every worker exits 0 without writing a receipt or a
/// shard. Each lease completes, and the merge judges every group itself.
#[test]
fn workers_that_exit_zero_with_no_receipt_still_merge_identically() {
    campaign_over_fake_worker("noreceipt", "exit 0");
}

/// Fault injection: every worker prints junk where the receipt belongs and
/// exits 0. The receipt parses as zeros, and the report is unchanged.
#[test]
fn workers_with_a_garbage_receipt_still_merge_identically() {
    campaign_over_fake_worker("garbage", "echo 'computed=x replayed metric stage=?? \\377'; exit 0");
}

/// The real worker binary, sent a base its seeds do not plan, exits 1 with
/// the disagreement on stderr and writes no shard.
#[test]
fn worker_binary_refuses_a_span_its_seeds_do_not_plan() {
    let scratch = Scratch::new("badspan");
    let cfg = CampaignConfig::builder().seeds(3).build();
    let plan = CampaignPlan::new(&cfg, Some(&scratch.dir));
    let groups = plan.groups();
    let span = plan.seed_span(groups / 2..groups);
    let arg = |n: usize| n.to_string();
    let out = std::process::Command::new(WORKER_BIN)
        .args(["worker", "--store"])
        .arg(&scratch.dir)
        .args(["--seeds", "3", "--shard", "1", "--start", &arg(groups / 2), "--end", &arg(groups)])
        .args(["--seed-start", &arg(span.seeds.start), "--seed-end", &arg(span.seeds.end)])
        .args(["--base", &arg(span.groups.start + 1), "--span-end", &arg(span.groups.end)])
        .args(["--groups", &arg(groups), "--threads", "1"])
        .output()
        .expect("run worker");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert!(out.stdout.is_empty(), "no receipt: {out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("but the lease sent span"), "{stderr}");
    assert!(!scratch.dir.join(ubfuzz::store::checkpoint::shard_file(1)).exists(), "no shard");
}
