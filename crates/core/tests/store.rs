//! The persistent campaign store end-to-end: warm prefix caches across
//! backend reopens, kill-then-resume checkpoint equivalence (every kind of
//! record prefix a kill leaves, across worker counts), and
//! cross-invocation bug-corpus merges.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use ubfuzz::backend::{CompilerBackend, SimBackend};
use ubfuzz::campaign::{CampaignConfig, GeneratorChoice, ParallelCampaign};
use ubfuzz::{persist, run_campaign, SanPolicy, SessionStats};
use ubfuzz_store::BugCorpus;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "ubfuzz-core-store-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn small_config(first_seed: u64) -> CampaignConfig {
    CampaignConfig::builder()
        .first_seed(first_seed)
        .seeds(2)
        .seed_options(ubfuzz::seedgen::SeedOptions {
            max_helpers: 1,
            max_globals: 5,
            max_stmts: 4,
            max_depth: 2,
            ..ubfuzz::seedgen::SeedOptions::default()
        })
        .gen_options(ubfuzz::ubgen::GenOptions {
            max_per_kind: 2,
            ..ubfuzz::ubgen::GenOptions::default()
        })
        .build()
}

/// The acceptance property: a second process over the same store compiles
/// nothing — every prefix lookup hits — and the campaign results (hence
/// rendered tables) are identical.
#[test]
fn second_invocation_over_a_store_has_zero_prefix_misses() {
    let dir = tmp_dir("warm-campaign");
    let cfg = small_config(11);
    let capacity = cfg.prefix_key_bound();

    let first_backend: Arc<dyn CompilerBackend> =
        Arc::new(SimBackend::with_store_capacity(&dir, capacity));
    let first = ParallelCampaign::new(cfg.clone())
        .with_backend(first_backend)
        .with_shards(2)
        .run();
    assert!(first.cache.misses > 0, "cold store computes prefixes: {:?}", first.cache);

    // "Next invocation": a fresh backend over the same directory.
    let second_backend = Arc::new(SimBackend::with_store_capacity(&dir, capacity));
    let indexed = second_backend.prefix_store().expect("store attached").telemetry().loaded();
    assert!(indexed > 0, "store indexes prefixes");
    let second = ParallelCampaign::new(cfg.clone())
        .with_backend(second_backend.clone() as Arc<dyn CompilerBackend>)
        .with_shards(2)
        .run();
    assert_eq!(first, second, "the store must be invisible to results");
    assert_eq!(second.cache.misses, 0, "warm store misses nothing: {:?}", second.cache);
    // Every warm lookup is a prefix hit, and every sanitizer cell reruns
    // the sanitizer pass over its fetched prefix.
    assert_eq!(second.cache.hits, first.cache.hits + first.cache.misses, "{:?}", second.cache);
    assert_eq!(second.cache.san_misses, first.cache.san_misses, "{:?}", second.cache);
    assert_eq!(second.cache.san_hits, 0, "{:?}", second.cache);
    assert_eq!(
        ubfuzz::report::table3(&first),
        ubfuzz::report::table3(&second),
        "rendered tables byte-identical"
    );
    // And the reference sequential loop agrees.
    assert_eq!(run_campaign(&cfg), second);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A warm store must not change what the sanitizers cover: a checkpointed
/// campaign over a store that an earlier run without a checkpoint warmed
/// ends with the same frontier, and saves the same `frontier.bin`, as the
/// same campaign over an empty store.
#[test]
fn warm_store_keeps_the_cold_frontier() {
    let (cold_dir, warm_dir) = (tmp_dir("frontier-cold"), tmp_dir("frontier-warm"));
    let cfg = small_config(31);
    let checkpointed = |dir: &PathBuf| {
        let backend = SimBackend::with_store_capacity(dir, cfg.prefix_key_bound());
        ParallelCampaign::new(cfg.clone())
            .with_backend(Arc::new(backend))
            .with_shards(2)
            .with_checkpoint(dir)
            .run()
    };
    let cold = checkpointed(&cold_dir);
    assert!(cold.frontier_points > 0, "the campaign covers sanitizer points");

    let warmup = SimBackend::with_store_capacity(&warm_dir, cfg.prefix_key_bound());
    ParallelCampaign::new(cfg.clone()).with_backend(Arc::new(warmup)).with_shards(2).run();
    assert!(!warm_dir.join("frontier.bin").exists(), "no checkpoint, no saved frontier");
    let warm = checkpointed(&warm_dir);
    assert_eq!(warm.cache.misses, 0, "the store was warm: {:?}", warm.cache);
    assert_eq!(cold, warm);
    assert_eq!(
        (warm.frontier_points, warm.frontier_fingerprint),
        (cold.frontier_points, cold.frontier_fingerprint)
    );
    let saved = |dir: &PathBuf| std::fs::read(dir.join("frontier.bin")).unwrap();
    assert_eq!(saved(&warm_dir), saved(&cold_dir), "frontier.bin differs");
    let _ = std::fs::remove_dir_all(&cold_dir);
    let _ = std::fs::remove_dir_all(&warm_dir);
}

/// The records of the finished checkpoint log at `path`, in file order,
/// each with the byte offset where it ends: record 0 is the campaign
/// identity, record k the k-th group verdict.
fn log_records(path: &Path) -> Vec<(u64, Vec<u8>)> {
    use ubfuzz_store::wire;
    let len = std::fs::metadata(path).unwrap().len();
    let mut file = std::fs::File::open(path).unwrap();
    let (mut at, mut buf, mut records) = (wire::HEADER_LEN as u64, Vec::new(), Vec::new());
    while let Some((off, payload_len)) = wire::read_record_at(&mut file, len, at, &mut buf) {
        at = off + payload_len as u64 + 8;
        records.push((at, buf.clone()));
    }
    assert_eq!(at, len, "a finished log is whole records");
    records
}

/// The checkpoint acceptance property. A SIGKILL leaves a prefix of the
/// checkpoint log's records, at most one of them torn, and no
/// `frontier.bin`. So: cut a finished log after k whole group records (k =
/// 0, 1, half, all but one, all) and once mid-record, resume over only that
/// `campaign.bin` — at a worker count that differs from the writer's for
/// most cuts — and the report and the frontier are the uninterrupted
/// run's, while every replayed group is a compile saved.
#[test]
fn killed_and_resumed_campaign_reports_bit_identically() {
    let mut cfg = small_config(23);
    cfg.gen_options.max_per_kind = 1;
    let reference = run_campaign(&cfg);
    assert!(!reference.bugs.is_empty(), "reference campaign finds something to compare");
    let plan = ubfuzz::executor::CampaignPlan::new(&cfg, None);
    let widths = [1usize, 2, 8];

    for (wi, &workers) in widths.iter().enumerate() {
        let written_dir = tmp_dir(&format!("resume-w{workers}"));
        let written = ParallelCampaign::new(cfg.clone())
            .with_shards(workers)
            .with_checkpoint(&written_dir)
            .run();
        assert_eq!(reference, written);
        let written_log = written_dir.join(ubfuzz_store::checkpoint::CHECKPOINT_FILE);
        let log = std::fs::read(&written_log).unwrap();
        let ends: Vec<u64> = log_records(&written_log).into_iter().map(|(end, _)| end).collect();
        let n = ends.len() - 1;
        assert_eq!(n, plan.groups(), "one record per group");
        let half = n / 2;
        // (bytes kept, whole group records among them)
        let mut cuts: Vec<(u64, usize)> = [0, 1, half, n - 1, n].map(|k| (ends[k], k)).to_vec();
        cuts.push(((ends[half] + ends[half + 1]) / 2, half));

        for (ci, &(keep, k)) in cuts.iter().enumerate() {
            let resume_workers = widths[(wi + ci) % widths.len()];
            let case = format!("w{workers} → w{resume_workers}, {k}/{n} records, {keep} bytes");
            let dir = tmp_dir(&format!("resume-w{workers}-cut{ci}"));
            std::fs::create_dir_all(&dir).unwrap();
            let path = dir.join(ubfuzz_store::checkpoint::CHECKPOINT_FILE);
            std::fs::write(&path, &log[..keep as usize]).unwrap();
            let opened = ubfuzz_store::CampaignLog::open(&dir, plan.fingerprint(), n);
            assert_eq!(opened.replayed(), k, "{case}");
            assert_eq!(opened.telemetry().tail_truncated(), !ends.contains(&keep), "{case}");
            drop(opened);

            let resumed = ParallelCampaign::new(cfg.clone())
                .with_shards(resume_workers)
                .with_checkpoint(&dir)
                .run();
            assert_eq!(reference, resumed, "{case}");
            assert_eq!(
                ubfuzz::report::table6(&reference),
                ubfuzz::report::table6(&resumed),
                "{case}"
            );
            assert_eq!(
                (resumed.frontier_points, resumed.frontier_fingerprint),
                (reference.frontier_points, reference.frontier_fingerprint),
                "{case}: the frontier is rebuilt from the log alone"
            );
            let compiled = resumed.cache.san_misses;
            match k {
                0 => assert_eq!(compiled, written.cache.san_misses, "{case}"),
                k if k == n => assert_eq!(
                    resumed.cache,
                    SessionStats::default(),
                    "{case}: a full replay never touches the compile pipeline"
                ),
                _ => assert!(compiled < written.cache.san_misses, "{case}: {compiled} cells"),
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
        let _ = std::fs::remove_dir_all(&written_dir);
    }
}

/// A checkpoint record whose checksum is valid but whose verdict does not
/// decode (here: a defect id this build does not know) replays as a miss:
/// the campaign rejudges exactly that record's group and renders the same
/// report as a fresh run.
#[test]
fn undecodable_checkpoint_record_is_recomputed_to_the_same_report() {
    use ubfuzz_store::wire;
    let dir = tmp_dir("bad-record");
    let mut cfg = small_config(29);
    cfg.gen_options.max_per_kind = 1;
    let fresh = ParallelCampaign::new(cfg.clone()).with_shards(2).run();
    let render = |s: &ubfuzz::CampaignStats| {
        format!("{}{}", ubfuzz::report::table3(s), ubfuzz::report::oracle_stats(s))
    };
    ParallelCampaign::new(cfg.clone()).with_shards(2).with_checkpoint(&dir).run();

    // Supersede one group's record with a checksum-valid, undecodable one:
    // the last record naming an injected defect (`…-dNN`), with one byte of
    // the id changed, re-framed and appended like every other record.
    let log = dir.join(ubfuzz_store::checkpoint::CHECKPOINT_FILE);
    let bad = log_records(&log)
        .into_iter()
        .rev()
        .find_map(|(_, mut payload)| {
            let pos = payload.windows(4).position(|w| {
                w[..2] == *b"-d" && w[2].is_ascii_digit() && w[3].is_ascii_digit()
            })?;
            payload[pos + 1] = b'x';
            Some(payload)
        })
        .expect("some group files a bug attributed to a defect");
    let mut bytes = std::fs::read(&log).unwrap();
    bytes.extend_from_slice(&wire::frame(&bad));
    std::fs::write(&log, &bytes).unwrap();

    let rerun = || ParallelCampaign::new(cfg.clone()).with_shards(2).with_checkpoint(&dir).run();
    // Every other group replays, so the rerun compiles one group's matrix,
    // byte-identical to fresh…
    let rejudged = rerun();
    let cells = rejudged.cache.san_misses;
    assert!((1..=10).contains(&cells), "one group's matrix is rejudged: {:?}", rejudged.cache);
    assert_eq!(render(&rejudged), render(&fresh));
    assert_eq!(rejudged.bugs, fresh.bugs);
    // …and appends its verdict: the next run replays it all.
    let replayed = rerun();
    assert_eq!(replayed.cache, SessionStats::default());
    assert_eq!(render(&replayed), render(&fresh));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A `campaign.bin` in the per-unit format of earlier builds — header
/// `(config fingerprint, units)`, one module-carrying record per unit —
/// is another campaign's log: the open cold-starts it with one event, and
/// the run equals a fresh one.
#[test]
fn unit_format_checkpoint_cold_starts_with_one_event() {
    use ubfuzz_store::wire::{self, Enc};
    let dir = tmp_dir("unit-format");
    let mut cfg = small_config(41);
    cfg.gen_options.max_per_kind = 1;
    let fresh = ParallelCampaign::new(cfg.clone()).with_shards(2).run();

    let toolchains = SimBackend::new().toolchains();
    let unit_fp = wire::fnv1a(
        format!("{}|{toolchains:?}", persist::config_fingerprint(&cfg)).as_bytes(),
    );
    let units = ubfuzz::executor::plan_campaign(&cfg, true, None).1;
    let mut header = Enc::new();
    header.u64(unit_fp);
    header.u64(units as u64);
    let mut records = vec![header.into_bytes()];
    for index in 0..units {
        let module = ubfuzz::simcc::Module {
            globals: vec![],
            funcs: vec![],
            san: Default::default(),
            build: None,
        };
        let mut e = Enc::new();
        e.u64(index as u64);
        e.u8(2); // outcome tag: module + result + coverage delta
        ubfuzz_store::modser::enc_module(&mut e, &module);
        e.u8(3); // run result: timeout
        e.vusize(0);
        e.u64(0); // writer: the primary
        records.push(e.into_bytes());
    }
    let path = dir.join(ubfuzz_store::checkpoint::CHECKPOINT_FILE);
    std::fs::create_dir_all(&dir).unwrap();
    assert!(wire::rewrite_file(&path, wire::TableKind::Checkpoint, &records));

    let plan = ubfuzz::executor::CampaignPlan::new(&cfg, Some(&dir));
    let log = ubfuzz_store::CampaignLog::open(&dir, plan.fingerprint(), plan.groups());
    assert_eq!(log.replayed(), 0, "unit records never replay as verdicts");
    assert!(log.telemetry().recovered_cold());
    assert_eq!(log.telemetry().events(), ["campaign.bin: written by another campaign"]);
    drop(log);

    let run = ParallelCampaign::new(cfg.clone()).with_shards(2).with_checkpoint(&dir).run();
    assert_eq!(run, fresh);
    assert_eq!(ubfuzz::report::table3(&run), ubfuzz::report::table3(&fresh));
    assert!(run.cache.misses > 0, "nothing was replayed: {:?}", run.cache);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A checkpointed partial-policy campaign replays every unit from its log.
/// Its per-unit coverage deltas hold the sanitizers' `policy_skip` points,
/// which must decode like every other point: the rerun compiles nothing
/// and reports the same.
#[test]
fn checkpointed_partial_campaign_resumes_with_zero_compiles() {
    let dir = tmp_dir("partial-resume");
    let mut cfg = small_config(31);
    cfg.san_policy = SanPolicy::Partial { ratio_pm: 500, salt: 3 };
    let first = ParallelCampaign::new(cfg.clone()).with_shards(2).with_checkpoint(&dir).run();
    assert!(first.cache.misses > 0, "the first run compiles: {:?}", first.cache);
    assert_eq!(first, run_campaign(&cfg), "checkpointing is invisible to results");
    let replay = ParallelCampaign::new(cfg.clone()).with_shards(2).with_checkpoint(&dir).run();
    assert_eq!(first, replay);
    assert_eq!(
        replay.cache,
        SessionStats::default(),
        "a complete partial-policy log replays without compiling"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// An uninterrupted checkpointed campaign equals the plain one, and a
/// checkpoint written by a *different* configuration is ignored.
#[test]
fn checkpoint_compatibility_is_fingerprint_gated() {
    let dir = tmp_dir("fp-gate");
    let cfg = small_config(5);
    let plain = ParallelCampaign::new(cfg.clone()).with_shards(2).run();
    let checkpointed =
        ParallelCampaign::new(cfg.clone()).with_shards(2).with_checkpoint(&dir).run();
    assert_eq!(plain, checkpointed);

    // A different campaign over the same store directory must cold-start,
    // not replay foreign units.
    let other_cfg = small_config(6);
    assert_ne!(
        persist::config_fingerprint(&cfg),
        persist::config_fingerprint(&other_cfg)
    );
    let other =
        ParallelCampaign::new(other_cfg.clone()).with_shards(2).with_checkpoint(&dir).run();
    assert_eq!(other, run_campaign(&other_cfg));
    assert!(other.cache.misses > 0, "foreign checkpoint must not be replayed");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Bugs merge into the corpus across campaigns with first-seen/last-seen
/// provenance; re-finding is idempotent per key.
#[test]
fn corpus_accumulates_bugs_across_invocations() {
    let dir = tmp_dir("corpus");
    let cfg = CampaignConfig::builder().seeds(4).build();
    let stats = run_campaign(&cfg);
    assert!(!stats.bugs.is_empty());

    let mut corpus = BugCorpus::open(&dir);
    let first = persist::merge_bugs(&mut corpus, &stats);
    assert_eq!(first.new, stats.bugs.len());
    assert_eq!(first.known, 0);
    drop(corpus);

    // Second invocation finds the same world again.
    let mut corpus = BugCorpus::open(&dir);
    assert_eq!(corpus.len(), stats.bugs.len(), "corpus persists across opens");
    let second = persist::merge_bugs(&mut corpus, &stats);
    assert_eq!(second.new, 0, "re-found bugs do not duplicate");
    assert_eq!(second.known, stats.bugs.len());
    for entry in corpus.entries().values() {
        assert_eq!(entry.campaigns, 2);
        assert!(entry.first_seen <= entry.last_seen);
        assert_eq!(entry.total_duplicates, 2 * entry.bug.duplicates);
    }

    // A disjoint campaign (different seeds) can add genuinely new keys
    // while leaving known provenance intact.
    let more = run_campaign(&CampaignConfig::builder().first_seed(40).seeds(4).build());
    let third = persist::merge_bugs(&mut corpus, &more);
    assert_eq!(third.new + third.known, more.bugs.len());
    assert!(corpus.len() >= stats.bugs.len());
    let _ = std::fs::remove_dir_all(&dir);
}

/// The session auto-sizing satellite: runner sessions are sized from the
/// campaign config, comfortably above the old hand-tuned literals for
/// table-scale runs and never below the historic default.
#[test]
fn sessions_auto_size_from_the_campaign_config() {
    let small = CampaignConfig::builder().seeds(1).build();
    assert!(small.prefix_key_bound() >= 2048, "never below the historic default");

    let table_scale = CampaignConfig::builder().seeds(30).build();
    // 30 seeds × (9 kinds × 12 per kind) × (10 GCC + 14 LLVM versions) × 5
    // levels — far beyond the old 1<<15 literal.
    assert!(table_scale.prefix_key_bound() > (1 << 15), "table-scale sizing");

    let juliet = CampaignConfig::builder().generator(GeneratorChoice::Juliet).build();
    assert!(juliet.prefix_key_bound() >= 2048);
}

/// The campaign service's order, in process: the primary log is opened for
/// the plan, two workers judge disjoint halves of the group range into
/// their own shards, a re-issued range replays instead of recomputing, and
/// the checkpointed merge over the shard union compiles nothing and equals
/// the sequential reference.
#[test]
fn worker_ranges_then_merge_compile_nothing() {
    let dir = tmp_dir("worker-ranges");
    let mut cfg = small_config(37);
    cfg.gen_options.max_per_kind = 1;
    let plan = ubfuzz::executor::CampaignPlan::new(&cfg, Some(&dir));
    let (units, groups) = (plan.units(), plan.groups());
    assert!(groups > 1, "the plan splits into two ranges");
    drop(ubfuzz_store::CampaignLog::open(&dir, plan.fingerprint(), groups));

    let mid = groups / 2;
    let first = ubfuzz::executor::run_group_range(&cfg, 2, &dir, 1, 0..mid);
    let second = ubfuzz::executor::run_group_range(&cfg, 2, &dir, 2, mid..groups);
    assert_eq!((first.replayed, second.replayed), (0, 0));
    assert!(first.computed > 0 && second.computed > 0);
    assert_eq!(first.computed + second.computed, units, "fresh shards judge every unit");

    let reissued = ubfuzz::executor::run_group_range(&cfg, 2, &dir, 1, 0..mid);
    assert_eq!(reissued.computed, 0, "a re-issued range recomputes nothing");
    assert_eq!(reissued.replayed, first.computed);

    let merged = ParallelCampaign::new(cfg.clone()).with_shards(2).with_checkpoint(&dir).run();
    assert_eq!(merged, run_campaign(&cfg));
    assert_eq!(merged.cache, SessionStats::default(), "the merge replays every group");
    let _ = std::fs::remove_dir_all(&dir);
}
