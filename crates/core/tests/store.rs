//! The persistent campaign store end-to-end: warm prefix caches across
//! backend reopens, kill-then-resume checkpoint equivalence (property-tested
//! across worker counts), and cross-invocation bug-corpus merges.

use std::path::PathBuf;
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

/// The checkpoint acceptance property: kill the campaign after every budget
/// of K units, resume until done, at several worker counts — the final
/// report is bit-identical to the uninterrupted run.
#[test]
fn killed_and_resumed_campaign_reports_bit_identically() {
    // A slim program budget keeps the kill/resume loop to a handful of
    // relaunches per worker count (each relaunch replays the log and
    // regenerates seeds); the equivalence argument is size-independent.
    let mut cfg = small_config(23);
    cfg.gen_options.max_per_kind = 1;
    let reference = run_campaign(&cfg);
    assert!(!reference.bugs.is_empty(), "reference campaign finds something to compare");

    for workers in [1usize, 2, 8] {
        let dir = tmp_dir(&format!("resume-w{workers}"));
        let mut kills = 0;
        let resumed = loop {
            let attempt = ParallelCampaign::new(cfg.clone())
                .with_shards(workers)
                .with_checkpoint(&dir)
                .with_unit_budget(25)
                .try_run();
            match attempt {
                Ok(stats) => break stats,
                Err(interrupted) => {
                    kills += 1;
                    assert!(
                        interrupted.total > 0 && kills < 10_000,
                        "resume must make progress: {interrupted}"
                    );
                }
            }
        };
        assert!(kills > 0, "budget of 25 units must interrupt at least once");
        assert_eq!(
            reference, resumed,
            "{workers}-worker kill/resume diverges after {kills} kills"
        );
        assert_eq!(ubfuzz::report::table6(&reference), ubfuzz::report::table6(&resumed));

        // A further run replays the complete log: no compiles at all.
        let replay = ParallelCampaign::new(cfg.clone())
            .with_shards(workers)
            .with_checkpoint(&dir)
            .run();
        assert_eq!(reference, replay);
        assert_eq!(
            replay.cache,
            SessionStats::default(),
            "full replay never touches the compile pipeline"
        );
        let _ = std::fs::remove_dir_all(&dir);
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
    let mut bytes = std::fs::read(&log).unwrap();
    let mut file = std::fs::File::open(&log).unwrap();
    let (mut at, mut buf, mut bad) = (wire::HEADER_LEN as u64, Vec::new(), None);
    while let Some((off, len)) = wire::read_record_at(&mut file, bytes.len() as u64, at, &mut buf) {
        let id_at = buf.windows(4).position(|w| {
            w[..2] == *b"-d" && w[2].is_ascii_digit() && w[3].is_ascii_digit()
        });
        if let Some(pos) = id_at {
            let mut payload = buf.clone();
            payload[pos + 1] = b'x';
            bad = Some(payload);
        }
        at = off + len as u64 + 8;
    }
    let bad = bad.expect("some group files a bug attributed to a defect");
    bytes.extend_from_slice(&wire::frame(&bad));
    std::fs::write(&log, &bytes).unwrap();

    let runner = |budget| {
        ParallelCampaign::new(cfg.clone())
            .with_shards(2)
            .with_checkpoint(&dir)
            .with_unit_budget(budget)
            .try_run()
    };
    // Every other group replays, so a zero budget stops on that one group…
    let stopped = runner(0).expect_err("the undecodable group must be rejudged");
    let cells = stopped.total - stopped.completed;
    assert!((1..=10).contains(&cells), "one group's matrix is missing: {stopped}");
    // …and a budget of exactly its cells finishes the campaign,
    // byte-identical to fresh.
    let rerun = runner(cells as u64).expect("only the undecodable group is rejudged");
    assert_eq!(render(&rerun), render(&fresh));
    assert_eq!(rerun.bugs, fresh.bugs);
    // The rejudged verdict was appended: the next run replays it all.
    assert_eq!(render(&runner(0).expect("full replay")), render(&fresh));
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
