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
    assert_eq!(second.cache.san_misses, 0, "warm store re-sanitizes nothing: {:?}", second.cache);
    // Warm sanitizer cells are served from the sanitize-stage layer and
    // never reach the prefix layer, so reuse shows up in san_hits.
    assert!(second.cache.hits + second.cache.san_hits > 0, "{:?}", second.cache);
    assert_eq!(
        ubfuzz::report::table3(&first),
        ubfuzz::report::table3(&second),
        "rendered tables byte-identical"
    );
    // And the reference sequential loop agrees.
    assert_eq!(run_campaign(&cfg), second);
    let _ = std::fs::remove_dir_all(&dir);
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

/// A checkpoint record whose checksum is valid but whose module does not
/// decode (here: a defect id this build does not know) replays as a miss:
/// the campaign recomputes exactly that unit and renders the same report
/// as a fresh run.
#[test]
fn undecodable_checkpoint_record_is_recomputed_to_the_same_report() {
    use ubfuzz_store::wire::{self, Enc};
    let dir = tmp_dir("bad-record");
    let mut cfg = small_config(29);
    cfg.gen_options.max_per_kind = 1;
    let fresh = ParallelCampaign::new(cfg.clone()).with_shards(2).run();
    let render = |s: &ubfuzz::CampaignStats| {
        format!("{}{}", ubfuzz::report::table3(s), ubfuzz::report::oracle_stats(s))
    };
    ParallelCampaign::new(cfg.clone()).with_shards(2).with_checkpoint(&dir).run();

    // Supersede one unit's record with a checksum-valid, undecodable one,
    // framed like every other record.
    let units = ubfuzz::executor::plan_campaign(&cfg, true, Some(&dir)).1;
    let mut module = ubfuzz::simcc::Module {
        globals: vec![],
        funcs: vec![],
        san: Default::default(),
        build: None,
    };
    module.san.applied_defects = vec![("gcc-asan-d01", ubfuzz::minic::Loc::new(1, 0))];
    let mut e = Enc::new();
    e.u64(units as u64 / 2);
    e.u8(2); // outcome tag: module + result + coverage delta
    ubfuzz_store::modser::enc_module(&mut e, &module);
    let mut payload = e.into_bytes();
    let at = payload.windows(12).position(|w| w == b"gcc-asan-d01").expect("id present");
    payload[at] = b'x';
    let log = dir.join(ubfuzz_store::checkpoint::CHECKPOINT_FILE);
    let mut bytes = std::fs::read(&log).unwrap();
    bytes.extend_from_slice(&wire::frame(&payload));
    std::fs::write(&log, &bytes).unwrap();

    let runner = |budget| {
        ParallelCampaign::new(cfg.clone())
            .with_shards(2)
            .with_checkpoint(&dir)
            .with_unit_budget(budget)
            .try_run()
    };
    // Every other unit replays, so a zero budget stops on that one unit…
    assert!(runner(0).is_err(), "the undecodable unit must be recomputed");
    // …and a budget of one finishes the campaign, byte-identical to fresh.
    let rerun = runner(1).expect("only the undecodable unit is recomputed");
    assert_eq!(render(&rerun), render(&fresh));
    assert_eq!(rerun.bugs, fresh.bugs);
    // The recomputed outcome was appended: the next run replays it all.
    assert_eq!(render(&runner(0).expect("full replay")), render(&fresh));
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
