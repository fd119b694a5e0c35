//! The persistent campaign store end-to-end: warm prefix caches across
//! backend reopens, kill-then-resume checkpoint equivalence (every kind of
//! record prefix a kill leaves, across worker counts), and
//! cross-invocation bug-corpus merges.

use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use ubfuzz::backend::{CompilerBackend, SimBackend};
use ubfuzz::campaign::{CampaignConfig, GeneratorChoice, ParallelCampaign};
use ubfuzz::executor::{run_group_range, CampaignPlan, SeedSpan};
use ubfuzz::obs::{MetricsSink, Stage};
use ubfuzz::{persist, run_campaign, SanPolicy, SessionStats};
use ubfuzz_store::{BugCorpus, CampaignLog, LeaseTable};

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
    let plan = CampaignPlan::new(&cfg, Some(&dir));
    let (units, groups) = (plan.units(), plan.groups());
    assert!(groups > 1, "the plan splits into two ranges");
    drop(CampaignLog::open(&dir, plan.fingerprint(), groups));

    let mid = groups / 2;
    let judge = |shard: u64, range: Range<usize>| {
        let span = plan.seed_span(range.clone());
        run_group_range(&cfg, 2, &dir, shard, range, &span, groups).expect("span is the plan's")
    };
    let first = judge(1, 0..mid);
    let second = judge(2, mid..groups);
    assert_eq!((first.replayed, second.replayed), (0, 0));
    assert!(first.computed > 0 && second.computed > 0);
    assert_eq!(first.computed + second.computed, units, "fresh shards judge every unit");

    let reissued = judge(1, 0..mid);
    assert_eq!(reissued.computed, 0, "a re-issued range recomputes nothing");
    assert_eq!(reissued.replayed, first.computed);

    let merged = ParallelCampaign::new(cfg.clone()).with_shards(2).with_checkpoint(&dir).run();
    assert_eq!(merged, run_campaign(&cfg));
    assert_eq!(merged.cache, SessionStats::default(), "the merge replays every group");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The leases `LeaseTable::carve` cuts a plan's groups into, as the daemon
/// carves them.
fn carved(plan: &CampaignPlan, parts: usize) -> Vec<Range<usize>> {
    let dir = tmp_dir(&format!("carve-{parts}"));
    let mut table = LeaseTable::open(&dir);
    table.carve(plan.fingerprint(), plan.groups(), parts, 600);
    let ranges = table.run().map(|l| l.start as usize..l.end as usize).collect();
    let _ = std::fs::remove_dir_all(&dir);
    ranges
}

/// Runs each `(range, span)` into its own shard of a fresh store, checking
/// that the range generates exactly its span's seeds, then merges: the
/// checkpointed merge must equal the sequential reference and compile
/// nothing.
fn run_slices_then_merge(cfg: &CampaignConfig, leases: &[(Range<usize>, SeedSpan)], tag: &str) {
    let dir = tmp_dir(tag);
    let plan = CampaignPlan::new(cfg, Some(&dir));
    drop(CampaignLog::open(&dir, plan.fingerprint(), plan.groups()));
    for (shard, (range, span)) in (1..).zip(leases) {
        let sink = Arc::new(MetricsSink::new());
        let mut sliced = cfg.clone();
        sliced.recorder = Some(sink.clone());
        run_group_range(&sliced, 2, &dir, shard, range.clone(), span, plan.groups())
            .unwrap_or_else(|e| panic!("{tag}: range {range:?}: {e}"));
        let generated = sink.snapshot().stages.get(&Stage::Generate).map_or(0, |h| h.count);
        assert_eq!(generated, span.seeds.len() as u64, "{tag}: {range:?} generates {span:?}");
    }
    let merged = ParallelCampaign::new(cfg.clone()).with_shards(2).with_checkpoint(&dir).run();
    assert_eq!(merged, run_campaign(cfg), "{tag}");
    assert_eq!(merged.cache, SessionStats::default(), "{tag}: the merge replays every group");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Seed slices: whatever way a campaign's groups are cut into leases, each
/// worker range generates only the seeds of its span (a seed straddling a
/// cut is generated on both sides), and the merge over the shard union is
/// the sequential reference. Cuts: the daemon's 2- and 3-way carves, one
/// exactly at a seed boundary and one inside a seed; and a Juliet campaign,
/// whose later seeds plan no groups.
#[test]
fn seed_slices_generate_only_their_seeds_and_merge_to_the_reference() {
    let mut cfg = small_config(41);
    cfg.seeds = 3;
    cfg.gen_options.max_per_kind = 1;
    let plan = CampaignPlan::new(&cfg, None);
    let groups = plan.groups();
    let boundary = plan.seed_span(0..1).groups.end;
    assert!(1 < boundary && boundary < groups, "seed 0 holds several groups, not all");
    let mut cuts = vec![carved(&plan, 2), carved(&plan, 3)];
    cuts.push(vec![0..boundary, boundary..groups]);
    cuts.push(vec![0..boundary - 1, boundary - 1..groups]);
    for (i, cut) in cuts.iter().enumerate() {
        let leases: Vec<_> = cut.iter().map(|r| (r.clone(), plan.seed_span(r.clone()))).collect();
        let spanned: usize = leases.iter().map(|(_, span)| span.seeds.len()).sum();
        assert!(spanned < cfg.seeds + cut.len(), "at most one overlap seed per cut");
        run_slices_then_merge(&cfg, &leases, &format!("slices-{i}"));
    }
    let at_boundary = [plan.seed_span(0..boundary), plan.seed_span(boundary..groups)];
    assert_eq!(at_boundary[0].seeds.end, at_boundary[1].seeds.start, "no overlap seed");
    let inside = [plan.seed_span(0..boundary - 1), plan.seed_span(boundary - 1..groups)];
    assert_eq!(inside[0].seeds, 0..1);
    assert_eq!(inside[1].seeds.start, 0, "seed 0 straddles the cut");

    // Juliet: only the first seed generates, so every lease maps to seed 0;
    // a span that also carries the empty later seeds plans the same groups.
    let juliet = CampaignConfig::builder().seeds(3).generator(GeneratorChoice::Juliet).build();
    let plan = CampaignPlan::new(&juliet, None);
    let groups = plan.groups();
    let mut leases: Vec<_> =
        carved(&plan, 2).into_iter().map(|r| (r.clone(), plan.seed_span(r))).collect();
    assert!(leases.iter().all(|(_, span)| span.seeds == (0..1)), "{leases:?}");
    run_slices_then_merge(&juliet, &leases, "slices-juliet");
    leases = vec![(0..groups, SeedSpan { seeds: 0..3, groups: 0..groups })];
    run_slices_then_merge(&juliet, &leases, "slices-juliet-empty-seeds");
}

/// A worker whose seeds do not plan the span the daemon sent refuses the
/// range: `run_group_range` reports the disagreement and records nothing,
/// so the daemon reclaims the lease and the merge judges the groups itself.
#[test]
fn a_span_the_seeds_do_not_plan_is_refused_and_records_nothing() {
    let dir = tmp_dir("wrong-span");
    let mut cfg = small_config(43);
    cfg.gen_options.max_per_kind = 1;
    let plan = CampaignPlan::new(&cfg, Some(&dir));
    let groups = plan.groups();
    let range = groups / 2..groups;
    let span = plan.seed_span(range.clone());
    let refused = [
        // A wrong base: the seeds plan a different group count.
        SeedSpan { groups: span.groups.start + 1..span.groups.end, ..span.clone() },
        // A span that does not cover the range.
        plan.seed_span(0..1),
        // Seeds outside the campaign.
        SeedSpan { seeds: 0..cfg.seeds + 1, groups: 0..groups },
    ];
    for wrong in &refused {
        let err = run_group_range(&cfg, 2, &dir, 1, range.clone(), wrong, groups)
            .expect_err("a span the seeds do not plan is refused");
        assert!(err.contains(&format!("{:?}", wrong.seeds)), "the error names the span: {err}");
    }
    assert!(!dir.join(ubfuzz_store::checkpoint::shard_file(1)).exists(), "no shard written");
    let log = CampaignLog::open(&dir, plan.fingerprint(), groups);
    assert!((0..groups).all(|g| !log.has_replay(g)), "nothing recorded");
    drop(log);
    let stats = run_group_range(&cfg, 2, &dir, 1, range, &span, groups).expect("the plan's span");
    assert!(stats.computed > 0);
    let _ = std::fs::remove_dir_all(&dir);
}
