//! The unified campaign task executor: group-granular parallel judging
//! with a canonical-order fold, checkpointing and resume.
//!
//! [`ParallelCampaign::run`] decomposes a campaign into three stages:
//!
//! 1. **Generate** — one task per seed id, producing that seed's UB programs
//!    (each seed id derives its own RNG stream from the campaign seed, so
//!    scheduling cannot perturb generation).
//! 2. **Judge** — one task per `(program, sanitizer)` group on
//!    [`Executor::map`]: a task replays the group's checkpointed verdict,
//!    or compiles and runs the group's compiler × opt matrix and judges it
//!    with the campaign's oracle ([`crate::campaign::judge_group`]). Either
//!    way it returns a small verdict. Tasks share a `CompileSession` that
//!    memoizes the sanitizer-independent `lower → early-opts` prefix, and
//!    a task drops its compiled modules as soon as it has judged them, so
//!    compiled memory is O(workers) groups; what is collected is one small
//!    verdict per group.
//! 3. **Fold** — one loop over the collected verdicts **in canonical group
//!    order** folds each with [`crate::campaign::fold_verdict`] (dedup,
//!    `missed_at`/`duplicates`, reduction on first sight) — the *same* pair
//!    of functions the sequential loop runs — so discrepancy counts,
//!    crash-site mapping and dedup/attribution are bit-identical to
//!    [`crate::campaign::run_campaign`] at any worker count, on a cached or
//!    an uncached backend.
//!
//! **Checkpointing** ([`ParallelCampaign::with_checkpoint`]): every judged
//! group's verdict is appended to a [`CampaignLog`] keyed by the campaign
//! fingerprint as soon as it is judged, and groups a previous invocation
//! logged are *replayed* instead of recompiled and rejudged. Because group
//! planning is deterministic and replay is byte-faithful, a campaign killed
//! at any point and relaunched over the same store produces a final report
//! bit-identical to an uninterrupted run. A verdict is a few bytes, and it
//! does not care whether the backend's artifacts carry a module, so every
//! backend's campaign is resumable.
//!
//! **Worker ranges** ([`run_group_range`]): a campaign-service worker runs
//! stages 1 and 2 over its leased group range into its own checkpoint
//! shard. Nothing crosses seeds, so it plans only the seed span that covers
//! its range ([`CampaignPlan::seed_span`] of the daemon's full plan): a
//! seed slice whose groups keep their global indices. It shares the
//! merge's judge-and-record step, so a group a worker logged replays in the
//! merge exactly as if the merge had judged it, and the merge only folds.
//!
//! The determinism argument, in one line: stages 1 and 2 are pure functions
//! of their task inputs (the cache and the checkpoint log memoize a
//! deterministic function, so they can only change *when/where* a group's
//! verdict is computed, never what it is), and stage 3 is the sequential
//! fold over those verdicts in the sequential order.

use crate::campaign::{
    fold_verdict, generate_programs, judge_group, test_matrix, CampaignConfig, CampaignCtx,
    CampaignStats, GroupVerdict, ParallelCampaign,
};
use crate::persist::{campaign_fingerprint, dec_verdict, enc_verdict};
use std::collections::BTreeMap;
use std::ops::Range;
use std::path::Path;
use ubfuzz_backend::CompilerBackend;
use ubfuzz_exec::Executor;
use ubfuzz_guide::{Frontier, GuidePlan};
use ubfuzz_obs::{self as obs, Stage};
use ubfuzz_simcc::session::ProgramFingerprint;
use ubfuzz_simcc::target::{CompilerId, OptLevel};
use ubfuzz_simcc::{san, Sanitizer};
use ubfuzz_store::{CampaignLog, FrontierStore};
use ubfuzz_ubgen::UbProgram;

/// One `(program, sanitizer)` group: the executor's task, the checkpoint
/// log's record and the service's lease unit.
struct Group {
    /// Canonical program index.
    pi: usize,
    /// Sanitizer under test.
    sanitizer: Sanitizer,
    /// The compiler × opt matrix, in campaign order; one unit per cell.
    matrix: Vec<(CompilerId, OptLevel)>,
}

/// The deterministic decomposition of one campaign: the canonical program
/// list, the `(program, sanitizer)` groups, and the plan's identity. Every
/// participant in a multi-process campaign — the daemon, each worker, the
/// final merge — arrives at the same plan, or a seed slice of it, from the
/// same [`CampaignConfig`] and store, which is what lets a bare group index
/// address work across processes. The daemon builds it once
/// ([`CampaignPlan::new`]), carves leases from [`CampaignPlan::groups`],
/// maps each lease to its [`CampaignPlan::seed_span`] for the worker, and
/// hands the same plan to its merge
/// ([`crate::campaign::ParallelCampaign::run_planned`]), so the merge
/// generates nothing.
pub struct CampaignPlan {
    programs: Vec<UbProgram>,
    fingerprints: Vec<ProgramFingerprint>,
    /// The slice's groups; `groups[i]` is the campaign's group `base + i`.
    groups: Vec<Group>,
    /// Where each planned seed's groups start, in global indices: the
    /// slice's `i`-th seed holds groups `seed_starts[i]..seed_starts[i + 1]`,
    /// so the length is the slice's seed count plus one.
    seed_starts: Vec<usize>,
    /// Global index of the slice's first group: 0 for the full plan.
    base: usize,
    /// Full plan identity: the checkpoint log's key (see
    /// [`campaign_fingerprint`]). A seed slice carries its campaign's.
    fingerprint: u64,
}

/// The seeds a worker regenerates to judge a lease's group range, as
/// [`CampaignPlan::seed_span`] maps it: the campaign daemon's addressing
/// data for one worker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeedSpan {
    /// Seed offsets `[S, E)` into the campaign's `cfg.seeds`.
    pub seeds: Range<usize>,
    /// The span's global group indices: seed S's first group to the end of
    /// seed E − 1's groups. Covers the lease's range.
    pub groups: Range<usize>,
}

impl CampaignPlan {
    /// Plans `cfg` without compiling anything: generation runs on one
    /// thread per available core, on the backend a run of `cfg` resolves
    /// (so program fingerprints match the run's). `store_dir`
    /// matters for guided configs: the plan depends on the persisted
    /// frontier.
    pub fn new(cfg: &CampaignConfig, store_dir: Option<&Path>) -> CampaignPlan {
        let backend = cfg.resolve_backend();
        let guidance = cfg.resolve_guidance(&starting_frontier(store_dir));
        build_plan(cfg, &Executor::auto(), backend.as_ref(), guidance.as_ref(), 0..cfg.seeds, 0)
    }

    /// The seed span covering global group range `range` of this full
    /// plan: from the seed holding group `range.start` to the last seed
    /// holding a group below `range.end`. A seed that straddles a range
    /// boundary belongs to the spans on both sides.
    pub fn seed_span(&self, range: Range<usize>) -> SeedSpan {
        let starts = &self.seed_starts;
        let first = starts.partition_point(|&s| s <= range.start).saturating_sub(1);
        let end = starts.partition_point(|&s| s < range.end).max(first);
        SeedSpan { seeds: first..end, groups: starts[first]..starts[end] }
    }

    /// The campaign fingerprint: the checkpoint log identity.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The planned unit (matrix cell) count: the campaign's size.
    pub fn units(&self) -> usize {
        self.groups.iter().map(|g| g.matrix.len()).sum()
    }

    /// The planned `(program, sanitizer)` group count: what the checkpoint
    /// log indexes and leases carve.
    pub fn groups(&self) -> usize {
        self.groups.len()
    }
}

/// Builds the plan of the seed slice `seeds` (offsets into `cfg.seeds`)
/// whose first group is the campaign's group `base`; the full plan is the
/// slice `0..cfg.seeds` at base 0. Stage-1 generation runs on `exec`;
/// group order is exactly the sequential loop's iteration order.
/// `guidance` — the resolved guided-generation budgets, `None` in uniform
/// mode — steers generation and folds its frontier fingerprint into the
/// plan identity, so every participant must resolve it from the same
/// frontier state (the store's `frontier.bin` at campaign start).
fn build_plan(
    cfg: &CampaignConfig,
    exec: &Executor,
    backend: &dyn CompilerBackend,
    guidance: Option<&GuidePlan>,
    seeds: Range<usize>,
    base: usize,
) -> CampaignPlan {
    let toolchains = backend.toolchains();
    // Stage 1: per-seed generation, results in canonical seed order (each
    // seed id derives its own RNG stream, so scheduling cannot perturb it).
    let seed_ids: Vec<u64> = seeds.map(|s| cfg.first_seed + s as u64).collect();
    let per_seed = exec.map(seed_ids, |_, seed_id| {
        // Executor worker threads carry no recorder of their own; each task
        // scopes the campaign's recorder so generation spans land in it.
        let _obs = cfg.recorder.clone().map(obs::attach);
        generate_programs(cfg, seed_id, guidance)
    });
    let (mut programs, mut groups, mut seed_starts) = (Vec::new(), Vec::new(), vec![base]);
    for seed_programs in per_seed {
        for u in seed_programs {
            let pi = programs.len();
            for sanitizer in san::sanitizers_for(u.kind) {
                let matrix = test_matrix(&toolchains, sanitizer);
                // An empty matrix (no toolchain ships this sanitizer — e.g.
                // a gcc-only real-toolchain backend asked for MSan) plans no
                // group: judging zero cells files nothing in the sequential
                // loop either.
                if !matrix.is_empty() {
                    groups.push(Group { pi, sanitizer, matrix });
                }
            }
            programs.push(u);
        }
        seed_starts.push(base + groups.len());
    }
    let fingerprints: Vec<_> =
        programs.iter().map(|u: &UbProgram| backend.fingerprint(&u.program)).collect();
    let fingerprint = campaign_fingerprint(cfg, backend, guidance);
    CampaignPlan { programs, fingerprints, groups, seed_starts, base, fingerprint }
}

/// The frontier a campaign *starts* from: the store's persisted
/// `frontier.bin` when a store directory is given, cold otherwise. Guided
/// plans are derived from exactly this state — the store is only rewritten
/// at successful campaign completion, so every participant (daemon, each
/// worker, the final merge) loading it mid-campaign sees the same snapshot.
fn starting_frontier(store_dir: Option<&Path>) -> Frontier {
    match store_dir {
        Some(dir) => Frontier::from_covered(FrontierStore::open(dir).covered().clone()),
        None => Frontier::new(),
    }
}

/// The judge step shared by the merge and a worker's range: judges the
/// campaign's group `g` (a global index inside `plan`'s slice) and
/// checkpoints its verdict into `log`.
fn compute_group(
    ctx: &CampaignCtx<'_>,
    plan: &CampaignPlan,
    g: usize,
    log: Option<&CampaignLog>,
) -> GroupVerdict {
    let group = &plan.groups[g - plan.base];
    let u = &plan.programs[group.pi];
    let verdict = judge_group(ctx, &plan.fingerprints[group.pi], u, group.sanitizer, &group.matrix);
    if let Some(log) = log {
        log.record(g, &enc_verdict(&verdict));
    }
    verdict
}

/// Plan addressing for the campaign service: the campaign fingerprint (the
/// checkpoint log identity) and the planned unit count of
/// [`CampaignPlan::new`]. `cache` is accepted for callers that predate the
/// plan handle; the plan is the same either way.
pub fn plan_campaign(cfg: &CampaignConfig, _cache: bool, store_dir: Option<&Path>) -> (u64, usize) {
    let plan = CampaignPlan::new(cfg, store_dir);
    (plan.fingerprint(), plan.units())
}

/// What one worker-mode invocation did with its leased range, in units
/// (matrix cells) of the range's groups.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RangeStats {
    /// Units of the groups freshly judged (and recorded).
    pub computed: usize,
    /// Units of the groups skipped because some shard already held their
    /// verdict.
    pub replayed: usize,
}

/// Worker-mode entry: judges the groups of `range` (global group indices
/// of the campaign plan) and records their verdicts to checkpoint shard
/// `shard` under `store_dir`. It plans only `span`, the seed span the
/// daemon mapped `range` to ([`CampaignPlan::seed_span`]); `groups` is the
/// full plan's group count, which the shard header records. Folding is the
/// daemon's job: its merge replays the shard union through the
/// canonical-order fold, so the merged report is bit-identical to a
/// single-process run. Groups any existing shard already completed are
/// skipped, which is what makes a re-issued lease over a half-finished
/// range cheap. Compiles run on the backend `cfg` resolves.
///
/// `Err` (and nothing recorded) when the span disagrees with this
/// process's plan: its seeds lie outside the campaign, they regenerate to a
/// different group count than `span.groups`, or `span.groups` does not
/// cover `range`. That is a worker whose generation drifted from the
/// daemon's, which the campaign fingerprint cannot see.
pub fn run_group_range(
    cfg: &CampaignConfig,
    workers: usize,
    store_dir: &Path,
    shard: u64,
    range: Range<usize>,
    span: &SeedSpan,
    groups: usize,
) -> Result<RangeStats, String> {
    let _obs = cfg.recorder.clone().map(obs::attach);
    if span.seeds.start > span.seeds.end || span.seeds.end > cfg.seeds {
        let seeds = cfg.seeds;
        return Err(format!("seed span {:?} is outside the campaign's {seeds} seeds", span.seeds));
    }
    let exec = Executor::new(workers);
    let backend = cfg.resolve_backend();
    let oracle = cfg.resolve_oracle();
    let ctx = CampaignCtx { cfg, backend: backend.as_ref(), oracle: oracle.as_ref() };
    let guidance = cfg.resolve_guidance(&starting_frontier(Some(store_dir)));
    let (seeds, base) = (span.seeds.clone(), span.groups.start);
    let plan = build_plan(cfg, &exec, ctx.backend, guidance.as_ref(), seeds, base);
    // The span must be exactly what these seeds plan, cover the range, and
    // sit inside the campaign: at group 0 when it starts at seed 0, at the
    // last group when it ends at the last seed.
    let slice = base..base.saturating_add(plan.groups.len());
    if slice != span.groups
        || range.start < slice.start
        || range.end > slice.end
        || slice.end > groups
        || (span.seeds.start == 0 && base != 0)
        || (span.seeds.end == cfg.seeds && slice.end != groups)
    {
        return Err(format!(
            "seeds {:?} plan groups {slice:?}, but the lease sent span {:?} for range \
             {range:?} of {groups} groups",
            span.seeds, span.groups
        ));
    }
    let log = CampaignLog::open_shard(store_dir, plan.fingerprint, groups, shard);
    let (ctx, log, plan) = (&ctx, &log, &plan);
    let outcomes = exec.map(range.collect(), |_, g| {
        let _obs = cfg.recorder.clone().map(obs::attach);
        let fresh = !log.has_replay(g);
        if fresh {
            compute_group(ctx, plan, g, Some(log));
        }
        (fresh, plan.groups[g - base].matrix.len())
    });
    let computed = outcomes.iter().filter(|(fresh, _)| *fresh).map(|(_, units)| units).sum();
    let replayed = outcomes.iter().filter(|(fresh, _)| !fresh).map(|(_, units)| units).sum();
    Ok(RangeStats { computed, replayed })
}

impl ParallelCampaign {
    /// The merge: runs this campaign over `self.shards` executor
    /// threads. With a checkpoint directory every judged group's verdict is
    /// checkpointed there and compatible prior checkpoints are replayed.
    /// `given` is used instead of planning again when it is the plan this
    /// run resolves.
    pub(crate) fn run_over(&self, given: Option<&CampaignPlan>) -> CampaignStats {
        let cfg = &self.config;
        let store_dir = self.checkpoint.as_deref();
        // Scope the campaign's recorder to the calling thread for the whole
        // run: store opens and the fold land in it. Group tasks re-attach
        // per task — worker threads are executor-internal.
        let _obs = cfg.recorder.clone().map(obs::attach);
        let exec = Executor::new(self.shards);
        let backend = cfg.resolve_backend();
        let oracle = cfg.resolve_oracle();
        let ctx = CampaignCtx { cfg, backend: backend.as_ref(), oracle: oracle.as_ref() };
        // Counters are monotone and may be shared across campaigns (one
        // backend can back every `make_tables` entry point); report this
        // run's delta.
        let cache_before = ctx.backend.prefix_cache().map(|c| c.stats()).unwrap_or_default();

        // The frontier snapshot this campaign starts from (and, when
        // guided, plans against); per-group deltas are absorbed during the
        // fold and the union is persisted back on completion.
        let mut frontier_store = store_dir.map(FrontierStore::open);
        let mut frontier = frontier_store
            .as_ref()
            .map(|s| Frontier::from_covered(s.covered().clone()))
            .unwrap_or_default();

        // Stage 1 + planning: the deterministic decomposition the campaign
        // service's workers slice. Group order is exactly the sequential
        // loop's iteration order; the fold relies on it. A `given` plan is
        // used when it is this run's (same fingerprint — a stale plan is
        // ignored, never mixed in).
        let guidance = cfg.resolve_guidance(&frontier);
        let fingerprint = campaign_fingerprint(cfg, ctx.backend, guidance.as_ref());
        let owned;
        let plan = match given {
            Some(plan) if plan.fingerprint == fingerprint => plan,
            _ => {
                let seeds = 0..cfg.seeds;
                owned = build_plan(cfg, &exec, ctx.backend, guidance.as_ref(), seeds, 0);
                &owned
            }
        };
        let CampaignPlan { programs, groups, .. } = plan;

        // The checkpoint log identifies the campaign by the full plan
        // identity and the plan size; an incompatible log on disk
        // cold-starts rather than mixes.
        let log = store_dir.map(|dir| CampaignLog::open(dir, plan.fingerprint, groups.len()));

        // Seed/program tallies are generation facts, independent of compile
        // results; fill them exactly as the sequential loop would.
        let mut stats = CampaignStats { seeds: cfg.seeds, ..CampaignStats::default() };
        for u in programs {
            *stats.ub_programs.entry(u.kind).or_default() += 1;
        }
        stats.units = plan.units();

        // Stage 2: every group's verdict, replayed or judged, in group
        // order.
        let ctx = &ctx;
        let verdicts = exec.map((0..groups.len()).collect(), |_, g| {
            let _obs = cfg.recorder.clone().map(obs::attach);
            // Replay beats recompute: a prior invocation already paid for
            // this group. Only an actual replay opens a `Replay` span; a
            // record that fails to decode falls through to the judge path.
            if let Some(log) = log.as_ref().filter(|log| log.has_replay(g)) {
                let _replay = obs::Span::enter(Stage::Replay, g as u64);
                if let Some(verdict) = log.take_replay(g, dec_verdict) {
                    return verdict;
                }
            }
            compute_group(ctx, plan, g, log.as_ref())
        });

        // Stage 3: the sequential loop's fold, in canonical group order.
        let mut bug_index: BTreeMap<String, usize> = BTreeMap::new();
        for (group, verdict) in groups.iter().zip(&verdicts) {
            frontier.absorb(&verdict.delta);
            let u = &programs[group.pi];
            fold_verdict(ctx, u, group.sanitizer, verdict, &mut stats, &mut bug_index);
        }

        stats.cache =
            ctx.backend.prefix_cache().map(|c| c.stats()).unwrap_or_default() - cache_before;
        stats.frontier_points = frontier.len();
        stats.frontier_fingerprint = frontier.fingerprint();
        if let Some(fs) = frontier_store.as_mut() {
            fs.save(frontier.covered());
        }
        stats
    }
}
