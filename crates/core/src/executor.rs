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
//! shard. It shares the merge's plan step and its judge-and-record step,
//! so a group a worker logged replays in the merge exactly as if the merge
//! had judged it, and the merge only folds.
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
/// final merge — arrives at the same plan from the same [`CampaignConfig`]
/// and store, which is what lets a bare group index address work across
/// processes. The daemon builds it once ([`CampaignPlan::new`]), carves
/// leases from [`CampaignPlan::groups`] and hands the same plan to its
/// merge ([`crate::campaign::ParallelCampaign::run_planned`]), so the merge
/// generates nothing.
pub struct CampaignPlan {
    programs: Vec<UbProgram>,
    fingerprints: Vec<ProgramFingerprint>,
    groups: Vec<Group>,
    /// Full plan identity: the checkpoint log's key (see
    /// [`campaign_fingerprint`]).
    fingerprint: u64,
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
        build_plan(cfg, &Executor::auto(), backend.as_ref(), guidance.as_ref())
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

/// Builds the campaign plan. Stage-1 generation runs on `exec`; group order
/// is exactly the sequential loop's iteration order. `guidance` — the
/// resolved guided-generation budgets, `None` in uniform mode — steers
/// generation and folds its frontier fingerprint into the plan identity,
/// so every participant must resolve it from the same frontier state (the
/// store's `frontier.bin` at campaign start).
fn build_plan(
    cfg: &CampaignConfig,
    exec: &Executor,
    backend: &dyn CompilerBackend,
    guidance: Option<&GuidePlan>,
) -> CampaignPlan {
    let toolchains = backend.toolchains();
    // Stage 1: per-seed generation, results in canonical seed order (each
    // seed id derives its own RNG stream, so scheduling cannot perturb it).
    let seed_ids: Vec<u64> = (cfg.first_seed..cfg.first_seed + cfg.seeds as u64).collect();
    let per_seed = exec.map(seed_ids, |_, seed_id| {
        // Executor worker threads carry no recorder of their own; each task
        // scopes the campaign's recorder so generation spans land in it.
        let _obs = cfg.recorder.clone().map(obs::attach);
        generate_programs(cfg, seed_id, guidance)
    });
    let programs: Vec<UbProgram> = per_seed.into_iter().flatten().collect();
    let fingerprints: Vec<_> =
        programs.iter().map(|u| backend.fingerprint(&u.program)).collect();
    let mut groups: Vec<Group> = Vec::new();
    for (pi, u) in programs.iter().enumerate() {
        for sanitizer in san::sanitizers_for(u.kind) {
            let matrix = test_matrix(&toolchains, sanitizer);
            // An empty matrix (no toolchain ships this sanitizer — e.g. a
            // gcc-only real-toolchain backend asked for MSan) plans no
            // group: judging zero cells files nothing in the sequential
            // loop either.
            if !matrix.is_empty() {
                groups.push(Group { pi, sanitizer, matrix });
            }
        }
    }
    let fingerprint = campaign_fingerprint(cfg, backend, guidance);
    CampaignPlan { programs, fingerprints, groups, fingerprint }
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

/// The plan step shared by the merge and a worker's range: resolves the
/// guidance `cfg` plans under from the starting `frontier`, then returns
/// `given` when it is that plan (same fingerprint — a stale plan is
/// ignored, never mixed in) or builds the plan into `slot`.
fn resolve_plan<'a>(
    cfg: &CampaignConfig,
    exec: &Executor,
    backend: &dyn CompilerBackend,
    frontier: &Frontier,
    given: Option<&'a CampaignPlan>,
    slot: &'a mut Option<CampaignPlan>,
) -> &'a CampaignPlan {
    let guidance = cfg.resolve_guidance(frontier);
    let fingerprint = campaign_fingerprint(cfg, backend, guidance.as_ref());
    match given {
        Some(plan) if plan.fingerprint == fingerprint => plan,
        _ => slot.insert(build_plan(cfg, exec, backend, guidance.as_ref())),
    }
}

/// The judge step shared by the merge and a worker's range: judges group
/// `g` of `plan` and checkpoints its verdict into `log`.
fn compute_group(
    ctx: &CampaignCtx<'_>,
    plan: &CampaignPlan,
    g: usize,
    log: Option<&CampaignLog>,
) -> GroupVerdict {
    let group = &plan.groups[g];
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

/// Worker-mode entry: judges the groups of `range` (group indices of the
/// plan) and records their verdicts to checkpoint shard `shard` under
/// `store_dir`. Folding is the daemon's job: its merge replays the shard
/// union through the canonical-order fold, so the merged report is
/// bit-identical to a single-process run. Groups any existing shard
/// already completed are skipped, which is what makes a re-issued lease
/// over a half-finished range cheap. Compiles run on the backend `cfg`
/// resolves.
pub fn run_group_range(
    cfg: &CampaignConfig,
    workers: usize,
    store_dir: &Path,
    shard: u64,
    range: std::ops::Range<usize>,
) -> RangeStats {
    let _obs = cfg.recorder.clone().map(obs::attach);
    let exec = Executor::new(workers);
    let backend = cfg.resolve_backend();
    let oracle = cfg.resolve_oracle();
    let ctx = CampaignCtx { cfg, backend: backend.as_ref(), oracle: oracle.as_ref() };
    let (frontier, mut owned) = (starting_frontier(Some(store_dir)), None);
    let plan = resolve_plan(cfg, &exec, ctx.backend, &frontier, None, &mut owned);
    let log = CampaignLog::open_shard(store_dir, plan.fingerprint, plan.groups.len(), shard);
    let indices: Vec<usize> = range.filter(|g| *g < plan.groups.len()).collect();
    let (ctx, log) = (&ctx, &log);
    let outcomes = exec.map(indices, |_, g| {
        let _obs = cfg.recorder.clone().map(obs::attach);
        let fresh = !log.has_replay(g);
        if fresh {
            compute_group(ctx, plan, g, Some(log));
        }
        (fresh, plan.groups[g].matrix.len())
    });
    let computed = outcomes.iter().filter(|(fresh, _)| *fresh).map(|(_, units)| units).sum();
    let replayed = outcomes.iter().filter(|(fresh, _)| !fresh).map(|(_, units)| units).sum();
    RangeStats { computed, replayed }
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

        // Stage 1 + planning: the deterministic decomposition shared with
        // the campaign service's workers. Group order is exactly the
        // sequential loop's iteration order; the fold relies on it.
        let mut owned = None;
        let plan = resolve_plan(cfg, &exec, ctx.backend, &frontier, given, &mut owned);
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
