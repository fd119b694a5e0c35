//! The unified campaign task executor: fine-grained streaming execution
//! with a canonical-order merge, checkpointing and resume.
//!
//! [`ParallelCampaign::run`] decomposes a campaign into three stages:
//!
//! 1. **Generate** — one task per seed id, producing that seed's UB programs
//!    (each seed id derives its own RNG stream from the campaign seed, so
//!    scheduling cannot perturb generation).
//! 2. **Compile+run** — one task per `(seed, program, compiler, opt,
//!    sanitizer)` unit, drained by [`Executor::map_consume`]: workers
//!    stream unit results to the oracle **in canonical unit order** with a
//!    bounded look-ahead window, so the oracle overlaps compilation and
//!    memory is capped at the window size instead of the whole campaign's
//!    compiled-module set. Units share a `CompileSession` that memoizes the
//!    sanitizer-independent `lower → early-opts` prefix.
//! 3. **Oracle merge** — the streaming consumer groups each program's
//!    compiled matrix and feeds it to [`crate::campaign::oracle_one`] — the
//!    *same* function the sequential loop runs — so discrepancy counts,
//!    crash-site mapping and dedup/attribution are bit-identical to
//!    [`crate::campaign::run_campaign`] at any worker count, on a cached
//!    or an uncached backend.
//!
//! **Checkpointing** ([`ParallelCampaign::with_checkpoint`]): every
//! completed unit is appended to a
//! [`CampaignLog`] keyed by the campaign fingerprint, and units a previous
//! invocation logged are *replayed* instead of recompiled. Because unit
//! planning is deterministic and replay is byte-faithful, a campaign killed
//! at any point and relaunched over the same store produces a final report
//! bit-identical to an uninterrupted run.
//!
//! **Worker ranges** ([`run_unit_range`]): a campaign-service worker runs
//! stages 1 and 2 over its leased unit range into its own checkpoint shard,
//! without the oracle. It shares the merge's plan step and its
//! compute-and-record step, so a unit a worker logged replays in the merge
//! exactly as if the merge had computed it.
//!
//! The determinism argument, in one line: stages 1 and 2 are pure functions
//! of their task inputs (the cache and the checkpoint log memoize a
//! deterministic function, so they can only change *when/where* a unit's
//! outcome is computed, never what it is), and stage 3 is the sequential
//! algorithm consuming those outcomes in the sequential order.

use crate::campaign::{
    compile_cell, generate_programs, oracle_one, test_matrix, CampaignConfig, CampaignCtx,
    CampaignInterrupted, CampaignStats, ParallelCampaign,
};
use ubfuzz_oracle::CompiledCell;
use crate::persist::campaign_fingerprint;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use ubfuzz_backend::{Artifact, CompilerBackend, RunOutcome};
use ubfuzz_exec::Executor;
use ubfuzz_guide::{Frontier, GuidePlan};
use ubfuzz_obs::{self as obs, Stage};
use ubfuzz_simcc::cov::CovDelta;
use ubfuzz_simcc::session::ProgramFingerprint;
use ubfuzz_simcc::target::{CompilerId, OptLevel};
use ubfuzz_simcc::{san, Sanitizer};
use ubfuzz_store::{CampaignLog, FrontierStore, UnitOutcome};
use ubfuzz_ubgen::UbProgram;

/// One compile unit: indices into the canonical program list plus the matrix
/// cell to build.
struct Unit {
    /// Canonical program index.
    pi: usize,
    /// Sanitizer under test.
    sanitizer: Sanitizer,
    /// Compiler identity.
    compiler: CompilerId,
    /// Optimization level.
    opt: OptLevel,
}

/// One `(program, sanitizer)` oracle group: the contiguous unit range whose
/// results reconstruct the program's compiled matrix for that sanitizer.
struct Group {
    pi: usize,
    sanitizer: Sanitizer,
    units: std::ops::Range<usize>,
}

/// What one unit task delivered to the streaming consumer.
// The size skew vs the payload-less `Starved` marker is fine: one `Cell`
// flows per unit through a bounded window, so boxing would only add a
// pointer hop on the hot path.
#[allow(clippy::large_enum_variant)]
enum UnitResult {
    /// Compiled (or replayed): the matrix cell identity, the outcome
    /// (`None` for unsupported cells), whether the outcome is durably
    /// in the checkpoint log (replayed from it, or recorded this run —
    /// module-less native artifacts are not), and the sanitizer coverage
    /// delta the unit exercised (captured fresh, or replayed from the log).
    Cell(CompilerId, OptLevel, Option<(Artifact, RunOutcome)>, bool, CovDelta),
    /// The unit budget ran out before this unit was computed.
    Starved,
}

/// Bounded look-ahead of the streaming merge, in units per worker: enough
/// in-flight work to keep every worker busy while the oracle consumes, small
/// enough that campaign memory stays O(workers), not O(campaign).
const STREAM_WINDOW_PER_WORKER: usize = 8;

/// The deterministic decomposition of one campaign: the canonical program
/// list, the fine-grained unit list, the oracle groups, and the plan's
/// identity. Every participant in a multi-process campaign — the daemon,
/// each worker, the final merge — arrives at the same plan from the same
/// [`CampaignConfig`] and store, which is what lets a bare unit index
/// address work across processes. The daemon builds it once
/// ([`CampaignPlan::new`]), carves leases from [`CampaignPlan::units`] and
/// hands the same plan to its merge
/// ([`crate::campaign::ParallelCampaign::run_planned`]), so the merge
/// generates nothing.
pub struct CampaignPlan {
    programs: Vec<UbProgram>,
    fingerprints: Vec<ProgramFingerprint>,
    units: Vec<Unit>,
    groups: Vec<Group>,
    /// Full plan identity: config fingerprint + resolved toolchain set.
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

    /// The planned unit count: what leases carve.
    pub fn units(&self) -> usize {
        self.units.len()
    }
}

/// Builds the campaign plan. Stage-1 generation runs on `exec`; unit and
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
    let mut units: Vec<Unit> = Vec::new();
    let mut groups: Vec<Group> = Vec::new();
    for (pi, u) in programs.iter().enumerate() {
        for sanitizer in san::sanitizers_for(u.kind) {
            let start = units.len();
            for (compiler, opt) in test_matrix(&toolchains, sanitizer) {
                units.push(Unit { pi, sanitizer, compiler, opt });
            }
            // An empty matrix (no toolchain ships this sanitizer — e.g. a
            // gcc-only real-toolchain backend asked for MSan) plans no
            // group: the oracle over zero cells is a no-op in the
            // sequential loop, and an empty group would never match the
            // consumer's end-of-group boundary check.
            if units.len() > start {
                groups.push(Group { pi, sanitizer, units: start..units.len() });
            }
        }
    }
    let fingerprint = campaign_fingerprint(cfg, &toolchains, guidance);
    CampaignPlan { programs, fingerprints, units, groups, fingerprint }
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
    let fingerprint = campaign_fingerprint(cfg, &backend.toolchains(), guidance.as_ref());
    match given {
        Some(plan) if plan.fingerprint == fingerprint => plan,
        _ => slot.insert(build_plan(cfg, exec, backend, guidance.as_ref())),
    }
}

/// The compute step shared by the merge and a worker's range: compiles and
/// runs unit `i` of `plan`, then checkpoints it into `log` — `Unsupported`
/// for a failed cell, `Done` when the artifact carries a module. A
/// module-less artifact (an opaque native binary) cannot be replayed
/// faithfully, so it stays unlogged and a resume recomputes it. Returns the
/// cell, its coverage delta, and whether the outcome is now in the log.
fn compute_unit(
    cfg: &CampaignConfig,
    backend: &dyn CompilerBackend,
    plan: &CampaignPlan,
    i: usize,
    log: Option<&CampaignLog>,
) -> (Option<(Artifact, RunOutcome)>, CovDelta, bool) {
    let unit = &plan.units[i];
    let (cell, delta) = compile_cell(
        backend,
        &cfg.registry,
        cfg.effective_san_policy(),
        &plan.fingerprints[unit.pi],
        &plan.programs[unit.pi].program,
        unit.sanitizer,
        unit.compiler,
        unit.opt,
    );
    let logged = log.is_some_and(|log| {
        let outcome = match &cell {
            None => UnitOutcome::Unsupported,
            Some((artifact, result)) => match artifact.module() {
                Some(module) => UnitOutcome::Done(module.clone(), result.clone(), delta.clone()),
                None => return false,
            },
        };
        log.record(i, &outcome);
        true
    });
    (cell, delta, logged)
}

/// Plan addressing for the campaign service: the campaign fingerprint (the
/// checkpoint log identity) and the planned unit count of
/// [`CampaignPlan::new`]. `cache` is accepted for callers that predate the
/// plan handle; the plan is the same either way.
pub fn plan_campaign(cfg: &CampaignConfig, _cache: bool, store_dir: Option<&Path>) -> (u64, usize) {
    let plan = CampaignPlan::new(cfg, store_dir);
    (plan.fingerprint(), plan.units())
}

/// What one worker-mode invocation did with its leased range.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RangeStats {
    /// Units freshly compiled (and, module-carrying, recorded).
    pub computed: usize,
    /// Units skipped because some shard already held their outcome.
    pub replayed: usize,
}

/// Worker-mode entry: computes the units of `range` and records them to
/// checkpoint shard `shard` under `store_dir`, **without** running the
/// oracle — merging is the daemon's job (it replays the shard union through
/// the canonical-order path, so the merged report is bit-identical to a
/// single-process run). Units any existing shard already completed are
/// skipped, which is what makes a re-issued lease over a half-finished
/// range cheap. Compiles run on the backend `cfg` resolves.
pub fn run_unit_range(
    cfg: &CampaignConfig,
    workers: usize,
    store_dir: &Path,
    shard: u64,
    range: std::ops::Range<usize>,
) -> RangeStats {
    let _obs = cfg.recorder.clone().map(obs::attach);
    let exec = Executor::new(workers);
    let backend = cfg.resolve_backend();
    let backend = backend.as_ref();
    let mut owned = None;
    let plan =
        resolve_plan(cfg, &exec, backend, &starting_frontier(Some(store_dir)), None, &mut owned);
    let log = CampaignLog::open_shard(store_dir, plan.fingerprint, plan.units.len(), shard);
    let indices: Vec<usize> = range.filter(|i| *i < plan.units.len()).collect();
    let log = &log;
    let outcomes = exec.map(indices, |_, i| {
        let _obs = cfg.recorder.clone().map(obs::attach);
        if log.has_replay(i) {
            return false;
        }
        compute_unit(cfg, backend, plan, i, Some(log));
        true
    });
    let computed = outcomes.iter().filter(|fresh| **fresh).count();
    RangeStats { computed, replayed: outcomes.len() - computed }
}

impl ParallelCampaign {
    /// The merge: runs this campaign over `self.shards` executor
    /// threads. With a checkpoint directory every completed unit is
    /// checkpointed there and compatible prior checkpoints are replayed;
    /// the unit budget (testing hook) bounds the *newly computed* units
    /// before the run reports [`CampaignInterrupted`]. `given` is used
    /// instead of planning again when it is the plan this run resolves.
    pub(crate) fn try_run_planned(
        &self,
        given: Option<&CampaignPlan>,
    ) -> Result<CampaignStats, CampaignInterrupted> {
        let cfg = &self.config;
        let workers = self.shards;
        let store_dir = self.checkpoint.as_deref();
        // Scope the campaign's recorder to this (consumer) thread for the
        // whole run: store opens, replay spans and oracle spans all land in
        // it. Unit tasks re-attach per task — worker threads are
        // executor-internal.
        let _obs = cfg.recorder.clone().map(obs::attach);
        let exec = Executor::new(workers);
        let backend = cfg.resolve_backend();
        let backend = backend.as_ref();
        let oracle = cfg.resolve_oracle();
        let ctx = CampaignCtx { cfg, backend, oracle: oracle.as_ref() };
        // Counters are monotone and may be shared across campaigns (one
        // backend can back every `make_tables` entry point); report this
        // run's delta.
        let cache_before = backend.prefix_cache().map(|c| c.stats()).unwrap_or_default();

        // The frontier snapshot this campaign starts from (and, when
        // guided, plans against); per-unit deltas are absorbed during the
        // merge and the union is persisted back on successful completion.
        let mut frontier_store = store_dir.map(FrontierStore::open);
        let mut frontier = frontier_store
            .as_ref()
            .map(|s| Frontier::from_covered(s.covered().clone()))
            .unwrap_or_default();

        // Stages 1 + planning: the deterministic decomposition shared with
        // the campaign service's workers. Group order (and unit order
        // within a group) is exactly the sequential loop's iteration order;
        // the streaming merge below relies on it.
        let mut owned = None;
        let plan = resolve_plan(cfg, &exec, backend, &frontier, given, &mut owned);
        let CampaignPlan { programs, units, groups, .. } = plan;

        // The checkpoint log identifies the campaign by the full plan
        // identity — config fingerprint plus the resolved toolchain set
        // (unit indices map to matrix cells through `toolchains()`) — and
        // the plan size; an incompatible log on disk cold-starts rather
        // than mixes.
        let log = store_dir.map(|dir| CampaignLog::open(dir, plan.fingerprint, units.len()));
        let budget = AtomicU64::new(self.unit_budget.unwrap_or(u64::MAX));

        // Seed/program tallies are generation facts, independent of compile
        // results; fill them exactly as the sequential loop would.
        let mut stats = CampaignStats { seeds: cfg.seeds, ..CampaignStats::default() };
        for u in programs {
            *stats.ub_programs.entry(u.kind).or_default() += 1;
        }
        stats.units = units.len();

        // Stages 2+3, overlapped: workers compute (or replay) units; the
        // consumer below reassembles each group's matrix in canonical order
        // and runs the oracle as soon as the group completes.
        let mut bug_index: BTreeMap<String, usize> = BTreeMap::new();
        let mut starved = false;
        let mut completed_cells = 0usize;
        let mut gi = 0usize;
        let mut group_cells: Vec<CompiledCell> = Vec::new();
        let window = workers.saturating_mul(STREAM_WINDOW_PER_WORKER).max(1);
        let total_units = units.len();
        exec.map_consume(
            units.iter().collect(),
            window,
            |i, unit| {
                let _obs = cfg.recorder.clone().map(obs::attach);
                // Replay beats recompute: a prior invocation already paid
                // for this unit. `take_replay` moves the outcome out of the
                // log, so replayed modules live only as long as their trip
                // through the bounded stream — resume memory stays
                // O(window).
                if let Some(log) = &log {
                    // Only an actual replay opens a `Replay` span — units
                    // with nothing logged fall through to the compute path
                    // unspanned.
                    if log.has_replay(i) {
                        let _replay = obs::Span::enter(Stage::Replay, i as u64);
                        match log.take_replay(i) {
                            Some(UnitOutcome::Unsupported) => {
                                return UnitResult::Cell(
                                    unit.compiler,
                                    unit.opt,
                                    None,
                                    true,
                                    CovDelta::new(),
                                )
                            }
                            Some(UnitOutcome::Done(module, result, delta)) => {
                                return UnitResult::Cell(
                                    unit.compiler,
                                    unit.opt,
                                    Some((Artifact::Sim(module), result)),
                                    true,
                                    delta,
                                )
                            }
                            None => {}
                        }
                    }
                }
                // Claim budget *before* computing, so a "kill" stops work.
                if budget
                    .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |b| b.checked_sub(1))
                    .is_err()
                {
                    return UnitResult::Starved;
                }
                let (cell, delta, logged) = compute_unit(cfg, backend, plan, i, log.as_ref());
                UnitResult::Cell(unit.compiler, unit.opt, cell, logged, delta)
            },
            |i, result| {
                match result {
                    UnitResult::Starved => starved = true,
                    UnitResult::Cell(compiler, opt, cell, logged, delta) => {
                        completed_cells += usize::from(logged);
                        if !starved {
                            frontier.absorb(&delta);
                            if let Some((artifact, outcome)) = cell {
                                group_cells.push(CompiledCell { compiler, opt, artifact, outcome });
                            }
                        }
                    }
                }
                // Group boundary: the oracle consumes the finished matrix.
                // (A starved run keeps consuming — cheaply — so the stream
                // drains, but files no results: the partial campaign is
                // reported as interrupted, never as a report.)
                while gi < groups.len() && groups[gi].units.end == i + 1 {
                    if !starved {
                        let g = &groups[gi];
                        oracle_one(
                            &ctx,
                            &programs[g.pi],
                            g.sanitizer,
                            &group_cells,
                            &mut stats,
                            &mut bug_index,
                        );
                    }
                    group_cells.clear();
                    gi += 1;
                }
            },
        );

        stats.cache =
            backend.prefix_cache().map(|c| c.stats()).unwrap_or_default() - cache_before;
        if starved {
            // Interrupted: the checkpoint log holds every completed unit's
            // delta, so the resume reconstructs the frontier; persisting a
            // partial union here would hand the *next* campaign a frontier
            // no finished run ever produced.
            return Err(CampaignInterrupted { completed: completed_cells, total: total_units });
        }
        stats.frontier_points = frontier.len();
        stats.frontier_fingerprint = frontier.fingerprint();
        if let Some(fs) = frontier_store.as_mut() {
            fs.save(frontier.covered());
        }
        Ok(stats)
    }
}
