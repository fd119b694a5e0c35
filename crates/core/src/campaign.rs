//! The automated testing loop (paper §4.1 "Testing process") plus bug
//! deduplication/attribution.
//!
//! A campaign is described by a [`CampaignConfig`] (built with
//! [`CampaignConfig::builder`]) and run by one of two drivers:
//! [`run_campaign`], the sequential reference loop, or [`ParallelCampaign`],
//! the one parallel runner (worker count, checkpoint directory, unit
//! budget). Where prefixes are cached is the backend's choice
//! ([`CampaignConfig::backend`]): no backend means a cached [`SimBackend`]
//! for the runner and an uncached one for the reference loop, and an
//! uncached parallel run passes `SimBackend::uncached()` explicitly.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use ubfuzz_backend::{CompileRequest, CompilerBackend, RunRequest, SimBackend, ToolchainDesc};
use ubfuzz_guide::{plan_guidance, Frontier, GuidePlan, Strategy};
use ubfuzz_minic::{pretty, Program, UbKind};
use ubfuzz_oracle::{
    CompiledCell, CrashOracle, DropReason, OracleInput, OracleStack, OracleTelemetry,
};
use ubfuzz_seedgen::{generate_seed, SeedOptions};
use ubfuzz_simcc::cov::{self, CovDelta};
use ubfuzz_simcc::defects::DefectRegistry;
use ubfuzz_simcc::session::{ProgramFingerprint, SessionStats};
use ubfuzz_simcc::target::{CompilerId, OptLevel, Vendor};
use ubfuzz_simcc::{san, Module, SanPolicy, Sanitizer};
use ubfuzz_obs::{self as obs, Stage};
use ubfuzz_ubgen::{GenOptions, UbProgram};

/// Which generator feeds the campaign (the §4.3 comparison).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GeneratorChoice {
    /// UBfuzz shadow-statement insertion (the paper's tool).
    Ubfuzz,
    /// MUSIC-style mutation baseline.
    Music,
    /// Csmith-NoSafe baseline.
    CsmithNoSafe,
    /// The Juliet-style fixed corpus.
    Juliet,
}

/// MUSIC mutants generated per seed (the paper's 14k mutants from 1k
/// seeds). One definition: both program generation and the prefix-cache
/// sizing bound derive from it, so they cannot drift apart.
pub const MUSIC_MUTANTS_PER_SEED: u64 = 14;

/// Campaign configuration.
///
/// Prefer [`CampaignConfig::builder`] over field-struct construction: the
/// builder survives field additions (the `backend` field is the precedent)
/// and is the supported construction path for examples, benches and tests.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// First seed index.
    pub first_seed: u64,
    /// Number of seed programs.
    pub seeds: usize,
    /// Seed generator options.
    pub seed_options: SeedOptions,
    /// UB generator options.
    pub gen_options: GenOptions,
    /// The defect world under test.
    pub registry: DefectRegistry,
    /// Which generator to drive (paper §4.3 swaps baselines in).
    pub generator: GeneratorChoice,
    /// Generation strategy: [`Strategy::Uniform`] (the default) is the
    /// bit-identical reference mode; [`Strategy::Guided`] re-weights
    /// UB-kind budgets toward unreached sanitizer coverage points, derived
    /// purely from `(campaign seed, frontier at campaign start)` so a fixed
    /// seed over a fixed frontier replays bit-identically. Only the
    /// [`GeneratorChoice::Ubfuzz`] generator consults it.
    pub strategy: Strategy,
    /// Reduce bug-triggering programs before reporting.
    pub reduce: bool,
    /// Partial-sanitization policy for every compile cell (the
    /// PartiSan-style overhead/detection trade-off). [`SanPolicy::Full`]
    /// (the default) is bit-identical to the pre-partition pipeline. A
    /// `Partial` policy has the campaign seed folded into its salt once, up
    /// front ([`CampaignConfig::effective_san_policy`]), so distinct
    /// campaigns sample distinct site subsets while any one campaign
    /// replays the same subset at every worker count.
    pub san_policy: SanPolicy,
    /// The compilation/execution backend, and with it the compile-cache
    /// choice. `None` (the default) gives [`ParallelCampaign`] a fresh
    /// cached [`SimBackend`] per run (session sized by
    /// [`CampaignConfig::prefix_key_bound`]) and [`run_campaign`] an
    /// uncached one; an explicit backend is shared as-is — its cache (if
    /// any) persists across every run over this config, which is what
    /// cross-campaign prefix reuse builds on.
    pub backend: Option<Arc<dyn CompilerBackend>>,
    /// The test oracle judging each program's compiled matrix. `None` (the
    /// default) is the paper's crash-site-mapping stack
    /// ([`OracleStack::standard`]); ablations select a different stack
    /// ([`OracleStack::naive`]) instead of forking campaign code.
    pub oracle: Option<Arc<dyn CrashOracle>>,
    /// Observability recorder receiving the campaign's stage spans and
    /// counters (a [`ubfuzz_obs::MetricsSink`], a
    /// [`ubfuzz_obs::TraceRecorder`], …). `None` (the default) leaves every
    /// probe inert. Pure telemetry: excluded from the campaign fingerprint
    /// (see `persist::config_fingerprint`'s explicit field list) and from
    /// result equality — an attached recorder changes no output byte.
    pub recorder: Option<Arc<dyn obs::Recorder>>,
}

impl Default for CampaignConfig {
    fn default() -> CampaignConfig {
        CampaignConfig {
            first_seed: 0,
            seeds: 20,
            seed_options: SeedOptions::default(),
            gen_options: GenOptions::default(),
            registry: DefectRegistry::full(),
            generator: GeneratorChoice::Ubfuzz,
            strategy: Strategy::Uniform,
            reduce: false,
            san_policy: SanPolicy::Full,
            backend: None,
            oracle: None,
            recorder: None,
        }
    }
}

impl CampaignConfig {
    /// Starts a builder over the default configuration.
    pub fn builder() -> CampaignConfigBuilder {
        CampaignConfigBuilder::default()
    }

    /// An upper bound on the UB programs one seed can expand into under
    /// this config's generator.
    fn programs_per_seed_bound(&self) -> usize {
        match self.generator {
            GeneratorChoice::Ubfuzz => {
                ubfuzz_minic::UbKind::GENERATABLE.len() * self.gen_options.max_per_kind
            }
            GeneratorChoice::Music => MUSIC_MUTANTS_PER_SEED as usize,
            GeneratorChoice::CsmithNoSafe => 1,
            // Fixed corpus, emitted once on the first seed.
            GeneratorChoice::Juliet => ubfuzz_baselines::juliet_suite().len(),
        }
    }

    /// An upper bound on the distinct prefix-cache keys this campaign (and
    /// its figure replays) can touch: seeds × programs-per-seed × every
    /// vendor's versions (stable + dev) × optimization levels.
    ///
    /// This is what sizes compile sessions' key budget. The bound is a
    /// *budget*, not an allocation, and it no longer keeps a campaign
    /// resident: the session's constant byte ceiling
    /// (`CompileSession::MAX_RESIDENT_BYTES`) evicts long before a
    /// campaign-scale key count is reached. Reuse across campaigns and
    /// invocations comes from the store.
    pub fn prefix_key_bound(&self) -> usize {
        let compilers: usize = Vendor::ALL
            .iter()
            .map(|v| v.stable_versions().count() + 1)
            .sum();
        self.seeds
            .max(1)
            .saturating_mul(self.programs_per_seed_bound().max(1))
            .saturating_mul(compilers)
            .saturating_mul(OptLevel::ALL.len())
            .max(ubfuzz_simcc::session::CompileSession::DEFAULT_CAPACITY)
    }

    /// The backend this config's parallel campaigns compile and execute
    /// on: the configured one, or a fresh cached [`SimBackend`] whose
    /// session is sized by [`CampaignConfig::prefix_key_bound`].
    pub(crate) fn resolve_backend(&self) -> Arc<dyn CompilerBackend> {
        match &self.backend {
            Some(b) => Arc::clone(b),
            None => Arc::new(SimBackend::with_session(
                ubfuzz_simcc::session::CompileSession::with_capacity(self.prefix_key_bound()),
            )),
        }
    }

    /// The oracle this config's campaigns judge discrepancies with: the
    /// configured stack, or the paper's standard one.
    pub(crate) fn resolve_oracle(&self) -> Arc<dyn CrashOracle> {
        match &self.oracle {
            Some(o) => Arc::clone(o),
            None => Arc::new(OracleStack::standard()),
        }
    }

    /// The site-subset policy compile cells actually run under: the
    /// configured policy with the campaign seed folded into a `Partial`
    /// salt. Pure function of the config — every worker and the sequential
    /// reference derive the same subset.
    pub fn effective_san_policy(&self) -> SanPolicy {
        self.san_policy.seeded(self.first_seed)
    }

    /// The guided-generation plan this campaign runs under: `None` for the
    /// uniform reference mode, otherwise the budgets derived purely from
    /// `(campaign seed, frontier)` — the frontier loaded from the store at
    /// campaign start, or the cold (empty) one when there is no store.
    pub(crate) fn resolve_guidance(&self, frontier: &Frontier) -> Option<GuidePlan> {
        match self.strategy {
            Strategy::Uniform => None,
            Strategy::Guided => {
                Some(plan_guidance(self.first_seed, &self.gen_options, frontier))
            }
        }
    }
}

/// Builder for [`CampaignConfig`]. Runner settings (worker count,
/// checkpoint directory) belong to [`ParallelCampaign`], not the config.
#[derive(Debug, Clone, Default)]
pub struct CampaignConfigBuilder {
    cfg: CampaignConfig,
}

impl CampaignConfigBuilder {
    /// First seed index.
    pub fn first_seed(mut self, first_seed: u64) -> Self {
        self.cfg.first_seed = first_seed;
        self
    }

    /// Number of seed programs.
    pub fn seeds(mut self, seeds: usize) -> Self {
        self.cfg.seeds = seeds;
        self
    }

    /// Seed generator options.
    pub fn seed_options(mut self, seed_options: SeedOptions) -> Self {
        self.cfg.seed_options = seed_options;
        self
    }

    /// UB generator options.
    pub fn gen_options(mut self, gen_options: GenOptions) -> Self {
        self.cfg.gen_options = gen_options;
        self
    }

    /// The defect world under test.
    pub fn registry(mut self, registry: DefectRegistry) -> Self {
        self.cfg.registry = registry;
        self
    }

    /// Which generator feeds the campaign.
    pub fn generator(mut self, generator: GeneratorChoice) -> Self {
        self.cfg.generator = generator;
        self
    }

    /// Generation strategy (defaults to [`Strategy::Uniform`]).
    pub fn strategy(mut self, strategy: Strategy) -> Self {
        self.cfg.strategy = strategy;
        self
    }

    /// Reduce bug-triggering programs before reporting.
    pub fn reduce(mut self, reduce: bool) -> Self {
        self.cfg.reduce = reduce;
        self
    }

    /// Partial-sanitization policy (defaults to the bit-identical
    /// [`SanPolicy::Full`]).
    pub fn san_policy(mut self, san_policy: SanPolicy) -> Self {
        self.cfg.san_policy = san_policy;
        self
    }

    /// Explicit compilation/execution backend (shared across runs).
    pub fn backend(mut self, backend: Arc<dyn CompilerBackend>) -> Self {
        self.cfg.backend = Some(backend);
        self
    }

    /// Explicit test oracle (defaults to the paper's crash-site-mapping
    /// stack, [`OracleStack::standard`]).
    pub fn oracle(mut self, oracle: Arc<dyn CrashOracle>) -> Self {
        self.cfg.oracle = Some(oracle);
        self
    }

    /// Observability recorder for the campaign's stage spans and counters
    /// (pure telemetry — never affects results, fingerprints or equality).
    pub fn recorder(mut self, recorder: Arc<dyn obs::Recorder>) -> Self {
        self.cfg.recorder = Some(recorder);
        self
    }

    /// The finished configuration.
    pub fn build(self) -> CampaignConfig {
        self.cfg
    }
}

/// One deduplicated bug found by the campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FoundBug {
    /// Vendor whose sanitizer missed (or mis-reported) the UB.
    pub vendor: Vendor,
    /// The sanitizer.
    pub sanitizer: Sanitizer,
    /// Ground-truth UB kind of the triggering programs.
    pub kind: UbKind,
    /// Attribution: ground-truth defect id (the analogue of the paper's
    /// root-cause analysis), or `None` for the invalid-report case.
    pub defect_id: Option<&'static str>,
    /// True when attribution found no defect but a legitimate transform —
    /// the paper's one "Invalid" report.
    pub invalid: bool,
    /// True for wrong-report bugs (report fired with wrong line info).
    pub wrong_report: bool,
    /// Optimization levels observed to miss the UB.
    pub missed_at: Vec<OptLevel>,
    /// A (possibly reduced) triggering program.
    pub test_case: String,
    /// Number of triggering programs deduplicated into this bug.
    pub duplicates: usize,
}

impl FoundBug {
    /// The stable attribution key this bug deduplicates under — also the
    /// key the cross-invocation bug corpus merges by (see
    /// [`crate::persist`]).
    pub fn corpus_key(&self) -> String {
        dedup_key(self.defect_id, self.invalid, self.vendor, self.sanitizer, self.kind)
    }
}

/// Aggregate campaign statistics (feeds Tables 3/4/6 and Figs. 7/10/11).
#[derive(Debug, Clone, Default)]
pub struct CampaignStats {
    /// Seeds consumed.
    pub seeds: usize,
    /// UB programs generated (per kind).
    pub ub_programs: BTreeMap<UbKind, usize>,
    /// Programs whose compilations produced discrepant sanitizer reports.
    pub discrepancies: usize,
    /// Discrepancies selected by crash-site mapping as sanitizer bugs.
    pub selected: usize,
    /// Discrepancies dropped as optimization artifacts.
    pub dropped: usize,
    /// Deduplicated bugs.
    pub bugs: Vec<FoundBug>,
    /// Compile-cache telemetry of the run (hits/misses/reuse ratio). Zero on
    /// the uncached sequential path.
    pub cache: SessionStats,
    /// Planned compile units (matrix cells) of the run — throughput
    /// denominator for benches. Execution metadata like `cache`: excluded
    /// from equality.
    pub units: usize,
    /// Per-sanitizer drop accounting (`no-module` / `no-trace` /
    /// `optimization-artifact`) — what makes real-toolchain campaigns
    /// debuggable. Execution metadata like `cache` (trace availability can
    /// vary between machines): excluded from equality.
    pub oracle: OracleTelemetry,
    /// Sanitizer coverage points covered by the end of the run (loaded
    /// frontier plus every unit's delta). Every unit runs its sanitizer
    /// pass, so a warm store covers what a cold one does; the count still
    /// depends on the frontier loaded from a store, so like `cache` it is
    /// execution metadata, excluded from equality.
    pub frontier_points: usize,
    /// FNV fingerprint of that final frontier (see
    /// [`ubfuzz_guide::Frontier::fingerprint`]). Excluded from equality.
    pub frontier_fingerprint: u64,
}

impl CampaignStats {
    /// Total generated UB programs.
    pub fn total_programs(&self) -> usize {
        self.ub_programs.values().sum()
    }
}

/// Equality compares campaign *results* — the fields the paper's tables and
/// figures render. Cache telemetry is execution metadata: with a shared
/// cache, *which* lookup hits depends on worker scheduling, so including it
/// would spuriously fail the sequential-vs-parallel bit-identity property
/// the whole design preserves. The oracle's drop-reason breakdown follows
/// the same rule: whether a drop was arbitrated or merely untraceable
/// depends on the machine's trace equipment, never on the results.
impl PartialEq for CampaignStats {
    fn eq(&self, other: &CampaignStats) -> bool {
        self.seeds == other.seeds
            && self.ub_programs == other.ub_programs
            && self.discrepancies == other.discrepancies
            && self.selected == other.selected
            && self.dropped == other.dropped
            && self.bugs == other.bugs
    }
}

impl Eq for CampaignStats {}

/// The compile matrix for one sanitizer: every backend toolchain that ships
/// the sanitizer, at every optimization level the paper enables, in the
/// backend's stable toolchain order. For [`SimBackend`] this is exactly the
/// paper's matrix — both vendors' development heads minus GCC × MSan.
pub(crate) fn test_matrix(
    toolchains: &[ToolchainDesc],
    sanitizer: Sanitizer,
) -> Vec<(CompilerId, OptLevel)> {
    let mut out = Vec::new();
    for tc in toolchains {
        if !tc.supports(sanitizer) {
            continue;
        }
        for opt in OptLevel::ALL {
            out.push((tc.id, opt));
        }
    }
    out
}

/// Runs the full loop: generate seeds → generate UB programs → differential
/// testing → crash-site mapping → dedup/attribution.
///
/// This is the *sequential* reference implementation the parallel executor
/// ([`ParallelCampaign`]) is property-tested against. Without an explicit
/// backend in the config it compiles on an uncached [`SimBackend`], so
/// equivalence checks exercise the cache on one side only.
///
/// The sequential path is storeless, so a guided config plans against the
/// cold frontier — exactly what a parallel guided run over a fresh (or
/// absent) store does, preserving the sequential≡parallel property.
pub fn run_campaign(cfg: &CampaignConfig) -> CampaignStats {
    let _obs = cfg.recorder.clone().map(obs::attach);
    let backend = cfg.backend.clone().unwrap_or_else(|| Arc::new(SimBackend::uncached()));
    let backend = backend.as_ref();
    let toolchains = backend.toolchains();
    let oracle = cfg.resolve_oracle();
    let ctx = CampaignCtx { cfg, backend, oracle: oracle.as_ref() };
    let cache_before = backend.prefix_cache().map(|c| c.stats()).unwrap_or_default();
    let mut frontier = Frontier::new();
    let guidance = cfg.resolve_guidance(&frontier);
    let mut stats = CampaignStats::default();
    let mut bug_index: BTreeMap<String, usize> = BTreeMap::new();
    for seed_id in cfg.first_seed..cfg.first_seed + cfg.seeds as u64 {
        stats.seeds += 1;
        for u in generate_programs(cfg, seed_id, guidance.as_ref()) {
            *stats.ub_programs.entry(u.kind).or_default() += 1;
            let fp = backend.fingerprint(&u.program);
            for sanitizer in san::sanitizers_for(u.kind) {
                let matrix = test_matrix(&toolchains, sanitizer);
                stats.units += matrix.len();
                let verdict = judge_group(&ctx, &fp, &u, sanitizer, &matrix);
                frontier.absorb(&verdict.delta);
                fold_verdict(&ctx, &u, sanitizer, &verdict, &mut stats, &mut bug_index);
            }
        }
    }
    stats.cache =
        backend.prefix_cache().map(|c| c.stats()).unwrap_or_default() - cache_before;
    stats.frontier_points = frontier.len();
    stats.frontier_fingerprint = frontier.fingerprint();
    stats
}

/// The parallel campaign runner: an ordered task executor over `(program,
/// sanitizer)` groups — each task compiles, runs and judges one group's
/// matrix — with the verdicts folded back in canonical order (see
/// [`crate::executor`]).
///
/// The merged [`CampaignStats`] is **identical** to what [`run_campaign`]
/// produces for the same config — same bugs, same order, same test cases,
/// same `missed_at`/`duplicates` — so the paper's tables and figures are
/// reproducible at any worker count, on a cached or an uncached backend:
///
/// * every seed id derives its own deterministic RNG from the campaign seed,
///   so thread scheduling cannot perturb any generated program;
/// * group verdicts are pure functions of their inputs (the shared
///   [`CompileSession`] memoizes a deterministic pipeline prefix, so cache
///   state never changes what a cell returns);
/// * the dedup/attribution fold consumes verdicts in exactly the sequential
///   loop's order.
///
/// This is the one way to configure a parallel run:
/// `ParallelCampaign::new(cfg).with_shards(n).with_checkpoint(dir)`. An
/// uncached run is `.with_backend(Arc::new(SimBackend::uncached()))`; a
/// recorded one carries its recorder in the config
/// ([`CampaignConfigBuilder::recorder`]).
#[derive(Debug, Clone)]
pub struct ParallelCampaign {
    pub(crate) config: CampaignConfig,
    pub(crate) shards: usize,
    pub(crate) checkpoint: Option<std::path::PathBuf>,
}

impl ParallelCampaign {
    /// A runner over `config` with one worker per available core. Without
    /// a backend in `config` it compiles on a fresh cached [`SimBackend`].
    pub fn new(config: CampaignConfig) -> ParallelCampaign {
        let shards = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        ParallelCampaign { config, shards, checkpoint: None }
    }

    /// Overrides the worker count (must be nonzero). The name is historical:
    /// workers no longer own seed ranges, they claim `(program, sanitizer)`
    /// groups, so even a 1-seed campaign spreads across all of them.
    pub fn with_shards(mut self, shards: usize) -> ParallelCampaign {
        assert!(shards > 0, "shard count must be nonzero");
        self.shards = shards;
        self
    }

    /// Sets an explicit compilation/execution backend (shared across runs),
    /// which also decides whether compiles are cached.
    pub fn with_backend(mut self, backend: Arc<dyn CompilerBackend>) -> ParallelCampaign {
        self.config.backend = Some(backend);
        self
    }

    /// Checkpoints every judged group's verdict into the store directory
    /// `dir` (file `campaign.bin`) as soon as the group is judged, and
    /// resumes from any compatible log already there.
    ///
    /// Compatibility is by campaign fingerprint (see
    /// [`crate::persist::config_fingerprint`]): a log written by a
    /// different configuration is discarded, never mixed in. Replay is
    /// bit-faithful, so a campaign killed at any point (what a SIGKILL
    /// leaves is a prefix of the log's records, at most one of them torn)
    /// renders, once resumed, the same report as an uninterrupted one — the
    /// property `tests/store.rs` checks over record prefixes of a finished
    /// log at several worker counts.
    pub fn with_checkpoint(mut self, dir: impl Into<std::path::PathBuf>) -> ParallelCampaign {
        self.checkpoint = Some(dir.into());
        self
    }

    /// Runs the campaign on the group executor and folds in seed order.
    pub fn run(&self) -> CampaignStats {
        self.run_over(None)
    }

    /// [`ParallelCampaign::run`] over a plan the caller already built for
    /// this config and checkpoint store (the campaign daemon plans once to
    /// carve leases, then merges over the same plan), so the run generates
    /// nothing. A plan whose fingerprint this run does not resolve is
    /// ignored and the campaign plans afresh.
    pub fn run_planned(&self, plan: &crate::executor::CampaignPlan) -> CampaignStats {
        self.run_over(Some(plan))
    }
}

pub(crate) fn dedup_key(
    defect_id: Option<&'static str>,
    invalid: bool,
    vendor: Vendor,
    sanitizer: Sanitizer,
    kind: UbKind,
) -> String {
    match defect_id {
        Some(id) => format!("defect:{id}"),
        None if invalid => format!("invalid:{vendor}:{sanitizer}:{kind}"),
        None => format!("unknown:{vendor}:{sanitizer}:{kind}"),
    }
}

/// Expands one seed into UB programs. `guidance` (the resolved per-kind
/// budgets of a guided campaign, `None` in uniform mode) only steers the
/// Ubfuzz generator — baselines are comparison points and stay unweighted.
pub(crate) fn generate_programs(
    cfg: &CampaignConfig,
    seed_id: u64,
    guidance: Option<&GuidePlan>,
) -> Vec<UbProgram> {
    let _span = obs::Span::enter(Stage::Generate, seed_id);
    match cfg.generator {
        GeneratorChoice::Ubfuzz => {
            let seed = generate_seed(seed_id, &cfg.seed_options);
            let mut opts = cfg.gen_options.clone();
            opts.rng_seed = seed_id.wrapping_mul(31).wrapping_add(7);
            match guidance {
                Some(plan) => ubfuzz_ubgen::generate_budgeted(&seed, &plan.budgets, &opts),
                None => ubfuzz_ubgen::generate_all(&seed, &opts),
            }
        }
        GeneratorChoice::Music => {
            let seed = generate_seed(seed_id, &cfg.seed_options);
            (0..MUSIC_MUTANTS_PER_SEED)
                .filter_map(|m| {
                    let p = ubfuzz_baselines::music::mutate(&seed, seed_id * 100 + m);
                    classify(p)
                })
                .collect()
        }
        GeneratorChoice::CsmithNoSafe => {
            let p = generate_seed(seed_id, &ubfuzz_baselines::nosafe_options());
            classify(p).into_iter().collect()
        }
        GeneratorChoice::Juliet => {
            if seed_id == cfg.first_seed {
                ubfuzz_baselines::juliet_suite()
                    .into_iter()
                    .map(|c| UbProgram {
                        program: c.program.clone(),
                        kind: c.kind,
                        ub_loc: ground_truth_loc(&c.program).unwrap_or_default(),
                        ub_node: ubfuzz_minic::NodeId::DUMMY,
                        description: c.name,
                    })
                    .collect()
            } else {
                Vec::new()
            }
        }
    }
}

fn ground_truth_loc(p: &Program) -> Option<ubfuzz_minic::Loc> {
    ubfuzz_interp::run_program(p).ub().map(|ev| ev.loc)
}

/// Classifies a baseline-generated program with the reference interpreter
/// (the role sanitizers play for MUSIC in §4.3, footnote 4); `None` when the
/// program has no UB, does not terminate or is invalid.
fn classify(p: Program) -> Option<UbProgram> {
    let outcome = ubfuzz_interp::run_program(&p);
    let ev = outcome.ub()?;
    Some(UbProgram {
        kind: ev.kind,
        ub_loc: ev.loc,
        ub_node: ev.node,
        description: format!("baseline-generated {}", ev.kind),
        program: p,
    })
}

/// The per-campaign judgment context: configuration, the backend that
/// builds/runs cells, and the oracle that judges them. One per campaign —
/// shared verbatim by the sequential loop and the group executor, so the
/// two paths cannot drift.
pub(crate) struct CampaignCtx<'a> {
    pub cfg: &'a CampaignConfig,
    pub backend: &'a dyn CompilerBackend,
    pub oracle: &'a dyn CrashOracle,
}

/// One cell the oracle filed from a judged group: a wrong report, or a
/// normal exit Algorithm 2 selected as a sanitizer FN bug.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Observation {
    /// Vendor of the cell's compiler.
    pub vendor: Vendor,
    /// The cell's optimization level.
    pub opt: OptLevel,
    /// Whether the cell carries a wrong report rather than a miss.
    pub wrong_report: bool,
    /// The `(defect id, invalid)` attribution keys the cell's module
    /// files under, in dedup order.
    pub keys: Vec<(Option<&'static str>, bool)>,
}

/// The oracle's judgment of one `(program, sanitizer)` group: everything
/// the campaign folds into its statistics, and all the checkpoint log
/// keeps of the group (`crate::persist` owns its codec).
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct GroupVerdict {
    /// The matrix holds a report/normal-exit discrepancy.
    pub discrepancy: bool,
    /// Why the discrepancy was dropped; `None` on a discrepancy means it
    /// was selected as a bug.
    pub dropped: Option<DropReason>,
    /// The partial-sanitization policy skipped the UB check site.
    pub expected_miss: bool,
    /// Filed cells, wrong reports first, each in cell order.
    pub observations: Vec<Observation>,
    /// The sanitizer coverage the group's cells exercised.
    pub delta: CovDelta,
}

/// The judge half of the campaign loop: compiles and runs one program's
/// `matrix` for `sanitizer`, judges the cells with the configured
/// [`CrashOracle`] and reduces the judgment to a [`GroupVerdict`]. A pure
/// function of its inputs, so the executor runs it on any worker, and the
/// checkpoint log stores the verdict instead of the cells: judging is the
/// only reader of the compiled modules (crash-site traces, applied
/// defects), so once a group is judged nothing else needs them.
///
/// Each cell runs inside a [`cov::capture`] scope; the verdict's
/// [`CovDelta`] is the union of what the cells exercised — the feedback
/// signal guided generation steers by. A cell that fails to compile
/// contributes no coverage, even if hits fired before the failure, just as
/// it contributes no cell to the oracle's matrix.
pub(crate) fn judge_group(
    ctx: &CampaignCtx<'_>,
    fp: &ProgramFingerprint,
    u: &UbProgram,
    sanitizer: Sanitizer,
    matrix: &[(CompilerId, OptLevel)],
) -> GroupVerdict {
    let (registry, san_policy) = (&ctx.cfg.registry, ctx.cfg.effective_san_policy());
    let mut delta = CovDelta::new();
    let cells: Vec<CompiledCell> = matrix
        .iter()
        .filter_map(|&(compiler, opt)| {
            let (cell, cell_delta) = cov::capture(|| {
                let sanitizer = Some(sanitizer);
                let req = CompileRequest { compiler, opt, sanitizer, registry, san_policy };
                let artifact = ctx.backend.compile(fp, &u.program, &req).ok()?;
                let outcome = obs::time(Stage::Run, 0, || {
                    ctx.backend.execute(&artifact, &RunRequest::default())
                });
                Some(CompiledCell { compiler, opt, artifact, outcome })
            });
            if cell.is_some() {
                delta.merge(&cell_delta);
            }
            cell
        })
        .collect();
    let verdicts = {
        let _span = obs::Span::enter(Stage::Oracle, 0);
        ctx.oracle.judge(
            ctx.backend,
            OracleInput { sanitizer, ub_kind: u.kind, ub_loc: u.ub_loc },
            &cells,
        )
    };
    // Two of the paper's 31 bugs carry wrong report information; they file
    // regardless of the discrepancy outcome. Selected normal cells file as
    // FN bugs.
    let observe = |i: usize, wrong_report: bool| {
        let cell = &cells[i];
        Observation {
            vendor: cell.compiler.vendor,
            opt: cell.opt,
            wrong_report,
            keys: attribution_keys(cell.artifact.module(), wrong_report, sanitizer, u.kind),
        }
    };
    let observations = verdicts.wrong_reports.iter().map(|&i| observe(i, true))
        .chain(verdicts.sanitizer_bugs.iter().map(|&i| observe(i, false)))
        .collect();
    GroupVerdict {
        discrepancy: verdicts.discrepancy,
        dropped: verdicts.drop_reason(),
        expected_miss: verdicts.expected_miss,
        observations,
        delta,
    }
}

/// The fold half of the campaign loop: folds one group's verdict into
/// campaign statistics and dedup/attribution, in canonical group order.
/// Shared verbatim by the sequential loop and the parallel runner's fold
/// loop, so the two paths cannot drift.
pub(crate) fn fold_verdict(
    ctx: &CampaignCtx<'_>,
    u: &UbProgram,
    sanitizer: Sanitizer,
    verdict: &GroupVerdict,
    stats: &mut CampaignStats,
    bug_index: &mut BTreeMap<String, usize>,
) {
    for o in &verdict.observations {
        record_bug(ctx, stats, bug_index, u, sanitizer, o);
    }
    // Expected misses mostly arrive *without* a discrepancy — a skipped UB
    // site silences every cell identically — so they are accounted from the
    // flag, not from the drop path (which only fires when some cell did
    // report).
    if verdict.expected_miss {
        stats.oracle.record_drop(sanitizer, DropReason::ExpectedMiss);
    }
    if !verdict.discrepancy {
        return;
    }
    stats.discrepancies += 1;
    match verdict.dropped {
        None => stats.selected += 1,
        Some(reason) => {
            stats.dropped += 1;
            if reason != DropReason::ExpectedMiss {
                stats.oracle.record_drop(sanitizer, reason);
            }
        }
    }
}

/// The dedup keys one filed cell attributes to: the defects the vendor's
/// passes recorded in the module (the analogue of the paper's root-cause
/// analysis with developers). A BTreeSet so attribution iterates in a
/// stable order: bug vec order (and thus table rendering) must not depend
/// on hash seeding. Module-less artifacts (real toolchains) attribute to
/// nothing and dedup under the per-(vendor, sanitizer, kind) "unknown" key.
fn attribution_keys(
    module: Option<&Module>,
    wrong_report: bool,
    sanitizer: Sanitizer,
    kind: UbKind,
) -> Vec<(Option<&'static str>, bool)> {
    let applied: BTreeSet<&'static str> = module
        .map(|m| m.san.applied_defects.iter().map(|(id, _)| *id).collect())
        .unwrap_or_default();
    if wrong_report {
        // Attribute wrong reports to the wrong-line defects if applied.
        let wl = applied
            .iter()
            .find(|id| {
                DefectRegistry::get(id)
                    .is_some_and(|d| d.category == ubfuzz_simcc::DefectCategory::WrongLineInfo)
            })
            .copied();
        return vec![(wl, false)];
    }
    if applied.is_empty() {
        let legit = module.is_some_and(|m| !m.san.legit_transforms.is_empty());
        return vec![(None, legit)];
    }
    // Attribute to defects matching the observed sanitizer + kind when
    // possible; otherwise to all applied defects.
    let matching: Vec<&'static str> = applied
        .iter()
        .filter(|id| {
            DefectRegistry::get(id).is_some_and(|d| d.sanitizer == sanitizer && d.ub_kind == kind)
        })
        .copied()
        .collect();
    let ids = if matching.is_empty() { applied.into_iter().collect() } else { matching };
    ids.into_iter().map(|id| (Some(id), false)).collect()
}

fn record_bug(
    ctx: &CampaignCtx<'_>,
    stats: &mut CampaignStats,
    bug_index: &mut BTreeMap<String, usize>,
    u: &UbProgram,
    sanitizer: Sanitizer,
    o: &Observation,
) {
    let (cfg, backend) = (ctx.cfg, ctx.backend);
    for &(defect_id, invalid) in &o.keys {
        let key = dedup_key(defect_id, invalid, o.vendor, sanitizer, u.kind);
        if let Some(&i) = bug_index.get(&key) {
            let bug = &mut stats.bugs[i];
            bug.duplicates += 1;
            if !bug.missed_at.contains(&o.opt) {
                bug.missed_at.push(o.opt);
            }
            continue;
        }
        let test_case = if cfg.reduce {
            let registry = cfg.registry.clone();
            let (vendor, opt) = (o.vendor, o.opt);
            let san_policy = cfg.effective_san_policy();
            let mut pred = move |q: &Program| {
                let req = CompileRequest {
                    compiler: CompilerId::dev(vendor),
                    opt,
                    sanitizer: Some(sanitizer),
                    registry: &registry,
                    san_policy,
                };
                match backend.compile_program(q, &req) {
                    Ok(artifact) => {
                        backend.execute(&artifact, &RunRequest::default()).is_normal_exit()
                            && !ubfuzz_interp::run_program(q).is_clean_exit()
                    }
                    Err(_) => false,
                }
            };
            if pred(&u.program) {
                pretty::print(&ubfuzz_reduce::reduce(&u.program, &mut pred))
            } else {
                pretty::print(&u.program)
            }
        } else {
            pretty::print(&u.program)
        };
        bug_index.insert(key, stats.bugs.len());
        stats.bugs.push(FoundBug {
            vendor: o.vendor,
            sanitizer,
            kind: u.kind,
            defect_id,
            invalid,
            wrong_report: o.wrong_report,
            missed_at: vec![o.opt],
            test_case,
            duplicates: 1,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_campaign_finds_real_bugs() {
        let cfg = CampaignConfig::builder().seeds(6).build();
        let stats = run_campaign(&cfg);
        assert!(stats.total_programs() > 10, "programs: {}", stats.total_programs());
        assert!(stats.discrepancies > 0);
        assert!(!stats.bugs.is_empty(), "bugs found");
        // Every attributed bug maps to a real defect of the right vendor.
        for bug in &stats.bugs {
            if let Some(id) = bug.defect_id {
                let d = DefectRegistry::get(id).expect("known defect");
                assert_eq!(d.vendor, bug.vendor, "{id}");
                assert_eq!(d.sanitizer, bug.sanitizer, "{id}");
            }
        }
    }

    #[test]
    fn pristine_world_finds_nothing() {
        let cfg =
            CampaignConfig::builder().seeds(4).registry(DefectRegistry::pristine()).build();
        let stats = run_campaign(&cfg);
        let real: Vec<_> = stats.bugs.iter().filter(|b| !b.invalid).collect();
        assert!(
            real.is_empty(),
            "correct sanitizers yield no FN bugs: {:?}",
            real.iter().map(|b| (&b.defect_id, b.vendor, b.kind)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn parallel_campaign_matches_sequential() {
        // The broad equivalence property (worker counts 1/2/8/16, cache
        // on/off, varying first seeds and generators) lives in
        // tests/parallel.rs; this is the fast in-crate smoke check.
        let cfg = CampaignConfig::builder().seeds(3).build();
        let sequential = run_campaign(&cfg);
        let parallel = ParallelCampaign::new(cfg).with_shards(2).run();
        assert_eq!(sequential, parallel);
        assert!(parallel.cache.hits > 0, "sanitizer matrix shares prefixes: {:?}", parallel.cache);
    }

    #[test]
    fn one_seed_campaign_still_runs_on_the_executor() {
        // A 1-seed campaign used to fall back to the sequential loop; the
        // group executor must still parallelize its programs and report cache
        // telemetry.
        let cfg = CampaignConfig::builder().seeds(1).build();
        let sequential = run_campaign(&cfg);
        let parallel = ParallelCampaign::new(cfg).with_shards(4).run();
        assert_eq!(sequential, parallel);
        assert!(
            parallel.cache.hits + parallel.cache.misses > 0,
            "executor path exercises the compile session: {:?}",
            parallel.cache
        );
        assert_eq!(sequential.cache, SessionStats::default());
    }

    #[test]
    fn cache_toggle_preserves_results() {
        let cfg = CampaignConfig::builder().seeds(2).build();
        let cached = ParallelCampaign::new(cfg.clone()).with_shards(2).run();
        let uncached = ParallelCampaign::new(cfg)
            .with_shards(2)
            .with_backend(Arc::new(SimBackend::uncached()))
            .run();
        assert_eq!(cached, uncached);
        assert!(cached.cache.hits > 0);
        assert_eq!(uncached.cache, SessionStats::default());
    }

    #[test]
    fn parallel_juliet_anchors_suite_to_the_global_first_seed() {
        // The Juliet generator fires only on the campaign's first seed; a
        // shard-local `first_seed` would replay the suite once per shard.
        let cfg =
            CampaignConfig::builder().seeds(4).generator(GeneratorChoice::Juliet).build();
        let sequential = run_campaign(&cfg);
        let parallel = ParallelCampaign::new(cfg).with_shards(4).run();
        assert_eq!(sequential.total_programs(), parallel.total_programs());
        assert_eq!(sequential, parallel);
    }

    #[test]
    fn juliet_campaign_finds_no_bugs() {
        // §4.3: the fixed Juliet corpus exposes no sanitizer FN bugs.
        let cfg =
            CampaignConfig::builder().seeds(1).generator(GeneratorChoice::Juliet).build();
        let stats = run_campaign(&cfg);
        assert!(stats.total_programs() >= 20);
        let real: Vec<_> =
            stats.bugs.iter().filter(|b| !b.invalid && !b.wrong_report).collect();
        assert!(real.is_empty(), "{:?}", real.iter().map(|b| b.defect_id).collect::<Vec<_>>());
    }
}
