//! The UBfuzz loop retargeted at non-sanitizer detectors (§4.7).
//!
//! The methodology transfers with two adaptations:
//!
//! * **Dynamic tools** (Memcheck / Dr. Memory): the natural differential
//!   pair is *two tools on the same binary* — §4.7 names both Valgrind and
//!   Dr. Memory precisely because they check the same class of errors
//!   independently. A same-binary discrepancy needs no optimization
//!   arbitration (both tools executed the same instructions); a
//!   *cross-optimization-level* discrepancy of a single tool does, and the
//!   paper's report-site mapping applies verbatim using the DBI engine's
//!   executed-site trace in place of the debugger's.
//! * **Static tools** (CppCheck / Infer): a static tool may legitimately
//!   miss a dynamic truth (precision loss at joins and loops), so "the
//!   interpreter says the UB exists but the tool is silent" is *not* an
//!   oracle. The differential pair is two implementations of the same
//!   analysis; a discrepancy on the same source is an implementation bug.
//!
//! Like the paper's artifact, the campaign also replays the corpus of known
//! bug-triggering test cases ([`trigger_corpus`]) — fuzzing finds what it
//! finds, the corpus pins every injected defect.

use std::collections::BTreeMap;
use std::sync::Arc;
use ubfuzz_backend::{CompileRequest, CompilerBackend, SimBackend, SiteTrace};
use ubfuzz_exec::Executor;
use ubfuzz_oracle::{arbitrate, Verdict as OracleVerdict};
use ubfuzz_minic::{parse, pretty, UbKind};
use ubfuzz_seedgen::{generate_seed, SeedOptions};
use ubfuzz_simcc::defects::DefectRegistry;
use ubfuzz_simcc::target::{OptLevel, Vendor};
use ubfuzz_ubgen::{GenOptions, UbProgram};

use crate::defects::{DetectorDefectRegistry, DetectorTool};
use crate::memcheck::{self, MemcheckConfig, MemcheckRun};
use crate::report::DetectorResult;
use crate::staticcheck::{analyze, static_supports, StaticConfig};

/// Campaign configuration, shared by both detector families.
#[derive(Debug, Clone)]
pub struct DetectorCampaignConfig {
    /// First seed index.
    pub first_seed: u64,
    /// Number of seed programs.
    pub seeds: usize,
    /// Seed generator options.
    pub seed_options: SeedOptions,
    /// UB generator options.
    pub gen_options: GenOptions,
    /// The defect world of the tool under test.
    pub registry: DetectorDefectRegistry,
    /// Also replay the fixed trigger corpus.
    pub include_triggers: bool,
    /// Executor width; `0` means one worker per core. Output
    /// is bit-identical at every worker count (the executor merges results
    /// in canonical program order).
    pub workers: usize,
    /// The compilation/execution backend Memcheck binaries are built on.
    /// `None` defaults to an uncached [`SimBackend`] — each `(program,
    /// opt)` cell is compiled exactly once, so there is no prefix to reuse.
    pub backend: Option<Arc<dyn CompilerBackend>>,
}

impl Default for DetectorCampaignConfig {
    fn default() -> DetectorCampaignConfig {
        DetectorCampaignConfig {
            first_seed: 0,
            seeds: 10,
            seed_options: SeedOptions::default(),
            gen_options: GenOptions::default(),
            registry: DetectorDefectRegistry::full(),
            include_triggers: true,
            workers: 0,
            backend: None,
        }
    }
}

impl DetectorCampaignConfig {
    /// The executor serving this config's campaigns.
    fn executor(&self) -> Executor {
        if self.workers == 0 {
            Executor::auto()
        } else {
            Executor::new(self.workers)
        }
    }

    /// The backend this config's campaigns compile on.
    fn resolve_backend(&self) -> Arc<dyn CompilerBackend> {
        match &self.backend {
            Some(b) => Arc::clone(b),
            None => Arc::new(SimBackend::uncached()),
        }
    }
}

/// One deduplicated detector bug.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DetectorFoundBug {
    /// The tool that missed the UB.
    pub tool: DetectorTool,
    /// Ground-truth UB kind of the triggering program.
    pub kind: UbKind,
    /// Attribution to the injected defect, when the tool's run recorded one.
    pub defect_id: Option<&'static str>,
    /// Optimization levels at which the miss was observed (Memcheck only;
    /// the static tool sees source, not binaries).
    pub missed_at: Vec<OptLevel>,
    /// A triggering program.
    pub test_case: String,
    /// Triggering programs deduplicated into this bug.
    pub duplicates: usize,
}

/// Aggregate statistics of one detector campaign.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DetectorCampaignStats {
    /// Seeds consumed.
    pub seeds: usize,
    /// UB programs tested, per kind.
    pub ub_programs: BTreeMap<UbKind, usize>,
    /// Same-input discrepancies between the two tool implementations.
    pub discrepancies: usize,
    /// Cross-level single-tool discrepancies classified as optimization
    /// artifacts by report-site mapping (Memcheck only).
    pub optimization_artifacts: usize,
    /// Deduplicated bugs.
    pub bugs: Vec<DetectorFoundBug>,
}

impl DetectorCampaignStats {
    /// Total UB programs tested.
    pub fn total_programs(&self) -> usize {
        self.ub_programs.values().sum()
    }
}

/// The UB kinds the Memcheck engine claims to detect. Buffer overflow is
/// heap-only, but generated overflow programs that target stack or global
/// buffers are silent under *both* engines and thus never create a
/// discrepancy — the support matrix need not distinguish storage.
pub fn memcheck_supports(kind: UbKind) -> bool {
    matches!(
        kind,
        UbKind::BufOverflowPtr
            | UbKind::UseAfterFree
            | UbKind::NullDeref
            | UbKind::UninitUse
            | UbKind::InvalidFree
    )
}

/// Known bug-triggering test cases for each injected defect — the analogue
/// of the per-bug test cases shipped with the paper's artifact.
pub fn trigger_corpus(tool: DetectorTool) -> Vec<(&'static str, UbKind, &'static str)> {
    match tool {
        DetectorTool::Memcheck => vec![
            (
                "memcheck-d01",
                UbKind::UninitUse,
                // The low half of `x` is written through a cast; the 8-byte
                // load of `x` is then *partially* defined — the shape the
                // defective V-bit collapse mishandles.
                "int main(void) {
                    long x;
                    int *p = (int*)&x;
                    *p = 1;
                    long y = x + 1;
                    if (y) { return 1; }
                    return 0;
                 }",
            ),
            (
                "memcheck-d02",
                UbKind::UseAfterFree,
                "int main(void) {
                    int *a = (int*)malloc(8);
                    int *b = (int*)malloc(8);
                    *a = 1;
                    free(a);
                    free(b);
                    return *a;
                 }",
            ),
            (
                "memcheck-d03",
                UbKind::BufOverflowPtr,
                "int main(void) {
                    char *p = (char*)malloc(8);
                    int *q = (int*)(p + 6);
                    *q = 5;
                    free(p);
                    return 0;
                 }",
            ),
            (
                "memcheck-d04",
                UbKind::UninitUse,
                "struct s { int a; int b; };
                 int main(void) {
                    struct s x;
                    struct s y;
                    x.a = 1;
                    y = x;
                    if (y.b) { return 1; }
                    return 0;
                 }",
            ),
        ],
        DetectorTool::StaticAnalyzer => vec![
            (
                "static-d01",
                UbKind::UninitUse,
                "int main(void) {
                    int x;
                    int *p = &x;
                    print_value(*p);
                    if (x) { return 1; }
                    return 0;
                 }",
            ),
            (
                "static-d02",
                UbKind::DivByZero,
                "int main(void) { int z = 0; int t = 1; return t && (5 / z); }",
            ),
            (
                "static-d03",
                UbKind::BufOverflowArray,
                "int opaque(int v) { return v + v; }
                 int main(void) {
                    int a[4];
                    int k = 0 - 2;
                    for (int i = 0; i < opaque(2); i = i + 1) { a[1] = i; }
                    a[k] = 2;
                    return 0;
                 }",
            ),
        ],
    }
}

/// Expands every seed into its supported UB programs on the executor; the
/// flattened list is in canonical seed order (each seed id derives its own
/// RNG stream, so scheduling cannot perturb generation).
fn generated_programs(
    cfg: &DetectorCampaignConfig,
    exec: &Executor,
    supports: fn(UbKind) -> bool,
) -> Vec<UbProgram> {
    let seed_ids: Vec<u64> = (0..cfg.seeds).map(|s| cfg.first_seed + s as u64).collect();
    exec.map(seed_ids, |_, seed_id| {
        let seed = generate_seed(seed_id, &cfg.seed_options);
        let mut opts = cfg.gen_options.clone();
        opts.rng_seed = seed_id.wrapping_mul(131).wrapping_add(13);
        ubfuzz_ubgen::generate_all(&seed, &opts)
            .into_iter()
            .filter(|u| supports(u.kind))
            .collect::<Vec<_>>()
    })
    .into_iter()
    .flatten()
    .collect()
}

fn corpus_programs(tool: DetectorTool) -> Vec<UbProgram> {
    trigger_corpus(tool)
        .into_iter()
        .filter_map(|(name, kind, src)| {
            let mut program = parse(src).ok()?;
            pretty::relocate(&mut program);
            let ub_loc = ubfuzz_interp::run_program(&program).ub().map(|ev| ev.loc)?;
            Some(UbProgram {
                program,
                kind,
                ub_loc,
                ub_node: ubfuzz_minic::NodeId::DUMMY,
                description: format!("trigger corpus: {name}"),
            })
        })
        .collect()
}

/// Runs the Memcheck campaign: the tool under test (`cfg.registry`) against
/// a pristine second implementation on the same binaries, plus cross-level
/// report-site mapping for optimization arbitration.
pub fn run_memcheck_campaign(cfg: &DetectorCampaignConfig) -> DetectorCampaignStats {
    let exec = cfg.executor();
    let backend = cfg.resolve_backend();
    let backend = backend.as_ref();
    let mut stats = DetectorCampaignStats { seeds: cfg.seeds, ..Default::default() };
    let mut bug_index: BTreeMap<String, usize> = BTreeMap::new();
    let mut programs = generated_programs(cfg, &exec, memcheck_supports);
    if cfg.include_triggers {
        programs.extend(corpus_programs(DetectorTool::Memcheck));
    }
    let compiler_reg = DefectRegistry::pristine();
    let tool_a = MemcheckConfig { registry: cfg.registry.clone(), ..MemcheckConfig::default() };
    let tool_b =
        MemcheckConfig { registry: DetectorDefectRegistry::pristine(), ..MemcheckConfig::default() };
    // Fine-grained units — one (program, opt) compile+dual-run per task —
    // drained by the ordered executor; the oracle below consumes them
    // in canonical program order, so output matches the sequential loop
    // bit-for-bit. The DBI engines instrument the compiled module, so
    // backends with opaque artifacts contribute no cells (the campaign
    // degrades to the trigger corpus of whatever cells do compile).
    let units: Vec<(usize, OptLevel)> = (0..programs.len())
        .flat_map(|pi| [OptLevel::O0, OptLevel::O2].map(|opt| (pi, opt)))
        .collect();
    let cells = exec.map(units, |_, (pi, opt)| {
        let req = CompileRequest {
            compiler: ubfuzz_simcc::target::CompilerId::dev(Vendor::Gcc),
            opt,
            sanitizer: None,
            registry: &compiler_reg,
            san_policy: ubfuzz_simcc::SanPolicy::Full,
        };
        let artifact = backend.compile_program(&programs[pi].program, &req).ok()?;
        let module = artifact.module()?;
        let ra = memcheck::run(module, &tool_a);
        let rb = memcheck::run(module, &tool_b);
        Some((opt, ra, rb))
    });
    let mut cells = cells.into_iter();
    for u in &programs {
        *stats.ub_programs.entry(u.kind).or_default() += 1;
        let runs: Vec<(OptLevel, MemcheckRun, MemcheckRun)> =
            cells.by_ref().take(2).flatten().collect();
        // Same-binary differential: tool B reports the UB, tool A is silent.
        for (opt, ra, rb) in &runs {
            let b_detects = rb.result.reports().iter().any(|r| r.kind.matches_ub(u.kind));
            let a_detects = ra.result.reports().iter().any(|r| r.kind.matches_ub(u.kind));
            if b_detects && !a_detects {
                stats.discrepancies += 1;
                record_bug(&mut stats, &mut bug_index, DetectorTool::Memcheck, u, *opt, ra);
            }
        }
        // Cross-level single-tool differential (the Fig. 3 situation): a
        // report at -O0 and silence at -O2 under the *same* tool.
        // Report-site mapping decides whether the optimizer removed the UB
        // — Algorithm 2's comparison shared with the sanitizer campaigns
        // (`ubfuzz_oracle::arbitrate`), with the DBI engine's executed-site
        // trace standing in for the debugger's.
        if runs.len() == 2 {
            let (_, a0, _) = &runs[0];
            let (_, a2, _) = &runs[1];
            let r0 = a0.result.reports().iter().find(|r| r.kind.matches_ub(u.kind));
            let a2_detects = a2.result.reports().iter().any(|r| r.kind.matches_ub(u.kind));
            if let Some(rep) = r0 {
                let bc = SiteTrace::from_vm(a0.trace.clone());
                let bn = SiteTrace::from_vm(a2.trace.clone());
                if !a2_detects
                    && arbitrate(&bc, rep.loc, &bn) == OracleVerdict::OptimizationArtifact
                {
                    stats.optimization_artifacts += 1;
                }
            }
        }
    }
    stats
}

/// Runs the static-analyzer campaign: the tool under test against a pristine
/// second implementation of the same analysis on the same sources.
pub fn run_static_campaign(cfg: &DetectorCampaignConfig) -> DetectorCampaignStats {
    let exec = cfg.executor();
    let mut stats = DetectorCampaignStats { seeds: cfg.seeds, ..Default::default() };
    let mut bug_index: BTreeMap<String, usize> = BTreeMap::new();
    let mut programs = generated_programs(cfg, &exec, static_supports);
    if cfg.include_triggers {
        programs.extend(corpus_programs(DetectorTool::StaticAnalyzer));
    }
    let tool_a = StaticConfig { registry: cfg.registry.clone() };
    let tool_b = StaticConfig { registry: DetectorDefectRegistry::pristine() };
    // One dual-analysis unit per program; merged in program order.
    let analyses = exec.map((0..programs.len()).collect(), |_, pi: usize| {
        let ra = analyze(&programs[pi].program, &tool_a);
        let rb = analyze(&programs[pi].program, &tool_b);
        (ra, rb)
    });
    for (u, (ra, rb)) in programs.iter().zip(analyses) {
        *stats.ub_programs.entry(u.kind).or_default() += 1;
        if rb.detects(u.kind) && !ra.detects(u.kind) {
            stats.discrepancies += 1;
            let defect_id = ra
                .applied_defects
                .iter()
                .map(|(id, _)| *id)
                .find(|id| {
                    DetectorDefectRegistry::get(id).is_some_and(|d| d.ub_kind == u.kind)
                })
                .or_else(|| ra.applied_defects.first().map(|(id, _)| *id));
            push_bug(
                &mut stats,
                &mut bug_index,
                DetectorFoundBug {
                    tool: DetectorTool::StaticAnalyzer,
                    kind: u.kind,
                    defect_id,
                    missed_at: Vec::new(),
                    test_case: pretty::print(&u.program),
                    duplicates: 1,
                },
            );
        }
    }
    stats
}

fn record_bug(
    stats: &mut DetectorCampaignStats,
    bug_index: &mut BTreeMap<String, usize>,
    tool: DetectorTool,
    u: &UbProgram,
    opt: OptLevel,
    run: &MemcheckRun,
) {
    let defect_id = run
        .applied_defects
        .iter()
        .map(|(id, _)| *id)
        .find(|id| DetectorDefectRegistry::get(id).is_some_and(|d| d.ub_kind == u.kind))
        .or_else(|| run.applied_defects.first().map(|(id, _)| *id));
    let mut bug = DetectorFoundBug {
        tool,
        kind: u.kind,
        defect_id,
        missed_at: vec![opt],
        test_case: pretty::print(&u.program),
        duplicates: 1,
    };
    if let Some(&i) = bug_index.get(&bug_key(&bug)) {
        let existing = &mut stats.bugs[i];
        existing.duplicates += 1;
        if !existing.missed_at.contains(&opt) {
            existing.missed_at.push(opt);
        }
        return;
    }
    bug.missed_at.sort();
    push_bug(stats, bug_index, bug);
}

fn bug_key(bug: &DetectorFoundBug) -> String {
    match bug.defect_id {
        Some(id) => format!("defect:{id}"),
        None => format!("unknown:{}:{}", bug.tool, bug.kind),
    }
}

fn push_bug(
    stats: &mut DetectorCampaignStats,
    bug_index: &mut BTreeMap<String, usize>,
    bug: DetectorFoundBug,
) {
    let key = bug_key(&bug);
    if let Some(&i) = bug_index.get(&key) {
        stats.bugs[i].duplicates += 1;
        return;
    }
    bug_index.insert(key, stats.bugs.len());
    stats.bugs.push(bug);
}

/// Ground-truth sanity check used by tests and examples: every trigger-corpus
/// program really exhibits its labelled UB under the reference interpreter.
pub fn verify_trigger_corpus(tool: DetectorTool) -> Result<(), String> {
    for (name, kind, src) in trigger_corpus(tool) {
        let mut p = parse(src).map_err(|e| format!("{name}: parse error: {e}"))?;
        pretty::relocate(&mut p);
        let outcome = ubfuzz_interp::run_program(&p);
        let ev = outcome.ub().ok_or_else(|| format!("{name}: no UB ({outcome:?})"))?;
        if ev.kind != kind {
            return Err(format!("{name}: expected {kind}, interpreter saw {}", ev.kind));
        }
    }
    Ok(())
}

/// Convenience: whether a [`DetectorResult`] counts as "reported the UB" for
/// a given ground-truth kind.
pub fn detects(result: &DetectorResult, kind: UbKind) -> bool {
    result.reports().iter().any(|r| r.kind.matches_ub(kind))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trigger_corpora_are_ground_truthed() {
        verify_trigger_corpus(DetectorTool::Memcheck).unwrap();
        verify_trigger_corpus(DetectorTool::StaticAnalyzer).unwrap();
    }

    #[test]
    fn memcheck_campaign_rediscovers_every_injected_defect() {
        let cfg = DetectorCampaignConfig { seeds: 2, ..Default::default() };
        let stats = run_memcheck_campaign(&cfg);
        let found: std::collections::HashSet<_> =
            stats.bugs.iter().filter_map(|b| b.defect_id).collect();
        for d in DetectorDefectRegistry::for_tool(DetectorTool::Memcheck) {
            assert!(found.contains(d.id), "missing {} in {found:?}", d.id);
        }
    }

    #[test]
    fn static_campaign_rediscovers_every_injected_defect() {
        let cfg = DetectorCampaignConfig { seeds: 2, ..Default::default() };
        let stats = run_static_campaign(&cfg);
        let found: std::collections::HashSet<_> =
            stats.bugs.iter().filter_map(|b| b.defect_id).collect();
        for d in DetectorDefectRegistry::for_tool(DetectorTool::StaticAnalyzer) {
            assert!(found.contains(d.id), "missing {} in {found:?}", d.id);
        }
    }

    #[test]
    fn pristine_tools_produce_no_bugs() {
        let cfg = DetectorCampaignConfig {
            seeds: 2,
            registry: DetectorDefectRegistry::pristine(),
            ..Default::default()
        };
        let m = run_memcheck_campaign(&cfg);
        assert!(m.bugs.is_empty(), "{:?}", m.bugs.iter().map(|b| b.defect_id).collect::<Vec<_>>());
        let s = run_static_campaign(&cfg);
        assert!(s.bugs.is_empty(), "{:?}", s.bugs.iter().map(|b| b.defect_id).collect::<Vec<_>>());
    }

    #[test]
    fn detector_campaigns_are_worker_count_invariant() {
        // The executor port must keep both campaigns bit-identical to a
        // single-worker run at any width.
        let base = DetectorCampaignConfig { seeds: 2, ..Default::default() };
        let one = DetectorCampaignConfig { workers: 1, ..base.clone() };
        let eight = DetectorCampaignConfig { workers: 8, ..base.clone() };
        assert_eq!(run_memcheck_campaign(&one), run_memcheck_campaign(&eight));
        assert_eq!(run_static_campaign(&one), run_static_campaign(&eight));
    }

    #[test]
    fn explicit_backend_matches_the_default_resolution() {
        // A shared, cached backend must be observationally identical to the
        // default per-run uncached one — caching is a backend concern the
        // campaign cannot see.
        let base = DetectorCampaignConfig { seeds: 2, ..Default::default() };
        let shared: Arc<dyn CompilerBackend> = Arc::new(SimBackend::new());
        let explicit =
            DetectorCampaignConfig { backend: Some(Arc::clone(&shared)), ..base.clone() };
        assert_eq!(run_memcheck_campaign(&base), run_memcheck_campaign(&explicit));
        assert_eq!(run_static_campaign(&base), run_static_campaign(&explicit));
    }

    #[test]
    fn campaigns_count_programs_per_kind() {
        let cfg = DetectorCampaignConfig { seeds: 3, ..Default::default() };
        let stats = run_memcheck_campaign(&cfg);
        assert!(stats.total_programs() > 0);
        for kind in stats.ub_programs.keys() {
            assert!(memcheck_supports(*kind), "{kind} is outside the support matrix");
        }
    }
}
