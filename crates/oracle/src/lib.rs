//! `ubfuzz-oracle` — the test oracle (paper §3.3, Algorithm 2), redesigned
//! as a pluggable, backend-agnostic API.
//!
//! Given a program's compiled test matrix for one sanitizer — some cells
//! "crashed" (the sanitizer reported), some exited normally — the oracle
//! decides whether each discrepancy is a **sanitizer false-negative bug**
//! or merely **compiler optimization** removing the UB before the sanitizer
//! pass:
//!
//! > If the crash site in `b_c` is also executed by `b_n`, the compiler did
//! > not optimize away the UB-triggering expression, thus the discrepancy is
//! > caused by a sanitizer FN bug.
//!
//! The crash site is the `(line, offset)` of the last executed instruction
//! (Definition 2). It is recovered from a [`SiteTrace`] produced by the
//! backend under test: the simulated VM's exact instruction tracer, or a
//! line-granular debugger trace of a real `-g` binary — exactly as the
//! paper recovers it from LLDB plus debug metadata. The documented
//! soundness caveat (§4.4) applies identically: a legitimate transformation
//! can keep the crash site executable while removing the UB — reproduced by
//! the GCC `-O3` scope-extension case (the paper's one invalid report,
//! Fig. 8).
//!
//! # Architecture
//!
//! * [`CrashOracle`] is the campaign-facing seam: `judge(backend, input,
//!   cells)` over one program's [`CompiledCell`] matrix.
//! * [`OracleStack`] is the standard implementation — an ordered list of
//!   [`OracleStage`]s sharing a [`StageContext`] and accumulating
//!   [`OracleVerdicts`]. The default stack is
//!   [`WrongReportDetection`] → [`DiscrepancyAccounting`] →
//!   [`CrashSiteMapping`] → [`PartialSanAwareness`]; the §4.4 ablation
//!   swaps the mapping stage for [`NaiveSelection`] instead of forking
//!   campaign code.
//! * [`trace_artifact`] and [`arbitrate`] are the pair-level primitives the
//!   stack is built from, usable standalone (the examples and the detector
//!   campaigns do). They subsume the pre-redesign module-only free
//!   functions, which have been removed.

use std::fmt;
use std::sync::Arc;
use ubfuzz_backend::{Artifact, CompilerBackend, RunOutcome, RunRequest, SiteTrace, TraceCapability};
use ubfuzz_minic::{Loc, UbKind};
use ubfuzz_simcc::target::{CompilerId, OptLevel};
use ubfuzz_simcc::Sanitizer;

/// Verdict for one `(crashing, non-crashing)` pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The crash site is executed by the non-crashing binary: a sanitizer
    /// false-negative bug (Algorithm 2 returns *true*).
    SanitizerBug,
    /// The crash site is gone from the non-crashing binary: the optimizer
    /// removed the UB (Algorithm 2 returns *false*).
    OptimizationArtifact,
}

/// One compiled cell of a program's test matrix for one sanitizer: the
/// `(compiler, opt)` identity, the build product, and how it ran. The
/// campaign executor assembles these; the oracle consumes them.
#[derive(Debug)]
pub struct CompiledCell {
    /// Compiler identity of this cell.
    pub compiler: CompilerId,
    /// Optimization level of this cell.
    pub opt: OptLevel,
    /// The build product (module-carrying or opaque).
    pub artifact: Artifact,
    /// How the artifact ran.
    pub outcome: RunOutcome,
}

/// Ground-truth facts about the program under test, shared by every stage.
#[derive(Debug, Clone, Copy)]
pub struct OracleInput {
    /// The sanitizer this matrix exercises.
    pub sanitizer: Sanitizer,
    /// Ground-truth UB kind of the program.
    pub ub_kind: UbKind,
    /// Ground-truth UB location.
    pub ub_loc: Loc,
}

/// Why a discrepancy was dropped instead of filed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DropReason {
    /// Arbitrated: the optimizer removed the UB before the sanitizer pass
    /// (Algorithm 2 returned *false* for every normal cell).
    OptimizationArtifact,
    /// Unarbitratable: the artifacts carry no module and the backend has no
    /// trace capability at all.
    NoModule,
    /// Unarbitratable: the backend is trace-capable but produced no trace
    /// for these artifacts (debugger missing a step, trace timeout, …).
    NoTrace,
    /// Expected miss: the cell's partial-sanitization policy skipped the UB
    /// check site, so the sanitizer never had a chance to report — the miss
    /// is the policy working as configured, not a sanitizer FN bug.
    ExpectedMiss,
}

impl DropReason {
    /// Telemetry spelling.
    pub fn name(self) -> &'static str {
        match self {
            DropReason::OptimizationArtifact => "optimization-artifact",
            DropReason::NoModule => "no-module",
            DropReason::NoTrace => "no-trace",
            DropReason::ExpectedMiss => "expected-miss",
        }
    }
}

impl fmt::Display for DropReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// What the oracle decided about one `(program, sanitizer)` matrix — the
/// accumulator the stages of an [`OracleStack`] fill in order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OracleVerdicts {
    /// Cells whose report carries wrong line information (indices into the
    /// judged `cells`, in cell order).
    pub wrong_reports: Vec<usize>,
    /// Whether the matrix holds a report/normal-exit discrepancy at all.
    pub discrepancy: bool,
    /// Normal-exit cells Algorithm 2 selected as sanitizer FN bugs
    /// (indices into the judged `cells`, in cell order).
    pub sanitizer_bugs: Vec<usize>,
    /// The crash site extracted from the first reporting cell, when the
    /// mapping stage got that far (Definition 2).
    pub crash_site: Option<Loc>,
    /// Why nothing was selected, when a discrepancy existed but
    /// `sanitizer_bugs` stayed empty.
    pub dropped: Option<DropReason>,
    /// The partial-sanitization policy skipped the ground-truth UB check
    /// site in this matrix's modules. Usually there is then no discrepancy
    /// at all — every cell misses identically — so this flag, not
    /// [`OracleVerdicts::drop_reason`], is how expected misses reach the
    /// campaign's telemetry. Always `false` under the full policy.
    pub expected_miss: bool,
}

impl OracleVerdicts {
    /// Whether the discrepancy was selected as a bug (at least one normal
    /// cell mapped to [`Verdict::SanitizerBug`]).
    pub fn selected(&self) -> bool {
        self.discrepancy && !self.sanitizer_bugs.is_empty()
    }

    /// The drop accounting for this matrix: `Some(reason)` exactly when a
    /// discrepancy existed and nothing was selected.
    pub fn drop_reason(&self) -> Option<DropReason> {
        (self.discrepancy && self.sanitizer_bugs.is_empty())
            .then(|| self.dropped.unwrap_or(DropReason::OptimizationArtifact))
    }
}

/// Per-sanitizer, per-reason dropped-discrepancy accounting — the telemetry
/// that makes real-toolchain campaigns debuggable ("were those drops
/// arbitrated, or could we just not trace?"). Campaign equality excludes it
/// for the same reason it excludes cache counters: trace availability is
/// execution metadata, results must not depend on it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OracleTelemetry {
    dropped: std::collections::BTreeMap<(Sanitizer, DropReason), usize>,
}

impl OracleTelemetry {
    /// Records one dropped discrepancy.
    pub fn record_drop(&mut self, sanitizer: Sanitizer, reason: DropReason) {
        *self.dropped.entry((sanitizer, reason)).or_default() += 1;
    }

    /// Dropped count for one `(sanitizer, reason)` bucket.
    pub fn dropped(&self, sanitizer: Sanitizer, reason: DropReason) -> usize {
        self.dropped.get(&(sanitizer, reason)).copied().unwrap_or(0)
    }

    /// Total drops across sanitizers for one reason.
    pub fn dropped_for(&self, reason: DropReason) -> usize {
        self.dropped.iter().filter(|((_, r), _)| *r == reason).map(|(_, n)| n).sum()
    }

    /// Total drops that were *not* arbitrated (no module, no trace) — zero
    /// on fully trace-capable backends like the simulated one.
    pub fn unarbitrated(&self) -> usize {
        self.dropped_for(DropReason::NoModule) + self.dropped_for(DropReason::NoTrace)
    }

    /// Expected misses for one sanitizer — discrepancies whose UB site the
    /// partial-sanitization policy skipped. Separated from true FN bugs so
    /// partial campaigns stay honest about what their detection loss is.
    pub fn expected_misses(&self, sanitizer: Sanitizer) -> usize {
        self.dropped(sanitizer, DropReason::ExpectedMiss)
    }

    /// Total expected misses across sanitizers.
    pub fn expected_miss_total(&self) -> usize {
        self.dropped_for(DropReason::ExpectedMiss)
    }

    /// The sanitizers with any drop on record, in stable order.
    pub fn sanitizers(&self) -> Vec<Sanitizer> {
        let mut out: Vec<Sanitizer> = self.dropped.keys().map(|(s, _)| *s).collect();
        out.dedup();
        out
    }

    /// True when nothing was dropped.
    pub fn is_empty(&self) -> bool {
        self.dropped.is_empty()
    }
}

/// The campaign-facing oracle seam: judges one program's compiled matrix
/// for one sanitizer. Implementations must be deterministic functions of
/// `(backend, input, cells)` — the campaign's sequential-vs-parallel
/// bit-identity property extends through whatever oracle is plugged in.
pub trait CrashOracle: fmt::Debug + Send + Sync {
    /// Short oracle name for logs and reports.
    fn name(&self) -> &str;

    /// Judges `cells` (one program × one sanitizer × the full compiler/opt
    /// matrix, in campaign order).
    fn judge(
        &self,
        backend: &dyn CompilerBackend,
        input: OracleInput,
        cells: &[CompiledCell],
    ) -> OracleVerdicts;
}

/// Everything a stage may read: the backend (for traces), the program
/// facts, the cells, and the precomputed reporting/normal index lists every
/// stage needs.
pub struct StageContext<'a> {
    /// The backend that built and ran the cells.
    pub backend: &'a dyn CompilerBackend,
    /// Program facts.
    pub input: OracleInput,
    /// The compiled matrix under judgment.
    pub cells: &'a [CompiledCell],
    reporting: Vec<usize>,
    normal: Vec<usize>,
}

impl<'a> StageContext<'a> {
    /// Builds a context, precomputing the reporting/normal partitions.
    pub fn new(
        backend: &'a dyn CompilerBackend,
        input: OracleInput,
        cells: &'a [CompiledCell],
    ) -> StageContext<'a> {
        let reporting = (0..cells.len()).filter(|&i| cells[i].outcome.is_report()).collect();
        let normal = (0..cells.len()).filter(|&i| cells[i].outcome.is_normal_exit()).collect();
        StageContext { backend, input, cells, reporting, normal }
    }

    /// Cells whose sanitizer reported ("crashed"), in cell order.
    pub fn reporting(&self) -> &[usize] {
        &self.reporting
    }

    /// Cells that exited normally, in cell order.
    pub fn normal(&self) -> &[usize] {
        &self.normal
    }

    /// `GetExecutedSites` for one cell: the module fast path when the
    /// artifact carries one, the backend's trace capability otherwise,
    /// under the default execution limits. `Err` classifies *why* no sites
    /// exist (feeds drop accounting).
    pub fn executed_sites(&self, cell: usize) -> Result<SiteTrace, DropReason> {
        trace_artifact(self.backend, &self.cells[cell].artifact, &RunRequest::default())
    }
}

/// One composable step of an [`OracleStack`]. Stages run in stack order
/// over a shared context and accumulate into [`OracleVerdicts`]; later
/// stages may read what earlier ones wrote (the mapping stage keys off
/// `discrepancy`).
pub trait OracleStage: fmt::Debug + Send + Sync {
    /// Stage name for stack descriptions.
    fn name(&self) -> &'static str;

    /// Runs the stage.
    fn run(&self, cx: &StageContext<'_>, out: &mut OracleVerdicts);
}

/// Wrong-report detection: the sanitizer reported, but the report points
/// *before* the UB site (two of the paper's 31 bugs carry wrong report
/// information). Reports at later lines are legitimate: the optimizer may
/// have removed a dead UB access and the sanitizer then correctly blames
/// the next one.
#[derive(Debug, Clone, Copy, Default)]
pub struct WrongReportDetection;

impl OracleStage for WrongReportDetection {
    fn name(&self) -> &'static str {
        "wrong-report"
    }

    fn run(&self, cx: &StageContext<'_>, out: &mut OracleVerdicts) {
        for &i in cx.reporting() {
            let report = cx.cells[i].outcome.report().expect("reporting index");
            if report.kind.matches_ub(cx.input.ub_kind) && report.loc.line < cx.input.ub_loc.line
            {
                out.wrong_reports.push(i);
            }
        }
    }
}

/// Discrepancy accounting: a matrix is discrepant when at least one cell
/// reported and at least one exited normally — the premise every selection
/// stage builds on.
#[derive(Debug, Clone, Copy, Default)]
pub struct DiscrepancyAccounting;

impl OracleStage for DiscrepancyAccounting {
    fn name(&self) -> &'static str {
        "discrepancy"
    }

    fn run(&self, cx: &StageContext<'_>, out: &mut OracleVerdicts) {
        out.discrepancy = !cx.reporting().is_empty() && !cx.normal().is_empty();
    }
}

/// Crash-site mapping (Algorithm 2): extract the crash site of the first
/// reporting cell, then select every normal cell that still executes it.
/// Unarbitratable cells (no module, no trace) feed the drop accounting
/// instead of being silently skipped.
#[derive(Debug, Clone, Copy, Default)]
pub struct CrashSiteMapping;

impl OracleStage for CrashSiteMapping {
    fn name(&self) -> &'static str {
        "crash-site-mapping"
    }

    fn run(&self, cx: &StageContext<'_>, out: &mut OracleVerdicts) {
        if !out.discrepancy {
            return;
        }
        let bc = match cx.executed_sites(cx.reporting()[0]) {
            Ok(trace) => trace,
            Err(reason) => {
                out.dropped = Some(reason);
                return;
            }
        };
        let crash_site = bc.last();
        out.crash_site = Some(crash_site);
        let mut arbitrated = 0usize;
        let mut unarbitrated = None;
        for &ni in cx.normal() {
            match cx.executed_sites(ni) {
                Ok(bn) => {
                    arbitrated += 1;
                    if arbitrate(&bc, crash_site, &bn) == Verdict::SanitizerBug {
                        out.sanitizer_bugs.push(ni);
                    }
                }
                Err(reason) => {
                    unarbitrated.get_or_insert(reason);
                }
            }
        }
        if out.sanitizer_bugs.is_empty() {
            // Any pair that *was* arbitrated makes the drop an arbitrated
            // one; only a matrix with no traceable normal cell at all is
            // accounted as unarbitratable.
            out.dropped = Some(match unarbitrated {
                Some(reason) if arbitrated == 0 => reason,
                _ => DropReason::OptimizationArtifact,
            });
        }
    }
}

/// Partial-sanitization awareness: under a [`ubfuzz_simcc::SanPolicy`]
/// other than `Full`, a cell whose module skipped the ground-truth UB check
/// site could never have reported — its silence is an **expected miss**,
/// not a sanitizer FN bug, and its (necessarily mislocated) report is not a
/// wrong report. The stage prunes both selections and, when pruning empties
/// the bug list, reclassifies the drop as [`DropReason::ExpectedMiss`] so
/// campaign telemetry accounts it per sanitizer, away from true FNs.
///
/// Under `Full` every skipped-site set is empty, so the stage is a no-op
/// and the standard stack stays bit-identical to the pre-partition oracle.
/// Opaque artifacts (no module) carry no skipped-site set and are left
/// untouched — native backends do not model partial instrumentation.
#[derive(Debug, Clone, Copy, Default)]
pub struct PartialSanAwareness;

impl PartialSanAwareness {
    fn skipped_ub_site(cx: &StageContext<'_>, cell: usize) -> bool {
        cx.cells[cell].artifact.module().is_some_and(|m| {
            // Line granularity, matching the wrong-report stage: check
            // emissions inherit the UB instruction's line.
            m.san.skipped_sites.iter().any(|l| l.line == cx.input.ub_loc.line)
        })
    }
}

impl OracleStage for PartialSanAwareness {
    fn name(&self) -> &'static str {
        "partial-san"
    }

    fn run(&self, cx: &StageContext<'_>, out: &mut OracleVerdicts) {
        // The skip predicate is a pure function of (policy, function, site),
        // so the whole matrix shares one subset: if any cell skipped the UB
        // site, every module-carrying cell did, and the matrix as a whole
        // could never have caught this program.
        out.expected_miss = (0..cx.cells.len()).any(|i| Self::skipped_ub_site(cx, i));
        out.wrong_reports.retain(|&i| !Self::skipped_ub_site(cx, i));
        let before = out.sanitizer_bugs.len();
        out.sanitizer_bugs.retain(|&i| !Self::skipped_ub_site(cx, i));
        if before > 0 && out.sanitizer_bugs.is_empty() {
            out.dropped = Some(DropReason::ExpectedMiss);
        }
    }
}

/// The §4.4 ablation's selection rule: *every* discrepancy is a bug, filed
/// against every normal cell — the "practically infeasible" triage burden
/// the paper motivates crash-site mapping with.
#[derive(Debug, Clone, Copy, Default)]
pub struct NaiveSelection;

impl OracleStage for NaiveSelection {
    fn name(&self) -> &'static str {
        "naive"
    }

    fn run(&self, cx: &StageContext<'_>, out: &mut OracleVerdicts) {
        if out.discrepancy {
            out.sanitizer_bugs.extend_from_slice(cx.normal());
        }
    }
}

/// The standard [`CrashOracle`]: an ordered stage list over a shared
/// context. Campaigns carry one in their config; ablations select a
/// different stack instead of forking campaign code. The stack's name is
/// its whole identity (a campaign checkpoint folds it into its key), so
/// two stacks with different stages must carry different names.
#[derive(Debug, Clone)]
pub struct OracleStack {
    name: &'static str,
    stages: Vec<Arc<dyn OracleStage>>,
}

impl OracleStack {
    /// A stack from explicit stages.
    pub fn new(name: &'static str, stages: Vec<Arc<dyn OracleStage>>) -> OracleStack {
        OracleStack { name, stages }
    }

    /// The paper's oracle: wrong-report detection, discrepancy accounting,
    /// crash-site mapping, partial-sanitization awareness. This is the
    /// campaign default, bit-identical to the pre-trait free-function
    /// oracle on module-carrying backends (the awareness stage is a no-op
    /// under the full policy).
    pub fn standard() -> OracleStack {
        OracleStack::new(
            "standard",
            vec![
                Arc::new(WrongReportDetection),
                Arc::new(DiscrepancyAccounting),
                Arc::new(CrashSiteMapping),
                Arc::new(PartialSanAwareness),
            ],
        )
    }

    /// The §4.4 ablation stack: every discrepancy is filed, nothing is
    /// arbitrated.
    pub fn naive() -> OracleStack {
        OracleStack::new(
            "naive",
            vec![Arc::new(DiscrepancyAccounting), Arc::new(NaiveSelection)],
        )
    }

    /// The stages, in judgment order.
    pub fn stages(&self) -> &[Arc<dyn OracleStage>] {
        &self.stages
    }
}

impl CrashOracle for OracleStack {
    fn name(&self) -> &str {
        self.name
    }

    fn judge(
        &self,
        backend: &dyn CompilerBackend,
        input: OracleInput,
        cells: &[CompiledCell],
    ) -> OracleVerdicts {
        let cx = StageContext::new(backend, input, cells);
        let mut out = OracleVerdicts::default();
        for stage in &self.stages {
            stage.run(&cx, &mut out);
        }
        out
    }
}

/// `GetExecutedSites` (Algorithm 2, lines 8–16) over any backend artifact:
/// module-carrying artifacts replay on the simulated VM's exact tracer (so
/// results are bit-identical to the historical module-level oracle
/// regardless of the backend's own trace support); opaque artifacts go
/// through [`CompilerBackend::trace`]. `Err` classifies why no sites exist.
pub fn trace_artifact(
    backend: &dyn CompilerBackend,
    artifact: &Artifact,
    req: &RunRequest,
) -> Result<SiteTrace, DropReason> {
    let _span = ubfuzz_obs::Span::enter(ubfuzz_obs::Stage::Trace, 0);
    if let Some(m) = artifact.module() {
        let (_, trace) = ubfuzz_simvm::run_with_config(
            m,
            &ubfuzz_simvm::VmConfig { step_limit: req.step_limit, trace: true },
        );
        return Ok(SiteTrace::from_vm(trace));
    }
    match backend.trace(artifact, req) {
        Some(trace) => Ok(trace),
        None if backend.trace_capability() == TraceCapability::None => Err(DropReason::NoModule),
        None => Err(DropReason::NoTrace),
    }
}

/// Algorithm 2's comparison: is `crash_site` (recovered from `bc`) executed
/// by `bn`? Compared at the coarsest granularity either trace offers — a
/// line-granular side degrades the whole comparison to lines, exactly what
/// a debugger-recovered site supports.
pub fn arbitrate(bc: &SiteTrace, crash_site: Loc, bn: &SiteTrace) -> Verdict {
    let executed = if bc.line_granular() || bn.line_granular() {
        bn.contains_line(crash_site.line)
    } else {
        bn.contains_site(crash_site)
    };
    if executed {
        Verdict::SanitizerBug
    } else {
        Verdict::OptimizationArtifact
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ubfuzz_backend::{RunRequest, SimBackend};
    use ubfuzz_minic::parse;
    use ubfuzz_simcc::defects::DefectRegistry;
    use ubfuzz_simcc::pipeline::{compile, CompileConfig};
    use ubfuzz_simcc::target::{OptLevel, Vendor};
    use ubfuzz_simcc::Sanitizer;
    use ubfuzz_simvm::{run_module, ReportKind, SanReport};

    fn cells_for(
        src: &str,
        reg: &DefectRegistry,
        vendor: Vendor,
        opts: &[OptLevel],
        sanitizer: Sanitizer,
    ) -> Vec<CompiledCell> {
        let p = parse(src).unwrap();
        opts.iter()
            .map(|&opt| {
                let m = compile(&p, &CompileConfig::dev(vendor, opt, Some(sanitizer), reg))
                    .unwrap();
                let outcome = run_module(&m);
                CompiledCell {
                    compiler: CompilerId::dev(vendor),
                    opt,
                    artifact: Artifact::Sim(m),
                    outcome,
                }
            })
            .collect()
    }

    fn input_for(kind: UbKind, line: u32) -> OracleInput {
        OracleInput { sanitizer: Sanitizer::Asan, ub_kind: kind, ub_loc: Loc::new(line, 0) }
    }

    const FIG1: &str = "
        struct a { int x; };
        struct a b[2];
        struct a *c = b;
        struct a *d = b;
        int k = 0;
        int main(void) {
            c->x = b[0].x;
            k = 2;
            c->x = (d + k)->x;
            return c->x;
        }
    ";

    #[test]
    fn standard_stack_flags_defect_caused_discrepancy_as_bug() {
        // Fig. 1 world: the -O2 miss is a sanitizer bug; the crash site (the
        // dereference) is still executed at -O2.
        let reg = DefectRegistry::full();
        let cells =
            cells_for(FIG1, &reg, Vendor::Gcc, &[OptLevel::O0, OptLevel::O2], Sanitizer::Asan);
        let backend = SimBackend::uncached();
        let v = OracleStack::standard().judge(
            &backend,
            input_for(UbKind::BufOverflowPtr, 10),
            &cells,
        );
        assert!(v.discrepancy);
        assert_eq!(v.sanitizer_bugs, vec![1], "the -O2 normal exit is selected");
        assert!(v.selected());
        assert!(v.crash_site.expect("mapping ran").is_known());
        assert_eq!(v.drop_reason(), None);
    }

    #[test]
    fn standard_stack_flags_optimized_away_ub_as_artifact() {
        // Fig. 3 world: the UB store is dead and removed by -O2 before the
        // sanitizer pass; no instruction at the crash site survives.
        let reg = DefectRegistry::pristine();
        let src = "
            int g;
            int main(void) {
                int d[2];
                int i = 2;
                d[i] = 1;
                g = 7;
                print_value(g);
                return 0;
            }
        ";
        let cells =
            cells_for(src, &reg, Vendor::Gcc, &[OptLevel::O0, OptLevel::O2], Sanitizer::Asan);
        let backend = SimBackend::uncached();
        let v = OracleStack::standard().judge(
            &backend,
            input_for(UbKind::BufOverflowArray, 6),
            &cells,
        );
        assert!(v.discrepancy);
        assert!(v.sanitizer_bugs.is_empty());
        assert_eq!(v.drop_reason(), Some(DropReason::OptimizationArtifact));
    }

    #[test]
    fn no_discrepancy_selects_nothing() {
        let reg = DefectRegistry::pristine();
        let cells = cells_for(
            "int main(void) { return 0; }",
            &reg,
            Vendor::Gcc,
            &[OptLevel::O0, OptLevel::O2],
            Sanitizer::Asan,
        );
        let backend = SimBackend::uncached();
        let v = OracleStack::standard().judge(
            &backend,
            input_for(UbKind::BufOverflowArray, 1),
            &cells,
        );
        assert!(!v.discrepancy);
        assert_eq!(v.drop_reason(), None);
        assert!(v.crash_site.is_none(), "mapping never ran");
    }

    #[test]
    fn pristine_world_matrices_are_never_bugs() {
        // With correct sanitizers, any discrepancy across levels must be an
        // optimization artifact — the oracle's precision property (§4.4).
        let reg = DefectRegistry::pristine();
        let src = "
            int g;
            int main(void) {
                int dead[4];
                int j = 5;
                dead[j] = 3;
                g = 1;
                print_value(g);
                return 0;
            }
        ";
        let backend = SimBackend::uncached();
        for vendor in Vendor::ALL {
            let cells = cells_for(src, &reg, vendor, &OptLevel::ALL, Sanitizer::Asan);
            let v = OracleStack::standard().judge(
                &backend,
                input_for(UbKind::BufOverflowArray, 5),
                &cells,
            );
            assert!(
                v.sanitizer_bugs.is_empty(),
                "{vendor}: pristine sanitizers have no FN bugs: {v:?}"
            );
        }
    }

    #[test]
    fn naive_stack_files_every_discrepancy() {
        let reg = DefectRegistry::pristine();
        let src = "
            int g;
            int main(void) {
                int d[2];
                int i = 2;
                d[i] = 1;
                g = 7;
                print_value(g);
                return 0;
            }
        ";
        let cells =
            cells_for(src, &reg, Vendor::Gcc, &[OptLevel::O0, OptLevel::O2], Sanitizer::Asan);
        let backend = SimBackend::uncached();
        let input = input_for(UbKind::BufOverflowArray, 6);
        let standard = OracleStack::standard().judge(&backend, input, &cells);
        let naive = OracleStack::naive().judge(&backend, input, &cells);
        assert!(!standard.selected(), "mapping drops the Fig. 3 shape");
        assert!(naive.selected(), "the ablation stack files it");
        assert_eq!(naive.sanitizer_bugs, vec![1]);
        assert_eq!(OracleStack::naive().name(), "naive");
        assert_eq!(OracleStack::standard().stages().len(), 4);
    }

    #[test]
    fn policy_skipped_ub_site_is_an_expected_miss_not_a_bug() {
        // The tent-pole scenario: the defect world would normally make the
        // uninstrumented cell an FN-bug selection (the UB site is still
        // executed), but its policy skipped the check site — the standard
        // stack must account it as an expected miss, never file it.
        let reg = DefectRegistry::full();
        let p = parse(FIG1).unwrap();
        let full = compile(
            &p,
            &CompileConfig::dev(Vendor::Gcc, OptLevel::O0, Some(Sanitizer::Asan), &reg),
        )
        .unwrap();
        let none = compile(
            &p,
            &CompileConfig::dev(Vendor::Gcc, OptLevel::O0, Some(Sanitizer::Asan), &reg)
                .with_policy(ubfuzz_simcc::SanPolicy::None),
        )
        .unwrap();
        let cells = vec![
            CompiledCell {
                compiler: CompilerId::dev(Vendor::Gcc),
                opt: OptLevel::O0,
                outcome: run_module(&full),
                artifact: Artifact::Sim(full),
            },
            CompiledCell {
                compiler: CompilerId::dev(Vendor::Gcc),
                opt: OptLevel::O0,
                outcome: run_module(&none),
                artifact: Artifact::Sim(none),
            },
        ];
        assert!(cells[0].outcome.is_report(), "full cell reports");
        assert!(cells[1].outcome.is_normal_exit(), "uninstrumented cell runs through");
        let backend = SimBackend::uncached();
        let input = input_for(UbKind::BufOverflowPtr, 10);
        let v = OracleStack::standard().judge(&backend, input, &cells);
        assert!(v.discrepancy);
        assert!(!v.selected(), "expected miss must never be filed as an FN bug");
        assert!(v.wrong_reports.is_empty());
        assert_eq!(v.drop_reason(), Some(DropReason::ExpectedMiss));
        assert!(v.expected_miss, "the flag feeds campaign telemetry without a discrepancy");
        // The telemetry spelling the campaign greps for.
        assert_eq!(DropReason::ExpectedMiss.name(), "expected-miss");
        let mut t = OracleTelemetry::default();
        t.record_drop(input.sanitizer, v.drop_reason().unwrap());
        assert_eq!(t.expected_misses(Sanitizer::Asan), 1);
        assert_eq!(t.expected_miss_total(), 1);
        assert_eq!(t.unarbitrated(), 0, "expected misses are not trace failures");
        // The §4.4 ablation has no awareness stage and would have filed it
        // — the exact triage noise the stage exists to prevent.
        assert!(OracleStack::naive().judge(&backend, input, &cells).selected());
    }

    #[test]
    fn wrong_report_stage_only_flags_reports_before_the_ub_site() {
        // Hand-crafted outcomes: the stage must flag an earlier-line report
        // and never a later-line one (the dead-UB-removed case where the
        // sanitizer correctly blames the next access).
        let reg = DefectRegistry::pristine();
        let p = parse("int main(void) { return 0; }").unwrap();
        let m = compile(
            &p,
            &CompileConfig::dev(Vendor::Gcc, OptLevel::O0, Some(Sanitizer::Asan), &reg),
        )
        .unwrap();
        let backend = SimBackend::uncached();
        let cell = |line: u32| CompiledCell {
            compiler: CompilerId::dev(Vendor::Gcc),
            opt: OptLevel::O0,
            artifact: Artifact::Sim(m.clone()),
            outcome: RunOutcome::Report(SanReport {
                sanitizer: Sanitizer::Asan,
                kind: ReportKind::GlobalBufOverflow,
                loc: Loc::new(line, 0),
            }),
        };
        let input = input_for(UbKind::BufOverflowArray, 5);
        let stack = OracleStack::new("wr", vec![Arc::new(WrongReportDetection)]);
        let early = stack.judge(&backend, input, &[cell(3)]);
        assert_eq!(early.wrong_reports, vec![0], "report before the UB site is wrong");
        let same = stack.judge(&backend, input, &[cell(5)]);
        assert!(same.wrong_reports.is_empty(), "the UB line itself is correct");
        let late = stack.judge(&backend, input, &[cell(9)]);
        assert!(late.wrong_reports.is_empty(), "later reports are legitimate");
    }

    #[test]
    fn line_granular_traces_arbitrate_by_line() {
        let site = SiteTrace::from_vm(ubfuzz_simvm::Trace {
            executed: [Loc::new(4, 2), Loc::new(5, 0)].into_iter().collect(),
            last: Loc::new(5, 0),
        });
        let line = SiteTrace::from_lines(vec![3, 4]);
        // Site-vs-site compares exactly …
        let other = SiteTrace::from_vm(ubfuzz_simvm::Trace {
            executed: [Loc::new(4, 9)].into_iter().collect(),
            last: Loc::new(4, 9),
        });
        assert_eq!(arbitrate(&site, Loc::new(4, 2), &other), Verdict::OptimizationArtifact);
        // … but one line-granular side degrades the comparison to lines.
        assert_eq!(arbitrate(&site, Loc::new(4, 2), &line), Verdict::SanitizerBug);
        assert_eq!(arbitrate(&line, Loc::new(4, 0), &site), Verdict::SanitizerBug);
        assert_eq!(arbitrate(&line, Loc::new(9, 0), &site), Verdict::OptimizationArtifact);
    }

    #[test]
    fn telemetry_buckets_by_sanitizer_and_reason() {
        let mut t = OracleTelemetry::default();
        assert!(t.is_empty());
        t.record_drop(Sanitizer::Asan, DropReason::OptimizationArtifact);
        t.record_drop(Sanitizer::Asan, DropReason::NoModule);
        t.record_drop(Sanitizer::Msan, DropReason::NoTrace);
        t.record_drop(Sanitizer::Msan, DropReason::NoTrace);
        assert_eq!(t.dropped(Sanitizer::Asan, DropReason::NoModule), 1);
        assert_eq!(t.dropped_for(DropReason::NoTrace), 2);
        assert_eq!(t.unarbitrated(), 3);
        assert_eq!(t.sanitizers(), vec![Sanitizer::Asan, Sanitizer::Msan]);
        assert_eq!(DropReason::NoModule.to_string(), "no-module");
    }

    #[test]
    fn pair_primitives_implement_algorithm_2() {
        // trace_artifact + arbitrate are the pair-level Algorithm 2
        // (`IsBug`): the O0 sanitizer report's crash site is executed by
        // the O2 binary, so the discrepancy is a sanitizer bug. This is the
        // migrated coverage of the removed module-only shim — the stack
        // over the same matrix is pinned by
        // `standard_stack_flags_defect_caused_discrepancy_as_bug` above.
        let reg = DefectRegistry::full();
        let p = parse(FIG1).unwrap();
        let bc = compile(
            &p,
            &CompileConfig::dev(Vendor::Gcc, OptLevel::O0, Some(Sanitizer::Asan), &reg),
        )
        .unwrap();
        let bn = compile(
            &p,
            &CompileConfig::dev(Vendor::Gcc, OptLevel::O2, Some(Sanitizer::Asan), &reg),
        )
        .unwrap();
        // The premise the campaign establishes before arbitration: one side
        // reports, the other exits normally.
        assert!(run_module(&bc).is_report());
        assert!(run_module(&bn).is_normal_exit());
        let backend = SimBackend::uncached();
        let req = RunRequest::default();
        let tc = trace_artifact(&backend, &Artifact::Sim(bc), &req).unwrap();
        let tn = trace_artifact(&backend, &Artifact::Sim(bn), &req).unwrap();
        assert!(tc.last().is_known(), "crash site extracted (Definition 2)");
        assert_eq!(arbitrate(&tc, tc.last(), &tn), Verdict::SanitizerBug);
    }
}
