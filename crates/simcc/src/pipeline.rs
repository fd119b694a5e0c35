//! Vendor compilation pipelines (paper Fig. 2).
//!
//! `frontend → early optimizer passes → sanitizer pass → late optimizer
//! passes → "backend"`. The two vendors run different pass mixes at each
//! level, and newer versions optimize harder — which is what makes
//! cross-compiler and cross-level differential testing produce both kinds of
//! discrepancy the paper wrestles with.
//!
//! The pipeline is exposed as four explicit stages — [`lower_stage`],
//! [`early_opt_stage`], [`sanitize_stage`], [`late_opt_stage`] — because the
//! first two depend on neither the sanitizer nor the defect world. Lowering
//! reads only the program, and early-opt reads only the cell's
//! [`PrefixClass`]: nothing at `-O0`, the level at `-O1`/`-Os`, and the
//! vendor plus an unroll threshold at `-O2`/`-O3`. So the
//! *sanitizer-independent prefix* ([`compile_prefix`]) is a function of
//! `(program, PrefixClass)` plus the [`BuildInfo`] stamp, and
//! [`crate::session::CompileSession`] memoizes it under exactly that key:
//! each program is lowered once, and each class is optimized once for all
//! the compilers, levels and sanitizers that share it.
//! [`compile`] composes the stages and is byte-for-byte the old single-shot
//! pipeline.

use crate::defects::DefectRegistry;
use crate::ir::{Module, Sanitizer};
use crate::lower::{lower, CompileError};
use crate::partition::SanPolicy;
use crate::passes;
use crate::san::{self, SanCtx};
use crate::target::{BuildInfo, CompilerId, OptLevel, Vendor};
use ubfuzz_minic::Program;

/// A full compiler invocation: compiler, level, sanitizer, defect world.
#[derive(Debug, Clone)]
pub struct CompileConfig<'a> {
    /// Which compiler.
    pub compiler: CompilerId,
    /// Optimization level.
    pub opt: OptLevel,
    /// Sanitizer to enable, if any (`-fsanitize=`).
    pub sanitizer: Option<Sanitizer>,
    /// The defect world (usually [`DefectRegistry::full`]).
    pub registry: &'a DefectRegistry,
    /// Partial-sanitization policy ([`SanPolicy::Full`] is the bit-identical
    /// default).
    pub san_policy: SanPolicy,
}

impl<'a> CompileConfig<'a> {
    /// Development-head compiler at `opt` with `sanitizer`.
    pub fn dev(
        vendor: Vendor,
        opt: OptLevel,
        sanitizer: Option<Sanitizer>,
        registry: &'a DefectRegistry,
    ) -> CompileConfig<'a> {
        CompileConfig {
            compiler: CompilerId::dev(vendor),
            opt,
            sanitizer,
            registry,
            san_policy: SanPolicy::Full,
        }
    }

    /// The same configuration under `policy`.
    pub fn with_policy(mut self, policy: SanPolicy) -> CompileConfig<'a> {
        self.san_policy = policy;
        self
    }
}

/// Compiles `program` under `cfg`.
///
/// # Errors
///
/// Fails on programs outside the frontend subset (e.g. non-constant global
/// initializers) and on unsupported sanitizer combinations — GCC has no
/// MSan, exactly as the paper notes in §4.1.
pub fn compile(program: &Program, cfg: &CompileConfig<'_>) -> Result<Module, CompileError> {
    check_supported(cfg)?;
    let mut module = compile_prefix(program, cfg.compiler, cfg.opt)?;
    sanitize_stage(&mut module, cfg);
    late_opt_stage(&mut module, cfg.opt);
    Ok(module)
}

/// Rejects compiler/sanitizer combinations the vendors do not ship.
pub(crate) fn check_supported(cfg: &CompileConfig<'_>) -> Result<(), CompileError> {
    if cfg.compiler.vendor == Vendor::Gcc && cfg.sanitizer == Some(Sanitizer::Msan) {
        return Err(CompileError { message: "GCC does not support MemorySanitizer".into() });
    }
    Ok(())
}

/// Stage 1 — frontend: lowers `program` and tags the module with its build
/// identity.
pub fn lower_stage(
    program: &Program,
    compiler: CompilerId,
    opt: OptLevel,
) -> Result<Module, CompileError> {
    let mut module = lower(program)?;
    module.build = Some(BuildInfo { compiler, opt });
    Ok(module)
}

/// Stages 1+2 — the sanitizer-independent compilation prefix: frontend plus
/// the pre-sanitizer optimization pipeline. Apart from the [`BuildInfo`]
/// stamp it depends only on `(program, prefix_class(compiler, opt))`, the
/// key [`crate::session::CompileSession`] memoizes it under.
pub fn compile_prefix(
    program: &Program,
    compiler: CompilerId,
    opt: OptLevel,
) -> Result<Module, CompileError> {
    let mut module = lower_stage(program, compiler, opt)?;
    early_opt_stage(&mut module, compiler, opt);
    Ok(module)
}

/// Stage 3 — sanitizer instrumentation (`-fsanitize=`), a no-op without a
/// sanitizer. This is where the defect world enters the pipeline.
pub fn sanitize_stage(module: &mut Module, cfg: &CompileConfig<'_>) {
    if let Some(s) = cfg.sanitizer {
        let ctx = SanCtx {
            vendor: cfg.compiler.vendor,
            version: cfg.compiler.version,
            opt: cfg.opt,
            registry: cfg.registry,
            policy: cfg.san_policy,
        };
        match s {
            Sanitizer::Asan => san::run_asan(module, &ctx),
            Sanitizer::Ubsan => {
                san::run_ubsan(module, &ctx);
                san::ubsan_global_store_fixup(module, &ctx);
            }
            Sanitizer::Msan => san::run_msan(module, &ctx),
        }
    }
}

/// Unroll threshold per vendor/version/level.
fn unroll_threshold(compiler: CompilerId, opt: OptLevel) -> i64 {
    let v = compiler.version as i64;
    match (compiler.vendor, opt) {
        (_, OptLevel::O0 | OptLevel::O1 | OptLevel::Os) => 0,
        (Vendor::Gcc, OptLevel::O2) => {
            if v >= 10 {
                8
            } else {
                4
            }
        }
        (Vendor::Gcc, OptLevel::O3) => 16,
        (Vendor::Llvm, OptLevel::O2) => 6,
        (Vendor::Llvm, OptLevel::O3) => {
            if v >= 12 {
                16
            } else {
                12
            }
        }
    }
}

/// Everything [`early_opt_stage`] reads of a `(compiler, opt)` cell. Cells
/// of one class get byte-identical prefixes up to the [`BuildInfo`] stamp,
/// so the class (not the compiler version) keys the prefix cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PrefixClass {
    /// `-O0`: the lowered module, untouched.
    Lowered,
    /// `-O1`: the constfold/DCE/CFG fixpoint.
    Basic,
    /// `-Os`: the fixpoint around memory optimizations.
    Size,
    /// `-O2`/`-O3`: the vendor's pass order at an unroll threshold.
    Full(Vendor, i64),
}

/// The [`PrefixClass`] of a cell — the only way [`early_opt_stage`] sees
/// its compiler and level.
pub fn prefix_class(compiler: CompilerId, opt: OptLevel) -> PrefixClass {
    match opt {
        OptLevel::O0 => PrefixClass::Lowered,
        OptLevel::O1 => PrefixClass::Basic,
        OptLevel::Os => PrefixClass::Size,
        OptLevel::O2 | OptLevel::O3 => {
            PrefixClass::Full(compiler.vendor, unroll_threshold(compiler, opt))
        }
    }
}

/// Stage 2 — the pre-sanitizer optimization pipeline. Reads the cell only
/// through [`prefix_class`]; the sanitizer choice must not influence it or
/// the cached prefix would diverge from the single-shot pipeline.
pub fn early_opt_stage(m: &mut Module, compiler: CompilerId, opt: OptLevel) {
    let basic = |m: &mut Module, loads: bool| {
        for _ in 0..3 {
            let mut any = false;
            any |= passes::constfold(m);
            any |= passes::dce(m, loads);
            any |= passes::simplify_cfg(m);
            if !any {
                break;
            }
        }
    };
    match prefix_class(compiler, opt) {
        PrefixClass::Lowered => {}
        PrefixClass::Basic => {
            basic(m, true);
        }
        PrefixClass::Size => {
            basic(m, true);
            passes::memopt(m);
            passes::dead_slot_elim(m);
            basic(m, true);
        }
        PrefixClass::Full(vendor, threshold) => {
            basic(m, true);
            match vendor {
                Vendor::Gcc => {
                    // GCC: unroll, then inline, then scalar cleanup.
                    passes::unroll(m, threshold);
                    passes::inline(m, 40);
                }
                Vendor::Llvm => {
                    // LLVM: inline first, then unroll.
                    passes::inline(m, 40);
                    passes::unroll(m, threshold);
                }
            }
            basic(m, true);
            passes::memopt(m);
            passes::dead_slot_elim(m);
            basic(m, true);
            passes::memopt(m);
            basic(m, true);
        }
    }
}

/// Stage 4 — post-instrumentation cleanup.
pub fn late_opt_stage(m: &mut Module, opt: OptLevel) {
    if opt == OptLevel::O0 {
        return;
    }
    // Post-instrumentation cleanup must keep checks and loads.
    for _ in 0..2 {
        let mut any = false;
        any |= passes::constfold(m);
        any |= passes::dce(m, false);
        any |= passes::simplify_cfg(m);
        if !any {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::Op;
    use ubfuzz_minic::parse;

    fn count_checks(m: &Module) -> usize {
        m.funcs
            .iter()
            .flat_map(|f| &f.blocks)
            .flat_map(|b| &b.instrs)
            .filter(|i| i.op.is_sanitizer_op())
            .count()
    }

    #[test]
    fn gcc_msan_unsupported() {
        let p = parse("int main(void) { return 0; }").unwrap();
        let reg = DefectRegistry::full();
        let cfg = CompileConfig::dev(Vendor::Gcc, OptLevel::O0, Some(Sanitizer::Msan), &reg);
        assert!(compile(&p, &cfg).is_err());
    }

    #[test]
    fn asan_inserts_checks_at_o0() {
        let p = parse(
            "int g[4]; int main(void) { int i = 1; g[i] = 3; return g[i]; }",
        )
        .unwrap();
        let reg = DefectRegistry::pristine();
        let cfg = CompileConfig::dev(Vendor::Gcc, OptLevel::O0, Some(Sanitizer::Asan), &reg);
        let m = compile(&p, &cfg).unwrap();
        assert!(count_checks(&m) >= 2, "load+store checks: {}", count_checks(&m));
        assert_eq!(m.san.sanitizer, Some(Sanitizer::Asan));
    }

    #[test]
    fn ubsan_inserts_arith_checks() {
        let p = parse(
            "int a; int b; int main(void) { int x = a + b; int y = a / (b + 1); return x + y; }",
        )
        .unwrap();
        let reg = DefectRegistry::pristine();
        let cfg = CompileConfig::dev(Vendor::Llvm, OptLevel::O0, Some(Sanitizer::Ubsan), &reg);
        let m = compile(&p, &cfg).unwrap();
        let arith = m
            .funcs
            .iter()
            .flat_map(|f| &f.blocks)
            .flat_map(|b| &b.instrs)
            .filter(|i| matches!(i.op, Op::UbsanCheckArith { .. } | Op::UbsanCheckDiv { .. }))
            .count();
        assert!(arith >= 3, "adds and div checked: {arith}");
    }

    #[test]
    fn optimization_reduces_instruction_count() {
        let p = parse(
            "int g; int main(void) { int a = 3; int b = 4; int dead = a * b; g = a + b; return g; }",
        )
        .unwrap();
        let reg = DefectRegistry::full();
        let o0 = compile(&p, &CompileConfig::dev(Vendor::Gcc, OptLevel::O0, None, &reg)).unwrap();
        let o2 = compile(&p, &CompileConfig::dev(Vendor::Gcc, OptLevel::O2, None, &reg)).unwrap();
        assert!(o2.instr_count() < o0.instr_count());
    }

    #[test]
    fn defect_application_recorded_in_metadata() {
        // Fig. 1 shape: store through a global pointer variable at -O2.
        let p = parse(
            "int g; int *ptr = &g;
             int main(void) { *ptr = 7; return g; }",
        )
        .unwrap();
        let reg = DefectRegistry::full();
        let m = compile(
            &p,
            &CompileConfig::dev(Vendor::Gcc, OptLevel::O2, Some(Sanitizer::Asan), &reg),
        )
        .unwrap();
        assert!(
            m.san.applied_defects.iter().any(|(id, _)| *id == "gcc-asan-d01"),
            "gcc-asan-d01 fires on global-pointer stores: {:?}",
            m.san.applied_defects
        );
        // Pristine world: no defects applied.
        let clean = DefectRegistry::pristine();
        let m2 = compile(
            &p,
            &CompileConfig::dev(Vendor::Gcc, OptLevel::O2, Some(Sanitizer::Asan), &clean),
        )
        .unwrap();
        assert!(m2.san.applied_defects.is_empty());
    }

    #[test]
    fn prefix_classes_follow_what_early_opt_reads() {
        let gcc = |version| CompilerId { vendor: Vendor::Gcc, version };
        let llvm = |version| CompilerId { vendor: Vendor::Llvm, version };
        // -O0/-O1/-Os ignore the compiler entirely.
        for opt in [OptLevel::O0, OptLevel::O1, OptLevel::Os] {
            assert_eq!(prefix_class(gcc(5), opt), prefix_class(llvm(18), opt));
        }
        // -O2/-O3 read the vendor and the unroll threshold, not the version.
        assert_eq!(prefix_class(gcc(10), OptLevel::O2), prefix_class(gcc(14), OptLevel::O2));
        assert_ne!(prefix_class(gcc(9), OptLevel::O2), prefix_class(gcc(10), OptLevel::O2));
        assert_eq!(prefix_class(llvm(5), OptLevel::O2), prefix_class(llvm(18), OptLevel::O2));
        assert_ne!(prefix_class(llvm(11), OptLevel::O3), prefix_class(llvm(12), OptLevel::O3));
        assert_ne!(prefix_class(gcc(14), OptLevel::O3), prefix_class(llvm(18), OptLevel::O3));
        let dev_classes: std::collections::HashSet<_> = Vendor::ALL
            .into_iter()
            .flat_map(|v| OptLevel::ALL.map(|opt| prefix_class(CompilerId::dev(v), opt)))
            .collect();
        assert_eq!(dev_classes.len(), 7, "3 shared classes + 2 per vendor at -O2/-O3");
    }

    #[test]
    fn versions_change_optimization_behavior() {
        let p = parse(
            "int g; int main(void) { for (int i = 0; i < 6; i = i + 1) { g = g + 1; } return g; }",
        )
        .unwrap();
        let reg = DefectRegistry::full();
        let old = CompileConfig {
            compiler: CompilerId { vendor: Vendor::Gcc, version: 6 },
            opt: OptLevel::O2,
            sanitizer: None,
            registry: &reg,
            san_policy: SanPolicy::Full,
        };
        let new = CompileConfig {
            compiler: CompilerId { vendor: Vendor::Gcc, version: 13 },
            opt: OptLevel::O2,
            sanitizer: None,
            registry: &reg,
            san_policy: SanPolicy::Full,
        };
        let m_old = compile(&p, &old).unwrap();
        let m_new = compile(&p, &new).unwrap();
        // GCC ≥ 10 unrolls trip-6 loops at -O2; GCC 6 does not.
        let loops_old = crate::passes::blocks_in_loops(m_old.func("main").unwrap());
        let loops_new = crate::passes::blocks_in_loops(m_new.func("main").unwrap());
        assert!(loops_old.iter().any(|&b| b));
        assert!(!loops_new.iter().any(|&b| b));
    }
}
