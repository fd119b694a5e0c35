//! `ubfuzz-simcc` — the compiler substrate: two optimizing "vendor"
//! toolchains with sanitizer passes and an injected sanitizer-defect corpus.
//!
//! The UBfuzz paper tests GCC and LLVM sanitizers. This crate provides the
//! equivalent *system under test* for the reproduction:
//!
//! * an [`ir`] register machine with explicit memory, lifetime markers,
//!   sanitizer-check instructions and per-instruction `(line, offset)` debug
//!   metadata;
//! * a [`lower`] frontend from [`ubfuzz_minic`] ASTs (with `-O0`-style
//!   constant folding);
//! * optimization [`passes`] — constant folding, DCE, store forwarding,
//!   dead-store/dead-slot elimination, CFG simplification, loop unrolling,
//!   inlining — that run *before* the sanitizer pass and can therefore
//!   delete UB the sanitizer never gets to see (paper Fig. 2/3);
//! * sanitizer passes ([`san`]): ASan (shadow/red-zone checks, scope
//!   poisoning), UBSan (overflow/shift/div/null/bounds checks) and MSan
//!   (shadow-propagation policy + use checks), with the paper's Table 2
//!   support matrix;
//! * the [`defects`] registry — 30 injected sanitizer bugs matching the
//!   paper's Table 3/Table 6/Fig. 10/Fig. 11 distributions, plus the
//!   legitimate GCC `-O3` transformation behind the one invalid report;
//! * two vendor [`pipeline`]s ("GCC" 5–14, "LLVM" 5–18 at `-O0/-O1/-Os/
//!   -O2/-O3`) whose pass mixes differ by vendor and version;
//! * [`cov`] — self-coverage of the sanitizer implementation, the Table 5
//!   measurement substrate.
//!
//! # Example
//!
//! ```
//! use ubfuzz_simcc::defects::DefectRegistry;
//! use ubfuzz_simcc::ir::Sanitizer;
//! use ubfuzz_simcc::pipeline::{compile, CompileConfig};
//! use ubfuzz_simcc::target::{OptLevel, Vendor};
//!
//! let program = ubfuzz_minic::parse(
//!     "int g[4]; int main(void) { g[1] = 2; return g[1]; }",
//! ).unwrap();
//! let registry = DefectRegistry::full();
//! let cfg = CompileConfig::dev(Vendor::Gcc, OptLevel::O2, Some(Sanitizer::Asan), &registry);
//! let module = compile(&program, &cfg).unwrap();
//! assert!(module.instr_count() > 0);
//! ```

pub mod cov;
pub mod defects;
pub mod ir;
pub mod lower;
pub mod partition;
pub mod passes;
pub mod pipeline;
pub mod san;
pub mod session;
pub mod target;

/// Locks a mutex, recovering the guard when a panicking holder poisoned it
/// — the same degrade-never-abort contract as the store's `relock` helpers
/// (which live below this crate in the dependency order, hence the local
/// copy). Everything these mutexes guard is a cache or an aggregate of
/// deterministic results, so a recovered guard is still correct.
/// A recovery clears the poison, so each poisoning counts once: in the
/// caller's counter and as the `lock_recoveries` telemetry counter.
pub(crate) fn relock<'a, T>(
    m: &'a std::sync::Mutex<T>,
    recoveries: &std::sync::atomic::AtomicUsize,
) -> std::sync::MutexGuard<'a, T> {
    m.lock().unwrap_or_else(|e| {
        recoveries.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        ubfuzz_obs::count("lock_recoveries", 1);
        m.clear_poison();
        e.into_inner()
    })
}

pub use cov::{CovDelta, CovPoint};
pub use defects::{BugStatus, Defect, DefectCategory, DefectRegistry, DEFECTS};
pub use ir::{Module, Sanitizer};
pub use lower::CompileError;
pub use partition::SanPolicy;
pub use pipeline::{compile, CompileConfig};
pub use san::{sanitizers_for, supports};
pub use session::{CompileSession, ProgramFingerprint, SessionStats};
pub use target::{BuildInfo, CompilerId, OptLevel, Vendor};
