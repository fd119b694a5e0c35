//! Golden module identity: the compiled bytes of a fixed sweep must never
//! change under a refactor or a performance rewrite of the compiler.
//!
//! For every generated program of a small seed range, every cell of the
//! compiler × opt-level × sanitizer matrix is compiled and its module
//! serialized with `store::modser`; FNV-1a folds the per-cell digests, in
//! sweep order, into one digest per compiler. The expected constants were
//! recorded before any pass was rewritten and pin both the single-shot
//! `pipeline::compile` and a cache-backed `CompileSession` shared by the
//! whole sweep (so cache hits, cross-cell prefix sharing and re-stamped
//! build identities are all covered).
//!
//! The same sweep runs a second time under a partial sanitization policy,
//! so the sanitizer passes' policy-skip branches (and the skipped-site
//! lists they record) are pinned as well as the full-policy output.

use ubfuzz::minic::Program;
use ubfuzz::seedgen::{generate_seed, SeedOptions};
use ubfuzz::simcc::defects::DefectRegistry;
use ubfuzz::simcc::ir::Module;
use ubfuzz::simcc::lower::CompileError;
use ubfuzz::simcc::pipeline::{compile, CompileConfig};
use ubfuzz::simcc::session::CompileSession;
use ubfuzz::simcc::target::{CompilerId, OptLevel, Vendor};
use ubfuzz::simcc::{SanPolicy, Sanitizer};
use ubfuzz::store::modser::module_to_bytes;
use ubfuzz::store::wire::fnv1a;
use ubfuzz::ubgen::{generate_all, GenOptions};

/// Up to four programs per UB kind keep the debug-build run short.
const MAX_PER_KIND: usize = 4;

/// Both development heads, plus the stable versions whose unroll
/// thresholds differ from the heads' (GCC < 10 at -O2, LLVM < 12 at -O3).
const COMPILERS: [CompilerId; 4] = [
    CompilerId { vendor: Vendor::Gcc, version: 14 },
    CompilerId { vendor: Vendor::Llvm, version: 18 },
    CompilerId { vendor: Vendor::Gcc, version: 9 },
    CompilerId { vendor: Vendor::Llvm, version: 11 },
];

const SANITIZERS: [Option<Sanitizer>; 4] =
    [None, Some(Sanitizer::Asan), Some(Sanitizer::Ubsan), Some(Sanitizer::Msan)];

/// Per-compiler digests of the sweep, in [`COMPILERS`] order.
const EXPECTED: [u64; 4] = [
    0xb5ce5fff5ce9c553,
    0xe3e1c9cf564b05a1,
    0x43c67082424ff006,
    0x3b35ed57adefd76d,
];

/// Per-compiler digests of the same sweep under [`PARTIAL`], recorded
/// before the sanitizer passes' def tables were rewritten.
const EXPECTED_PARTIAL: [u64; 4] = [
    0xc2f17e99fa21f7ee,
    0xffa646db1e80b050,
    0x2330334e9981662f,
    0xc66408e390cc3997,
];

/// The partial policy of the second sweep: about half the check sites of
/// every sanitizer keep their check.
const PARTIAL: SanPolicy = SanPolicy::Partial { ratio_pm: 500, salt: 7 };

/// Folds one cell's outcome into a running FNV-1a digest.
fn fold(acc: u64, cell: &Result<Module, CompileError>) -> u64 {
    let mut bytes = acc.to_le_bytes().to_vec();
    match cell {
        Ok(m) => bytes.extend(fnv1a(&module_to_bytes(m)).to_le_bytes()),
        Err(e) => bytes.extend(e.message.as_bytes()),
    }
    fnv1a(&bytes)
}

/// Digests of the sweep under `san_policy`, every cell compiled by
/// `compile_cell`.
fn sweep(
    san_policy: SanPolicy,
    mut compile_cell: impl FnMut(&Program, &CompileConfig<'_>) -> Result<Module, CompileError>,
) -> [u64; 4] {
    let registry = DefectRegistry::full();
    let mut digests = [0u64; 4];
    for seed_id in 0..2u64 {
        let seed = generate_seed(seed_id, &SeedOptions::default());
        let opts = GenOptions {
            max_per_kind: MAX_PER_KIND,
            rng_seed: seed_id.wrapping_mul(31).wrapping_add(7),
            ..GenOptions::default()
        };
        let programs = generate_all(&seed, &opts);
        assert!(!programs.is_empty(), "seed {seed_id} produced no programs");
        for u in &programs {
            for (i, &compiler) in COMPILERS.iter().enumerate() {
                for opt in OptLevel::ALL {
                    for sanitizer in SANITIZERS {
                        let cfg = CompileConfig {
                            compiler,
                            opt,
                            sanitizer,
                            registry: &registry,
                            san_policy,
                        };
                        digests[i] = fold(digests[i], &compile_cell(&u.program, &cfg));
                    }
                }
            }
        }
    }
    digests
}

fn check(what: &str, digests: [u64; 4], expected: [u64; 4]) {
    for ((compiler, got), want) in COMPILERS.iter().zip(digests).zip(expected) {
        assert_eq!(got, want, "{what}: module bytes changed for {compiler}: {got:#018x}");
    }
}

#[test]
fn single_shot_pipeline_matches_golden_digests() {
    check("pipeline::compile", sweep(SanPolicy::Full, compile), EXPECTED);
}

/// Sweeps `san_policy` through one `CompileSession` shared by every cell.
fn session_sweep(san_policy: SanPolicy) -> [u64; 4] {
    let session = CompileSession::new();
    let digests = sweep(san_policy, |program, cfg| {
        let fp = CompileSession::fingerprint(program);
        session.compile_fp(&fp, program, cfg)
    });
    let stats = session.stats();
    assert!(stats.hits > 0, "the sweep must exercise prefix hits: {stats:?}");
    digests
}

#[test]
fn shared_session_matches_golden_digests() {
    check("CompileSession::compile_fp", session_sweep(SanPolicy::Full), EXPECTED);
}

#[test]
fn partial_policy_pipeline_matches_golden_digests() {
    check("pipeline::compile (partial)", sweep(PARTIAL, compile), EXPECTED_PARTIAL);
}

#[test]
fn partial_policy_session_matches_golden_digests() {
    check("CompileSession::compile_fp (partial)", session_sweep(PARTIAL), EXPECTED_PARTIAL);
}
