//! `ubfuzz` — the UBfuzz testing framework (ASPLOS 2024 reproduction).
//!
//! The facade crate ties the whole pipeline together (paper §4.1, "Testing
//! process"):
//!
//! 1. generate a valid seed program ([`ubfuzz_seedgen`], the Csmith role);
//! 2. mutate it into UB programs via shadow statement insertion
//!    ([`ubfuzz_ubgen`]);
//! 3. compile every UB program with multiple sanitizer-enabled compilers
//!    ([`ubfuzz_simcc`]) and execute the binaries ([`ubfuzz_simvm`]);
//! 4. on a discrepant sanitizer report, run crash-site mapping
//!    ([`ubfuzz_oracle`]) to separate sanitizer FN bugs from optimization
//!    artifacts;
//! 5. reduce ([`ubfuzz_reduce`]), deduplicate and report.
//!
//! The [`campaign`] module is the automated loop; [`history`] holds the
//! bug-tracker survey data behind the paper's Fig. 9; [`report`] renders
//! every table and figure of the evaluation section.
//!
//! Compilation and execution go through the [`ubfuzz_backend`] abstraction:
//! campaigns are generic over [`CompilerBackend`], default to the simulated
//! [`SimBackend`] (bit-identical to driving [`ubfuzz_simcc`]/
//! [`ubfuzz_simvm`] directly), and can target real gcc/clang through the
//! feature-gated `CcBackend` adapter.

pub mod campaign;
pub mod executor;
pub mod history;
pub mod persist;
pub mod report;

pub use campaign::{
    run_campaign, CampaignConfig, CampaignConfigBuilder, CampaignStats, FoundBug,
    ParallelCampaign,
};
pub use ubfuzz_backend::{CompilerBackend, SimBackend};
pub use ubfuzz_guide::{Frontier, GuidePlan, Strategy};
pub use ubfuzz_oracle::{CrashOracle, OracleStack, OracleTelemetry};
pub use ubfuzz_simcc::session::SessionStats;
pub use ubfuzz_simcc::SanPolicy;

pub use ubfuzz_backend as backend;
pub use ubfuzz_guide as guide;
pub use ubfuzz_obs as obs;
pub use ubfuzz_store as store;
pub use ubfuzz_baselines as baselines;
pub use ubfuzz_interp as interp;
pub use ubfuzz_minic as minic;
pub use ubfuzz_oracle as oracle;
pub use ubfuzz_reduce as reduce;
pub use ubfuzz_seedgen as seedgen;
pub use ubfuzz_simcc as simcc;
pub use ubfuzz_simvm as simvm;
pub use ubfuzz_ubgen as ubgen;
