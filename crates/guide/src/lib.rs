//! `ubfuzz-guide` — feedback-directed generation: the layer between the
//! campaign scheduler and the UB generator that closes the coverage loop.
//!
//! UBFuzz schedules seeds blind: every campaign samples UB kinds uniformly,
//! so late units mostly re-exercise sanitizer instrumentation paths earlier
//! units already covered. *Efficient Greybox Fuzzing to Detect Memory
//! Errors* motivates steering generation toward under-covered checks —
//! `simcc::cov` already names every sanitizer coverage point, and the
//! executor threads each unit's [`CovDelta`] back to the scheduler. This
//! crate turns that signal into a generation plan:
//!
//! - [`Frontier`] is the deterministic union of every coverage point any
//!   prior unit has hit, FNV-fingerprinted so checkpoint identity can pin
//!   the frontier state a plan was derived from.
//! - [`plan_guidance`] derives per-UB-kind generation budgets purely from
//!   `(campaign seed, frontier state)`: kinds whose sanitizer check points
//!   are all covered ("saturated") get a small seeded exploration budget,
//!   kinds with unreached points keep the full budget. A fixed seed over a
//!   fixed frontier replays bit-identically at any worker count.
//! - [`Strategy`] selects between the uniform reference (bit-identical to
//!   pre-guide campaigns) and guided mode.
//!
//! The frontier a campaign *starts* from is what the plan depends on;
//! per-unit deltas absorbed during the run feed the *next* campaign (via
//! the store's `frontier.bin` table), keeping the plan-up-front executor
//! architecture — and its determinism guarantees — intact.

use ubfuzz_minic::UbKind;
use ubfuzz_simcc::cov::{CovDelta, CovPoint};
use ubfuzz_simcc::Vendor;
use ubfuzz_store::wire::fnv1a;
use ubfuzz_ubgen::GenOptions;

/// Campaign generation strategy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// Uniform-random UB-kind selection — the bit-identical reference mode.
    #[default]
    Uniform,
    /// Coverage-guided: budgets derived from the frontier state at campaign
    /// start, steering generation toward unreached sanitizer check points.
    Guided,
}

impl Strategy {
    /// Wire/CLI name.
    pub fn name(self) -> &'static str {
        match self {
            Strategy::Uniform => "uniform",
            Strategy::Guided => "guided",
        }
    }

    /// Parses a wire/CLI name; `None` is a caller-side bad request.
    pub fn parse(s: &str) -> Option<Strategy> {
        match s {
            "uniform" => Some(Strategy::Uniform),
            "guided" => Some(Strategy::Guided),
            _ => None,
        }
    }
}

impl std::fmt::Display for Strategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The coverage frontier: every `(vendor, file, point)` sanitizer coverage
/// point any prior unit has hit, in canonical order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Frontier {
    covered: CovDelta,
}

impl Frontier {
    /// An empty (cold) frontier.
    pub fn new() -> Frontier {
        Frontier::default()
    }

    /// A frontier over an already-collected point set (e.g. loaded from the
    /// store's `frontier.bin`).
    pub fn from_covered(covered: CovDelta) -> Frontier {
        Frontier { covered }
    }

    /// Unions one unit's delta in; returns how many points were new.
    pub fn absorb(&mut self, delta: &CovDelta) -> usize {
        let before = self.covered.len();
        self.covered.merge(delta);
        self.covered.len() - before
    }

    /// Whether `point` has been covered.
    pub fn contains(&self, point: CovPoint) -> bool {
        self.covered.contains(point)
    }

    /// The covered set, canonical order.
    pub fn covered(&self) -> &CovDelta {
        &self.covered
    }

    /// Number of covered points.
    pub fn len(&self) -> usize {
        self.covered.len()
    }

    /// Whether the frontier is cold.
    pub fn is_empty(&self) -> bool {
        self.covered.is_empty()
    }

    /// FNV-1a fingerprint over the canonical point order — the frontier
    /// identity guided plans (and checkpoint fingerprints) are pinned to.
    pub fn fingerprint(&self) -> u64 {
        let mut canon = String::new();
        for (vendor, file, point) in self.covered.iter() {
            canon.push_str(vendor.name());
            canon.push('|');
            canon.push_str(file);
            canon.push('|');
            canon.push_str(point);
            canon.push('\n');
        }
        fnv1a(canon.as_bytes())
    }
}

/// The sanitizer coverage points a UB kind's detection path runs through:
/// instrumentation emitted for the construct plus the runtime report
/// entrypoint. A kind whose points are all covered (for both vendors) is
/// "saturated" — more units of that kind re-exercise known paths.
pub fn kind_points(kind: UbKind) -> &'static [(&'static str, &'static str)] {
    match kind {
        UbKind::BufOverflowArray => &[
            ("ubsan.rs", "bound_check"),
            ("asan.rs", "instrument_load"),
            ("asan.rs", "instrument_store"),
            ("rt_report.rs", "report_bound"),
            ("rt_report.rs", "report_overflow"),
        ],
        UbKind::BufOverflowPtr => &[
            ("asan.rs", "instrument_load"),
            ("asan.rs", "instrument_store"),
            ("rt_report.rs", "report_overflow"),
        ],
        UbKind::UseAfterFree => {
            &[("rt_shadow.rs", "poison_freed"), ("rt_report.rs", "report_uaf")]
        }
        UbKind::UseAfterScope => &[
            ("asan.rs", "poison_scope"),
            ("rt_shadow.rs", "poison_scope"),
            ("rt_report.rs", "report_uas"),
        ],
        UbKind::NullDeref => &[("ubsan.rs", "null_check"), ("rt_report.rs", "report_null")],
        UbKind::IntOverflow => &[
            ("ubsan.rs", "arith_check"),
            ("ubsan.rs", "neg_check"),
            ("rt_report.rs", "report_arith"),
        ],
        UbKind::ShiftOverflow => {
            &[("ubsan.rs", "shift_check"), ("rt_report.rs", "report_shift")]
        }
        UbKind::DivByZero => &[("ubsan.rs", "div_check"), ("rt_report.rs", "report_div")],
        UbKind::UninitUse => &[
            ("msan.rs", "branch_check"),
            ("rt_msan.rs", "taint_load"),
            ("rt_report.rs", "report_msan"),
        ],
        // Extension kinds have no dedicated check points yet: never
        // saturated, so guided mode treats them like unreached territory.
        _ => &[],
    }
}

/// A resolved guided-generation plan: per-kind budgets in canonical
/// [`UbKind::GENERATABLE`] order, plus the frontier identity the plan was
/// derived from (folded into the campaign checkpoint fingerprint).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GuidePlan {
    /// Per-kind emission budgets, canonical kind order.
    pub budgets: Vec<(UbKind, usize)>,
    /// Points covered by the frontier the plan saw.
    pub frontier_len: usize,
    /// Fingerprint of that frontier.
    pub frontier_fingerprint: u64,
}

/// Whether every detection point of `kind` is covered for both vendors.
fn saturated(kind: UbKind, frontier: &Frontier) -> bool {
    let points = kind_points(kind);
    !points.is_empty()
        && points.iter().all(|&(file, point)| {
            Vendor::ALL.iter().all(|&vendor| frontier.contains((vendor, file, point)))
        })
}

/// Derives the guided plan from `(campaign seed, frontier state)` — and
/// nothing else, so a fixed seed over a fixed frontier replays
/// bit-identically regardless of worker count or cache mode.
///
/// Unsaturated kinds keep the full `base.max_per_kind` budget; saturated
/// kinds drop to a small exploration budget (1–2, seeded per kind) that
/// keeps the kind alive without re-spending units on covered paths. Over a
/// cold frontier nothing is saturated and the plan equals the uniform one.
pub fn plan_guidance(campaign_seed: u64, base: &GenOptions, frontier: &Frontier) -> GuidePlan {
    let frontier_fingerprint = frontier.fingerprint();
    let budgets = UbKind::GENERATABLE
        .into_iter()
        .map(|kind| {
            let budget = if saturated(kind, frontier) {
                let mut tie = campaign_seed.to_le_bytes().to_vec();
                tie.extend_from_slice(&frontier_fingerprint.to_le_bytes());
                tie.extend_from_slice(format!("{kind:?}").as_bytes());
                1 + (fnv1a(&tie) % 2) as usize
            } else {
                base.max_per_kind
            };
            (kind, budget)
        })
        .collect();
    GuidePlan { budgets, frontier_len: frontier.len(), frontier_fingerprint }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ubfuzz_simcc::cov;

    fn full_frontier() -> Frontier {
        let mut covered = CovDelta::new();
        for &(file, point, _) in cov::POINTS {
            let (file, point) = cov::lookup(file, point).unwrap();
            for vendor in Vendor::ALL {
                covered.insert((vendor, file, point));
            }
        }
        Frontier::from_covered(covered)
    }

    #[test]
    fn kind_points_are_registered_coverage_points() {
        for kind in UbKind::GENERATABLE {
            let points = kind_points(kind);
            assert!(!points.is_empty(), "{kind:?} must map to check points");
            for &(file, point) in points {
                assert!(
                    cov::lookup(file, point).is_some(),
                    "{kind:?} maps to unregistered point {file}/{point}"
                );
            }
        }
    }

    #[test]
    fn cold_frontier_plans_the_uniform_budgets() {
        let opts = GenOptions::default();
        let plan = plan_guidance(42, &opts, &Frontier::new());
        assert_eq!(plan.frontier_len, 0);
        assert!(plan.budgets.iter().all(|&(_, b)| b == opts.max_per_kind));
        // Canonical kind order.
        let kinds: Vec<UbKind> = plan.budgets.iter().map(|&(k, _)| k).collect();
        assert_eq!(kinds, UbKind::GENERATABLE.to_vec());
    }

    #[test]
    fn saturated_kinds_drop_to_exploration_budgets() {
        let opts = GenOptions::default();
        let plan = plan_guidance(42, &opts, &full_frontier());
        assert!(
            plan.budgets.iter().all(|&(_, b)| (1..=2).contains(&b)),
            "all kinds saturated over the full frontier: {:?}",
            plan.budgets
        );
        // Pure function of (seed, frontier): same inputs, same plan.
        assert_eq!(plan, plan_guidance(42, &opts, &full_frontier()));
        // One covered point missing unsaturates its kinds.
        let mut partial = full_frontier();
        let mut covered = CovDelta::new();
        for p in partial.covered().iter() {
            if p != (Vendor::Gcc, "ubsan.rs", "div_check") {
                covered.insert(p);
            }
        }
        partial = Frontier::from_covered(covered);
        let plan = plan_guidance(42, &opts, &partial);
        let div = plan
            .budgets
            .iter()
            .find(|&&(k, _)| k == UbKind::DivByZero)
            .expect("DivByZero planned");
        assert_eq!(div.1, opts.max_per_kind, "unreached point keeps the full budget");
    }

    #[test]
    fn frontier_absorb_and_fingerprint_are_order_insensitive() {
        let a = (Vendor::Gcc, "asan.rs", "run");
        let b = (Vendor::Llvm, "msan.rs", "run");
        let mut f1 = Frontier::new();
        let mut f2 = Frontier::new();
        let mut d1 = CovDelta::new();
        d1.insert(a);
        let mut d2 = CovDelta::new();
        d2.insert(b);
        assert_eq!(f1.absorb(&d1), 1);
        assert_eq!(f1.absorb(&d2), 1);
        assert_eq!(f1.absorb(&d2), 0, "re-absorbing covers nothing new");
        f2.absorb(&d2);
        f2.absorb(&d1);
        assert_eq!(f1, f2);
        assert_eq!(f1.fingerprint(), f2.fingerprint());
        assert_ne!(f1.fingerprint(), Frontier::new().fingerprint());
    }

    /// The fingerprint of a fixed frontier, recorded while coverage deltas
    /// were still ordered sets: guided plans and checkpoint identities are
    /// pinned to it, so a new delta representation must not move it.
    #[test]
    fn fingerprint_of_a_fixed_frontier_is_pinned() {
        let covered: CovDelta = [
            (Vendor::Llvm, "ubsan.rs", "policy_skip"),
            (Vendor::Gcc, "rt_shadow.rs", "poison_freed"),
            (Vendor::Gcc, "asan.rs", "policy_skip"),
            (Vendor::Llvm, "asan.rs", "run"),
            (Vendor::Gcc, "ubsan.rs", "off_by_one_bound"),
            (Vendor::Llvm, "rt_msan.rs", "taint_propagated"),
            (Vendor::Gcc, "asan.rs", "analyze_func"),
            (Vendor::Llvm, "msan.rs", "policy_skip"),
        ]
        .into_iter()
        .collect();
        let frontier = Frontier::from_covered(covered);
        assert_eq!(frontier.len(), 8);
        assert_eq!(frontier.fingerprint(), 0xd8b3_7c4e_8fef_b770);
    }

    #[test]
    fn strategy_names_round_trip() {
        for s in [Strategy::Uniform, Strategy::Guided] {
            assert_eq!(Strategy::parse(s.name()), Some(s));
        }
        assert_eq!(Strategy::parse("greedy"), None);
        assert_eq!(Strategy::default(), Strategy::Uniform);
    }
}
