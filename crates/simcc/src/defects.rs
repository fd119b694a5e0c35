//! The injected sanitizer-defect corpus — the system under test.
//!
//! The paper reports 31 bugs (Table 3): 30 real sanitizer defects plus one
//! invalid report caused by a legitimate GCC `-O3` loop transformation
//! (Fig. 8). This registry holds the 30 real defects with the paper's exact
//! distribution across vendors, sanitizers, root-cause categories (Table 6),
//! affected optimization levels (Fig. 11), introduction versions (Fig. 10)
//! and fix status (Table 3). The invalid report is not a defect: it emerges
//! from the `gcc -O3` scope-extension transform in the ASan pass.
//!
//! Triggers are structural IR patterns. The sanitizer passes consult
//! [`DefectRegistry::active`] at every would-be check site; a match
//! suppresses or corrupts the check and records the application in the
//! module's [`crate::ir::SanMeta::applied_defects`] — ground truth used for
//! *attribution* (the analogue of the paper's manual root-cause analysis),
//! never by the test oracle.

use crate::ir::Sanitizer;
use crate::target::{OptLevel, Vendor};
use ubfuzz_minic::UbKind;

/// Root-cause categories (paper Table 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DefectCategory {
    /// The sanitizer forgets to insert a check.
    NoSanitizerCheck,
    /// A sanitizer-owned optimization removes a valid check.
    IncorrectSanitizerOpt,
    /// Red-zone layout leaves overflow bytes addressable.
    WrongRedZone,
    /// The inserted check tests the wrong thing.
    IncorrectSanitizerCheck,
    /// Expression folding/shortening drops instrumentation.
    IncorrectExprFolding,
    /// Shadow propagation mishandles an operation (MSan).
    IncorrectOperationHandling,
    /// Debug line info on the report is wrong (wrong-report bug).
    WrongLineInfo,
}

impl DefectCategory {
    /// Table 6 row label.
    pub fn name(self) -> &'static str {
        match self {
            DefectCategory::NoSanitizerCheck => "No Sanitizer Check",
            DefectCategory::IncorrectSanitizerOpt => "Incorrect Sanitizer Optimization",
            DefectCategory::WrongRedZone => "Wrong Red-Zone Buffer",
            DefectCategory::IncorrectSanitizerCheck => "Incorrect Sanitizer Check",
            DefectCategory::IncorrectExprFolding => "Incorrect Expression Folding/Shorten",
            DefectCategory::IncorrectOperationHandling => "Incorrect Operation Handling",
            DefectCategory::WrongLineInfo => "Wrong Line Information",
        }
    }

    /// All categories in Table 6 order.
    pub const ALL: [DefectCategory; 7] = [
        DefectCategory::NoSanitizerCheck,
        DefectCategory::IncorrectSanitizerOpt,
        DefectCategory::WrongRedZone,
        DefectCategory::IncorrectSanitizerCheck,
        DefectCategory::IncorrectExprFolding,
        DefectCategory::IncorrectOperationHandling,
        DefectCategory::WrongLineInfo,
    ];
}

/// Report status in the upstream tracker (Table 3 rows).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BugStatus {
    /// Reported, no developer diagnosis yet.
    Reported,
    /// Diagnosed and confirmed by the developers.
    Confirmed,
    /// Confirmed and fixed (in the development branch).
    Fixed,
}

/// Structural trigger patterns, matched by the sanitizer passes at check
/// sites. Names describe the *site shape*, not the mechanism.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trigger {
    /// Access whose address was loaded from a global pointer variable.
    AddrFromGlobalPtrLoad,
    /// Access whose address was loaded from a slot that ever held a
    /// `malloc` result.
    AddrFromMallocSlot,
    /// Scope poisoning of an escaping slot inside a loop (non-Fig. 8 shape).
    ScopePoisonInLoop,
    /// Access via struct-member offset from a loaded pointer (`p->f`).
    MemberOffsetFromLoadedPtr,
    /// Access at a constant offset into a global (index was const-folded).
    ConstOffsetGlobal,
    /// Global `int` array with an odd element count (red-zone layout).
    OddGlobalArray,
    /// Struct copies: only the first 8 bytes get checked.
    StructCopyTail,
    /// RMW store: report carries the wrong line (wrong-report bug).
    RmwWrongLine,
    /// Arithmetic whose result feeds a store to a global.
    ArithFeedsGlobalStore,
    /// Shift whose amount expression involves a `char` value.
    CharShiftAmount,
    /// Divisor chain contains a boolean widened through a narrow cast.
    BoolWidenedDivisor,
    /// Subtraction with a cast in an operand chain (folding/shorten shape).
    SubWithCastOperand,
    /// Multiplication with a narrow (8/16-bit) loaded operand.
    MulWithNarrowOperand,
    /// Array index that is a sum of two loads (aux-variable shape).
    IndexIsSumOfLoads,
    /// Division check emitted with an off-by-one source line.
    DivWrongLine,
    /// Access via a callee pointer parameter plus a constant offset.
    ParamPtrConstOffset,
    /// Scope poisoning of an escaping slot inside a loop (LLVM flavour).
    ScopePoisonInLoopLlvm,
    /// Second check of the same address register within a block.
    DuplicateAddrCheck,
    /// Odd global arrays, LLVM red-zone layout flavour.
    OddGlobalArrayLlvm,
    /// RMW access (ASan flavour: check skipped for `++(*p)` stores).
    RmwAccess,
    /// One-byte accesses (shadow granularity).
    ByteAccess,
    /// RMW dereference: the null check is omitted (`++(*p)`, Fig. 12e).
    RmwNullCheck,
    /// Check on an instruction inlined from a callee.
    InlinedArith,
    /// Shift on a 64-bit value (amount check masks the exponent first).
    LongShift,
    /// Remainder (`%`) divisor unchecked.
    RemUnchecked,
    /// Array-bounds check emitted with an off-by-one bound.
    BoundOffByOne,
    /// Null check placed after the member-offset addition (`p->f`).
    NullCheckAfterOffset,
    /// Shift whose amount chain contains a cast (folded-pair shape).
    ShiftAmountCast,
    /// Unary negation overflow never checked.
    NegationUnchecked,
    /// MSan treats `x - constant` as fully defined (Fig. 12f).
    MsanSubConst,
}

/// One injected sanitizer defect.
#[derive(Debug, Clone)]
pub struct Defect {
    /// Stable identifier, e.g. `"gcc-asan-d01"`.
    pub id: &'static str,
    /// Affected vendor.
    pub vendor: Vendor,
    /// Affected sanitizer.
    pub sanitizer: Sanitizer,
    /// Root-cause category (Table 6).
    pub category: DefectCategory,
    /// UB kind whose detection the defect breaks (Fig. 7).
    pub ub_kind: UbKind,
    /// First stable version affected (Fig. 10).
    pub introduced: u32,
    /// Optimization levels at which the defect manifests (Fig. 11).
    pub opt_levels: &'static [OptLevel],
    /// Tracker status (Table 3). Fixed bugs are fixed on the development
    /// branch only; every released version remains affected.
    pub status: BugStatus,
    /// Structural trigger.
    pub trigger: Trigger,
    /// Paper figure this defect reproduces, if any.
    pub figure: Option<&'static str>,
    /// One-line description.
    pub description: &'static str,
}

use OptLevel::{O0, O1, O2, O3, Os};

const ALL_O: &[OptLevel] = &[O0, O1, Os, O2, O3];
const O2_UP: &[OptLevel] = &[O2, O3];
const O1_UP: &[OptLevel] = &[O1, Os, O2, O3];
const OS_UP: &[OptLevel] = &[Os, O2, O3];

/// The 30-defect corpus (see the module docs for the distribution).
pub const DEFECTS: &[Defect] = &[
    // ---- GCC ASan: 8 real defects (+1 invalid report elsewhere) ----
    Defect { id: "gcc-asan-d01", vendor: Vendor::Gcc, sanitizer: Sanitizer::Asan,
        category: DefectCategory::NoSanitizerCheck, ub_kind: UbKind::BufOverflowPtr,
        introduced: 6, opt_levels: O2_UP, status: BugStatus::Fixed,
        trigger: Trigger::AddrFromGlobalPtrLoad, figure: Some("Fig.1/12a"),
        description: "accesses via pointers loaded from global pointer variables are not instrumented" },
    Defect { id: "gcc-asan-d02", vendor: Vendor::Gcc, sanitizer: Sanitizer::Asan,
        category: DefectCategory::NoSanitizerCheck, ub_kind: UbKind::UseAfterFree,
        introduced: 7, opt_levels: O1_UP, status: BugStatus::Confirmed,
        trigger: Trigger::AddrFromMallocSlot, figure: None,
        description: "accesses through malloc-holding locals lose their checks" },
    Defect { id: "gcc-asan-d03", vendor: Vendor::Gcc, sanitizer: Sanitizer::Asan,
        category: DefectCategory::IncorrectSanitizerOpt, ub_kind: UbKind::UseAfterScope,
        introduced: 8, opt_levels: O2_UP, status: BugStatus::Fixed,
        trigger: Trigger::ScopePoisonInLoop, figure: Some("Fig.12c"),
        description: "scope poisoning removed for loop locals whose address escapes" },
    Defect { id: "gcc-asan-d04", vendor: Vendor::Gcc, sanitizer: Sanitizer::Asan,
        category: DefectCategory::IncorrectSanitizerOpt, ub_kind: UbKind::BufOverflowPtr,
        introduced: 9, opt_levels: O1_UP, status: BugStatus::Confirmed,
        trigger: Trigger::MemberOffsetFromLoadedPtr, figure: None,
        description: "redundant-check elimination drops checks on p->field accesses" },
    Defect { id: "gcc-asan-d05", vendor: Vendor::Gcc, sanitizer: Sanitizer::Asan,
        category: DefectCategory::IncorrectSanitizerOpt, ub_kind: UbKind::BufOverflowArray,
        introduced: 10, opt_levels: OS_UP, status: BugStatus::Fixed,
        trigger: Trigger::ConstOffsetGlobal, figure: None,
        description: "checks on const-folded global-array accesses treated as provably safe" },
    Defect { id: "gcc-asan-d06", vendor: Vendor::Gcc, sanitizer: Sanitizer::Asan,
        category: DefectCategory::WrongRedZone, ub_kind: UbKind::BufOverflowArray,
        introduced: 5, opt_levels: ALL_O, status: BugStatus::Confirmed,
        trigger: Trigger::OddGlobalArray, figure: None,
        description: "odd-length global arrays leave the first trailing bytes unpoisoned" },
    Defect { id: "gcc-asan-d07", vendor: Vendor::Gcc, sanitizer: Sanitizer::Asan,
        category: DefectCategory::IncorrectSanitizerCheck, ub_kind: UbKind::BufOverflowPtr,
        introduced: 11, opt_levels: ALL_O, status: BugStatus::Confirmed,
        trigger: Trigger::StructCopyTail, figure: None,
        description: "struct copies only check their first 8 bytes" },
    Defect { id: "gcc-asan-d08", vendor: Vendor::Gcc, sanitizer: Sanitizer::Asan,
        category: DefectCategory::WrongLineInfo, ub_kind: UbKind::BufOverflowPtr,
        introduced: 12, opt_levels: O2_UP, status: BugStatus::Confirmed,
        trigger: Trigger::RmwWrongLine, figure: None,
        description: "reports for read-modify-write accesses point at the previous line" },
    // ---- GCC UBSan: 7 ----
    Defect { id: "gcc-ubsan-d09", vendor: Vendor::Gcc, sanitizer: Sanitizer::Ubsan,
        category: DefectCategory::IncorrectSanitizerOpt, ub_kind: UbKind::IntOverflow,
        introduced: 9, opt_levels: O2_UP, status: BugStatus::Confirmed,
        trigger: Trigger::ArithFeedsGlobalStore, figure: None,
        description: "overflow checks folded into global-store merging are dropped" },
    Defect { id: "gcc-ubsan-d10", vendor: Vendor::Gcc, sanitizer: Sanitizer::Ubsan,
        category: DefectCategory::IncorrectSanitizerCheck, ub_kind: UbKind::ShiftOverflow,
        introduced: 5, opt_levels: ALL_O, status: BugStatus::Fixed,
        trigger: Trigger::CharShiftAmount, figure: None,
        description: "shift-exponent checks omitted when the amount involves a char" },
    Defect { id: "gcc-ubsan-d11", vendor: Vendor::Gcc, sanitizer: Sanitizer::Ubsan,
        category: DefectCategory::IncorrectExprFolding, ub_kind: UbKind::DivByZero,
        introduced: 5, opt_levels: ALL_O, status: BugStatus::Fixed,
        trigger: Trigger::BoolWidenedDivisor, figure: Some("Fig.12b"),
        description: "divisors widened from boolean expressions lose the zero check" },
    Defect { id: "gcc-ubsan-d12", vendor: Vendor::Gcc, sanitizer: Sanitizer::Ubsan,
        category: DefectCategory::IncorrectExprFolding, ub_kind: UbKind::IntOverflow,
        introduced: 6, opt_levels: O1_UP, status: BugStatus::Fixed,
        trigger: Trigger::SubWithCastOperand, figure: None,
        description: "subtraction checks dropped when an operand chain was shortened by a cast" },
    Defect { id: "gcc-ubsan-d13", vendor: Vendor::Gcc, sanitizer: Sanitizer::Ubsan,
        category: DefectCategory::IncorrectExprFolding, ub_kind: UbKind::IntOverflow,
        introduced: 8, opt_levels: O2_UP, status: BugStatus::Confirmed,
        trigger: Trigger::MulWithNarrowOperand, figure: None,
        description: "multiply checks dropped when an operand was widened from char/short" },
    Defect { id: "gcc-ubsan-d14", vendor: Vendor::Gcc, sanitizer: Sanitizer::Ubsan,
        category: DefectCategory::IncorrectExprFolding, ub_kind: UbKind::BufOverflowArray,
        introduced: 10, opt_levels: OS_UP, status: BugStatus::Confirmed,
        trigger: Trigger::IndexIsSumOfLoads, figure: None,
        description: "array-bound checks dropped when the index is a folded sum of loads" },
    Defect { id: "gcc-ubsan-d15", vendor: Vendor::Gcc, sanitizer: Sanitizer::Ubsan,
        category: DefectCategory::WrongLineInfo, ub_kind: UbKind::DivByZero,
        introduced: 7, opt_levels: O1_UP, status: BugStatus::Confirmed,
        trigger: Trigger::DivWrongLine, figure: None,
        description: "division reports carry the operand's line instead of the operator's" },
    // ---- LLVM ASan: 6 ----
    Defect { id: "llvm-asan-d16", vendor: Vendor::Llvm, sanitizer: Sanitizer::Asan,
        category: DefectCategory::NoSanitizerCheck, ub_kind: UbKind::BufOverflowPtr,
        introduced: 8, opt_levels: O1_UP, status: BugStatus::Reported,
        trigger: Trigger::ParamPtrConstOffset, figure: None,
        description: "accesses via parameter pointers plus constant offsets are not instrumented" },
    Defect { id: "llvm-asan-d17", vendor: Vendor::Llvm, sanitizer: Sanitizer::Asan,
        category: DefectCategory::IncorrectSanitizerOpt, ub_kind: UbKind::UseAfterScope,
        introduced: 9, opt_levels: O2_UP, status: BugStatus::Reported,
        trigger: Trigger::ScopePoisonInLoopLlvm, figure: None,
        description: "lifetime markers hoisted out of loops lose scope poisoning" },
    Defect { id: "llvm-asan-d18", vendor: Vendor::Llvm, sanitizer: Sanitizer::Asan,
        category: DefectCategory::IncorrectSanitizerOpt, ub_kind: UbKind::UseAfterFree,
        introduced: 11, opt_levels: O2_UP, status: BugStatus::Reported,
        trigger: Trigger::DuplicateAddrCheck, figure: None,
        description: "checks deduplicated by address register, missing frees in between" },
    Defect { id: "llvm-asan-d19", vendor: Vendor::Llvm, sanitizer: Sanitizer::Asan,
        category: DefectCategory::WrongRedZone, ub_kind: UbKind::BufOverflowArray,
        introduced: 5, opt_levels: ALL_O, status: BugStatus::Confirmed,
        trigger: Trigger::OddGlobalArrayLlvm, figure: Some("Fig.12d"),
        description: "global array padding is marked addressable" },
    Defect { id: "llvm-asan-d20", vendor: Vendor::Llvm, sanitizer: Sanitizer::Asan,
        category: DefectCategory::IncorrectSanitizerCheck, ub_kind: UbKind::BufOverflowPtr,
        introduced: 6, opt_levels: ALL_O, status: BugStatus::Confirmed,
        trigger: Trigger::RmwAccess, figure: None,
        description: "read-modify-write stores check the wrong address" },
    Defect { id: "llvm-asan-d21", vendor: Vendor::Llvm, sanitizer: Sanitizer::Asan,
        category: DefectCategory::IncorrectSanitizerCheck, ub_kind: UbKind::BufOverflowArray,
        introduced: 7, opt_levels: ALL_O, status: BugStatus::Reported,
        trigger: Trigger::ByteAccess, figure: None,
        description: "one-byte accesses fall through the shadow granularity handling" },
    // ---- LLVM UBSan: 8 ----
    Defect { id: "llvm-ubsan-d22", vendor: Vendor::Llvm, sanitizer: Sanitizer::Ubsan,
        category: DefectCategory::NoSanitizerCheck, ub_kind: UbKind::NullDeref,
        introduced: 5, opt_levels: ALL_O, status: BugStatus::Confirmed,
        trigger: Trigger::RmwNullCheck, figure: Some("Fig.12e"),
        description: "`++(*p)` never gets a null check" },
    Defect { id: "llvm-ubsan-d23", vendor: Vendor::Llvm, sanitizer: Sanitizer::Ubsan,
        category: DefectCategory::IncorrectSanitizerOpt, ub_kind: UbKind::IntOverflow,
        introduced: 10, opt_levels: O2_UP, status: BugStatus::Reported,
        trigger: Trigger::InlinedArith, figure: None,
        description: "arithmetic inlined from callees loses its overflow checks" },
    Defect { id: "llvm-ubsan-d24", vendor: Vendor::Llvm, sanitizer: Sanitizer::Ubsan,
        category: DefectCategory::IncorrectSanitizerCheck, ub_kind: UbKind::ShiftOverflow,
        introduced: 6, opt_levels: ALL_O, status: BugStatus::Reported,
        trigger: Trigger::LongShift, figure: None,
        description: "64-bit shift checks mask the exponent before testing it" },
    Defect { id: "llvm-ubsan-d25", vendor: Vendor::Llvm, sanitizer: Sanitizer::Ubsan,
        category: DefectCategory::IncorrectSanitizerCheck, ub_kind: UbKind::DivByZero,
        introduced: 8, opt_levels: ALL_O, status: BugStatus::Confirmed,
        trigger: Trigger::RemUnchecked, figure: None,
        description: "remainder operations are not zero-checked" },
    Defect { id: "llvm-ubsan-d26", vendor: Vendor::Llvm, sanitizer: Sanitizer::Ubsan,
        category: DefectCategory::IncorrectSanitizerCheck, ub_kind: UbKind::BufOverflowArray,
        introduced: 9, opt_levels: ALL_O, status: BugStatus::Reported,
        trigger: Trigger::BoundOffByOne, figure: None,
        description: "array-bound checks compare with an off-by-one bound" },
    Defect { id: "llvm-ubsan-d27", vendor: Vendor::Llvm, sanitizer: Sanitizer::Ubsan,
        category: DefectCategory::IncorrectSanitizerCheck, ub_kind: UbKind::NullDeref,
        introduced: 7, opt_levels: ALL_O, status: BugStatus::Reported,
        trigger: Trigger::NullCheckAfterOffset, figure: None,
        description: "null checks placed after the member-offset addition" },
    Defect { id: "llvm-ubsan-d28", vendor: Vendor::Llvm, sanitizer: Sanitizer::Ubsan,
        category: DefectCategory::IncorrectExprFolding, ub_kind: UbKind::ShiftOverflow,
        introduced: 12, opt_levels: O2_UP, status: BugStatus::Reported,
        trigger: Trigger::ShiftAmountCast, figure: None,
        description: "shift-pair folding drops the exponent check when the amount was cast" },
    Defect { id: "llvm-ubsan-d30", vendor: Vendor::Llvm, sanitizer: Sanitizer::Ubsan,
        category: DefectCategory::IncorrectSanitizerCheck, ub_kind: UbKind::IntOverflow,
        introduced: 11, opt_levels: ALL_O, status: BugStatus::Reported,
        trigger: Trigger::NegationUnchecked, figure: None,
        description: "unary negation overflow (-INT_MIN) is never checked" },
    // ---- LLVM MSan: 1 ----
    Defect { id: "llvm-msan-d29", vendor: Vendor::Llvm, sanitizer: Sanitizer::Msan,
        category: DefectCategory::IncorrectOperationHandling, ub_kind: UbKind::UninitUse,
        introduced: 5, opt_levels: O1_UP, status: BugStatus::Confirmed,
        trigger: Trigger::MsanSubConst, figure: Some("Fig.12f"),
        description: "shadow for `x - constant` treated as fully defined" },
];

/// A view over the defect corpus with an enable/disable mask.
#[derive(Debug, Clone)]
pub struct DefectRegistry {
    enabled: Vec<&'static str>,
}

impl Default for DefectRegistry {
    fn default() -> DefectRegistry {
        DefectRegistry::full()
    }
}

impl DefectRegistry {
    /// All 30 defects enabled (the paper's world).
    pub fn full() -> DefectRegistry {
        DefectRegistry { enabled: DEFECTS.iter().map(|d| d.id).collect() }
    }

    /// No defects — correct sanitizers (ablation baseline).
    pub fn pristine() -> DefectRegistry {
        DefectRegistry { enabled: Vec::new() }
    }

    /// Only the listed defect ids.
    pub fn only(ids: &[&'static str]) -> DefectRegistry {
        DefectRegistry { enabled: ids.to_vec() }
    }

    /// Looks up a defect by id.
    pub fn get(id: &str) -> Option<&'static Defect> {
        DEFECTS.iter().find(|d| d.id == id)
    }

    /// Defects active for a compilation: enabled, matching vendor/sanitizer,
    /// version ≥ introduced, and the opt level in the defect's mask.
    pub fn active(
        &self,
        vendor: Vendor,
        version: u32,
        opt: OptLevel,
        sanitizer: Sanitizer,
    ) -> Vec<&'static Defect> {
        DEFECTS
            .iter()
            .filter(|d| {
                self.enabled.contains(&d.id)
                    && d.vendor == vendor
                    && d.sanitizer == sanitizer
                    && version >= d.introduced
                    && d.opt_levels.contains(&opt)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_matches_table3_distribution() {
        let count = |v, s| DEFECTS.iter().filter(|d| d.vendor == v && d.sanitizer == s).count();
        assert_eq!(count(Vendor::Gcc, Sanitizer::Asan), 8);
        assert_eq!(count(Vendor::Gcc, Sanitizer::Ubsan), 7);
        assert_eq!(count(Vendor::Llvm, Sanitizer::Asan), 6);
        assert_eq!(count(Vendor::Llvm, Sanitizer::Ubsan), 8);
        assert_eq!(count(Vendor::Llvm, Sanitizer::Msan), 1);
        assert_eq!(DEFECTS.len(), 30);
    }

    #[test]
    fn corpus_matches_table6_categories() {
        let count = |v, c| {
            DEFECTS.iter().filter(|d| d.vendor == v && d.category == c).count()
        };
        use DefectCategory::*;
        assert_eq!(count(Vendor::Gcc, NoSanitizerCheck), 2);
        // Table 6 lists 5 for GCC: 4 real + the invalid report.
        assert_eq!(count(Vendor::Gcc, IncorrectSanitizerOpt), 4);
        assert_eq!(count(Vendor::Gcc, WrongRedZone), 1);
        assert_eq!(count(Vendor::Gcc, IncorrectSanitizerCheck), 2);
        assert_eq!(count(Vendor::Gcc, IncorrectExprFolding), 4);
        assert_eq!(count(Vendor::Gcc, WrongLineInfo), 2);
        assert_eq!(count(Vendor::Llvm, NoSanitizerCheck), 2);
        assert_eq!(count(Vendor::Llvm, IncorrectSanitizerOpt), 3);
        assert_eq!(count(Vendor::Llvm, WrongRedZone), 1);
        assert_eq!(count(Vendor::Llvm, IncorrectSanitizerCheck), 7);
        assert_eq!(count(Vendor::Llvm, IncorrectExprFolding), 1);
        assert_eq!(count(Vendor::Llvm, IncorrectOperationHandling), 1);
    }

    #[test]
    fn fixed_and_confirmed_counts_match_table3() {
        let fixed = DEFECTS.iter().filter(|d| d.status == BugStatus::Fixed).count();
        assert_eq!(fixed, 6, "Table 3: 6 fixed, all in GCC");
        assert!(DEFECTS
            .iter()
            .filter(|d| d.status == BugStatus::Fixed)
            .all(|d| d.vendor == Vendor::Gcc));
        let confirmed = DEFECTS
            .iter()
            .filter(|d| matches!(d.status, BugStatus::Confirmed | BugStatus::Fixed))
            .count();
        assert_eq!(confirmed, 20, "Table 3: 20 confirmed");
    }

    #[test]
    fn every_generatable_kind_is_covered() {
        for kind in UbKind::GENERATABLE {
            assert!(
                DEFECTS.iter().any(|d| d.ub_kind == kind),
                "Fig. 7: bugs found in every UB kind — missing {kind}"
            );
        }
    }

    #[test]
    fn activation_respects_gates() {
        let reg = DefectRegistry::full();
        let d01 = reg.active(Vendor::Gcc, 13, OptLevel::O2, Sanitizer::Asan);
        assert!(d01.iter().any(|d| d.id == "gcc-asan-d01"));
        // Too old a version.
        let old = reg.active(Vendor::Gcc, 5, OptLevel::O2, Sanitizer::Asan);
        assert!(!old.iter().any(|d| d.id == "gcc-asan-d01"));
        // Wrong opt level.
        let o0 = reg.active(Vendor::Gcc, 13, OptLevel::O0, Sanitizer::Asan);
        assert!(!o0.iter().any(|d| d.id == "gcc-asan-d01"));
        // Pristine registry.
        assert!(DefectRegistry::pristine()
            .active(Vendor::Gcc, 13, OptLevel::O2, Sanitizer::Asan)
            .is_empty());
    }
}
