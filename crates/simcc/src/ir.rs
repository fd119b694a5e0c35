//! The compiler's intermediate representation.
//!
//! A register machine over a flat address space: unbounded virtual registers
//! (single static assignment per register), locals as explicitly addressed
//! stack *slots*, and side-effecting instructions for memory, calls, and —
//! crucially — sanitizer checks. Sanitizer checks are ordinary instructions
//! inserted mid-pipeline (paper Fig. 2), so optimization passes interact with
//! them exactly the way real pass pipelines do.
//!
//! Every instruction carries the source [`Loc`] it was lowered from; this is
//! the `-g` debug metadata that crash-site mapping (Algorithm 2) depends on.

use ubfuzz_minic::types::IntType;
use ubfuzz_minic::Loc;

/// A virtual register.
pub type RegId = u32;

/// A basic-block index within a function.
pub type BlockId = usize;

/// An operand: register or immediate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Operand {
    /// Register reference.
    Reg(RegId),
    /// 64-bit immediate.
    Imm(i64),
}

impl Operand {
    /// The immediate payload, if constant.
    pub fn as_imm(self) -> Option<i64> {
        match self {
            Operand::Imm(v) => Some(v),
            Operand::Reg(_) => None,
        }
    }

    /// The register, if not constant.
    pub fn as_reg(self) -> Option<RegId> {
        match self {
            Operand::Reg(r) => Some(r),
            Operand::Imm(_) => None,
        }
    }
}

/// Integer binary operations (machine semantics: wrapping; shifts mask the
/// amount like x86; division traps are the VM's job).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinKind {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    Shl,
    Shr,
    And,
    Or,
    Xor,
    /// Comparisons produce 0/1.
    Lt,
    Le,
    Gt,
    Ge,
    Eq,
    Ne,
}

impl BinKind {
    /// True for `+ - * / %` — the UBSan signed-overflow surface.
    pub fn is_arith(self) -> bool {
        matches!(self, BinKind::Add | BinKind::Sub | BinKind::Mul | BinKind::Div | BinKind::Rem)
    }

    /// True for comparison operators.
    pub fn is_cmp(self) -> bool {
        matches!(
            self,
            BinKind::Lt | BinKind::Le | BinKind::Gt | BinKind::Ge | BinKind::Eq | BinKind::Ne
        )
    }
}

/// Unary operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnKind {
    /// Two's-complement negation (wrapping).
    Neg,
    /// Bitwise complement.
    Not,
    /// Logical not (`== 0`).
    LogicalNot,
}

/// Which use an MSan check protects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MsanUse {
    /// Branch condition.
    Branch,
    /// Division operand.
    Divisor,
    /// Value passed to output.
    Output,
}

/// Per-instruction metadata that sanitizer passes and defect triggers read.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Meta {
    /// Subject to UBSan arithmetic instrumentation (signed arithmetic from
    /// source, not compiler-synthesized address math).
    pub sanitize: bool,
    /// The value was widened from a boolean-producing expression through a
    /// narrowing cast (paper Fig. 12b raw material).
    pub bool_widened: bool,
    /// Part of a read-modify-write lowering of `++lvalue` (Fig. 12e).
    pub rmw: bool,
    /// Shift whose amount operand was a `char`-typed expression (defect
    /// trigger raw material).
    pub char_shift_amount: bool,
    /// Instruction was inlined from a callee.
    pub inlined: bool,
}

/// One IR instruction: optional destination register, operation, source
/// location, metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct Instr {
    /// Destination register, for value-producing operations.
    pub dst: Option<RegId>,
    /// The operation.
    pub op: Op,
    /// Source location (debug metadata).
    pub loc: Loc,
    /// Sanitizer-relevant metadata.
    pub meta: Meta,
}

impl Instr {
    /// A value-producing instruction.
    pub fn new(dst: RegId, op: Op, loc: Loc) -> Instr {
        Instr { dst: Some(dst), op, loc, meta: Meta::default() }
    }

    /// A pure side-effect instruction.
    pub fn effect(op: Op, loc: Loc) -> Instr {
        Instr { dst: None, op, loc, meta: Meta::default() }
    }
}

/// Operations.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Constant.
    Const(i64),
    /// Binary operation in `ty` (wrapping machine semantics).
    Bin {
        /// Operator.
        op: BinKind,
        /// Left operand.
        a: Operand,
        /// Right operand.
        b: Operand,
        /// Computation type.
        ty: IntType,
    },
    /// Unary operation in `ty`.
    Un {
        /// Operator.
        op: UnKind,
        /// Operand.
        a: Operand,
        /// Computation type.
        ty: IntType,
    },
    /// Integer conversion.
    Cast {
        /// Operand.
        a: Operand,
        /// Target type (wrap/extend).
        to: IntType,
    },
    /// Address of stack slot.
    AddrLocal(usize),
    /// Address of global.
    AddrGlobal(usize),
    /// `base + offset * scale` address arithmetic.
    PtrAdd {
        /// Base address.
        base: Operand,
        /// Element index.
        offset: Operand,
        /// Element size in bytes.
        scale: i64,
    },
    /// Scalar load of `size` bytes (1/2/4/8), sign-extended if `signed`.
    Load {
        /// Address operand.
        addr: Operand,
        /// Access size in bytes.
        size: u8,
        /// Sign-extend on load.
        signed: bool,
    },
    /// Scalar store of the low `size` bytes of `val`.
    Store {
        /// Address operand.
        addr: Operand,
        /// Value to store.
        val: Operand,
        /// Access size in bytes.
        size: u8,
    },
    /// Aggregate copy (struct assignment).
    MemCopy {
        /// Destination address.
        dst: Operand,
        /// Source address.
        src: Operand,
        /// Bytes to copy.
        len: u32,
    },
    /// Call to a user function; `dst` receives the return value.
    Call {
        /// Callee name.
        callee: String,
        /// Arguments.
        args: Vec<Operand>,
    },
    /// Heap allocation.
    Malloc {
        /// Size in bytes.
        size: Operand,
    },
    /// Heap free.
    Free {
        /// Block address.
        addr: Operand,
    },
    /// Output a value (the `print_value` builtin).
    Print {
        /// Value to print.
        val: Operand,
    },
    /// Scope-entry marker for a slot (variable comes alive here).
    LifetimeStart(usize),
    /// Scope-exit marker for a slot.
    LifetimeEnd(usize),

    // ---- sanitizer instructions (inserted by sanitizer passes) ----
    /// ASan shadow check on `[addr, addr+size)`.
    AsanCheck {
        /// Address operand.
        addr: Operand,
        /// Access size in bytes.
        size: u8,
        /// True for writes.
        write: bool,
    },
    /// ASan use-after-scope poisoning at scope exit (replaces
    /// [`Op::LifetimeEnd`] when ASan instruments the slot).
    AsanPoisonScope(usize),
    /// ASan unpoisoning at scope entry.
    AsanUnpoisonScope(usize),
    /// UBSan signed-overflow check: recompute `a op b` widely, report if the
    /// result exceeds `ty`.
    UbsanCheckArith {
        /// Operator.
        op: BinKind,
        /// Left operand.
        a: Operand,
        /// Right operand.
        b: Operand,
        /// The checked (promoted) type.
        ty: IntType,
    },
    /// UBSan negation-overflow check (`-MIN`).
    UbsanCheckNeg {
        /// Operand.
        a: Operand,
        /// The checked type.
        ty: IntType,
    },
    /// UBSan shift-exponent check: report unless `0 <= amount < bits`.
    UbsanCheckShift {
        /// Shift amount operand.
        amount: Operand,
        /// Bit width of the shifted type.
        bits: u8,
    },
    /// UBSan division check: divisor zero (and `MIN / -1`).
    UbsanCheckDiv {
        /// Dividend (for the `MIN / -1` case).
        a: Operand,
        /// Divisor operand.
        divisor: Operand,
        /// The checked type.
        ty: IntType,
    },
    /// UBSan null-pointer check.
    UbsanCheckNull {
        /// Address about to be dereferenced.
        addr: Operand,
    },
    /// UBSan array-bounds check: report unless `0 <= idx < bound`.
    UbsanCheckBound {
        /// Index operand.
        idx: Operand,
        /// Exclusive bound.
        bound: u64,
    },
    /// MSan use check: report if the operand's shadow is poisoned.
    MsanCheck {
        /// Checked value.
        val: Operand,
        /// Context of the use.
        what: MsanUse,
    },
}

impl Op {
    /// True if the instruction has observable effects and must not be
    /// removed by dead-code elimination (checks, stores, calls, output,
    /// lifetime and allocation events).
    pub fn has_side_effect(&self) -> bool {
        !matches!(
            self,
            Op::Const(_)
                | Op::Bin { .. }
                | Op::Un { .. }
                | Op::Cast { .. }
                | Op::AddrLocal(_)
                | Op::AddrGlobal(_)
                | Op::PtrAdd { .. }
                | Op::Load { .. }
        )
    }

    /// True for sanitizer check/poison instructions.
    pub fn is_sanitizer_op(&self) -> bool {
        matches!(
            self,
            Op::AsanCheck { .. }
                | Op::AsanPoisonScope(_)
                | Op::AsanUnpoisonScope(_)
                | Op::UbsanCheckArith { .. }
                | Op::UbsanCheckNeg { .. }
                | Op::UbsanCheckShift { .. }
                | Op::UbsanCheckDiv { .. }
                | Op::UbsanCheckNull { .. }
                | Op::UbsanCheckBound { .. }
                | Op::MsanCheck { .. }
        )
    }

    /// Calls `f` on every register this instruction reads, in operand
    /// order (immediates are skipped). Allocation-free, unlike collecting
    /// the operands, which matters on the DCE hot path.
    pub fn for_each_reg(&self, mut f: impl FnMut(RegId)) {
        let mut visit = |o: &Operand| {
            if let Operand::Reg(r) = o {
                f(*r);
            }
        };
        match self {
            Op::Const(_)
            | Op::AddrLocal(_)
            | Op::AddrGlobal(_)
            | Op::LifetimeStart(_)
            | Op::LifetimeEnd(_)
            | Op::AsanPoisonScope(_)
            | Op::AsanUnpoisonScope(_) => {}
            Op::Bin { a, b, .. }
            | Op::UbsanCheckArith { a, b, .. }
            | Op::UbsanCheckDiv { a, divisor: b, .. } => {
                visit(a);
                visit(b);
            }
            Op::PtrAdd { base: a, offset: b, .. }
            | Op::Store { addr: a, val: b, .. }
            | Op::MemCopy { dst: a, src: b, .. } => {
                visit(a);
                visit(b);
            }
            Op::Un { a, .. }
            | Op::Cast { a, .. }
            | Op::UbsanCheckNeg { a, .. }
            | Op::Load { addr: a, .. }
            | Op::Malloc { size: a }
            | Op::Free { addr: a }
            | Op::Print { val: a }
            | Op::AsanCheck { addr: a, .. }
            | Op::UbsanCheckShift { amount: a, .. }
            | Op::UbsanCheckNull { addr: a }
            | Op::UbsanCheckBound { idx: a, .. }
            | Op::MsanCheck { val: a, .. } => visit(a),
            Op::Call { args, .. } => args.iter().for_each(visit),
        }
    }

    /// Rewrites every operand with `f` (used by copy propagation, inlining
    /// and unrolling).
    pub fn map_operands(&mut self, mut f: impl FnMut(Operand) -> Operand) {
        match self {
            Op::Const(_)
            | Op::AddrLocal(_)
            | Op::AddrGlobal(_)
            | Op::LifetimeStart(_)
            | Op::LifetimeEnd(_)
            | Op::AsanPoisonScope(_)
            | Op::AsanUnpoisonScope(_) => {}
            Op::Bin { a, b, .. } => {
                *a = f(*a);
                *b = f(*b);
            }
            Op::Un { a, .. } | Op::Cast { a, .. } => *a = f(*a),
            Op::PtrAdd { base, offset, .. } => {
                *base = f(*base);
                *offset = f(*offset);
            }
            Op::Load { addr, .. } => *addr = f(*addr),
            Op::Store { addr, val, .. } => {
                *addr = f(*addr);
                *val = f(*val);
            }
            Op::MemCopy { dst, src, .. } => {
                *dst = f(*dst);
                *src = f(*src);
            }
            Op::Call { args, .. } => {
                for a in args {
                    *a = f(*a);
                }
            }
            Op::Malloc { size } => *size = f(*size),
            Op::Free { addr } => *addr = f(*addr),
            Op::Print { val } => *val = f(*val),
            Op::AsanCheck { addr, .. } => *addr = f(*addr),
            Op::UbsanCheckArith { a, b, .. } => {
                *a = f(*a);
                *b = f(*b);
            }
            Op::UbsanCheckNeg { a, .. } => *a = f(*a),
            Op::UbsanCheckShift { amount, .. } => *amount = f(*amount),
            Op::UbsanCheckDiv { a, divisor, .. } => {
                *a = f(*a);
                *divisor = f(*divisor);
            }
            Op::UbsanCheckNull { addr } => *addr = f(*addr),
            Op::UbsanCheckBound { idx, .. } => *idx = f(*idx),
            Op::MsanCheck { val, .. } => *val = f(*val),
        }
    }
}

/// Block terminator.
#[derive(Debug, Clone, PartialEq)]
pub enum Term {
    /// Unconditional jump.
    Jmp(BlockId),
    /// Conditional branch on non-zero.
    Br {
        /// Condition operand.
        cond: Operand,
        /// Target when non-zero.
        then_bb: BlockId,
        /// Target when zero.
        else_bb: BlockId,
    },
    /// Function return.
    Ret(Option<Operand>),
}

impl Term {
    /// Successor blocks.
    pub fn successors(&self) -> Vec<BlockId> {
        match self {
            Term::Jmp(t) => vec![*t],
            Term::Br { then_bb, else_bb, .. } => vec![*then_bb, *else_bb],
            Term::Ret(_) => vec![],
        }
    }
}

/// A basic block.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Block {
    /// Straight-line instructions.
    pub instrs: Vec<Instr>,
    /// Terminator; `None` only transiently during construction.
    pub term: Option<Term>,
}

/// A stack slot (local variable or parameter home).
#[derive(Debug, Clone, PartialEq)]
pub struct Slot {
    /// Variable name (for diagnostics).
    pub name: String,
    /// Size in bytes.
    pub size: u32,
    /// Lexical scope depth (1 = parameters/top level of body).
    pub scope_depth: u32,
    /// True when the slot's address escapes (stored, passed, or used beyond
    /// direct load/store) — computed by analyses, conservative default true.
    pub address_taken: bool,
}

/// A function.
#[derive(Debug, Clone, PartialEq)]
pub struct Func {
    /// Name; `main` is the entry point.
    pub name: String,
    /// Parameter registers (values on entry).
    pub params: Vec<RegId>,
    /// Stack slots.
    pub slots: Vec<Slot>,
    /// Basic blocks; entry is block 0.
    pub blocks: Vec<Block>,
    /// Next free register id.
    pub next_reg: RegId,
}

impl Func {
    /// Mints a fresh register.
    pub fn fresh_reg(&mut self) -> RegId {
        let r = self.next_reg;
        self.next_reg += 1;
        r
    }

    /// Builds the register → defining-instruction index, assuming the
    /// single-assignment invariant (block, instr index).
    pub fn def_map(&self) -> std::collections::HashMap<RegId, (BlockId, usize)> {
        let mut m = std::collections::HashMap::new();
        for (bi, b) in self.blocks.iter().enumerate() {
            for (ii, ins) in b.instrs.iter().enumerate() {
                if let Some(d) = ins.dst {
                    m.insert(d, (bi, ii));
                }
            }
        }
        m
    }
}

/// A global variable definition.
#[derive(Debug, Clone, PartialEq)]
pub struct GlobalDef {
    /// Name.
    pub name: String,
    /// Size in bytes.
    pub size: u32,
    /// Initial bytes (zero-filled when shorter than `size`).
    pub init: Vec<u8>,
    /// Pointer relocations: at byte `offset`, the address of global `gid`
    /// plus `addend`.
    pub relocs: Vec<(u32, usize, i64)>,
    /// Element size if this is an array (for red-zone layout decisions).
    pub elem_size: u32,
    /// Number of elements if an array (1 for scalars).
    pub elem_count: u32,
}

/// MSan shadow-propagation policy; the defective LLVM handling of
/// `x - constant` (Fig. 12f) is a policy flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MsanPolicy {
    /// Treat `x - imm` as fully defined even when `x` is poisoned.
    pub sub_const_fully_defined: bool,
}

/// Which sanitizer a module was instrumented with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Sanitizer {
    /// AddressSanitizer.
    Asan,
    /// UndefinedBehaviorSanitizer.
    Ubsan,
    /// MemorySanitizer.
    Msan,
}

impl Sanitizer {
    /// All sanitizers.
    pub const ALL: [Sanitizer; 3] = [Sanitizer::Asan, Sanitizer::Ubsan, Sanitizer::Msan];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Sanitizer::Asan => "ASan",
            Sanitizer::Ubsan => "UBSan",
            Sanitizer::Msan => "MSan",
        }
    }
}

impl std::fmt::Display for Sanitizer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Sanitizer-related module metadata produced by the passes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SanMeta {
    /// Which sanitizer instrumented this module, if any.
    pub sanitizer: Option<Sanitizer>,
    /// Globals whose trailing red-zone is (defectively) left partially
    /// unpoisoned: `(gid, unpoisoned prefix bytes)`.
    pub global_redzone_gaps: Vec<(usize, u32)>,
    /// MSan propagation policy.
    pub msan_policy: MsanPolicy,
    /// Ground-truth record of defect applications: `(defect id, site loc)`.
    /// Written by the vendor's passes; used by evaluation/attribution, never
    /// by the test oracle itself.
    pub applied_defects: Vec<(&'static str, Loc)>,
    /// Sites transformed by *legitimate* optimizations that remove UB while
    /// keeping the crash site executable (the Fig. 8 invalid-report shape).
    pub legit_transforms: Vec<Loc>,
    /// Check sites the partial-sanitization policy skipped (empty under
    /// `SanPolicy::Full`). The oracle reads this to classify a missing
    /// report at one of these sites as an *expected miss*, not a true FN.
    pub skipped_sites: Vec<Loc>,
}

impl SanMeta {
    /// Was the check site at `loc` left uninstrumented by the policy?
    pub fn site_skipped(&self, loc: Loc) -> bool {
        self.skipped_sites.contains(&loc)
    }
}

/// A compiled module ("binary" plus debug metadata).
#[derive(Debug, Clone, PartialEq)]
pub struct Module {
    /// Global definitions.
    pub globals: Vec<GlobalDef>,
    /// Functions.
    pub funcs: Vec<Func>,
    /// Sanitizer metadata.
    pub san: SanMeta,
    /// Compiler identity and optimization level this module was built with.
    pub build: Option<crate::target::BuildInfo>,
}

impl Module {
    /// The function named `name`.
    pub fn func(&self, name: &str) -> Option<&Func> {
        self.funcs.iter().find(|f| f.name == name)
    }

    /// Total instruction count (for size/benchmark reporting).
    pub fn instr_count(&self) -> usize {
        self.funcs.iter().map(|f| f.blocks.iter().map(|b| b.instrs.len()).sum::<usize>()).sum()
    }

    /// Estimated heap footprint in bytes, for memory-bounded caches: every
    /// instr, block, func, slot and global vector by `len × size_of`, plus
    /// the owned names and initializers. O(funcs + blocks + slots +
    /// globals) and allocation-free; a call's callee name and argument
    /// list and the sanitizer metadata are left out (they would make it
    /// O(instrs), and a cached prefix carries little of the latter).
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        let globals: usize = self
            .globals
            .iter()
            .map(|g| {
                size_of::<GlobalDef>()
                    + g.name.len()
                    + g.init.len()
                    + g.relocs.len() * size_of::<(u32, usize, i64)>()
            })
            .sum();
        let funcs: usize = self
            .funcs
            .iter()
            .map(|f| {
                let slots: usize = f.slots.iter().map(|s| size_of::<Slot>() + s.name.len()).sum();
                let blocks: usize = f
                    .blocks
                    .iter()
                    .map(|b| size_of::<Block>() + b.instrs.len() * size_of::<Instr>())
                    .sum();
                let params = f.params.len() * size_of::<RegId>();
                size_of::<Func>() + f.name.len() + params + slots + blocks
            })
            .sum();
        size_of::<Module>() + globals + funcs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn operand_accessors() {
        assert_eq!(Operand::Imm(5).as_imm(), Some(5));
        assert_eq!(Operand::Reg(3).as_reg(), Some(3));
        assert_eq!(Operand::Imm(5).as_reg(), None);
    }

    #[test]
    fn side_effects_classified() {
        assert!(!Op::Const(1).has_side_effect());
        assert!(!Op::Load { addr: Operand::Reg(0), size: 4, signed: true }.has_side_effect());
        assert!(Op::Store { addr: Operand::Reg(0), val: Operand::Imm(1), size: 4 }
            .has_side_effect());
        assert!(Op::AsanCheck { addr: Operand::Reg(0), size: 4, write: false }.has_side_effect());
        assert!(Op::Print { val: Operand::Imm(1) }.has_side_effect());
    }

    #[test]
    fn map_operands_rewrites() {
        let mut op = Op::Bin {
            op: BinKind::Add,
            a: Operand::Reg(1),
            b: Operand::Reg(2),
            ty: IntType::INT,
        };
        op.map_operands(|o| match o {
            Operand::Reg(1) => Operand::Imm(42),
            other => other,
        });
        assert_eq!(
            op,
            Op::Bin { op: BinKind::Add, a: Operand::Imm(42), b: Operand::Reg(2), ty: IntType::INT }
        );
    }

    #[test]
    fn for_each_reg_visits_registers_in_operand_order() {
        let mut regs = Vec::new();
        Op::Store { addr: Operand::Reg(4), val: Operand::Reg(9), size: 4 }
            .for_each_reg(|r| regs.push(r));
        Op::Bin { op: BinKind::Sub, a: Operand::Imm(1), b: Operand::Reg(3), ty: IntType::INT }
            .for_each_reg(|r| regs.push(r));
        Op::Call { callee: "f".into(), args: vec![Operand::Reg(7), Operand::Imm(0), Operand::Reg(5)] }
            .for_each_reg(|r| regs.push(r));
        Op::Const(8).for_each_reg(|r| regs.push(r));
        assert_eq!(regs, vec![4, 9, 3, 7, 5]);
    }

    #[test]
    fn def_map_finds_single_defs() {
        let mut f = Func {
            name: "t".into(),
            params: vec![],
            slots: vec![],
            blocks: vec![Block::default()],
            next_reg: 0,
        };
        let r = f.fresh_reg();
        f.blocks[0].instrs.push(Instr::new(r, Op::Const(7), Loc::UNKNOWN));
        f.blocks[0].term = Some(Term::Ret(None));
        let dm = f.def_map();
        assert_eq!(dm[&r], (0, 0));
    }

    #[test]
    fn heap_bytes_grows_by_each_instr_block_and_name() {
        use std::mem::size_of;
        let func = Func {
            name: String::new(),
            params: vec![],
            slots: vec![],
            blocks: vec![],
            next_reg: 0,
        };
        let mut m =
            Module { globals: vec![], funcs: vec![func], san: SanMeta::default(), build: None };
        let empty = m.heap_bytes();
        assert_eq!(empty, size_of::<Module>() + size_of::<Func>());
        m.funcs[0].name = "main".into();
        m.funcs[0].blocks.push(Block::default());
        m.funcs[0].blocks[0].instrs.push(Instr::new(0, Op::Const(1), Loc::UNKNOWN));
        assert_eq!(m.heap_bytes(), empty + 4 + size_of::<Block>() + size_of::<Instr>());
    }
}
