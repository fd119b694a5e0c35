//! Sanitizer instrumentation passes (ASan, UBSan, MSan) with the injected
//! defect corpus wired into every check-site decision.
//!
//! Instrumentation happens mid-pipeline (paper Fig. 2): the early optimizer
//! has already run, so UB deleted by optimization simply is not here to be
//! instrumented — that is the optimization-caused-discrepancy half of the
//! paper's Challenge 2. The defect half: at every would-be check site the
//! pass consults the [`DefectRegistry`]; a matching active defect suppresses
//! or corrupts the check, recording ground-truth attribution in
//! [`SanMeta::applied_defects`].

use crate::cov;
use crate::defects::{Defect, DefectRegistry, Trigger};
use crate::ir::*;
use crate::passes::blocks_in_loops;
use crate::target::{OptLevel, Vendor};
use ubfuzz_minic::{Loc, UbKind};

/// Which UB kinds each sanitizer detects (paper Table 2).
pub fn supports(s: Sanitizer, kind: UbKind) -> bool {
    use UbKind::*;
    match s {
        Sanitizer::Asan => {
            matches!(kind, BufOverflowArray | BufOverflowPtr | UseAfterFree | UseAfterScope)
        }
        Sanitizer::Ubsan => {
            matches!(kind, BufOverflowArray | NullDeref | IntOverflow | ShiftOverflow | DivByZero)
        }
        Sanitizer::Msan => matches!(kind, UninitUse),
    }
}

/// The sanitizers that detect `kind` (Table 2, reading column-wise) —
/// allocation-free: a fixed-capacity list in `Sanitizer::ALL` order.
pub fn sanitizers_for(kind: UbKind) -> SanList {
    let mut sans = [Sanitizer::Asan; 3];
    let mut len = 0;
    for s in Sanitizer::ALL {
        if supports(s, kind) {
            sans[len] = s;
            len += 1;
        }
    }
    SanList { sans, len }
}

/// A fixed-capacity set of sanitizers (at most [`Sanitizer::ALL`], in that
/// order). Returned by [`sanitizers_for`] so the planning hot path never
/// allocates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SanList {
    sans: [Sanitizer; 3],
    len: usize,
}

impl SanList {
    /// Number of sanitizers in the list.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no sanitizer detects the kind.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The sanitizers as a slice.
    pub fn as_slice(&self) -> &[Sanitizer] {
        &self.sans[..self.len]
    }

    /// Iterates the sanitizers by value.
    pub fn iter(&self) -> impl Iterator<Item = Sanitizer> + '_ {
        self.as_slice().iter().copied()
    }
}

impl IntoIterator for SanList {
    type Item = Sanitizer;
    type IntoIter = std::iter::Take<std::array::IntoIter<Sanitizer, 3>>;

    fn into_iter(self) -> Self::IntoIter {
        self.sans.into_iter().take(self.len)
    }
}

impl<'a> IntoIterator for &'a SanList {
    type Item = Sanitizer;
    type IntoIter = std::iter::Copied<std::slice::Iter<'a, Sanitizer>>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter().copied()
    }
}

/// Context for one instrumentation run.
pub struct SanCtx<'a> {
    /// Vendor being modelled.
    pub vendor: Vendor,
    /// Compiler version.
    pub version: u32,
    /// Optimization level of this compilation.
    pub opt: OptLevel,
    /// Defect registry in force.
    pub registry: &'a DefectRegistry,
    /// Partial-sanitization policy: which would-be check sites actually get
    /// their check. [`SanPolicy::Full`] leaves instrumentation untouched.
    pub policy: crate::partition::SanPolicy,
}

impl<'a> SanCtx<'a> {
    fn active(&self, sanitizer: Sanitizer) -> Vec<&'static Defect> {
        self.registry.active(self.vendor, self.version, self.opt, sanitizer)
    }
}

/// Register-indexed def table of one function: `ops[r]` is the op that
/// defines register `r` (None for parameters and unused ids) and `metas[r]`
/// its metadata (the default when `r` has no def). Every register is below
/// the function's `next_reg`, which sizes the table. Registers are single
/// assignment; were one defined twice, the later def wins, as it would in a
/// map. A pass keeps one table and refills it per function, so the chain
/// walkers below index a vector instead of hashing.
#[derive(Default)]
struct Defs {
    ops: Vec<Option<Op>>,
    metas: Vec<Meta>,
}

impl Defs {
    /// Refills the table from `f`. The defs are snapshotted before the
    /// pass rewrites `f`; instrumentation only adds instructions without a
    /// destination, so the snapshot stays exact for the whole pass.
    fn fill(&mut self, f: &Func) {
        let n = f.next_reg as usize;
        self.ops.clear();
        self.ops.resize(n, None);
        self.metas.clear();
        self.metas.resize(n, Meta::default());
        for b in &f.blocks {
            for i in &b.instrs {
                if let Some(d) = i.dst {
                    self.ops[d as usize] = Some(def_op(&i.op));
                    self.metas[d as usize] = i.meta;
                }
            }
        }
    }

    /// The op defining `r`, if any.
    fn get(&self, r: RegId) -> Option<&Op> {
        self.ops[r as usize].as_ref()
    }

    /// The metadata of `r`'s def (the default when it has none).
    fn meta(&self, r: RegId) -> Meta {
        self.metas[r as usize]
    }
}

/// The op a def table keeps for a definition: the op itself, except that a
/// call keeps neither callee name nor arguments — no walker reads them, and
/// dropping them keeps the refill free of allocations.
fn def_op(op: &Op) -> Op {
    match op {
        Op::Call { .. } => Op::Call { callee: String::new(), args: Vec::new() },
        other => other.clone(),
    }
}

/// A set of stack slots, as a bitmap indexed by slot number.
#[derive(Debug, Default)]
struct SlotSet {
    has: Vec<bool>,
    len: usize,
}

impl SlotSet {
    fn insert(&mut self, s: usize) {
        if s >= self.has.len() {
            self.has.resize(s + 1, false);
        }
        if !self.has[s] {
            self.has[s] = true;
            self.len += 1;
        }
    }

    fn contains(&self, s: usize) -> bool {
        self.has.get(s).copied().unwrap_or(false)
    }

    fn len(&self) -> usize {
        self.len
    }
}

/// The address registers ASan has already checked in the current block: a
/// register-indexed stamp table (`stamp[r] == block` means checked), so
/// moving on to the next block empties the set without touching it.
#[derive(Default)]
struct CheckedRegs {
    stamp: Vec<usize>,
    block: usize,
}

impl CheckedRegs {
    /// Empties the set for a function with `next_reg` registers.
    fn reset(&mut self, next_reg: RegId) {
        self.stamp.clear();
        self.stamp.resize(next_reg as usize, usize::MAX);
    }

    /// Starts block `bi` with an empty set.
    fn enter_block(&mut self, bi: usize) {
        self.block = bi;
    }

    fn insert(&mut self, r: RegId) {
        self.stamp[r as usize] = self.block;
    }

    fn contains(&self, r: RegId) -> bool {
        self.stamp[r as usize] == self.block
    }
}

/// Walks an address operand back to its root, peeling `PtrAdd`s; returns the
/// root op and the total constant byte offset (None when non-constant).
fn addr_root(defs: &Defs, addr: Operand) -> (Option<&Op>, Option<i64>) {
    let mut cur = addr;
    let mut const_off: Option<i64> = Some(0);
    loop {
        match cur {
            Operand::Imm(_) => return (None, const_off),
            Operand::Reg(r) => match defs.get(r) {
                Some(Op::PtrAdd { base, offset, scale }) => {
                    const_off = match (const_off, offset.as_imm()) {
                        (Some(acc), Some(o)) => Some(acc + o * scale),
                        _ => None,
                    };
                    cur = *base;
                }
                other => return (other, const_off),
            },
        }
    }
}

/// True if the def chain of `o` (through Bin/Cast/Un) contains an
/// instruction whose metadata satisfies `pred`, or a matching op.
fn chain_any(defs: &Defs, o: Operand, depth: usize, pred: &dyn Fn(&Op, Meta) -> bool) -> bool {
    if depth > 8 {
        return false;
    }
    let Operand::Reg(r) = o else { return false };
    let Some(op) = defs.get(r) else {
        return false;
    };
    if pred(op, defs.meta(r)) {
        return true;
    }
    match op {
        Op::Bin { a, b, .. } => {
            chain_any(defs, *a, depth + 1, pred) || chain_any(defs, *b, depth + 1, pred)
        }
        Op::Un { a, .. } | Op::Cast { a, .. } => chain_any(defs, *a, depth + 1, pred),
        _ => false,
    }
}

/// Slots that ever hold a `malloc` result.
fn malloc_slots(f: &Func, defs: &Defs) -> SlotSet {
    let mut out = SlotSet::default();
    for b in &f.blocks {
        for i in &b.instrs {
            if let Op::Store { addr, val, .. } = &i.op {
                let is_malloc = matches!(
                    val.as_reg().and_then(|r| defs.get(r)),
                    Some(Op::Malloc { .. }) | Some(Op::Cast { .. })
                        if val.as_reg().is_some_and(|r| chain_is_malloc(defs, r))
                );
                if is_malloc {
                    if let (Some(Op::AddrLocal(s)), _) = addr_root(defs, *addr) {
                        out.insert(*s);
                    }
                }
            }
        }
    }
    out
}

fn chain_is_malloc(defs: &Defs, r: RegId) -> bool {
    match defs.get(r) {
        Some(Op::Malloc { .. }) => true,
        Some(Op::Cast { a: Operand::Reg(r2), .. }) => chain_is_malloc(defs, *r2),
        _ => false,
    }
}

/// Slots whose address escapes by being stored as a *value*.
fn escaping_slots(f: &Func, defs: &Defs) -> SlotSet {
    let mut out = SlotSet::default();
    for b in &f.blocks {
        for i in &b.instrs {
            if let Op::Store { val: Operand::Reg(r), .. } = &i.op {
                if let Some(Op::AddrLocal(s)) = defs.get(*r) {
                    out.insert(*s);
                }
            }
        }
    }
    out
}

/// Slots first initialized from a doubly-indirect load (`int i = *s;` where
/// `s` is itself loaded) — the Fig. 8 shape that GCC `-O3` may legitimately
/// transform.
fn fig8_slots(f: &Func, defs: &Defs) -> SlotSet {
    let mut out = SlotSet::default();
    for b in &f.blocks {
        for i in &b.instrs {
            if let Op::Store { addr, val: Operand::Reg(v), .. } = &i.op {
                if let (Some(Op::AddrLocal(s)), Some(0)) = addr_root(defs, *addr) {
                    if let Some(Op::Load { addr: Operand::Reg(inner), .. }) = defs.get(*v) {
                        if matches!(defs.get(*inner), Some(Op::Load { .. })) {
                            out.insert(*s);
                        }
                    }
                }
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// ASan
// ---------------------------------------------------------------------------

/// Runs the AddressSanitizer pass.
pub fn run_asan(m: &mut Module, ctx: &SanCtx<'_>) {
    cov::hit!(ctx.vendor, "asan.rs", "run");
    m.san.sanitizer = Some(Sanitizer::Asan);
    let active = ctx.active(Sanitizer::Asan);
    // Global red zones: odd-length arrays may get a defective gap.
    cov::hit!(ctx.vendor, "asan.rs", "global_redzones");
    for (gid, g) in m.globals.iter().enumerate() {
        if g.elem_count > 1 && g.elem_count % 2 == 1 {
            let gap = match ctx.vendor {
                Vendor::Gcc => active
                    .iter()
                    .find(|d| d.trigger == Trigger::OddGlobalArray)
                    .map(|d| (d.id, g.elem_size)),
                Vendor::Llvm => active
                    .iter()
                    .find(|d| d.trigger == Trigger::OddGlobalArrayLlvm)
                    .map(|d| (d.id, 8)),
            };
            if let Some((id, bytes)) = gap {
                cov::hit!(ctx.vendor, "asan.rs", "odd_redzone_gap");
                m.san.global_redzone_gaps.push((gid, bytes));
                m.san.applied_defects.push((id, Loc::UNKNOWN));
            }
        }
    }
    let mut applied: Vec<(&'static str, Loc)> = Vec::new();
    let mut legit: Vec<Loc> = Vec::new();
    let mut skipped: Vec<Loc> = Vec::new();
    let mut defs = Defs::default();
    let mut checked_regs = CheckedRegs::default();
    for f in &mut m.funcs {
        cov::hit!(ctx.vendor, "asan.rs", "analyze_func");
        defs.fill(f);
        checked_regs.reset(f.next_reg);
        let in_loop = blocks_in_loops(f);
        let mallocs = malloc_slots(f, &defs);
        let escapes = escaping_slots(f, &defs);
        let fig8 = fig8_slots(f, &defs);
        let is_main = f.name == "main";
        let nparams = f.params.len();
        for (bi, b) in f.blocks.iter_mut().enumerate() {
            let mut out: Vec<Instr> = Vec::with_capacity(b.instrs.len() * 2);
            checked_regs.enter_block(bi);
            for ins in b.instrs.drain(..) {
                match &ins.op {
                    Op::Load { addr, size, .. } | Op::Store { addr, size, .. } => {
                        if !ctx.policy.keeps(&f.name, ins.loc) {
                            cov::hit!(ctx.vendor, "asan.rs", "policy_skip");
                            skipped.push(ins.loc);
                            out.push(ins);
                            continue;
                        }
                        let write = matches!(ins.op, Op::Store { .. });
                        if write {
                            cov::hit!(ctx.vendor, "asan.rs", "instrument_store");
                        } else {
                            cov::hit!(ctx.vendor, "asan.rs", "instrument_load");
                        }
                        let (root, _coff) = addr_root(&defs, *addr);
                        let defect = active.iter().find(|d| {
                            access_trigger_matches(
                                d,
                                &ins,
                                root,
                                *addr,
                                &defs,
                                &mallocs,
                                is_main,
                                nparams,
                                &checked_regs,
                                write,
                                *size,
                            )
                        });
                        if let Some(d) = defect {
                            cov::hit!(ctx.vendor, "asan.rs", "defect_suppressed");
                            if d.trigger == Trigger::RmwWrongLine {
                                // Wrong-report defect: check emitted at the
                                // wrong line.
                                let mut loc = ins.loc;
                                loc.line = loc.line.saturating_sub(1);
                                out.push(Instr {
                                    dst: None,
                                    op: Op::AsanCheck { addr: *addr, size: *size, write },
                                    loc,
                                    meta: ins.meta,
                                });
                            }
                            applied.push((d.id, ins.loc));
                        } else {
                            cov::hit!(ctx.vendor, "asan.rs", "check_emitted");
                            if let Some(r) = addr.as_reg() {
                                checked_regs.insert(r);
                            }
                            out.push(Instr {
                                dst: None,
                                op: Op::AsanCheck { addr: *addr, size: *size, write },
                                loc: ins.loc,
                                meta: ins.meta,
                            });
                        }
                        out.push(ins);
                    }
                    Op::MemCopy { dst, src, len } => {
                        if !ctx.policy.keeps(&f.name, ins.loc) {
                            cov::hit!(ctx.vendor, "asan.rs", "policy_skip");
                            skipped.push(ins.loc);
                            out.push(ins);
                            continue;
                        }
                        cov::hit!(ctx.vendor, "asan.rs", "instrument_memcopy");
                        let tail = active.iter().find(|d| d.trigger == Trigger::StructCopyTail);
                        let checked = if let Some(d) = tail {
                            cov::hit!(ctx.vendor, "asan.rs", "memcopy_tail_truncated");
                            applied.push((d.id, ins.loc));
                            (*len).min(8) as u8
                        } else {
                            (*len).min(255) as u8
                        };
                        out.push(Instr {
                            dst: None,
                            op: Op::AsanCheck { addr: *src, size: checked, write: false },
                            loc: ins.loc,
                            meta: ins.meta,
                        });
                        out.push(Instr {
                            dst: None,
                            op: Op::AsanCheck { addr: *dst, size: checked, write: true },
                            loc: ins.loc,
                            meta: ins.meta,
                        });
                        out.push(ins);
                    }
                    Op::LifetimeStart(s) => {
                        cov::hit!(ctx.vendor, "asan.rs", "unpoison_scope");
                        let s = *s;
                        out.push(ins);
                        out.push(Instr::effect(Op::AsanUnpoisonScope(s), Loc::UNKNOWN));
                    }
                    Op::LifetimeEnd(s) => {
                        let s = *s;
                        let loc = ins.loc;
                        out.push(ins);
                        let escaping = escapes.contains(s);
                        let looped = in_loop[bi];
                        let scope_defect = active.iter().find(|d| match d.trigger {
                            Trigger::ScopePoisonInLoop => {
                                looped && escaping && !fig8.contains(s)
                            }
                            Trigger::ScopePoisonInLoopLlvm => looped && escaping,
                            _ => false,
                        });
                        let legit_transform = ctx.vendor == Vendor::Gcc
                            && ctx.opt == OptLevel::O3
                            && escaping
                            && fig8.contains(s);
                        if let Some(d) = scope_defect {
                            cov::hit!(ctx.vendor, "asan.rs", "scope_defect");
                            applied.push((d.id, loc));
                        } else if legit_transform {
                            // GCC -O3 extends the variable's lifetime out of
                            // the loop: the use-after-scope legitimately
                            // disappears while the crash site stays (the
                            // Fig. 8 invalid-report shape).
                            cov::hit!(ctx.vendor, "asan.rs", "legit_scope_extension");
                            legit.push(loc);
                        } else {
                            cov::hit!(ctx.vendor, "asan.rs", "scope_kept");
                            cov::hit!(ctx.vendor, "asan.rs", "poison_scope");
                            out.push(Instr::effect(Op::AsanPoisonScope(s), loc));
                        }
                    }
                    _ => out.push(ins),
                }
            }
            b.instrs = out;
        }
    }
    m.san.applied_defects.extend(applied);
    m.san.legit_transforms.extend(legit);
    m.san.skipped_sites.extend(skipped);
}

#[allow(clippy::too_many_arguments)]
fn access_trigger_matches(
    d: &Defect,
    ins: &Instr,
    root: Option<&Op>,
    addr: Operand,
    defs: &Defs,
    mallocs: &SlotSet,
    is_main: bool,
    nparams: usize,
    checked_regs: &CheckedRegs,
    write: bool,
    size: u8,
) -> bool {
    match d.trigger {
        Trigger::AddrFromGlobalPtrLoad => matches!(
            root,
            Some(Op::Load { addr: Operand::Reg(r), size: 8, .. })
                if matches!(defs.get(*r), Some(Op::AddrGlobal(_)))
        ),
        Trigger::AddrFromMallocSlot => {
            // The alias-confusion shape needs at least two heap-holding
            // locals in the function (simple single-buffer programs like the
            // Juliet templates are handled correctly).
            mallocs.len() >= 2
                && matches!(
                    root,
                    Some(Op::Load { addr: Operand::Reg(r), .. })
                        if matches!(defs.get(*r), Some(Op::AddrLocal(s)) if mallocs.contains(*s))
                )
        }
        Trigger::MemberOffsetFromLoadedPtr => {
            // p->f: PtrAdd { base: Load(..), Imm > 0, scale 1 }.
            match addr {
                Operand::Reg(r) => matches!(
                    defs.get(r),
                    Some(Op::PtrAdd { base: Operand::Reg(b), offset: Operand::Imm(o), scale: 1 })
                        if *o > 0 && matches!(defs.get(*b), Some(Op::Load { .. }))
                ),
                _ => false,
            }
        }
        Trigger::ConstOffsetGlobal => match addr {
            Operand::Reg(r) => matches!(
                defs.get(r),
                Some(Op::PtrAdd { base: Operand::Reg(b), offset: Operand::Imm(_), .. })
                    if matches!(defs.get(*b), Some(Op::AddrGlobal(_)))
            ),
            _ => false,
        },
        Trigger::ParamPtrConstOffset => {
            !is_main
                && match addr {
                    Operand::Reg(r) => matches!(
                        defs.get(r),
                        Some(Op::PtrAdd { base: Operand::Reg(b), offset: Operand::Imm(_), .. })
                            if matches!(
                                defs.get(*b),
                                Some(Op::Load { addr: Operand::Reg(ar), .. })
                                    if matches!(defs.get(*ar), Some(Op::AddrLocal(s)) if *s < nparams)
                            )
                    ),
                    _ => false,
                }
        }
        Trigger::DuplicateAddrCheck => {
            addr.as_reg().is_some_and(|r| checked_regs.contains(r))
        }
        Trigger::RmwAccess => write && ins.meta.rmw,
        Trigger::ByteAccess => size == 1 && !matches!(root, Some(Op::AddrLocal(_))),
        Trigger::RmwWrongLine => write && ins.meta.rmw,
        _ => false,
    }
}

// ---------------------------------------------------------------------------
// UBSan
// ---------------------------------------------------------------------------

/// Runs the UndefinedBehaviorSanitizer pass.
pub fn run_ubsan(m: &mut Module, ctx: &SanCtx<'_>) {
    cov::hit!(ctx.vendor, "ubsan.rs", "run");
    m.san.sanitizer = Some(Sanitizer::Ubsan);
    let active = ctx.active(Sanitizer::Ubsan);
    let globals: Vec<GlobalDef> = m.globals.clone();
    let mut applied: Vec<(&'static str, Loc)> = Vec::new();
    let mut skipped: Vec<Loc> = Vec::new();
    let mut defs = Defs::default();
    for f in &mut m.funcs {
        defs.fill(f);
        for b in &mut f.blocks {
            let mut out: Vec<Instr> = Vec::with_capacity(b.instrs.len() * 2);
            for ins in b.instrs.drain(..) {
                match &ins.op {
                    // Signed arithmetic overflow.
                    Op::Bin { op, a, b: rb, ty }
                        if op.is_arith()
                            && !matches!(op, BinKind::Div | BinKind::Rem)
                            && ins.meta.sanitize
                            && ty.signed =>
                    {
                        if !ctx.policy.keeps(&f.name, ins.loc) {
                            cov::hit!(ctx.vendor, "ubsan.rs", "policy_skip");
                            skipped.push(ins.loc);
                            out.push(ins);
                            continue;
                        }
                        cov::hit!(ctx.vendor, "ubsan.rs", "arith_check");
                        let defect = active.iter().find(|d| match d.trigger {
                            // ArithFeedsGlobalStore is handled by the
                            // `ubsan_global_store_fixup` post-pass.
                            Trigger::SubWithCastOperand => {
                                *op == BinKind::Sub
                                    && (chain_has_cast(&defs, *a) || chain_has_cast(&defs, *rb))
                            }
                            Trigger::MulWithNarrowOperand => {
                                *op == BinKind::Mul
                                    && (chain_is_narrow(&defs, *a) || chain_is_narrow(&defs, *rb))
                            }
                            Trigger::InlinedArith => ins.meta.inlined,
                            _ => false,
                        });
                        if let Some(d) = defect {
                            cov::hit!(ctx.vendor, "ubsan.rs", "defect_suppressed");
                            applied.push((d.id, ins.loc));
                        } else {
                            cov::hit!(ctx.vendor, "ubsan.rs", "check_emitted");
                            out.push(Instr::effect(
                                Op::UbsanCheckArith { op: *op, a: *a, b: *rb, ty: *ty },
                                ins.loc,
                            ));
                        }
                        out.push(ins);
                    }
                    // Division and remainder.
                    Op::Bin { op: op @ (BinKind::Div | BinKind::Rem), a, b: rb, ty } => {
                        if !ctx.policy.keeps(&f.name, ins.loc) {
                            cov::hit!(ctx.vendor, "ubsan.rs", "policy_skip");
                            skipped.push(ins.loc);
                            out.push(ins);
                            continue;
                        }
                        cov::hit!(ctx.vendor, "ubsan.rs", "div_check");
                        let defect = active.iter().find(|d| match d.trigger {
                            Trigger::BoolWidenedDivisor => {
                                chain_any(&defs, *rb, 0, &|_, m| m.bool_widened)
                            }
                            Trigger::RemUnchecked => *op == BinKind::Rem,
                            _ => false,
                        });
                        if let Some(d) = defect {
                            cov::hit!(ctx.vendor, "ubsan.rs", "defect_suppressed");
                            applied.push((d.id, ins.loc));
                        } else {
                            let wrong_line =
                                active.iter().find(|d| d.trigger == Trigger::DivWrongLine);
                            let mut loc = ins.loc;
                            if let Some(d) = wrong_line {
                                cov::hit!(ctx.vendor, "ubsan.rs", "wrong_line_emitted");
                                loc.line = loc.line.saturating_sub(1);
                                applied.push((d.id, ins.loc));
                            } else {
                                cov::hit!(ctx.vendor, "ubsan.rs", "check_emitted");
                            }
                            out.push(Instr::effect(
                                Op::UbsanCheckDiv { a: *a, divisor: *rb, ty: *ty },
                                loc,
                            ));
                        }
                        out.push(ins);
                    }
                    // Shift exponents.
                    Op::Bin { op: BinKind::Shl | BinKind::Shr, a: _, b: rb, ty }
                        if ins.meta.sanitize =>
                    {
                        if !ctx.policy.keeps(&f.name, ins.loc) {
                            cov::hit!(ctx.vendor, "ubsan.rs", "policy_skip");
                            skipped.push(ins.loc);
                            out.push(ins);
                            continue;
                        }
                        cov::hit!(ctx.vendor, "ubsan.rs", "shift_check");
                        let bits = ty.promoted().width.bits() as u8;
                        let defect = active.iter().find(|d| match d.trigger {
                            Trigger::CharShiftAmount => ins.meta.char_shift_amount,
                            Trigger::LongShift => bits == 64,
                            Trigger::ShiftAmountCast => chain_has_cast(&defs, *rb),
                            _ => false,
                        });
                        if let Some(d) = defect {
                            cov::hit!(ctx.vendor, "ubsan.rs", "defect_suppressed");
                            applied.push((d.id, ins.loc));
                        } else {
                            cov::hit!(ctx.vendor, "ubsan.rs", "check_emitted");
                            out.push(Instr::effect(
                                Op::UbsanCheckShift { amount: *rb, bits },
                                ins.loc,
                            ));
                        }
                        out.push(ins);
                    }
                    // Negation overflow.
                    Op::Un { op: UnKind::Neg, a, ty } if ins.meta.sanitize && ty.signed => {
                        if !ctx.policy.keeps(&f.name, ins.loc) {
                            cov::hit!(ctx.vendor, "ubsan.rs", "policy_skip");
                            skipped.push(ins.loc);
                            out.push(ins);
                            continue;
                        }
                        cov::hit!(ctx.vendor, "ubsan.rs", "neg_check");
                        let defect =
                            active.iter().find(|d| d.trigger == Trigger::NegationUnchecked);
                        if let Some(d) = defect {
                            cov::hit!(ctx.vendor, "ubsan.rs", "defect_suppressed");
                            applied.push((d.id, ins.loc));
                        } else {
                            cov::hit!(ctx.vendor, "ubsan.rs", "check_emitted");
                            out.push(Instr::effect(Op::UbsanCheckNeg { a: *a, ty: *ty }, ins.loc));
                        }
                        out.push(ins);
                    }
                    // Null checks on pointer dereferences; array-bound checks.
                    Op::Load { addr, .. } | Op::Store { addr, .. } => {
                        let (root, _) = addr_root(&defs, *addr);
                        if let Some(Op::Load { .. }) = root {
                            if !ctx.policy.keeps(&f.name, ins.loc) {
                                cov::hit!(ctx.vendor, "ubsan.rs", "policy_skip");
                                skipped.push(ins.loc);
                                out.push(ins);
                                continue;
                            }
                            cov::hit!(ctx.vendor, "ubsan.rs", "null_check");
                            let rmw_defect = active.iter().find(|d| {
                                d.trigger == Trigger::RmwNullCheck && ins.meta.rmw
                            });
                            if let Some(d) = rmw_defect {
                                cov::hit!(ctx.vendor, "ubsan.rs", "defect_suppressed");
                                applied.push((d.id, ins.loc));
                            } else {
                                let after_offset = active
                                    .iter()
                                    .find(|d| d.trigger == Trigger::NullCheckAfterOffset);
                                let checked = if let Some(d) = after_offset {
                                    // Defective: check the post-offset address.
                                    if root_reg(&defs, *addr) != *addr {
                                        applied.push((d.id, ins.loc));
                                    }
                                    *addr
                                } else {
                                    root_reg(&defs, *addr)
                                };
                                cov::hit!(ctx.vendor, "ubsan.rs", "check_emitted");
                                out.push(Instr::effect(
                                    Op::UbsanCheckNull { addr: checked },
                                    ins.loc,
                                ));
                            }
                        }
                        out.push(ins);
                    }
                    // Array bound checks ride on address computations.
                    Op::PtrAdd { base: Operand::Reg(br), offset, scale } if *scale > 0 => {
                        let bound = match defs.get(*br) {
                            Some(Op::AddrGlobal(g)) => {
                                let gd = &globals[*g];
                                (gd.elem_count > 1 && gd.elem_size as i64 == *scale)
                                    .then_some(gd.elem_count as u64)
                            }
                            Some(Op::AddrLocal(s)) => {
                                let slot = &f.slots[*s];
                                (slot.size as i64 > *scale && slot.size as i64 % *scale == 0)
                                    .then_some((slot.size as i64 / *scale) as u64)
                            }
                            _ => None,
                        };
                        if let Some(bound) = bound {
                            if !ctx.policy.keeps(&f.name, ins.loc) {
                                cov::hit!(ctx.vendor, "ubsan.rs", "policy_skip");
                                skipped.push(ins.loc);
                                out.push(ins);
                                continue;
                            }
                            cov::hit!(ctx.vendor, "ubsan.rs", "bound_check");
                            let is_global_array =
                                matches!(defs.get(*br), Some(Op::AddrGlobal(_)));
                            let defect = active.iter().find(|d| match d.trigger {
                                Trigger::IndexIsSumOfLoads => {
                                    index_is_sum_of_loads(&defs, *offset)
                                }
                                Trigger::BoundOffByOne => is_global_array,
                                _ => false,
                            });
                            match defect {
                                Some(d) if d.trigger == Trigger::BoundOffByOne => {
                                    cov::hit!(ctx.vendor, "ubsan.rs", "off_by_one_bound");
                                    applied.push((d.id, ins.loc));
                                    out.push(Instr::effect(
                                        Op::UbsanCheckBound { idx: *offset, bound: bound + 1 },
                                        ins.loc,
                                    ));
                                }
                                Some(d) => {
                                    cov::hit!(ctx.vendor, "ubsan.rs", "defect_suppressed");
                                    applied.push((d.id, ins.loc));
                                }
                                None => {
                                    cov::hit!(ctx.vendor, "ubsan.rs", "check_emitted");
                                    out.push(Instr::effect(
                                        Op::UbsanCheckBound { idx: *offset, bound },
                                        ins.loc,
                                    ));
                                }
                            }
                        }
                        out.push(ins);
                    }
                    _ => out.push(ins),
                }
            }
            b.instrs = out;
        }
    }
    m.san.applied_defects.extend(applied);
    m.san.skipped_sites.extend(skipped);
}

/// The root pointer value of an address chain (for null checks).
fn root_reg(defs: &Defs, addr: Operand) -> Operand {
    let mut cur = addr;
    loop {
        match cur {
            Operand::Reg(r) => match defs.get(r) {
                Some(Op::PtrAdd { base, .. }) => cur = *base,
                _ => return cur,
            },
            imm => return imm,
        }
    }
}

fn chain_has_cast(defs: &Defs, o: Operand) -> bool {
    chain_any(defs, o, 0, &|op, _| matches!(op, Op::Cast { .. }))
}

fn chain_is_narrow(defs: &Defs, o: Operand) -> bool {
    chain_any(defs, o, 0, &|op, _| {
        matches!(op, Op::Load { size: 1 | 2, .. })
            || matches!(op, Op::Cast { to, .. } if to.width.bits() <= 16)
    })
}

fn index_is_sum_of_loads(defs: &Defs, idx: Operand) -> bool {
    let Operand::Reg(r) = idx else { return false };
    match defs.get(r) {
        Some(Op::Bin { op: BinKind::Add, a: Operand::Reg(x), b: Operand::Reg(y), .. }) => {
            matches!(defs.get(*x), Some(Op::Load { .. }))
                && matches!(defs.get(*y), Some(Op::Load { .. }))
        }
        _ => false,
    }
}

/// Post-pass for the `ArithFeedsGlobalStore` defect: removes arithmetic
/// checks whose guarded value is stored straight into a global.
pub fn ubsan_global_store_fixup(m: &mut Module, ctx: &SanCtx<'_>) {
    let Some(d) = ctx
        .active(Sanitizer::Ubsan)
        .into_iter()
        .find(|d| d.trigger == Trigger::ArithFeedsGlobalStore)
    else {
        return;
    };
    let mut applied = Vec::new();
    let mut defs = Defs::default();
    for f in &mut m.funcs {
        defs.fill(f);
        for b in &mut f.blocks {
            // Registers stored directly to globals (a handful per block).
            let global_fed: Vec<RegId> = b
                .instrs
                .iter()
                .filter_map(|i| match &i.op {
                    Op::Store { addr, val: Operand::Reg(v), .. }
                        if matches!(addr_root(&defs, *addr).0, Some(Op::AddrGlobal(_))) =>
                    {
                        Some(*v)
                    }
                    _ => None,
                })
                .collect();
            // Map check → guarded register (the following Bin's dst).
            let dst_for: Vec<((BinKind, Operand, Operand), RegId)> = b
                .instrs
                .iter()
                .filter_map(|i| match (&i.op, i.dst) {
                    (Op::Bin { op, a, b, .. }, Some(d)) => Some(((*op, *a, *b), d)),
                    _ => None,
                })
                .collect();
            b.instrs.retain(|i| match &i.op {
                Op::UbsanCheckArith { op, a, b, .. } => {
                    let fed = dst_for
                        .iter()
                        .find(|(k, _)| *k == (*op, *a, *b))
                        .is_some_and(|(_, d2)| global_fed.contains(d2));
                    if fed {
                        applied.push((d.id, i.loc));
                    }
                    !fed
                }
                _ => true,
            });
        }
    }
    m.san.applied_defects.extend(applied);
}

// ---------------------------------------------------------------------------
// MSan
// ---------------------------------------------------------------------------

/// Runs the MemorySanitizer pass (LLVM only; the pipeline rejects GCC+MSan).
pub fn run_msan(m: &mut Module, ctx: &SanCtx<'_>) {
    cov::hit!(ctx.vendor, "msan.rs", "run");
    m.san.sanitizer = Some(Sanitizer::Msan);
    let active = ctx.active(Sanitizer::Msan);
    if let Some(d) = active.iter().find(|d| d.trigger == Trigger::MsanSubConst) {
        cov::hit!(ctx.vendor, "msan.rs", "policy_defective");
        m.san.msan_policy.sub_const_fully_defined = true;
        m.san.applied_defects.push((d.id, Loc::UNKNOWN));
    } else {
        cov::hit!(ctx.vendor, "msan.rs", "policy_correct");
    }
    let mut skipped: Vec<Loc> = Vec::new();
    for f in &mut m.funcs {
        for b in &mut f.blocks {
            // Checks on branch conditions.
            if let Some(Term::Br { cond, .. }) = &b.term {
                let cond = *cond;
                let loc = b.instrs.last().map_or(Loc::UNKNOWN, |i| i.loc);
                if !ctx.policy.keeps(&f.name, loc) {
                    cov::hit!(ctx.vendor, "msan.rs", "policy_skip");
                    skipped.push(loc);
                } else {
                    cov::hit!(ctx.vendor, "msan.rs", "branch_check");
                    b.instrs.push(Instr::effect(
                        Op::MsanCheck { val: cond, what: MsanUse::Branch },
                        loc,
                    ));
                }
            }
            // Checks on divisors and printed values.
            let mut out: Vec<Instr> = Vec::with_capacity(b.instrs.len() * 2);
            for ins in b.instrs.drain(..) {
                match &ins.op {
                    Op::Bin { op: BinKind::Div | BinKind::Rem, b: rb, .. } => {
                        if !ctx.policy.keeps(&f.name, ins.loc) {
                            cov::hit!(ctx.vendor, "msan.rs", "policy_skip");
                            skipped.push(ins.loc);
                            out.push(ins);
                            continue;
                        }
                        cov::hit!(ctx.vendor, "msan.rs", "div_check");
                        out.push(Instr::effect(
                            Op::MsanCheck { val: *rb, what: MsanUse::Divisor },
                            ins.loc,
                        ));
                        out.push(ins);
                    }
                    Op::Print { val } => {
                        if !ctx.policy.keeps(&f.name, ins.loc) {
                            cov::hit!(ctx.vendor, "msan.rs", "policy_skip");
                            skipped.push(ins.loc);
                            out.push(ins);
                            continue;
                        }
                        cov::hit!(ctx.vendor, "msan.rs", "output_check");
                        out.push(Instr::effect(
                            Op::MsanCheck { val: *val, what: MsanUse::Output },
                            ins.loc,
                        ));
                        out.push(ins);
                    }
                    _ => out.push(ins),
                }
            }
            b.instrs = out;
        }
    }
    m.san.skipped_sites.extend(skipped);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::defects::DefectRegistry;
    use crate::pipeline::{compile, CompileConfig};
    use crate::target::OptLevel;
    use ubfuzz_minic::parse;

    fn count_ops(m: &Module, pred: impl Fn(&Op) -> bool) -> usize {
        m.funcs
            .iter()
            .flat_map(|f| f.blocks.iter())
            .flat_map(|b| b.instrs.iter())
            .filter(|i| pred(&i.op))
            .count()
    }

    fn build(src: &str, san: Option<Sanitizer>, reg: &DefectRegistry) -> Module {
        let p = parse(src).unwrap();
        compile(&p, &CompileConfig::dev(Vendor::Gcc, OptLevel::O0, san, reg)).unwrap()
    }

    #[test]
    fn asan_pass_inserts_checks_for_memory_accesses() {
        let reg = DefectRegistry::pristine();
        let src = "int a[4];
                   int i = 1;
                   int main(void) { a[i] = a[0] + 1; return a[i]; }";
        let plain = build(src, None, &reg);
        assert_eq!(count_ops(&plain, |o| matches!(o, Op::AsanCheck { .. })), 0);
        let asan = build(src, Some(Sanitizer::Asan), &reg);
        let checks = count_ops(&asan, |o| matches!(o, Op::AsanCheck { .. }));
        let accesses =
            count_ops(&asan, |o| matches!(o, Op::Load { .. } | Op::Store { .. }));
        assert!(checks > 0, "ASan inserts checks");
        assert!(checks >= accesses, "every access checked at -O0: {checks} < {accesses}");
    }

    #[test]
    fn ubsan_pass_inserts_kind_specific_checks() {
        let reg = DefectRegistry::pristine();
        let src = "int x = 9; int y = 2;
                   int main(void) {
                       int q = x / y;
                       int s = x << (y & 7);
                       int a = x + y;
                       print_value(q + s + a);
                       return 0;
                   }";
        let m = build(src, Some(Sanitizer::Ubsan), &reg);
        assert!(count_ops(&m, |o| matches!(o, Op::UbsanCheckDiv { .. })) > 0);
        assert!(count_ops(&m, |o| matches!(o, Op::UbsanCheckShift { .. })) > 0);
        assert!(count_ops(&m, |o| matches!(o, Op::UbsanCheckArith { .. })) > 0);
        // ASan never emits arithmetic checks (the Table 2 separation).
        let m = build(src, Some(Sanitizer::Asan), &reg);
        assert_eq!(count_ops(&m, |o| matches!(o, Op::UbsanCheckDiv { .. })), 0);
        assert_eq!(count_ops(&m, |o| matches!(o, Op::UbsanCheckArith { .. })), 0);
    }

    #[test]
    fn defect_world_suppresses_checks_relative_to_pristine() {
        // The Fig. 1 program: the GCC ASan defect *removes* a check the
        // pristine pass would insert — visible in the IR before any
        // execution. Attribution metadata records the application.
        let src = "
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
            }";
        let p = parse(src).unwrap();
        let pristine_reg = DefectRegistry::pristine();
        let full_reg = DefectRegistry::full();
        let mk = |reg| {
            compile(&p, &CompileConfig::dev(Vendor::Gcc, OptLevel::O2, Some(Sanitizer::Asan), reg))
                .unwrap()
        };
        let pristine = mk(&pristine_reg);
        let defective = mk(&full_reg);
        let cp = count_ops(&pristine, |o| matches!(o, Op::AsanCheck { .. }));
        let cd = count_ops(&defective, |o| matches!(o, Op::AsanCheck { .. }));
        assert!(cd < cp, "defect suppressed a check: {cd} >= {cp}");
        assert!(pristine.san.applied_defects.is_empty());
        assert!(!defective.san.applied_defects.is_empty());
    }

    #[test]
    fn msan_pass_checks_branch_conditions() {
        let reg = DefectRegistry::pristine();
        let src = "int g;
                   int main(void) { if (g > 1) { print_value(g); } return 0; }";
        let p = parse(src).unwrap();
        let m = compile(
            &p,
            &CompileConfig::dev(Vendor::Llvm, OptLevel::O0, Some(Sanitizer::Msan), &reg),
        )
        .unwrap();
        assert!(count_ops(&m, |o| matches!(o, Op::MsanCheck { .. })) > 0);
    }

    #[test]
    fn table2_matrix() {
        use UbKind::*;
        assert!(supports(Sanitizer::Asan, BufOverflowArray));
        assert!(supports(Sanitizer::Ubsan, BufOverflowArray));
        assert!(!supports(Sanitizer::Ubsan, BufOverflowPtr));
        assert!(supports(Sanitizer::Asan, UseAfterFree));
        assert!(supports(Sanitizer::Asan, UseAfterScope));
        assert!(supports(Sanitizer::Ubsan, NullDeref));
        assert!(supports(Sanitizer::Ubsan, IntOverflow));
        assert!(supports(Sanitizer::Ubsan, ShiftOverflow));
        assert!(supports(Sanitizer::Ubsan, DivByZero));
        assert!(supports(Sanitizer::Msan, UninitUse));
        assert!(!supports(Sanitizer::Msan, NullDeref));
        assert_eq!(sanitizers_for(BufOverflowArray).len(), 2);
        assert_eq!(sanitizers_for(UninitUse).as_slice(), &[Sanitizer::Msan]);
        assert!(sanitizers_for(BufOverflowPtr).iter().eq([Sanitizer::Asan]));
    }
}
