//! Optimization passes.
//!
//! These run *before* the sanitizer pass (paper Fig. 2), which is why they
//! can delete undefined behavior that the sanitizer then never sees
//! (Fig. 3) — the phenomenon crash-site mapping exists to disambiguate.
//! A restricted subset re-runs after instrumentation ("late" opts) and must
//! preserve sanitizer checks.

use crate::ir::*;
use std::collections::HashMap;
use ubfuzz_minic::types::IntType;

/// Folds a binary machine operation; `None` when not foldable (division by
/// zero or out-of-range shift — those trap at runtime).
pub fn fold_bin(op: BinKind, a: i64, b: i64, ty: IntType) -> Option<i64> {
    let (wa, wb) = (ty.wrap(a as i128), ty.wrap(b as i128));
    let v: i128 = match op {
        BinKind::Add => wa.wrapping_add(wb),
        BinKind::Sub => wa.wrapping_sub(wb),
        BinKind::Mul => wa.wrapping_mul(wb),
        BinKind::Div => {
            if wb == 0 {
                return None;
            }
            wa.wrapping_div(wb)
        }
        BinKind::Rem => {
            if wb == 0 {
                return None;
            }
            wa.wrapping_rem(wb)
        }
        BinKind::Shl | BinKind::Shr => {
            let bits = ty.promoted().width.bits() as i128;
            if wb < 0 || wb >= bits {
                return None;
            }
            if op == BinKind::Shl {
                wa.wrapping_shl(wb as u32)
            } else if ty.signed {
                wa >> wb
            } else {
                (((wa as u128) & (u128::MAX >> (128 - bits))) >> wb) as i128
            }
        }
        BinKind::And => wa & wb,
        BinKind::Or => wa | wb,
        BinKind::Xor => wa ^ wb,
        BinKind::Lt => i128::from(wa < wb),
        BinKind::Le => i128::from(wa <= wb),
        BinKind::Gt => i128::from(wa > wb),
        BinKind::Ge => i128::from(wa >= wb),
        BinKind::Eq => i128::from(wa == wb),
        BinKind::Ne => i128::from(wa != wb),
    };
    Some(ty.wrap(v) as i64)
}

/// Folds a unary machine operation.
pub fn fold_un(op: UnKind, a: i64, ty: IntType) -> i64 {
    let wa = ty.wrap(a as i128);
    let v = match op {
        UnKind::Neg => ty.wrap(wa.wrapping_neg()),
        UnKind::Not => ty.wrap(!wa),
        UnKind::LogicalNot => i128::from(wa == 0),
    };
    v as i64
}

/// Constant folding + copy propagation to fixpoint within each function.
///
/// The register → constant table is indexed by register (every register
/// is below `next_reg`, as DCE and the VM also rely on; one buffer is
/// reused across functions). It is filled once per function and extended
/// as folds mint new constants; registers have a single definition, so an
/// entry never goes stale.
pub fn constfold(m: &mut Module) -> bool {
    let mut changed = false;
    let mut consts: Vec<Option<i64>> = Vec::new();
    for f in &mut m.funcs {
        consts.clear();
        consts.resize(f.next_reg as usize, None);
        for b in &f.blocks {
            for i in &b.instrs {
                if let (Some(d), Op::Const(v)) = (i.dst, &i.op) {
                    consts[d as usize] = Some(*v);
                }
            }
        }
        loop {
            let mut round = false;
            for b in &mut f.blocks {
                for i in &mut b.instrs {
                    i.op.map_operands(|o| match o {
                        Operand::Reg(r) => match consts[r as usize] {
                            Some(v) => {
                                round = true;
                                Operand::Imm(v)
                            }
                            None => o,
                        },
                        other => other,
                    });
                    // Fold now-constant operations.
                    let folded = match &i.op {
                        Op::Bin { op, a: Operand::Imm(x), b: Operand::Imm(y), ty } => {
                            fold_bin(*op, *x, *y, *ty)
                        }
                        Op::Un { op, a: Operand::Imm(x), ty } => Some(fold_un(*op, *x, *ty)),
                        Op::Cast { a: Operand::Imm(x), to } => Some(to.wrap(*x as i128) as i64),
                        Op::PtrAdd { base: Operand::Imm(b2), offset: Operand::Imm(o), scale } => {
                            Some(b2 + o * scale)
                        }
                        _ => None,
                    };
                    if let Some(v) = folded {
                        if !matches!(i.op, Op::Const(_)) {
                            i.op = Op::Const(v);
                            round = true;
                            if let Some(d) = i.dst {
                                consts[d as usize] = Some(v);
                            }
                        }
                    }
                }
                if let Some(t) = &mut b.term {
                    match t {
                        Term::Br { cond, .. } => {
                            if let Operand::Reg(r) = cond {
                                if let Some(v) = consts[*r as usize] {
                                    *cond = Operand::Imm(v);
                                    round = true;
                                }
                            }
                        }
                        Term::Ret(Some(Operand::Reg(r))) => {
                            if let Some(v) = consts[*r as usize] {
                                *t = Term::Ret(Some(Operand::Imm(v)));
                                round = true;
                            }
                        }
                        _ => {}
                    }
                }
            }
            // Remove now-dead Const instructions opportunistically; full DCE
            // handles the rest.
            if !round {
                break;
            }
            changed = true;
        }
    }
    changed
}

/// The register a terminator reads, if any.
fn term_reg(t: &Term) -> Option<RegId> {
    match t {
        Term::Br { cond: Operand::Reg(r), .. } | Term::Ret(Some(Operand::Reg(r))) => Some(*r),
        _ => None,
    }
}

/// Dead code elimination. `remove_loads` is true only in the early (pre-
/// sanitizer) pipeline: once checks are attached to accesses, loads stay.
///
/// Counts every register's uses once, then sweeps the function backwards —
/// deleting each removable instruction whose result has no uses left and
/// releasing the uses of its operands — until a sweep deletes nothing.
/// Deletion only ever lowers use counts, so this removes exactly what
/// repeated "collect the used registers, drop unused definitions" rounds
/// would, at the cost of one linear sweep per round instead of a rebuilt
/// set.
pub fn dce(m: &mut Module, remove_loads: bool) -> bool {
    let removable = |i: &Instr| match &i.op {
        Op::Load { .. } => remove_loads,
        op => !op.has_side_effect(),
    };
    let mut changed = false;
    let (mut uses, mut dead, mut starts) = (Vec::new(), Vec::new(), Vec::new());
    for f in &mut m.funcs {
        uses.clear();
        uses.resize(f.next_reg as usize, 0u32);
        starts.clear();
        let mut total = 0;
        for b in &f.blocks {
            starts.push(total);
            total += b.instrs.len();
            for i in &b.instrs {
                i.op.for_each_reg(|r| uses[r as usize] += 1);
            }
            if let Some(r) = b.term.as_ref().and_then(term_reg) {
                uses[r as usize] += 1;
            }
        }
        dead.clear();
        dead.resize(total, false);
        let mut removed = false;
        loop {
            let mut swept = false;
            for (b, &start) in f.blocks.iter().zip(&starts).rev() {
                for (k, i) in b.instrs.iter().enumerate().rev() {
                    if dead[start + k]
                        || !removable(i)
                        || i.dst.is_some_and(|d| uses[d as usize] > 0)
                    {
                        continue;
                    }
                    dead[start + k] = true;
                    i.op.for_each_reg(|r| uses[r as usize] -= 1);
                    swept = true;
                }
            }
            if !swept {
                break;
            }
            removed = true;
        }
        if !removed {
            continue;
        }
        changed = true;
        for (b, &start) in f.blocks.iter_mut().zip(&starts) {
            let mut k = start;
            b.instrs.retain(|_| {
                k += 1;
                !dead[k - 1]
            });
        }
    }
    changed
}

/// A symbolic memory location: (base, byte offset).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Base {
    Slot(usize),
    Global(usize),
}

/// What an address walk needs of one register's def: a slot or global base,
/// or a `PtrAdd` with a constant offset. Every other def resolves nowhere.
#[derive(Debug, Clone, Copy)]
enum AddrDef {
    Root(Base),
    PtrAdd { base: Operand, offset: i64, scale: i64 },
}

/// Register-indexed table of the defs [`AddrDefs::resolve`] walks: only the
/// `AddrLocal`, `AddrGlobal` and constant-offset `PtrAdd` ops, copied out of
/// the function (a later def of a register wins, as it would in a map).
/// One table is refilled per function, sized by its `next_reg`.
#[derive(Default)]
struct AddrDefs {
    defs: Vec<Option<AddrDef>>,
}

impl AddrDefs {
    fn fill(&mut self, f: &Func) {
        self.defs.clear();
        self.defs.resize(f.next_reg as usize, None);
        for b in &f.blocks {
            for i in &b.instrs {
                let Some(d) = i.dst else { continue };
                self.defs[d as usize] = match i.op {
                    Op::AddrLocal(s) => Some(AddrDef::Root(Base::Slot(s))),
                    Op::AddrGlobal(g) => Some(AddrDef::Root(Base::Global(g))),
                    Op::PtrAdd { base, offset: Operand::Imm(offset), scale } => {
                        Some(AddrDef::PtrAdd { base, offset, scale })
                    }
                    _ => None,
                };
            }
        }
    }

    /// Resolves an address operand to a symbolic location using the def
    /// chain.
    fn resolve(&self, addr: Operand) -> Option<(Base, i64)> {
        let Operand::Reg(r) = addr else { return None };
        match self.defs[r as usize]? {
            AddrDef::Root(base) => Some((base, 0)),
            AddrDef::PtrAdd { base, offset, scale } => {
                let (b, off) = self.resolve(base)?;
                Some((b, off + offset * scale))
            }
        }
    }
}

/// What memopt knows about one location in the current block: the value it
/// holds, its access size, and the index of the store that wrote it while
/// no load has observed that store yet.
struct Known {
    loc: (Base, i64),
    val: Operand,
    size: u8,
    store: Option<usize>,
}

/// Records `entry` as what is known at its location, replacing any earlier
/// entry there. A block touches few locations, so a linear scan beats
/// hashing them.
fn know(known: &mut Vec<Known>, entry: Known) {
    match known.iter_mut().find(|k| k.loc == entry.loc) {
        Some(k) => *k = entry,
        None => known.push(entry),
    }
}

/// Block-local store-to-load forwarding, load CSE, and dead store
/// elimination. Runs only in the early pipeline.
///
/// Address operands resolve through a register-indexed `AddrDefs` table
/// filled once per function; the per-block location state is a short list;
/// killed stores leave their block in one `retain`. All three buffers are
/// reused across blocks and functions.
pub fn memopt(m: &mut Module) -> bool {
    let mut changed = false;
    let mut defs = AddrDefs::default();
    let mut known: Vec<Known> = Vec::new();
    let mut kill: Vec<usize> = Vec::new();
    for f in &mut m.funcs {
        defs.fill(f);
        for b in &mut f.blocks {
            known.clear();
            kill.clear();
            for idx in 0..b.instrs.len() {
                let ins = &b.instrs[idx];
                match ins.op {
                    Op::Load { addr, size, signed } => {
                        if let Some(loc) = defs.resolve(addr) {
                            let forward = known.iter().find(|k| k.loc == loc && k.size == size);
                            if let Some(&Known { val, .. }) = forward {
                                // Forward the value through a cast that
                                // models the store/load round-trip: the
                                // load's own signedness decides whether the
                                // truncated value re-extends with sign or
                                // zero.
                                b.instrs[idx].op = Op::Cast {
                                    a: val,
                                    to: match (size, signed) {
                                        (1, true) => IntType::CHAR,
                                        (1, false) => IntType::UCHAR,
                                        (2, true) => IntType::SHORT,
                                        (2, false) => IntType::USHORT,
                                        (4, true) => IntType::INT,
                                        (4, false) => IntType::UINT,
                                        (_, true) => IntType::LONG,
                                        (_, false) => IntType::ULONG,
                                    },
                                };
                                changed = true;
                                continue;
                            }
                            // Record loaded value for load CSE; mark every
                            // store to this location as observed.
                            if let Some(d) = ins.dst {
                                let val = Operand::Reg(d);
                                know(&mut known, Known { loc, val, size, store: None });
                            }
                        } else {
                            // Unknown load: observes everything — stores
                            // before it become un-eliminable.
                            for k in &mut known {
                                k.store = None;
                            }
                        }
                    }
                    Op::Store { addr, val, size } => {
                        if let Some(loc) = defs.resolve(addr) {
                            let prev = known.iter().find(|k| k.loc == loc && k.size == size);
                            if let Some(&Known { store: Some(pidx), .. }) = prev {
                                // Previous store to the same location was
                                // never read: dead store.
                                kill.push(pidx);
                                changed = true;
                            }
                            know(&mut known, Known { loc, val, size, store: Some(idx) });
                        } else {
                            // Unknown store: clobbers everything.
                            known.clear();
                        }
                    }
                    Op::Call { .. } | Op::Free { .. } | Op::MemCopy { .. } => known.clear(),
                    Op::LifetimeEnd(s) | Op::LifetimeStart(s) => {
                        known.retain(|k| k.loc.0 != Base::Slot(s));
                    }
                    _ => {}
                }
            }
            if !kill.is_empty() {
                kill.sort_unstable();
                kill.dedup();
                let (mut at, mut next) = (0, 0);
                b.instrs.retain(|_| {
                    let dead = kill.get(next) == Some(&at);
                    next += usize::from(dead);
                    at += 1;
                    !dead
                });
            }
        }
    }
    changed
}

/// Eliminates stores to slots that are never read and whose address never
/// escapes — the main way the optimizer deletes UB before the sanitizer sees
/// it (paper Fig. 3, dead `d[1] = 1`).
///
/// The register → slot table is indexed by register and the loaded/escaped
/// flags by slot (slots are below `slots.len()`); all three buffers are
/// reused across functions.
pub fn dead_slot_elim(m: &mut Module) -> bool {
    let mut changed = false;
    let mut addr_slot: Vec<Option<usize>> = Vec::new();
    let (mut loaded, mut escaped): (Vec<bool>, Vec<bool>) = (Vec::new(), Vec::new());
    for f in &mut m.funcs {
        // For each slot, find whether its address (including addresses
        // derived through `PtrAdd`, i.e. element/member addresses) is only
        // used as a direct store target.
        addr_slot.clear();
        addr_slot.resize(f.next_reg as usize, None);
        for _ in 0..3 {
            for b in &f.blocks {
                for i in &b.instrs {
                    match (i.dst, &i.op) {
                        (Some(d), Op::AddrLocal(s)) => addr_slot[d as usize] = Some(*s),
                        (Some(d), Op::PtrAdd { base: Operand::Reg(r), .. }) => {
                            if let Some(s) = addr_slot[*r as usize] {
                                addr_slot[d as usize] = Some(s);
                            }
                        }
                        _ => {}
                    }
                }
            }
        }
        let nslots = f.slots.len();
        loaded.clear();
        loaded.resize(nslots, false);
        escaped.clear();
        escaped.resize(nslots, false);
        let mark = |flags: &mut Vec<bool>, r: RegId| {
            if let Some(s) = addr_slot[r as usize] {
                flags[s] = true;
            }
        };
        for b in &f.blocks {
            for i in &b.instrs {
                match &i.op {
                    Op::Store { val, .. } => {
                        if let Operand::Reg(r) = val {
                            mark(&mut escaped, *r);
                        }
                    }
                    Op::Load { addr, .. } => {
                        if let Operand::Reg(r) = addr {
                            mark(&mut loaded, *r);
                        }
                    }
                    Op::PtrAdd { base: Operand::Reg(_), offset, .. } => {
                        // Deriving an element address is fine; using a slot
                        // address as the *index* is an escape.
                        if let Operand::Reg(r) = offset {
                            mark(&mut escaped, *r);
                        }
                    }
                    other => other.for_each_reg(|r| mark(&mut escaped, r)),
                }
            }
            if let Some(Term::Br { cond: Operand::Reg(r), .. }) = &b.term {
                mark(&mut escaped, *r);
            }
        }
        let dead = |s: usize| !loaded[s] && !escaped[s];
        if !(0..nslots).any(dead) {
            continue;
        }
        for b in &mut f.blocks {
            let before = b.instrs.len();
            b.instrs.retain(|i| match &i.op {
                Op::Store { addr: Operand::Reg(r), .. } => {
                    !addr_slot[*r as usize].is_some_and(dead)
                }
                _ => true,
            });
            if b.instrs.len() != before {
                changed = true;
            }
        }
    }
    changed
}

/// CFG simplification: constant branches become jumps; unreachable blocks
/// are emptied (indices are preserved).
pub fn simplify_cfg(m: &mut Module) -> bool {
    let mut changed = false;
    for f in &mut m.funcs {
        for b in &mut f.blocks {
            if let Some(Term::Br { cond: Operand::Imm(v), then_bb, else_bb }) = &b.term {
                let target = if *v != 0 { *then_bb } else { *else_bb };
                b.term = Some(Term::Jmp(target));
                changed = true;
            }
        }
        // Reachability from entry.
        let mut reach = vec![false; f.blocks.len()];
        let mut stack = vec![0usize];
        while let Some(x) = stack.pop() {
            if reach[x] {
                continue;
            }
            reach[x] = true;
            if let Some(t) = &f.blocks[x].term {
                stack.extend(t.successors());
            }
        }
        for (bi, b) in f.blocks.iter_mut().enumerate() {
            let trivial_ret = b.instrs.is_empty() && matches!(b.term, Some(Term::Ret(_)));
            if !reach[bi] && !trivial_ret {
                b.instrs.clear();
                b.term = Some(Term::Ret(Some(Operand::Imm(0))));
                changed = true;
            }
        }
    }
    changed
}

/// Per-block "is part of a loop" analysis (a block that can reach itself).
pub fn blocks_in_loops(f: &Func) -> Vec<bool> {
    let n = f.blocks.len();
    let mut reach = vec![vec![false; n]; n];
    for (bi, b) in f.blocks.iter().enumerate() {
        if let Some(t) = &b.term {
            for s in t.successors() {
                reach[bi][s] = true;
            }
        }
    }
    // Floyd–Warshall closure (CFGs here are tiny).
    for k in 0..n {
        // Row k cannot gain entries during its own phase; snapshot it.
        let row_k = reach[k].clone();
        for row in reach.iter_mut() {
            if row[k] {
                for (j, r) in row_k.iter().enumerate() {
                    if *r {
                        row[j] = true;
                    }
                }
            }
        }
    }
    (0..n).map(|i| reach[i][i]).collect()
}

/// The canonical counted loop recognized by the unroller.
struct CountedLoop {
    cond_bb: BlockId,
    body_bb: BlockId,
    step_bb: BlockId,
    exit_bb: BlockId,
    trip: i64,
}

/// The op that defines `r` within one block (the last def, as a map
/// collected from the block would hold). Loop blocks are a handful of
/// instructions, so a scan is all it takes.
fn block_def(instrs: &[Instr], r: RegId) -> Option<&Op> {
    instrs.iter().rev().find(|i| i.dst == Some(r)).map(|i| &i.op)
}

/// `slot_init[s]` is the constant last stored to offset 0 of slot `s`.
fn find_counted_loop(f: &Func, slot_init: &[Option<i64>]) -> Option<CountedLoop> {
    for (ci, cb) in f.blocks.iter().enumerate() {
        let Some(Term::Br { cond: Operand::Reg(cr), then_bb, else_bb }) = cb.term else {
            continue;
        };
        // cond block: [AddrLocal(i) -> r0, Load r0 -> r1, Bin Lt r1, Imm N -> cr]
        let defs = |r| block_def(&cb.instrs, r);
        let Some(Op::Bin { op: BinKind::Lt, a: Operand::Reg(la), b: Operand::Imm(n), .. }) =
            defs(cr)
        else {
            continue;
        };
        let Some(Op::Load { addr: Operand::Reg(ar), .. }) = defs(*la) else { continue };
        let Some(Op::AddrLocal(islot)) = defs(*ar) else { continue };
        // Initial value from the pre-header constants.
        let Some(c0) = slot_init[*islot] else { continue };
        // Body: single block that jumps to step; step: i += 1 then back.
        let body_bb = then_bb;
        let exit_bb = else_bb;
        let Some(Term::Jmp(step_bb)) = f.blocks[body_bb].term else { continue };
        if step_bb == ci || step_bb == body_bb {
            continue;
        }
        let Some(Term::Jmp(back)) = f.blocks[step_bb].term else { continue };
        if back != ci {
            continue;
        }
        // Step block increments the same slot by 1.
        let sdefs = |r| block_def(&f.blocks[step_bb].instrs, r);
        let mut ok = false;
        for i in &f.blocks[step_bb].instrs {
            if let Op::Store { addr: Operand::Reg(a), val: Operand::Reg(v), .. } = &i.op {
                if let (Some(Op::AddrLocal(s)), Some(Op::Bin { op: BinKind::Add, b: Operand::Imm(1), .. })) =
                    (sdefs(*a), sdefs(*v))
                {
                    if s == islot {
                        ok = true;
                    }
                }
            }
        }
        if !ok {
            continue;
        }
        // Body must not write the counter.
        let body_writes_i = f.blocks[body_bb].instrs.iter().any(|i| {
            matches!(&i.op, Op::Store { addr: Operand::Reg(r), .. }
                if matches!(
                    f.blocks[body_bb].instrs.iter().find(|x| x.dst == Some(*r)).map(|x| &x.op),
                    Some(Op::AddrLocal(s)) if s == islot))
        });
        if body_writes_i {
            continue;
        }
        let trip = n - c0;
        if trip <= 0 {
            continue;
        }
        return Some(CountedLoop { cond_bb: ci, body_bb, step_bb, exit_bb, trip });
    }
    None
}

/// Full unrolling of canonical counted loops with trip count ≤ `threshold`.
/// Register names are remapped per copy to preserve single assignment;
/// source locations are preserved (debug metadata survives unrolling).
///
/// Loop-counter initial values come from a slot-indexed table of constant
/// stores, resolved through the same register-indexed `AddrDefs` table
/// memopt uses; both buffers are reused across rounds and functions.
pub fn unroll(m: &mut Module, threshold: i64) -> bool {
    let mut changed = false;
    let mut defs = AddrDefs::default();
    let mut slot_init: Vec<Option<i64>> = Vec::new();
    for f in &mut m.funcs {
        for _ in 0..4 {
            // Collect constants stored to slots in blocks that jump to a
            // cond block (loop pre-headers) — enough to see `i = 0`. Only
            // offset 0 of a slot is ever a loop counter.
            defs.fill(f);
            slot_init.clear();
            slot_init.resize(f.slots.len(), None);
            for b in &f.blocks {
                for i in &b.instrs {
                    if let Op::Store { addr, val: Operand::Imm(v), .. } = &i.op {
                        if let Some((Base::Slot(s), 0)) = defs.resolve(*addr) {
                            // Last write wins; good enough for pre-headers.
                            slot_init[s] = Some(*v);
                        }
                    }
                }
            }
            let Some(cl) = find_counted_loop(f, &slot_init) else { break };
            if cl.trip > threshold {
                break;
            }
            // Build the straight-line replacement: trip × (body; step).
            let mut seq: Vec<Instr> = Vec::new();
            for _ in 0..cl.trip {
                for src_bb in [cl.body_bb, cl.step_bb] {
                    let base = f.next_reg;
                    let mut remap: HashMap<RegId, RegId> = HashMap::new();
                    let copies: Vec<Instr> = f.blocks[src_bb]
                        .instrs
                        .iter()
                        .map(|i| {
                            let mut c = i.clone();
                            if let Some(d) = c.dst {
                                let nd = base + remap.len() as u32;
                                remap.insert(d, nd);
                                c.dst = Some(nd);
                            }
                            c.op.map_operands(|o| match o {
                                Operand::Reg(r) => {
                                    Operand::Reg(remap.get(&r).copied().unwrap_or(r))
                                }
                                imm => imm,
                            });
                            c
                        })
                        .collect();
                    f.next_reg = base + remap.len() as u32;
                    seq.extend(copies);
                }
            }
            // The cond block becomes the unrolled straight-line code.
            f.blocks[cl.cond_bb].instrs = seq;
            f.blocks[cl.cond_bb].term = Some(Term::Jmp(cl.exit_bb));
            // Old body/step become unreachable; simplify_cfg clears them.
            changed = true;
        }
    }
    if changed {
        simplify_cfg(m);
    }
    changed
}

/// Inlines calls to small single-block callees. Inlined instructions keep
/// their callee source locations (like real debug info) and are tagged
/// [`Meta::inlined`].
pub fn inline(m: &mut Module, max_instrs: usize) -> bool {
    let mut changed = false;
    // Snapshot inlinable callees.
    let mut candidates: HashMap<String, Func> = HashMap::new();
    for f in &m.funcs {
        if f.name != "main"
            && f.blocks.len() == 1
            && f.blocks[0].instrs.len() <= max_instrs
            && matches!(f.blocks[0].term, Some(Term::Ret(_)))
        {
            candidates.insert(f.name.clone(), f.clone());
        }
    }
    if candidates.is_empty() {
        return false;
    }
    for f in &mut m.funcs {
        for bi in 0..f.blocks.len() {
            let mut idx = 0;
            while idx < f.blocks[bi].instrs.len() {
                let is_call = matches!(&f.blocks[bi].instrs[idx].op, Op::Call { callee, .. }
                    if candidates.contains_key(callee) && *callee != f.name);
                if !is_call {
                    idx += 1;
                    continue;
                }
                let call_instr = f.blocks[bi].instrs[idx].clone();
                let (callee_name, args) = match &call_instr.op {
                    Op::Call { callee, args } => (callee.clone(), args.clone()),
                    _ => unreachable!(),
                };
                let callee = &candidates[&callee_name];
                // Remap callee slots and registers into the caller.
                let slot_base = f.slots.len();
                for s in &callee.slots {
                    let mut s = s.clone();
                    s.name = format!("{}.{}", callee_name, s.name);
                    f.slots.push(s);
                }
                let reg_base = f.next_reg;
                let mut remap: HashMap<RegId, RegId> = HashMap::new();
                for (pi, pr) in callee.params.iter().enumerate() {
                    // Parameter registers map to argument operands; handled
                    // in the operand rewrite below via a sentinel map.
                    let _ = (pi, pr);
                }
                let mut new_instrs: Vec<Instr> = Vec::new();
                let mut ret_val: Option<Operand> = None;
                let map_operand = |o: Operand,
                                   remap: &HashMap<RegId, RegId>,
                                   params: &[RegId],
                                   args: &[Operand]|
                 -> Operand {
                    match o {
                        Operand::Reg(r) => {
                            if let Some(pi) = params.iter().position(|&p| p == r) {
                                args[pi]
                            } else if let Some(&nr) = remap.get(&r) {
                                Operand::Reg(nr)
                            } else {
                                Operand::Reg(r)
                            }
                        }
                        imm => imm,
                    }
                };
                for ci in &callee.blocks[0].instrs {
                    let mut c = ci.clone();
                    c.meta.inlined = true;
                    if let Some(d) = c.dst {
                        let nd = reg_base + remap.len() as u32;
                        remap.insert(d, nd);
                        c.dst = Some(nd);
                    }
                    let rm = remap.clone();
                    c.op.map_operands(|o| map_operand(o, &rm, &callee.params, &args));
                    // Slot references need remapping too.
                    c.op = match c.op {
                        Op::AddrLocal(s) => Op::AddrLocal(slot_base + s),
                        Op::LifetimeStart(s) => Op::LifetimeStart(slot_base + s),
                        Op::LifetimeEnd(s) => Op::LifetimeEnd(slot_base + s),
                        other => other,
                    };
                    new_instrs.push(c);
                }
                if let Some(Term::Ret(v)) = &callee.blocks[0].term {
                    ret_val = v.map(|o| map_operand(o, &remap, &callee.params, &args));
                }
                f.next_reg = reg_base + remap.len() as u32;
                // Replace the call with the body plus a copy into its dst.
                let mut tail = Vec::new();
                if let (Some(d), Some(v)) = (call_instr.dst, ret_val) {
                    tail.push(Instr {
                        dst: Some(d),
                        op: Op::Cast { a: v, to: IntType::LONG },
                        loc: call_instr.loc,
                        meta: Meta { inlined: true, ..Meta::default() },
                    });
                }
                let inserted = new_instrs.len() + tail.len();
                f.blocks[bi].instrs.splice(idx..=idx, new_instrs.into_iter().chain(tail));
                idx += inserted;
                changed = true;
            }
        }
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::lower;
    use ubfuzz_minic::parse;

    fn module(src: &str) -> Module {
        lower(&parse(src).unwrap()).unwrap()
    }

    fn count_ops(m: &Module, pred: impl Fn(&Op) -> bool) -> usize {
        m.funcs
            .iter()
            .flat_map(|f| &f.blocks)
            .flat_map(|b| &b.instrs)
            .filter(|i| pred(&i.op))
            .count()
    }

    #[test]
    fn fold_bin_machine_semantics() {
        assert_eq!(fold_bin(BinKind::Add, i32::MAX as i64, 1, IntType::INT), Some(i32::MIN as i64));
        assert_eq!(fold_bin(BinKind::Div, 7, 0, IntType::INT), None);
        assert_eq!(fold_bin(BinKind::Shl, 1, 40, IntType::INT), None);
        assert_eq!(fold_bin(BinKind::Shr, -8, 1, IntType::INT), Some(-4));
        assert_eq!(fold_bin(BinKind::Lt, -1, 1, IntType::UINT), Some(0), "unsigned compare");
    }

    #[test]
    fn constfold_and_dce_shrink() {
        let mut m = module(
            "int g; int main(void) { int a = 3; int b = 4; g = a * b + 2; return 0; }",
        );
        memopt(&mut m);
        constfold(&mut m);
        dce(&mut m, true);
        // After forwarding + folding, the multiply is gone.
        assert_eq!(count_ops(&m, |o| matches!(o, Op::Bin { op: BinKind::Mul, .. })), 0);
    }

    #[test]
    fn memopt_forwards_global_stores() {
        // The Fig. 1 enabler: `k = 2; ... *(d + k)` sees k == 2.
        let mut m = module(
            "int k; int g; int main(void) { k = 2; g = k; return g; }",
        );
        memopt(&mut m);
        constfold(&mut m);
        // The load of k was replaced; a store of the constant 2 into g remains.
        let has_const_store = m
            .funcs
            .iter()
            .flat_map(|f| &f.blocks)
            .flat_map(|b| &b.instrs)
            .any(|i| matches!(i.op, Op::Store { val: Operand::Imm(2), .. }));
        assert!(has_const_store);
    }

    #[test]
    fn memopt_forwarding_respects_unsigned_loads() {
        // Regression (found by differential fuzzing of this compiler): when
        // a store is forwarded to a following *unsigned* load, the
        // forwarding cast must zero-extend. It used to be always-signed, so
        // a 64-bit -1 stored into a 4-byte unsigned global read back as -1
        // instead of 2^32 - 1. The end-to-end check lives in `ubfuzz-simvm`
        // (`store_forwarding_zero_extends_unsigned_globals`).
        let mut m = module(
            "unsigned int g;
             int main(void) {
                g = 4294967295U;
                unsigned long c = (unsigned long)g;
                print_value((long)c);
                return 0;
             }",
        );
        memopt(&mut m);
        let unsigned_casts =
            count_ops(&m, |o| matches!(o, Op::Cast { to, .. } if *to == IntType::UINT));
        assert!(unsigned_casts > 0, "forwarded unsigned load keeps zero-extension");
        let signed_int_casts =
            count_ops(&m, |o| matches!(o, Op::Cast { to, .. } if *to == IntType::INT));
        assert_eq!(signed_int_casts, 0, "no sign-extending forward of an unsigned load");
    }

    #[test]
    fn dead_slot_elim_removes_ub_stores() {
        // Fig. 3 shape: a store to a never-read local is deleted wholesale.
        let mut m = module(
            "int main(void) { int d[2]; d[1] = 1; return 0; }",
        );
        let before = count_ops(&m, |o| matches!(o, Op::Store { .. }));
        dead_slot_elim(&mut m);
        let after = count_ops(&m, |o| matches!(o, Op::Store { .. }));
        assert!(after < before, "dead store removed: {before} -> {after}");
    }

    #[test]
    fn unroll_flattens_counted_loops() {
        let mut m = module(
            "int g; int main(void) { for (int i = 0; i < 3; i = i + 1) { g = g + 1; } return g; }",
        );
        let did = unroll(&mut m, 8);
        assert!(did, "canonical loop unrolled");
        let f = m.func("main").unwrap();
        let loops = blocks_in_loops(f);
        assert!(loops.iter().all(|&b| !b), "no loops remain");
    }

    #[test]
    fn unroll_respects_threshold() {
        let mut m = module(
            "int g; int main(void) { for (int i = 0; i < 30; i = i + 1) { g = g + 1; } return g; }",
        );
        assert!(!unroll(&mut m, 8));
    }

    #[test]
    fn inline_single_block_callee() {
        let mut m = module(
            "int add1(int a) { return a + 1; }
             int main(void) { return add1(41); }",
        );
        assert!(inline(&mut m, 30));
        let f = m.func("main").unwrap();
        assert_eq!(count_ops(&m, |o| matches!(o, Op::Call { .. })), 0);
        assert!(f
            .blocks
            .iter()
            .flat_map(|b| &b.instrs)
            .any(|i| i.meta.inlined));
    }

    #[test]
    fn simplify_cfg_folds_constant_branches() {
        let mut m = module(
            "int g; int main(void) { if (1) { g = 1; } else { g = 2; } return g; }",
        );
        // The branch condition is already Imm(1) after frontend folding.
        simplify_cfg(&mut m);
        let f = m.func("main").unwrap();
        let brs = f
            .blocks
            .iter()
            .filter(|b| matches!(b.term, Some(Term::Br { .. })))
            .count();
        assert_eq!(brs, 0);
    }

    #[test]
    fn blocks_in_loops_detects_cycles() {
        let m = module(
            "int g; int main(void) { for (int i = 0; i < 3; i = i + 1) { g += i; } return g; }",
        );
        let f = m.func("main").unwrap();
        let flags = blocks_in_loops(f);
        assert!(flags.iter().any(|&x| x), "loop blocks detected");
        assert!(!flags[0], "entry not in a loop");
    }
}
