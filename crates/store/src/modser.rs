//! Hand-rolled serialization for the compiler IR ([`Module`]).
//!
//! No serde (the workspace is offline and dependency-free by policy): every
//! type is encoded with explicit tag bytes over the [`crate::wire`]
//! primitives. Decoding validates every tag and every length; malformed
//! bytes produce a [`WireError`], never a panic or an unbounded allocation.
//!
//! Module payloads use the **v2 compact encoding**: two interning side
//! tables (strings, [`Loc`]s) in first-use order, followed by a body whose
//! ints are LEB128 varints and whose strings/locations are table indices.
//! Locations and names repeat heavily across the instructions of one module
//! (every instruction carries a `Loc`; sanitizer checks duplicate their
//! operand sites), so interning plus varints roughly halves the on-disk
//! module size — the `prefix.bin` warm-start I/O bottleneck. The encoding
//! stays self-delimiting, so a module can be spliced mid-payload (the
//! checkpoint log does). Fixed-width [`enc_compiler`]/[`enc_opt`] survive
//! unchanged: store entry heads decode keys at fixed positions.
//!
//! Two invariants the store layers rely on:
//!
//! * **Faithful, byte-stable round trip** — `decode(encode(m)) == m` and
//!   `encode(decode(b)) == b` for every module the pipeline can produce
//!   (property-tested in `tests/robustness.rs`); interning order is
//!   first-use order, which the decode walk reproduces exactly. This is
//!   what makes replaying a checkpointed compile bit-identical to
//!   recompiling it.
//! * **Interned defect ids** — `SanMeta::applied_defects` carries `&'static
//!   str` ids; decoding re-interns through [`DefectRegistry::get`], so an id
//!   unknown to this build (e.g. a store written by a different defect
//!   corpus) is corruption, which the store above turns into a cold start.

use std::collections::HashMap;

use crate::wire::{Dec, Enc, WireError};
use ubfuzz_minic::types::{IntType, IntWidth};
use ubfuzz_minic::Loc;
use ubfuzz_simcc::defects::DefectRegistry;
use ubfuzz_simcc::ir::{
    BinKind, Block, Func, GlobalDef, Instr, Meta, Module, MsanPolicy, MsanUse, Op, Operand,
    SanMeta, Sanitizer, Slot, Term, UnKind,
};
use ubfuzz_simcc::target::{BuildInfo, CompilerId, OptLevel, Vendor};

// ---- small leaf types ----

/// Encodes a vendor tag (also used by coverage points and verdicts).
pub fn enc_vendor(e: &mut Enc, v: Vendor) {
    e.u8(match v {
        Vendor::Gcc => 0,
        Vendor::Llvm => 1,
    });
}

/// Decodes a vendor tag.
pub fn dec_vendor(d: &mut Dec<'_>) -> Result<Vendor, WireError> {
    match d.u8()? {
        0 => Ok(Vendor::Gcc),
        1 => Ok(Vendor::Llvm),
        _ => Err(WireError::Corrupt("vendor")),
    }
}

/// Encodes an optimization level tag (also used by the prefix-store keys).
pub fn enc_opt(e: &mut Enc, o: OptLevel) {
    e.u8(match o {
        OptLevel::O0 => 0,
        OptLevel::O1 => 1,
        OptLevel::Os => 2,
        OptLevel::O2 => 3,
        OptLevel::O3 => 4,
    });
}

/// Decodes an optimization level tag.
pub fn dec_opt(d: &mut Dec<'_>) -> Result<OptLevel, WireError> {
    match d.u8()? {
        0 => Ok(OptLevel::O0),
        1 => Ok(OptLevel::O1),
        2 => Ok(OptLevel::Os),
        3 => Ok(OptLevel::O2),
        4 => Ok(OptLevel::O3),
        _ => Err(WireError::Corrupt("opt level")),
    }
}

/// Encodes a compiler identity (vendor + version).
pub fn enc_compiler(e: &mut Enc, c: CompilerId) {
    enc_vendor(e, c.vendor);
    e.u32(c.version);
}

/// Decodes a compiler identity.
pub fn dec_compiler(d: &mut Dec<'_>) -> Result<CompilerId, WireError> {
    Ok(CompilerId { vendor: dec_vendor(d)?, version: d.u32()? })
}

/// Encodes a sanitizer tag (also used by the sanitized-store keys).
pub fn enc_sanitizer(e: &mut Enc, s: Sanitizer) {
    e.u8(match s {
        Sanitizer::Asan => 0,
        Sanitizer::Ubsan => 1,
        Sanitizer::Msan => 2,
    });
}

/// Decodes a sanitizer tag.
pub fn dec_sanitizer(d: &mut Dec<'_>) -> Result<Sanitizer, WireError> {
    match d.u8()? {
        0 => Ok(Sanitizer::Asan),
        1 => Ok(Sanitizer::Ubsan),
        2 => Ok(Sanitizer::Msan),
        _ => Err(WireError::Corrupt("sanitizer")),
    }
}

fn enc_int_type(e: &mut Enc, t: IntType) {
    let w = match t.width {
        IntWidth::W8 => 0,
        IntWidth::W16 => 1,
        IntWidth::W32 => 2,
        IntWidth::W64 => 3,
    };
    e.u8(w | ((t.signed as u8) << 4));
}

fn dec_int_type(d: &mut Dec<'_>) -> Result<IntType, WireError> {
    let b = d.u8()?;
    let width = match b & 0x0F {
        0 => IntWidth::W8,
        1 => IntWidth::W16,
        2 => IntWidth::W32,
        3 => IntWidth::W64,
        _ => return Err(WireError::Corrupt("int width")),
    };
    match b >> 4 {
        0 => Ok(IntType { width, signed: false }),
        1 => Ok(IntType { width, signed: true }),
        _ => Err(WireError::Corrupt("int type")),
    }
}

// ---- the v2 interning context ----

/// Encode-side interning state: strings and [`Loc`]s are assigned indices in
/// first-use order while the body is encoded into a scratch buffer; the
/// tables are then written ahead of the body. First-use order makes the
/// re-encode of a decoded module byte-identical.
#[derive(Debug, Default)]
struct ModEnc {
    strings: Vec<String>,
    string_idx: HashMap<String, u32>,
    locs: Vec<Loc>,
    loc_idx: HashMap<Loc, u32>,
    body: Enc,
}

impl ModEnc {
    fn istr(&mut self, s: &str) {
        let idx = match self.string_idx.get(s) {
            Some(&i) => i,
            None => {
                let i = self.strings.len() as u32;
                self.strings.push(s.to_string());
                self.string_idx.insert(s.to_string(), i);
                i
            }
        };
        self.body.vu32(idx);
    }

    fn iloc(&mut self, loc: Loc) {
        let idx = match self.loc_idx.get(&loc) {
            Some(&i) => i,
            None => {
                let i = self.locs.len() as u32;
                self.locs.push(loc);
                self.loc_idx.insert(loc, i);
                i
            }
        };
        self.body.vu32(idx);
    }
}

/// Decode-side interning state: the side tables, read ahead of the body.
/// Body indices past a table's end are corruption, never a panic.
#[derive(Debug)]
struct ModDec {
    strings: Vec<String>,
    locs: Vec<Loc>,
}

impl ModDec {
    fn read_tables(d: &mut Dec<'_>) -> Result<ModDec, WireError> {
        let n = d.vcount(1)?;
        let mut strings = Vec::with_capacity(n);
        for _ in 0..n {
            strings.push(d.vstr()?);
        }
        let n = d.vcount(2)?;
        let mut locs = Vec::with_capacity(n);
        for _ in 0..n {
            locs.push(Loc { line: d.vu32()?, col: d.vu32()? });
        }
        Ok(ModDec { strings, locs })
    }

    fn istr(&self, d: &mut Dec<'_>) -> Result<&str, WireError> {
        let i = d.vusize()?;
        self.strings.get(i).map(String::as_str).ok_or(WireError::Corrupt("string index"))
    }

    fn iloc(&self, d: &mut Dec<'_>) -> Result<Loc, WireError> {
        let i = d.vusize()?;
        self.locs.get(i).copied().ok_or(WireError::Corrupt("loc index"))
    }
}

fn enc_operand(e: &mut Enc, o: Operand) {
    match o {
        Operand::Reg(r) => {
            e.u8(0);
            e.vu32(r);
        }
        Operand::Imm(v) => {
            e.u8(1);
            e.vi64(v);
        }
    }
}

fn dec_operand(d: &mut Dec<'_>) -> Result<Operand, WireError> {
    match d.u8()? {
        0 => Ok(Operand::Reg(d.vu32()?)),
        1 => Ok(Operand::Imm(d.vi64()?)),
        _ => Err(WireError::Corrupt("operand")),
    }
}

fn enc_bin_kind(e: &mut Enc, k: BinKind) {
    e.u8(match k {
        BinKind::Add => 0,
        BinKind::Sub => 1,
        BinKind::Mul => 2,
        BinKind::Div => 3,
        BinKind::Rem => 4,
        BinKind::Shl => 5,
        BinKind::Shr => 6,
        BinKind::And => 7,
        BinKind::Or => 8,
        BinKind::Xor => 9,
        BinKind::Lt => 10,
        BinKind::Le => 11,
        BinKind::Gt => 12,
        BinKind::Ge => 13,
        BinKind::Eq => 14,
        BinKind::Ne => 15,
    });
}

fn dec_bin_kind(d: &mut Dec<'_>) -> Result<BinKind, WireError> {
    Ok(match d.u8()? {
        0 => BinKind::Add,
        1 => BinKind::Sub,
        2 => BinKind::Mul,
        3 => BinKind::Div,
        4 => BinKind::Rem,
        5 => BinKind::Shl,
        6 => BinKind::Shr,
        7 => BinKind::And,
        8 => BinKind::Or,
        9 => BinKind::Xor,
        10 => BinKind::Lt,
        11 => BinKind::Le,
        12 => BinKind::Gt,
        13 => BinKind::Ge,
        14 => BinKind::Eq,
        15 => BinKind::Ne,
        _ => return Err(WireError::Corrupt("bin kind")),
    })
}

fn enc_un_kind(e: &mut Enc, k: UnKind) {
    e.u8(match k {
        UnKind::Neg => 0,
        UnKind::Not => 1,
        UnKind::LogicalNot => 2,
    });
}

fn dec_un_kind(d: &mut Dec<'_>) -> Result<UnKind, WireError> {
    match d.u8()? {
        0 => Ok(UnKind::Neg),
        1 => Ok(UnKind::Not),
        2 => Ok(UnKind::LogicalNot),
        _ => Err(WireError::Corrupt("un kind")),
    }
}

fn enc_msan_use(e: &mut Enc, u: MsanUse) {
    e.u8(match u {
        MsanUse::Branch => 0,
        MsanUse::Divisor => 1,
        MsanUse::Output => 2,
    });
}

fn dec_msan_use(d: &mut Dec<'_>) -> Result<MsanUse, WireError> {
    match d.u8()? {
        0 => Ok(MsanUse::Branch),
        1 => Ok(MsanUse::Divisor),
        2 => Ok(MsanUse::Output),
        _ => Err(WireError::Corrupt("msan use")),
    }
}

fn enc_meta(e: &mut Enc, m: Meta) {
    let bits = (m.sanitize as u8)
        | ((m.bool_widened as u8) << 1)
        | ((m.rmw as u8) << 2)
        | ((m.char_shift_amount as u8) << 3)
        | ((m.inlined as u8) << 4);
    e.u8(bits);
}

fn dec_meta(d: &mut Dec<'_>) -> Result<Meta, WireError> {
    let bits = d.u8()?;
    if bits & !0x1F != 0 {
        return Err(WireError::Corrupt("meta bits"));
    }
    Ok(Meta {
        sanitize: bits & 1 != 0,
        bool_widened: bits & 2 != 0,
        rmw: bits & 4 != 0,
        char_shift_amount: bits & 8 != 0,
        inlined: bits & 16 != 0,
    })
}

// ---- instructions ----

fn enc_op(me: &mut ModEnc, op: &Op) {
    match op {
        Op::Const(v) => {
            me.body.u8(0);
            me.body.vi64(*v);
        }
        Op::Bin { op, a, b, ty } => {
            me.body.u8(1);
            enc_bin_kind(&mut me.body, *op);
            enc_operand(&mut me.body, *a);
            enc_operand(&mut me.body, *b);
            enc_int_type(&mut me.body, *ty);
        }
        Op::Un { op, a, ty } => {
            me.body.u8(2);
            enc_un_kind(&mut me.body, *op);
            enc_operand(&mut me.body, *a);
            enc_int_type(&mut me.body, *ty);
        }
        Op::Cast { a, to } => {
            me.body.u8(3);
            enc_operand(&mut me.body, *a);
            enc_int_type(&mut me.body, *to);
        }
        Op::AddrLocal(s) => {
            me.body.u8(4);
            me.body.vusize(*s);
        }
        Op::AddrGlobal(g) => {
            me.body.u8(5);
            me.body.vusize(*g);
        }
        Op::PtrAdd { base, offset, scale } => {
            me.body.u8(6);
            enc_operand(&mut me.body, *base);
            enc_operand(&mut me.body, *offset);
            me.body.vi64(*scale);
        }
        Op::Load { addr, size, signed } => {
            me.body.u8(7);
            enc_operand(&mut me.body, *addr);
            me.body.u8(*size);
            me.body.bool(*signed);
        }
        Op::Store { addr, val, size } => {
            me.body.u8(8);
            enc_operand(&mut me.body, *addr);
            enc_operand(&mut me.body, *val);
            me.body.u8(*size);
        }
        Op::MemCopy { dst, src, len } => {
            me.body.u8(9);
            enc_operand(&mut me.body, *dst);
            enc_operand(&mut me.body, *src);
            me.body.vu32(*len);
        }
        Op::Call { callee, args } => {
            me.body.u8(10);
            me.istr(callee);
            me.body.vusize(args.len());
            for a in args {
                enc_operand(&mut me.body, *a);
            }
        }
        Op::Malloc { size } => {
            me.body.u8(11);
            enc_operand(&mut me.body, *size);
        }
        Op::Free { addr } => {
            me.body.u8(12);
            enc_operand(&mut me.body, *addr);
        }
        Op::Print { val } => {
            me.body.u8(13);
            enc_operand(&mut me.body, *val);
        }
        Op::LifetimeStart(s) => {
            me.body.u8(14);
            me.body.vusize(*s);
        }
        Op::LifetimeEnd(s) => {
            me.body.u8(15);
            me.body.vusize(*s);
        }
        Op::AsanCheck { addr, size, write } => {
            me.body.u8(16);
            enc_operand(&mut me.body, *addr);
            me.body.u8(*size);
            me.body.bool(*write);
        }
        Op::AsanPoisonScope(s) => {
            me.body.u8(17);
            me.body.vusize(*s);
        }
        Op::AsanUnpoisonScope(s) => {
            me.body.u8(18);
            me.body.vusize(*s);
        }
        Op::UbsanCheckArith { op, a, b, ty } => {
            me.body.u8(19);
            enc_bin_kind(&mut me.body, *op);
            enc_operand(&mut me.body, *a);
            enc_operand(&mut me.body, *b);
            enc_int_type(&mut me.body, *ty);
        }
        Op::UbsanCheckNeg { a, ty } => {
            me.body.u8(20);
            enc_operand(&mut me.body, *a);
            enc_int_type(&mut me.body, *ty);
        }
        Op::UbsanCheckShift { amount, bits } => {
            me.body.u8(21);
            enc_operand(&mut me.body, *amount);
            me.body.u8(*bits);
        }
        Op::UbsanCheckDiv { a, divisor, ty } => {
            me.body.u8(22);
            enc_operand(&mut me.body, *a);
            enc_operand(&mut me.body, *divisor);
            enc_int_type(&mut me.body, *ty);
        }
        Op::UbsanCheckNull { addr } => {
            me.body.u8(23);
            enc_operand(&mut me.body, *addr);
        }
        Op::UbsanCheckBound { idx, bound } => {
            me.body.u8(24);
            enc_operand(&mut me.body, *idx);
            me.body.vu64(*bound);
        }
        Op::MsanCheck { val, what } => {
            me.body.u8(25);
            enc_operand(&mut me.body, *val);
            enc_msan_use(&mut me.body, *what);
        }
    }
}

fn dec_op(md: &ModDec, d: &mut Dec<'_>) -> Result<Op, WireError> {
    Ok(match d.u8()? {
        0 => Op::Const(d.vi64()?),
        1 => Op::Bin {
            op: dec_bin_kind(d)?,
            a: dec_operand(d)?,
            b: dec_operand(d)?,
            ty: dec_int_type(d)?,
        },
        2 => Op::Un { op: dec_un_kind(d)?, a: dec_operand(d)?, ty: dec_int_type(d)? },
        3 => Op::Cast { a: dec_operand(d)?, to: dec_int_type(d)? },
        4 => Op::AddrLocal(d.vusize()?),
        5 => Op::AddrGlobal(d.vusize()?),
        6 => Op::PtrAdd { base: dec_operand(d)?, offset: dec_operand(d)?, scale: d.vi64()? },
        7 => Op::Load { addr: dec_operand(d)?, size: d.u8()?, signed: d.bool()? },
        8 => Op::Store { addr: dec_operand(d)?, val: dec_operand(d)?, size: d.u8()? },
        9 => Op::MemCopy { dst: dec_operand(d)?, src: dec_operand(d)?, len: d.vu32()? },
        10 => {
            let callee = md.istr(d)?.to_string();
            let n = d.vcount(2)?;
            let mut args = Vec::with_capacity(n);
            for _ in 0..n {
                args.push(dec_operand(d)?);
            }
            Op::Call { callee, args }
        }
        11 => Op::Malloc { size: dec_operand(d)? },
        12 => Op::Free { addr: dec_operand(d)? },
        13 => Op::Print { val: dec_operand(d)? },
        14 => Op::LifetimeStart(d.vusize()?),
        15 => Op::LifetimeEnd(d.vusize()?),
        16 => Op::AsanCheck { addr: dec_operand(d)?, size: d.u8()?, write: d.bool()? },
        17 => Op::AsanPoisonScope(d.vusize()?),
        18 => Op::AsanUnpoisonScope(d.vusize()?),
        19 => Op::UbsanCheckArith {
            op: dec_bin_kind(d)?,
            a: dec_operand(d)?,
            b: dec_operand(d)?,
            ty: dec_int_type(d)?,
        },
        20 => Op::UbsanCheckNeg { a: dec_operand(d)?, ty: dec_int_type(d)? },
        21 => Op::UbsanCheckShift { amount: dec_operand(d)?, bits: d.u8()? },
        22 => Op::UbsanCheckDiv {
            a: dec_operand(d)?,
            divisor: dec_operand(d)?,
            ty: dec_int_type(d)?,
        },
        23 => Op::UbsanCheckNull { addr: dec_operand(d)? },
        24 => Op::UbsanCheckBound { idx: dec_operand(d)?, bound: d.vu64()? },
        25 => Op::MsanCheck { val: dec_operand(d)?, what: dec_msan_use(d)? },
        _ => return Err(WireError::Corrupt("op tag")),
    })
}

fn enc_instr(me: &mut ModEnc, i: &Instr) {
    match i.dst {
        Some(r) => {
            me.body.u8(1);
            me.body.vu32(r);
        }
        None => me.body.u8(0),
    }
    enc_op(me, &i.op);
    me.iloc(i.loc);
    enc_meta(&mut me.body, i.meta);
}

fn dec_instr(md: &ModDec, d: &mut Dec<'_>) -> Result<Instr, WireError> {
    let dst = match d.u8()? {
        0 => None,
        1 => Some(d.vu32()?),
        _ => return Err(WireError::Corrupt("instr dst")),
    };
    Ok(Instr { dst, op: dec_op(md, d)?, loc: md.iloc(d)?, meta: dec_meta(d)? })
}

fn enc_term(e: &mut Enc, t: &Term) {
    match t {
        Term::Jmp(b) => {
            e.u8(0);
            e.vusize(*b);
        }
        Term::Br { cond, then_bb, else_bb } => {
            e.u8(1);
            enc_operand(e, *cond);
            e.vusize(*then_bb);
            e.vusize(*else_bb);
        }
        Term::Ret(None) => e.u8(2),
        Term::Ret(Some(v)) => {
            e.u8(3);
            enc_operand(e, *v);
        }
    }
}

fn dec_term(d: &mut Dec<'_>) -> Result<Term, WireError> {
    Ok(match d.u8()? {
        0 => Term::Jmp(d.vusize()?),
        1 => Term::Br { cond: dec_operand(d)?, then_bb: d.vusize()?, else_bb: d.vusize()? },
        2 => Term::Ret(None),
        3 => Term::Ret(Some(dec_operand(d)?)),
        _ => return Err(WireError::Corrupt("terminator")),
    })
}

fn enc_block(me: &mut ModEnc, b: &Block) {
    me.body.vusize(b.instrs.len());
    for i in &b.instrs {
        enc_instr(me, i);
    }
    match &b.term {
        Some(t) => {
            me.body.u8(1);
            enc_term(&mut me.body, t);
        }
        // `None` is transient during construction, but a cached prefix is a
        // finished stage output, so encode it faithfully anyway.
        None => me.body.u8(0),
    }
}

fn dec_block(md: &ModDec, d: &mut Dec<'_>) -> Result<Block, WireError> {
    let n = d.vcount(4)?;
    let mut instrs = Vec::with_capacity(n);
    for _ in 0..n {
        instrs.push(dec_instr(md, d)?);
    }
    let term = match d.u8()? {
        0 => None,
        1 => Some(dec_term(d)?),
        _ => return Err(WireError::Corrupt("block term")),
    };
    Ok(Block { instrs, term })
}

fn enc_slot(me: &mut ModEnc, s: &Slot) {
    me.istr(&s.name);
    me.body.vu32(s.size);
    me.body.vu32(s.scope_depth);
    me.body.bool(s.address_taken);
}

fn dec_slot(md: &ModDec, d: &mut Dec<'_>) -> Result<Slot, WireError> {
    Ok(Slot {
        name: md.istr(d)?.to_string(),
        size: d.vu32()?,
        scope_depth: d.vu32()?,
        address_taken: d.bool()?,
    })
}

fn enc_func(me: &mut ModEnc, f: &Func) {
    me.istr(&f.name);
    me.body.vusize(f.params.len());
    for p in &f.params {
        me.body.vu32(*p);
    }
    me.body.vusize(f.slots.len());
    for s in &f.slots {
        enc_slot(me, s);
    }
    me.body.vusize(f.blocks.len());
    for b in &f.blocks {
        enc_block(me, b);
    }
    me.body.vu32(f.next_reg);
}

fn dec_func(md: &ModDec, d: &mut Dec<'_>) -> Result<Func, WireError> {
    let name = md.istr(d)?.to_string();
    let n = d.vcount(1)?;
    let mut params = Vec::with_capacity(n);
    for _ in 0..n {
        params.push(d.vu32()?);
    }
    let n = d.vcount(4)?;
    let mut slots = Vec::with_capacity(n);
    for _ in 0..n {
        slots.push(dec_slot(md, d)?);
    }
    let n = d.vcount(2)?;
    let mut blocks = Vec::with_capacity(n);
    for _ in 0..n {
        blocks.push(dec_block(md, d)?);
    }
    Ok(Func { name, params, slots, blocks, next_reg: d.vu32()? })
}

fn enc_global(me: &mut ModEnc, g: &GlobalDef) {
    me.istr(&g.name);
    me.body.vu32(g.size);
    me.body.vbytes(&g.init);
    me.body.vusize(g.relocs.len());
    for (off, gid, addend) in &g.relocs {
        me.body.vu32(*off);
        me.body.vusize(*gid);
        me.body.vi64(*addend);
    }
    me.body.vu32(g.elem_size);
    me.body.vu32(g.elem_count);
}

fn dec_global(md: &ModDec, d: &mut Dec<'_>) -> Result<GlobalDef, WireError> {
    let name = md.istr(d)?.to_string();
    let size = d.vu32()?;
    let init = d.vblob()?.to_vec();
    let n = d.vcount(3)?;
    let mut relocs = Vec::with_capacity(n);
    for _ in 0..n {
        relocs.push((d.vu32()?, d.vusize()?, d.vi64()?));
    }
    Ok(GlobalDef { name, size, init, relocs, elem_size: d.vu32()?, elem_count: d.vu32()? })
}

fn enc_san_meta(me: &mut ModEnc, s: &SanMeta) {
    match s.sanitizer {
        Some(san) => {
            me.body.u8(1);
            enc_sanitizer(&mut me.body, san);
        }
        None => me.body.u8(0),
    }
    me.body.vusize(s.global_redzone_gaps.len());
    for (gid, bytes) in &s.global_redzone_gaps {
        me.body.vusize(*gid);
        me.body.vu32(*bytes);
    }
    me.body.bool(s.msan_policy.sub_const_fully_defined);
    me.body.vusize(s.applied_defects.len());
    for (id, loc) in &s.applied_defects {
        me.istr(id);
        me.iloc(*loc);
    }
    me.body.vusize(s.legit_transforms.len());
    for loc in &s.legit_transforms {
        me.iloc(*loc);
    }
    me.body.vusize(s.skipped_sites.len());
    for loc in &s.skipped_sites {
        me.iloc(*loc);
    }
}

fn dec_san_meta(md: &ModDec, d: &mut Dec<'_>) -> Result<SanMeta, WireError> {
    let sanitizer = match d.u8()? {
        0 => None,
        1 => Some(dec_sanitizer(d)?),
        _ => return Err(WireError::Corrupt("san meta")),
    };
    let n = d.vcount(2)?;
    let mut global_redzone_gaps = Vec::with_capacity(n);
    for _ in 0..n {
        global_redzone_gaps.push((d.vusize()?, d.vu32()?));
    }
    let msan_policy = MsanPolicy { sub_const_fully_defined: d.bool()? };
    let n = d.vcount(2)?;
    let mut applied_defects = Vec::with_capacity(n);
    for _ in 0..n {
        let id = md.istr(d)?;
        // Re-intern through the registry: the in-memory type is `&'static
        // str`, and an id this build does not know cannot be represented —
        // the store above degrades to recompiling.
        let interned = DefectRegistry::get(id).ok_or(WireError::Corrupt("unknown defect id"))?.id;
        let loc = md.iloc(d)?;
        applied_defects.push((interned, loc));
    }
    let n = d.vcount(1)?;
    let mut legit_transforms = Vec::with_capacity(n);
    for _ in 0..n {
        legit_transforms.push(md.iloc(d)?);
    }
    let n = d.vcount(1)?;
    let mut skipped_sites = Vec::with_capacity(n);
    for _ in 0..n {
        skipped_sites.push(md.iloc(d)?);
    }
    Ok(SanMeta {
        sanitizer,
        global_redzone_gaps,
        msan_policy,
        applied_defects,
        legit_transforms,
        skipped_sites,
    })
}

fn enc_module_body(me: &mut ModEnc, m: &Module) {
    me.body.vusize(m.globals.len());
    for g in &m.globals {
        enc_global(me, g);
    }
    me.body.vusize(m.funcs.len());
    for f in &m.funcs {
        enc_func(me, f);
    }
    enc_san_meta(me, &m.san);
    match &m.build {
        Some(b) => {
            me.body.u8(1);
            enc_compiler(&mut me.body, b.compiler);
            enc_opt(&mut me.body, b.opt);
        }
        None => me.body.u8(0),
    }
}

/// Encodes a [`Module`] into `e` (v2: interning tables, then varint body).
pub fn enc_module(e: &mut Enc, m: &Module) {
    let mut me = ModEnc::default();
    enc_module_body(&mut me, m);
    e.vusize(me.strings.len());
    for s in &me.strings {
        e.vstr(s);
    }
    e.vusize(me.locs.len());
    for loc in &me.locs {
        e.vu32(loc.line);
        e.vu32(loc.col);
    }
    e.raw(&me.body.into_bytes());
}

/// Decodes a [`Module`] from `d`.
pub fn dec_module(d: &mut Dec<'_>) -> Result<Module, WireError> {
    let md = ModDec::read_tables(d)?;
    let n = d.vcount(4)?;
    let mut globals = Vec::with_capacity(n);
    for _ in 0..n {
        globals.push(dec_global(&md, d)?);
    }
    let n = d.vcount(4)?;
    let mut funcs = Vec::with_capacity(n);
    for _ in 0..n {
        funcs.push(dec_func(&md, d)?);
    }
    let san = dec_san_meta(&md, d)?;
    let build = match d.u8()? {
        0 => None,
        1 => Some(BuildInfo { compiler: dec_compiler(d)?, opt: dec_opt(d)? }),
        _ => return Err(WireError::Corrupt("build info")),
    };
    Ok(Module { globals, funcs, san, build })
}

/// Serializes a module to standalone bytes.
pub fn module_to_bytes(m: &Module) -> Vec<u8> {
    let mut e = Enc::new();
    enc_module(&mut e, m);
    e.into_bytes()
}

/// Deserializes a module from standalone bytes, requiring full consumption.
pub fn module_from_bytes(bytes: &[u8]) -> Result<Module, WireError> {
    let mut d = Dec::new(bytes);
    let m = dec_module(&mut d)?;
    d.finish()?;
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ubfuzz_minic::parse;
    use ubfuzz_simcc::pipeline::{compile, CompileConfig};

    fn modules() -> Vec<Module> {
        let reg = DefectRegistry::full();
        let p = parse(
            "int g[4]; int main(void) { int i = 1; g[i] = 3; int *p = g; return *p + g[0] / (i + 1); }",
        )
        .unwrap();
        let mut out = Vec::new();
        for vendor in Vendor::ALL {
            for opt in [OptLevel::O0, OptLevel::O2] {
                for sanitizer in [None, Some(Sanitizer::Asan), Some(Sanitizer::Ubsan)] {
                    let cfg = CompileConfig::dev(vendor, opt, sanitizer, &reg);
                    if let Ok(m) = compile(&p, &cfg) {
                        out.push(m);
                    }
                }
            }
        }
        assert!(!out.is_empty());
        out
    }

    #[test]
    fn pipeline_modules_round_trip() {
        for m in modules() {
            let bytes = module_to_bytes(&m);
            let back = module_from_bytes(&bytes).unwrap();
            assert_eq!(m, back);
            // Re-encoding is byte-stable (the framing checksum depends on it).
            assert_eq!(bytes, module_to_bytes(&back));
        }
    }

    #[test]
    fn interned_encoding_is_compact() {
        // The v2 interned/varint encoding must beat a naive lower bound: the
        // per-instruction `Loc` alone was 8 fixed bytes in v1, so a module
        // with I instructions must now be well under 8·I bytes of location
        // data. Assert the aggregate win instead: each module's encoding is
        // smaller than instrs·8 + strings·naive — in practice v2 halves v1.
        for m in modules() {
            let instrs: usize =
                m.funcs.iter().flat_map(|f| &f.blocks).map(|b| b.instrs.len()).sum();
            let bytes = module_to_bytes(&m);
            // v1 spent ≥ 8 bytes/instr on Loc + ≥ 2 on dst/meta + ≥ 1 op tag.
            assert!(
                bytes.len() < instrs * 11 + 256,
                "v2 must undercut the v1 fixed-width floor: {} bytes for {} instrs",
                bytes.len(),
                instrs
            );
        }
    }

    #[test]
    fn unknown_defect_id_is_corruption_not_a_panic() {
        let mut m = modules().remove(0);
        m.san.applied_defects = vec![("gcc-asan-d01", Loc::new(1, 0))];
        let mut bytes = module_to_bytes(&m);
        // Flip a byte inside the defect-id string (it lives in the interned
        // string table, still a contiguous UTF-8 run in the payload).
        let pos = bytes.windows(12).position(|w| w == b"gcc-asan-d01").expect("id present");
        bytes[pos] = b'x';
        assert!(matches!(module_from_bytes(&bytes), Err(WireError::Corrupt(_))));
    }

    #[test]
    fn out_of_range_table_index_is_corruption() {
        // A body referencing a string/loc index past its own table must be
        // corruption, never a panic. Encode a module with an empty program
        // and splice a huge index where the first global/func name goes.
        let m = modules().remove(0);
        let bytes = module_to_bytes(&m);
        // Corrupting the body's first table reference is fiddly to do
        // surgically; instead decode-check a hand-built payload: one empty
        // string table, zero locs, then a body asking for global 0 with
        // name index 7.
        let mut e = Enc::new();
        e.vusize(0); // string table: empty
        e.vusize(0); // loc table: empty
        e.vusize(1); // one global
        e.vu32(7); // name index 7 — out of range
        e.raw(&[0; 16]); // padding so the count sanity-bound passes
        let crafted = e.into_bytes();
        assert_eq!(module_from_bytes(&crafted), Err(WireError::Corrupt("string index")));
        // And sanity: the real module still decodes.
        assert!(module_from_bytes(&bytes).is_ok());
    }

    #[test]
    fn truncation_anywhere_is_an_error_never_a_panic() {
        let m = modules().remove(0);
        let bytes = module_to_bytes(&m);
        for cut in 0..bytes.len() {
            assert!(module_from_bytes(&bytes[..cut]).is_err(), "cut at {cut} must fail");
        }
    }
}
