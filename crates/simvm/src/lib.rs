//! `ubfuzz-simvm` — the execution substrate: a flat-memory virtual machine
//! for compiled [`ubfuzz_simcc`] modules, including the sanitizer *runtime*
//! (shadow poison map, initialization shadow, report formatting) and an
//! instruction tracer.
//!
//! Three properties make it a faithful stand-in for "run the binary on
//! Linux and watch it with LLDB" (paper §2.2, §4.1):
//!
//! * **Machine semantics, not C semantics.** Signed overflow wraps, shift
//!   amounts are masked like x86, division by zero raises a SIGFPE-like
//!   crash, and out-of-bounds accesses that stay within an allocation's
//!   32-byte gap read deterministic `0xBE` garbage. A missed sanitizer check
//!   therefore does what it does on real hardware: usually nothing visible.
//! * **Sanitizer runtime.** When a module was instrumented, allocations get
//!   poisoned red zones, `free` poisons the block, scope exits poison stack
//!   slots, and check instructions consult the poison/shadow state to
//!   produce a [`SanReport`] — the "crash" of the paper's test oracle.
//! * **Tracing.** [`run_traced`] records the `(line, offset)` of every
//!   executed instruction, which is exactly what `GetExecutedSites` in
//!   Algorithm 2 extracts with a debugger.

use std::fmt;
use ubfuzz_minic::Loc;
use ubfuzz_simcc::ir::*;
use ubfuzz_simcc::passes::{fold_bin, fold_un};
use ubfuzz_simcc::target::Vendor;
use ubfuzz_simcc::{cov, Sanitizer};

/// The coverage point of a runtime report entry in `rt_report.rs`.
macro_rules! report_point {
    ($name:literal) => {
        cov::point!("rt_report.rs", $name)
    };
}

/// What a sanitizer report says happened (the "ERROR:" line of real ASan/
/// UBSan output).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReportKind {
    /// `stack-buffer-overflow`
    StackBufOverflow,
    /// `global-buffer-overflow`
    GlobalBufOverflow,
    /// `heap-buffer-overflow`
    HeapBufOverflow,
    /// `heap-use-after-free`
    UseAfterFree,
    /// `stack-use-after-scope`
    UseAfterScope,
    /// `signed integer overflow`
    SignedIntOverflow,
    /// `negation ... cannot be represented`
    NegOverflow,
    /// `shift exponent out of range`
    ShiftOob,
    /// `division by zero`
    DivByZero,
    /// `null pointer dereference`
    NullDeref,
    /// `index out of bounds`
    ArrayBound,
    /// `use-of-uninitialized-value`
    UninitUse,
    /// `attempting double-free / invalid free`
    BadFree,
}

impl ReportKind {
    /// The report string of the real tools.
    pub fn message(self) -> &'static str {
        match self {
            ReportKind::StackBufOverflow => "stack-buffer-overflow",
            ReportKind::GlobalBufOverflow => "global-buffer-overflow",
            ReportKind::HeapBufOverflow => "heap-buffer-overflow",
            ReportKind::UseAfterFree => "heap-use-after-free",
            ReportKind::UseAfterScope => "stack-use-after-scope",
            ReportKind::SignedIntOverflow => "signed integer overflow",
            ReportKind::NegOverflow => "negation overflow",
            ReportKind::ShiftOob => "shift exponent out of range",
            ReportKind::DivByZero => "division by zero",
            ReportKind::NullDeref => "null pointer dereference",
            ReportKind::ArrayBound => "index out of bounds",
            ReportKind::UninitUse => "use-of-uninitialized-value",
            ReportKind::BadFree => "invalid free",
        }
    }

    /// True when this report is a plausible detection of the given
    /// ground-truth UB kind (sanitizers report coarser categories than the
    /// C-standard taxonomy; ASan, e.g., does not distinguish `a[x]` from
    /// `*(p+x)`).
    pub fn matches_ub(self, kind: ubfuzz_minic::UbKind) -> bool {
        use ubfuzz_minic::UbKind::*;
        match self {
            ReportKind::StackBufOverflow
            | ReportKind::GlobalBufOverflow
            | ReportKind::HeapBufOverflow
            | ReportKind::ArrayBound => matches!(kind, BufOverflowArray | BufOverflowPtr),
            ReportKind::UseAfterFree | ReportKind::BadFree => {
                matches!(kind, UseAfterFree | InvalidFree)
            }
            ReportKind::UseAfterScope => kind == UseAfterScope,
            ReportKind::SignedIntOverflow | ReportKind::NegOverflow => kind == IntOverflow,
            ReportKind::ShiftOob => kind == ShiftOverflow,
            ReportKind::DivByZero => kind == DivByZero,
            ReportKind::NullDeref => kind == NullDeref,
            ReportKind::UninitUse => kind == UninitUse,
        }
    }
}

/// A sanitizer report — the analogue of the crash message printed by real
/// sanitizers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SanReport {
    /// Which sanitizer reported.
    pub sanitizer: Sanitizer,
    /// What it reported.
    pub kind: ReportKind,
    /// The source location on the report (may be wrong — two of the paper's
    /// bugs are wrong-report bugs).
    pub loc: Loc,
}

impl fmt::Display for SanReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "==ERROR: {}: {} at {}", self.sanitizer, self.kind.message(), self.loc)
    }
}

/// Hardware-level crash kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashKind {
    /// Segmentation fault (unmapped access).
    Segv,
    /// Arithmetic trap (division by zero / INT_MIN ÷ -1).
    Fpe,
}

/// Result of executing a module.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunResult {
    /// Normal exit.
    Exit {
        /// `main`'s return value.
        status: i64,
        /// `print_value` output, in order.
        output: Vec<i64>,
    },
    /// A sanitizer check fired.
    Report(SanReport),
    /// A raw crash without a sanitizer report.
    Crash {
        /// Signal kind.
        kind: CrashKind,
        /// Location of the faulting instruction.
        loc: Loc,
    },
    /// Step budget exhausted.
    Timeout,
    /// Malformed module (never happens for pipeline output).
    Error(String),
}

impl RunResult {
    /// True when a sanitizer report was produced (the paper's "crash").
    pub fn is_report(&self) -> bool {
        matches!(self, RunResult::Report(_))
    }

    /// True on a clean exit (the paper's "exits normally").
    pub fn is_normal_exit(&self) -> bool {
        matches!(self, RunResult::Exit { .. })
    }

    /// The report, if any.
    pub fn report(&self) -> Option<&SanReport> {
        match self {
            RunResult::Report(r) => Some(r),
            _ => None,
        }
    }
}

/// Executed-site trace (Algorithm 2's `GetExecutedSites`).
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Every distinct `(line, offset)` executed.
    pub executed: std::collections::HashSet<Loc>,
    /// The last executed site — the crash site when the run crashed.
    pub last: Loc,
}

impl Trace {
    /// Whether `site` was executed.
    pub fn contains(&self, site: Loc) -> bool {
        self.executed.contains(&site)
    }
}

/// Execution limits.
#[derive(Debug, Clone)]
pub struct VmConfig {
    /// Maximum executed instructions.
    pub step_limit: u64,
    /// Record executed sites.
    pub trace: bool,
}

impl Default for VmConfig {
    fn default() -> VmConfig {
        VmConfig { step_limit: 4_000_000, trace: false }
    }
}

/// Runs a module without tracing.
pub fn run_module(m: &Module) -> RunResult {
    run_with_config(m, &VmConfig::default()).0
}

/// Runs a module and records executed `(line, offset)` sites.
pub fn run_traced(m: &Module) -> (RunResult, Trace) {
    run_with_config(m, &VmConfig { trace: true, ..VmConfig::default() })
}

/// Runs a module under explicit limits.
pub fn run_with_config(m: &Module, cfg: &VmConfig) -> (RunResult, Trace) {
    let mut vm = Vm::new(m, cfg);
    let result = vm.boot();
    (result, std::mem::take(&mut vm.trace))
}

const NULL_GUARD: usize = 4096;
const GAP: usize = 32;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PoisonTag {
    Clean,
    StackRz,
    GlobalRz,
    HeapRz,
    Freed,
    Scope,
}

struct HeapBlock {
    start: usize,
    size: usize,
    freed: bool,
}

struct Frame {
    regs: Vec<i64>,
    taint: Vec<bool>,
    slot_addr: Vec<usize>,
}

enum Stop {
    Report(SanReport),
    Crash(CrashKind, Loc),
    Timeout,
    Error(String),
}

struct Vm<'m> {
    m: &'m Module,
    cfg: &'m VmConfig,
    mem: Vec<u8>,
    poison: Vec<PoisonTag>,
    /// MSan initialization shadow: true = defined.
    shadow: Vec<bool>,
    global_addr: Vec<usize>,
    heap: Vec<HeapBlock>,
    output: Vec<i64>,
    steps: u64,
    depth: usize,
    trace: Trace,
    vendor: Vendor,
    asan: bool,
    msan: bool,
}

impl<'m> Vm<'m> {
    fn new(m: &'m Module, cfg: &'m VmConfig) -> Vm<'m> {
        let vendor = m.build.map_or(Vendor::Gcc, |b| b.compiler.vendor);
        Vm {
            m,
            cfg,
            mem: vec![0xBE; NULL_GUARD],
            poison: vec![PoisonTag::Clean; NULL_GUARD],
            shadow: vec![false; NULL_GUARD],
            global_addr: Vec::new(),
            heap: Vec::new(),
            output: Vec::new(),
            steps: 0,
            depth: 0,
            trace: Trace::default(),
            vendor,
            asan: m.san.sanitizer == Some(Sanitizer::Asan),
            msan: m.san.sanitizer == Some(Sanitizer::Msan),
        }
    }

    fn alloc_region(&mut self, size: usize, defined: bool) -> usize {
        let start = self.mem.len();
        self.mem.resize(start + size + GAP, 0xBE);
        self.poison.resize(self.mem.len(), PoisonTag::Clean);
        self.shadow.resize(start + size, defined);
        self.shadow.resize(self.mem.len(), true); // gaps read as "defined" garbage
        start
    }

    fn poison_range(&mut self, start: usize, len: usize, tag: PoisonTag) {
        let end = (start + len).min(self.poison.len());
        for p in &mut self.poison[start.min(end)..end] {
            *p = tag;
        }
    }

    fn boot(&mut self) -> RunResult {
        // Lay out globals.
        for g in &self.m.globals {
            let a = self.alloc_region(g.size as usize, true);
            self.global_addr.push(a);
            let init_len = g.init.len().min(g.size as usize);
            self.mem[a..a + init_len].copy_from_slice(&g.init[..init_len]);
            for b in &mut self.mem[a + init_len..a + g.size as usize] {
                *b = 0;
            }
        }
        // Apply relocations now that all bases are known.
        for (gi, g) in self.m.globals.iter().enumerate() {
            for (off, target, addend) in &g.relocs {
                let v = (self.global_addr[*target] as i64 + addend) as u64;
                let a = self.global_addr[gi] + *off as usize;
                self.mem[a..a + 8].copy_from_slice(&v.to_le_bytes());
            }
        }
        // Poison global red zones (ASan), honouring defective gaps.
        if self.asan {
            cov::hit!(self.vendor, "rt_shadow.rs", "poison_global_redzone");
            for (gi, g) in self.m.globals.iter().enumerate() {
                let gap = self
                    .m
                    .san
                    .global_redzone_gaps
                    .iter()
                    .find(|(id, _)| *id == gi)
                    .map_or(0, |(_, bytes)| *bytes as usize);
                let end = self.global_addr[gi] + g.size as usize;
                let rz_start = end + gap.min(GAP);
                let rz_len = GAP.saturating_sub(gap);
                self.poison_range(rz_start, rz_len, PoisonTag::GlobalRz);
            }
        }
        let Some(main) = self.m.func("main") else {
            return RunResult::Error("no main".into());
        };
        match self.call(main, &[]) {
            Ok((status, _)) => {
                RunResult::Exit { status, output: std::mem::take(&mut self.output) }
            }
            Err(Stop::Report(r)) => RunResult::Report(r),
            Err(Stop::Crash(kind, loc)) => RunResult::Crash { kind, loc },
            Err(Stop::Timeout) => RunResult::Timeout,
            Err(Stop::Error(e)) => RunResult::Error(e),
        }
    }

    fn call(&mut self, f: &'m Func, args: &[(i64, bool)]) -> Result<(i64, bool), Stop> {
        self.depth += 1;
        if self.depth > 64 {
            self.depth -= 1;
            return Err(Stop::Error("call depth exceeded".into()));
        }
        let mut frame = Frame {
            regs: vec![0; f.next_reg as usize],
            taint: vec![false; f.next_reg as usize],
            slot_addr: Vec::with_capacity(f.slots.len()),
        };
        for (i, &(v, t)) in args.iter().enumerate() {
            if let Some(&r) = f.params.get(i) {
                frame.regs[r as usize] = v;
                frame.taint[r as usize] = t;
            }
        }
        // Allocate all slots with red-zone gaps (stack layout).
        for s in &f.slots {
            let a = self.alloc_region(s.size as usize, false);
            if self.asan {
                cov::hit!(self.vendor, "rt_shadow.rs", "poison_stack_redzone");
                self.poison_range(a + s.size as usize, GAP, PoisonTag::StackRz);
            }
            frame.slot_addr.push(a);
        }
        let mut bb = 0usize;
        let result = loop {
            let block = &f.blocks[bb];
            let mut stop = None;
            for ins in &block.instrs {
                self.steps += 1;
                if self.steps > self.cfg.step_limit {
                    stop = Some(Stop::Timeout);
                    break;
                }
                if self.cfg.trace && ins.loc.is_known() {
                    self.trace.executed.insert(ins.loc);
                    self.trace.last = ins.loc;
                }
                if let Err(e) = self.exec(f, &mut frame, ins) {
                    stop = Some(e);
                    break;
                }
            }
            if let Some(e) = stop {
                break Err(e);
            }
            match block.term.as_ref() {
                Some(Term::Jmp(t)) => bb = *t,
                Some(Term::Br { cond, then_bb, else_bb }) => {
                    let (v, _) = self.value(&frame, *cond);
                    bb = if v != 0 { *then_bb } else { *else_bb };
                }
                Some(Term::Ret(v)) => {
                    let rv = match v {
                        Some(o) => self.value(&frame, *o),
                        None => (0, false),
                    };
                    // Frame teardown unpoisons this frame's stack.
                    if self.asan {
                        for (s, &a) in f.slots.iter().zip(&frame.slot_addr) {
                            self.poison_range(a, s.size as usize, PoisonTag::Clean);
                        }
                    }
                    break Ok(rv);
                }
                None => break Err(Stop::Error("missing terminator".into())),
            }
        };
        self.depth -= 1;
        result
    }

    fn value(&self, frame: &Frame, o: Operand) -> (i64, bool) {
        match o {
            Operand::Imm(v) => (v, false),
            Operand::Reg(r) => (frame.regs[r as usize], frame.taint[r as usize]),
        }
    }

    fn set(&self, frame: &mut Frame, dst: Option<RegId>, v: i64, taint: bool) {
        if let Some(d) = dst {
            frame.regs[d as usize] = v;
            frame.taint[d as usize] = taint;
        }
    }

    fn check_mapped(&self, addr: i64, size: usize, loc: Loc) -> Result<usize, Stop> {
        if addr < NULL_GUARD as i64 || (addr as usize) + size > self.mem.len() {
            return Err(Stop::Crash(CrashKind::Segv, loc));
        }
        Ok(addr as usize)
    }

    /// Stops with a sanitizer report, hitting the runtime's report point
    /// (named with [`report_point!`]).
    fn report(&self, kind: ReportKind, loc: Loc, point: cov::PointId) -> Stop {
        cov::hit(self.vendor, point);
        let sanitizer = self.m.san.sanitizer.unwrap_or(Sanitizer::Asan);
        Stop::Report(SanReport { sanitizer, kind, loc })
    }

    fn exec(&mut self, f: &'m Func, frame: &mut Frame, ins: &Instr) -> Result<(), Stop> {
        let loc = ins.loc;
        match &ins.op {
            Op::Const(v) => self.set(frame, ins.dst, *v, false),
            Op::Bin { op, a, b, ty } => {
                let (va, ta) = self.value(frame, *a);
                let (vb, tb) = self.value(frame, *b);
                let taint = if self.m.san.msan_policy.sub_const_fully_defined
                    && *op == BinKind::Sub
                    && matches!(b, Operand::Imm(_))
                {
                    cov::hit!(self.vendor, "rt_msan.rs", "taint_sub_const_cleared");
                    false
                } else {
                    if self.msan {
                        cov::hit!(self.vendor, "rt_msan.rs", "taint_bin");
                        if ta || tb {
                            cov::hit!(self.vendor, "rt_msan.rs", "taint_propagated");
                        }
                    }
                    ta || tb
                };
                let v = match op {
                    BinKind::Div | BinKind::Rem => {
                        let wb = ty.wrap(vb as i128);
                        if wb == 0 {
                            return Err(Stop::Crash(CrashKind::Fpe, loc));
                        }
                        let wa = ty.wrap(va as i128);
                        if ty.signed && wa == ty.min_value() && wb == -1 {
                            return Err(Stop::Crash(CrashKind::Fpe, loc));
                        }
                        fold_bin(*op, va, vb, *ty).expect("division handled")
                    }
                    BinKind::Shl | BinKind::Shr => {
                        // x86 semantics: the amount is masked.
                        let bits = ty.promoted().width.bits() as i64;
                        let masked = vb & (bits - 1);
                        fold_bin(*op, va, masked, *ty).expect("masked shift folds")
                    }
                    _ => fold_bin(*op, va, vb, *ty).expect("total op"),
                };
                self.set(frame, ins.dst, v, taint);
            }
            Op::Un { op, a, ty } => {
                let (va, ta) = self.value(frame, *a);
                self.set(frame, ins.dst, fold_un(*op, va, *ty), ta);
            }
            Op::Cast { a, to } => {
                let (va, ta) = self.value(frame, *a);
                self.set(frame, ins.dst, to.wrap(va as i128) as i64, ta);
            }
            Op::AddrLocal(s) => self.set(frame, ins.dst, frame.slot_addr[*s] as i64, false),
            Op::AddrGlobal(g) => self.set(frame, ins.dst, self.global_addr[*g] as i64, false),
            Op::PtrAdd { base, offset, scale } => {
                let (vb, tb) = self.value(frame, *base);
                let (vo, to) = self.value(frame, *offset);
                self.set(frame, ins.dst, vb.wrapping_add(vo.wrapping_mul(*scale)), tb || to);
            }
            Op::Load { addr, size, signed } => {
                let (va, _) = self.value(frame, *addr);
                let a = self.check_mapped(va, *size as usize, loc)?;
                let mut raw: u64 = 0;
                for (i, b) in self.mem[a..a + *size as usize].iter().enumerate() {
                    raw |= (*b as u64) << (8 * i);
                }
                let v = if *signed {
                    let shift = 64 - 8 * (*size as u32);
                    ((raw << shift) as i64) >> shift
                } else {
                    raw as i64
                };
                let taint = self.shadow[a..a + *size as usize].iter().any(|d| !d);
                if self.msan {
                    cov::hit!(self.vendor, "rt_msan.rs", "taint_load");
                }
                self.set(frame, ins.dst, v, taint);
            }
            Op::Store { addr, val, size } => {
                let (va, _) = self.value(frame, *addr);
                let (vv, tv) = self.value(frame, *val);
                let a = self.check_mapped(va, *size as usize, loc)?;
                let bytes = (vv as u64).to_le_bytes();
                self.mem[a..a + *size as usize].copy_from_slice(&bytes[..*size as usize]);
                for s in &mut self.shadow[a..a + *size as usize] {
                    *s = !tv;
                }
                if self.msan {
                    cov::hit!(self.vendor, "rt_msan.rs", "taint_store");
                }
            }
            Op::MemCopy { dst, src, len } => {
                let (vd, _) = self.value(frame, *dst);
                let (vs, _) = self.value(frame, *src);
                let d = self.check_mapped(vd, *len as usize, loc)?;
                let s = self.check_mapped(vs, *len as usize, loc)?;
                let bytes: Vec<u8> = self.mem[s..s + *len as usize].to_vec();
                let sh: Vec<bool> = self.shadow[s..s + *len as usize].to_vec();
                self.mem[d..d + *len as usize].copy_from_slice(&bytes);
                self.shadow[d..d + *len as usize].copy_from_slice(&sh);
            }
            Op::Call { callee, args } => {
                let vals: Vec<(i64, bool)> =
                    args.iter().map(|a| self.value(frame, *a)).collect();
                let cf = self
                    .m
                    .func(callee)
                    .ok_or_else(|| Stop::Error(format!("unknown function {callee}")))?;
                let (v, t) = self.call(cf, &vals)?;
                self.set(frame, ins.dst, v, t);
            }
            Op::Malloc { size } => {
                let (vs, _) = self.value(frame, *size);
                let size = vs.clamp(0, 1 << 20) as usize;
                let start = self.alloc_region(size, false);
                self.heap.push(HeapBlock { start, size, freed: false });
                if self.asan {
                    cov::hit!(self.vendor, "rt_shadow.rs", "poison_heap_redzone");
                    self.poison_range(start + size, GAP, PoisonTag::HeapRz);
                }
                self.set(frame, ins.dst, start as i64, false);
            }
            Op::Free { addr } => {
                let (va, _) = self.value(frame, *addr);
                if va == 0 {
                    return Ok(()); // free(NULL) is a no-op
                }
                let Some(idx) = self.heap.iter().position(|h| h.start == va as usize) else {
                    return Err(if self.asan {
                        self.report(ReportKind::BadFree, loc, report_point!("report_uaf"))
                    } else {
                        Stop::Crash(CrashKind::Segv, loc)
                    });
                };
                if self.heap[idx].freed {
                    return Err(if self.asan {
                        self.report(ReportKind::BadFree, loc, report_point!("report_uaf"))
                    } else {
                        Stop::Crash(CrashKind::Segv, loc)
                    });
                }
                self.heap[idx].freed = true;
                if self.asan {
                    cov::hit!(self.vendor, "rt_shadow.rs", "poison_freed");
                    let (s, n) = (self.heap[idx].start, self.heap[idx].size);
                    self.poison_range(s, n, PoisonTag::Freed);
                }
            }
            Op::Print { val } => {
                let (v, _) = self.value(frame, *val);
                self.output.push(v);
            }
            Op::LifetimeStart(s) => {
                // The variable's bytes become undefined on scope (re-)entry.
                let a = frame.slot_addr[*s];
                let size = f.slots[*s].size as usize;
                for sh in &mut self.shadow[a..a + size] {
                    *sh = false;
                }
            }
            Op::LifetimeEnd(_) => {}
            Op::AsanUnpoisonScope(s) => {
                cov::hit!(self.vendor, "rt_shadow.rs", "unpoison_scope");
                let a = frame.slot_addr[*s];
                self.poison_range(a, f.slots[*s].size as usize, PoisonTag::Clean);
            }
            Op::AsanPoisonScope(s) => {
                cov::hit!(self.vendor, "rt_shadow.rs", "poison_scope");
                let a = frame.slot_addr[*s];
                self.poison_range(a, f.slots[*s].size as usize, PoisonTag::Scope);
            }
            Op::AsanCheck { addr, size, .. } => {
                let (va, _) = self.value(frame, *addr);
                if va >= NULL_GUARD as i64 && (va as usize) + (*size as usize) <= self.mem.len()
                {
                    let a = va as usize;
                    let bad = self.poison[a..a + *size as usize]
                        .iter()
                        .find(|t| **t != PoisonTag::Clean);
                    match bad {
                        Some(tag) => {
                            cov::hit!(self.vendor, "rt_shadow.rs", "shadow_poisoned");
                            let (kind, point) = match tag {
                                PoisonTag::StackRz => {
                                    (ReportKind::StackBufOverflow, report_point!("report_overflow"))
                                }
                                PoisonTag::GlobalRz => {
                                    (ReportKind::GlobalBufOverflow, report_point!("report_overflow"))
                                }
                                PoisonTag::HeapRz => {
                                    (ReportKind::HeapBufOverflow, report_point!("report_overflow"))
                                }
                                PoisonTag::Freed => {
                                    (ReportKind::UseAfterFree, report_point!("report_uaf"))
                                }
                                PoisonTag::Scope => {
                                    (ReportKind::UseAfterScope, report_point!("report_uas"))
                                }
                                PoisonTag::Clean => unreachable!(),
                            };
                            return Err(self.report(kind, loc, point));
                        }
                        None => cov::hit!(self.vendor, "rt_shadow.rs", "shadow_clean"),
                    }
                }
            }
            Op::UbsanCheckArith { op, a, b, ty } => {
                let (va, _) = self.value(frame, *a);
                let (vb, _) = self.value(frame, *b);
                let (wa, wb) = (ty.wrap(va as i128), ty.wrap(vb as i128));
                let wide = match op {
                    BinKind::Add => wa + wb,
                    BinKind::Sub => wa - wb,
                    BinKind::Mul => wa * wb,
                    _ => 0,
                };
                if !ty.contains(wide) {
                    return Err(self.report(
                        ReportKind::SignedIntOverflow,
                        loc,
                        report_point!("report_arith"),
                    ));
                }
            }
            Op::UbsanCheckNeg { a, ty } => {
                let (va, _) = self.value(frame, *a);
                if ty.wrap(va as i128) == ty.min_value() {
                    return Err(self.report(
                        ReportKind::NegOverflow,
                        loc,
                        report_point!("report_neg"),
                    ));
                }
            }
            Op::UbsanCheckShift { amount, bits } => {
                let (va, _) = self.value(frame, *amount);
                if va < 0 || va >= *bits as i64 {
                    return Err(self.report(
                        ReportKind::ShiftOob,
                        loc,
                        report_point!("report_shift"),
                    ));
                }
            }
            Op::UbsanCheckDiv { a, divisor, ty } => {
                let (vd, _) = self.value(frame, *divisor);
                if ty.wrap(vd as i128) == 0 {
                    return Err(self.report(
                        ReportKind::DivByZero,
                        loc,
                        report_point!("report_div"),
                    ));
                }
                let (va, _) = self.value(frame, *a);
                if ty.signed && ty.wrap(va as i128) == ty.min_value() && ty.wrap(vd as i128) == -1
                {
                    return Err(self.report(
                        ReportKind::SignedIntOverflow,
                        loc,
                        report_point!("report_div"),
                    ));
                }
            }
            Op::UbsanCheckNull { addr } => {
                let (va, _) = self.value(frame, *addr);
                if va == 0 {
                    return Err(self.report(
                        ReportKind::NullDeref,
                        loc,
                        report_point!("report_null"),
                    ));
                }
            }
            Op::UbsanCheckBound { idx, bound } => {
                let (vi, _) = self.value(frame, *idx);
                if vi < 0 || vi as u64 >= *bound {
                    return Err(self.report(
                        ReportKind::ArrayBound,
                        loc,
                        report_point!("report_bound"),
                    ));
                }
            }
            Op::MsanCheck { val, .. } => {
                let (_, t) = self.value(frame, *val);
                if t {
                    return Err(self.report(
                        ReportKind::UninitUse,
                        loc,
                        report_point!("report_msan"),
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ubfuzz_minic::parse;
    use ubfuzz_simcc::defects::DefectRegistry;
    use ubfuzz_simcc::pipeline::{compile, CompileConfig};
    use ubfuzz_simcc::target::OptLevel;

    fn build(src: &str, opt: OptLevel, san: Option<Sanitizer>, reg: &DefectRegistry) -> Module {
        let p = parse(src).unwrap();
        compile(&p, &CompileConfig::dev(Vendor::Gcc, opt, san, reg)).unwrap()
    }

    fn build_llvm(
        src: &str,
        opt: OptLevel,
        san: Option<Sanitizer>,
        reg: &DefectRegistry,
    ) -> Module {
        let p = parse(src).unwrap();
        compile(&p, &CompileConfig::dev(Vendor::Llvm, opt, san, reg)).unwrap()
    }

    #[test]
    fn arithmetic_and_output_match_source() {
        let reg = DefectRegistry::pristine();
        for opt in OptLevel::ALL {
            let m = build(
                "int main(void) { int x = 6; print_value(x * 7); return x; }",
                opt,
                None,
                &reg,
            );
            match run_module(&m) {
                RunResult::Exit { status, output } => {
                    assert_eq!(status, 6, "{opt}");
                    assert_eq!(output, vec![42], "{opt}");
                }
                o => panic!("{opt}: {o:?}"),
            }
        }
    }

    #[test]
    fn loops_calls_globals_work_at_all_levels() {
        let reg = DefectRegistry::pristine();
        let src = "
            int g[5] = {1, 2, 3, 4, 5};
            int sum(int n, int *p) {
                int s = 0;
                for (int i = 0; i < 5; i = i + 1) { s = s + p[i]; }
                return s + n;
            }
            int main(void) { print_value(sum(10, g)); return 0; }
        ";
        let mut outputs = Vec::new();
        for opt in OptLevel::ALL {
            let m = build(src, opt, None, &reg);
            match run_module(&m) {
                RunResult::Exit { output, .. } => outputs.push(output),
                o => panic!("{opt}: {o:?}"),
            }
        }
        assert!(outputs.iter().all(|o| o == &vec![25]), "{outputs:?}");
    }

    #[test]
    fn asan_catches_overflow_at_o0() {
        let reg = DefectRegistry::pristine();
        let m = build(
            "int a[5]; int x = 1;
             int main(void) { x = 5; a[x] = 1; return 0; }",
            OptLevel::O0,
            Some(Sanitizer::Asan),
            &reg,
        );
        match run_module(&m) {
            RunResult::Report(r) => {
                assert_eq!(r.kind, ReportKind::GlobalBufOverflow);
                assert_eq!(r.sanitizer, Sanitizer::Asan);
            }
            o => panic!("{o:?}"),
        }
    }

    #[test]
    fn asan_catches_use_after_free_and_scope() {
        let reg = DefectRegistry::pristine();
        let m = build_llvm(
            "int main(void) {
                int *p = (int*)malloc(8);
                *p = 3;
                free(p);
                return *p;
             }",
            OptLevel::O0,
            Some(Sanitizer::Asan),
            &reg,
        );
        assert!(matches!(
            run_module(&m),
            RunResult::Report(SanReport { kind: ReportKind::UseAfterFree, .. })
        ));
        let m2 = build(
            "int g;
             int main(void) {
                int *q = &g;
                { int t = 5; q = &t; }
                return *q;
             }",
            OptLevel::O0,
            Some(Sanitizer::Asan),
            &reg,
        );
        assert!(matches!(
            run_module(&m2),
            RunResult::Report(SanReport { kind: ReportKind::UseAfterScope, .. })
        ));
    }

    #[test]
    fn ubsan_catches_arith_kinds() {
        let reg = DefectRegistry::pristine();
        let cases = [
            (
                "int x = 2147483647; int y = 1; int main(void) { return x + y; }",
                ReportKind::SignedIntOverflow,
            ),
            ("int x = 1; int y = 55; int main(void) { return x << y; }", ReportKind::ShiftOob),
            ("int x = 7; int y; int main(void) { return x / y; }", ReportKind::DivByZero),
            ("int *p; int main(void) { return *p; }", ReportKind::NullDeref),
            ("int a[4]; int i = 4; int main(void) { return a[i]; }", ReportKind::ArrayBound),
        ];
        for (src, kind) in cases {
            let m = build(src, OptLevel::O0, Some(Sanitizer::Ubsan), &reg);
            match run_module(&m) {
                RunResult::Report(r) => assert_eq!(r.kind, kind, "{src}"),
                o => panic!("{src}: {o:?}"),
            }
        }
    }

    #[test]
    fn msan_catches_uninit_branch() {
        let reg = DefectRegistry::pristine();
        let m = build_llvm(
            "int main(void) { int x; if (x + 1) { print_value(1); } return 0; }",
            OptLevel::O0,
            Some(Sanitizer::Msan),
            &reg,
        );
        assert!(matches!(
            run_module(&m),
            RunResult::Report(SanReport { kind: ReportKind::UninitUse, .. })
        ));
    }

    #[test]
    fn unchecked_ub_behaves_like_hardware() {
        let reg = DefectRegistry::pristine();
        // Signed overflow wraps silently without UBSan.
        let m = build(
            "int x = 2147483647; int main(void) { x = x + 1; return x == -2147483647 - 1; }",
            OptLevel::O0,
            None,
            &reg,
        );
        assert!(matches!(run_module(&m), RunResult::Exit { status: 1, .. }));
        // Division by zero traps (SIGFPE) without a report.
        let m = build("int y; int main(void) { return 3 / y; }", OptLevel::O0, None, &reg);
        assert!(matches!(run_module(&m), RunResult::Crash { kind: CrashKind::Fpe, .. }));
        // Small OOB reads hit deterministic 0xBE garbage in the gap.
        let m = build(
            "int a[2] = {1, 2}; int i = 2; int main(void) { return a[i] == a[i]; }",
            OptLevel::O0,
            None,
            &reg,
        );
        assert!(matches!(run_module(&m), RunResult::Exit { status: 1, .. }));
    }

    #[test]
    fn fig1_defect_world_misses_at_o2_catches_at_o0() {
        // The paper's Fig. 1 in the defect world: GCC ASan catches the
        // overflow at -O0 and misses it at -O2.
        let reg = DefectRegistry::full();
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
            }
        ";
        let m0 = build(src, OptLevel::O0, Some(Sanitizer::Asan), &reg);
        let r0 = run_module(&m0);
        assert!(r0.is_report(), "-O0 catches: {r0:?}");
        let m2 = build(src, OptLevel::O2, Some(Sanitizer::Asan), &reg);
        let r2 = run_module(&m2);
        assert!(r2.is_normal_exit(), "-O2 misses (FN): {r2:?}");
    }

    #[test]
    fn trace_records_crash_site() {
        let reg = DefectRegistry::pristine();
        let src = "int a[4]; int i = 9;\nint main(void) {\n    a[i] = 1;\n    return 0;\n}";
        let m = build(src, OptLevel::O0, Some(Sanitizer::Asan), &reg);
        let (r, trace) = run_traced(&m);
        assert!(r.is_report(), "{r:?}");
        assert_eq!(trace.last.line, 3, "crash site on the a[i] line");
        assert!(trace.contains(trace.last));
    }

    #[test]
    fn deterministic_across_runs() {
        let reg = DefectRegistry::full();
        let src = "int g[4] = {9, 9, 9, 9};
                   int main(void) { int s = 0;
                       for (int i = 0; i < 4; i = i + 1) { s += g[i]; }
                       print_value(s); return 0; }";
        let m = build(src, OptLevel::O2, None, &reg);
        assert_eq!(run_module(&m), run_module(&m));
    }

    #[test]
    fn store_forwarding_zero_extends_unsigned_globals() {
        // Regression: `~0` stored into a 4-byte unsigned global must read
        // back as 2^32 - 1 at every level (the -O2 store-forwarding pass
        // used to sign-extend the forwarded value).
        let reg = DefectRegistry::pristine();
        let src = "unsigned int g = 16U;
                   int main(void) {
                       g = ~(0 & -(g & 1023));
                       unsigned long c = (unsigned long)g;
                       print_value((long)c);
                       return 0;
                   }";
        for opt in OptLevel::ALL {
            let m = build(src, opt, None, &reg);
            match run_module(&m) {
                RunResult::Exit { output, .. } => {
                    assert_eq!(output, vec![4294967295], "{opt}")
                }
                other => panic!("{opt}: {other:?}"),
            }
        }
    }

    #[test]
    fn step_budget_exhaustion_is_a_timeout() {
        let reg = DefectRegistry::pristine();
        let src = "int g;\nint main(void) { while (g == 0) { g = 0; } return 0; }";
        // -O0 keeps the loop; a tiny budget must trip.
        let m = build(src, OptLevel::O0, None, &reg);
        let (r, _) = run_with_config(&m, &VmConfig { step_limit: 500, trace: false });
        assert!(matches!(r, RunResult::Timeout), "{r:?}");
    }

    #[test]
    fn null_dereference_raises_segv_without_sanitizer() {
        // On "hardware" a null store faults (the null guard page), with no
        // sanitizer report — UBSan is what turns this into a diagnosis.
        let reg = DefectRegistry::pristine();
        let src = "int main(void) { int *p = (int*)0; *p = 1; return 0; }";
        let m = build(src, OptLevel::O0, None, &reg);
        assert!(matches!(run_module(&m), RunResult::Crash { kind: CrashKind::Segv, .. }));
    }

    #[test]
    fn cross_object_pointer_difference_is_silent_on_hardware() {
        // CWE-469 (§3.2.4): the machine happily computes a raw address
        // distance; neither the VM nor any sanitizer objects. Only the
        // reference interpreter flags it.
        let reg = DefectRegistry::pristine();
        let src = "int a;
                   int b;
                   int main(void) {
                       int *p = &a;
                       int *q = &b;
                       print_value((p - q) != 0);
                       return 0;
                   }";
        for san in [None, Some(Sanitizer::Asan), Some(Sanitizer::Ubsan)] {
            let m = build(src, OptLevel::O0, san, &reg);
            match run_module(&m) {
                RunResult::Exit { output, .. } => assert_eq!(output, vec![1], "{san:?}"),
                other => panic!("{san:?}: expected silence, got {other:?}"),
            }
        }
    }
}
