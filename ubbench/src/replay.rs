//! Stage-by-stage replay of a cold campaign through the public pipeline
//! functions, timed per stage, with every module checked byte for byte
//! against what the traced campaign's compiles returned.

use std::collections::{BTreeMap, HashMap};

use ubfuzz::backend::{CompilerBackend, SimBackend};
use ubfuzz::campaign::CampaignConfig;
use ubfuzz::seedgen::generate_seed;
use ubfuzz::simcc::ir::Module;
use ubfuzz::simcc::pipeline::{early_opt_stage, late_opt_stage, lower_stage, sanitize_stage};
use ubfuzz::simcc::target::{CompilerId, OptLevel, Vendor};
use ubfuzz::simcc::{passes, sanitizers_for, CompileConfig};
use ubfuzz::store::modser::{module_from_bytes, module_to_bytes};
use ubfuzz::store::wire::fnv1a;
use ubfuzz::ubgen::generate_all;

use crate::spans::Spans;

/// The early-opt passes, in the order their metrics are reported.
pub const PASSES: [&str; 7] = [
    "constfold",
    "dce",
    "simplify_cfg",
    "memopt",
    "dead_slot_elim",
    "unroll",
    "inline",
];

/// Counters of one replay (times are in the spans).
#[derive(Debug, Default)]
pub struct Replay {
    pub seeds: u64,
    pub programs: u64,
    pub instrs_in: u64,
    pub instrs_out: u64,
    pub checks_inserted: u64,
    pub module_bytes: u64,
    /// Calls per early-opt pass in the pass-by-pass replay.
    pub pass_calls: BTreeMap<&'static str, u64>,
    /// Every replayed module equals the traced campaign's artifact.
    pub identical: bool,
    /// The pass-by-pass replay reproduced `early_opt_stage` on every
    /// prefix; its per-pass timings are only reported when it did.
    pub passes_identical: bool,
}

fn sanitizer_checks(m: &Module) -> u64 {
    m.funcs
        .iter()
        .flat_map(|f| &f.blocks)
        .flat_map(|b| &b.instrs)
        .filter(|i| i.op.is_sanitizer_op())
        .count() as u64
}

/// Replays the campaign `cfg` stage by stage in the campaign's unit order.
/// `expected[i]` is the FNV digest of the `i`-th compile's module bytes in
/// the traced workers=1 campaign (`None` for a failed compile).
pub fn run(cfg: &CampaignConfig, spans: &Spans, expected: &[Option<u64>]) -> Replay {
    let toolchains = SimBackend::new().toolchains();
    let mut r = Replay {
        identical: true,
        passes_identical: true,
        ..Replay::default()
    };
    let mut unit = 0usize;
    for seed_id in cfg.first_seed..cfg.first_seed + cfg.seeds as u64 {
        r.seeds += 1;
        let seed = spans.time("seedgen.generate", seed_id, || {
            generate_seed(seed_id, &cfg.seed_options)
        });
        let mut opts = cfg.gen_options.clone();
        // The campaign derives each seed's generator stream this way.
        opts.rng_seed = seed_id.wrapping_mul(31).wrapping_add(7);
        let programs = spans.time("ubgen.generate", seed_id, || generate_all(&seed, &opts));
        for u in programs {
            r.programs += 1;
            // The campaign's session computes each (compiler, opt) prefix of
            // a program once and shares it across the program's sanitizers.
            let mut prefixes: HashMap<(CompilerId, OptLevel), Option<Module>> = HashMap::new();
            for sanitizer in sanitizers_for(u.kind).iter() {
                for tc in toolchains.iter().filter(|tc| tc.supports(sanitizer)) {
                    for opt in OptLevel::ALL {
                        let compiler = tc.id;
                        let id = unit as u64;
                        let cached = prefixes.entry((compiler, opt)).or_insert_with(|| {
                            prefix(&mut r, spans, id, &u.program, compiler, opt)
                        });
                        let got = cached.as_ref().map(|p| {
                            let mut m = p.clone();
                            let before = sanitizer_checks(&m);
                            let cc = CompileConfig {
                                compiler,
                                opt,
                                sanitizer: Some(sanitizer),
                                registry: &cfg.registry,
                                san_policy: cfg.effective_san_policy(),
                            };
                            spans.time("simcc.sanitize", id, || sanitize_stage(&mut m, &cc));
                            r.checks_inserted += sanitizer_checks(&m).saturating_sub(before);
                            spans.time("simcc.late_opt", id, || late_opt_stage(&mut m, opt));
                            let bytes = spans.time("store.encode", id, || module_to_bytes(&m));
                            let decoded =
                                spans.time("store.decode", id, || module_from_bytes(&bytes));
                            if decoded.as_ref().ok() != Some(&m) {
                                r.identical = false;
                            }
                            r.module_bytes += bytes.len() as u64;
                            fnv1a(&bytes)
                        });
                        if expected.get(unit).copied().flatten() != got {
                            r.identical = false;
                        }
                        unit += 1;
                    }
                }
            }
        }
    }
    if unit != expected.len() {
        r.identical = false;
    }
    r
}

/// `lower_stage` + `early_opt_stage` for one cell, then the pass-by-pass
/// replay of the same prefix from the lowered module.
fn prefix(
    r: &mut Replay,
    spans: &Spans,
    unit: u64,
    program: &ubfuzz::minic::Program,
    compiler: CompilerId,
    opt: OptLevel,
) -> Option<Module> {
    let mut m = spans
        .time("simcc.lower", unit, || lower_stage(program, compiler, opt))
        .ok()?;
    r.instrs_in += m.instr_count() as u64;
    let lowered = m.clone();
    spans.time("simcc.early_opt", unit, || {
        early_opt_stage(&mut m, compiler, opt)
    });
    r.instrs_out += m.instr_count() as u64;
    let replayed = replay_passes(r, spans, unit, lowered, compiler, opt);
    if module_to_bytes(&replayed) != module_to_bytes(&m) {
        r.passes_identical = false;
    }
    Some(m)
}

/// Times each pass call of the pass-by-pass replay.
struct PassTimer<'a> {
    calls: &'a mut BTreeMap<&'static str, u64>,
    spans: &'a Spans,
    unit: u64,
}

impl PassTimer<'_> {
    fn run(
        &mut self,
        pass: &'static str,
        m: &mut Module,
        f: impl FnOnce(&mut Module) -> bool,
    ) -> bool {
        *self.calls.entry(pass).or_default() += 1;
        self.spans.time(pass_span(pass), self.unit, || f(m))
    }

    /// `early_opt_stage`'s constfold/DCE/CFG fixpoint (at most 3 rounds).
    fn basic(&mut self, m: &mut Module) {
        for _ in 0..3 {
            let mut any = false;
            any |= self.run("constfold", m, passes::constfold);
            any |= self.run("dce", m, |m| passes::dce(m, true));
            any |= self.run("simplify_cfg", m, passes::simplify_cfg);
            if !any {
                break;
            }
        }
    }
}

/// `early_opt_stage`'s pass schedule, one timed span per pass call. The
/// schedule is copied here, so it is checked against the real stage on
/// every prefix rather than trusted.
fn replay_passes(
    r: &mut Replay,
    spans: &Spans,
    unit: u64,
    mut m: Module,
    compiler: CompilerId,
    opt: OptLevel,
) -> Module {
    let mut t = PassTimer {
        calls: &mut r.pass_calls,
        spans,
        unit,
    };
    match opt {
        OptLevel::O0 => {}
        OptLevel::O1 => t.basic(&mut m),
        OptLevel::Os => {
            t.basic(&mut m);
            t.run("memopt", &mut m, passes::memopt);
            t.run("dead_slot_elim", &mut m, passes::dead_slot_elim);
            t.basic(&mut m);
        }
        OptLevel::O2 | OptLevel::O3 => {
            t.basic(&mut m);
            let threshold = unroll_threshold(compiler, opt);
            match compiler.vendor {
                Vendor::Gcc => {
                    t.run("unroll", &mut m, |m| passes::unroll(m, threshold));
                    t.run("inline", &mut m, |m| passes::inline(m, 40));
                }
                Vendor::Llvm => {
                    t.run("inline", &mut m, |m| passes::inline(m, 40));
                    t.run("unroll", &mut m, |m| passes::unroll(m, threshold));
                }
            }
            t.basic(&mut m);
            t.run("memopt", &mut m, passes::memopt);
            t.run("dead_slot_elim", &mut m, passes::dead_slot_elim);
            t.basic(&mut m);
            t.run("memopt", &mut m, passes::memopt);
            t.basic(&mut m);
        }
    }
    m
}

/// Span name of an early-opt pass.
pub fn pass_span(pass: &str) -> &'static str {
    match pass {
        "constfold" => "simcc.pass.constfold",
        "dce" => "simcc.pass.dce",
        "simplify_cfg" => "simcc.pass.simplify_cfg",
        "memopt" => "simcc.pass.memopt",
        "dead_slot_elim" => "simcc.pass.dead_slot_elim",
        "unroll" => "simcc.pass.unroll",
        _ => "simcc.pass.inline",
    }
}

/// `early_opt_stage`'s unroll threshold per vendor, version and level.
fn unroll_threshold(compiler: CompilerId, opt: OptLevel) -> i64 {
    let v = compiler.version as i64;
    match (compiler.vendor, opt) {
        (_, OptLevel::O0 | OptLevel::O1 | OptLevel::Os) => 0,
        (Vendor::Gcc, OptLevel::O2) => {
            if v >= 10 {
                8
            } else {
                4
            }
        }
        (Vendor::Gcc, OptLevel::O3) => 16,
        (Vendor::Llvm, OptLevel::O2) => 6,
        (Vendor::Llvm, OptLevel::O3) => {
            if v >= 12 {
                16
            } else {
                12
            }
        }
    }
}
