//! Renders every table and figure of the paper's evaluation (§4).
//!
//! Each `table*`/`fig*` function returns the finished text block; the
//! `ubfuzz-bench` binaries print them, and the integration tests assert
//! their shapes against the paper's numbers (see EXPERIMENTS.md for the
//! paper-vs-measured record).

use crate::campaign::{CampaignConfig, CampaignStats, ParallelCampaign};
use crate::history;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;
use ubfuzz_backend::{CompileRequest, CompilerBackend, RunRequest};
use ubfuzz_exec::Executor;
use ubfuzz_oracle::OracleStack;
use ubfuzz_minic::{parse, UbKind};
use ubfuzz_seedgen::{generate_seed, SeedOptions};
use ubfuzz_simcc::defects::{BugStatus, DefectCategory, DefectRegistry};
use ubfuzz_simcc::target::{CompilerId, OptLevel, Vendor};
use ubfuzz_simcc::{cov, san, Sanitizer};

/// Table 2: UB kinds supported by each sanitizer.
pub fn table2() -> String {
    let mut out = String::from("Table 2. UB types supported by each sanitizer.\n");
    for kind in UbKind::GENERATABLE {
        let sans: Vec<&str> =
            san::sanitizers_for(kind).into_iter().map(|s| s.name()).collect();
        let _ = writeln!(out, "  {:<22} {}", kind.name(), sans.join(", "));
    }
    out
}

/// Table 3: status of the found bugs, by vendor and sanitizer.
pub fn table3(stats: &CampaignStats) -> String {
    let cols: [(Vendor, Sanitizer); 5] = [
        (Vendor::Gcc, Sanitizer::Asan),
        (Vendor::Gcc, Sanitizer::Ubsan),
        (Vendor::Llvm, Sanitizer::Asan),
        (Vendor::Llvm, Sanitizer::Ubsan),
        (Vendor::Llvm, Sanitizer::Msan),
    ];
    let count = |pred: &dyn Fn(&crate::FoundBug) -> bool| -> Vec<usize> {
        let mut v: Vec<usize> =
            cols.iter().map(|&(ven, s)| {
                stats.bugs.iter().filter(|b| b.vendor == ven && b.sanitizer == s && pred(b)).count()
            }).collect();
        v.push(v.iter().sum());
        v
    };
    let status_of = |b: &crate::FoundBug| b.defect_id.and_then(DefectRegistry::get).map(|d| d.status);
    let reported = count(&|_| true);
    let confirmed = count(&|b| {
        matches!(status_of(b), Some(BugStatus::Confirmed) | Some(BugStatus::Fixed))
    });
    let fixed = count(&|b| matches!(status_of(b), Some(BugStatus::Fixed)));
    let invalid = count(&|b| b.invalid);
    let mut out = String::from(
        "Table 3. Status of the reported bugs in GCC and LLVM.\n\
                     GCC-ASan GCC-UBSan LLVM-ASan LLVM-UBSan LLVM-MSan Total\n",
    );
    for (name, row) in
        [("Reported", reported), ("Confirmed", confirmed), ("Fixed", fixed), ("Invalid", invalid)]
    {
        let _ = writeln!(
            out,
            "  {:<9} {:>8} {:>9} {:>9} {:>10} {:>9} {:>5}",
            name, row[0], row[1], row[2], row[3], row[4], row[5]
        );
    }
    out
}

/// Per-generator program counts for Table 4.
#[derive(Debug, Clone, Default)]
pub struct GeneratorCounts {
    /// UB programs per kind.
    pub per_kind: BTreeMap<UbKind, usize>,
    /// Programs without UB.
    pub no_ub: usize,
    /// Programs that did not terminate or were invalid.
    pub other: usize,
}

impl GeneratorCounts {
    /// Total UB programs.
    pub fn total_ub(&self) -> usize {
        self.per_kind.values().sum()
    }
}

impl GeneratorCounts {
    /// Folds another count block into this one (per-seed task merge).
    fn absorb(&mut self, other: GeneratorCounts) {
        for (kind, n) in other.per_kind {
            *self.per_kind.entry(kind).or_default() += n;
        }
        self.no_ub += other.no_ub;
        self.other += other.other;
    }
}

/// Classifies one baseline-generated program into a count block.
fn classify_counts(p: &ubfuzz_minic::Program) -> GeneratorCounts {
    let mut c = GeneratorCounts::default();
    match ubfuzz_interp::run_program(p) {
        ubfuzz_interp::Outcome::Ub(ev) => {
            *c.per_kind.entry(ev.kind).or_default() += 1;
        }
        ubfuzz_interp::Outcome::Exit { .. } => c.no_ub += 1,
        _ => c.other += 1,
    }
    c
}

/// Runs the §4.3 generator-comparison experiment over `seeds` seed programs
/// (the paper uses 1,000; scale with available time). Each generator's
/// per-seed work is one executor task; counts are folded in seed order, so
/// the table is identical at any worker count.
pub fn generator_comparison(seeds: usize) -> BTreeMap<&'static str, GeneratorCounts> {
    let exec = Executor::auto();
    let mut out = BTreeMap::new();
    let seed_opts = SeedOptions::default();
    // UBfuzz: all generated programs contain UB by construction.
    let mut ub = GeneratorCounts::default();
    let per_seed = exec.map((0..seeds as u64).collect(), |_, s| {
        let seed = generate_seed(s, &seed_opts);
        let mut c = GeneratorCounts::default();
        for u in ubfuzz_ubgen::generate_all(&seed, &ubfuzz_ubgen::GenOptions::default()) {
            *c.per_kind.entry(u.kind).or_default() += 1;
        }
        c
    });
    per_seed.into_iter().for_each(|c| ub.absorb(c));
    out.insert("UBfuzz", ub);
    // MUSIC: 14 mutants per seed (matching the paper's 14k from 1k seeds).
    let mut music = GeneratorCounts::default();
    let per_seed = exec.map((0..seeds as u64).collect(), |_, s| {
        let seed = generate_seed(s, &seed_opts);
        let mut c = GeneratorCounts::default();
        for m in 0..14 {
            let p = ubfuzz_baselines::music::mutate(&seed, s * 100 + m);
            c.absorb(classify_counts(&p));
        }
        c
    });
    per_seed.into_iter().for_each(|c| music.absorb(c));
    out.insert("MUSIC", music);
    // Csmith-NoSafe: 14 fresh programs per seed slot.
    let mut nosafe = GeneratorCounts::default();
    let nosafe_opts = ubfuzz_baselines::nosafe_options();
    let per_slot = exec.map((0..seeds as u64 * 14).collect(), |_, s| {
        classify_counts(&generate_seed(900_000 + s, &nosafe_opts))
    });
    per_slot.into_iter().for_each(|c| nosafe.absorb(c));
    out.insert("Csmith-NoSafe", nosafe);
    out
}

/// Table 4: generated UB programs per generator.
pub fn table4(data: &BTreeMap<&'static str, GeneratorCounts>) -> String {
    let kinds = UbKind::GENERATABLE;
    let mut out = String::from("Table 4. Number of generated UB programs per generator.\n");
    let _ = write!(out, "  {:<14}", "Generator");
    for k in kinds {
        let _ = write!(out, " {:>12}", shorten(k.name()));
    }
    let _ = writeln!(out, " {:>7} {:>7}", "Total", "NoUB");
    for (name, counts) in data {
        let _ = write!(out, "  {:<14}", name);
        for k in kinds {
            let _ = write!(out, " {:>12}", counts.per_kind.get(&k).copied().unwrap_or(0));
        }
        let no_ub =
            if *name == "UBfuzz" { "-".to_string() } else { counts.no_ub.to_string() };
        let _ = writeln!(out, " {:>7} {:>7}", counts.total_ub(), no_ub);
    }
    out
}

fn shorten(name: &str) -> String {
    name.replace("BufOverflow", "BufOvf").replace("Overflow", "Ovf")
}

/// The Table 5 coverage experiment: compile+run a program mix per generator
/// and read the sanitizer self-coverage counters.
///
/// Each program's vendor × sanitizer × level sweep is one executor task; the
/// shared [`CompileSession`] reuses the pre-sanitizer prefix across the
/// three sanitizers of every `(vendor, opt)` cell. Coverage is unaffected by
/// either: hit points live only in the sanitizer passes and the runtime
/// (never the cached prefix), and each task returns its [`cov::capture`]
/// delta, whose union is order-insensitive.
///
/// Share one backend across table entry points and the
/// sanitizer-independent compile prefixes persist between them. (The
/// coverage counters themselves are the simulated toolchains' measurement
/// substrate; a foreign backend compiles and runs the same mix but
/// contributes no self-coverage.)
pub fn coverage_experiment(backend: &dyn CompilerBackend, seeds: usize) -> String {
    let registry = DefectRegistry::full();
    let exec = Executor::auto();
    let toolchains = backend.toolchains();
    let mut out = String::from(
        "Table 5. Line (LC), function (FC), branch (BC) coverage of the sanitizer\n\
         implementation, per vendor.\n\
                            GCC                     LLVM\n\
                     LC     FC     BC        LC     FC     BC\n",
    );
    let seed_opts = SeedOptions::default();
    let run_mix = |programs: &[ubfuzz_minic::Program]| {
        let deltas = exec.map((0..programs.len()).collect(), |_, pi: usize| {
            cov::capture(|| {
                let p = &programs[pi];
                let fp = backend.fingerprint(p);
                for tc in &toolchains {
                    for sanitizer in Sanitizer::ALL {
                        if !tc.supports(sanitizer) {
                            continue;
                        }
                        for opt in [OptLevel::O0, OptLevel::O2] {
                            let req = CompileRequest {
                                compiler: tc.id,
                                opt,
                                sanitizer: Some(sanitizer),
                                registry: &registry,
                                san_policy: ubfuzz_simcc::SanPolicy::Full,
                            };
                            if let Ok(a) = backend.compile(&fp, p, &req) {
                                let _ = backend.execute(&a, &RunRequest::default());
                            }
                        }
                    }
                }
            })
            .1
        });
        let mut covered = cov::CovDelta::new();
        for delta in &deltas {
            covered.merge(delta);
        }
        (cov::stats_of(&covered, Vendor::Gcc), cov::stats_of(&covered, Vendor::Llvm))
    };
    let seeds_programs: Vec<_> =
        (0..seeds as u64).map(|s| generate_seed(s, &seed_opts)).collect();
    let music_programs: Vec<_> = seeds_programs
        .iter()
        .enumerate()
        .flat_map(|(i, s)| (0..3).map(move |m| ubfuzz_baselines::music::mutate(s, (i * 10 + m) as u64)))
        .collect();
    let nosafe_programs: Vec<_> = (0..seeds as u64 * 3)
        .map(|s| generate_seed(800_000 + s, &ubfuzz_baselines::nosafe_options()))
        .collect();
    let ubfuzz_programs: Vec<_> = seeds_programs
        .iter()
        .flat_map(|s| {
            ubfuzz_ubgen::generate_all(s, &ubfuzz_ubgen::GenOptions::default())
                .into_iter()
                .map(|u| u.program)
        })
        .collect();
    for (name, programs) in [
        ("Seeds", &seeds_programs),
        ("MUSIC", &music_programs),
        ("Csmith-NoSafe", &nosafe_programs),
        ("UBfuzz", &ubfuzz_programs),
    ] {
        let (g, l) = run_mix(programs);
        let _ = writeln!(
            out,
            "  {:<14} {:>5.1}% {:>5.1}% {:>5.1}%    {:>5.1}% {:>5.1}% {:>5.1}%",
            name, g.line_pct, g.func_pct, g.branch_pct, l.line_pct, l.func_pct, l.branch_pct
        );
    }
    out
}

/// Table 6: bug categories by root cause.
pub fn table6(stats: &CampaignStats) -> String {
    let mut out = String::from("Table 6. Bug category according to root cause analysis.\n");
    let _ = writeln!(out, "  {:<38} {:>4} {:>5}", "Category", "GCC", "LLVM");
    for cat in DefectCategory::ALL {
        let count = |vendor| {
            stats
                .bugs
                .iter()
                .filter(|b| {
                    b.vendor == vendor
                        && (b
                            .defect_id
                            .and_then(DefectRegistry::get)
                            .is_some_and(|d| d.category == cat)
                            // The invalid report presents as a bogus
                            // sanitizer-optimization finding (Fig. 8).
                            || (b.invalid && cat == DefectCategory::IncorrectSanitizerOpt))
                })
                .count()
        };
        let _ = writeln!(out, "  {:<38} {:>4} {:>5}", cat.name(), count(Vendor::Gcc), count(Vendor::Llvm));
    }
    out
}

/// Fig. 7: number of bugs per UB kind, with buffer overflow split between
/// ASan and UBSan as in the paper.
pub fn fig7(stats: &CampaignStats) -> String {
    let mut rows: BTreeMap<String, usize> = BTreeMap::new();
    for b in &stats.bugs {
        if b.invalid {
            continue;
        }
        let label = match b.kind {
            UbKind::BufOverflowArray | UbKind::BufOverflowPtr => {
                format!("BufOverflow ({})", b.sanitizer)
            }
            k => k.name().to_string(),
        };
        *rows.entry(label).or_default() += 1;
    }
    let mut out = String::from("Fig. 7. Number of bugs triggered by each kind of UB.\n");
    for (label, n) in rows {
        let _ = writeln!(out, "  {:<28} {:>3} {}", label, n, "#".repeat(n));
    }
    out
}

/// Fig. 9: sanitizer FN reports per year in the GCC and LLVM trackers.
pub fn fig9() -> String {
    let mut out =
        String::from("Fig. 9. Sanitizer FN bug reports in GCC and LLVM trackers per year.\n");
    for vendor in Vendor::ALL {
        let _ = writeln!(
            out,
            "  {} (total {}, by UBfuzz {}):",
            vendor,
            history::total_reports(vendor),
            history::ubfuzz_reports(vendor)
        );
        for y in history::history(vendor) {
            let _ = writeln!(
                out,
                "    {} {:>3} {}{}",
                y.year,
                y.total,
                "#".repeat((y.total - y.by_ubfuzz) as usize),
                "u".repeat(y.by_ubfuzz as usize)
            );
        }
    }
    out
}

/// Fig. 10: stable compiler versions affected by each found bug, *measured*
/// by re-running every bug's test case against every stable version. The
/// replays recompile every bug's test case on `backend`, so a shared cached
/// backend dedups their prefixes against the campaign that found them.
pub fn fig10(
    stats: &CampaignStats,
    registry: &DefectRegistry,
    backend: &dyn CompilerBackend,
) -> String {
    let mut out =
        String::from("Fig. 10. Stable compiler versions affected by the reported FN bugs.\n");
    for vendor in Vendor::ALL {
        let versions: Vec<u32> = vendor.stable_versions().collect();
        let mut affected: BTreeMap<u32, usize> = versions.iter().map(|&v| (v, 0)).collect();
        for bug in &stats.bugs {
            if bug.vendor != vendor || bug.invalid || bug.wrong_report {
                continue;
            }
            let Ok(program) = parse(&bug.test_case) else { continue };
            let opt = bug.missed_at.first().copied().unwrap_or(OptLevel::O2);
            let fp = backend.fingerprint(&program);
            for &version in &versions {
                let req = CompileRequest {
                    compiler: CompilerId { vendor, version },
                    opt,
                    sanitizer: Some(bug.sanitizer),
                    registry,
                    san_policy: ubfuzz_simcc::SanPolicy::Full,
                };
                let Ok(a) = backend.compile(&fp, &program, &req) else { continue };
                if backend.execute(&a, &RunRequest::default()).is_normal_exit() {
                    *affected.entry(version).or_default() += 1;
                }
            }
        }
        let _ = writeln!(out, "  {vendor}:");
        for (v, n) in affected {
            let _ = writeln!(out, "    {vendor}-{v:<3} {n:>3} {}", "#".repeat(n));
        }
    }
    out
}

/// Fig. 11: optimization levels affected, measured by re-running every bug's
/// test case at every level on the development compiler, on `backend`.
pub fn fig11(
    stats: &CampaignStats,
    registry: &DefectRegistry,
    backend: &dyn CompilerBackend,
) -> String {
    let mut affected: BTreeMap<&'static str, usize> =
        OptLevel::ALL.iter().map(|o| (o.name(), 0)).collect();
    for bug in &stats.bugs {
        if bug.invalid || bug.wrong_report {
            continue;
        }
        let Ok(program) = parse(&bug.test_case) else { continue };
        let fp = backend.fingerprint(&program);
        for opt in OptLevel::ALL {
            let req = CompileRequest {
                compiler: CompilerId::dev(bug.vendor),
                opt,
                sanitizer: Some(bug.sanitizer),
                registry,
                san_policy: ubfuzz_simcc::SanPolicy::Full,
            };
            let Ok(a) = backend.compile(&fp, &program, &req) else { continue };
            if backend.execute(&a, &RunRequest::default()).is_normal_exit()
                && !ubfuzz_interp::run_program(&program).is_clean_exit()
            {
                *affected.entry(opt.name()).or_default() += 1;
            }
        }
    }
    let mut out = String::from("Fig. 11. Affected optimization levels.\n");
    for opt in OptLevel::ALL {
        let n = affected[opt.name()];
        let _ = writeln!(out, "  {:<4} {:>3} {}", opt.name(), n, "#".repeat(n));
    }
    out
}

/// §4.4 oracle precision/recall summary line, with a per-sanitizer drop
/// breakdown whenever any drop was *unarbitrated* (no module to map, no
/// trace to arbitrate with). Fully trace-capable backends — the simulated
/// world every table is measured in — have no unarbitrated drops, so their
/// output is byte-identical to the pre-breakdown format; the extra lines
/// exist to make real-toolchain campaigns debuggable.
pub fn oracle_stats(stats: &CampaignStats) -> String {
    let mut out = format!(
        "Oracle: {} UB programs, {} discrepancies, {} selected as sanitizer bugs, {} dropped as optimization artifacts\n",
        stats.total_programs(),
        stats.discrepancies,
        stats.selected,
        stats.dropped
    );
    if stats.oracle.unarbitrated() > 0 {
        use ubfuzz_oracle::DropReason;
        for sanitizer in stats.oracle.sanitizers() {
            let _ = writeln!(
                out,
                "  dropped[{sanitizer}]: optimization-artifact={} no-module={} no-trace={}",
                stats.oracle.dropped(sanitizer, DropReason::OptimizationArtifact),
                stats.oracle.dropped(sanitizer, DropReason::NoModule),
                stats.oracle.dropped(sanitizer, DropReason::NoTrace),
            );
        }
    }
    out
}

/// §4.4 ablation: what differential testing would file *without* the
/// crash-site-mapping oracle.
///
/// Since the oracle became configuration ([`CampaignConfig`] carries a
/// [`ubfuzz_oracle::CrashOracle`]), the ablation is pure *stack selection*: the same
/// campaign runs once under [`OracleStack::standard`] and once under
/// [`OracleStack::naive`] — no forked campaign code. In the pristine world
/// (correct sanitizers) every cross-level discrepancy is
/// optimization-caused: the naive stack files them all — the "practically
/// infeasible" triage burden the paper motivates the oracle with — while
/// crash-site mapping files none, except the engineered Fig. 8
/// invalid-report shape when a seed happens to produce it.
///
/// Both stacks recompile the same matrix on `backend`, so the second run is
/// served from the backend's prefix cache.
pub fn oracle_ablation(backend: Arc<dyn CompilerBackend>, seeds: usize) -> String {
    let campaign = |oracle: OracleStack| {
        let cfg = CampaignConfig::builder()
            .seeds(seeds)
            .registry(DefectRegistry::pristine())
            .backend(Arc::clone(&backend))
            .oracle(Arc::new(oracle))
            .build();
        ParallelCampaign::new(cfg).run()
    };
    let stats = campaign(OracleStack::standard());
    let naive = campaign(OracleStack::naive());
    let invalid = stats.bugs.iter().filter(|b| b.invalid).count();
    let mut out = String::new();
    let _ = writeln!(out, "Oracle ablation (pristine sanitizers, {seeds} seeds):");
    let _ = writeln!(out, "  UB programs tested:       {}", stats.total_programs());
    let _ = writeln!(out, "  discrepancies observed:   {}", stats.discrepancies);
    let _ = writeln!(
        out,
        "  naive oracle would file:  {} (every one a false accusation)",
        naive.selected
    );
    let _ = writeln!(
        out,
        "  crash-site mapping files: {} (of which {invalid} invalid-report shapes)",
        stats.selected
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::run_campaign;
    use ubfuzz_backend::SimBackend;

    #[test]
    fn table2_matches_paper_matrix() {
        let t = table2();
        assert!(t.contains("BufOverflow(Array)     ASan, UBSan"));
        assert!(t.contains("UseAfterFree           ASan"));
        assert!(t.contains("UseOfUninit            MSan"));
    }

    #[test]
    fn fig9_renders_survey() {
        let f = fig9();
        assert!(f.contains("GCC (total 40, by UBfuzz 16)"));
        assert!(f.contains("LLVM (total 24, by UBfuzz 14)"));
    }

    #[test]
    fn table4_shape_small() {
        let data = generator_comparison(2);
        let t = table4(&data);
        assert!(t.contains("UBfuzz"));
        assert!(t.contains("MUSIC"));
        assert!(t.contains("Csmith-NoSafe"));
        let ub = &data["UBfuzz"];
        let music = &data["MUSIC"];
        assert!(ub.total_ub() > music.total_ub(), "UBfuzz generates the most UB programs");
        assert_eq!(ub.no_ub, 0, "every UBfuzz program contains UB");
    }

    #[test]
    fn oracle_ablation_quantifies_mapping_value() {
        // In the pristine world the naive oracle's count equals the
        // discrepancy count (all false), while crash-site mapping may file
        // only invalid-report shapes.
        let stats = run_campaign(
            &CampaignConfig::builder().seeds(6).registry(DefectRegistry::pristine()).build(),
        );
        assert!(
            stats.discrepancies > 0,
            "optimization artifacts exist even with correct sanitizers"
        );
        assert!(stats.bugs.iter().all(|b| b.invalid), "only Fig. 8 shapes may be filed");
        let text = oracle_ablation(Arc::new(SimBackend::new()), 6);
        assert!(text.contains("naive oracle would file:  "), "{text}");
        assert!(text.contains(&format!("discrepancies observed:   {}", stats.discrepancies)));
    }
}
