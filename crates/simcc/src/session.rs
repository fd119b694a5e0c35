//! Staged-compile caching: memoizes the sanitizer-independent prefix of the
//! pipeline across a compile session.
//!
//! The campaign's cost model is dominated by compiler invocations: each UB
//! program is compiled across a vendor × level × sanitizer matrix, but the
//! `lower → early-opts` prefix of every one of those invocations depends
//! only on `(program, PrefixClass)` plus the [`BuildInfo`] stamp — see
//! [`crate::pipeline::prefix_class`]. A [`CompileSession`] caches that
//! prefix under `(program, class)` and re-stamps the requesting cell's
//! build identity on every hit. A program is therefore lowered once (its
//! [`PrefixClass::Lowered`] entry seeds every other class) and
//! pre-optimized once per class, however many compiler versions and levels
//! share the class; each sanitizer then replays only the sanitizer pass and
//! the (short) late cleanup.
//!
//! The session holds only what a campaign reads again: the prefix memo is
//! bounded by a key budget and a constant byte ceiling
//! ([`CompileSession::MAX_RESIDENT_BYTES`]). Reuse across campaigns and
//! invocations is the [`Backing`]'s job (the store's prefix table). The
//! sanitizer pass and late cleanup run on every compile: they are cheap,
//! and running them is what records the sanitizers' coverage hits.
//!
//! Correctness does not depend on the cache: every stage is a deterministic
//! function, so `sanitize + late-opts` over a cloned cached prefix is
//! bit-identical to the single-shot [`crate::pipeline::compile`]. The
//! session is `Sync` (mutex-guarded map, atomic counters) so one cache can
//! back every worker of a parallel campaign; sharing changes *which* lookups
//! hit, never what any compile returns.

use crate::ir::Module;
use crate::lower::CompileError;
use crate::pipeline::{
    check_supported, compile_prefix, early_opt_stage, late_opt_stage, lower_stage, prefix_class,
    sanitize_stage, CompileConfig, PrefixClass,
};
use crate::relock;
use crate::target::{BuildInfo, CompilerId, OptLevel};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use ubfuzz_minic::{pretty, Program};
use ubfuzz_obs::{self as obs, Stage};

/// A program identity for cache lookups: a hash of the canonical
/// pretty-printed source, plus the source itself so a hash collision can
/// never alias two distinct programs (entries are verified on hit).
///
/// Compute it once per program ([`CompileSession::fingerprint`]) and reuse it
/// across the program's whole compile matrix.
#[derive(Debug, Clone)]
pub struct ProgramFingerprint {
    hash: u64,
    source: String,
}

impl ProgramFingerprint {
    /// Fingerprints `program`.
    pub fn of(program: &Program) -> ProgramFingerprint {
        let source = pretty::print(program);
        let mut h = DefaultHasher::new();
        source.hash(&mut h);
        ProgramFingerprint { hash: h.finish(), source }
    }

    /// A free placeholder for paths that never consult the cache.
    pub fn empty() -> ProgramFingerprint {
        ProgramFingerprint { hash: 0, source: String::new() }
    }

    /// Whether this is the free placeholder (no source captured).
    pub fn source_is_empty(&self) -> bool {
        self.source.is_empty()
    }
}

/// Cache telemetry: prefix lookups served from the cache vs. computed,
/// and the sanitizer passes run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Prefix lookups served from the cache.
    pub hits: u64,
    /// Prefix lookups that had to run `lower → early-opts`.
    pub misses: u64,
    /// Always 0: nothing caches a sanitized module. Kept only because the
    /// benchmark harness (`ubbench`) still reads it; it goes with the next
    /// change to the benchmark.
    pub san_hits: u64,
    /// Sanitizer compiles on an enabled session: each runs the sanitizer
    /// pass.
    pub san_misses: u64,
}

impl SessionStats {
    /// Fraction of prefix lookups served from the cache (0.0 when idle).
    pub fn reuse_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

impl std::ops::Add for SessionStats {
    type Output = SessionStats;
    fn add(self, rhs: SessionStats) -> SessionStats {
        SessionStats {
            hits: self.hits + rhs.hits,
            misses: self.misses + rhs.misses,
            san_hits: self.san_hits + rhs.san_hits,
            san_misses: self.san_misses + rhs.san_misses,
        }
    }
}

/// Saturating delta between two snapshots of the (monotone) counters —
/// how campaigns report per-run telemetry off a session shared across runs.
impl std::ops::Sub for SessionStats {
    type Output = SessionStats;
    fn sub(self, rhs: SessionStats) -> SessionStats {
        SessionStats {
            hits: self.hits.saturating_sub(rhs.hits),
            misses: self.misses.saturating_sub(rhs.misses),
            san_hits: self.san_hits.saturating_sub(rhs.san_hits),
            san_misses: self.san_misses.saturating_sub(rhs.san_misses),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct PrefixKey {
    hash: u64,
    class: PrefixClass,
}

/// The prefix layer's backing key: a program's fingerprint hash and the
/// requesting `(compiler, opt)` cell. The prefix is a function of the
/// cell's [`PrefixCell::class`] only, so a backing may serve a cell an
/// entry computed by another cell of its class; the session re-stamps the
/// requesting cell's [`BuildInfo`] on every hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PrefixCell {
    /// Fingerprint hash of the canonical source.
    pub hash: u64,
    /// Compiler identity of the cell.
    pub compiler: CompilerId,
    /// Optimization level of the cell.
    pub opt: OptLevel,
}

impl PrefixCell {
    /// The cell's [`PrefixClass`]: what its early-opt stage reads.
    pub fn class(&self) -> PrefixClass {
        prefix_class(self.compiler, self.opt)
    }
}

/// One persisted cache entry, as a [`Backing`] serves it for a key the
/// caller already holds.
#[derive(Debug, Clone)]
pub struct Persisted {
    /// Canonical pretty-printed source: the collision guard the session
    /// checks before using the module.
    pub source: String,
    /// The cached `lower → early-opts` module.
    pub module: Module,
}

/// A persistence sink/source behind the session's prefix memo.
///
/// A backing makes the session warm across *invocations*: every lookup the
/// session cannot answer from memory first asks the backing for an entry a
/// previous process persisted, and every fresh computation is offered back
/// for persistence. Implementations live outside this crate (the
/// `ubfuzz-store` on-disk tables); the contract here is deliberately minimal
/// so the session never learns about files, formats or recovery.
///
/// Correctness note: a backing can only serve or re-observe outputs of
/// deterministic stages, so it can change *when* a stage runs, never what a
/// compile returns.
pub trait Backing: Send + Sync + std::fmt::Debug {
    /// The persisted entry of `key`, if any; the session checks its source.
    /// The entry may have been computed by another cell of the key's
    /// class. Called outside the session's lock; `None` on anything the
    /// backing cannot serve.
    fn fetch(&self, key: &PrefixCell) -> Option<Persisted>;

    /// Offers a freshly computed module for persistence, by reference so
    /// the miss path pays no clone (the backing serializes from the
    /// borrow). Called after each miss, outside the session's lock — first
    /// for the program's [`PrefixClass::Lowered`] entry when the miss
    /// lowered it. An epoch clear (key budget or byte ceiling) makes the
    /// session recompute and re-offer what the backing could not serve, so
    /// implementations are expected to dedup re-offers.
    fn persist(&self, key: PrefixCell, source: &str, module: &Module);

    /// Observes a hit on `key` — recency feedback for backings with a byte
    /// budget (least-recently-hit eviction). The key is the requesting
    /// cell, which may differ from the cell that computed the entry; a
    /// backing keyed by [`PrefixClass`] maps every cell of a class to the
    /// same record. Default: ignored.
    fn note_hit(&self, key: &PrefixCell) {
        let _ = key;
    }
}

/// The resident prefix entries and their estimated heap bytes
/// ([`Module::heap_bytes`] plus the stored source), under one lock. The
/// stored source tells a key's entries apart on a fingerprint collision.
/// Modules sit behind an `Arc`: a lookup copies the pointer under the lock
/// and deep-clones the module after releasing it.
#[derive(Debug, Default)]
struct Memo {
    map: HashMap<PrefixKey, Vec<(String, Arc<Module>)>>,
    bytes: usize,
}

/// A memo entry ready to insert: key, estimated bytes, module.
type Entry = (PrefixKey, usize, Arc<Module>);

impl Memo {
    fn get(&self, key: &PrefixKey, fp: &ProgramFingerprint) -> Option<&Arc<Module>> {
        self.map.get(key)?.iter().find(|(src, _)| *src == fp.source).map(|(_, m)| m)
    }

    /// Inserts `fp`'s entries with one budget check, epoch-clearing first
    /// when they would exceed `capacity` keys or
    /// [`CompileSession::MAX_RESIDENT_BYTES`] — so a miss that adds two
    /// keys never clears the map between its own inserts. An entry already
    /// resident (the loser of a race on a cold key) adds nothing, and one
    /// larger than the ceiling on its own is never cached.
    fn insert(&mut self, capacity: usize, entries: Vec<Entry>, fp: &ProgramFingerprint) {
        let ceiling = CompileSession::MAX_RESIDENT_BYTES;
        let fresh: Vec<Entry> = entries
            .into_iter()
            .filter(|(key, bytes, _)| *bytes <= ceiling && self.get(key, fp).is_none())
            .collect();
        let bytes: usize = fresh.iter().map(|(_, bytes, _)| bytes).sum();
        if !self.map.is_empty()
            && (self.map.len() + fresh.len() > capacity || self.bytes + bytes > ceiling)
        {
            self.map.clear();
            self.bytes = 0;
            obs::count("prefix_evictions", 1);
        }
        for (key, bytes, module) in fresh {
            if self.bytes + bytes <= ceiling {
                self.map.entry(key).or_default().push((fp.source.clone(), module));
                self.bytes += bytes;
            }
        }
    }
}

/// A shared compilation session with a memoized pipeline prefix.
///
/// Thread-safe; a disabled session ([`CompileSession::disabled`]) degrades to
/// plain [`crate::pipeline::compile`] and records no telemetry, which is what
/// cache-ablation comparisons toggle.
///
/// Lowering reads only the program, so an enabled session lowers each
/// program once: a miss on any class but [`PrefixClass::Lowered`] starts
/// from a clone of the program's `Lowered` entry (fetching it from the
/// backing, or lowering, caching and persisting it, when absent — an
/// internal fetch, not a counted lookup) and runs only the early-opt stage.
///
/// Memory is bounded by bytes ([`CompileSession::resident_bytes`] never
/// exceeds [`CompileSession::MAX_RESIDENT_BYTES`]) and sanitized modules
/// are never held.
/// The cache lock recovers from poisoning (a compile that panicked
/// elsewhere): the memo only holds deterministic stage outputs, so a
/// recovered entry is still correct.
#[derive(Debug)]
pub struct CompileSession {
    /// The prefix memo; `None` disables caching entirely.
    cache: Option<Mutex<Memo>>,
    /// Key budget (≈ entry budget: buckets exceed one entry only on a
    /// fingerprint collision). Exceeding it, or the byte ceiling, clears
    /// the memo wholesale (epoch eviction — cross-program reuse is
    /// negligible, so old epochs are dead weight).
    capacity: usize,
    /// Cross-invocation persistence, when attached
    /// ([`CompileSession::with_backing`]).
    backing: Option<Arc<dyn Backing>>,
    hits: AtomicU64,
    misses: AtomicU64,
    san_misses: AtomicU64,
    /// Cache locks recovered after a panicking holder poisoned them.
    lock_recoveries: AtomicUsize,
}

impl Default for CompileSession {
    fn default() -> CompileSession {
        CompileSession::new()
    }
}

impl CompileSession {
    /// Default entry budget: comfortably above one program's full matrix
    /// (2 vendors × 5 levels) times the in-flight program window of any
    /// realistic worker count.
    pub const DEFAULT_CAPACITY: usize = 2048;

    /// The prefix memo's ceiling in estimated heap bytes: room for every
    /// in-flight program's prefixes, a small fraction of a campaign's.
    pub const MAX_RESIDENT_BYTES: usize = 16 << 20;

    /// An enabled session with the default capacity.
    pub fn new() -> CompileSession {
        CompileSession::with_capacity(CompileSession::DEFAULT_CAPACITY)
    }

    /// An enabled session holding at most `capacity` cached prefixes, and
    /// never more than [`CompileSession::MAX_RESIDENT_BYTES`] of them.
    pub fn with_capacity(capacity: usize) -> CompileSession {
        CompileSession {
            cache: Some(Mutex::default()),
            capacity: capacity.max(1),
            ..CompileSession::disabled()
        }
    }

    /// An enabled session warmed from (and persisting to) `backing`.
    ///
    /// Every in-memory miss asks [`Backing::fetch`] before computing;
    /// a fetched entry counts as an ordinary hit, so a second invocation
    /// over a complete backing reports zero misses. Fetched entries are not
    /// inserted into the memo — memory holds what this process computed, the
    /// backing serves what earlier processes computed — and every fresh
    /// computation is offered back through [`Backing::persist`].
    pub fn with_backing(capacity: usize, backing: Arc<dyn Backing>) -> CompileSession {
        CompileSession { backing: Some(backing), ..CompileSession::with_capacity(capacity) }
    }

    /// A pass-through session: every compile runs the full pipeline and no
    /// telemetry is recorded.
    pub fn disabled() -> CompileSession {
        CompileSession {
            cache: None,
            capacity: 0,
            backing: None,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            san_misses: AtomicU64::new(0),
            lock_recoveries: AtomicUsize::new(0),
        }
    }

    /// Whether caching is enabled.
    pub fn enabled(&self) -> bool {
        self.cache.is_some()
    }

    /// Fingerprints a program for [`CompileSession::compile_fp`].
    pub fn fingerprint(program: &Program) -> ProgramFingerprint {
        ProgramFingerprint::of(program)
    }

    /// Fingerprints `program` only when this session caches; disabled
    /// sessions never read the fingerprint, so skip the pretty-print+hash.
    pub fn fingerprint_for(&self, program: &Program) -> ProgramFingerprint {
        if self.enabled() {
            ProgramFingerprint::of(program)
        } else {
            ProgramFingerprint::empty()
        }
    }

    /// Hit/miss counters so far.
    pub fn stats(&self) -> SessionStats {
        SessionStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            san_hits: 0,
            san_misses: self.san_misses.load(Ordering::Relaxed),
        }
    }

    /// Estimated heap bytes the prefix memo holds now — never above
    /// [`CompileSession::MAX_RESIDENT_BYTES`]; 0 when disabled.
    pub fn resident_bytes(&self) -> usize {
        self.cache.as_ref().map_or(0, |cache| relock(cache, &self.lock_recoveries).bytes)
    }

    /// Compiles `program` under `cfg`, reusing the cached prefix when
    /// available. Output is bit-identical to [`crate::pipeline::compile`].
    ///
    /// # Errors
    ///
    /// Exactly the failures of [`crate::pipeline::compile`]: frontend-subset
    /// violations and unsupported sanitizer combinations.
    pub fn compile(
        &self,
        program: &Program,
        cfg: &CompileConfig<'_>,
    ) -> Result<Module, CompileError> {
        self.compile_fp(&ProgramFingerprint::of(program), program, cfg)
    }

    /// [`CompileSession::compile`] with a precomputed fingerprint — use this
    /// on the matrix hot path so the program is printed and hashed once, not
    /// once per cell.
    pub fn compile_fp(
        &self,
        fp: &ProgramFingerprint,
        program: &Program,
        cfg: &CompileConfig<'_>,
    ) -> Result<Module, CompileError> {
        check_supported(cfg)?;
        if cfg.sanitizer.is_some() && self.enabled() {
            self.san_misses.fetch_add(1, Ordering::Relaxed);
            obs::count("san_misses", 1);
        }
        // Disabled sessions fall through to the uncached pipeline inside
        // `prefix`; without a sanitizer `sanitize_stage` is a no-op.
        let mut module = self.prefix(fp, program, cfg.compiler, cfg.opt)?;
        obs::time(Stage::Sanitize, 0, || sanitize_stage(&mut module, cfg));
        obs::time(Stage::LateOpt, 0, || late_opt_stage(&mut module, cfg.opt));
        Ok(module)
    }

    /// The memoized `lower → early-opts` prefix, keyed by the cell's
    /// [`PrefixClass`] and stamped with the cell's [`BuildInfo`].
    fn prefix(
        &self,
        fp: &ProgramFingerprint,
        program: &Program,
        compiler: CompilerId,
        opt: OptLevel,
    ) -> Result<Module, CompileError> {
        let Some(cache) = &self.cache else {
            return obs::time(Stage::PrefixCompile, 0, || compile_prefix(program, compiler, opt));
        };
        let build = BuildInfo { compiler, opt };
        let cell = PrefixCell { hash: fp.hash, compiler, opt };
        let key = PrefixKey { hash: fp.hash, class: cell.class() };
        let hit = self.resident(&key, fp).or_else(|| {
            self.stored(&cell, fp).inspect(|_| obs::count("prefix_store_hits", 1))
        });
        if let Some(mut module) = hit {
            self.hits.fetch_add(1, Ordering::Relaxed);
            obs::count("prefix_hits", 1);
            // Recency feedback, outside the cache lock. The requesting
            // cell has the key's class, so it names the same record as the
            // cell that computed the entry.
            if let Some(backing) = &self.backing {
                backing.note_hit(&cell);
            }
            module.build = Some(build);
            return Ok(module);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        obs::count("prefix_misses", 1);
        // Lowering reads only the program, so a miss on any other class
        // starts from a clone of the program's Lowered entry — from memory,
        // else from the backing, else lowered here (stamped -O0, as its own
        // cell would). That fetch is not a counted lookup and opens no span
        // of its own.
        let lowered_cell = PrefixCell { opt: OptLevel::O0, ..cell };
        let lowered_key = PrefixKey { hash: fp.hash, class: PrefixClass::Lowered };
        let (module, fresh_lowered) = obs::time(Stage::PrefixCompile, 0, || {
            if key.class == PrefixClass::Lowered {
                return Ok((lower_stage(program, compiler, opt)?, None));
            }
            let lowered =
                self.resident(&lowered_key, fp).or_else(|| self.stored(&lowered_cell, fp));
            let (mut module, fresh) = match lowered {
                Some(module) => (module, None),
                None => {
                    let lowered = lower_stage(program, compiler, OptLevel::O0)?;
                    (lowered.clone(), Some(Arc::new(lowered)))
                }
            };
            module.build = Some(build);
            early_opt_stage(&mut module, compiler, opt);
            Ok((module, fresh))
        })?;
        // Clone and size outside the lock; the insert only moves `Arc`s.
        let sized = |key, m: Arc<Module>| (key, m.heap_bytes() + fp.source.len(), m);
        let mut entries = vec![sized(key, Arc::new(module.clone()))];
        entries.extend(fresh_lowered.clone().map(|lowered| sized(lowered_key, lowered)));
        relock(cache, &self.lock_recoveries).insert(self.capacity, entries, fp);
        // Persist outside the cache lock: the backing does file I/O and
        // must not serialize other workers' lookups behind it. Borrowed
        // fields: the miss path pays no clone beyond the memo insert. A
        // freshly lowered entry is persisted too, so a later invocation
        // serves the program's -O0 cells without a miss.
        if let Some(backing) = &self.backing {
            if let Some(lowered) = &fresh_lowered {
                backing.persist(lowered_cell, &fp.source, lowered);
            }
            backing.persist(cell, &fp.source, &module);
        }
        Ok(module)
    }

    /// `fp`'s resident prefix under `key`, cloned once the lock is released.
    fn resident(&self, key: &PrefixKey, fp: &ProgramFingerprint) -> Option<Module> {
        let entry = relock(self.cache.as_ref()?, &self.lock_recoveries).get(key, fp).cloned();
        entry.map(|module| Module::clone(&module))
    }

    /// The backing's entry for `cell` when its source is `fp`'s: a
    /// fingerprint collision never serves another program's module.
    fn stored(&self, cell: &PrefixCell, fp: &ProgramFingerprint) -> Option<Module> {
        let entry = self.backing.as_ref()?.fetch(cell)?;
        (entry.source == fp.source).then_some(entry.module)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::defects::DefectRegistry;
    use crate::ir::Sanitizer;
    use crate::pipeline::compile;
    use crate::target::Vendor;
    use ubfuzz_minic::parse;

    fn program() -> Program {
        parse(
            "int g[4]; int main(void) { int i = 1; g[i] = 3; return g[i] + g[0] / (i + 1); }",
        )
        .unwrap()
    }

    /// Compiles every level × sanitizer cell of `compiler` through
    /// `session`, checking each against the single-shot pipeline.
    fn check_compiler_matrix(
        session: &CompileSession,
        fp: &ProgramFingerprint,
        p: &Program,
        reg: &DefectRegistry,
        compiler: CompilerId,
    ) {
        for opt in OptLevel::ALL {
            for sanitizer in
                [None, Some(Sanitizer::Asan), Some(Sanitizer::Ubsan), Some(Sanitizer::Msan)]
            {
                let cfg = CompileConfig {
                    compiler,
                    opt,
                    sanitizer,
                    registry: reg,
                    san_policy: crate::partition::SanPolicy::Full,
                };
                let direct = compile(p, &cfg);
                let cached = session.compile_fp(fp, p, &cfg);
                match (direct, cached) {
                    (Ok(a), Ok(b)) => assert_eq!(a, b, "{compiler} {opt} {sanitizer:?}"),
                    (Err(_), Err(_)) => {}
                    (a, b) => panic!("outcome mismatch: {a:?} vs {b:?}"),
                }
            }
        }
    }

    #[test]
    fn cached_compile_matches_uncached_across_matrix() {
        let p = program();
        let reg = DefectRegistry::full();
        let session = CompileSession::new();
        let fp = CompileSession::fingerprint(&p);
        for vendor in Vendor::ALL {
            check_compiler_matrix(&session, &fp, &p, &reg, CompilerId::dev(vendor));
        }
        let stats = session.stats();
        // The dev heads' 2 vendors × 5 levels fall into 7 prefix classes
        // (-O0, -O1 and -Os are shared across vendors), each first missed
        // by one cell; every sanitizer cell runs the sanitizer pass over a
        // prefix that is then mostly *resident* (GCC×MSan never gets past
        // check_supported).
        assert_eq!(stats.misses, 7, "{stats:?}");
        assert!(stats.hits > 0, "{stats:?}");
        assert!(stats.reuse_ratio() > 0.5, "{stats:?}");
        assert_eq!(stats.san_misses, 25, "one sanitizer pass per cell: {stats:?}");
        assert_eq!(stats.san_hits, 0, "{stats:?}");
        // Replaying one sanitizer cell reruns the sanitizer pass (the
        // session holds no sanitized modules) over the resident prefix:
        // identical output, no prefix recomputed.
        let cfg = CompileConfig::dev(Vendor::Llvm, OptLevel::O2, Some(Sanitizer::Asan), &reg);
        assert_eq!(session.compile_fp(&fp, &p, &cfg).unwrap(), compile(&p, &cfg).unwrap());
        let replay = session.stats();
        assert_eq!(replay.san_misses, stats.san_misses + 1, "{replay:?}");
        assert_eq!(replay.hits, stats.hits + 1, "the replay hits the resident prefix");
        assert_eq!(replay.misses, stats.misses, "{replay:?}");
        // Every stable version shares the heads' classes except GCC < 10 at
        // -O2 (unroll threshold 4) and LLVM < 12 at -O3 (threshold 12):
        // exactly two more misses, and every re-stamped hit stays identical.
        for vendor in Vendor::ALL {
            for version in vendor.stable_versions() {
                check_compiler_matrix(&session, &fp, &p, &reg, CompilerId { vendor, version });
            }
        }
        assert_eq!(session.stats().misses, 9, "{:?}", session.stats());
    }

    #[test]
    fn disabled_session_is_pass_through() {
        let p = program();
        let reg = DefectRegistry::full();
        let session = CompileSession::disabled();
        let cfg = CompileConfig::dev(Vendor::Llvm, OptLevel::O2, Some(Sanitizer::Asan), &reg);
        assert!(!session.enabled());
        assert_eq!(session.compile(&p, &cfg).unwrap(), compile(&p, &cfg).unwrap());
        assert_eq!(session.stats(), SessionStats::default());
    }

    #[test]
    fn unsupported_combination_still_fails() {
        let p = program();
        let reg = DefectRegistry::full();
        let session = CompileSession::new();
        let cfg = CompileConfig::dev(Vendor::Gcc, OptLevel::O0, Some(Sanitizer::Msan), &reg);
        assert!(session.compile(&p, &cfg).is_err());
        assert_eq!(session.stats(), SessionStats::default(), "no prefix work for rejects");
    }

    #[test]
    fn capacity_overflow_clears_and_stays_correct() {
        let reg = DefectRegistry::full();
        let session = CompileSession::with_capacity(2);
        for src in ["int main(void) { return 0; }", "int main(void) { return 1; }",
                    "int main(void) { return 2; }", "int main(void) { return 0; }"]
        {
            let p = parse(src).unwrap();
            let cfg = CompileConfig::dev(Vendor::Gcc, OptLevel::O1, None, &reg);
            assert_eq!(session.compile(&p, &cfg).unwrap(), compile(&p, &cfg).unwrap());
        }
        let stats = session.stats();
        assert_eq!(stats.hits + stats.misses, 4);
    }

    #[test]
    fn stats_add_sub_and_ratio() {
        let a = SessionStats { hits: 3, misses: 1, ..Default::default() };
        let b = SessionStats { hits: 1, misses: 3, ..Default::default() };
        assert_eq!(a + b, SessionStats { hits: 4, misses: 4, ..Default::default() });
        assert_eq!((a + b).reuse_ratio(), 0.5);
        assert_eq!(SessionStats::default().reuse_ratio(), 0.0);
        assert_eq!((a + b) - a, b, "snapshot delta recovers the increment");
        assert_eq!(a - (a + b), SessionStats::default(), "delta saturates, never wraps");
    }

    #[test]
    fn epoch_eviction_forgets_old_prefixes_and_accounts_for_it() {
        // Each -O1 miss caches two keys (the program's Lowered entry and
        // its Basic entry), so capacity 4 holds two programs: the third
        // program triggers a wholesale epoch clear, so the first program
        // must miss again on replay while a post-clear resident still hits.
        let reg = DefectRegistry::full();
        let session = CompileSession::with_capacity(4);
        let cfg = CompileConfig::dev(Vendor::Gcc, OptLevel::O1, None, &reg);
        let a = parse("int main(void) { return 0; }").unwrap();
        let b = parse("int main(void) { return 1; }").unwrap();
        let c = parse("int main(void) { return 2; }").unwrap();
        session.compile(&a, &cfg).unwrap(); // miss, {a}
        session.compile(&b, &cfg).unwrap(); // miss, {a, b}
        assert_eq!(session.stats(), SessionStats { hits: 0, misses: 2, ..Default::default() });
        session.compile(&a, &cfg).unwrap(); // hit while resident
        assert_eq!(session.stats(), SessionStats { hits: 1, misses: 2, ..Default::default() });
        session.compile(&c, &cfg).unwrap(); // miss; at capacity → epoch clear, {c}
        assert_eq!(session.stats(), SessionStats { hits: 1, misses: 3, ..Default::default() });
        session.compile(&a, &cfg).unwrap(); // evicted with its epoch → miss again
        assert_eq!(session.stats(), SessionStats { hits: 1, misses: 4, ..Default::default() });
        session.compile(&c, &cfg).unwrap(); // the new epoch's resident still hits
        assert_eq!(session.stats(), SessionStats { hits: 2, misses: 4, ..Default::default() });
        // Eviction is invisible to outputs.
        assert_eq!(session.compile(&a, &cfg).unwrap(), compile(&a, &cfg).unwrap());
    }

    #[test]
    fn byte_ceiling_bounds_the_memo_and_evicted_programs_miss_again() {
        // Programs far larger than the test's others, with the key budget out
        // of reach: only the byte ceiling can evict. At -O0 each compile
        // caches one Lowered entry.
        let reg = DefectRegistry::full();
        let cfg = CompileConfig::dev(Vendor::Llvm, OptLevel::O0, None, &reg);
        let big = |tag: usize| {
            let body: String = (0..3000).map(|k| format!("x = x + {};", k % 7 + tag)).collect();
            parse(&format!("int main(void) {{ int x = {tag}; {body} return x; }}")).unwrap()
        };
        let programs: Vec<Program> = (0..24).map(big).collect();
        let estimated: usize = programs
            .iter()
            .map(|p| {
                let source = CompileSession::fingerprint(p).source.len();
                compile_prefix(p, cfg.compiler, cfg.opt).unwrap().heap_bytes() + source
            })
            .sum();
        assert!(estimated > CompileSession::MAX_RESIDENT_BYTES, "{estimated} bytes all told");

        let sink = Arc::new(obs::MetricsSink::new());
        let _attached = obs::attach(sink.clone());
        let session = CompileSession::with_capacity(1 << 20);
        for p in &programs {
            assert_eq!(session.compile(p, &cfg).unwrap(), compile(p, &cfg).unwrap());
            assert!(session.resident_bytes() <= CompileSession::MAX_RESIDENT_BYTES);
            assert!(session.resident_bytes() > 0);
        }
        assert_eq!(session.stats(), SessionStats { misses: 24, ..Default::default() });
        assert!(sink.snapshot().counter("prefix_evictions") > 0, "the ceiling was reached");
        // The first program went with an earlier epoch; the last is resident.
        let (first, last) = (&programs[0], &programs[23]);
        assert_eq!(session.compile(first, &cfg).unwrap(), compile(first, &cfg).unwrap());
        assert_eq!(session.stats(), SessionStats { misses: 25, ..Default::default() });
        assert_eq!(session.compile(last, &cfg).unwrap(), compile(last, &cfg).unwrap());
        assert_eq!(session.stats(), SessionStats { hits: 1, misses: 25, ..Default::default() });
        assert!(session.resident_bytes() <= CompileSession::MAX_RESIDENT_BYTES);
    }

    /// An in-memory backing: what `ubfuzz-store` does with a file, minus
    /// the file. Like the store's prefix table, it dedups and matches a
    /// cell by its class.
    #[derive(Debug, Default)]
    struct MemBacking {
        entries: Mutex<Vec<(PrefixCell, Persisted)>>,
        hits: Mutex<u64>,
    }

    fn same_class(a: &PrefixCell, b: &PrefixCell) -> bool {
        (a.hash, a.class()) == (b.hash, b.class())
    }

    impl Backing for MemBacking {
        fn fetch(&self, key: &PrefixCell) -> Option<Persisted> {
            let entries = self.entries.lock().unwrap();
            entries.iter().find(|(k, _)| same_class(k, key)).map(|(_, e)| e.clone())
        }

        fn persist(&self, key: PrefixCell, source: &str, module: &Module) {
            let mut entries = self.entries.lock().unwrap();
            if !entries.iter().any(|(k, _)| same_class(k, &key)) {
                let entry = Persisted { source: source.to_string(), module: module.clone() };
                entries.push((key, entry));
            }
        }

        fn note_hit(&self, _key: &PrefixCell) {
            *self.hits.lock().unwrap() += 1;
        }
    }

    #[test]
    fn registry_epochs_share_the_prefix_and_sanitize_apart() {
        // The same (program, compiler, opt, sanitizer) under different
        // defect registries: the prefix does not read the registry, so the
        // second compile hits it, and the sanitizer pass that does read it
        // runs again for each.
        let full = DefectRegistry::full();
        let pristine = DefectRegistry::pristine();
        let p = program();
        let session = CompileSession::new();
        let cfg_full = CompileConfig::dev(Vendor::Gcc, OptLevel::O2, Some(Sanitizer::Asan), &full);
        let cfg_pristine =
            CompileConfig::dev(Vendor::Gcc, OptLevel::O2, Some(Sanitizer::Asan), &pristine);
        for _ in 0..2 {
            assert_eq!(session.compile(&p, &cfg_full).unwrap(), compile(&p, &cfg_full).unwrap());
            let b = session.compile(&p, &cfg_pristine).unwrap();
            assert_eq!(b, compile(&p, &cfg_pristine).unwrap());
        }
        assert_eq!(
            session.stats(),
            SessionStats { hits: 3, misses: 1, san_hits: 0, san_misses: 4 }
        );
    }

    #[test]
    fn san_policies_share_the_prefix_and_never_alias() {
        // The same (program, compiler, opt, sanitizer, registry) under
        // different partial-sanitization policies: one prefix serves all
        // three, and each policy's sanitizer pass keeps its own site subset.
        use crate::partition::SanPolicy;
        let reg = DefectRegistry::full();
        let p = program();
        let session = CompileSession::with_backing(64, Arc::new(MemBacking::default()));
        let full = CompileConfig::dev(Vendor::Gcc, OptLevel::O2, Some(Sanitizer::Asan), &reg);
        let partial = full.clone().with_policy(SanPolicy::Partial { ratio_pm: 400, salt: 7 });
        let none = full.clone().with_policy(SanPolicy::None);
        let a = session.compile(&p, &full).unwrap();
        let b = session.compile(&p, &partial).unwrap();
        let c = session.compile(&p, &none).unwrap();
        assert_eq!(a, compile(&p, &full).unwrap());
        assert_eq!(b, compile(&p, &partial).unwrap());
        assert_eq!(c, compile(&p, &none).unwrap());
        assert!(a.san.skipped_sites.is_empty(), "full policy skips nothing");
        assert!(!c.san.skipped_sites.is_empty(), "none policy records every site");
        // Replays in the other order keep each policy's own output.
        assert_eq!(session.compile(&p, &none).unwrap(), c);
        assert_eq!(session.compile(&p, &partial).unwrap(), b);
        assert_eq!(session.compile(&p, &full).unwrap(), a);
        assert_eq!(
            session.stats(),
            SessionStats { hits: 5, misses: 1, san_hits: 0, san_misses: 6 }
        );
    }

    #[test]
    fn full_ratio_partial_policy_is_byte_identical_to_full() {
        use crate::partition::SanPolicy;
        let reg = DefectRegistry::full();
        let p = program();
        for vendor in Vendor::ALL {
            for opt in OptLevel::ALL {
                for sanitizer in [Sanitizer::Asan, Sanitizer::Ubsan, Sanitizer::Msan] {
                    let full = CompileConfig::dev(vendor, opt, Some(sanitizer), &reg);
                    let saturated = full
                        .clone()
                        .with_policy(SanPolicy::Partial { ratio_pm: 1000, salt: 99 });
                    match (compile(&p, &full), compile(&p, &saturated)) {
                        (Ok(a), Ok(b)) => {
                            assert_eq!(a, b, "{vendor} {opt} {sanitizer:?}");
                            assert!(b.san.skipped_sites.is_empty());
                        }
                        (Err(_), Err(_)) => {}
                        (a, b) => panic!("outcome mismatch: {a:?} vs {b:?}"),
                    }
                }
            }
        }
    }

    #[test]
    fn backed_session_persists_misses_and_preloads_them() {
        let reg = DefectRegistry::full();
        let p = program();
        let cfg = CompileConfig::dev(Vendor::Llvm, OptLevel::O2, Some(Sanitizer::Asan), &reg);
        let backing = std::sync::Arc::new(MemBacking::default());

        // First "invocation": cold, misses once, persists the prefix.
        let first = CompileSession::with_backing(64, backing.clone());
        assert_eq!(backing.entries.lock().unwrap().len(), 0);
        let out_first = first.compile(&p, &cfg).unwrap();
        // One sanitizer pass over a prefix that missed.
        assert_eq!(first.stats(), SessionStats { hits: 0, misses: 1, san_hits: 0, san_misses: 1 });
        // The miss persists its -O2 prefix and the Lowered entry it
        // started from.
        assert_eq!(backing.entries.lock().unwrap().len(), 2);

        // Second "invocation": the in-memory miss is served by the backing,
        // so the same compile is a pure prefix hit and output is unchanged.
        let second = CompileSession::with_backing(64, backing.clone());
        assert_eq!(backing.entries.lock().unwrap().len(), 2);
        assert_eq!(second.compile(&p, &cfg).unwrap(), out_first);
        assert_eq!(second.stats(), SessionStats { hits: 1, misses: 0, san_hits: 0, san_misses: 1 });
        assert_eq!(*backing.hits.lock().unwrap(), 1, "hit recency reaches the backing");

        // A backing far above the session's capacity stays correct.
        for src in ["int main(void) { return 1; }", "int main(void) { return 2; }"] {
            let q = parse(src).unwrap();
            second.compile(&q, &cfg).unwrap();
        }
        assert_eq!(backing.entries.lock().unwrap().len(), 6);
        let tiny = CompileSession::with_backing(2, backing.clone());
        assert_eq!(tiny.compile(&p, &cfg).unwrap(), compile(&p, &cfg).unwrap());
    }

    #[test]
    fn preload_headroom_survives_the_first_new_key_miss() {
        // A store grown to (or past) the session's capacity must stay warm
        // after the first miss. Each -O1 program persists two entries
        // (Lowered, then Basic) and a new program's -O1 miss adds both keys
        // at once, epoch-clearing a small map; the warm entries live in the
        // backing, not the map, so every one still hits.
        let reg = DefectRegistry::full();
        let cfg = CompileConfig::dev(Vendor::Llvm, OptLevel::O1, None, &reg);
        let backing = std::sync::Arc::new(MemBacking::default());
        let warmup = CompileSession::with_backing(64, backing.clone());
        let warm_programs: Vec<Program> = (0..4)
            .map(|i| parse(&format!("int main(void) {{ return {i}; }}")).unwrap())
            .collect();
        for p in &warm_programs {
            warmup.compile(p, &cfg).unwrap();
        }
        drop(warmup);
        let store = backing.entries.lock().unwrap().clone();
        assert_eq!(store.len(), 8, "a Lowered and a Basic entry per program");

        for capacity in 4..=store.len() {
            let backing = MemBacking { entries: Mutex::new(store.clone()), ..Default::default() };
            let session = CompileSession::with_backing(capacity, std::sync::Arc::new(backing));
            let fresh = parse("int main(void) { return 40 + 2; }").unwrap();
            session.compile(&fresh, &cfg).unwrap();
            assert_eq!(session.stats(), SessionStats { hits: 0, misses: 1, ..Default::default() });
            for p in &warm_programs {
                assert_eq!(session.compile(p, &cfg).unwrap(), compile(p, &cfg).unwrap());
            }
            assert_eq!(
                session.stats(),
                SessionStats { hits: 4, misses: 1, ..Default::default() },
                "capacity {capacity}: warm entries must survive the first miss"
            );
        }
    }

    #[test]
    fn lowering_runs_once_per_program_and_hits_restamp_the_build() {
        let reg = DefectRegistry::full();
        let p = program();
        let session = CompileSession::new();
        let fp = CompileSession::fingerprint(&p);
        // -O1 first: its miss lowers the program and caches the Lowered
        // entry internally, so the later -O0 lookup is a counted hit.
        let o1 = CompileConfig::dev(Vendor::Gcc, OptLevel::O1, None, &reg);
        let o0 = CompileConfig::dev(Vendor::Llvm, OptLevel::O0, None, &reg);
        assert_eq!(session.compile_fp(&fp, &p, &o1).unwrap(), compile(&p, &o1).unwrap());
        assert_eq!(session.stats(), SessionStats { hits: 0, misses: 1, ..Default::default() });
        let m = session.compile_fp(&fp, &p, &o0).unwrap();
        assert_eq!(session.stats(), SessionStats { hits: 1, misses: 1, ..Default::default() });
        assert_eq!(m, compile(&p, &o0).unwrap());
        assert_eq!(m.build, Some(BuildInfo { compiler: o0.compiler, opt: OptLevel::O0 }));
        // A stable version in the same class hits and carries its own stamp.
        let old = CompileConfig { compiler: CompilerId { vendor: Vendor::Llvm, version: 7 }, ..o1 };
        let m = session.compile_fp(&fp, &p, &old).unwrap();
        assert_eq!(session.stats().hits, 2);
        assert_eq!(m, compile(&p, &old).unwrap());
        assert_eq!(m.build, Some(BuildInfo { compiler: old.compiler, opt: OptLevel::O1 }));
    }

    #[test]
    fn poisoned_cache_lock_recovers_with_the_uncached_result() {
        let reg = DefectRegistry::full();
        let p = program();
        let session = CompileSession::new();
        let fp = CompileSession::fingerprint(&p);
        let cfg = CompileConfig::dev(Vendor::Gcc, OptLevel::O2, None, &reg);
        let sink = std::sync::Arc::new(obs::MetricsSink::new());
        let _attached = obs::attach(sink.clone());
        std::thread::scope(|s| {
            s.spawn(|| {
                let _guard = session.cache.as_ref().unwrap().lock().unwrap();
                panic!("compile panicked while holding the prefix cache lock");
            })
            .join()
            .unwrap_err();
        });
        assert!(session.cache.as_ref().unwrap().is_poisoned());
        assert_eq!(session.compile_fp(&fp, &p, &cfg).unwrap(), compile(&p, &cfg).unwrap());
        assert_eq!(session.lock_recoveries.load(Ordering::Relaxed), 1, "the recovery is counted");
        assert_eq!(sink.snapshot().counter("lock_recoveries"), 1, "and reaches telemetry");
        // The recovered cache keeps serving.
        assert_eq!(session.compile_fp(&fp, &p, &cfg).unwrap(), compile(&p, &cfg).unwrap());
        assert_eq!(session.stats(), SessionStats { hits: 1, misses: 1, ..Default::default() });
    }

    #[test]
    fn disabled_session_accounts_nothing_across_a_matrix() {
        // The pass-through path must not touch the counters no matter how
        // many compiles flow through it — uncached campaign telemetry
        // reads exactly zero, which the cache-ablation comparisons rely on.
        let p = program();
        let reg = DefectRegistry::full();
        let session = CompileSession::disabled();
        let fp = session.fingerprint_for(&p);
        let mut compiles = 0;
        for vendor in Vendor::ALL {
            for opt in OptLevel::ALL {
                for sanitizer in [None, Some(Sanitizer::Asan), Some(Sanitizer::Ubsan)] {
                    let cfg = CompileConfig::dev(vendor, opt, sanitizer, &reg);
                    assert_eq!(
                        session.compile_fp(&fp, &p, &cfg).unwrap(),
                        compile(&p, &cfg).unwrap(),
                        "{vendor} {opt} {sanitizer:?}"
                    );
                    compiles += 1;
                }
            }
        }
        assert_eq!(compiles, 30);
        assert_eq!(session.stats(), SessionStats::default(), "no telemetry when disabled");
        // And the disabled fingerprint is the free placeholder.
        assert!(fp.source_is_empty(), "disabled sessions skip the pretty-print");
    }
}
