//! Self-coverage of the sanitizer implementation (Table 5 substrate, and
//! the feedback signal for coverage-guided campaigns).
//!
//! The paper measures Gcov line/function/branch coverage of the
//! sanitizer-related files in GCC and LLVM while compiling and running the
//! generated programs. The analogue here: the sanitizer passes and the
//! sanitizer runtime (in `ubfuzz-simvm`) are annotated with named coverage
//! points — function entries, lines (logical decision groups) and branch
//! directions — registered in a static table so percentages have a fixed
//! denominator.
//!
//! **The registry is the id space.** [`POINTS`] lists every point once,
//! sorted by `(file, point)`; a point's index in it is its [`PointId`]. A
//! hit site names its point with [`point!`] (or records it with [`hit!`]),
//! which resolves the pair to its id in a constant, so a hit on a point
//! the registry does not list fails to compile. The sorted order is also
//! the canonical order: [`CovDelta`] is a fixed bitset with one bit per
//! vendor × point, laid out vendor-major in [`Vendor::ALL`] order, so
//! walking its bits yields points in `(vendor, file, point)` order — the
//! order of the points in `frontier.bin` and of the frontier fingerprint.
//! Recording a hit sets one bit; a merge is a word-wise OR.
//!
//! Besides Gcov's three kinds, the registry holds [`PointKind::Policy`]
//! points: the `policy_skip` branch each sanitizer pass takes when a
//! partial sanitization policy drops a check site. They are feedback for
//! the frontier like any other point, but [`stats_of`] does not count them,
//! so Table 5's denominators are the Gcov-style ones.
//!
//! **Capture is scoped, not global.** Hits are recorded only while a
//! capture frame is installed on the recording thread: [`capture`] collects
//! one unit's hits into a [`CovDelta`] the scheduler threads back to the
//! campaign frontier, and a [`Collector`] aggregates a whole measurement
//! window across worker threads. Outside any frame, [`hit()`] is a no-op —
//! there is no process-wide map, so concurrent campaigns (or serve workers
//! hosted in one process) can no longer cross-contaminate each other's
//! coverage, and a panicking unit can poison at most the collector it was
//! attached to, which recovers the lock and reports the event instead of
//! propagating the panic to every later unit.

use crate::relock;
use crate::target::Vendor;
use std::cell::RefCell;
use std::cmp::Ordering as Cmp;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Coverage point kinds: Gcov's LC/FC/BC columns, plus the partial-policy
/// skip branches that Table 5 does not count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PointKind {
    /// Line (statement-group) coverage.
    Line,
    /// Function coverage.
    Func,
    /// Branch-direction coverage.
    Branch,
    /// A check site dropped by a partial sanitization policy. Feedback for
    /// the frontier only; [`stats_of`] leaves it out of every percentage.
    Policy,
}

/// The static registry of all sanitizer-related coverage points:
/// `(file, point name, kind)`, sorted by `(file, point)` (checked at
/// compile time). A point's index is its [`PointId`].
pub const POINTS: &[(&str, &str, PointKind)] = &[
    // asan pass
    ("asan.rs", "analyze_func", PointKind::Line),
    ("asan.rs", "check_emitted", PointKind::Branch),
    ("asan.rs", "defect_suppressed", PointKind::Branch),
    ("asan.rs", "global_redzones", PointKind::Line),
    ("asan.rs", "instrument_load", PointKind::Line),
    ("asan.rs", "instrument_memcopy", PointKind::Line),
    ("asan.rs", "instrument_store", PointKind::Line),
    ("asan.rs", "legit_scope_extension", PointKind::Branch),
    ("asan.rs", "memcopy_tail_truncated", PointKind::Branch),
    ("asan.rs", "odd_redzone_gap", PointKind::Branch),
    ("asan.rs", "poison_scope", PointKind::Line),
    ("asan.rs", "policy_skip", PointKind::Policy),
    ("asan.rs", "run", PointKind::Func),
    ("asan.rs", "scope_defect", PointKind::Branch),
    ("asan.rs", "scope_kept", PointKind::Branch),
    ("asan.rs", "unpoison_scope", PointKind::Line),
    // msan pass
    ("msan.rs", "branch_check", PointKind::Line),
    ("msan.rs", "div_check", PointKind::Line),
    ("msan.rs", "output_check", PointKind::Line),
    ("msan.rs", "policy_correct", PointKind::Branch),
    ("msan.rs", "policy_defective", PointKind::Branch),
    ("msan.rs", "policy_skip", PointKind::Policy),
    ("msan.rs", "run", PointKind::Func),
    // sanitizer runtime (hit by ubfuzz-simvm)
    ("rt_msan.rs", "taint_bin", PointKind::Line),
    ("rt_msan.rs", "taint_load", PointKind::Line),
    ("rt_msan.rs", "taint_propagated", PointKind::Branch),
    ("rt_msan.rs", "taint_store", PointKind::Line),
    ("rt_msan.rs", "taint_sub_const_cleared", PointKind::Branch),
    ("rt_report.rs", "report_arith", PointKind::Func),
    ("rt_report.rs", "report_bound", PointKind::Func),
    ("rt_report.rs", "report_div", PointKind::Func),
    ("rt_report.rs", "report_msan", PointKind::Func),
    ("rt_report.rs", "report_neg", PointKind::Func),
    ("rt_report.rs", "report_null", PointKind::Func),
    ("rt_report.rs", "report_overflow", PointKind::Func),
    ("rt_report.rs", "report_shift", PointKind::Func),
    ("rt_report.rs", "report_uaf", PointKind::Func),
    ("rt_report.rs", "report_uas", PointKind::Func),
    ("rt_shadow.rs", "poison_freed", PointKind::Line),
    ("rt_shadow.rs", "poison_global_redzone", PointKind::Line),
    ("rt_shadow.rs", "poison_heap_redzone", PointKind::Line),
    ("rt_shadow.rs", "poison_scope", PointKind::Line),
    ("rt_shadow.rs", "poison_stack_redzone", PointKind::Line),
    ("rt_shadow.rs", "shadow_clean", PointKind::Branch),
    ("rt_shadow.rs", "shadow_poisoned", PointKind::Branch),
    ("rt_shadow.rs", "unpoison_scope", PointKind::Line),
    // ubsan pass
    ("ubsan.rs", "arith_check", PointKind::Line),
    ("ubsan.rs", "bound_check", PointKind::Line),
    ("ubsan.rs", "check_emitted", PointKind::Branch),
    ("ubsan.rs", "defect_suppressed", PointKind::Branch),
    ("ubsan.rs", "div_check", PointKind::Line),
    ("ubsan.rs", "neg_check", PointKind::Line),
    ("ubsan.rs", "null_check", PointKind::Line),
    ("ubsan.rs", "off_by_one_bound", PointKind::Branch),
    ("ubsan.rs", "policy_skip", PointKind::Policy),
    ("ubsan.rs", "run", PointKind::Func),
    ("ubsan.rs", "shift_check", PointKind::Line),
    ("ubsan.rs", "wrong_line_emitted", PointKind::Branch),
];

/// Byte-wise string comparison, usable in constants (`str`'s `Ord` is the
/// same byte-lexicographic order, so this agrees with a `BTreeSet`).
const fn str_cmp(a: &str, b: &str) -> Cmp {
    let (a, b) = (a.as_bytes(), b.as_bytes());
    let mut i = 0;
    while i < a.len() && i < b.len() {
        if a[i] != b[i] {
            return if a[i] < b[i] { Cmp::Less } else { Cmp::Greater };
        }
        i += 1;
    }
    if a.len() < b.len() {
        Cmp::Less
    } else if a.len() > b.len() {
        Cmp::Greater
    } else {
        Cmp::Equal
    }
}

/// Whether [`POINTS`] is strictly increasing in `(file, point)` — sorted
/// and free of duplicates.
const fn points_sorted() -> bool {
    let mut i = 1;
    while i < POINTS.len() {
        let (prev, next) = (POINTS[i - 1], POINTS[i]);
        match str_cmp(prev.0, next.0) {
            Cmp::Less => {}
            Cmp::Equal if matches!(str_cmp(prev.1, next.1), Cmp::Less) => {}
            _ => return false,
        }
        i += 1;
    }
    true
}

const _: () = assert!(points_sorted(), "cov::POINTS must be sorted by (file, point), no duplicates");

/// Number of registered points.
const NPOINTS: usize = POINTS.len();
/// Words of the vendor × point bitset.
const WORDS: usize = (NPOINTS * Vendor::ALL.len()).div_ceil(64);

/// A registered coverage point: its index in [`POINTS`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PointId(u16);

impl PointId {
    /// The id of `(file, point)`. Evaluated in a constant (as [`point!`]
    /// does), an unregistered pair is a compile error.
    pub const fn of(file: &str, point: &str) -> PointId {
        let mut i = 0;
        while i < NPOINTS {
            let (f, p, _) = POINTS[i];
            if matches!((str_cmp(f, file), str_cmp(p, point)), (Cmp::Equal, Cmp::Equal)) {
                return PointId(i as u16);
            }
            i += 1;
        }
        panic!("unregistered coverage point");
    }

    /// The id of a decoded `(file, point)` pair; `None` when the registry
    /// does not list it.
    fn find(file: &str, point: &str) -> Option<PointId> {
        POINTS
            .binary_search_by(|&(f, p, _)| (f, p).cmp(&(file, point)))
            .ok()
            .map(|i| PointId(i as u16))
    }

    /// The registered `(file, point)` names.
    pub fn names(self) -> (&'static str, &'static str) {
        let (file, point, _) = POINTS[self.0 as usize];
        (file, point)
    }
}

/// The [`PointId`] of a registered `(file, point)` pair, resolved in a
/// constant: naming a point the registry does not list does not compile.
///
/// ```
/// let id = ubfuzz_simcc::cov::point!("asan.rs", "run");
/// assert_eq!(id.names(), ("asan.rs", "run"));
/// ```
///
/// ```compile_fail
/// let id = ubfuzz_simcc::cov::point!("asan.rs", "no_such_point");
/// ```
#[doc(hidden)]
#[macro_export]
macro_rules! __cov_point {
    ($file:literal, $point:literal) => {{
        const ID: $crate::cov::PointId = $crate::cov::PointId::of($file, $point);
        ID
    }};
}
pub use crate::__cov_point as point;

/// Records a hit of the registered point `(file, point)` for a vendor:
/// [`hit()`] with the id resolved by [`point!`], so a hit on an
/// unregistered point does not compile.
///
/// ```
/// use ubfuzz_simcc::{cov, Vendor};
/// let ((), delta) = cov::capture(|| cov::hit!(Vendor::Gcc, "asan.rs", "run"));
/// assert!(delta.contains((Vendor::Gcc, "asan.rs", "run")));
/// ```
///
/// ```compile_fail
/// ubfuzz_simcc::cov::hit!(ubfuzz_simcc::Vendor::Gcc, "asan.rs", "no_such_point");
/// ```
#[doc(hidden)]
#[macro_export]
macro_rules! __cov_hit {
    ($vendor:expr, $file:literal, $point:literal) => {
        $crate::cov::hit($vendor, $crate::cov::point!($file, $point))
    };
}
pub use crate::__cov_hit as hit;

/// One hit coverage point: which vendor's toolchain exercised which named
/// point. The `&'static str`s are always the registry's own (decoded points
/// go through [`lookup`]).
pub type CovPoint = (Vendor, &'static str, &'static str);

/// Re-interns a decoded `(file, point)` pair against [`POINTS`]. `None`
/// means the pair is not a registered coverage point — for a store decoding
/// a persisted frontier that is corruption, not a new point.
pub fn lookup(file: &str, point: &str) -> Option<(&'static str, &'static str)> {
    PointId::find(file, point).map(PointId::names)
}

/// Bit position of `(vendor, id)`: vendor-major, so bit order is the
/// canonical `(vendor, file, point)` order.
fn bit(vendor: Vendor, id: PointId) -> usize {
    let v = match vendor {
        Vendor::Gcc => 0,
        Vendor::Llvm => 1,
    };
    v * NPOINTS + id.0 as usize
}

/// The coverage points one capture scope observed: a fixed bitset over
/// vendor × registered point, iterated in canonical (vendor, file, point)
/// order. Produced per unit by [`capture`]; unioned across units by the
/// campaign frontier.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct CovDelta {
    words: [u64; WORDS],
}

impl CovDelta {
    /// An empty delta.
    pub fn new() -> CovDelta {
        CovDelta::default()
    }

    /// Sets the bit of `(vendor, id)`.
    fn set(&mut self, vendor: Vendor, id: PointId) {
        let b = bit(vendor, id);
        self.words[b / 64] |= 1 << (b % 64);
    }

    fn test(&self, vendor: Vendor, id: PointId) -> bool {
        let b = bit(vendor, id);
        self.words[b / 64] & (1 << (b % 64)) != 0
    }

    /// Adds one point (used when decoding a persisted delta).
    ///
    /// # Panics
    ///
    /// If the point is not registered in [`POINTS`]; decoders re-intern
    /// through [`lookup`] first.
    pub fn insert(&mut self, (vendor, file, point): CovPoint) {
        let id = PointId::find(file, point)
            .unwrap_or_else(|| panic!("unregistered coverage point {file}/{point}"));
        self.set(vendor, id);
    }

    /// Whether `point` is in the delta.
    pub fn contains(&self, (vendor, file, point): CovPoint) -> bool {
        PointId::find(file, point).is_some_and(|id| self.test(vendor, id))
    }

    /// Unions `other` into `self`.
    pub fn merge(&mut self, other: &CovDelta) {
        for (w, o) in self.words.iter_mut().zip(other.words) {
            *w |= o;
        }
    }

    /// The points, in canonical order.
    pub fn iter(&self) -> impl Iterator<Item = CovPoint> + '_ {
        Vendor::ALL.into_iter().flat_map(move |vendor| {
            (0..NPOINTS as u16).map(PointId).filter(move |&id| self.test(vendor, id)).map(
                move |id| {
                    let (file, point) = id.names();
                    (vendor, file, point)
                },
            )
        })
    }

    /// Number of distinct points.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the delta is empty.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// The bitset's words: a compact encoding whose meaning is this
    /// build's [`POINTS`] registry, so a persisted copy must be keyed by
    /// the registry too (the campaign checkpoint folds it into its key).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// The delta whose bitset is `words`; `None` when the length is not
    /// this registry's or a bit past the last registered point is set.
    pub fn from_words(words: &[u64]) -> Option<CovDelta> {
        let delta = CovDelta { words: words.try_into().ok()? };
        let unused = NPOINTS * Vendor::ALL.len()..WORDS * 64;
        unused.into_iter().all(|b| delta.words[b / 64] & (1 << (b % 64)) == 0).then_some(delta)
    }
}

impl std::fmt::Debug for CovDelta {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        struct Points<'a>(&'a CovDelta);
        impl std::fmt::Debug for Points<'_> {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                f.debug_set().entries(self.0.iter()).finish()
            }
        }
        f.debug_struct("CovDelta").field("points", &Points(self)).finish()
    }
}

impl FromIterator<CovPoint> for CovDelta {
    fn from_iter<I: IntoIterator<Item = CovPoint>>(iter: I) -> CovDelta {
        let mut delta = CovDelta::new();
        for point in iter {
            delta.insert(point);
        }
        delta
    }
}

/// Where the current thread's hits go: a frame-local delta ([`capture`]) or
/// a shared cross-thread collector ([`Collector::attach`]).
enum Sink {
    Local(CovDelta),
    Shared(Arc<CollectorInner>),
}

thread_local! {
    static SINKS: RefCell<Vec<Sink>> = const { RefCell::new(Vec::new()) };
}

/// Pops the top capture frame on scope exit — including panic unwinds, so a
/// unit that dies mid-compile cannot leak its frame into the next unit
/// scheduled on the same worker thread.
struct FrameGuard;

impl Drop for FrameGuard {
    fn drop(&mut self) {
        SINKS.with(|s| {
            s.borrow_mut().pop();
        });
    }
}

/// Records a hit of the registered point `id` for `vendor`'s toolchain into
/// the innermost capture frame on this thread (one bit set); a no-op when
/// nothing captures. Hit sites name their point with [`hit!`] or
/// [`point!`], so the id is always a registered one.
pub fn hit(vendor: Vendor, id: PointId) {
    SINKS.with(|s| {
        if let Some(top) = s.borrow_mut().last_mut() {
            match top {
                Sink::Local(delta) => delta.set(vendor, id),
                Sink::Shared(inner) => inner.record(vendor, id),
            }
        }
    });
}

/// Runs `f` with a fresh capture frame on this thread and returns its value
/// together with the coverage points it hit — the per-unit seam the
/// executor uses to thread sanitizer coverage back to the scheduler.
pub fn capture<T>(f: impl FnOnce() -> T) -> (T, CovDelta) {
    SINKS.with(|s| s.borrow_mut().push(Sink::Local(CovDelta::new())));
    let _guard = FrameGuard;
    let value = f();
    let delta = SINKS.with(|s| match s.borrow_mut().last_mut() {
        Some(Sink::Local(delta)) => std::mem::take(delta),
        _ => CovDelta::new(),
    });
    (value, delta)
}

#[derive(Debug, Default)]
struct CollectorInner {
    covered: Mutex<CovDelta>,
    poison_recoveries: AtomicUsize,
}

impl CollectorInner {
    fn record(&self, vendor: Vendor, id: PointId) {
        relock(&self.covered, &self.poison_recoveries).set(vendor, id);
    }
}

/// A shared coverage aggregate for one measurement window: worker threads
/// [`Collector::attach`] their task bodies and every hit lands in one
/// poison-recovering set. Replaces the old process-global hit map — each
/// experiment owns its collector, so concurrent campaigns in one process
/// observe only their own hits.
#[derive(Debug, Clone, Default)]
pub struct Collector {
    inner: Arc<CollectorInner>,
}

impl Collector {
    /// A fresh, empty collector.
    pub fn new() -> Collector {
        Collector::default()
    }

    /// Runs `f` with this collector installed as the thread's capture
    /// frame; every [`hit`] inside lands in the shared set.
    pub fn attach<T>(&self, f: impl FnOnce() -> T) -> T {
        SINKS.with(|s| s.borrow_mut().push(Sink::Shared(self.inner.clone())));
        let _guard = FrameGuard;
        f()
    }

    /// A copy of everything collected so far, in canonical order.
    pub fn snapshot(&self) -> CovDelta {
        relock(&self.inner.covered, &self.inner.poison_recoveries).clone()
    }

    /// Gcov-style percentages over the collected points for `vendor`.
    pub fn stats(&self, vendor: Vendor) -> CovStats {
        stats_of(&self.snapshot(), vendor)
    }

    /// How many times a poisoned lock was recovered (a unit panicked while
    /// holding it). Non-zero is a telemetry event, never an abort.
    pub fn poison_recoveries(&self) -> usize {
        self.inner.poison_recoveries.load(Ordering::Relaxed)
    }
}

/// Coverage percentages for one vendor, Gcov style.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CovStats {
    /// Line coverage percentage.
    pub line_pct: f64,
    /// Function coverage percentage.
    pub func_pct: f64,
    /// Branch coverage percentage.
    pub branch_pct: f64,
}

/// Computes coverage over all registered sanitizer points for `vendor`
/// from a collected point set. [`PointKind::Policy`] points count in no
/// column.
pub fn stats_of(covered: &CovDelta, vendor: Vendor) -> CovStats {
    let pct = |kind: PointKind| {
        let ids = (0..NPOINTS as u16).map(PointId).filter(|id| POINTS[id.0 as usize].2 == kind);
        let total = ids.clone().count();
        let hit = ids.filter(|&id| covered.test(vendor, id)).count();
        if total == 0 {
            0.0
        } else {
            100.0 * hit as f64 / total as f64
        }
    };
    CovStats {
        line_pct: pct(PointKind::Line),
        func_pct: pct(PointKind::Func),
        branch_pct: pct(PointKind::Branch),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeSet, HashSet};

    #[test]
    fn capture_scopes_hits_per_frame() {
        // Outside any frame, hits vanish.
        hit!(Vendor::Gcc, "asan.rs", "run");
        let ((), delta) = capture(|| {
            hit!(Vendor::Gcc, "asan.rs", "run");
            hit!(Vendor::Gcc, "asan.rs", "instrument_store");
            hit!(Vendor::Gcc, "asan.rs", "run"); // dedup
        });
        assert_eq!(delta.len(), 2);
        let s1 = stats_of(&delta, Vendor::Gcc);
        assert!(s1.func_pct > 0.0);
        assert!(s1.line_pct > 0.0);
        assert_eq!(stats_of(&delta, Vendor::Llvm).func_pct, 0.0, "vendors tracked separately");
        // Frames nest: the inner frame owns the hit.
        let ((_, inner), outer) = capture(|| {
            capture(|| hit!(Vendor::Llvm, "msan.rs", "run"))
        });
        assert_eq!(inner.len(), 1);
        assert!(outer.is_empty());
    }

    #[test]
    fn capture_frame_pops_on_panic() {
        let caught = std::panic::catch_unwind(|| {
            let ((), _) = capture(|| panic!("unit died"));
        });
        assert!(caught.is_err());
        // The panicking frame must not linger and swallow later hits.
        hit!(Vendor::Gcc, "asan.rs", "run");
        let ((), delta) = capture(|| hit!(Vendor::Gcc, "ubsan.rs", "run"));
        assert_eq!(delta.len(), 1);
    }

    #[test]
    fn collector_aggregates_across_threads_and_recovers_poison() {
        let collector = Collector::new();
        std::thread::scope(|scope| {
            for id in [point!("asan.rs", "run"), point!("ubsan.rs", "run")] {
                let c = &collector;
                scope.spawn(move || c.attach(|| hit(Vendor::Gcc, id)));
            }
        });
        assert_eq!(collector.snapshot().len(), 2);
        assert!(collector.stats(Vendor::Gcc).func_pct > 0.0);
        // Poison the lock from a panicking attach; the collector recovers
        // and keeps collecting, counting the recovery for telemetry.
        let inner = collector.inner.clone();
        let _ = std::thread::spawn(move || {
            let _guard = inner.covered.lock().unwrap();
            panic!("holder dies");
        })
        .join();
        collector.attach(|| hit!(Vendor::Llvm, "msan.rs", "run"));
        assert_eq!(collector.snapshot().len(), 3);
        assert!(collector.poison_recoveries() > 0, "recovery must be observable");
    }

    #[test]
    fn lookup_reinterns_registered_points_only() {
        let (f, p) = lookup("asan.rs", "run").expect("registered point");
        assert_eq!((f, p), ("asan.rs", "run"));
        assert!(lookup("asan.rs", "no_such_point").is_none());
        assert!(lookup("other.rs", "run").is_none());
    }

    #[test]
    fn points_table_is_consistent() {
        // No duplicate (file, point) pairs.
        let mut seen = HashSet::new();
        for (f, p, _) in POINTS {
            assert!(seen.insert((f, p)), "duplicate point {f}/{p}");
        }
        assert!(POINTS.len() > 40);
    }

    /// Every registered point, both vendors, in the order a `BTreeSet`
    /// would keep them.
    fn all_points() -> Vec<CovPoint> {
        let set: BTreeSet<CovPoint> = Vendor::ALL
            .into_iter()
            .flat_map(|v| POINTS.iter().map(move |&(f, p, _)| (v, f, p)))
            .collect();
        set.into_iter().collect()
    }

    #[test]
    fn bit_order_is_the_ordered_set_order() {
        let all = all_points();
        assert_eq!(all.len(), 2 * POINTS.len());
        // Assorted subsets: empty, full, one vendor, every k-th point, and
        // a few pseudo-random ones, each inserted in a scrambled order.
        let mut subsets: Vec<Vec<CovPoint>> = vec![
            vec![],
            all.clone(),
            all.iter().copied().filter(|p| p.0 == Vendor::Llvm).collect(),
        ];
        for k in [2, 3, 7] {
            subsets.push(all.iter().copied().step_by(k).collect());
        }
        let mut x = 0x9e37_79b9_7f4a_7c15_u64;
        for _ in 0..8 {
            let subset = all
                .iter()
                .copied()
                .filter(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    x.is_multiple_of(3)
                })
                .collect();
            subsets.push(subset);
        }
        for subset in subsets {
            let ordered: BTreeSet<CovPoint> = subset.iter().copied().collect();
            let delta: CovDelta = subset.iter().rev().copied().collect();
            assert!(delta.iter().eq(ordered.iter().copied()), "iteration order");
            assert_eq!(delta.len(), ordered.len());
            assert_eq!(delta.is_empty(), ordered.is_empty());
            assert!(all.iter().all(|&p| delta.contains(p) == ordered.contains(&p)));
            assert_eq!(format!("{delta:?}"), format!("CovDelta {{ points: {ordered:?} }}"));
        }
    }

    #[test]
    fn merge_is_the_union() {
        let all = all_points();
        let a: CovDelta = all.iter().copied().step_by(2).collect();
        let b: CovDelta = all.iter().copied().step_by(3).collect();
        let mut merged = a.clone();
        merged.merge(&b);
        let union: BTreeSet<CovPoint> = a.iter().chain(b.iter()).collect();
        assert!(merged.iter().eq(union.into_iter()));
    }

    #[test]
    fn policy_points_count_in_no_column() {
        let ((), delta) = capture(|| {
            hit!(Vendor::Gcc, "asan.rs", "policy_skip");
            hit!(Vendor::Gcc, "ubsan.rs", "policy_skip");
            hit!(Vendor::Gcc, "msan.rs", "policy_skip");
        });
        assert_eq!(delta.len(), 3);
        assert_eq!(stats_of(&delta, Vendor::Gcc), stats_of(&CovDelta::new(), Vendor::Gcc));
        for file in ["asan.rs", "ubsan.rs", "msan.rs"] {
            assert_eq!(lookup(file, "policy_skip"), Some((file, "policy_skip")));
        }
    }

    #[test]
    fn point_ids_name_their_registry_entry() {
        for (i, &(file, point, _)) in POINTS.iter().enumerate() {
            let id = PointId::find(file, point).expect("registered");
            assert_eq!(id, PointId(i as u16));
            assert_eq!(id.names(), (file, point));
        }
        assert_eq!(point!("ubsan.rs", "run"), PointId::find("ubsan.rs", "run").unwrap());
    }
}
