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
//! **Capture is scoped, not global.** Hits are recorded only while a
//! capture frame is installed on the recording thread: [`capture`] collects
//! one unit's hits into a [`CovDelta`] the scheduler threads back to the
//! campaign frontier, and a [`Collector`] aggregates a whole measurement
//! window across worker threads. Outside any frame, [`hit`] is a no-op —
//! there is no process-wide map, so concurrent campaigns (or serve workers
//! hosted in one process) can no longer cross-contaminate each other's
//! coverage, and a panicking unit can poison at most the collector it was
//! attached to, which recovers the lock and reports the event instead of
//! propagating the panic to every later unit.

use crate::relock;
use crate::target::Vendor;
use std::cell::RefCell;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Coverage point kinds, mirroring Gcov's LC/FC/BC columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PointKind {
    /// Line (statement-group) coverage.
    Line,
    /// Function coverage.
    Func,
    /// Branch-direction coverage.
    Branch,
}

/// The static registry of all sanitizer-related coverage points:
/// `(file, point name, kind)`.
pub const POINTS: &[(&str, &str, PointKind)] = &[
    // asan pass
    ("asan.rs", "run", PointKind::Func),
    ("asan.rs", "analyze_func", PointKind::Line),
    ("asan.rs", "instrument_load", PointKind::Line),
    ("asan.rs", "instrument_store", PointKind::Line),
    ("asan.rs", "instrument_memcopy", PointKind::Line),
    ("asan.rs", "poison_scope", PointKind::Line),
    ("asan.rs", "unpoison_scope", PointKind::Line),
    ("asan.rs", "global_redzones", PointKind::Line),
    ("asan.rs", "defect_suppressed", PointKind::Branch),
    ("asan.rs", "check_emitted", PointKind::Branch),
    ("asan.rs", "scope_defect", PointKind::Branch),
    ("asan.rs", "scope_kept", PointKind::Branch),
    ("asan.rs", "odd_redzone_gap", PointKind::Branch),
    ("asan.rs", "memcopy_tail_truncated", PointKind::Branch),
    ("asan.rs", "legit_scope_extension", PointKind::Branch),
    // ubsan pass
    ("ubsan.rs", "run", PointKind::Func),
    ("ubsan.rs", "arith_check", PointKind::Line),
    ("ubsan.rs", "neg_check", PointKind::Line),
    ("ubsan.rs", "shift_check", PointKind::Line),
    ("ubsan.rs", "div_check", PointKind::Line),
    ("ubsan.rs", "null_check", PointKind::Line),
    ("ubsan.rs", "bound_check", PointKind::Line),
    ("ubsan.rs", "defect_suppressed", PointKind::Branch),
    ("ubsan.rs", "check_emitted", PointKind::Branch),
    ("ubsan.rs", "wrong_line_emitted", PointKind::Branch),
    ("ubsan.rs", "off_by_one_bound", PointKind::Branch),
    // msan pass
    ("msan.rs", "run", PointKind::Func),
    ("msan.rs", "branch_check", PointKind::Line),
    ("msan.rs", "div_check", PointKind::Line),
    ("msan.rs", "output_check", PointKind::Line),
    ("msan.rs", "policy_defective", PointKind::Branch),
    ("msan.rs", "policy_correct", PointKind::Branch),
    // sanitizer runtime (hit by ubfuzz-simvm)
    ("rt_shadow.rs", "poison_global_redzone", PointKind::Line),
    ("rt_shadow.rs", "poison_stack_redzone", PointKind::Line),
    ("rt_shadow.rs", "poison_heap_redzone", PointKind::Line),
    ("rt_shadow.rs", "poison_freed", PointKind::Line),
    ("rt_shadow.rs", "poison_scope", PointKind::Line),
    ("rt_shadow.rs", "unpoison_scope", PointKind::Line),
    ("rt_shadow.rs", "shadow_clean", PointKind::Branch),
    ("rt_shadow.rs", "shadow_poisoned", PointKind::Branch),
    ("rt_report.rs", "report_overflow", PointKind::Func),
    ("rt_report.rs", "report_uaf", PointKind::Func),
    ("rt_report.rs", "report_uas", PointKind::Func),
    ("rt_report.rs", "report_null", PointKind::Func),
    ("rt_report.rs", "report_arith", PointKind::Func),
    ("rt_report.rs", "report_neg", PointKind::Func),
    ("rt_report.rs", "report_shift", PointKind::Func),
    ("rt_report.rs", "report_div", PointKind::Func),
    ("rt_report.rs", "report_bound", PointKind::Func),
    ("rt_report.rs", "report_msan", PointKind::Func),
    ("rt_msan.rs", "taint_load", PointKind::Line),
    ("rt_msan.rs", "taint_store", PointKind::Line),
    ("rt_msan.rs", "taint_bin", PointKind::Line),
    ("rt_msan.rs", "taint_sub_const_cleared", PointKind::Branch),
    ("rt_msan.rs", "taint_propagated", PointKind::Branch),
];

/// One hit coverage point: which vendor's toolchain exercised which named
/// point. The `&'static str`s are always interned against [`POINTS`]
/// (decoded points go through [`lookup`]), so comparison and ordering are
/// cheap and canonical.
pub type CovPoint = (Vendor, &'static str, &'static str);

/// Re-interns a decoded `(file, point)` pair against [`POINTS`]. `None`
/// means the pair is not a registered coverage point — for a store decoding
/// a persisted frontier that is corruption, not a new point.
pub fn lookup(file: &str, point: &str) -> Option<(&'static str, &'static str)> {
    POINTS.iter().find(|(f, p, _)| *f == file && *p == point).map(|&(f, p, _)| (f, p))
}

/// The coverage points one capture scope observed, in canonical
/// (vendor, file, point) order. Produced per unit by [`capture`]; unioned
/// across units by the campaign frontier.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CovDelta {
    points: BTreeSet<CovPoint>,
}

impl CovDelta {
    /// An empty delta.
    pub fn new() -> CovDelta {
        CovDelta::default()
    }

    /// Adds one point (used when decoding a persisted delta).
    pub fn insert(&mut self, point: CovPoint) {
        self.points.insert(point);
    }

    /// Whether `point` is in the delta.
    pub fn contains(&self, point: CovPoint) -> bool {
        self.points.contains(&point)
    }

    /// Unions `other` into `self`.
    pub fn merge(&mut self, other: &CovDelta) {
        self.points.extend(other.points.iter().copied());
    }

    /// The points, in canonical order.
    pub fn iter(&self) -> impl Iterator<Item = CovPoint> + '_ {
        self.points.iter().copied()
    }

    /// Number of distinct points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the delta is empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }
}

impl FromIterator<CovPoint> for CovDelta {
    fn from_iter<I: IntoIterator<Item = CovPoint>>(iter: I) -> CovDelta {
        CovDelta { points: iter.into_iter().collect() }
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

/// Records a hit of `point` in `file` for `vendor`'s toolchain into the
/// innermost capture frame on this thread; a no-op when nothing captures.
pub fn hit(vendor: Vendor, file: &'static str, point: &'static str) {
    SINKS.with(|s| {
        if let Some(top) = s.borrow_mut().last_mut() {
            match top {
                Sink::Local(delta) => {
                    delta.points.insert((vendor, file, point));
                }
                Sink::Shared(inner) => inner.record((vendor, file, point)),
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
    fn record(&self, point: CovPoint) {
        relock(&self.covered, &self.poison_recoveries).points.insert(point);
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
/// from a collected point set.
pub fn stats_of(covered: &CovDelta, vendor: Vendor) -> CovStats {
    let pct = |kind: PointKind| {
        let total = POINTS.iter().filter(|(_, _, k)| *k == kind).count();
        let hit = POINTS
            .iter()
            .filter(|&&(f, p, k)| k == kind && covered.contains((vendor, f, p)))
            .count();
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
    use std::collections::HashSet;

    #[test]
    fn capture_scopes_hits_per_frame() {
        // Outside any frame, hits vanish.
        hit(Vendor::Gcc, "asan.rs", "run");
        let ((), delta) = capture(|| {
            hit(Vendor::Gcc, "asan.rs", "run");
            hit(Vendor::Gcc, "asan.rs", "instrument_store");
            hit(Vendor::Gcc, "asan.rs", "run"); // dedup
        });
        assert_eq!(delta.len(), 2);
        let s1 = stats_of(&delta, Vendor::Gcc);
        assert!(s1.func_pct > 0.0);
        assert!(s1.line_pct > 0.0);
        assert_eq!(stats_of(&delta, Vendor::Llvm).func_pct, 0.0, "vendors tracked separately");
        // Frames nest: the inner frame owns the hit.
        let ((_, inner), outer) = capture(|| {
            capture(|| hit(Vendor::Llvm, "msan.rs", "run"))
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
        hit(Vendor::Gcc, "asan.rs", "run");
        let ((), delta) = capture(|| hit(Vendor::Gcc, "ubsan.rs", "run"));
        assert_eq!(delta.len(), 1);
    }

    #[test]
    fn collector_aggregates_across_threads_and_recovers_poison() {
        let collector = Collector::new();
        std::thread::scope(|scope| {
            for file in ["asan.rs", "ubsan.rs"] {
                let c = &collector;
                scope.spawn(move || c.attach(|| hit(Vendor::Gcc, file, "run")));
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
        collector.attach(|| hit(Vendor::Llvm, "msan.rs", "run"));
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
}
