//! Dependency-free observability substrate for the UBFuzz workspace.
//!
//! Every layer of the system measures itself through this crate: the
//! campaign executor times its per-unit pipeline stages, the compile
//! session times its cached stages, the store times its open/replay/
//! compact/persist paths, and the daemon counts its lease lifecycle.
//! Three pieces make that work without perturbing any output byte:
//!
//! * **Spans and counters** ([`Span::enter`], [`count`], [`note`]) record
//!   against whatever [`Recorder`]s are *attached* — a thread-scoped stack
//!   (the same panic-safe guard idiom as `simcc::cov`) plus an optional
//!   process-wide default. With nothing attached every probe is a no-op
//!   that never reads the clock, so the instrumented hot paths cost one
//!   thread-local check in the default configuration.
//! * **Aggregation** ([`MetricsSink`], [`Histogram`]) folds span durations
//!   into fixed log2-bucket latency histograms behind sharded relaxed
//!   atomics (lock-free on the record path). Histograms merge
//!   associatively, so per-worker measurements combine in canonical order
//!   into the same totals regardless of scheduling — and they are
//!   *telemetry*: excluded from result equality, never folded into
//!   checkpoints or fingerprints, exactly like `SessionStats`.
//! * **Export** — a text encoding for shipping histograms across the
//!   worker-process receipt pipe ([`Histogram::encode`],
//!   [`parse_metric_line`]), a JSONL event stream ([`TraceRecorder`]) for
//!   offline analysis, and the [`Line`] formatter that is the single
//!   source of truth for the `[store] …` telemetry lines CI greps.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::{self, Display, Write as _};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Instant;

/// Poison-recovering lock: a recorder shared across campaign worker
/// threads must keep accepting samples after an unrelated unit panics —
/// the counters behind these locks stay consistent across an unwind
/// because each critical section is a single read-modify-write.
fn relock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

// ---------------------------------------------------------------------------
// Stages
// ---------------------------------------------------------------------------

/// Every instrumented stage in the system, in canonical report order.
///
/// The first block is the executor's per-unit pipeline, the second the
/// store's I/O paths, the third the daemon's lease lifecycle. Names are
/// stable wire format: they appear in worker receipts, `METRICS`
/// responses, and JSONL traces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Stage {
    Generate,
    PrefixCompile,
    Sanitize,
    LateOpt,
    Run,
    Trace,
    Oracle,
    Replay,
    StoreOpen,
    StoreReplay,
    StoreCompact,
    StorePersist,
    LeaseIssue,
    LeaseHeartbeat,
    LeaseReclaim,
    Merge,
}

impl Stage {
    /// Every stage, in canonical order (the order of `METRICS` lines and
    /// the table-8 breakdown).
    pub const ALL: [Stage; 16] = [
        Stage::Generate,
        Stage::PrefixCompile,
        Stage::Sanitize,
        Stage::LateOpt,
        Stage::Run,
        Stage::Trace,
        Stage::Oracle,
        Stage::Replay,
        Stage::StoreOpen,
        Stage::StoreReplay,
        Stage::StoreCompact,
        Stage::StorePersist,
        Stage::LeaseIssue,
        Stage::LeaseHeartbeat,
        Stage::LeaseReclaim,
        Stage::Merge,
    ];

    /// The stable wire name.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Generate => "generate",
            Stage::PrefixCompile => "prefix_compile",
            Stage::Sanitize => "sanitize",
            Stage::LateOpt => "late_opt",
            Stage::Run => "run",
            Stage::Trace => "trace",
            Stage::Oracle => "oracle",
            Stage::Replay => "replay",
            Stage::StoreOpen => "store_open",
            Stage::StoreReplay => "store_replay",
            Stage::StoreCompact => "store_compact",
            Stage::StorePersist => "store_persist",
            Stage::LeaseIssue => "lease_issue",
            Stage::LeaseHeartbeat => "lease_heartbeat",
            Stage::LeaseReclaim => "lease_reclaim",
            Stage::Merge => "merge",
        }
    }

    /// Inverse of [`Stage::name`]; `None` for an unknown name (skew-safe
    /// receipt parsing: an unknown stage is dropped, never an error).
    pub fn from_name(name: &str) -> Option<Stage> {
        Stage::ALL.iter().copied().find(|s| s.name() == name)
    }

    fn index(self) -> usize {
        Stage::ALL.iter().position(|s| *s == self).expect("stage in ALL")
    }
}

impl Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

// ---------------------------------------------------------------------------
// Events and recorders
// ---------------------------------------------------------------------------

/// One observation. Borrowed so the hot path never allocates; a recorder
/// that needs to keep the data copies it.
#[derive(Debug, Clone, Copy)]
pub enum Event<'a> {
    /// A completed span: `unit` is the caller's correlation id (compile
    /// unit index, seed id, lease id — whatever the stage iterates over).
    Span { stage: Stage, unit: u64, nanos: u64 },
    /// A named counter increment (cache hits, lease issues, …).
    Count { name: &'a str, delta: u64 },
    /// A free-text event on a topic (store corruption reports, …).
    Note { topic: &'a str, text: &'a str },
}

/// A sink for [`Event`]s. Implementations must tolerate concurrent calls
/// from every campaign worker thread.
///
/// `Debug` is required because recorders ride inside `Debug`-deriving
/// configuration structs (`CampaignConfig`).
pub trait Recorder: Send + Sync + fmt::Debug {
    fn record(&self, event: &Event<'_>);
}

thread_local! {
    /// The attached recorder stack for this thread. Innermost last; an
    /// event is delivered to every frame, so nested attachments compose
    /// (a trace recorder inside a metrics sink sees the same events).
    static RECORDERS: RefCell<Vec<Arc<dyn Recorder>>> = const { RefCell::new(Vec::new()) };
}

/// The process-wide default recorder, observed by every thread that has
/// no scoped attachment of its own (executor worker threads included).
static GLOBAL: OnceLock<Arc<dyn Recorder>> = OnceLock::new();

/// Installs a process-wide default recorder. First caller wins; returns
/// whether this call installed it. Intended for binaries (`--trace-out`,
/// table 8) — library code should prefer scoped [`attach`].
pub fn set_global(recorder: Arc<dyn Recorder>) -> bool {
    GLOBAL.set(recorder).is_ok()
}

/// Attaches `recorder` to the current thread until the guard drops.
/// Pop-on-drop is panic-safe: an unwinding campaign unit cannot leak its
/// recorder frame into unrelated later work on the same worker thread.
///
/// Attaching is idempotent per recorder instance: if this exact `Arc` is
/// already on the thread's stack, no new frame is pushed and the guard is
/// a no-op. Events are delivered to every frame, so without this a caller
/// that already holds the campaign recorder — the daemon's scheduler
/// thread, which attaches its sink and then runs a merge that scopes the
/// same recorder again — would double-count every span. Distinct recorders
/// still compose.
#[must_use = "the recorder detaches when the guard drops"]
pub fn attach(recorder: Arc<dyn Recorder>) -> AttachGuard {
    let pushed = RECORDERS.with(|r| {
        let mut stack = r.borrow_mut();
        if stack.iter().any(|existing| Arc::ptr_eq(existing, &recorder)) {
            return false;
        }
        stack.push(recorder);
        true
    });
    AttachGuard { pushed }
}

/// Scope guard returned by [`attach`].
#[derive(Debug)]
pub struct AttachGuard {
    pushed: bool,
}

impl Drop for AttachGuard {
    fn drop(&mut self) {
        if !self.pushed {
            return;
        }
        let _ = RECORDERS.try_with(|r| {
            r.borrow_mut().pop();
        });
    }
}

/// Whether any recorder (scoped or global) would observe an event from
/// this thread. Probes check this before touching the clock.
pub fn active() -> bool {
    GLOBAL.get().is_some()
        || RECORDERS.try_with(|r| !r.borrow().is_empty()).unwrap_or(false)
}

/// Delivers `event` to every attached recorder and the global default.
pub fn record(event: &Event<'_>) {
    let _ = RECORDERS.try_with(|r| {
        for rec in r.borrow().iter() {
            rec.record(event);
        }
    });
    if let Some(g) = GLOBAL.get() {
        g.record(event);
    }
}

/// Increments counter `name` on every active recorder.
pub fn count(name: &str, delta: u64) {
    if active() {
        record(&Event::Count { name, delta });
    }
}

/// Emits a free-text note on `topic` to every active recorder.
pub fn note(topic: &str, text: &str) {
    if active() {
        record(&Event::Note { topic, text });
    }
}

/// An in-flight stage measurement. Records its duration when dropped —
/// including during unwinding, so a panicking unit still accounts its
/// partial stage time. When no recorder is active the span is inert and
/// never reads the clock.
#[derive(Debug)]
pub struct Span {
    stage: Stage,
    unit: u64,
    start: Option<Instant>,
}

impl Span {
    /// Opens a span for `stage` correlated to `unit`.
    pub fn enter(stage: Stage, unit: u64) -> Span {
        let start = active().then(Instant::now);
        Span { stage, unit, start }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            let nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            record(&Event::Span { stage: self.stage, unit: self.unit, nanos });
        }
    }
}

/// Times `f` under a span — the expression-position sibling of
/// [`Span::enter`].
pub fn time<T>(stage: Stage, unit: u64, f: impl FnOnce() -> T) -> T {
    let _span = Span::enter(stage, unit);
    f()
}

/// Broadcasts every event to several recorders, in order — how a binary
/// runs a [`TraceRecorder`] and a [`MetricsSink`] off one attachment
/// (e.g. `make_tables --table 8 --trace-out FILE`).
#[derive(Debug)]
pub struct Fanout(pub Vec<Arc<dyn Recorder>>);

impl Recorder for Fanout {
    fn record(&self, event: &Event<'_>) {
        for recorder in &self.0 {
            recorder.record(event);
        }
    }
}

// ---------------------------------------------------------------------------
// Histograms
// ---------------------------------------------------------------------------

/// Number of log2 latency buckets: bucket `i` holds durations `d` with
/// `floor(log2(max(d, 1))) == i`, so the range covers 1 ns to ~584 years.
pub const BUCKETS: usize = 64;

/// A fixed log2-bucket latency histogram.
///
/// Merging is associative and commutative, so per-worker histograms
/// folded in canonical order equal the histogram of the sequential run —
/// the property the cross-worker tests pin down.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    pub count: u64,
    pub sum_ns: u64,
    pub max_ns: u64,
    pub buckets: [u64; BUCKETS],
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram { count: 0, sum_ns: 0, max_ns: 0, buckets: [0; BUCKETS] }
    }
}

/// The bucket index for a duration of `nanos`.
fn bucket_of(nanos: u64) -> usize {
    63 - nanos.max(1).leading_zeros() as usize
}

impl Histogram {
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Folds one duration in.
    pub fn record(&mut self, nanos: u64) {
        self.count += 1;
        self.sum_ns = self.sum_ns.saturating_add(nanos);
        self.max_ns = self.max_ns.max(nanos);
        self.buckets[bucket_of(nanos)] += 1;
    }

    /// Folds another histogram in (associative, commutative).
    pub fn merge(&mut self, other: &Histogram) {
        self.count += other.count;
        self.sum_ns = self.sum_ns.saturating_add(other.sum_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
    }

    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The `num/den` quantile as a bucket upper bound (integer math: no
    /// float rounding to diverge across platforms), capped at the exact
    /// observed maximum.
    pub fn quantile(&self, num: u64, den: u64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        // rank = ceil(count * num / den), clamped to [1, count]
        let rank = (self.count.saturating_mul(num)).div_ceil(den).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= rank {
                let upper = if i >= 63 { u64::MAX } else { (1u64 << (i + 1)) - 1 };
                return upper.min(self.max_ns);
            }
        }
        self.max_ns
    }

    /// Median latency (bucket-resolution upper bound).
    pub fn p50(&self) -> u64 {
        self.quantile(1, 2)
    }

    /// 95th-percentile latency (bucket-resolution upper bound).
    pub fn p95(&self) -> u64 {
        self.quantile(19, 20)
    }

    /// The receipt text encoding: `count=N sum_ns=N max_ns=N
    /// buckets=i:c,i:c` (sparse; `buckets=-` when empty).
    pub fn encode(&self) -> String {
        let mut s = format!("count={} sum_ns={} max_ns={} buckets=", self.count, self.sum_ns, self.max_ns);
        let mut any = false;
        for (i, b) in self.buckets.iter().enumerate() {
            if *b > 0 {
                if any {
                    s.push(',');
                }
                let _ = write!(s, "{i}:{b}");
                any = true;
            }
        }
        if !any {
            s.push('-');
        }
        s
    }

    /// Inverse of [`Histogram::encode`]. Unknown tokens are ignored and
    /// malformed fields yield `None` — receipts from a skewed worker
    /// degrade to "no metrics", never an error.
    pub fn parse(text: &str) -> Option<Histogram> {
        let mut h = Histogram::new();
        let mut seen_count = false;
        for token in text.split_whitespace() {
            if let Some(v) = token.strip_prefix("count=") {
                h.count = v.parse().ok()?;
                seen_count = true;
            } else if let Some(v) = token.strip_prefix("sum_ns=") {
                h.sum_ns = v.parse().ok()?;
            } else if let Some(v) = token.strip_prefix("max_ns=") {
                h.max_ns = v.parse().ok()?;
            } else if let Some(v) = token.strip_prefix("buckets=") {
                if v == "-" {
                    continue;
                }
                for pair in v.split(',') {
                    let (i, c) = pair.split_once(':')?;
                    let i: usize = i.parse().ok()?;
                    if i >= BUCKETS {
                        return None;
                    }
                    h.buckets[i] = c.parse().ok()?;
                }
            }
        }
        seen_count.then_some(h)
    }
}

// ---------------------------------------------------------------------------
// The metrics sink
// ---------------------------------------------------------------------------

/// Shards in the sink; a small power of two keeps the thread-id spread
/// cheap while bounding the snapshot merge.
const SHARDS: usize = 16;

/// Per-shard, per-stage atomic accumulators.
#[derive(Debug)]
struct Shard {
    counts: [AtomicU64; Stage::ALL.len()],
    sums: [AtomicU64; Stage::ALL.len()],
    maxes: [AtomicU64; Stage::ALL.len()],
    buckets: Box<[AtomicU64]>, // Stage::ALL.len() × BUCKETS, row-major
}

impl Shard {
    fn new() -> Shard {
        Shard {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            sums: std::array::from_fn(|_| AtomicU64::new(0)),
            maxes: std::array::from_fn(|_| AtomicU64::new(0)),
            buckets: (0..Stage::ALL.len() * BUCKETS).map(|_| AtomicU64::new(0)).collect(),
        }
    }
}

/// The standard aggregating [`Recorder`]: lock-free sharded per-stage
/// latency histograms plus (cold-path, mutex-guarded) named counters and
/// free-text notes.
///
/// Sharding spreads worker-thread contention; [`MetricsSink::snapshot`]
/// folds the shards back together in fixed order, so the snapshot of a
/// given sample set is scheduling-independent.
#[derive(Debug)]
pub struct MetricsSink {
    shards: Vec<Shard>,
    counters: Mutex<BTreeMap<String, u64>>,
    notes: Mutex<Vec<(String, String)>>,
}

impl Default for MetricsSink {
    fn default() -> MetricsSink {
        MetricsSink::new()
    }
}

impl MetricsSink {
    pub fn new() -> MetricsSink {
        MetricsSink {
            shards: (0..SHARDS).map(|_| Shard::new()).collect(),
            counters: Mutex::new(BTreeMap::new()),
            notes: Mutex::new(Vec::new()),
        }
    }

    fn shard(&self) -> &Shard {
        // Cheap thread spread: hash the thread id. Correctness does not
        // depend on the distribution — every shard merges into the
        // snapshot — only contention does.
        use std::hash::{Hash, Hasher};
        let mut h = std::hash::DefaultHasher::new();
        std::thread::current().id().hash(&mut h);
        &self.shards[(h.finish() as usize) % SHARDS]
    }

    /// Folds every shard into one snapshot, in fixed shard/stage order.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::default();
        for stage in Stage::ALL {
            let si = stage.index();
            let mut h = Histogram::new();
            for shard in &self.shards {
                h.count += shard.counts[si].load(Ordering::Relaxed);
                h.sum_ns = h.sum_ns.saturating_add(shard.sums[si].load(Ordering::Relaxed));
                h.max_ns = h.max_ns.max(shard.maxes[si].load(Ordering::Relaxed));
                for b in 0..BUCKETS {
                    h.buckets[b] += shard.buckets[si * BUCKETS + b].load(Ordering::Relaxed);
                }
            }
            if !h.is_empty() {
                snap.stages.insert(stage, h);
            }
        }
        snap.counters = relock(&self.counters).clone();
        snap.notes = relock(&self.notes).clone();
        snap
    }
}

impl Recorder for MetricsSink {
    fn record(&self, event: &Event<'_>) {
        match *event {
            Event::Span { stage, nanos, .. } => {
                let shard = self.shard();
                let si = stage.index();
                shard.counts[si].fetch_add(1, Ordering::Relaxed);
                shard.sums[si].fetch_add(nanos, Ordering::Relaxed);
                shard.maxes[si].fetch_max(nanos, Ordering::Relaxed);
                shard.buckets[si * BUCKETS + bucket_of(nanos)].fetch_add(1, Ordering::Relaxed);
            }
            Event::Count { name, delta } => {
                *relock(&self.counters).entry(name.to_string()).or_insert(0) += delta;
            }
            Event::Note { topic, text } => {
                relock(&self.notes).push((topic.to_string(), text.to_string()));
            }
        }
    }
}

/// A point-in-time fold of a [`MetricsSink`] (or of several, via
/// [`MetricsSnapshot::merge`] — the daemon merges one per worker receipt
/// in lease order).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Per-stage histograms, canonical stage order. Empty stages are
    /// absent.
    pub stages: BTreeMap<Stage, Histogram>,
    pub counters: BTreeMap<String, u64>,
    pub notes: Vec<(String, String)>,
}

impl MetricsSnapshot {
    /// Folds `other` in (histograms merge, counters add, notes append).
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (stage, h) in &other.stages {
            self.stages.entry(*stage).or_default().merge(h);
        }
        for (name, v) in &other.counters {
            *self.counters.entry(name.clone()).or_insert(0) += v;
        }
        self.notes.extend(other.notes.iter().cloned());
    }

    pub fn is_empty(&self) -> bool {
        self.stages.is_empty() && self.counters.is_empty() && self.notes.is_empty()
    }

    /// The counter value, 0 when never incremented.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Total recorded time for `stage` in seconds (0.0 when unseen).
    pub fn stage_secs(&self, stage: Stage) -> f64 {
        self.stages.get(&stage).map(|h| h.sum_ns as f64 / 1e9).unwrap_or(0.0)
    }

    /// Renders the worker-receipt `metric …` lines ([`parse_metric_line`]
    /// / [`parse_counter_line`] read them back on the daemon side).
    pub fn encode_lines(&self) -> String {
        let mut out = String::new();
        for (stage, h) in &self.stages {
            let _ = writeln!(out, "metric stage={} {}", stage.name(), h.encode());
        }
        for (name, v) in &self.counters {
            let _ = writeln!(out, "metric counter={name} value={v}");
        }
        out
    }
}

/// Parses one `metric stage=… count=… …` receipt line. `None` for
/// anything else (unknown lines are the caller's to skip).
pub fn parse_metric_line(line: &str) -> Option<(Stage, Histogram)> {
    let rest = line.trim().strip_prefix("metric ")?;
    let (first, tail) = rest.split_once(' ')?;
    let stage = Stage::from_name(first.strip_prefix("stage=")?)?;
    Some((stage, Histogram::parse(tail)?))
}

/// Parses one `metric counter=… value=…` receipt line.
pub fn parse_counter_line(line: &str) -> Option<(String, u64)> {
    let rest = line.trim().strip_prefix("metric ")?;
    let (first, tail) = rest.split_once(' ')?;
    let name = first.strip_prefix("counter=")?;
    let value = tail.trim().strip_prefix("value=")?.parse().ok()?;
    Some((name.to_string(), value))
}

// ---------------------------------------------------------------------------
// JSONL tracing
// ---------------------------------------------------------------------------

/// A [`Recorder`] that streams every event as one JSON object per line.
///
/// Schema (all three shapes, every field always present):
///
/// ```text
/// {"type":"span","stage":"run","unit":12,"nanos":48211}
/// {"type":"count","name":"prefix_hit","delta":1}
/// {"type":"note","topic":"store","text":"prefix.bin: truncated torn tail"}
/// ```
///
/// Tracing is an observer: it writes to its own sink, so an attached
/// trace changes no campaign output byte (the identity tests pin this).
pub struct TraceRecorder {
    out: Mutex<Box<dyn std::io::Write + Send>>,
}

impl fmt::Debug for TraceRecorder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("TraceRecorder")
    }
}

impl TraceRecorder {
    pub fn new(out: Box<dyn std::io::Write + Send>) -> TraceRecorder {
        TraceRecorder { out: Mutex::new(out) }
    }

    /// Creates (truncating) `path` and streams events to it, buffered.
    pub fn create(path: &std::path::Path) -> std::io::Result<TraceRecorder> {
        let file = std::fs::File::create(path)?;
        Ok(TraceRecorder::new(Box::new(std::io::BufWriter::new(file))))
    }

    /// Flushes the underlying sink (also happens on drop).
    pub fn flush(&self) {
        let _ = relock(&self.out).flush();
    }
}

impl Drop for TraceRecorder {
    fn drop(&mut self) {
        self.flush();
    }
}

impl Recorder for TraceRecorder {
    fn record(&self, event: &Event<'_>) {
        let line = match *event {
            Event::Span { stage, unit, nanos } => {
                format!("{{\"type\":\"span\",\"stage\":\"{}\",\"unit\":{unit},\"nanos\":{nanos}}}\n", stage.name())
            }
            Event::Count { name, delta } => {
                format!("{{\"type\":\"count\",\"name\":{},\"delta\":{delta}}}\n", json_string(name))
            }
            Event::Note { topic, text } => {
                format!(
                    "{{\"type\":\"note\",\"topic\":{},\"text\":{}}}\n",
                    json_string(topic),
                    json_string(text)
                )
            }
        };
        let _ = relock(&self.out).write_all(line.as_bytes());
    }
}

/// Escapes `s` as a JSON string literal (quotes included).
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

// ---------------------------------------------------------------------------
// Telemetry line formatting
// ---------------------------------------------------------------------------

/// The single source of truth for `[scope] topic: k=v …` telemetry lines
/// (the `[store] …` stderr format CI greps). Every emitter in the
/// workspace renders through this builder, so the format cannot drift
/// between call sites.
#[derive(Debug)]
pub struct Line {
    buf: String,
}

impl Line {
    /// Starts a `[scope] topic:` line.
    pub fn new(scope: &str, topic: &str) -> Line {
        Line { buf: format!("[{scope}] {topic}:") }
    }

    /// Appends a bare word (e.g. the table name in `compact: prefix …`).
    pub fn text(mut self, word: impl Display) -> Line {
        let _ = write!(self.buf, " {word}");
        self
    }

    /// Appends a `key=value` field.
    pub fn field(mut self, key: &str, value: impl Display) -> Line {
        let _ = write!(self.buf, " {key}={value}");
        self
    }

    /// The finished line (no trailing newline).
    pub fn render(self) -> String {
        self.buf
    }
}

/// Convenience for the `[scope] event: text` shape.
pub fn event_line(scope: &str, text: &str) -> String {
    Line::new(scope, "event").text(text).render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[derive(Debug, Default)]
    struct CountingRecorder {
        spans: AtomicUsize,
        counts: AtomicUsize,
        notes: AtomicUsize,
    }

    impl Recorder for CountingRecorder {
        fn record(&self, event: &Event<'_>) {
            match event {
                Event::Span { .. } => self.spans.fetch_add(1, Ordering::Relaxed),
                Event::Count { .. } => self.counts.fetch_add(1, Ordering::Relaxed),
                Event::Note { .. } => self.notes.fetch_add(1, Ordering::Relaxed),
            };
        }
    }

    #[test]
    fn spans_are_inert_without_a_recorder() {
        // Must not read the clock or record anywhere: start stays None.
        let span = Span::enter(Stage::Run, 0);
        assert!(span.start.is_none());
    }

    #[test]
    fn nested_spans_record_to_every_attached_frame() {
        let outer = Arc::new(CountingRecorder::default());
        let inner = Arc::new(CountingRecorder::default());
        {
            let _a = attach(outer.clone());
            {
                let _b = attach(inner.clone());
                // Nested spans: the inner span closes first; both frames
                // see both spans.
                let _s1 = Span::enter(Stage::Oracle, 1);
                let _s2 = Span::enter(Stage::Run, 2);
            }
            count("after_inner", 1);
        }
        assert_eq!(outer.spans.load(Ordering::Relaxed), 2);
        assert_eq!(inner.spans.load(Ordering::Relaxed), 2);
        assert_eq!(outer.counts.load(Ordering::Relaxed), 1);
        assert_eq!(inner.counts.load(Ordering::Relaxed), 0, "popped frame no longer records");
        assert!(!active());
    }

    #[test]
    fn reattaching_the_same_recorder_records_once() {
        // A thread that already holds the campaign recorder (the daemon's
        // scheduler thread running a merge) attaches it again; the nested
        // attach must not add a second delivery frame — and its guard must
        // not pop the outer frame when it drops.
        let rec = Arc::new(CountingRecorder::default());
        {
            let _outer = attach(rec.clone());
            {
                let _inner = attach(rec.clone());
                let _s = Span::enter(Stage::Generate, 0);
            }
            let _s = Span::enter(Stage::Generate, 1);
        }
        assert_eq!(rec.spans.load(Ordering::Relaxed), 2, "one delivery per span");
        assert!(!active());
    }

    #[test]
    fn attach_guard_pops_on_panic() {
        let rec = Arc::new(CountingRecorder::default());
        let rec2 = rec.clone();
        let result = std::panic::catch_unwind(move || {
            let _g = attach(rec2);
            panic!("unit exploded");
        });
        assert!(result.is_err());
        assert!(!active(), "panicked frame must not leak its recorder");
        note("store", "ignored");
        assert_eq!(rec.notes.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn bucket_of_is_log2() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(2), 1);
        assert_eq!(bucket_of(3), 1);
        assert_eq!(bucket_of(1024), 10);
        assert_eq!(bucket_of(u64::MAX), 63);
    }

    #[test]
    fn histogram_quantiles_are_bucket_upper_bounds_capped_at_max() {
        let mut h = Histogram::new();
        for v in [10, 20, 30, 40, 1000] {
            h.record(v);
        }
        assert_eq!(h.count, 5);
        assert_eq!(h.max_ns, 1000);
        // p50 rank 3 → value 30 lives in bucket 4 ([16,32)) → upper 31.
        assert_eq!(h.p50(), 31);
        // p95 rank 5 → bucket of 1000 is 9 ([512,1024)) → upper 1023,
        // capped at the observed max 1000.
        assert_eq!(h.p95(), 1000);
        assert!(h.p95() >= h.p50());
        assert_eq!(Histogram::new().p50(), 0);
    }

    #[test]
    fn histogram_merge_equals_sequential_recording() {
        let samples: Vec<u64> = (0..200).map(|i| (i * 37 + 11) % 5000).collect();
        let mut sequential = Histogram::new();
        for &s in &samples {
            sequential.record(s);
        }
        // Partition across any worker count; merging in canonical order
        // must reproduce the sequential histogram exactly.
        for workers in [1usize, 2, 8, 16] {
            let mut parts = vec![Histogram::new(); workers];
            for (i, &s) in samples.iter().enumerate() {
                parts[i % workers].record(s);
            }
            let mut merged = Histogram::new();
            for p in &parts {
                merged.merge(p);
            }
            assert_eq!(merged, sequential, "workers={workers}");
        }
    }

    #[test]
    fn histogram_encode_roundtrips() {
        let mut h = Histogram::new();
        for v in [0, 1, 7, 4096, 123_456_789] {
            h.record(v);
        }
        let encoded = h.encode();
        assert_eq!(Histogram::parse(&encoded), Some(h));
        assert_eq!(Histogram::parse(&Histogram::new().encode()), Some(Histogram::new()));
        assert_eq!(Histogram::parse("garbage"), None);
        assert_eq!(Histogram::parse("count=x"), None);
        assert_eq!(Histogram::parse("count=1 buckets=99:1"), None, "bucket out of range");
    }

    #[test]
    fn metrics_sink_aggregates_and_snapshots() {
        let sink = MetricsSink::new();
        for i in 0..10 {
            sink.record(&Event::Span { stage: Stage::Run, unit: i, nanos: 100 * (i + 1) });
        }
        sink.record(&Event::Count { name: "prefix_hit", delta: 3 });
        sink.record(&Event::Note { topic: "store", text: "torn tail" });
        let snap = sink.snapshot();
        let run = &snap.stages[&Stage::Run];
        assert_eq!(run.count, 10);
        assert_eq!(run.sum_ns, 100 * 55);
        assert_eq!(run.max_ns, 1000);
        assert_eq!(snap.counter("prefix_hit"), 3);
        assert_eq!(snap.notes, vec![("store".to_string(), "torn tail".to_string())]);
        assert!(!snap.stages.contains_key(&Stage::Oracle), "unseen stages are absent");
    }

    #[test]
    fn snapshot_merge_is_order_insensitive_on_totals() {
        let a_sink = MetricsSink::new();
        let b_sink = MetricsSink::new();
        a_sink.record(&Event::Span { stage: Stage::Sanitize, unit: 0, nanos: 50 });
        b_sink.record(&Event::Span { stage: Stage::Sanitize, unit: 1, nanos: 70 });
        b_sink.record(&Event::Count { name: "san_miss", delta: 2 });
        let (a, b) = (a_sink.snapshot(), b_sink.snapshot());
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab.stages, ba.stages);
        assert_eq!(ab.counters, ba.counters);
        assert_eq!(ab.stages[&Stage::Sanitize].count, 2);
        assert_eq!(ab.counter("san_miss"), 2);
    }

    #[test]
    fn receipt_lines_roundtrip() {
        let sink = MetricsSink::new();
        sink.record(&Event::Span { stage: Stage::PrefixCompile, unit: 0, nanos: 2048 });
        sink.record(&Event::Span { stage: Stage::Run, unit: 0, nanos: 17 });
        sink.record(&Event::Count { name: "prefix_miss", delta: 1 });
        let snap = sink.snapshot();
        let mut decoded = MetricsSnapshot::default();
        for line in snap.encode_lines().lines() {
            if let Some((stage, h)) = parse_metric_line(line) {
                decoded.stages.entry(stage).or_default().merge(&h);
            } else if let Some((name, v)) = parse_counter_line(line) {
                *decoded.counters.entry(name).or_insert(0) += v;
            } else {
                panic!("unparseable receipt line: {line}");
            }
        }
        assert_eq!(decoded.stages, snap.stages);
        assert_eq!(decoded.counters, snap.counters);
        // Unknown receipt lines are somebody else's (computed=/replayed=).
        assert_eq!(parse_metric_line("computed=3 replayed=0"), None);
        assert_eq!(parse_metric_line("metric stage=not_a_stage count=1 buckets=-"), None);
    }

    #[test]
    fn trace_recorder_emits_valid_jsonl() {
        use std::sync::atomic::AtomicBool;
        #[derive(Debug, Clone, Default)]
        struct SharedBuf(Arc<Mutex<Vec<u8>>>, Arc<AtomicBool>);
        impl std::io::Write for SharedBuf {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                relock(&self.0).extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                self.1.store(true, Ordering::Relaxed);
                Ok(())
            }
        }
        let buf = SharedBuf::default();
        let tracer = TraceRecorder::new(Box::new(buf.clone()));
        tracer.record(&Event::Span { stage: Stage::StoreOpen, unit: 7, nanos: 99 });
        tracer.record(&Event::Count { name: "leases_issued", delta: 1 });
        tracer.record(&Event::Note { topic: "store", text: "a \"quoted\"\nnote" });
        drop(tracer);
        assert!(buf.1.load(Ordering::Relaxed), "drop flushes");
        let text = String::from_utf8(relock(&buf.0).clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], "{\"type\":\"span\",\"stage\":\"store_open\",\"unit\":7,\"nanos\":99}");
        assert_eq!(lines[1], "{\"type\":\"count\",\"name\":\"leases_issued\",\"delta\":1}");
        assert_eq!(lines[2], "{\"type\":\"note\",\"topic\":\"store\",\"text\":\"a \\\"quoted\\\"\\nnote\"}");
    }

    #[test]
    fn stage_names_roundtrip() {
        for stage in Stage::ALL {
            assert_eq!(Stage::from_name(stage.name()), Some(stage));
        }
        assert_eq!(Stage::from_name("bogus"), None);
    }

    #[test]
    fn line_formatter_matches_the_store_telemetry_shapes() {
        let line = Line::new("store", "prefix")
            .field("loaded", 3)
            .field("persisted", 4)
            .field("hits", 5)
            .field("misses", 0)
            .field("cold", false)
            .field("truncated", false)
            .render();
        assert_eq!(line, "[store] prefix: loaded=3 persisted=4 hits=5 misses=0 cold=false truncated=false");
        let compact = Line::new("store", "compact")
            .text("prefix")
            .field("before", 10)
            .field("after", 6)
            .render();
        assert_eq!(compact, "[store] compact: prefix before=10 after=6");
        assert_eq!(event_line("store", "torn tail"), "[store] event: torn tail");
    }
}
