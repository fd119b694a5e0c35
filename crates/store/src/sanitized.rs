//! An empty stand-in for the post-sanitize module table the store no longer
//! has. The sanitizer pass reruns over the stored prefix on every compile,
//! and [`PrefixStore::open`](crate::PrefixStore::open) removes a v3 store's
//! leftover `sanitized.bin`.

use crate::StoreTelemetry;
use std::path::Path;
use std::sync::LazyLock;

/// A fieldless marker that opens nothing and reads as an empty table. Kept
/// only because the benchmark harness (`ubbench`) still names it; it goes
/// with the next change to the benchmark.
#[derive(Debug, Clone, Copy, Default)]
pub struct SanitizedStore;

/// The telemetry of a table that loads nothing.
static NOTHING: LazyLock<StoreTelemetry> = LazyLock::new(StoreTelemetry::default);

impl SanitizedStore {
    /// The marker; touches nothing under `dir`.
    pub fn open_budgeted(_dir: impl AsRef<Path>, _budget: usize) -> SanitizedStore {
        SanitizedStore
    }

    /// Always 0.
    pub fn size_bytes(&self) -> u64 {
        0
    }

    /// Telemetry that loads and persists nothing.
    pub fn telemetry(&self) -> &StoreTelemetry {
        &NOTHING
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn marker_reads_as_an_empty_table_and_touches_nothing() {
        let dir = std::env::temp_dir().join(format!("ubfuzz-sanmarker-{}", std::process::id()));
        let marker = SanitizedStore::open_budgeted(&dir, 0);
        assert!(!dir.exists(), "the marker creates nothing");
        assert_eq!(marker.size_bytes(), 0);
        assert_eq!((marker.telemetry().loaded(), marker.telemetry().persisted()), (0, 0));
        assert!(marker.telemetry().events().is_empty());
    }
}
