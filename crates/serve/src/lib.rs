//! `ubfuzz-serve` — the campaign service.
//!
//! The paper's campaigns ran for months; a long-lived campaign wants to be
//! *submitted* to a daemon rather than babysat in a terminal. This crate is
//! that daemon plus its wire protocol:
//!
//! * [`daemon`] — accepts campaign submissions over a unix-domain socket,
//!   carves each campaign's unit index space into contiguous **leases**
//!   ([`ubfuzz_exec::LeaseLedger`]) and hands every lease to a worker
//!   *process* that checkpoints into its own shard of the store's campaign
//!   log ([`ubfuzz::store::CampaignLog`]). A worker that exits nonzero, is
//!   SIGKILLed, or overruns its lease deadline is reclaimed: the lease is
//!   re-issued under a fresh id and the replacement's replay scan skips
//!   whatever the dead worker already completed.
//! * [`worker`] — the worker-mode entry
//!   ([`ubfuzz::executor::run_unit_range`] behind flag parsing): compile
//!   and checkpoint only, no oracle. Merging is the daemon's job — once
//!   every lease is done it replays the shard union through
//!   [`ubfuzz::ParallelCampaign::run_planned`], the canonical
//!   sequential-order path, so the merged report is **bit-identical** to a
//!   single-process run of the same configuration.
//! * [`protocol`] / [`client`] — the line-based request protocol and the
//!   client helpers the `ubfuzz-serve` subcommands (and the tests) use.
//!
//! Everything socket-shaped is unix-only ([`std::os::unix::net`]); the
//! protocol and worker entry are portable.

pub mod protocol;
pub mod worker;

#[cfg(unix)]
pub mod client;
#[cfg(unix)]
pub mod daemon;

#[cfg(unix)]
pub use daemon::{run_daemon, DaemonConfig};

/// Parses `--flag value` out of an argument list (string-valued; callers
/// parse numbers themselves so each can report its own misuse).
pub fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).map(String::as_str)
}

/// [`flag_value`] parsed as an integer, with a default when absent.
/// `None` only when the flag is present but unparsable — misuse.
pub fn flag_num<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> Option<T> {
    match flag_value(args, flag) {
        None => Some(default),
        Some(v) => v.parse().ok(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flag_parsing() {
        let args: Vec<String> =
            ["--seeds", "8", "--shard", "3"].iter().map(|s| s.to_string()).collect();
        assert_eq!(flag_value(&args, "--seeds"), Some("8"));
        assert_eq!(flag_value(&args, "--missing"), None);
        assert_eq!(flag_num(&args, "--shard", 0_u64), Some(3));
        assert_eq!(flag_num(&args, "--missing", 7_usize), Some(7));
        let bad: Vec<String> = ["--seeds", "--shard"].iter().map(|s| s.to_string()).collect();
        assert_eq!(flag_num(&bad, "--seeds", 1_usize), None, "flag eating a flag is misuse");
    }
}
