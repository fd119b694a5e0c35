//! Campaign-side glue for the persistent store ([`ubfuzz_store`]): campaign
//! fingerprinting for checkpoint compatibility, the codec of the group
//! verdicts the checkpoint log holds, and merging found bugs into the
//! cross-invocation corpus.

use crate::campaign::{CampaignConfig, CampaignStats, GroupVerdict, Observation};
use ubfuzz_backend::CompilerBackend;
use ubfuzz_oracle::DropReason;
use ubfuzz_simcc::cov::{self, CovDelta};
use ubfuzz_simcc::defects::DefectRegistry;
use ubfuzz_store::modser;
use ubfuzz_store::wire::{Dec, Enc, WireError};
use ubfuzz_store::{BugCorpus, BugRecord, MergeSummary};

/// A stable identity for a campaign *plan*: two configurations with the
/// same fingerprint enumerate the same group list in the same order, which
/// is the precondition for replaying a checkpoint log by group index.
///
/// Implemented as an FNV-1a over the `Debug` rendering of every
/// plan-relevant field — deliberately including the generator/seed/defect
/// options wholesale, so *any* change to what a campaign would do reads as
/// "a different campaign" and cold-starts the log (the safe direction; a
/// false mismatch only costs recomputation). The backend's name
/// participates too: a checkpoint written by the simulated backend must not
/// be replayed into a real-toolchain campaign.
pub fn config_fingerprint(cfg: &CampaignConfig) -> u64 {
    let backend_name =
        cfg.backend.as_ref().map(|b| b.name().to_string()).unwrap_or_else(|| "sim".into());
    let mut plan = format!(
        "{}|{}|{:?}|{:?}|{:?}|{:?}|{}|{:?}|{backend_name}",
        cfg.first_seed,
        cfg.seeds,
        cfg.seed_options,
        cfg.gen_options,
        cfg.generator,
        cfg.registry,
        cfg.reduce,
        cfg.strategy,
    );
    // Appended only for non-full policies so every pre-partition
    // fingerprint — and the checkpoint logs keyed by it — stays valid.
    if !cfg.san_policy.is_full() {
        plan.push_str(&format!("|san:{}", cfg.san_policy));
    }
    ubfuzz_store::wire::fnv1a(plan.as_bytes())
}

/// [`config_fingerprint`] extended with everything else a checkpointed
/// group verdict depends on — what the checkpoint log is actually keyed by:
///
/// * the resolved backend's toolchain descriptors: the plan maps group
///   indices to `(compiler, opt)` matrices through `toolchains()`, so a
///   probed toolchain set that changed between invocations (a compiler
///   upgraded or un/installed under `CcBackend`) must read as a different
///   campaign even when the config — and the group *count* — match;
/// * the backend's trace capability and the oracle's name: a verdict
///   records how the oracle judged the cells, which depends on both;
/// * the version of the verdict record codec, and the coverage point
///   registry its coverage deltas are bitsets over;
/// * for a guided campaign, the frontier fingerprint its generation budgets
///   (and so its group list) were derived from.
///
/// A checkpoint written under any other value of these must never replay.
pub fn campaign_fingerprint(
    cfg: &CampaignConfig,
    backend: &dyn CompilerBackend,
    guidance: Option<&ubfuzz_guide::GuidePlan>,
) -> u64 {
    let mut plan = format!(
        "{}|{:?}|oracle:{}|trace:{:?}|{VERDICT_FORMAT}:{:016x}",
        config_fingerprint(cfg),
        backend.toolchains(),
        cfg.resolve_oracle().name(),
        backend.trace_capability(),
        ubfuzz_store::wire::fnv1a(format!("{:?}", cov::POINTS).as_bytes()),
    );
    if let Some(g) = guidance {
        plan.push_str(&format!("|frontier:{:016x}", g.frontier_fingerprint));
    }
    ubfuzz_store::wire::fnv1a(plan.as_bytes())
}

/// The version of the checkpoint's group-verdict record format
/// ([`enc_verdict`]); part of every campaign fingerprint, so a log in any
/// other format (the pre-verdict per-unit module records included) opens
/// as a different campaign.
const VERDICT_FORMAT: &str = "verdict-v1";

/// A verdict's drop outcome, by its tag in a record.
const DROP_TAGS: [Option<DropReason>; 5] = [
    None,
    Some(DropReason::OptimizationArtifact),
    Some(DropReason::NoModule),
    Some(DropReason::NoTrace),
    Some(DropReason::ExpectedMiss),
];

/// Encodes one group verdict as a checkpoint record payload.
pub(crate) fn enc_verdict(v: &GroupVerdict) -> Vec<u8> {
    let mut e = Enc::new();
    e.bool(v.discrepancy);
    let drop_tag = DROP_TAGS.iter().position(|d| *d == v.dropped);
    e.u8(drop_tag.expect("every drop reason has a tag") as u8);
    e.bool(v.expected_miss);
    e.vusize(v.observations.len());
    for o in &v.observations {
        modser::enc_vendor(&mut e, o.vendor);
        modser::enc_opt(&mut e, o.opt);
        e.bool(o.wrong_report);
        e.vusize(o.keys.len());
        for &(defect_id, invalid) in &o.keys {
            e.vstr(defect_id.unwrap_or(""));
            e.bool(invalid);
        }
    }
    let words = v.delta.words();
    e.vusize(words.len());
    for &w in words {
        e.u64(w);
    }
    e.into_bytes()
}

/// Decodes a payload written by [`enc_verdict`]. A defect id this build
/// does not know is corruption: the campaign recomputes the group.
pub(crate) fn dec_verdict(bytes: &[u8]) -> Result<GroupVerdict, WireError> {
    let mut d = Dec::new(bytes);
    let discrepancy = d.bool()?;
    let dropped = *DROP_TAGS.get(d.u8()? as usize).ok_or(WireError::Corrupt("drop reason"))?;
    let expected_miss = d.bool()?;
    let n = d.vcount(4)?;
    let mut observations = Vec::with_capacity(n);
    for _ in 0..n {
        let vendor = modser::dec_vendor(&mut d)?;
        let opt = modser::dec_opt(&mut d)?;
        let wrong_report = d.bool()?;
        let n = d.vcount(2)?;
        let mut keys = Vec::with_capacity(n);
        for _ in 0..n {
            let defect_id = match d.vstr()?.as_str() {
                "" => None,
                id => Some(DefectRegistry::get(id).ok_or(WireError::Corrupt("defect id"))?.id),
            };
            keys.push((defect_id, d.bool()?));
        }
        observations.push(Observation { vendor, opt, wrong_report, keys });
    }
    let words = (0..d.vcount(8)?).map(|_| d.u64()).collect::<Result<Vec<u64>, _>>()?;
    let delta = CovDelta::from_words(&words).ok_or(WireError::Corrupt("coverage delta"))?;
    d.finish()?;
    Ok(GroupVerdict { discrepancy, dropped, expected_miss, observations, delta })
}

/// Converts a campaign's deduplicated bugs into corpus records.
pub fn bug_records(stats: &CampaignStats) -> Vec<BugRecord> {
    stats
        .bugs
        .iter()
        .map(|b| BugRecord {
            key: b.corpus_key(),
            vendor: b.vendor.to_string(),
            sanitizer: b.sanitizer.to_string(),
            kind: b.kind.name().to_string(),
            defect_id: b.defect_id.map(str::to_string),
            invalid: b.invalid,
            wrong_report: b.wrong_report,
            test_case: b.test_case.clone(),
            duplicates: b.duplicates as u64,
        })
        .collect()
}

/// Merges a finished campaign's bugs into `corpus`, stamped with the
/// current wall-clock time. Idempotent per attribution key: re-finding a
/// known bug updates `last_seen`/counters instead of duplicating it.
pub fn merge_bugs(corpus: &mut BugCorpus, stats: &CampaignStats) -> MergeSummary {
    let now = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    corpus.merge(&bug_records(stats), now)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::GeneratorChoice;

    #[test]
    fn fingerprint_separates_plans() {
        let a = CampaignConfig::builder().seeds(3).build();
        let b = CampaignConfig::builder().seeds(4).build();
        let c = CampaignConfig::builder().seeds(3).generator(GeneratorChoice::Music).build();
        assert_eq!(config_fingerprint(&a), config_fingerprint(&a.clone()));
        assert_ne!(config_fingerprint(&a), config_fingerprint(&b));
        assert_ne!(config_fingerprint(&a), config_fingerprint(&c));
    }

    #[test]
    fn fingerprint_separates_san_policies() {
        use ubfuzz_simcc::SanPolicy;
        let full = CampaignConfig::builder().seeds(3).build();
        let explicit_full =
            CampaignConfig::builder().seeds(3).san_policy(SanPolicy::Full).build();
        let half = CampaignConfig::builder()
            .seeds(3)
            .san_policy(SanPolicy::Partial { ratio_pm: 500, salt: 0 })
            .build();
        let quarter = CampaignConfig::builder()
            .seeds(3)
            .san_policy(SanPolicy::Partial { ratio_pm: 250, salt: 0 })
            .build();
        // Full is the no-token default: pre-partition logs stay compatible.
        assert_eq!(config_fingerprint(&full), config_fingerprint(&explicit_full));
        assert_ne!(config_fingerprint(&full), config_fingerprint(&half));
        assert_ne!(config_fingerprint(&half), config_fingerprint(&quarter));
    }

    #[test]
    fn verdict_codec_round_trips_and_rejects_what_this_build_cannot_read() {
        use ubfuzz_simcc::target::{OptLevel, Vendor};
        let mut delta = CovDelta::new();
        delta.insert((Vendor::Llvm, "asan.rs", "run"));
        let verdict = GroupVerdict {
            discrepancy: true,
            dropped: Some(DropReason::NoTrace),
            expected_miss: true,
            observations: vec![Observation {
                vendor: Vendor::Gcc,
                opt: OptLevel::O2,
                wrong_report: false,
                keys: vec![(Some("gcc-asan-d01"), false), (None, true)],
            }],
            delta,
        };
        let bytes = enc_verdict(&verdict);
        assert_eq!(dec_verdict(&bytes).ok(), Some(verdict));
        let empty = GroupVerdict::default();
        assert_eq!(dec_verdict(&enc_verdict(&empty)).ok(), Some(empty));

        // A defect id this build does not know.
        let at = bytes.windows(12).position(|w| w == b"gcc-asan-d01").expect("id encoded");
        let mut unknown = bytes.clone();
        unknown[at] = b'x';
        assert!(dec_verdict(&unknown).is_err());
        // A coverage bit past the registry's last point.
        let mut past = bytes.clone();
        *past.last_mut().unwrap() = 0xFF;
        assert!(dec_verdict(&past).is_err());
        // Trailing bytes.
        let mut long = bytes;
        long.push(0);
        assert!(dec_verdict(&long).is_err());
    }

    #[test]
    fn bug_records_carry_the_dedup_key() {
        let stats = crate::campaign::run_campaign(&CampaignConfig::builder().seeds(4).build());
        assert!(!stats.bugs.is_empty());
        let records = bug_records(&stats);
        assert_eq!(records.len(), stats.bugs.len());
        for (bug, rec) in stats.bugs.iter().zip(&records) {
            assert_eq!(rec.key, bug.corpus_key());
            assert_eq!(rec.defect_id.as_deref(), bug.defect_id);
            // Keys are unique per deduplicated bug by construction.
            assert_eq!(records.iter().filter(|r| r.key == rec.key).count(), 1);
        }
    }
}
