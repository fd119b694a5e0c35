//! Partitioned sanitization: per-cell instrumentation policies.
//!
//! PartiSan-style partial sanitization trades overhead for detection by
//! instrumenting only a subset of the would-be check sites. The subset is a
//! **pure function** of `(salt, function name, site loc)` — every worker and
//! every replay derives the same subset with zero shared state, which is what
//! keeps partial-policy campaigns inside the repo's determinism contract.
//!
//! The campaign seed is folded into the salt once, up front, via
//! [`SanPolicy::seeded`]; after that the policy value itself carries
//! everything the predicate needs.

/// How much sanitizer instrumentation a compile cell receives.
///
/// `Full` is the default and must stay **bit-identical** to the
/// pre-partition pipeline: the sanitize pass takes no policy branch that
/// could perturb output, and the skipped-site set stays empty.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum SanPolicy {
    /// Instrument every check site (the bit-identical default).
    #[default]
    Full,
    /// Instrument nothing: the sanitizer runtime is linked but every check
    /// site is skipped (the overhead floor of the trade-off curve).
    None,
    /// Instrument a pseudo-random subset of sites.
    ///
    /// `ratio_pm` is the keep ratio in per-mille (0..=1000) — an integer so
    /// the policy stays `Eq + Hash` and wire round-trips are exact.
    /// `ratio_pm == 1000` keeps every site and compiles byte-identically to
    /// [`SanPolicy::Full`].
    Partial {
        /// Keep ratio in per-mille (500 = instrument ~half the sites).
        ratio_pm: u16,
        /// Subset selector; two policies with the same ratio but different
        /// salts instrument different subsets.
        salt: u64,
    },
}

/// FNV-1a, duplicated here so the subset predicate has no dependency on the
/// store crate (simcc sits below it in the workspace graph).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn fnv1a_u64(mut h: u64, v: u64) -> u64 {
    for b in v.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl SanPolicy {
    /// Does the policy instrument the check site at `loc` in function
    /// `func`? Pure: depends only on the policy value and the site identity.
    pub fn keeps(&self, func: &str, loc: ubfuzz_minic::Loc) -> bool {
        match *self {
            SanPolicy::Full => true,
            SanPolicy::None => false,
            SanPolicy::Partial { ratio_pm, salt } => {
                if ratio_pm >= 1000 {
                    return true;
                }
                if ratio_pm == 0 {
                    return false;
                }
                let mut h = fnv1a_u64(fnv1a(func.as_bytes()), salt);
                h = fnv1a_u64(h, loc.line as u64);
                h = fnv1a_u64(h, loc.col as u64);
                (h % 1000) < ratio_pm as u64
            }
        }
    }

    /// Folds the campaign seed into the subset selector so distinct
    /// campaigns sample distinct subsets by default. `Full`/`None` are
    /// unaffected — they have no subset to select.
    pub fn seeded(self, campaign_seed: u64) -> SanPolicy {
        match self {
            SanPolicy::Partial { ratio_pm, salt } => SanPolicy::Partial {
                ratio_pm,
                salt: fnv1a_u64(salt ^ 0x5eed_5a17_ba5e_u64, campaign_seed),
            },
            other => other,
        }
    }

    /// True when the policy is the bit-identical default.
    pub fn is_full(&self) -> bool {
        matches!(self, SanPolicy::Full)
    }

    /// Parses the wire/CLI spelling: `full`, `none`, `partial`,
    /// `partial:<ratio>`, or `partial:<ratio>:<salt>`, where `<ratio>` is
    /// either a float in `[0, 1]` (`0.5`) or an integer per-mille
    /// (`500`). Round-trips with [`std::fmt::Display`].
    pub fn parse(s: &str) -> Option<SanPolicy> {
        match s {
            "full" => return Some(SanPolicy::Full),
            "none" => return Some(SanPolicy::None),
            "partial" => return Some(SanPolicy::Partial { ratio_pm: 500, salt: 0 }),
            _ => {}
        }
        let rest = s.strip_prefix("partial:")?;
        let (ratio_str, salt) = match rest.split_once(':') {
            Some((r, s)) => (r, s.parse::<u64>().ok()?),
            None => (rest, 0),
        };
        let ratio_pm = if ratio_str.contains('.') {
            let f = ratio_str.parse::<f64>().ok()?;
            if !(0.0..=1.0).contains(&f) {
                return None;
            }
            (f * 1000.0).round() as u16
        } else {
            let pm = ratio_str.parse::<u16>().ok()?;
            if pm > 1000 {
                return None;
            }
            pm
        };
        Some(SanPolicy::Partial { ratio_pm, salt })
    }
}

impl std::fmt::Display for SanPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            SanPolicy::Full => f.write_str("full"),
            SanPolicy::None => f.write_str("none"),
            SanPolicy::Partial { ratio_pm, salt } => write!(f, "partial:{ratio_pm}:{salt}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ubfuzz_minic::Loc;

    #[test]
    fn parse_round_trips_display() {
        for p in [
            SanPolicy::Full,
            SanPolicy::None,
            SanPolicy::Partial { ratio_pm: 500, salt: 0 },
            SanPolicy::Partial { ratio_pm: 250, salt: 9_000_000_123 },
            SanPolicy::Partial { ratio_pm: 1000, salt: 7 },
        ] {
            assert_eq!(SanPolicy::parse(&p.to_string()), Some(p));
        }
    }

    #[test]
    fn parse_accepts_float_and_per_mille_ratios() {
        assert_eq!(
            SanPolicy::parse("partial:0.5"),
            Some(SanPolicy::Partial { ratio_pm: 500, salt: 0 })
        );
        assert_eq!(
            SanPolicy::parse("partial:250:9"),
            Some(SanPolicy::Partial { ratio_pm: 250, salt: 9 })
        );
        assert_eq!(
            SanPolicy::parse("partial:1.0:3"),
            Some(SanPolicy::Partial { ratio_pm: 1000, salt: 3 })
        );
        assert_eq!(SanPolicy::parse("partial"), Some(SanPolicy::Partial { ratio_pm: 500, salt: 0 }));
    }

    #[test]
    fn parse_rejects_garbage() {
        for bad in ["banana", "partial:1.5", "partial:1001", "partial:0.5:x", "Full", ""] {
            assert_eq!(SanPolicy::parse(bad), None, "{bad:?} should not parse");
        }
    }

    #[test]
    fn keeps_is_pure_and_ratio_extremes_are_exact() {
        let loc = Loc { line: 10, col: 3 };
        assert!(SanPolicy::Full.keeps("f", loc));
        assert!(!SanPolicy::None.keeps("f", loc));
        assert!(SanPolicy::Partial { ratio_pm: 1000, salt: 99 }.keeps("f", loc));
        assert!(!SanPolicy::Partial { ratio_pm: 0, salt: 99 }.keeps("f", loc));
        let p = SanPolicy::Partial { ratio_pm: 500, salt: 42 };
        for line in 0..50u32 {
            let l = Loc { line, col: 1 };
            assert_eq!(p.keeps("main", l), p.keeps("main", l));
        }
    }

    #[test]
    fn partial_subsets_depend_on_salt() {
        let a = SanPolicy::Partial { ratio_pm: 500, salt: 1 };
        let b = SanPolicy::Partial { ratio_pm: 500, salt: 2 };
        let mut differs = false;
        for line in 0..200u32 {
            let l = Loc { line, col: 0 };
            if a.keeps("main", l) != b.keeps("main", l) {
                differs = true;
                break;
            }
        }
        assert!(differs, "different salts must select different subsets");
    }

    #[test]
    fn partial_ratio_lands_near_target() {
        let p = SanPolicy::Partial { ratio_pm: 500, salt: 7 };
        let kept = (0..1000u32)
            .filter(|&line| p.keeps("main", Loc { line, col: 1 }))
            .count();
        assert!((350..=650).contains(&kept), "kept {kept}/1000 at ratio 0.5");
    }

    #[test]
    fn seeded_changes_partial_subset_only() {
        assert_eq!(SanPolicy::Full.seeded(9), SanPolicy::Full);
        assert_eq!(SanPolicy::None.seeded(9), SanPolicy::None);
        let p = SanPolicy::Partial { ratio_pm: 500, salt: 3 };
        let s1 = p.seeded(1);
        let s2 = p.seeded(2);
        assert_ne!(s1, s2);
        assert_eq!(s1, p.seeded(1), "seeding is deterministic");
    }
}
