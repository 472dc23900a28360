//! Whole-core configuration: presets, and the named, validated
//! [`UarchConfig`] wrapper that config files describe.

use crate::branch::PredictorKind;
use crate::cache::{CacheConfig, CacheConfigError};
use crate::core::CoreSim;
use crate::cycles::CycleModel;
use crate::hierarchy::{HierarchyConfig, LatencyModel};
use crate::prefetch::PrefetcherKind;
use crate::tlb::{TlbConfig, MAX_TLB_ENTRIES};
use std::error::Error;
use std::fmt;

/// Configuration of a simulated core: memory hierarchy, branch predictor,
/// TLB and cycle model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoreConfig {
    /// Cache hierarchy geometry.
    pub hierarchy: HierarchyConfig,
    /// Branch predictor family.
    pub predictor: PredictorKind,
    /// log2 of the predictor table size.
    pub predictor_bits: u32,
    /// Data TLB geometry.
    pub tlb: TlbConfig,
    /// Cycle cost model.
    pub cycles: CycleModel,
}

impl Default for CoreConfig {
    fn default() -> Self {
        CoreConfig {
            hierarchy: HierarchyConfig::default(),
            predictor: PredictorKind::Tournament,
            predictor_bits: 12,
            tlb: TlbConfig::default(),
            cycles: CycleModel::default(),
        }
    }
}

impl CoreConfig {
    /// Full-geometry model of the paper's evaluation platform, an Intel
    /// Xeon E5-2690 (Sandy Bridge EP): 32 KiB 8-way L1D, 256 KiB 8-way L2,
    /// 20 MiB 20-way shared LLC, 64 B lines.
    pub fn xeon_e5_2690() -> Self {
        CoreConfig {
            hierarchy: HierarchyConfig {
                l1d: CacheConfig::new(32 * 1024, 8, 64),
                l2: CacheConfig::new(256 * 1024, 8, 64),
                l3: CacheConfig::new(20 * 1024 * 1024, 20, 64),
                latency: LatencyModel {
                    l1: 4,
                    l2: 12,
                    l3: 31,
                    dram: 190,
                },
                prefetcher: PrefetcherKind::Stride,
            },
            predictor: PredictorKind::Tournament,
            predictor_bits: 14,
            tlb: TlbConfig {
                entries: 64,
                associativity: 4,
                page_bytes: 4096,
            },
            cycles: CycleModel::default(),
        }
    }

    /// A deliberately small core used by fast unit tests: tiny caches so
    /// eviction behaviour is exercised with small workloads.
    pub fn tiny() -> Self {
        CoreConfig {
            hierarchy: HierarchyConfig {
                l1d: CacheConfig::new(1024, 2, 64),
                l2: CacheConfig::new(4 * 1024, 4, 64),
                l3: CacheConfig::new(16 * 1024, 4, 64),
                latency: LatencyModel::default(),
                prefetcher: PrefetcherKind::None,
            },
            predictor: PredictorKind::Bimodal,
            predictor_bits: 8,
            tlb: TlbConfig {
                entries: 8,
                associativity: 2,
                page_bytes: 4096,
            },
            cycles: CycleModel::default(),
        }
    }
}

/// A named description of one full simulated CPU — the unit the preset
/// zoo and `--uarch` config files deal in.
///
/// This is [`CoreConfig`] plus an identity: the name labels sweep rows,
/// telemetry and cache chatter, and the description documents what the
/// platform models. [`validate`](Self::validate) checks every field the
/// constructors would otherwise panic on, so a config parsed from an
/// untrusted file fails with a named-field error instead of aborting.
#[derive(Debug, Clone, PartialEq)]
pub struct UarchConfig {
    /// Preset or file-supplied platform name (non-empty).
    pub name: String,
    /// One-line description of what the platform models.
    pub description: String,
    /// The simulated core itself.
    pub core: CoreConfig,
}

/// Why a [`UarchConfig`] is not instantiable.
#[derive(Debug, Clone, PartialEq)]
pub enum UarchConfigError {
    /// The platform name is empty.
    EmptyName,
    /// A cache level's geometry is invalid.
    Cache {
        /// Which level (`"l1d"`, `"l2"`, `"l3"`).
        level: &'static str,
        /// The underlying geometry error.
        source: CacheConfigError,
    },
    /// `predictor_bits` outside the range the predictor tables accept.
    PredictorBits(u32),
    /// The TLB geometry is invalid.
    Tlb {
        /// Which constraint failed, in field terms.
        detail: String,
    },
    /// A cycle-model field is outside its documented domain.
    Cycles {
        /// Which field.
        field: &'static str,
        /// What the domain is.
        detail: String,
    },
}

impl fmt::Display for UarchConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UarchConfigError::EmptyName => write!(f, "field \"name\" must be non-empty"),
            UarchConfigError::Cache { level, source } => {
                write!(f, "field \"{level}\": {source}")
            }
            UarchConfigError::PredictorBits(bits) => write!(
                f,
                "field \"predictor.bits\": {bits} is outside 1..=24 (table sizes are 2^bits)"
            ),
            UarchConfigError::Tlb { detail } => write!(f, "field \"tlb\": {detail}"),
            UarchConfigError::Cycles { field, detail } => {
                write!(f, "field \"cycles.{field}\": {detail}")
            }
        }
    }
}

impl Error for UarchConfigError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            UarchConfigError::Cache { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl UarchConfig {
    /// The default platform: the paper's Xeon E5-2690 under its zoo name.
    pub fn xeon_like() -> Self {
        UarchConfig {
            name: "xeon-like".to_owned(),
            description: "Intel Xeon E5-2690 (Sandy Bridge EP), the paper's platform".to_owned(),
            core: CoreConfig::xeon_e5_2690(),
        }
    }

    /// Checks every constraint the component constructors would panic
    /// on, reporting the first violation in config-file field terms.
    ///
    /// # Errors
    ///
    /// Returns [`UarchConfigError`] naming the offending field.
    pub fn validate(&self) -> Result<(), UarchConfigError> {
        if self.name.is_empty() {
            return Err(UarchConfigError::EmptyName);
        }
        for (level, cache) in [
            ("l1d", &self.core.hierarchy.l1d),
            ("l2", &self.core.hierarchy.l2),
            ("l3", &self.core.hierarchy.l3),
        ] {
            cache
                .validate()
                .map_err(|source| UarchConfigError::Cache { level, source })?;
        }
        if !(1..=24).contains(&self.core.predictor_bits) {
            return Err(UarchConfigError::PredictorBits(self.core.predictor_bits));
        }
        let tlb = &self.core.tlb;
        let tlb_err = |detail: String| UarchConfigError::Tlb { detail };
        if tlb.entries == 0 || tlb.associativity == 0 {
            return Err(tlb_err("entries and assoc must be non-zero".into()));
        }
        if tlb.entries > MAX_TLB_ENTRIES {
            return Err(tlb_err(format!(
                "entries ({}) exceeds the maximum of {MAX_TLB_ENTRIES}",
                tlb.entries
            )));
        }
        if !tlb.entries.is_multiple_of(tlb.associativity) {
            return Err(tlb_err(format!(
                "entries ({}) must be divisible by assoc ({})",
                tlb.entries, tlb.associativity
            )));
        }
        if !(tlb.entries / tlb.associativity).is_power_of_two() {
            return Err(tlb_err(format!(
                "set count ({}) must be a power of two",
                tlb.entries / tlb.associativity
            )));
        }
        if !tlb.page_bytes.is_power_of_two() {
            return Err(tlb_err(format!(
                "page_bytes ({}) must be a power of two",
                tlb.page_bytes
            )));
        }
        let cycles = &self.core.cycles;
        let finite_pos = |field: &'static str, v: f64| {
            if v.is_finite() && v > 0.0 {
                Ok(())
            } else {
                Err(UarchConfigError::Cycles {
                    field,
                    detail: format!("{v} is not a finite positive number"),
                })
            }
        };
        finite_pos("base_ipc", cycles.base_ipc)?;
        finite_pos("bus_divider", cycles.bus_divider)?;
        finite_pos("ref_ratio", cycles.ref_ratio)?;
        if !(0.0..1.0).contains(&cycles.memory_overlap) {
            return Err(UarchConfigError::Cycles {
                field: "memory_overlap",
                detail: format!("{} is outside [0, 1)", cycles.memory_overlap),
            });
        }
        Ok(())
    }

    /// Instantiates the simulated core this config describes — the
    /// factory behind the preset zoo and `--uarch`.
    ///
    /// # Errors
    ///
    /// Returns [`UarchConfigError`] when [`validate`](Self::validate)
    /// rejects the config.
    pub fn build(&self) -> Result<CoreSim, UarchConfigError> {
        self.validate()?;
        // Post-validation the component constructors cannot fail: the
        // hierarchy re-checks the same geometry, Tlb/predictor panics are
        // ruled out above.
        CoreSim::new(self.core).map_err(|source| UarchConfigError::Cache {
            level: "l1d",
            source,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::ReplacementPolicy;

    #[test]
    fn presets_are_valid_geometries() {
        for cfg in [
            CoreConfig::default(),
            CoreConfig::xeon_e5_2690(),
            CoreConfig::tiny(),
        ] {
            assert!(cfg.hierarchy.l1d.validate().is_ok());
            assert!(cfg.hierarchy.l2.validate().is_ok());
            assert!(cfg.hierarchy.l3.validate().is_ok());
        }
    }

    #[test]
    fn xeon_llc_is_20mib_20way() {
        let cfg = CoreConfig::xeon_e5_2690();
        assert_eq!(cfg.hierarchy.l3.size_bytes, 20 * 1024 * 1024);
        assert_eq!(cfg.hierarchy.l3.associativity, 20);
        assert_eq!(cfg.hierarchy.l3.num_sets(), 16384);
    }

    #[test]
    fn uarch_default_preset_is_the_paper_platform() {
        let u = UarchConfig::xeon_like();
        assert_eq!(u.name, "xeon-like");
        assert_eq!(u.core, CoreConfig::xeon_e5_2690());
        assert!(u.validate().is_ok());
        let sim = u.build().unwrap();
        assert_eq!(sim.config(), &u.core);
    }

    #[test]
    fn validate_names_the_offending_field() {
        let mut u = UarchConfig::xeon_like();
        u.name.clear();
        assert_eq!(u.validate(), Err(UarchConfigError::EmptyName));

        let mut u = UarchConfig::xeon_like();
        u.core.hierarchy.l2.associativity = 0;
        let err = u.validate().unwrap_err();
        assert!(matches!(err, UarchConfigError::Cache { level: "l2", .. }));
        assert!(err.to_string().contains("\"l2\""), "{err}");

        let mut u = UarchConfig::xeon_like();
        u.core.predictor_bits = 30;
        assert_eq!(u.validate(), Err(UarchConfigError::PredictorBits(30)));

        let mut u = UarchConfig::xeon_like();
        u.core.tlb.associativity = 0;
        assert!(u.validate().unwrap_err().to_string().contains("\"tlb\""));

        let mut u = UarchConfig::xeon_like();
        u.core.tlb.entries = 48; // 12 sets: not a power of two
        assert!(u
            .validate()
            .unwrap_err()
            .to_string()
            .contains("power of two"));

        let mut u = UarchConfig::xeon_like();
        u.core.cycles.memory_overlap = 1.5;
        let err = u.validate().unwrap_err();
        assert!(err.to_string().contains("memory_overlap"), "{err}");

        let mut u = UarchConfig::xeon_like();
        u.core.hierarchy.l1d.associativity = 128;
        let err = u.validate().unwrap_err();
        assert_eq!(
            err,
            UarchConfigError::Cache {
                level: "l1d",
                source: CacheConfigError::TooManyWays(128)
            }
        );

        let mut u = UarchConfig::xeon_like();
        u.core.hierarchy.l3.size_bytes = 1 << 40;
        let err = u.validate().unwrap_err();
        assert!(matches!(err, UarchConfigError::Cache { level: "l3", .. }));
        assert!(err.to_string().contains("size_bytes"), "{err}");
        assert!(u.build().is_err());

        let mut u = UarchConfig::xeon_like();
        u.core.tlb.entries = MAX_TLB_ENTRIES * 2;
        let err = u.validate().unwrap_err();
        assert!(err.to_string().contains("\"tlb\": entries"), "{err}");

        // `build` refuses the same configs instead of panicking deeper in.
        let mut u = UarchConfig::xeon_like();
        u.core.tlb.entries = 0;
        assert!(u.build().is_err());
    }

    #[test]
    fn enum_names_round_trip() {
        for p in ReplacementPolicy::ALL {
            assert_eq!(ReplacementPolicy::from_name(p.name()), Some(p));
        }
        for w in crate::cache::WritePolicy::ALL {
            assert_eq!(crate::cache::WritePolicy::from_name(w.name()), Some(w));
        }
        for k in PrefetcherKind::ALL {
            assert_eq!(PrefetcherKind::from_name(k.name()), Some(k));
        }
        for k in PredictorKind::ALL {
            assert_eq!(PredictorKind::from_name(k.name()), Some(k));
        }
        assert_eq!(ReplacementPolicy::from_name("plru"), None);
    }
}
