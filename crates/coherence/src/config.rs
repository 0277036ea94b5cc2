//! Machine configuration: processor count, cluster size, cache
//! organization.
//!
//! The paper fixes the machine at 64 processors and varies the cluster
//! size over {1, 2, 4, 8} while keeping the *total* cache per processor
//! fixed: a cluster of `C` processors shares a single cache of
//! `C × (per-processor size)`.

use simcore::cache::CacheKind;
use simcore::space::ProcId;

use crate::latency::LatencyTable;

/// A rejected machine configuration. These are user-reachable (the
/// bench CLIs accept `--procs` and cluster sizes), so validation
/// offers [`MachineConfig::validate`] returning this typed error
/// alongside the panicking [`MachineConfig::validated`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ConfigError {
    /// Zero processors.
    ZeroProcessors,
    /// Zero processors per cluster.
    ZeroClusterSize,
    /// Cluster size does not divide the processor count.
    ClusterDoesNotDivide {
        /// Requested processors per cluster.
        per_cluster: u32,
        /// Requested total processors.
        n_procs: u32,
    },
    /// More clusters than the directory's 64-bit sharer vector can
    /// track.
    TooManyClusters {
        /// The resulting cluster count.
        clusters: u32,
        /// The directory's limit.
        max: u32,
    },
    /// Invalid per-cluster cache geometry, found when
    /// [`crate::MemorySystem::try_new`] builds the caches.
    Cache(simcore::cache::CacheError),
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ZeroProcessors => write!(f, "processor count must be positive"),
            ConfigError::ZeroClusterSize => write!(f, "cluster size must be positive"),
            ConfigError::ClusterDoesNotDivide {
                per_cluster,
                n_procs,
            } => write!(
                f,
                "cluster size {per_cluster} must divide processor count {n_procs}"
            ),
            ConfigError::TooManyClusters { clusters, max } => write!(
                f,
                "{clusters} clusters exceed the directory bit vector's {max}"
            ),
            ConfigError::Cache(e) => write!(f, "invalid cache geometry: {e}"),
        }
    }
}

impl std::error::Error for ConfigError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ConfigError::Cache(e) => Some(e),
            _ => None,
        }
    }
}

impl From<simcore::cache::CacheError> for ConfigError {
    fn from(e: simcore::cache::CacheError) -> ConfigError {
        ConfigError::Cache(e)
    }
}

/// Per-processor cache size specification used by the study sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheSpec {
    /// Infinite cache (Section 4: compulsory + coherence misses only).
    Infinite,
    /// Fully-associative LRU, this many bytes per processor (Section 5
    /// uses 4 KB, 16 KB and 32 KB).
    PerProcBytes(u64),
    /// Set-associative, bytes per processor and ways (extension study).
    PerProcSetAssoc {
        /// Bytes per processor.
        bytes: u64,
        /// Associativity.
        ways: usize,
    },
    /// The paper's *second* cluster type (§2): a shared-main-memory
    /// cluster. Each processor keeps a private fully-associative cache
    /// of `bytes`; cluster mates are kept coherent over a snoopy bus,
    /// and a miss that a mate can supply costs `bus_cycles` instead of
    /// going off-cluster. "In clustered memory systems destructive
    /// interference does not exist, since the caches are separate"; the
    /// flip side is that read-shared working sets are duplicated per
    /// processor rather than stored once.
    PrivatePerProc {
        /// Bytes per private per-processor cache.
        bytes: u64,
        /// Latency of an intra-cluster cache-to-cache (bus) transfer.
        bus_cycles: u64,
    },
}

impl CacheSpec {
    /// Resolves to a concrete per-cluster cache organization. For
    /// [`CacheSpec::PrivatePerProc`] this is the organization of each
    /// *processor's* private cache instead.
    pub fn to_kind(self, procs_per_cluster: u32) -> CacheKind {
        match self {
            CacheSpec::Infinite => CacheKind::Infinite,
            CacheSpec::PerProcBytes(b) => {
                CacheKind::full_lru_per_proc(b, simcore::cast::usize_from(procs_per_cluster))
            }
            CacheSpec::PerProcSetAssoc { bytes, ways } => {
                let lines = usize::try_from(bytes / simcore::addr::LINE_BYTES)
                    .unwrap_or(usize::MAX)
                    .saturating_mul(simcore::cast::usize_from(procs_per_cluster));
                CacheKind::SetAssoc { lines, ways }
            }
            CacheSpec::PrivatePerProc { bytes, .. } => CacheKind::full_lru_per_proc(bytes, 1),
        }
    }

    /// Whether this is the shared-main-memory cluster organization
    /// (private caches + snoopy bus).
    pub fn is_private(&self) -> bool {
        matches!(self, CacheSpec::PrivatePerProc { .. })
    }

    /// Human-readable label ("inf", "4k", ...), matching the paper's
    /// figure axes.
    pub fn label(&self) -> String {
        match self {
            CacheSpec::Infinite => "inf".to_string(),
            CacheSpec::PerProcBytes(b) => format!("{}k", b / 1024),
            CacheSpec::PerProcSetAssoc { bytes, ways } => {
                format!("{}k/{}w", bytes / 1024, ways)
            }
            CacheSpec::PrivatePerProc { bytes, .. } => format!("{}k-priv", bytes / 1024),
        }
    }
}

/// The directory's sharer vector is one `u64`: one bit per cluster.
const MAX_CLUSTERS: u32 = 64;

/// Complete machine configuration for one simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MachineConfig {
    /// Total processors (64 in all the paper's runs).
    pub n_procs: u32,
    /// Processors per cluster (1, 2, 4 or 8).
    pub per_cluster: u32,
    /// Per-cluster cache organization.
    pub cache: CacheSpec,
    /// Miss-latency model.
    pub lat: LatencyTable,
}

impl MachineConfig {
    /// The paper's configuration: 64 processors, Table 1 latencies.
    pub fn paper(per_cluster: u32, cache: CacheSpec) -> Self {
        MachineConfig {
            n_procs: 64,
            per_cluster,
            cache,
            lat: LatencyTable::paper(),
        }
        .validated()
    }

    /// Validates internal consistency and returns `self`, panicking
    /// on an invalid shape; [`MachineConfig::validate`] is the
    /// non-panicking form for user-supplied configurations.
    pub fn validated(self) -> Self {
        // cluster_check: allow(no-panic) — documented panicking
        // convenience; validate() is the typed form for user input.
        self.validate().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Checks internal consistency, returning `self` or the typed
    /// reason the shape is invalid: positive sizes, a cluster size
    /// that divides the processor count, and no more clusters than the
    /// directory's 64-bit sharer vector can track.
    pub fn validate(self) -> Result<Self, ConfigError> {
        if self.n_procs == 0 {
            return Err(ConfigError::ZeroProcessors);
        }
        if self.per_cluster == 0 {
            return Err(ConfigError::ZeroClusterSize);
        }
        if !self.n_procs.is_multiple_of(self.per_cluster) {
            return Err(ConfigError::ClusterDoesNotDivide {
                per_cluster: self.per_cluster,
                n_procs: self.n_procs,
            });
        }
        if self.n_clusters() > MAX_CLUSTERS {
            return Err(ConfigError::TooManyClusters {
                clusters: self.n_clusters(),
                max: MAX_CLUSTERS,
            });
        }
        Ok(self)
    }

    /// Number of clusters.
    #[inline]
    pub fn n_clusters(&self) -> u32 {
        self.n_procs / self.per_cluster
    }

    /// Cluster containing processor `p`. Processors are numbered so
    /// that consecutive processors share a cluster, matching the apps'
    /// partitioning assumptions (e.g. Ocean assigns adjacent subgrids in
    /// a row to consecutive processors, so clustering captures
    /// neighbors).
    #[inline]
    pub fn cluster_of(&self, p: ProcId) -> u32 {
        debug_assert!(p < self.n_procs);
        p / self.per_cluster
    }

    /// Concrete cache organization for one cluster.
    pub fn cluster_cache_kind(&self) -> CacheKind {
        self.cache.to_kind(self.per_cluster)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::cache::CacheKind;

    #[test]
    fn cluster_mapping_is_contiguous() {
        let m = MachineConfig::paper(4, CacheSpec::Infinite);
        assert_eq!(m.n_clusters(), 16);
        assert_eq!(m.cluster_of(0), 0);
        assert_eq!(m.cluster_of(3), 0);
        assert_eq!(m.cluster_of(4), 1);
        assert_eq!(m.cluster_of(63), 15);
    }

    #[test]
    fn cache_scaling_keeps_total_per_proc() {
        let m = MachineConfig::paper(8, CacheSpec::PerProcBytes(4096));
        match m.cluster_cache_kind() {
            CacheKind::FullLru { lines } => assert_eq!(lines, 8 * 64),
            _ => panic!(),
        }
    }

    #[test]
    #[should_panic]
    fn invalid_cluster_size_rejected() {
        let _ = MachineConfig::paper(3, CacheSpec::Infinite);
    }

    #[test]
    fn labels() {
        assert_eq!(CacheSpec::Infinite.label(), "inf");
        assert_eq!(CacheSpec::PerProcBytes(4096).label(), "4k");
        assert_eq!(
            CacheSpec::PerProcSetAssoc {
                bytes: 16384,
                ways: 2
            }
            .label(),
            "16k/2w"
        );
    }

    #[test]
    fn validate_reports_typed_errors() {
        let base = MachineConfig {
            n_procs: 64,
            per_cluster: 4,
            cache: CacheSpec::Infinite,
            lat: LatencyTable::paper(),
        };
        assert!(base.validate().is_ok());
        let zero = MachineConfig { n_procs: 0, ..base };
        assert_eq!(zero.validate().err(), Some(ConfigError::ZeroProcessors));
        let zc = MachineConfig {
            per_cluster: 0,
            ..base
        };
        assert_eq!(zc.validate().err(), Some(ConfigError::ZeroClusterSize));
        let odd = MachineConfig {
            per_cluster: 3,
            ..base
        };
        assert_eq!(
            odd.validate().err(),
            Some(ConfigError::ClusterDoesNotDivide {
                per_cluster: 3,
                n_procs: 64
            })
        );
        assert!(odd
            .validate()
            .unwrap_err()
            .to_string()
            .contains("must divide"));
        let wide = MachineConfig {
            n_procs: 128,
            per_cluster: 1,
            ..base
        };
        assert_eq!(
            wide.validate().err(),
            Some(ConfigError::TooManyClusters {
                clusters: 128,
                max: 64
            })
        );
        assert!(MachineConfig {
            per_cluster: 2,
            ..wide
        }
        .validate()
        .is_ok());
    }

    #[test]
    fn set_assoc_spec_resolves() {
        let spec = CacheSpec::PerProcSetAssoc {
            bytes: 4096,
            ways: 4,
        };
        match spec.to_kind(2) {
            CacheKind::SetAssoc { lines, ways } => {
                assert_eq!(lines, 128);
                assert_eq!(ways, 4);
            }
            _ => panic!(),
        }
    }
}
