//! Lint fixture: a store-shard field read that truncates a `u64`
//! (`no-lossy-cast` in the study crate).

pub fn cluster_field(v: u64) -> u32 {
    v as u32
}
