//! The durable record of one finished study cell.
//!
//! A [`JournalEntry`] holds a cell's identity, its *complete*
//! [`RunStats`] (every per-processor breakdown and memory counter), how
//! the execution went and, for a sampled run, its sampling provenance.
//! It is the payload of every line of the `cluster_serve` result store
//! (`paper_run --cache DIR`), which makes an interrupted study
//! resumable: a rerun over the same store serves every recorded cell
//! instead of simulating it, and the manifest's deterministic view is
//! bit-identical to an uninterrupted run's. The store owns the crash
//! contract (append + `fdatasync`, torn-final-line healing; DESIGN.md
//! §12.3).

use std::time::Duration;

use simcore::sample::SamplingStats;
use simcore::stats::{Breakdown, MissStats, RunStats};
use simcore::Json;

use crate::parallel::RunStatus;

/// Process exit code of the result store's `kill_after`
/// crash-injection hook (`SERVE_KILL_AFTER_RECORDS`), chosen to be
/// distinguishable from both success and a panic.
pub const KILL_EXIT_CODE: i32 = 42;

/// One recorded simulation: identity, complete stats, and how the
/// execution went. The study's seeding is a pure function of the
/// `(app, cache, cluster)` triple, so a recorded result is
/// interchangeable with a re-executed one.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalEntry {
    /// Application name.
    pub app: String,
    /// Cache label (`"inf"`, `"4k"`, ...).
    pub cache: String,
    /// Processors per cluster.
    pub cluster: u32,
    /// The complete simulation result.
    pub stats: RunStats,
    /// Wall-clock of the original execution, when measured.
    pub wall: Option<Duration>,
    /// How the original execution completed.
    pub status: RunStatus,
    /// Attempts the original execution took.
    pub attempts: u32,
    /// Sampling provenance when the run was sampled; `None` for a
    /// full-trace run. A recorded sampled result is only
    /// interchangeable with a re-execution under the *same* sampling
    /// spec, so prefill filters on this.
    pub sampling: Option<SamplingStats>,
}

impl JournalEntry {
    /// The cell's `(app, cache, cluster)` identity within one study.
    pub fn key(&self) -> (String, String, u32) {
        (self.app.clone(), self.cache.clone(), self.cluster)
    }

    /// One JSONL line's worth of JSON.
    pub fn to_json(&self) -> Json {
        let mem = &self.stats.mem;
        let mut e = Json::obj()
            .with("app", self.app.as_str())
            .with("cache", self.cache.as_str())
            .with("cluster", self.cluster)
            .with("status", self.status.label())
            .with("attempts", self.attempts);
        if let Some(w) = self.wall {
            e.push("wall_seconds", w.as_secs_f64());
        }
        if let Some(s) = &self.sampling {
            e.push("sampling", s.to_json());
        }
        e.push("exec_time", self.stats.exec_time);
        e.push(
            "per_proc",
            Json::Arr(
                self.stats
                    .per_proc
                    .iter()
                    .map(|b| {
                        Json::Arr(vec![
                            Json::UInt(b.cpu),
                            Json::UInt(b.load),
                            Json::UInt(b.merge),
                            Json::UInt(b.sync),
                        ])
                    })
                    .collect(),
            ),
        );
        e.push(
            "mem",
            Json::obj()
                .with("read_hits", mem.read_hits)
                .with("write_hits", mem.write_hits)
                .with("read_misses", mem.read_misses)
                .with("write_misses", mem.write_misses)
                .with("upgrade_misses", mem.upgrade_misses)
                .with("merge_stalls", mem.merge_stalls)
                .with(
                    "by_latency",
                    Json::Arr(mem.by_latency.iter().map(|&x| Json::UInt(x)).collect()),
                )
                .with("invalidations", mem.invalidations)
                .with("evictions", mem.evictions)
                .with("writebacks", mem.writebacks)
                .with("local_satisfied", mem.local_satisfied)
                .with("bus_transfers", mem.bus_transfers)
                .with("bus_invalidations", mem.bus_invalidations),
        );
        e
    }

    /// Parses one recorded entry back, field-exactly. Never panics:
    /// anything malformed is an `Err` naming what was wrong.
    pub fn from_json(j: &Json) -> Result<JournalEntry, String> {
        let status_label = str_field(j, "status")?;
        let status = RunStatus::parse(status_label)
            .ok_or_else(|| format!("unknown status {status_label:?}"))?;
        let per_proc = j
            .get("per_proc")
            .and_then(Json::as_arr)
            .ok_or("missing per_proc array")?
            .iter()
            .map(|row| {
                let row = row
                    .as_arr()
                    .filter(|r| r.len() == 4)
                    .ok_or("per_proc row")?;
                let n = |i: usize| row[i].as_u64().ok_or("per_proc counter");
                Ok(Breakdown {
                    cpu: n(0)?,
                    load: n(1)?,
                    merge: n(2)?,
                    sync: n(3)?,
                })
            })
            .collect::<Result<Vec<Breakdown>, &str>>()
            .map_err(|e| format!("bad {e}"))?;
        let mem = j.get("mem").ok_or("missing mem object")?;
        let mc = |name: &str| u64_field(mem, name);
        let by_latency_v = mem
            .get("by_latency")
            .and_then(Json::as_arr)
            .filter(|a| a.len() == 4)
            .ok_or("missing by_latency[4]")?;
        let mut by_latency = [0u64; 4];
        for (slot, v) in by_latency.iter_mut().zip(by_latency_v) {
            *slot = v.as_u64().ok_or("bad by_latency counter")?;
        }
        Ok(JournalEntry {
            app: str_field(j, "app")?.to_string(),
            cache: str_field(j, "cache")?.to_string(),
            cluster: u64_field(j, "cluster")? as u32,
            stats: RunStats {
                per_proc,
                mem: MissStats {
                    read_hits: mc("read_hits")?,
                    write_hits: mc("write_hits")?,
                    read_misses: mc("read_misses")?,
                    write_misses: mc("write_misses")?,
                    upgrade_misses: mc("upgrade_misses")?,
                    merge_stalls: mc("merge_stalls")?,
                    by_latency,
                    invalidations: mc("invalidations")?,
                    evictions: mc("evictions")?,
                    writebacks: mc("writebacks")?,
                    local_satisfied: mc("local_satisfied")?,
                    bus_transfers: mc("bus_transfers")?,
                    bus_invalidations: mc("bus_invalidations")?,
                },
                exec_time: u64_field(j, "exec_time")?,
            },
            wall: j
                .get("wall_seconds")
                .and_then(Json::as_f64)
                .map(|s| {
                    Duration::try_from_secs_f64(s)
                        .map_err(|_| format!("wall_seconds {s} is not a duration"))
                })
                .transpose()?,
            status,
            attempts: u64_field(j, "attempts")? as u32,
            sampling: j.get("sampling").and_then(SamplingStats::from_json),
        })
    }
}

fn str_field<'a>(j: &'a Json, name: &str) -> Result<&'a str, String> {
    j.get(name)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("missing string field {name:?}"))
}

fn u64_field(j: &Json, name: &str) -> Result<u64, String> {
    j.get(name)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("missing integer field {name:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(app: &str, cluster: u32, t: u64) -> JournalEntry {
        JournalEntry {
            app: app.to_string(),
            cache: "4k".to_string(),
            cluster,
            stats: RunStats {
                per_proc: vec![
                    Breakdown {
                        cpu: t,
                        load: t / 2,
                        merge: 3,
                        sync: 7,
                    },
                    Breakdown {
                        cpu: t + 1,
                        load: 0,
                        merge: 0,
                        sync: t / 3,
                    },
                ],
                mem: MissStats {
                    read_hits: 11,
                    write_hits: 22,
                    read_misses: 33,
                    write_misses: 44,
                    upgrade_misses: 55,
                    merge_stalls: 66,
                    by_latency: [1, 2, 3, 4],
                    invalidations: 77,
                    evictions: 88,
                    writebacks: 99,
                    local_satisfied: 111,
                    bus_transfers: 222,
                    bus_invalidations: 333,
                },
                exec_time: t * 2,
            },
            wall: Some(Duration::from_millis(1250)),
            status: RunStatus::Retried,
            attempts: 2,
            sampling: None,
        }
    }

    #[test]
    fn entry_roundtrips_every_field() {
        let e = entry("ocean", 4, 1000);
        let back = JournalEntry::from_json(&e.to_json()).unwrap();
        assert_eq!(back, e);
        let no_wall = JournalEntry { wall: None, ..e };
        let back = JournalEntry::from_json(&no_wall.to_json()).unwrap();
        assert_eq!(back, no_wall);
        let sampled = JournalEntry {
            sampling: Some(SamplingStats {
                mode: simcore::sample::SampleMode::Reservoir,
                rate: 0.25,
                warmup_ops: 2048,
                interval_ops: 256,
                seed: 42,
                ops_total: 10_000,
                ops_measured: 2_500,
                ops_warm: 1_500,
                weight_total: 30_000,
                weight_measured: 7_500,
                weight_warm: 4_500,
                warm_read_hits: 900,
                warm_read_misses: 100,
                warm_write_hits: 300,
                warm_write_misses: 40,
                warm_upgrade_misses: 7,
                warm_cpu_cycles: 6_000,
                warm_load_cycles: 2_500,
                warm_merge_cycles: 125,
            }),
            ..entry("ocean", 4, 1000)
        };
        let back = JournalEntry::from_json(&sampled.to_json()).unwrap();
        assert_eq!(back, sampled);
    }

    #[test]
    fn entry_rejects_a_wall_that_is_not_a_duration() {
        let line = entry("lu", 1, 10).to_json().to_string();
        for bad in ["-1", "1e300", "18446744073709551616"] {
            let text = line.replace("\"wall_seconds\":1.25", &format!("\"wall_seconds\":{bad}"));
            assert_ne!(text, line, "the wall was swapped");
            let j = simcore::json::parse(&text).unwrap();
            let err = JournalEntry::from_json(&j).unwrap_err();
            assert!(err.contains("wall_seconds"), "{bad}: {err}");
        }
    }
}
