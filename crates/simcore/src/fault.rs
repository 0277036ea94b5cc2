//! Deterministic fault injection for the study executor.
//!
//! Long simulation campaigns must survive worker failures; proving
//! that requires *causing* failures on demand. This module decides —
//! as a pure function of a seed, a work-item key and an attempt
//! number — whether a work item should fail, so the guarded executor
//! (`cluster_study::parallel`) can inject a panic or a delay at the
//! moment it runs the item. Because the decision is deterministic:
//!
//! * the same `(rate, seed)` plan selects the same items on every
//!   run, on every platform, at every `--jobs` value;
//! * a selected item fails its first [`FaultPlan::depth`] attempts
//!   and then succeeds, so `--retries >= depth` *provably* recovers
//!   every injected fault and `--retries < depth` *provably* leaves
//!   failures behind — integration tests and the CI fault-smoke job
//!   assert both directions without flakiness.
//!
//! The plan is normally constructed from the environment
//! ([`FaultPlan::from_env`]): `STUDY_FAULT_RATE` (selection
//! probability, default 0 = disabled), `STUDY_FAULT_SEED`,
//! `STUDY_FAULT_DEPTH` (consecutive failing attempts per selected
//! item, default 1), `STUDY_FAULT_KIND` (`panic` | `delay`) and
//! `STUDY_FAULT_DELAY_MS` (straggler duration for `delay`).

use std::time::Duration;

use crate::rng::{mix_seed, Rng64};

/// What an injected fault does to a work item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic with a recognizable payload (tests panic isolation and
    /// retry).
    Panic,
    /// Sleep for [`FaultPlan::delay`] before running the item (tests
    /// the soft timeout watchdog).
    Delay,
}

/// Payload prefix of every injected panic, so reports and tests can
/// tell injected faults from real bugs.
pub const PANIC_PREFIX: &str = "injected fault";

/// A deterministic fault-injection schedule.
///
/// `decide(key, attempt)` is a pure function: item `key` is *selected*
/// with probability [`FaultPlan::rate`] (drawn from an RNG seeded by
/// `mix_seed(seed, fnv1a(key))`, so selection is independent of
/// execution order), and a selected item faults on attempts
/// `0..depth` only.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Probability in `[0, 1]` that a work item is selected to fault.
    pub rate: f64,
    /// Seed decorrelating selection across plans.
    pub seed: u64,
    /// How many consecutive attempts of a selected item fault before
    /// it succeeds (so `retries >= depth` always recovers).
    pub depth: u32,
    /// What a fault does.
    pub kind: FaultKind,
    /// Sleep duration for [`FaultKind::Delay`] faults.
    pub delay: Duration,
}

impl FaultPlan {
    /// The no-faults plan (rate 0): [`FaultPlan::apply`] is a no-op.
    pub fn disabled() -> FaultPlan {
        FaultPlan {
            rate: 0.0,
            seed: 0,
            depth: 1,
            kind: FaultKind::Panic,
            delay: Duration::from_millis(50),
        }
    }

    /// A panic-injection plan with the given selection rate and seed.
    pub fn new(rate: f64, seed: u64) -> FaultPlan {
        FaultPlan {
            rate: rate.clamp(0.0, 1.0),
            seed,
            ..FaultPlan::disabled()
        }
    }

    /// Builds the plan from `STUDY_FAULT_*` environment variables
    /// (unset or unparsable values fall back to the defaults, i.e.
    /// unset `STUDY_FAULT_RATE` means no injection at all).
    pub fn from_env() -> FaultPlan {
        FaultPlan::from_lookup(|k| std::env::var(k).ok())
    }

    /// [`FaultPlan::from_env`] over an explicit variable source, so
    /// parsing is testable without mutating process state.
    pub fn from_lookup(get: impl Fn(&str) -> Option<String>) -> FaultPlan {
        let parse = |k: &str| get(k).and_then(|v| v.trim().parse::<u64>().ok());
        let mut plan = FaultPlan::disabled();
        if let Some(rate) = env_rate(&get, "STUDY_FAULT_RATE") {
            plan.rate = rate;
        }
        if let Some(seed) = parse("STUDY_FAULT_SEED") {
            plan.seed = seed;
        }
        if let Some(depth) = parse("STUDY_FAULT_DEPTH") {
            plan.depth = u32::try_from(depth).unwrap_or(u32::MAX);
        }
        match get("STUDY_FAULT_KIND").as_deref().map(str::trim) {
            Some("delay") => plan.kind = FaultKind::Delay,
            _ => plan.kind = FaultKind::Panic,
        }
        if let Some(ms) = parse("STUDY_FAULT_DELAY_MS") {
            plan.delay = Duration::from_millis(ms);
        }
        plan
    }

    /// Whether this plan can ever inject anything.
    pub fn is_active(&self) -> bool {
        self.rate > 0.0 && self.depth > 0
    }

    /// Whether item `key` is selected to fault at all (independent of
    /// the attempt number).
    pub fn selects(&self, key: &str) -> bool {
        self.is_active() && rng_for(self.seed, key).gen_bool(self.rate)
    }

    /// The fault (if any) to inject into attempt `attempt` (0-based)
    /// of item `key`. Pure: same inputs, same answer, forever.
    pub fn decide(&self, key: &str, attempt: u32) -> Option<FaultKind> {
        (attempt < self.depth && self.selects(key)).then_some(self.kind)
    }

    /// Injects the decided fault, if any: panics with a
    /// [`PANIC_PREFIX`]-tagged payload or sleeps for
    /// [`FaultPlan::delay`].
    pub fn apply(&self, key: &str, attempt: u32) {
        match self.decide(key, attempt) {
            Some(FaultKind::Panic) => {
                // cluster_check: allow(no-panic) — injecting this panic
                // is the module's whole purpose (tagged payload).
                panic!("{PANIC_PREFIX}: {key} (attempt {attempt})");
            }
            Some(FaultKind::Delay) => std::thread::sleep(self.delay),
            None => {}
        }
    }
}

/// A network-side fault injected into one socket I/O call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetFault {
    /// Deliver (or accept) at most one byte — a short read/write.
    Short,
    /// Fail the call with `ErrorKind::Interrupted` (EINTR storm).
    Interrupted,
    /// Fail the call with `ErrorKind::WouldBlock` (spurious readiness).
    WouldBlock,
}

/// Which disk fault kinds a plan may inject into store appends.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DiskFaultKind {
    /// `write(2)` fails before any byte lands.
    Write,
    /// The line is written but `fdatasync` fails.
    Fsync,
    /// Only a prefix of the line lands — a torn append.
    Torn,
    /// Rotate deterministically among all three.
    #[default]
    Mix,
}

/// A disk-side fault injected into one store append.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiskFault {
    /// The append's `write(2)` fails; nothing lands on disk.
    WriteErr,
    /// The line lands but its `fdatasync` fails (not durable).
    FsyncErr,
    /// Only the first `keep` bytes of the line land.
    Torn {
        /// Bytes of the line that reach the file before the tear.
        keep: usize,
    },
}

/// A deterministic network/disk fault schedule for the serving stack.
///
/// Like [`FaultPlan`], every decision is a pure function of the seed
/// and a structural key — here `(connection id, I/O-op index)` for
/// sockets and `(shard index, append index)` for the store — so a
/// chaos run with a fixed seed injects the same faults at the same
/// structural points on every platform, and the torture suite can
/// assert recovery without wall-clock flakiness.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IoFaultPlan {
    /// Seed decorrelating selection across plans.
    pub seed: u64,
    /// Per-I/O-call probability of a [`NetFault`].
    pub net_rate: f64,
    /// Per-connection probability of a mid-stream connection drop.
    pub drop_rate: f64,
    /// Per-connection probability that the accept is refused outright.
    pub accept_rate: f64,
    /// Per-append probability of a [`DiskFault`].
    pub disk_rate: f64,
    /// Which disk faults [`IoFaultPlan::disk_fault`] may pick.
    pub disk_kind: DiskFaultKind,
}

impl IoFaultPlan {
    /// The no-faults plan: every decider answers `None`/`false`.
    pub fn disabled() -> IoFaultPlan {
        IoFaultPlan {
            seed: 0,
            net_rate: 0.0,
            drop_rate: 0.0,
            accept_rate: 0.0,
            disk_rate: 0.0,
            disk_kind: DiskFaultKind::Mix,
        }
    }

    /// Builds the plan from `SERVE_FAULT_*` environment variables
    /// (`SERVE_FAULT_SEED`, `SERVE_FAULT_NET_RATE`,
    /// `SERVE_FAULT_DROP_RATE`, `SERVE_FAULT_ACCEPT_RATE`,
    /// `SERVE_FAULT_DISK_RATE`, `SERVE_FAULT_DISK_KIND` =
    /// `write|fsync|torn|mix`). Unset or unparsable values fall back
    /// to the disabled defaults.
    pub fn from_env() -> IoFaultPlan {
        IoFaultPlan::from_lookup(|k| std::env::var(k).ok())
    }

    /// [`IoFaultPlan::from_env`] over an explicit variable source, so
    /// parsing is testable without mutating process state.
    pub fn from_lookup(get: impl Fn(&str) -> Option<String>) -> IoFaultPlan {
        let rate = |k: &str| env_rate(&get, k);
        let mut plan = IoFaultPlan::disabled();
        if let Some(seed) = get("SERVE_FAULT_SEED").and_then(|v| v.trim().parse::<u64>().ok()) {
            plan.seed = seed;
        }
        if let Some(r) = rate("SERVE_FAULT_NET_RATE") {
            plan.net_rate = r;
        }
        if let Some(r) = rate("SERVE_FAULT_DROP_RATE") {
            plan.drop_rate = r;
        }
        if let Some(r) = rate("SERVE_FAULT_ACCEPT_RATE") {
            plan.accept_rate = r;
        }
        if let Some(r) = rate("SERVE_FAULT_DISK_RATE") {
            plan.disk_rate = r;
        }
        match get("SERVE_FAULT_DISK_KIND").as_deref().map(str::trim) {
            Some("write") => plan.disk_kind = DiskFaultKind::Write,
            Some("fsync") => plan.disk_kind = DiskFaultKind::Fsync,
            Some("torn") => plan.disk_kind = DiskFaultKind::Torn,
            _ => plan.disk_kind = DiskFaultKind::Mix,
        }
        plan
    }

    /// Whether this plan can ever inject anything.
    pub fn is_active(&self) -> bool {
        self.net_rate > 0.0
            || self.drop_rate > 0.0
            || self.accept_rate > 0.0
            || self.disk_rate > 0.0
    }

    /// The network fault (if any) for I/O call `op` (a per-connection
    /// 0-based counter) on connection `conn`. Pure.
    pub fn net_op(&self, conn: u64, op: u64) -> Option<NetFault> {
        if self.net_rate <= 0.0 {
            return None;
        }
        let mut rng = rng_for(self.seed, &format!("net:{conn}:{op}"));
        if !rng.gen_bool(self.net_rate) {
            return None;
        }
        Some(match rng.bounded_u64(3) {
            0 => NetFault::Short,
            1 => NetFault::Interrupted,
            _ => NetFault::WouldBlock,
        })
    }

    /// Whether connection `conn` is refused at accept time. Pure.
    pub fn refuse_accept(&self, conn: u64) -> bool {
        self.accept_rate > 0.0
            && rng_for(self.seed, &format!("accept:{conn}")).gen_bool(self.accept_rate)
    }

    /// The I/O-op index at which connection `conn` is dropped
    /// mid-stream, if it is selected to drop at all. Pure.
    pub fn drop_after(&self, conn: u64) -> Option<u64> {
        if self.drop_rate <= 0.0 {
            return None;
        }
        let mut rng = rng_for(self.seed, &format!("drop:{conn}"));
        rng.gen_bool(self.drop_rate)
            .then(|| 1 + rng.bounded_u64(64))
    }

    /// The disk fault (if any) for append number `append` (a
    /// per-shard 1-based counter) on shard `shard`, where the line
    /// being appended is `line_len` bytes. Pure.
    pub fn disk_fault(&self, shard: u64, append: u64, line_len: usize) -> Option<DiskFault> {
        if self.disk_rate <= 0.0 || line_len == 0 {
            return None;
        }
        let mut rng = rng_for(self.seed, &format!("disk:{shard}:{append}"));
        if !rng.gen_bool(self.disk_rate) {
            return None;
        }
        let kind = match self.disk_kind {
            DiskFaultKind::Write => 0,
            DiskFaultKind::Fsync => 1,
            DiskFaultKind::Torn => 2,
            DiskFaultKind::Mix => rng.bounded_u64(3),
        };
        Some(match kind {
            0 => DiskFault::WriteErr,
            1 => DiskFault::FsyncErr,
            _ => DiskFault::Torn {
                // cluster_check: allow(no-lossy-cast) — bounded by
                // line_len, which is itself a usize.
                keep: rng.bounded_u64(line_len as u64) as usize,
            },
        })
    }
}

/// The keyed-decision core of both plans: an RNG seeded by
/// `mix_seed(seed, fnv1a(key))`, so every decision is a pure function
/// of the plan's seed and a structural key, independent of execution
/// order.
fn rng_for(seed: u64, key: &str) -> Rng64 {
    Rng64::new(mix_seed(seed, fnv1a(key)))
}

/// A rate variable from `get`, clamped to `[0, 1]`; `None` when unset
/// or unparsable.
fn env_rate(get: impl Fn(&str) -> Option<String>, key: &str) -> Option<f64> {
    get(key)
        .and_then(|v| v.trim().parse::<f64>().ok())
        .map(|r| r.clamp(0.0, 1.0))
}

/// FNV-1a of a string — the same construction `splash::util::rng_for`
/// uses to seed workloads, replicated here (simcore sits below
/// splash) so fault selection is a stable pure function of the item
/// key.
pub fn fnv1a(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_plan_never_fires() {
        let p = FaultPlan::disabled();
        assert!(!p.is_active());
        for i in 0..100 {
            assert_eq!(p.decide(&format!("sim:{i}"), 0), None);
            p.apply(&format!("sim:{i}"), 0); // must not panic
        }
    }

    #[test]
    fn selection_is_deterministic_and_seed_sensitive() {
        let a = FaultPlan::new(0.5, 7);
        let b = FaultPlan::new(0.5, 7);
        let c = FaultPlan::new(0.5, 8);
        let keys: Vec<String> = (0..200).map(|i| format!("sim:{i}")).collect();
        let pick = |p: &FaultPlan| keys.iter().map(|k| p.selects(k)).collect::<Vec<bool>>();
        assert_eq!(pick(&a), pick(&b));
        assert_ne!(pick(&a), pick(&c), "different seeds select differently");
        let hits = pick(&a).iter().filter(|&&s| s).count();
        assert!((50..150).contains(&hits), "rate 0.5 selected {hits}/200");
    }

    #[test]
    fn rate_bounds_select_none_and_all() {
        let none = FaultPlan::new(0.0, 1);
        let all = FaultPlan::new(1.0, 1);
        for i in 0..50 {
            let k = format!("gen:{i}");
            assert!(!none.selects(&k));
            assert!(all.selects(&k));
        }
    }

    #[test]
    fn depth_bounds_consecutive_failures() {
        let mut p = FaultPlan::new(1.0, 3);
        p.depth = 2;
        assert_eq!(p.decide("sim:0", 0), Some(FaultKind::Panic));
        assert_eq!(p.decide("sim:0", 1), Some(FaultKind::Panic));
        assert_eq!(p.decide("sim:0", 2), None, "attempt depth succeeds");
        assert_eq!(p.decide("sim:0", 99), None);
    }

    #[test]
    #[should_panic(expected = "injected fault: sim:3 (attempt 0)")]
    fn apply_panics_with_tagged_payload() {
        FaultPlan::new(1.0, 0).apply("sim:3", 0);
    }

    #[test]
    fn delay_kind_sleeps_instead_of_panicking() {
        let mut p = FaultPlan::new(1.0, 0);
        p.kind = FaultKind::Delay;
        p.delay = Duration::from_millis(1);
        let t0 = std::time::Instant::now();
        p.apply("sim:0", 0); // must return, not panic
        assert!(t0.elapsed() >= Duration::from_millis(1));
    }

    #[test]
    fn from_lookup_parses_all_variables() {
        let env = |k: &str| {
            let v = match k {
                "STUDY_FAULT_RATE" => "0.25",
                "STUDY_FAULT_SEED" => "42",
                "STUDY_FAULT_DEPTH" => "3",
                "STUDY_FAULT_KIND" => "delay",
                "STUDY_FAULT_DELAY_MS" => "120",
                _ => return None,
            };
            Some(v.to_string())
        };
        let p = FaultPlan::from_lookup(env);
        assert_eq!(p.rate, 0.25);
        assert_eq!(p.seed, 42);
        assert_eq!(p.depth, 3);
        assert_eq!(p.kind, FaultKind::Delay);
        assert_eq!(p.delay, Duration::from_millis(120));
        assert!(p.is_active());
    }

    #[test]
    fn from_lookup_defaults_to_disabled() {
        let p = FaultPlan::from_lookup(|_| None);
        assert_eq!(p, FaultPlan::disabled());
        // Garbage values fall back to defaults instead of erroring.
        let q = FaultPlan::from_lookup(|k| {
            (k == "STUDY_FAULT_RATE").then(|| "not-a-number".to_string())
        });
        assert!(!q.is_active());
    }

    #[test]
    fn io_plan_disabled_never_fires() {
        let p = IoFaultPlan::disabled();
        assert!(!p.is_active());
        for conn in 0..50u64 {
            assert!(!p.refuse_accept(conn));
            assert_eq!(p.drop_after(conn), None);
            assert_eq!(p.net_op(conn, 0), None);
            assert_eq!(p.disk_fault(conn % 4, conn, 128), None);
        }
    }

    #[test]
    fn io_plan_deciders_are_deterministic_and_seed_sensitive() {
        let mk = |seed| IoFaultPlan {
            seed,
            net_rate: 0.5,
            drop_rate: 0.5,
            accept_rate: 0.5,
            disk_rate: 0.5,
            disk_kind: DiskFaultKind::Mix,
        };
        let (a, b, c) = (mk(7), mk(7), mk(8));
        let trace = |p: &IoFaultPlan| {
            (0..100u64)
                .map(|i| {
                    (
                        p.net_op(i, i * 3),
                        p.refuse_accept(i),
                        p.drop_after(i),
                        p.disk_fault(i % 4, i, 200),
                    )
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(trace(&a), trace(&b), "same seed, same schedule");
        assert_ne!(trace(&a), trace(&c), "different seeds differ");
        let drops = trace(&a).iter().filter(|t| t.2.is_some()).count();
        assert!((20..80).contains(&drops), "rate 0.5 dropped {drops}/100");
    }

    #[test]
    fn io_plan_rate_one_always_selects_and_faults_are_well_formed() {
        let p = IoFaultPlan {
            seed: 3,
            net_rate: 1.0,
            drop_rate: 1.0,
            accept_rate: 1.0,
            disk_rate: 1.0,
            disk_kind: DiskFaultKind::Mix,
        };
        let mut kinds = std::collections::BTreeSet::new();
        for i in 0..60u64 {
            assert!(p.refuse_accept(i));
            let at = p.drop_after(i).expect("rate 1 always drops");
            assert!((1..=64).contains(&at), "drop point {at} within budget");
            assert!(p.net_op(i, 0).is_some());
            match p.disk_fault(0, i, 100).expect("rate 1 always faults") {
                DiskFault::WriteErr => kinds.insert("write"),
                DiskFault::FsyncErr => kinds.insert("fsync"),
                DiskFault::Torn { keep } => {
                    assert!(keep < 100, "torn keeps a strict prefix");
                    kinds.insert("torn")
                }
            };
        }
        assert_eq!(kinds.len(), 3, "mix rotates through all disk faults");
        // A fixed kind pins the fault shape.
        let fsync_only = IoFaultPlan {
            disk_kind: DiskFaultKind::Fsync,
            ..p
        };
        for i in 0..20u64 {
            assert_eq!(fsync_only.disk_fault(1, i, 64), Some(DiskFault::FsyncErr));
        }
    }

    #[test]
    fn io_plan_from_lookup_parses_all_variables() {
        let env = |k: &str| {
            let v = match k {
                "SERVE_FAULT_SEED" => "99",
                "SERVE_FAULT_NET_RATE" => "0.1",
                "SERVE_FAULT_DROP_RATE" => "0.2",
                "SERVE_FAULT_ACCEPT_RATE" => "0.3",
                "SERVE_FAULT_DISK_RATE" => "1.5", // clamped to 1
                "SERVE_FAULT_DISK_KIND" => "torn",
                _ => return None,
            };
            Some(v.to_string())
        };
        let p = IoFaultPlan::from_lookup(env);
        assert_eq!(p.seed, 99);
        assert_eq!(p.net_rate, 0.1);
        assert_eq!(p.drop_rate, 0.2);
        assert_eq!(p.accept_rate, 0.3);
        assert_eq!(p.disk_rate, 1.0);
        assert_eq!(p.disk_kind, DiskFaultKind::Torn);
        assert!(p.is_active());
    }

    #[test]
    fn io_plan_from_lookup_defaults_to_disabled() {
        let p = IoFaultPlan::from_lookup(|_| None);
        assert_eq!(p, IoFaultPlan::disabled());
        let q =
            IoFaultPlan::from_lookup(|k| (k == "SERVE_FAULT_NET_RATE").then(|| "nope".to_string()));
        assert!(!q.is_active());
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Standard FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a("foobar"), 0x85944171f73967e8);
    }
}
