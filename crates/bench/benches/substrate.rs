//! Microbenchmarks of the simulator substrate itself: cache
//! operations, coherence protocol throughput, and engine replay speed.
//! These measure the *harness*, not the simulated machine — they exist
//! so regressions in simulator performance are caught.
//!
//! Built on the in-tree `cluster_bench::timer` (the workspace is
//! hermetic; Criterion is a registry dependency and was dropped).
//! Compare the printed medians across commits.

use std::hint::black_box;

use cluster_bench::timer::{bench, report_throughput};
use coherence::config::CacheSpec;
use coherence::{LatencyTable, MachineConfig, MemorySystem};
use simcore::cache::FullLruCache;
use simcore::ops::TraceBuilder;
use simcore::space::AddressSpace;
use tango::EngineOptions;

fn bench_lru() {
    let mut cache = FullLruCache::new(256);
    for l in 0..256u64 {
        cache.insert(l, ());
    }
    let s = bench("lru_cache/hit_heavy_10k", 3, 20, || {
        for i in 0..10_000u64 {
            black_box(cache.get_mut(i % 256));
        }
    });
    report_throughput(&s, 10_000);

    let s = bench("lru_cache/evict_heavy_10k", 3, 20, || {
        let mut cache = FullLruCache::new(64);
        for i in 0..10_000u64 {
            if !cache.contains(i % 1024) {
                cache.insert(i % 1024, ());
            }
        }
        cache
    });
    report_throughput(&s, 10_000);
}

fn bench_protocol() {
    let mut space = AddressSpace::new();
    let base = space.alloc_shared(64 * 1024);
    let cfg = MachineConfig {
        n_procs: 64,
        per_cluster: 4,
        cache: CacheSpec::PerProcBytes(4096),
        lat: LatencyTable::paper(),
    };
    let s = bench("coherence/mixed_traffic_10k", 3, 20, || {
        let mut m = MemorySystem::try_new(cfg, &space).unwrap();
        for i in 0..10_000u64 {
            let p = (i % 64) as u32;
            let addr = base + (i * 97 % 1024) * 64;
            if i % 5 == 0 {
                black_box(m.try_write(p, addr, i).unwrap());
            } else {
                black_box(m.try_read(p, addr, i).unwrap());
            }
        }
        m
    });
    report_throughput(&s, 10_000);
}

fn bench_engine() {
    // A 16-processor synthetic trace of ~100k ops.
    let mut b = TraceBuilder::new(16);
    let base = b.space_mut().alloc_shared(64 * 2048);
    for p in 0..16u32 {
        for i in 0..2000u64 {
            b.read(p, base + ((i * 131 + p as u64 * 17) % 2048) * 64);
            b.compute(p, 7);
            if i % 64 == 0 {
                b.write(p, base + (i % 2048) * 64);
            }
        }
    }
    let trace = b.finish();
    let total_ops = trace.total_ops();
    let machine = MachineConfig {
        n_procs: 16,
        per_cluster: 4,
        cache: CacheSpec::PerProcBytes(8192),
        lat: LatencyTable::paper(),
    };
    let s = bench("engine/replay_100k_ops", 2, 10, || {
        black_box(
            tango::try_run_with(&trace, machine, EngineOptions::default()).expect("trace replays"),
        )
    });
    report_throughput(&s, total_ops);
}

fn bench_trace_gen() {
    use splash::SplashApp;
    let lu = splash::lu::Lu::small();
    bench("trace_gen/lu_small_16p", 2, 10, || {
        black_box(lu.generate(16))
    });
    let ocean = splash::ocean::Ocean::small();
    bench("trace_gen/ocean_small_16p", 2, 10, || {
        black_box(ocean.generate(16))
    });
}

fn main() {
    bench_lru();
    bench_protocol();
    bench_engine();
    bench_trace_gen();
}
