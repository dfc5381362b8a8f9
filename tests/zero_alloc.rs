//! Allocation budget of the cache model: a warmed hierarchy serves misses
//! without touching the heap, and building a platform allocates a fixed
//! handful of times, however many sets its caches have.
//!
//! A counting global allocator tallies allocations per thread, so the
//! tests in this binary can run concurrently without seeing each other.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use sttcache::{l2_config, nvm_dl1_config, DCacheOrganization, Platform, PlatformConfig};
use sttcache_cpu::{TraceEvent, TraceRecorder};
use sttcache_mem::{Cache, CacheConfig, MainMemory, MemoryLevel};
use sttcache_workloads::{Kernel, ListChase, Transformations};

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn allocs() -> u64 {
    ALLOCS.try_with(Cell::get).unwrap_or(0)
}

fn bump() {
    // Fails only while the thread is torn down; such allocations go
    // uncounted.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting touches only a
// const-initialised thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: forwarded unchanged from the caller.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: forwarded unchanged from the caller.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: forwarded unchanged from the caller.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged from the caller.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Replays the memory events of `events` into `dl1`, issuing each access
/// when the previous one completes.
fn replay(dl1: &mut impl MemoryLevel, events: &[TraceEvent], mut now: u64) -> u64 {
    for event in events {
        now = match *event {
            TraceEvent::Load { addr, .. } => dl1.read(addr, now).complete_at,
            TraceEvent::Store { addr, .. } => dl1.write(addr, now).complete_at,
            _ => now + 1,
        };
    }
    now
}

#[test]
fn warmed_hierarchy_serves_misses_without_allocating() {
    // A seeded 2^17-node chase over 1 MiB of node data: far beyond the
    // 64 KB DL1, inside the 2 MB L2, so nearly every hop misses the DL1,
    // evicts (dirty) lines from full sets and is served by the L2.
    let mut recorder = TraceRecorder::new();
    ListChase::new(1 << 17, 1 << 16, 0x5eed).execute(&mut recorder, Transformations::none());
    let trace = recorder.into_trace();
    let l2 = Cache::new(l2_config().unwrap(), MainMemory::new(100));
    let mut dl1 = Cache::new(nvm_dl1_config().unwrap(), l2);
    let now = replay(&mut dl1, trace.events(), 0);

    let misses = dl1.stats().misses();
    let writebacks = dl1.stats().writebacks;
    let before = allocs();
    replay(&mut dl1, trace.events(), now + 1000);
    let during = allocs() - before;

    let new_misses = dl1.stats().misses() - misses;
    assert!(new_misses > 50_000, "only {new_misses} DL1 misses");
    assert!(dl1.stats().writebacks > writebacks, "no dirty evictions");
    assert!(dl1.next_level().stats().read_hits > 0, "no L2 hits");
    assert_eq!(during, 0, "{during} allocations over {new_misses} misses");
}

#[test]
fn platform_build_allocates_a_constant_handful() {
    let builds = |capacity_bytes: usize| {
        let mut cfg = PlatformConfig::new(DCacheOrganization::NvmDropIn);
        cfg.dl1_override = Some(
            CacheConfig::builder()
                .capacity_bytes(capacity_bytes)
                .build()
                .unwrap(),
        );
        let platform = Platform::with_config(cfg).unwrap();
        let before = allocs();
        let front_end = platform.front_end().unwrap();
        let count = allocs() - before;
        drop(front_end);
        count
    };
    // 16x the sets, the same allocations: nothing is allocated per set.
    let small = builds(16 * 1024);
    let large = builds(256 * 1024);
    assert_eq!(small, large, "allocations grow with the set count");
    assert!(small <= 32, "{small} allocations per platform build");
}
