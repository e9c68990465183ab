//! Shared harness of the allocation-accounting test binaries: a
//! counting global allocator and a deterministic test graph.
//!
//! The counter is process-global and pool worker threads allocate too,
//! so each allocation check lives in its own test binary (its own
//! process): a sibling test running on another thread of the same
//! binary would otherwise inflate the count mid-measurement.

use spammass_graph::{Graph, GraphBuilder, NodeId};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct CountingAllocator;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Runs `f`, returning how many allocations (and reallocations) the
/// whole process made meanwhile, together with `f`'s result.
pub fn allocations_during<T>(f: impl FnOnce() -> T) -> (usize, T) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = f();
    (ALLOCATIONS.load(Ordering::Relaxed) - before, out)
}

/// A graph big enough to engage the threaded path (n ≥ 2·MIN_CHUNK):
/// ~3 pseudo-random out-links per node, plus links from every node to
/// the next `nav_links` ids — template navigation, which the v4 codec
/// stores as interval runs.
pub fn test_graph(nav_links: u32) -> Graph {
    let n: u32 = 40_000;
    let mut b = GraphBuilder::with_capacity(n as usize, (3 + nav_links as usize) * n as usize);
    for f in 0..n {
        for t in f + 1..(f + 1 + nav_links).min(n) {
            b.add_edge(NodeId(f), NodeId(t));
        }
    }
    // Deterministic pseudo-random edges without pulling in a RNG (keeps
    // allocation behavior identical across runs).
    let mut state = 0x2545F4914F6CDD1Du64;
    for _ in 0..(3 * n) {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let f = (state >> 32) as u32 % n;
        let t = state as u32 % n;
        if f != t {
            b.add_edge(NodeId(f), NodeId(t));
        }
    }
    b.build()
}
