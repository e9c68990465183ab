//! Allocation accounting for the pooled fused parallel solver.
//!
//! The fused parallel kernel hoists every buffer (score ping-pong pair,
//! coefficient table, partition, per-chunk residual slots, scratch,
//! residual-history sample storage) out of the iteration loop, so after
//! setup the sweep loop performs **zero heap allocations**. This harness
//! pins that with a counting global allocator: two solves differing only
//! in iteration count must allocate exactly the same number of times —
//! any per-iteration allocation would scale with the count and break the
//! equality. The batched and streamed solvers carry the same check in
//! their own binaries (`alloc_batch.rs`, `alloc_stream.rs`), because the
//! counter is process-global.

mod counting_alloc;

use counting_alloc::{allocations_during, test_graph};
use spammass_pagerank::{
    parallel::solve_parallel_jacobi, JumpVector, PageRankConfig, PageRankError,
};

/// Runs a capped solve and returns its allocation count. The cap makes
/// the iteration count exact (tolerance is unreachably tight), so the
/// only difference between two calls is how many sweeps run.
fn capped_solve_allocations(graph: &spammass_graph::Graph, iterations: usize) -> usize {
    let config = PageRankConfig::default().threads(2).max_iterations(iterations).tolerance(1e-300);
    let (allocations, result) =
        allocations_during(|| solve_parallel_jacobi(graph, &JumpVector::Uniform, &config));
    assert!(
        matches!(result, Err(PageRankError::DidNotConverge { iterations: i, .. }) if i == iterations),
        "solve must run exactly {iterations} sweeps"
    );
    allocations
}

#[test]
fn parallel_solver_does_not_allocate_per_iteration() {
    let graph = test_graph(0);
    // Warm up: first run pays one-time costs (thread-local telemetry
    // probes, lazy runtime state).
    let _ = capped_solve_allocations(&graph, 4);
    let short = capped_solve_allocations(&graph, 8);
    let long = capped_solve_allocations(&graph, 64);
    assert_eq!(
        short, long,
        "allocation count must not scale with iterations: {short} for 8 sweeps vs {long} for 64"
    );
}
