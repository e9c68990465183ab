//! Allocation accounting for the batched solver: after setup its sweep
//! loop performs zero heap allocations, so two capped solves differing
//! only in iteration count must allocate exactly as often. Its own test
//! binary, because the counting allocator is process-global.

mod counting_alloc;

use counting_alloc::{allocations_during, test_graph};
use spammass_graph::NodeId;
use spammass_pagerank::{batch::solve_batch, JumpVector, PageRankConfig};

fn capped_batch_allocations(graph: &spammass_graph::Graph, iterations: usize) -> usize {
    let config = PageRankConfig::default().threads(2).max_iterations(iterations).tolerance(1e-300);
    let jumps = [
        JumpVector::Uniform,
        JumpVector::core((0..1000).map(NodeId).collect(), graph.node_count()),
    ];
    let (allocations, result) = allocations_during(|| solve_batch(graph, &jumps, &config));
    assert!(result.is_err(), "capped batch must not converge");
    allocations
}

#[test]
fn batch_solver_does_not_allocate_per_iteration() {
    let graph = test_graph(0);
    let _ = capped_batch_allocations(&graph, 4);
    let short = capped_batch_allocations(&graph, 8);
    let long = capped_batch_allocations(&graph, 64);
    assert_eq!(
        short, long,
        "allocation count must not scale with iterations: {short} for 8 sweeps vs {long} for 64"
    );
}
