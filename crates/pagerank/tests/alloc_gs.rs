//! Allocation accounting for the fused Gauss–Seidel sweep: the warm
//! batched solve allocates everything before its first sweep, so two
//! capped solves differing only in sweep count must allocate exactly as
//! often. Its own test binary, because the counting allocator is
//! process-global.

mod counting_alloc;

use counting_alloc::{allocations_during, test_graph};
use spammass_graph::{Graph, NodeId};
use spammass_pagerank::batch::solve_batch_warm;
use spammass_pagerank::{JumpVector, PageRankConfig};

fn capped_warm_allocations(graph: &Graph, seeds: &[Vec<f64>], iterations: usize) -> usize {
    let config = PageRankConfig::default().max_iterations(iterations).tolerance(1e-300);
    let jumps = [
        JumpVector::Uniform,
        JumpVector::core((0..1000).map(NodeId).collect(), graph.node_count()),
    ];
    let (allocations, result) =
        allocations_during(|| solve_batch_warm(graph, &jumps, Some(seeds), &config));
    assert!(result.is_err(), "capped warm solve must not converge");
    allocations
}

#[test]
fn gauss_seidel_warm_sweep_does_not_allocate_per_iteration() {
    let graph = test_graph(0);
    let n = graph.node_count();
    let seeds = vec![vec![1.0 / n as f64; n], vec![0.0; n]];
    let _ = capped_warm_allocations(&graph, &seeds, 4);
    let short = capped_warm_allocations(&graph, &seeds, 8);
    let long = capped_warm_allocations(&graph, &seeds, 64);
    assert_eq!(
        short, long,
        "allocation count must not scale with sweeps: {short} for 8 sweeps vs {long} for 64"
    );
}
