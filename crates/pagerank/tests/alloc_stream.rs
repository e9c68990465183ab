//! Allocation accounting for the streamed out-of-core solver.
//!
//! Every sweep re-decodes each in-block of the compressed image into one
//! reused scratch CSR, so after the first sweep has sized that scratch
//! the sweep loop — block decode included — performs **zero heap
//! allocations**. Two capped solves differing only in iteration count
//! must therefore allocate exactly as often; a per-row or per-block
//! allocation in the decoder would scale with the sweep count. Its own
//! test binary, because the counting allocator is process-global.

mod counting_alloc;

use counting_alloc::{allocations_during, test_graph};
use spammass_graph::compress::{graph_to_bytes_v4_with, CompressedImage, V4Config};
use spammass_graph::NodeId;
use spammass_pagerank::stream::solve_batch_streamed;
use spammass_pagerank::{JumpVector, PageRankConfig, PageRankError};
use std::sync::Arc;

fn capped_streamed_allocations(image: &CompressedImage, iterations: usize) -> usize {
    let config = PageRankConfig::default().max_iterations(iterations).tolerance(1e-300);
    let jumps = [
        JumpVector::Uniform,
        JumpVector::core((0..1000).map(NodeId).collect(), image.node_count()),
    ];
    let (allocations, result) =
        allocations_during(|| solve_batch_streamed(image, &jumps, &config, u64::MAX));
    assert!(
        matches!(result, Err(PageRankError::DidNotConverge { iterations: i, .. }) if i == iterations),
        "streamed solve must run exactly {iterations} sweeps"
    );
    allocations
}

#[test]
fn streamed_solver_does_not_allocate_per_iteration() {
    // Navigation links give every in-row an interval run, and blocks far
    // smaller than the graph make each sweep run hundreds of decode
    // rounds, so per-row or per-block allocations could not hide.
    let config = V4Config { rows_per_block: 512, edges_per_block: 2048 };
    let bytes = graph_to_bytes_v4_with(&test_graph(8), config).unwrap();
    let image = CompressedImage::from_store(Arc::new(bytes)).unwrap();
    let _ = capped_streamed_allocations(&image, 4);
    let short = capped_streamed_allocations(&image, 8);
    let long = capped_streamed_allocations(&image, 64);
    assert_eq!(
        short, long,
        "allocation count must not scale with iterations: {short} for 8 sweeps vs {long} for 64"
    );
}
