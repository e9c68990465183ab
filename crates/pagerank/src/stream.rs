//! Blocked out-of-core Jacobi: PageRank over a compressed image larger
//! than RAM.
//!
//! The resident working set is only what the iteration mathematically
//! needs: the interleaved jump/front/back score matrices (`3·n·K` f64),
//! the per-node damping coefficients (`n` f64), and **one** decoded
//! block's scratch CSR. The edge structure itself never materializes —
//! each sweep streams the in-orientation blocks of a
//! [`CompressedImage`] through the same gather kernels the in-memory
//! engine dispatches ([`crate::kernel`]), decoding block-at-a-time into
//! a reusable [`BlockScratch`].
//!
//! ## Exactness
//!
//! A streamed sweep visits rows in ascending order, accumulates each
//! row with the identical kernel and coefficient vector, and folds the
//! per-column residual in the same row order as the pooled engine's
//! single-worker path ([`crate::engine`] with `threads = 1`, which has
//! no boundary pieces and therefore no merge step). The two paths are
//! therefore **bit-for-bit identical** — the streamed solver is not an
//! approximation, just a different edge-delivery mechanism. Against a
//! multi-worker in-memory solve the scores agree to the usual
//! re-association noise (≤1e-12 per node on converged solves), and the
//! flagged set is identical; `crates/core/tests/stream_parity.rs` pins
//! both claims.
//!
//! ## Budget
//!
//! Callers pass an explicit byte budget (the CLI's
//! `--max-resident-mb`). The solve computes its worst-case resident
//! footprint up front and refuses with
//! [`PageRankError::ResidentBudget`] rather than quietly overshooting —
//! an out-of-core path that silently allocates past its contract is
//! worse than none.

use crate::config::PageRankConfig;
use crate::error::PageRankError;
use crate::guard::ConvergenceGuard;
use crate::history::ResidualHistory;
use crate::jump::JumpVector;
use crate::kernel;
use crate::PageRankResult;
use spammass_graph::compress::{BlockScratch, CompressedImage, Orientation};
use spammass_obs as obs;

/// Widest fused column chunk, matching [`crate::batch`].
const MAX_FUSED_COLUMNS: usize = 4;

/// Bytes the streamed solve keeps resident for `n` nodes, `k` total
/// columns, and an image whose largest block decodes to
/// `(max_rows, max_edges)`: score matrices for the widest chunk, the
/// coefficient vector, one block scratch, and the per-block index
/// bookkeeping.
pub fn resident_bytes_needed(
    n: usize,
    k: usize,
    max_rows: usize,
    max_edges: usize,
    blocks: usize,
) -> u64 {
    let k_chunk = k.clamp(1, MAX_FUSED_COLUMNS);
    let score_matrices = 3 * (n as u64) * (k_chunk as u64) * 8; // vmat + front + back
    let coef = n as u64 * 8;
    let scratch = BlockScratch::bytes_for(max_rows, max_edges) as u64;
    let index = blocks as u64 * 40; // entry + first-row + verified bit, rounded up
    score_matrices + coef + scratch + index
}

/// Solves `(I − c·Tᵀ)pⱼ = (1 − c)vⱼ` for every jump vector in `jumps`
/// by streaming the compressed image's in-blocks through the gather
/// kernel each sweep — the out-of-core counterpart of
/// [`crate::batch::solve_batch`], bit-identical to its
/// single-worker pooled path.
///
/// `max_resident_bytes` bounds the solve's own working set (scores,
/// coefficients, block scratch — not the mmap'd image, which the OS
/// pages in and out freely).
///
/// # Errors
/// [`PageRankError::ResidentBudget`] when the working set cannot fit;
/// otherwise the same contract as [`crate::batch::solve_batch`]
/// (validation, guard trips, the iteration cap). Mid-solve block
/// corruption — the file changed under the mmap, or the medium is
/// failing — surfaces as [`PageRankError::InvalidJumpVector`] carrying
/// the decode error's message.
pub fn solve_batch_streamed(
    image: &CompressedImage,
    jumps: &[JumpVector],
    config: &PageRankConfig,
    max_resident_bytes: u64,
) -> Result<Vec<PageRankResult>, PageRankError> {
    config.validate()?;
    let n = image.node_count();
    let k = jumps.len();
    let mut vs = Vec::with_capacity(k);
    for jump in jumps {
        vs.push(jump.materialize(n)?);
    }
    if k == 0 {
        return Ok(Vec::new());
    }
    if n == 0 {
        return Ok(vs
            .iter()
            .map(|_| PageRankResult {
                scores: Vec::new(),
                iterations: 0,
                residual: 0.0,
                converged: true,
                residual_history: ResidualHistory::new(),
            })
            .collect());
    }

    let (max_rows, max_edges) = image.max_block_dims();
    let blocks = image.block_count(Orientation::Out) + image.block_count(Orientation::In);
    let required = resident_bytes_needed(n, k, max_rows, max_edges, blocks);
    if required > max_resident_bytes {
        return Err(PageRankError::ResidentBudget { required, budget: max_resident_bytes });
    }

    let mut span = obs::span("pagerank.solve.streamed");
    span.record("columns", k as f64);
    span.record("nodes", n as f64);
    span.record("resident_budget_bytes", max_resident_bytes as f64);
    let encoded_before = image.encoded_bytes_read();

    // One streaming pass over the out-blocks yields the out-degrees —
    // the only out-orientation state a sweep needs. They become the
    // damping coefficients here and are dropped before any score matrix
    // is allocated, so the transient never raises the solve's peak.
    let c = config.damping;
    let coef: Vec<f64> = image
        .stream_out_degrees()
        .map_err(corruption)?
        .into_iter()
        .map(|d| if d > 0 { c / d as f64 } else { 0.0 })
        .collect();

    let mut results = Vec::with_capacity(k);
    let mut blocks_decoded = 0u64;
    for chunk in vs.chunks(MAX_FUSED_COLUMNS) {
        results.extend(match chunk.len() {
            1 => solve_streamed_fixed::<1>(image, chunk, &coef, config, &mut blocks_decoded)?,
            2 => solve_streamed_fixed::<2>(image, chunk, &coef, config, &mut blocks_decoded)?,
            3 => solve_streamed_fixed::<3>(image, chunk, &coef, config, &mut blocks_decoded)?,
            _ => solve_streamed_fixed::<4>(image, chunk, &coef, config, &mut blocks_decoded)?,
        });
    }

    let decoded_bytes = image.encoded_bytes_read() - encoded_before;
    span.record("blocks_decoded", blocks_decoded as f64);
    span.record("decoded_bytes", decoded_bytes as f64);
    obs::counter(obs::names::ESTIMATE_IO_BLOCKS_DECODED, blocks_decoded as f64);
    obs::counter(obs::names::ESTIMATE_IO_DECODED_BYTES, decoded_bytes as f64);
    Ok(results)
}

/// Converts a decode-time corruption error into the solver's error
/// domain. The image was fully validated at open; mid-solve corruption
/// means the backing file changed or the medium is failing, which the
/// caller should treat like any other unrecoverable solver failure.
fn corruption(e: spammass_graph::GraphError) -> PageRankError {
    PageRankError::InvalidJumpVector(format!("compressed image decode failed: {e}"))
}

/// One `K`-column streamed solve: the engine's single-worker sweep with
/// edges delivered block-at-a-time.
fn solve_streamed_fixed<const K: usize>(
    image: &CompressedImage,
    vs: &[Vec<f64>],
    coef: &[f64],
    config: &PageRankConfig,
    blocks_decoded: &mut u64,
) -> Result<Vec<PageRankResult>, PageRankError> {
    debug_assert_eq!(vs.len(), K);
    let n = image.node_count();
    let kind = config.kernel.resolve();
    let one_minus_c = 1.0 - config.damping;
    let in_blocks = image.block_count(Orientation::In);

    // Interleaved row-major n×K matrices, exactly as the pooled engine
    // lays them out; `front` is the cold start (the jump vectors).
    let mut vmat = vec![0.0f64; n * K];
    for (j, v) in vs.iter().enumerate() {
        for (y, &vy) in v.iter().enumerate() {
            vmat[y * K + j] = vy;
        }
    }
    let mut front = vmat.clone();
    let mut back = vec![0.0f64; n * K];
    let mut scratch = BlockScratch::default();

    let mut active = [true; K];
    let mut histories: Vec<ResidualHistory> = (0..K).map(|_| ResidualHistory::new()).collect();
    let mut guards: Vec<ConvergenceGuard> = (0..K).map(|_| ConvergenceGuard::new()).collect();
    let mut col_iterations = [0usize; K];
    let mut col_residual = [f64::INFINITY; K];
    let mut completed = 0usize;

    let outcome: Result<(), PageRankError> = loop {
        let iterations = completed + 1;
        // `front` is this sweep's read buffer, `back` its write buffer;
        // the swap below keeps the latest iterate in `front`.
        let read: &[f64] = &front;
        let write: &mut [f64] = &mut back;
        let act = active;
        let mut local_deltas = [0.0f64; K];
        for idx in 0..in_blocks {
            image.decode_block(Orientation::In, idx, &mut scratch).map_err(corruption)?;
            *blocks_decoded += 1;
            for i in 0..scratch.rows {
                let y = scratch.first_row + i;
                let mut acc: [f64; K] =
                    vmat[y * K..(y + 1) * K].try_into().expect("vmat row is K wide");
                for a in &mut acc {
                    *a *= one_minus_c;
                }
                kernel::gather_row(kind, read, coef, scratch.row(i), &mut acc);
                let old: &[f64; K] =
                    read[y * K..(y + 1) * K].try_into().expect("score row is K wide");
                let row = &mut write[y * K..(y + 1) * K];
                for (j, (&a, &o)) in acc.iter().zip(old).enumerate() {
                    if act[j] {
                        local_deltas[j] += (a - o).abs();
                        row[j] = a;
                    } else {
                        // Frozen column: copy through bit-exact.
                        row[j] = o;
                    }
                }
            }
        }
        completed = iterations;
        std::mem::swap(&mut front, &mut back);

        let mut all_frozen = true;
        let mut guard_err = None;
        for j in 0..K {
            if !active[j] {
                continue;
            }
            let residual = local_deltas[j];
            col_residual[j] = residual;
            histories[j].push(residual);
            if let Err(e) = guards[j].observe(iterations, residual) {
                guard_err = Some(e);
                break;
            }
            if residual < config.tolerance {
                active[j] = false;
                col_iterations[j] = iterations;
            } else {
                all_frozen = false;
            }
        }
        if let Some(e) = guard_err {
            break Err(e);
        }
        if all_frozen {
            break Ok(());
        }
        if iterations >= config.max_iterations {
            let worst =
                (0..K).filter(|&j| active[j]).map(|j| col_residual[j]).fold(0.0f64, f64::max);
            break Err(PageRankError::DidNotConverge { iterations, residual: worst });
        }
    };
    outcome?;

    // `front` holds every column's final iterate (frozen columns were
    // copied through each later sweep). Free the sweep-only state before
    // materializing per-column vectors so the de-interleave phase stays
    // under the same budget as the sweeps.
    drop(vmat);
    drop(back);
    drop(scratch);
    let final_buf = front;
    let mut results = Vec::with_capacity(K);
    if K == 1 {
        obs::observe("pagerank.iterations", col_iterations[0] as f64);
        results.push(PageRankResult {
            scores: final_buf,
            iterations: col_iterations[0],
            residual: col_residual[0],
            converged: true,
            residual_history: histories.remove(0),
        });
        return Ok(results);
    }
    for (j, (history, &iterations)) in histories.iter().zip(&col_iterations).enumerate() {
        obs::observe("pagerank.iterations", iterations as f64);
        let mut scores = vec![0.0f64; n];
        for (y, s) in scores.iter_mut().enumerate() {
            *s = final_buf[y * K + j];
        }
        results.push(PageRankResult {
            scores,
            iterations,
            residual: col_residual[j],
            converged: true,
            residual_history: history.clone(),
        });
    }
    Ok(results)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::solve_batch;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use spammass_graph::compress::{graph_to_bytes_v4_with, V4Config};
    use spammass_graph::{GraphBuilder, NodeId};
    use std::sync::Arc;

    fn random_graph(n: usize, m: usize, seed: u64) -> spammass_graph::Graph {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = GraphBuilder::with_capacity(n, m);
        for _ in 0..m {
            let f = rng.gen_range(0..n as u32);
            let t = rng.gen_range(0..n as u32);
            if f != t {
                b.add_edge(NodeId(f), NodeId(t));
            }
        }
        b.build()
    }

    fn tiny_block_image(g: &spammass_graph::Graph) -> CompressedImage {
        // Blocks far smaller than the graph: each sweep cycles through
        // many decode/gather rounds, the regime the parity claim covers.
        let cfg = V4Config { rows_per_block: 512, edges_per_block: 2048 };
        let bytes = graph_to_bytes_v4_with(g, cfg).unwrap();
        CompressedImage::from_store(Arc::new(bytes)).unwrap()
    }

    fn jumps(n: usize) -> [JumpVector; 2] {
        let core: Vec<NodeId> = (0..(n as u32) / 10).map(NodeId).collect();
        [JumpVector::Uniform, JumpVector::core(core, n)]
    }

    #[test]
    fn streamed_is_bit_identical_to_pooled_single_worker() {
        let g = random_graph(20_000, 300_000, 61);
        let image = tiny_block_image(&g);
        // edges_per_thread(1) pins the pooled engine; threads(1) gives it
        // one worker — the exact path the streamed sweep replicates.
        let config = PageRankConfig::default().threads(1).edges_per_thread(1);
        let js = jumps(g.node_count());
        let pooled = solve_batch(&g, &js, &config).unwrap();
        let streamed = solve_batch_streamed(&image, &js, &config, u64::MAX).unwrap();
        assert_eq!(pooled.len(), streamed.len());
        for (p, s) in pooled.iter().zip(&streamed) {
            assert_eq!(p.scores, s.scores, "scores must be bit-identical");
            assert_eq!(p.iterations, s.iterations);
            assert_eq!(p.residual, s.residual);
        }
    }

    #[test]
    fn budget_violation_is_a_typed_error() {
        let g = random_graph(5_000, 40_000, 67);
        let image = tiny_block_image(&g);
        let config = PageRankConfig::default();
        let err = solve_batch_streamed(&image, &jumps(g.node_count()), &config, 1024).unwrap_err();
        match err {
            PageRankError::ResidentBudget { required, budget } => {
                assert_eq!(budget, 1024);
                assert!(required > budget);
            }
            other => panic!("expected ResidentBudget, got {other:?}"),
        }
    }

    #[test]
    fn empty_and_zero_column_solves() {
        let g = GraphBuilder::from_edges(0, &[]);
        let image = tiny_block_image(&g);
        let config = PageRankConfig::default();
        assert!(solve_batch_streamed(&image, &[], &config, u64::MAX).unwrap().is_empty());
        let r = solve_batch_streamed(&image, &[JumpVector::Custom(Vec::new())], &config, u64::MAX)
            .unwrap();
        assert_eq!(r.len(), 1);
        assert!(r[0].converged);
    }

    #[test]
    fn iteration_cap_fails_the_streamed_solve() {
        let g = random_graph(5_000, 40_000, 71);
        let image = tiny_block_image(&g);
        let tight = PageRankConfig::default().max_iterations(2).tolerance(1e-300);
        assert!(matches!(
            solve_batch_streamed(&image, &jumps(g.node_count()), &tight, u64::MAX),
            Err(PageRankError::DidNotConverge { iterations: 2, .. })
        ));
    }
}
