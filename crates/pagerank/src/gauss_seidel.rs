//! Gauss–Seidel solver for linear PageRank.
//!
//! Section 2.2 notes that the linear-system view admits solvers "such as
//! the Jacobi or Gauss-Seidel methods, which are regularly faster than the
//! algorithms available for solving eigensystems". Gauss–Seidel updates
//! scores in place, consuming already-updated in-neighbour values within
//! the same sweep:
//!
//! ```text
//! p[y] ← (1 − c)·v[y] + Σ_{(x,y) ∈ E} p[x] · c/out(x)
//! ```
//!
//! Because the iteration matrix `c·Tᵀ` has spectral radius ≤ c < 1, the
//! method converges for any sweep order; in practice it needs roughly half
//! the iterations Jacobi does.
//!
//! The crate has one Gauss–Seidel loop, [`solve_gauss_seidel_fixed`]: a
//! fused sweep over `K` jump vectors (`K` a const generic, 1–4, as in
//! [`crate::batch`]) whose scores live in the interleaved `n×K` layout
//! and are updated in place. Every row runs the dispatched gather kernel
//! ([`crate::kernel`]), so `--kernel` applies here too. Each column keeps
//! its own convergence guard, residual history and freeze: a converged
//! column is no longer written while the others finish. The public
//! single-RHS solvers are its `K = 1` cold case; the batched warm
//! re-solve ([`crate::batch::solve_batch_warm`]) runs it too.

use crate::config::PageRankConfig;
use crate::error::PageRankError;
use crate::guard::ConvergenceGuard;
use crate::history::ResidualHistory;
use crate::jacobi::check_jump_length;
use crate::jump::JumpVector;
use crate::kernel;
use crate::PageRankResult;
use spammass_graph::Graph;
use spammass_obs as obs;

/// Solves `(I − c·Tᵀ)p = (1 − c)v` by Gauss–Seidel sweeps in node-id order.
///
/// # Errors
/// Returns a configuration/jump-vector error before iterating, and
/// [`PageRankError::DidNotConverge`], [`PageRankError::Diverged`], or
/// [`PageRankError::NumericalInstability`] if the iteration fails.
pub fn solve_gauss_seidel(
    graph: &Graph,
    jump: &JumpVector,
    config: &PageRankConfig,
) -> Result<PageRankResult, PageRankError> {
    config.validate()?;
    let v = jump.materialize(graph.node_count())?;
    solve_gauss_seidel_dense(graph, &v, config)
}

/// Gauss–Seidel with an already-materialized jump vector.
///
/// # Errors
/// Same contract as [`solve_gauss_seidel`].
pub fn solve_gauss_seidel_dense(
    graph: &Graph,
    v: &[f64],
    config: &PageRankConfig,
) -> Result<PageRankResult, PageRankError> {
    config.validate()?;
    check_jump_length(v, graph.node_count())?;
    let mut results =
        solve_gauss_seidel_fixed::<1>(graph, [v], None, config, "pagerank.solve.gauss_seidel")?;
    Ok(results.remove(0))
}

/// Runs fused Gauss–Seidel sweeps over exactly `K` columns. Inputs are
/// already validated by the callers (every slice `n` long, config
/// valid). `initial` seeds column `j` from `initial[j]`; `None` is the
/// cold start `p ← v`.
///
/// Returns one result per column, in order; any column tripping its
/// convergence guard — or the iteration cap with any column still
/// active — fails the whole solve. Everything is allocated before the
/// first sweep; the sweep loop is allocation-free (pinned by
/// `tests/alloc_gs.rs`).
pub(crate) fn solve_gauss_seidel_fixed<const K: usize>(
    graph: &Graph,
    vs: [&[f64]; K],
    initial: Option<[&[f64]; K]>,
    config: &PageRankConfig,
    span_name: &'static str,
) -> Result<Vec<PageRankResult>, PageRankError> {
    let n = graph.node_count();
    let kind = config.kernel.resolve();
    let mut span = obs::span(span_name);
    span.record("columns", K as f64);
    let c = config.damping;
    let one_minus_c = 1.0 - c;

    // coef[x] = c/out(x) keeps the gather division-free; dangling
    // sources contribute nothing (linear PageRank).
    let coef: Vec<f64> = graph
        .nodes()
        .map(|x| {
            let d = graph.out_degree(x);
            if d == 0 {
                0.0
            } else {
                c / d as f64
            }
        })
        .collect();
    // Interleaved n×K: the jump term (1−c)·v and the in-place iterate.
    let mut base = vec![0.0f64; n * K];
    let mut p = vec![0.0f64; n * K];
    for j in 0..K {
        let seed = initial.map_or(vs[j], |inits| inits[j]);
        for y in 0..n {
            base[y * K + j] = one_minus_c * vs[j][y];
            p[y * K + j] = seed[y];
        }
    }
    let srcs_all = graph.in_sources();
    let offsets = graph.in_offsets();

    let mut histories: [ResidualHistory; K] = std::array::from_fn(|_| ResidualHistory::new());
    let mut guards: [ConvergenceGuard; K] = std::array::from_fn(|_| ConvergenceGuard::new());
    let mut active = [true; K];
    let mut col_iterations = [0usize; K];
    let mut col_residual = [f64::INFINITY; K];
    let mut iterations = 0usize;

    let outcome = 'sweeps: loop {
        iterations += 1;
        let mut deltas = [0.0f64; K];
        for y in 0..n {
            let mut acc: [f64; K] = base[y * K..(y + 1) * K].try_into().expect("row is K wide");
            let row_srcs = &srcs_all[offsets[y] as usize..offsets[y + 1] as usize];
            kernel::gather_row(kind, &p, &coef, row_srcs, &mut acc);
            let row = &mut p[y * K..(y + 1) * K];
            for j in 0..K {
                if active[j] {
                    deltas[j] += (acc[j] - row[j]).abs();
                    row[j] = acc[j];
                }
            }
        }
        let mut all_frozen = true;
        for j in 0..K {
            if !active[j] {
                continue;
            }
            col_residual[j] = deltas[j];
            histories[j].push(deltas[j]);
            if let Err(e) = guards[j].observe(iterations, deltas[j]) {
                break 'sweeps Err(e);
            }
            if deltas[j] < config.tolerance {
                active[j] = false;
                col_iterations[j] = iterations;
            } else {
                all_frozen = false;
            }
        }
        if all_frozen {
            break Ok(());
        }
        if iterations >= config.max_iterations {
            let worst = (0..K).filter(|&j| active[j]).map(|j| col_residual[j]).fold(0.0, f64::max);
            break Err(PageRankError::DidNotConverge { iterations, residual: worst });
        }
    };

    // Telemetry on every exit path, including guard errors.
    span.record("iterations", iterations as f64);
    if let Err(e) = outcome {
        obs::observe("pagerank.iterations", iterations as f64);
        return Err(e);
    }
    let mut results = Vec::with_capacity(K);
    for (j, history) in histories.into_iter().enumerate() {
        obs::observe("pagerank.iterations", col_iterations[j] as f64);
        let scores = if K == 1 {
            // Single column: the interleaved matrix is the score vector.
            std::mem::take(&mut p)
        } else {
            (0..n).map(|y| p[y * K + j]).collect()
        };
        results.push(PageRankResult {
            scores,
            iterations: col_iterations[j],
            residual: col_residual[j],
            converged: true,
            residual_history: history,
        });
    }
    Ok(results)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jacobi::solve_jacobi;
    use spammass_graph::GraphBuilder;

    fn cfg() -> PageRankConfig {
        PageRankConfig::default()
    }

    #[test]
    fn agrees_with_jacobi_on_cycle() {
        let g = GraphBuilder::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]);
        let a = solve_jacobi(&g, &JumpVector::Uniform, &cfg()).unwrap();
        let b = solve_gauss_seidel(&g, &JumpVector::Uniform, &cfg()).unwrap();
        for i in 0..5 {
            assert!((a.scores[i] - b.scores[i]).abs() < 1e-9);
        }
    }

    #[test]
    fn agrees_with_jacobi_on_dag_with_dangling() {
        let g = GraphBuilder::from_edges(6, &[(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)]);
        let a = solve_jacobi(&g, &JumpVector::Uniform, &cfg()).unwrap();
        let b = solve_gauss_seidel(&g, &JumpVector::Uniform, &cfg()).unwrap();
        for i in 0..6 {
            assert!((a.scores[i] - b.scores[i]).abs() < 1e-9);
        }
    }

    #[test]
    fn agrees_with_jacobi_under_core_jump() {
        use spammass_graph::NodeId;
        let g = GraphBuilder::from_edges(4, &[(0, 1), (1, 2), (2, 0), (2, 3)]);
        let jump = JumpVector::scaled_core(vec![NodeId(0), NodeId(1)], 0.85);
        let a = solve_jacobi(&g, &jump, &cfg()).unwrap();
        let b = solve_gauss_seidel(&g, &jump, &cfg()).unwrap();
        for i in 0..4 {
            assert!((a.scores[i] - b.scores[i]).abs() < 1e-9);
        }
    }

    #[test]
    fn converges_in_fewer_iterations_than_jacobi() {
        // A long chain maximizes the benefit of in-sweep propagation.
        let edges: Vec<(u32, u32)> = (0..99).map(|i| (i, i + 1)).collect();
        let g = GraphBuilder::from_edges(100, &edges);
        let a = solve_jacobi(&g, &JumpVector::Uniform, &cfg()).unwrap();
        let b = solve_gauss_seidel(&g, &JumpVector::Uniform, &cfg()).unwrap();
        assert!(
            b.iterations < a.iterations,
            "gauss-seidel {} vs jacobi {}",
            b.iterations,
            a.iterations
        );
    }

    #[test]
    fn fused_columns_are_bit_identical_to_solo_solves() {
        // Columns never read each other and the kernel's edge→bank order
        // ignores K, so each fused column replays its solo solve exactly,
        // including a column that freezes while the other still sweeps.
        let mut edges: Vec<(u32, u32)> = (0..199).map(|i| (i, i + 1)).collect();
        edges.extend((1..60).map(|i| (i * 3, 0)));
        edges.extend((0..200).map(|i| (i, (i * 7 + 3) % 200)).filter(|&(f, t)| f != t));
        let g = GraphBuilder::from_edges(200, &edges);
        let uniform = vec![1.0 / 200.0; 200];
        let core: Vec<f64> = (0..200).map(|i| if i % 10 == 0 { 0.05 } else { 0.0 }).collect();
        let fused =
            solve_gauss_seidel_fixed::<2>(&g, [&uniform, &core], None, &cfg(), "t").unwrap();
        for (col, v) in fused.iter().zip([&uniform, &core]) {
            let solo = solve_gauss_seidel_dense(&g, v, &cfg()).unwrap();
            assert_eq!(col.scores, solo.scores);
            assert_eq!(col.iterations, solo.iterations);
        }
        assert_ne!(fused[0].iterations, fused[1].iterations, "columns should freeze apart");
    }

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::new(0).build();
        let r = solve_gauss_seidel(&g, &JumpVector::Uniform, &cfg()).unwrap();
        assert!(r.scores.is_empty());
        assert!(r.converged);
    }

    #[test]
    fn iteration_cap_is_a_typed_error() {
        let g = GraphBuilder::from_edges(3, &[(0, 1), (1, 2), (2, 0), (0, 2)]);
        let tight = cfg().max_iterations(1).tolerance(1e-300);
        assert!(matches!(
            solve_gauss_seidel(&g, &JumpVector::Uniform, &tight),
            Err(PageRankError::DidNotConverge { iterations: 1, .. })
        ));
    }
}
