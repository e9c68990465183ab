//! Warm update ≍ cold re-estimate, at any thread count.
//!
//! `MassEstimator::update` re-solves `[p, p′]` from the saved fixed
//! points by fused Gauss–Seidel sweeps on one thread, whatever the
//! configured worker count. Its contract is the cold estimate's answer —
//! the identical flagged set and ≤ 1e-9 per score — on a ~40k-host synth
//! web after one ~1% evolve step. The warm→cold fallback is pinned here
//! too: a poisoned saved vector must trip the warm guard and still land
//! on the cold answer.

use spammass_core::detector::{detect, Detection, DetectorConfig};
use spammass_core::estimate::{EstimatorConfig, MassEstimator};
use spammass_core::update::UpdateReport;
use spammass_delta::{DeltaRecord, GraphDelta, SavedState};
use spammass_graph::{Graph, NodeId};
use spammass_obs::{Collector, Metric, Recorder};
use spammass_pagerank::jacobi::solve_jacobi_dense_warm;
use spammass_pagerank::{JumpVector, PageRankConfig};
use spammass_synth::scenario::{Scenario, ScenarioConfig};
use std::sync::{Arc, OnceLock};

struct Fixture {
    base: SavedState,
    records: Vec<DeltaRecord>,
    cold_pagerank: Vec<f64>,
    cold_core_pagerank: Vec<f64>,
    cold_flagged: Detection,
}

fn detector() -> DetectorConfig {
    DetectorConfig { rho: 10.0, tau: 0.98 }
}

fn one_worker() -> PageRankConfig {
    PageRankConfig::default().threads(1)
}

/// Two workers for any cold solve: the quota override lifts the edge
/// cap, and 40k hosts clear the node floor for two workers.
fn two_workers() -> PageRankConfig {
    PageRankConfig::default().threads(2).edges_per_thread(1)
}

fn estimator(pagerank: PageRankConfig) -> MassEstimator {
    MassEstimator::new(EstimatorConfig::scaled(0.85).with_pagerank(pagerank))
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let config = ScenarioConfig::sized(40_000).with_evolve_steps(1);
        let scenario = Scenario::generate(&config, 0xC0FFEE);
        let core = scenario.section_4_2_core();
        let records = scenario.evolve(&config, 0xC0FFEE).all_records();
        assert!(!records.is_empty(), "one evolve step emits records");

        let est = estimator(one_worker());
        let base = est.estimate(&scenario.graph, &core).expect("base estimate");
        let mut graph: Graph = scenario.graph.clone();
        let mut cold_core = core.clone();
        let delta = GraphDelta::from_records(&records);
        delta.apply(&mut graph);
        delta.apply_to_core(&mut cold_core);
        let cold = est.estimate(&graph, &cold_core).expect("cold re-estimate");
        Fixture {
            base: SavedState {
                graph: scenario.graph,
                core,
                pagerank: base.pagerank.clone(),
                core_pagerank: base.core_pagerank.clone(),
            },
            records,
            cold_flagged: detect(&cold.mass, &detector()),
            cold_pagerank: cold.pagerank.clone(),
            cold_core_pagerank: cold.core_pagerank.clone(),
        }
    })
}

fn update(pagerank: PageRankConfig, state: SavedState) -> UpdateReport {
    estimator(pagerank).update(state, &fixture().records, &detector()).expect("update")
}

fn assert_matches_cold(report: &UpdateReport) {
    let f = fixture();
    assert_eq!(report.detection.candidates, f.cold_flagged.candidates, "flagged sets differ");
    let diffs = report
        .estimate
        .pagerank
        .iter()
        .zip(&f.cold_pagerank)
        .chain(report.estimate.core_pagerank.iter().zip(&f.cold_core_pagerank));
    for (i, (a, b)) in diffs.enumerate() {
        assert!((a - b).abs() <= 1e-9, "score {i}: update {a} vs cold {b}");
    }
}

/// Sweeps a warm Jacobi solve of the uniform column takes from the seed
/// `update` builds: the saved `p`, rescaled by `old_n/n`, new rows at
/// `(1−c)/n`.
fn jacobi_warm_sweeps(report: &UpdateReport, config: &PageRankConfig) -> usize {
    let old = &fixture().base.pagerank;
    let n = report.graph.node_count();
    let shrink = old.len() as f64 / n as f64;
    let mut seed: Vec<f64> = old.iter().map(|&p| p * shrink).collect();
    seed.resize(n, (1.0 - config.damping) / n as f64);
    let v = JumpVector::Uniform.materialize(n).expect("uniform jump");
    solve_jacobi_dense_warm(&report.graph, &v, Some(&seed), config)
        .expect("warm jacobi converges")
        .iterations
}

#[test]
fn warm_update_matches_a_cold_estimate_at_any_thread_count() {
    for config in [one_worker(), two_workers()] {
        let report = update(config, fixture().base.clone());
        assert!(report.warm, "warm solve must not fall back");
        let diag = report.estimate.pagerank_diag.as_ref().expect("warm diag");
        assert_eq!(diag.solver, "gauss-seidel-warm");
        assert_eq!(report.estimate.core_diag.solver, "gauss-seidel-warm");
        assert_matches_cold(&report);
        let jacobi = jacobi_warm_sweeps(&report, &config);
        assert!(
            diag.iterations < jacobi,
            "gauss-seidel took {} sweeps vs warm jacobi {jacobi}",
            diag.iterations
        );
    }
}

#[test]
fn poisoned_seed_falls_back_to_cold_at_any_thread_count() {
    for config in [one_worker(), two_workers()] {
        let mut state = fixture().base.clone();
        state.pagerank[7] = f64::NAN;

        let recorder = Arc::new(Recorder::new());
        let collector = Collector::builder().sink(recorder.clone()).build();
        let report = {
            let _guard = collector.install();
            update(config, state)
        };

        assert!(!report.warm, "a NaN seed must trip the warm guard");
        let fallbacks = collector
            .metrics_snapshot()
            .into_iter()
            .find(|(name, _)| name == "estimate.warm_fallback")
            .map(|(_, metric)| metric);
        assert!(matches!(fallbacks, Some(Metric::Counter(n)) if n == 1.0), "{fallbacks:?}");
        assert!(
            recorder.messages().iter().any(|(name, _)| name == "estimate.warm_fallback"),
            "fallback event missing"
        );
        assert_matches_cold(&report);
    }
}

#[test]
fn top_mass_shifts_rank_nan_last_and_ties_in_node_order() {
    let mut report = update(one_worker(), fixture().base.clone());
    let n = report.estimate.len();
    // after = 0 everywhere, so each shift is exactly −before.
    report.estimate.mass.absolute.iter_mut().for_each(|m| *m = 0.0);
    report.previous_scaled_absolute = vec![0.0; n];
    report.previous_scaled_absolute[0] = f64::NAN;
    report.previous_scaled_absolute[1] = 5.0;
    report.previous_scaled_absolute[2] = 7.0;
    report.previous_scaled_absolute[3] = -5.0;

    let top: Vec<NodeId> = report.top_mass_shifts(4).iter().map(|s| s.node).collect();
    assert_eq!(top, [2, 1, 3, 4].map(NodeId));
    let all = report.top_mass_shifts(n);
    assert_eq!(all.len(), n);
    assert_eq!(all[n - 1].node, NodeId(0), "a NaN shift ranks last");
    assert!(all[3..n - 1].windows(2).all(|w| w[0].node < w[1].node), "zero shifts in node order");
}
