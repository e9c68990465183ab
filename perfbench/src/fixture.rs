//! Workload inputs and output references.
//!
//! `fixture` turns a seed into the files the `spammass` binary consumes;
//! the program itself never sees the seed. `refupdate` and `check-state`
//! implement the `update_120k` output check: the flagged set after each
//! warm update must equal that of a cold estimate of the same post-delta
//! graph.

use crate::{err, Args};
use spammass_core::detector::{detect, DetectorConfig};
use spammass_core::estimate::{EstimatorConfig, MassEstimator};
use spammass_delta::{journal_to_bytes, read_journal, DeltaRecord, GraphDelta, StateDir};
use spammass_graph::{io, Graph, NodeId};
use spammass_pagerank::PageRankConfig;
use spammass_serve::Snapshot;
use spammass_synth::scenario::{Scenario, ScenarioConfig};
use std::fmt::Write as _;
use std::fs;
use std::path::Path;

/// Records of the second evolve step that make up the tiny journal: a
/// handful of new boosters and their links, i.e. a genuine delta of a
/// few nodes on the post-step graph.
const TINY_RECORDS: usize = 12;

/// The estimator settings every workload runs with (`--threads 1`, the
/// CLI's γ = 0.85 default).
pub fn estimator_config() -> EstimatorConfig {
    EstimatorConfig::scaled(0.85).with_pagerank(PageRankConfig::default().threads(1))
}

/// `fixture --hosts N --seed S --dir D`: the Section 4 synth scenario as
/// a text edge list (`web.txt`), its Section 4.2 core (`core.txt`),
/// ground truth covering the evolved nodes too (`truth.tsv`), one ~1%
/// evolve step (`step.journal`) and the first records of the next step
/// (`tiny.journal`).
pub fn fixture(args: &Args) -> Result<(), String> {
    let hosts: usize = args.get("hosts")?;
    let seed: u64 = args.get("seed")?;
    let dir = Path::new(args.str("dir")?);
    fs::create_dir_all(dir).map_err(err("create fixture dir"))?;

    let config = ScenarioConfig::sized(hosts).with_evolve_steps(2);
    let scenario = Scenario::generate(&config, seed);
    let file = fs::File::create(dir.join("web.txt")).map_err(err("create web.txt"))?;
    io::write_edge_list(&scenario.graph, file).map_err(err("write web.txt"))?;

    let mut core = String::from("# Section 4.2 good core (node ids)\n");
    for node in scenario.section_4_2_core() {
        let _ = writeln!(core, "{}", node.0);
    }
    fs::write(dir.join("core.txt"), core).map_err(err("write core.txt"))?;

    let evolution = scenario.evolve(&config, seed);
    let [step, next] = &evolution.steps[..] else {
        return Err("the scenario must evolve exactly two steps".into());
    };
    if step.is_empty() || next.len() < TINY_RECORDS {
        return Err("evolve produced too few records".into());
    }
    fs::write(dir.join("step.journal"), journal_to_bytes(std::slice::from_ref(&step.records)))
        .map_err(err("write step.journal"))?;
    fs::write(dir.join("tiny.journal"), journal_to_bytes(&[next.records[..TINY_RECORDS].to_vec()]))
        .map_err(err("write tiny.journal"))?;

    let mut truth = String::from("# node\tis_spam\n");
    for (node, class) in scenario.truth.iter() {
        let _ = writeln!(truth, "{}\t{}", node.0, u8::from(class.is_spam()));
    }
    for node in evolution.steps.iter().flat_map(|s| &s.new_spam) {
        let _ = writeln!(truth, "{}\t1", node.0);
    }
    fs::write(dir.join("truth.tsv"), truth).map_err(err("write truth.tsv"))?;
    Ok(())
}

fn read_records(path: &str) -> Result<Vec<DeltaRecord>, String> {
    let data = fs::read(path).map_err(err(path))?;
    Ok(read_journal(&data).map_err(err(path))?.into_iter().flatten().collect())
}

/// Applies `records` to `graph`/`core`, then solves cold and writes the
/// flagged ids to `out`, one per line.
fn cold_reference(
    graph: &mut Graph,
    core: &mut Vec<NodeId>,
    records: &[DeltaRecord],
    out: &str,
) -> Result<(), String> {
    let delta = GraphDelta::from_records(records);
    delta.apply(graph);
    delta.apply_to_core(core);
    let report = MassEstimator::new(estimator_config())
        .estimate(graph, core)
        .map_err(err("cold estimate"))?;
    let detection = detect(&report.mass, &DetectorConfig::default());
    fs::write(out, flagged_lines(&detection.candidates)).map_err(err(out))
}

fn flagged_lines(nodes: &[NodeId]) -> String {
    nodes.iter().map(|n| format!("{}\n", n.0)).collect()
}

/// `refupdate --state DIR --step F --tiny F --out-step F --out-tiny F`:
/// the cold-estimate flagged sets after the step journal and after the
/// step plus the tiny journal, both applied to the state's current
/// generation.
pub fn reference_update(args: &Args) -> Result<(), String> {
    let (saved, _) =
        StateDir::new(args.str("state")?).load_with_recovery().map_err(err("load state"))?;
    let (mut graph, mut core) = (saved.graph, saved.core);
    cold_reference(
        &mut graph,
        &mut core,
        &read_records(args.str("step")?)?,
        args.str("out-step")?,
    )?;
    cold_reference(&mut graph, &mut core, &read_records(args.str("tiny")?)?, args.str("out-tiny")?)
}

/// `check-state --state DIR --expect F`: the flagged set the published
/// generation yields (derived exactly as the query daemon derives it)
/// must equal the ids listed in `F`.
pub fn check_state(args: &Args) -> Result<(), String> {
    let state = StateDir::new(args.str("state")?);
    let snapshot =
        Snapshot::load(&state, &DetectorConfig::default(), 0.85).map_err(err("load snapshot"))?;
    let expect_path = args.str("expect")?;
    let expected = fs::read_to_string(expect_path).map_err(err(expect_path))?;
    let actual = flagged_lines(&snapshot.detection().candidates);
    if actual != expected {
        return Err(format!(
            "generation {} flags {} hosts, the cold reference {}",
            snapshot.generation,
            snapshot.detection().len(),
            expected.lines().count()
        ));
    }
    println!(
        "{{\"generation\":{},\"flagged\":{}}}",
        snapshot.generation,
        snapshot.detection().len()
    );
    Ok(())
}
