//! The traced run: per-layer numbers for one workload.
//!
//! Each workload's pipeline is rebuilt here from the crates' public
//! functions, in the order the `spammass` subcommand calls them, and
//! timed around every call into a layer (`graph`, `pagerank`, `core`,
//! `delta`, `serve`; `cli` for output formatting). Where one public call
//! spans several layers, the spans the program already emits are read
//! through an installed [`Collector`]; the pool profiler's per-worker
//! series come from the global registry. Nothing is added inside the
//! program.
//!
//! The pipeline runs twice in this process: first untraced (no
//! collector, registry off), then traced. The wall-time difference is
//! `obs.tracing_overhead_pct`. The global registry cannot be switched
//! off again, so the untraced pass has to come first.

use crate::fixture::estimator_config;
use crate::load::{next_request, Kind, Rng};
use crate::{err, Args};
use spammass_cli::loading::{display_node, load_core};
use spammass_core::detector::{detect, DetectorConfig};
use spammass_core::estimate::{EstimateReport, MassEstimate, MassEstimator};
use spammass_delta::{read_journal_with, DeltaRecord, StateDir};
use spammass_graph::io::{self, ReadOptions};
use spammass_graph::{
    BlockScratch, CompressedImage, NodeId, NodeOrdering, Orientation, Permutation,
};
use spammass_obs::http::{read_request, write_response};
use spammass_obs::registry::{self, MetricSnapshot};
use spammass_obs::{Collector, Json, Metric, Recorder, SpanRecord};
use spammass_serve::{service, Snapshot};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// The resident budget of the streamed workload (`--max-resident-mb 64`).
const STREAM_BUDGET_BYTES: u64 = 64 * 1024 * 1024;
/// Requests replayed in-process for the serve layer numbers.
const SERVE_REQUESTS: usize = 20_000;

type Metrics = BTreeMap<String, f64>;

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// What the traced pass collected besides its own timers.
struct Telemetry {
    spans: Vec<SpanRecord>,
    metrics: Vec<(String, Metric)>,
}

impl Telemetry {
    /// Seconds of each closed span named `name`, in closing order.
    fn spans_s(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.elapsed_ns as f64 / 1e9).collect()
    }

    /// Total seconds of the closed spans named `name`.
    fn span_s(&self, name: &str) -> f64 {
        self.spans_s(name).iter().sum()
    }

    /// The value of a counter or gauge the program emitted, if any.
    fn value(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| n == name).and_then(|(_, m)| match m {
            Metric::Counter(v) | Metric::Gauge(v) => Some(*v),
            Metric::Histogram(_) => None,
        })
    }
}

/// Runs `f` with the global registry on and a recording collector
/// installed on this thread.
fn traced<T>(f: impl FnOnce() -> Result<T, String>) -> Result<(T, Telemetry), String> {
    registry::enable_global();
    let recorder = Arc::new(Recorder::new());
    let collector = Collector::builder().sink(recorder.clone()).build();
    let value = {
        let _guard = collector.install();
        f()?
    };
    Ok((value, Telemetry { spans: recorder.spans(), metrics: collector.metrics_snapshot() }))
}

/// Runs `f` untraced, then traced; returns the traced result, its
/// telemetry, and the tracing overhead in percent of the untraced wall
/// time (`wall` extracts a pass's wall seconds).
fn twice<T>(
    mut f: impl FnMut() -> Result<T, String>,
    wall: impl Fn(&T) -> f64,
) -> Result<(T, Telemetry, f64), String> {
    let untraced = f()?;
    let (traced, telemetry) = traced(f)?;
    let overhead = 100.0 * (wall(&traced) - wall(&untraced)) / wall(&untraced);
    Ok((traced, telemetry, overhead))
}

/// Per-sweep pool-profiler figures from the global registry:
/// `(gather_ns, barrier_wait_ns, merge_ns)` summed over workers.
fn pool_profile() -> (f64, f64, f64) {
    let snapshot = registry::global().snapshot();
    let (mut gather, mut barrier, mut merge, mut sweeps) = (0.0, 0.0, 0.0, 0.0);
    for (name, metric) in &snapshot.entries {
        match metric {
            MetricSnapshot::Histogram(h) if name.ends_with(".gather_ns") => gather += h.sum,
            MetricSnapshot::Histogram(h) if name.ends_with(".barrier_wait_ns") => barrier += h.sum,
            MetricSnapshot::Histogram(h) if name == "pagerank.merge_ns" => merge += h.sum,
            MetricSnapshot::Counter { total, .. } if name == "pagerank.pool.sweeps" => {
                sweeps += total
            }
            _ => {}
        }
    }
    let per = |v: f64| if sweeps > 0.0 { v / sweeps } else { 0.0 };
    (per(gather), per(barrier), per(merge))
}

/// Writes the estimate TSV exactly as `spammass estimate --out` does.
fn write_tsv(mass: &MassEstimate, path: &Path) -> Result<(), String> {
    let mut tsv =
        String::from("# node\thost\tscaled_p\tscaled_p_core\tscaled_abs_mass\trel_mass\n");
    for x in (0..mass.len() as u32).map(NodeId) {
        let _ = writeln!(
            tsv,
            "{}\t{}\t{:.6}\t{:.6}\t{:.6}\t{:.6}",
            x.0,
            display_node(None, x),
            mass.scaled_pagerank(x),
            mass.scaled_core_pagerank(x),
            mass.scaled_absolute(x),
            mass.relative_of(x),
        );
    }
    fs::write(path, tsv).map_err(err("write tsv"))
}

/// Sweeps of the two columns and the solve's pagerank-layer figures.
fn solve_metrics(m: &mut Metrics, report: &EstimateReport, solve_s: f64, nodes: f64, edges: f64) {
    let sweeps_p = report.pagerank_diag.as_ref().map_or(0, |d| d.iterations) as f64;
    let sweeps_core = report.core_diag.iterations as f64;
    let sweeps = sweeps_p.max(sweeps_core);
    m.insert("pagerank.solve_s".into(), solve_s);
    m.insert("pagerank.sweeps_p".into(), sweeps_p);
    m.insert("pagerank.sweeps_p_core".into(), sweeps_core);
    m.insert("pagerank.sweep_ms".into(), 1e3 * solve_s / sweeps.max(1.0));
    m.insert("pagerank.edge_updates_per_s".into(), edges * (sweeps_p + sweeps_core) / solve_s);
    // Computed, not measured: per in-edge the source id (4 B), its
    // coefficient c/out(x) (8 B) and K = 2 interleaved scores (16 B); per
    // node the offset (4 B) plus new scores written, old scores and jump
    // read (3 × 16 B).
    m.insert("pagerank.bytes_per_sweep".into(), edges * (4.0 + 8.0 + 16.0) + nodes * (4.0 + 48.0));
    let fallbacks = usize::from(report.core_diag.used_fallback())
        + usize::from(report.pagerank_diag.as_ref().is_some_and(|d| d.used_fallback()));
    m.insert("core.solver_fallbacks".into(), fallbacks as f64);
}

/// `bw_fraction`: computed bytes moved per second of solve over the
/// probe's triad bandwidth.
fn bandwidth_share(m: &mut Metrics, mem_bw_gbs: f64) {
    let sweeps = m["pagerank.sweeps_p"].max(m["pagerank.sweeps_p_core"]);
    let rate = m["pagerank.bytes_per_sweep"] * sweeps / m["pagerank.solve_s"];
    m.insert("pagerank.bw_fraction".into(), rate / (mem_bw_gbs * 1e9));
}

/// The first graph-image decode of the traced pass: state generations
/// hold v2 images (`graph.ingest.binary`); v3 images log
/// `graph.ingest.image`.
fn first_image_load(tel: &Telemetry) -> f64 {
    tel.spans
        .iter()
        .find(|s| s.name == "graph.ingest.binary" || s.name == "graph.ingest.image")
        .map_or(0.0, |s| s.elapsed_ns as f64 / 1e9)
}

fn unattributed(m: &mut Metrics, layer_s: f64, wall_s: f64) {
    m.insert("unattributed_pct".into(), 100.0 * (1.0 - layer_s / wall_s));
}

// ---------------------------------------------------------------- estimate

struct EstimatePass {
    wall: f64,
    ingest: f64,
    order: f64,
    estimate: f64,
    detect: f64,
    output: f64,
    text_bytes: usize,
    nodes: usize,
    edges: usize,
    report: EstimateReport,
}

/// `spammass estimate --threads 1 --order degree --out FILE` on the text
/// edge list, plus Algorithm 2's detection.
fn estimate_pass(dir: &Path) -> Result<EstimatePass, String> {
    let start = Instant::now();
    let data = fs::read(dir.join("web.txt")).map_err(err("read web.txt"))?;
    let t = Instant::now();
    let (graph, _) = io::read_edge_list_bytes(&data, &ReadOptions::default().with_threads(1))
        .map_err(err("text ingest"))?;
    let ingest = secs(t);
    let core =
        load_core(&dir.join("core.txt"), None, graph.node_count()).map_err(err("core"))?.nodes;

    let t = Instant::now();
    let perm = Permutation::compute(&graph, NodeOrdering::DegreeDescending);
    let permuted = perm.permute_graph(&graph);
    let permuted_core = perm.permute_nodes(&core);
    let mut order = secs(t);

    let t = Instant::now();
    let mut report = MassEstimator::new(estimator_config())
        .estimate(&permuted, &permuted_core)
        .map_err(err("estimate"))?;
    let estimate = secs(t);

    let t = Instant::now();
    let mass = &mut report.mass;
    for v in [&mut mass.pagerank, &mut mass.core_pagerank, &mut mass.absolute, &mut mass.relative] {
        *v = perm.restore_values(v);
    }
    order += secs(t);

    let t = Instant::now();
    let detection = detect(&report.mass, &DetectorConfig::default());
    let detect_s = secs(t);
    std::hint::black_box(detection);

    let t = Instant::now();
    write_tsv(&report.mass, &dir.join("trace.tsv"))?;
    let output = secs(t);
    Ok(EstimatePass {
        wall: secs(start),
        ingest,
        order,
        estimate,
        detect: detect_s,
        output,
        text_bytes: data.len(),
        nodes: graph.node_count(),
        edges: graph.edge_count(),
        report,
    })
}

fn estimate_workload(dir: &Path, mem_bw: f64, m: &mut Metrics) -> Result<(), String> {
    let (pass, tel, overhead) = twice(|| estimate_pass(dir), |p| p.wall)?;
    let solve_s = tel.span_s("pagerank_batch");
    m.insert("graph.text_ingest_s".into(), pass.ingest);
    m.insert("graph.text_ingest_mb_s".into(), pass.text_bytes as f64 / 1e6 / pass.ingest);
    m.insert("graph.order_s".into(), pass.order);
    solve_metrics(m, &pass.report, solve_s, pass.nodes as f64, pass.edges as f64);
    bandwidth_share(m, mem_bw);
    m.insert("pagerank.workers".into(), tel.value("pagerank.pool.threads").unwrap_or(1.0));
    let (gather, barrier, merge) = pool_profile();
    m.insert("pagerank.gather_ns".into(), gather);
    m.insert("pagerank.barrier_wait_ns".into(), barrier);
    m.insert("pagerank.merge_ns".into(), merge);
    m.insert("core.estimate_s".into(), pass.estimate);
    m.insert("core.estimate_self_s".into(), pass.estimate - solve_s);
    m.insert("core.detect_s".into(), pass.detect);
    m.insert("cli.output_s".into(), pass.output);
    m.insert("obs.tracing_overhead_pct".into(), overhead);
    let layers = pass.ingest + pass.order + pass.estimate + pass.detect + pass.output;
    unattributed(m, layers, pass.wall);
    Ok(())
}

// ------------------------------------------------------------------ update

#[derive(Default)]
struct UpdateStep {
    journal_read: f64,
    state_load: f64,
    update: f64,
    save: f64,
    output: f64,
    state_bytes: u64,
    sweeps: f64,
    warm_fallback: bool,
    rebuild: bool,
    zero_copy: bool,
}

struct UpdatePass {
    wall: f64,
    step: UpdateStep,
    tiny: UpdateStep,
}

fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    fs::create_dir_all(to).map_err(err("create state copy"))?;
    for entry in fs::read_dir(from).map_err(err("read state dir"))? {
        let entry = entry.map_err(err("read state dir"))?;
        let target = to.join(entry.file_name());
        if entry.path().is_dir() {
            copy_dir(&entry.path(), &target)?;
        } else {
            fs::copy(entry.path(), target).map_err(err("copy state file"))?;
        }
    }
    Ok(())
}

/// One `spammass update --threads 1` invocation's library calls.
fn update_step(state: &StateDir, journal: &Path) -> Result<UpdateStep, String> {
    let mut s = UpdateStep::default();
    let t = Instant::now();
    let data = fs::read(journal).map_err(err("read journal"))?;
    let (batches, _) = read_journal_with(&data, &ReadOptions::default()).map_err(err("journal"))?;
    let records: Vec<DeltaRecord> = batches.into_iter().flatten().collect();
    s.journal_read = secs(t);

    let t = Instant::now();
    let (saved, _) = state.load_with_recovery().map_err(err("load state"))?;
    s.state_load = secs(t);
    s.zero_copy = saved.graph.is_zero_copy();

    let t = Instant::now();
    let report = MassEstimator::new(estimator_config())
        .update(saved, &records, &DetectorConfig::default())
        .map_err(err("update"))?;
    s.update = secs(t);
    s.sweeps = report.estimate.pagerank_diag.as_ref().map_or(0, |d| d.iterations) as f64;
    s.sweeps = s.sweeps.max(report.estimate.core_diag.iterations as f64);
    s.warm_fallback = !report.warm;
    s.rebuild = report.apply.strategy == spammass_delta::ApplyStrategy::Rebuild;

    let t = Instant::now();
    let generation = state
        .save(
            &report.graph,
            &report.core,
            &report.estimate.pagerank,
            &report.estimate.core_pagerank,
        )
        .map_err(err("save state"))?;
    s.save = secs(t);
    s.state_bytes = crate::generation_bytes(state, generation);

    let t = Instant::now();
    std::hint::black_box(report.top_mass_shifts(10));
    s.output = secs(t);
    Ok(s)
}

fn update_pass(dir: &Path, copy: &Path) -> Result<UpdatePass, String> {
    let _ = fs::remove_dir_all(copy);
    copy_dir(&dir.join("state"), copy)?;
    let state = StateDir::new(copy);
    let start = Instant::now();
    let step = update_step(&state, &dir.join("step.journal"))?;
    let tiny = update_step(&state, &dir.join("tiny.journal"))?;
    Ok(UpdatePass { wall: secs(start), step, tiny })
}

fn update_workload(dir: &Path, m: &mut Metrics) -> Result<(), String> {
    let mut round = 0;
    let (pass, tel, overhead) = twice(
        || {
            round += 1;
            update_pass(dir, &dir.join(format!("trace-state-{round}")))
        },
        |p| p.wall,
    )?;
    let (step, tiny) = (&pass.step, &pass.tiny);
    // Each invocation closes its own spans, the 1% step's first.
    let apply_spans = tel.spans_s("delta.apply");
    let warm_spans = tel.spans_s("estimate.warm");
    let nth = |v: &[f64], i: usize| v.get(i).copied().unwrap_or(0.0);
    m.insert("graph.image_load_s".into(), first_image_load(&tel));
    m.insert("graph.zero_copy".into(), f64::from(u8::from(step.zero_copy)));
    m.insert("pagerank.solve_s".into(), nth(&warm_spans, 0));
    m.insert("pagerank.workers".into(), tel.value("pagerank.pool.threads").unwrap_or(1.0));
    let (gather, barrier, merge) = pool_profile();
    m.insert("pagerank.gather_ns".into(), gather);
    m.insert("pagerank.barrier_wait_ns".into(), barrier);
    m.insert("pagerank.merge_ns".into(), merge);
    m.insert("pagerank.warm_sweeps".into(), step.sweeps);
    m.insert("pagerank.warm_sweeps_tiny".into(), tiny.sweeps);
    m.insert("core.update_s".into(), step.update);
    m.insert("core.update_tiny_s".into(), tiny.update);
    m.insert(
        "core.warm_fallbacks".into(),
        f64::from(u8::from(step.warm_fallback) + u8::from(tiny.warm_fallback)),
    );
    m.insert("delta.state_load_s".into(), step.state_load);
    m.insert("delta.journal_read_s".into(), step.journal_read);
    m.insert("delta.journal_read_tiny_s".into(), tiny.journal_read);
    m.insert("delta.apply_s".into(), nth(&apply_spans, 0));
    m.insert("delta.apply_tiny_s".into(), nth(&apply_spans, 1));
    m.insert("delta.apply_rebuild".into(), f64::from(u8::from(step.rebuild)));
    m.insert("delta.state_save_s".into(), step.save);
    m.insert("delta.state_bytes".into(), step.state_bytes as f64);
    m.insert("cli.output_s".into(), step.output + tiny.output);
    m.insert("obs.tracing_overhead_pct".into(), overhead);
    let layers: f64 = [step, tiny]
        .iter()
        .map(|s| s.journal_read + s.state_load + s.update + s.save + s.output)
        .sum();
    unattributed(m, layers, pass.wall);
    Ok(())
}

// ------------------------------------------------------------------ stream

struct StreamPass {
    wall: f64,
    open: f64,
    estimate: f64,
    detect: f64,
    output: f64,
    image: CompressedImage,
    report: EstimateReport,
}

/// `spammass estimate --max-resident-mb 64 --threads 1 --out FILE` on the
/// v4 image, plus Algorithm 2's detection.
fn stream_pass(dir: &Path) -> Result<StreamPass, String> {
    let start = Instant::now();
    let t = Instant::now();
    let image = CompressedImage::open(&dir.join("g.v4")).map_err(err("open v4"))?;
    let open = secs(t);
    let core = load_core(&dir.join("scenario/core.txt"), None, image.node_count())
        .map_err(err("core"))?
        .nodes;
    let t = Instant::now();
    let report = MassEstimator::new(estimator_config())
        .estimate_streamed(&image, &core, STREAM_BUDGET_BYTES)
        .map_err(err("streamed estimate"))?;
    let estimate = secs(t);
    let t = Instant::now();
    std::hint::black_box(detect(&report.mass, &DetectorConfig::default()));
    let detect_s = secs(t);
    let t = Instant::now();
    write_tsv(&report.mass, &dir.join("trace.tsv"))?;
    let output = secs(t);
    Ok(StreamPass { wall: secs(start), open, estimate, detect: detect_s, output, image, report })
}

fn stream_workload(dir: &Path, mem_bw: f64, m: &mut Metrics) -> Result<(), String> {
    let (pass, tel, overhead) = twice(|| stream_pass(dir), |p| p.wall)?;
    let image = &pass.image;
    let solve_s = tel.span_s("pagerank.solve.streamed");
    let (nodes, edges) = (image.node_count() as f64, image.edge_count() as f64);
    solve_metrics(m, &pass.report, solve_s, nodes, edges);
    bandwidth_share(m, mem_bw);
    m.insert("pagerank.stream_solve_s".into(), solve_s);
    m.insert(
        "pagerank.blocks_decoded".into(),
        tel.value("estimate.io.blocks_decoded").unwrap_or(0.0),
    );
    m.insert(
        "pagerank.decoded_mb".into(),
        tel.value("estimate.io.decoded_bytes").unwrap_or(0.0) / (1024.0 * 1024.0),
    );
    m.insert("pagerank.workers".into(), tel.value("pagerank.pool.threads").unwrap_or(1.0));

    // One decode of every in-block, the unit a streamed sweep repeats.
    // The blocks' CRCs were verified by the solve, so this is decode only.
    let mut scratch = BlockScratch::default();
    let t = Instant::now();
    for idx in 0..image.block_count(Orientation::In) {
        image.decode_block(Orientation::In, idx, &mut scratch).map_err(err("decode"))?;
    }
    let decode_pass = secs(t);
    let sweeps = m["pagerank.sweeps_p"].max(m["pagerank.sweeps_p_core"]);
    m.insert("graph.v4_decode_pass_s".into(), decode_pass);
    m.insert("graph.v4_bits_per_edge".into(), image.file_bytes() as f64 * 8.0 / (2.0 * edges));
    m.insert("pagerank.stream_decode_share".into(), sweeps * decode_pass / solve_s);
    m.insert("core.estimate_s".into(), pass.estimate);
    m.insert("core.estimate_self_s".into(), pass.estimate - solve_s);
    m.insert("core.detect_s".into(), pass.detect);
    m.insert("cli.output_s".into(), pass.output);
    m.insert("obs.tracing_overhead_pct".into(), overhead);
    unattributed(m, pass.open + pass.estimate + pass.detect + pass.output, pass.wall);
    Ok(())
}

// ------------------------------------------------------------------- serve

/// Per-request stage timings of one in-process replay of the mix.
struct ServePass {
    wall: f64,
    parse: Vec<f64>,
    handler: BTreeMap<&'static str, Vec<f64>>,
    write: Vec<f64>,
}

fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Replays the request mix through the daemon's own parse → handler →
/// render → write functions, minus the socket.
fn serve_pass(snapshot: &Snapshot, requests: &[(Kind, String)]) -> Result<ServePass, String> {
    let mut pass =
        ServePass { wall: 0.0, parse: Vec::new(), handler: BTreeMap::new(), write: Vec::new() };
    let mut out = Vec::with_capacity(64 * 1024);
    let start = Instant::now();
    for (kind, raw) in requests {
        let t = Instant::now();
        let request = read_request(&mut raw.as_bytes()).map_err(|e| format!("parse: {e:?}"))?;
        pass.parse.push(secs(t) * 1e6);
        let t = Instant::now();
        let doc: Json = match kind {
            Kind::Score => service::score(snapshot, &request),
            Kind::Batch => service::batch(snapshot, &request),
            Kind::Explain => service::explain(snapshot, &request),
            Kind::Topk => service::topk(snapshot, &request),
        }
        .map_err(|e| format!("{}: {}", request.path, e.message()))?;
        pass.handler.entry(kind.name()).or_default().push(secs(t) * 1e6);
        let t = Instant::now();
        let mut body = doc.render();
        body.push('\n');
        out.clear();
        write_response(&mut out, "200 OK", "application/json", &body, true)
            .map_err(err("write"))?;
        pass.write.push(secs(t) * 1e6);
    }
    pass.wall = secs(start);
    Ok(pass)
}

fn serve_workload(dir: &Path, seed: u64, m: &mut Metrics) -> Result<(), String> {
    let state = StateDir::new(dir.join("state"));
    let load = || Snapshot::load(&state, &DetectorConfig::default(), 0.85).map_err(err("snapshot"));
    let snapshot = load()?;
    let mut rng = Rng::new(seed);
    let requests: Vec<(Kind, String)> = (0..SERVE_REQUESTS)
        .map(|_| {
            let (kind, target) = next_request(&mut rng, snapshot.node_count() as u64);
            (kind, format!("GET {target} HTTP/1.1\r\nHost: bench\r\n\r\n"))
        })
        .collect();

    let (mut pass, _, overhead) = twice(|| serve_pass(&snapshot, &requests), |p| p.wall)?;
    const LOADS: usize = 3;
    let (mut load_s, tel) = traced(|| {
        (0..LOADS)
            .map(|_| {
                let t = Instant::now();
                load().map(|_| secs(t))
            })
            .collect::<Result<Vec<f64>, String>>()
    })?;
    m.insert("serve.snapshot_load_s".into(), median(&mut load_s));
    m.insert("graph.image_load_s".into(), first_image_load(&tel));
    m.insert("graph.zero_copy".into(), f64::from(u8::from(snapshot.is_mapped())));
    m.insert("core.detect_s".into(), tel.span_s("detect") / LOADS as f64);

    let layers = pass.parse.iter().sum::<f64>()
        + pass.handler.values().flatten().sum::<f64>()
        + pass.write.iter().sum::<f64>();
    m.insert("serve.parse_us".into(), median(&mut pass.parse));
    for (name, samples) in pass.handler.iter_mut() {
        m.insert(format!("serve.handler_us.{name}"), median(samples));
    }
    m.insert("serve.write_us".into(), median(&mut pass.write));
    m.insert("obs.tracing_overhead_pct".into(), overhead);
    unattributed(m, layers / 1e6, pass.wall);
    Ok(())
}

/// `trace --workload W --dir D --seed N --mem-bw GBS`: prints the
/// per-layer metrics of workload `W` as one JSON object (the seed draws
/// the serve request mix).
pub fn trace(args: &Args) -> Result<(), String> {
    let workload = args.str("workload")?;
    let dir = PathBuf::from(args.str("dir")?);
    let mem_bw: f64 = args.get("mem-bw")?;
    let mut m = Metrics::new();
    match workload {
        "estimate_120k" => estimate_workload(&dir, mem_bw, &mut m)?,
        "update_120k" => update_workload(&dir, &mut m)?,
        "stream_1m" => stream_workload(&dir, mem_bw, &mut m)?,
        "serve_120k" => serve_workload(&dir, args.get("seed")?, &mut m)?,
        other => return Err(format!("unknown workload {other:?}")),
    }
    let doc = Json::Obj(m.into_iter().map(|(k, v)| (k, Json::num(v))).collect());
    println!("{}", doc.render());
    Ok(())
}
