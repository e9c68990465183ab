//! The `serve_120k` load generator: a closed loop of keep-alive
//! connections against a running `spammass serve`, checking every
//! response, with one generation published and `/reload`ed halfway.
//!
//! Closed loop because the daemon's callers (sidecars, scrapers) each
//! wait for a reply before sending the next query.

use crate::{err, Args};
use spammass_delta::StateDir;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Request kinds of the mix, with their share in percent: point
/// lookups dominate; the 2% `/topk` share puts p99 inside the top-k band.
const MIX: [(Kind, u64); 4] =
    [(Kind::Score, 78), (Kind::Batch, 10), (Kind::Explain, 10), (Kind::Topk, 2)];
const BATCH_IDS: usize = 32;
/// Closed-loop connections, as many as the daemon's accept threads
/// (`spammass serve --threads 2`): each keep-alive connection holds one.
const CONNECTIONS: usize = 2;
/// Untimed requests first (connection set-up, first touches of the
/// snapshot).
const WARMUP: Duration = Duration::from_millis(500);
/// How long an answer may take before it counts as lost. Generous: a
/// publish fsyncs, and a disk can stall for seconds.
const STALL_LIMIT: Duration = Duration::from_secs(60);
const TOPK_K: usize = 100;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    Score,
    Batch,
    Explain,
    Topk,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Score => "score",
            Kind::Batch => "batch",
            Kind::Explain => "explain",
            Kind::Topk => "topk",
        }
    }
}

/// SplitMix64: a tiny deterministic generator for the request stream.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Draws the next request of the mix as `(kind, target)`.
pub fn next_request(rng: &mut Rng, nodes: u64) -> (Kind, String) {
    let mut pick = rng.below(100);
    let mut kind = Kind::Score;
    for (k, share) in MIX {
        if pick < share {
            kind = k;
            break;
        }
        pick -= share;
    }
    let target = match kind {
        Kind::Score => format!("/score?node={}", rng.below(nodes)),
        Kind::Batch => {
            let ids: Vec<String> = (0..BATCH_IDS).map(|_| rng.below(nodes).to_string()).collect();
            format!("/batch?nodes={}", ids.join(","))
        }
        Kind::Explain => format!("/explain?node={}", rng.below(nodes)),
        Kind::Topk => format!("/topk?k={TOPK_K}"),
    };
    (kind, target)
}

/// One row of the estimate TSV: scaled p and relative mass.
struct Row {
    scaled_p: f64,
    relative: f64,
}

fn read_tsv(path: &str) -> Result<Vec<Row>, String> {
    let text = std::fs::read_to_string(path).map_err(err(path))?;
    let mut rows = Vec::new();
    for line in text.lines().filter(|l| !l.starts_with('#')) {
        let cols: Vec<&str> = line.split('\t').collect();
        let parse = |i: usize| cols.get(i).and_then(|v| v.parse::<f64>().ok());
        match (parse(0), parse(2), parse(5)) {
            (Some(node), Some(scaled_p), Some(relative)) if node as usize == rows.len() => {
                rows.push(Row { scaled_p, relative })
            }
            _ => return Err(format!("{path}: bad row {line:?}")),
        }
    }
    Ok(rows)
}

/// The number following `"key":` in a compact JSON body.
fn field<'a>(body: &'a str, key: &str) -> Option<&'a str> {
    let pattern = format!("\"{key}\":");
    let start = body.find(&pattern)? + pattern.len();
    let rest = &body[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(&rest[..end])
}

/// What the clients know about generations while requests are in flight.
struct Generations {
    /// Every response must come from at least this generation: it is
    /// raised once the `/reload` answer confirmed the swap.
    min: AtomicU64,
    /// Newest generation published so far (`u64::MAX` while a save is
    /// in progress, since the daemon may pick it up by polling).
    max: AtomicU64,
    /// A published generation the first client should `/reload` to
    /// (0: none pending). The daemon serves a keep-alive connection per
    /// accept thread, so the reload has to ride an existing connection.
    reload_to: AtomicU64,
    /// The `/reload` round trip in milliseconds, or why it failed.
    reloaded: Mutex<Option<Result<f64, String>>>,
}

/// Sends `/reload` and checks it answers generation `expected`.
fn reload(reader: &mut BufReader<TcpStream>, expected: u64) -> Result<f64, String> {
    let t = Instant::now();
    let (status, body) = get(reader, "/reload").map_err(err("/reload"))?;
    let ms = t.elapsed().as_secs_f64() * 1e3;
    let answered = field(&body, "generation").and_then(|g| g.parse::<f64>().ok());
    if status != 200 || answered != Some(expected as f64) {
        return Err(format!("/reload answered {status} {body:.80}"));
    }
    Ok(ms)
}

/// A numeric field of a response body, or why it is missing.
fn number<T: std::str::FromStr>(body: &str, key: &str, target: &str) -> Result<T, String> {
    field(body, key)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("{target}: no numeric {key:?} in {body:.80}"))
}

/// Checks one response against the schema, the generation window and,
/// for `/score`, the estimate TSV.
fn check(
    kind: Kind,
    target: &str,
    status: u16,
    body: &str,
    min_gen: u64,
    gens: &Generations,
    table: &[Row],
) -> Result<(), String> {
    if status != 200 {
        return Err(format!("{target}: status {status}"));
    }
    let schema = format!("{{\"schema\":\"spammass.{}_response/v1\",", kind.name());
    if !body.starts_with(&schema) {
        return Err(format!("{target}: wrong schema in {body:.80}"));
    }
    let generation = number::<f64>(body, "generation", target)? as u64;
    if generation < min_gen || generation > gens.max.load(Ordering::SeqCst) {
        return Err(format!("{target}: stale or unknown generation {generation}"));
    }
    match kind {
        Kind::Score => {
            let node = number::<f64>(body, "node", target)? as usize;
            let row = table.get(node).ok_or_else(|| format!("{target}: node {node} not in TSV"))?;
            let pagerank: f64 = number(body, "pagerank", target)?;
            // Served scores are scaled like the TSV's, which rounds to six
            // decimals.
            if (pagerank - row.scaled_p).abs() > 1e-6 + 1e-9 * row.scaled_p.abs() {
                return Err(format!("{target}: pagerank {pagerank} disagrees with the TSV row"));
            }
            // Flags are compared away from the thresholds only: the TSV
            // carries six decimals.
            let near = (row.scaled_p - 10.0).abs() < 1e-5 || (row.relative - 0.98).abs() < 1e-5;
            let expected = row.scaled_p >= 10.0 && row.relative >= 0.98;
            let flagged = field(body, "flagged") == Some("true");
            if !near && flagged != expected {
                return Err(format!("{target}: flagged {flagged}, TSV says {expected}"));
            }
        }
        Kind::Batch | Kind::Topk => {
            let want = if kind == Kind::Batch { BATCH_IDS } else { TOPK_K };
            if number::<f64>(body, "count", target)? != want as f64 {
                return Err(format!("{target}: expected {want} results"));
            }
        }
        Kind::Explain => {}
    }
    Ok(())
}

/// One keep-alive GET; returns (status, body).
pub fn get(reader: &mut BufReader<TcpStream>, target: &str) -> std::io::Result<(u16, String)> {
    let request = format!("GET {target} HTTP/1.1\r\nHost: bench\r\n\r\n");
    reader.get_mut().write_all(request.as_bytes())?;
    let mut line = String::new();
    reader.read_line(&mut line)?;
    let status: u16 = line.split_whitespace().nth(1).and_then(|s| s.parse().ok()).unwrap_or(0);
    let mut content_length = 0usize;
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        if line == "\r\n" {
            break;
        }
        if let Some(v) = line.to_ascii_lowercase().strip_prefix("content-length:") {
            content_length = v.trim().parse().unwrap_or(0);
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    Ok((status, String::from_utf8_lossy(&body).into_owned()))
}

pub fn connect(addr: SocketAddr) -> std::io::Result<BufReader<TcpStream>> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(STALL_LIMIT))?;
    Ok(BufReader::new(stream))
}

/// Per-connection results: `(kind, latency_ns)` of every completed
/// request, plus failures.
#[derive(Default)]
struct ClientLog {
    samples: Vec<(Kind, u64)>,
    /// Requests completed before measuring began (checked, not timed).
    warmup: u64,
    non200: u64,
    failed: u64,
    first_failure: Option<String>,
}

fn client(
    addr: SocketAddr,
    seed: u64,
    reloader: bool,
    measuring: &AtomicBool,
    stop: &AtomicBool,
    gens: &Generations,
    table: &[Row],
) -> ClientLog {
    let mut log = ClientLog::default();
    let mut rng = Rng::new(seed);
    let mut reader = match connect(addr) {
        Ok(r) => r,
        Err(e) => {
            log.failed += 1;
            log.first_failure = Some(format!("connect: {e}"));
            return log;
        }
    };
    while !stop.load(Ordering::Relaxed) {
        let expected = gens.reload_to.load(Ordering::SeqCst);
        if reloader && expected != 0 {
            let outcome = reload(&mut reader, expected);
            if outcome.is_ok() {
                gens.min.store(expected, Ordering::SeqCst);
            }
            gens.reload_to.store(0, Ordering::SeqCst);
            *gens.reloaded.lock().expect("reload slot lock") = Some(outcome);
            continue;
        }
        let (kind, target) = next_request(&mut rng, table.len() as u64);
        let min_gen = gens.min.load(Ordering::SeqCst);
        let sent = Instant::now();
        let outcome = get(&mut reader, &target);
        let latency = sent.elapsed().as_nanos() as u64;
        let broken = outcome.is_err();
        let problem = match outcome {
            Ok((status, body)) => {
                if status != 200 {
                    log.non200 += 1;
                }
                check(kind, &target, status, &body, min_gen, gens, table).err()
            }
            Err(e) => Some(format!("{target}: {e}")),
        };
        if measuring.load(Ordering::Relaxed) {
            log.samples.push((kind, latency));
        } else {
            log.warmup += 1;
        }
        if let Some(reason) = problem {
            log.failed += 1;
            log.first_failure.get_or_insert(reason);
        }
        if broken {
            // The connection is unusable; the loss shows as `failed`.
            break;
        }
    }
    log
}

/// `serveload --addr A --state DIR --tsv F --seconds S --seed N [--log F]`:
/// runs the mix through a warm-up, then for S timed seconds, and prints one
/// JSON summary; with `--log`, writes every timed request's
/// `kind latency_ns`.
pub fn serveload(args: &Args) -> Result<(), String> {
    let addr: SocketAddr = args.get("addr")?;
    let state = StateDir::new(args.str("state")?);
    let table = read_tsv(args.str("tsv")?)?;
    let seconds: f64 = args.get("seconds")?;
    let seed: u64 = args.get("seed")?;

    let (saved, _) = state.load_with_recovery().map_err(err("load state"))?;
    let first = state.read_manifest().map_err(err("read manifest"))?.unwrap_or(0);
    let gens = Generations {
        min: AtomicU64::new(first),
        max: AtomicU64::new(first),
        reload_to: AtomicU64::new(0),
        reloaded: Mutex::new(None),
    };
    let stop = AtomicBool::new(false);
    let measuring = AtomicBool::new(false);

    let (logs, publish, elapsed) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                let (measuring, stop, gens, table) = (&measuring, &stop, &gens, &table);
                scope.spawn(move || {
                    client(addr, seed ^ (c as u64 + 1), c == 0, measuring, stop, gens, table)
                })
            })
            .collect();

        std::thread::sleep(WARMUP);
        measuring.store(true, Ordering::Relaxed);
        let started = Instant::now();

        // Writes beside reads: publish a generation halfway and swap it in.
        std::thread::sleep(Duration::from_secs_f64(seconds / 2.0));
        let publish = (|| -> Result<(f64, u64, f64, u64), String> {
            gens.max.store(u64::MAX, Ordering::SeqCst);
            let t = Instant::now();
            let generation = state
                .save(&saved.graph, &saved.core, &saved.pagerank, &saved.core_pagerank)
                .map_err(err("publish generation"))?;
            let save_s = t.elapsed().as_secs_f64();
            gens.max.store(generation, Ordering::SeqCst);
            let bytes = crate::generation_bytes(&state, generation);
            gens.reload_to.store(generation, Ordering::SeqCst);
            let deadline = Instant::now() + STALL_LIMIT;
            loop {
                if let Some(outcome) = gens.reloaded.lock().expect("reload slot lock").take() {
                    return outcome.map(|ms| (save_s, bytes, ms, generation));
                }
                if Instant::now() > deadline {
                    return Err("/reload was never answered".into());
                }
                std::thread::sleep(Duration::from_millis(1));
            }
        })();

        let remaining = seconds - started.elapsed().as_secs_f64();
        if remaining > 0.0 {
            std::thread::sleep(Duration::from_secs_f64(remaining));
        }
        stop.store(true, Ordering::Relaxed);
        let elapsed = started.elapsed().as_secs_f64();
        let logs: Vec<ClientLog> =
            handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect();
        (logs, publish, elapsed)
    });

    let requests: u64 = logs.iter().map(|l| l.samples.len() as u64).sum();
    let warmup_requests: u64 = logs.iter().map(|l| l.warmup).sum();
    let mut failed: u64 = logs.iter().map(|l| l.failed).sum();
    let non200: u64 = logs.iter().map(|l| l.non200).sum();
    let mut first_failure = logs.iter().find_map(|l| l.first_failure.clone());
    let (save_s, state_bytes, reload_ms, generation) = match publish {
        Ok(v) => v,
        Err(e) => {
            failed += 1;
            first_failure.get_or_insert(e);
            (0.0, 0, 0.0, first)
        }
    };
    if let Ok(path) = args.str("log") {
        let mut text = String::with_capacity(requests as usize * 12);
        for (kind, ns) in logs.iter().flat_map(|l| &l.samples) {
            text.push_str(kind.name());
            text.push(' ');
            text.push_str(&ns.to_string());
            text.push('\n');
        }
        std::fs::write(path, text).map_err(err(path))?;
    }
    // The `/reload` is one more operation attempted; its failure is
    // already counted in `failed`.
    println!(
        "{{\"requests\":{requests},\"warmup_requests\":{warmup_requests},\"reloads\":1,\"failed\":{failed},\"non200\":{non200},\
         \"elapsed_s\":{elapsed},\"state_save_s\":{save_s},\"state_bytes\":{state_bytes},\
         \"reload_ms\":{reload_ms},\"generation\":{generation},\"first_failure\":{}}}",
        spammass_obs::Json::str(first_failure.unwrap_or_default()).render()
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gens(min: u64, max: u64) -> Generations {
        Generations {
            min: AtomicU64::new(min),
            max: AtomicU64::new(max),
            reload_to: AtomicU64::new(0),
            reloaded: Mutex::new(None),
        }
    }

    fn score_body(generation: u64, pagerank: f64, flagged: bool) -> String {
        format!(
            "{{\"schema\":\"spammass.score_response/v1\",\"generation\":{generation}.0,\
             \"score\":{{\"node\":1.0,\"pagerank\":{pagerank:?},\"core_pagerank\":0.5,\
             \"absolute_mass\":1.0,\"relative_mass\":0.99,\"flagged\":{flagged}}}}}"
        )
    }

    fn table() -> Vec<Row> {
        vec![Row { scaled_p: 1.0, relative: 0.0 }, Row { scaled_p: 12.345678, relative: 0.99 }]
    }

    fn check_score(status: u16, body: &str) -> Result<(), String> {
        check(Kind::Score, "/score?node=1", status, body, 2, &gens(2, 3), &table())
    }

    #[test]
    fn a_matching_score_passes() {
        assert_eq!(check_score(200, &score_body(2, 12.3456781234, true)), Ok(()));
    }

    #[test]
    fn a_non200_answer_fails() {
        assert!(check_score(500, "reload failed\n").unwrap_err().contains("status 500"));
    }

    #[test]
    fn stale_or_unpublished_generations_fail() {
        assert!(check_score(200, &score_body(1, 12.345678, true)).is_err());
        assert!(check_score(200, &score_body(4, 12.345678, true)).is_err());
    }

    #[test]
    fn scores_or_flags_that_disagree_with_the_tsv_fail() {
        assert!(check_score(200, &score_body(2, 12.3457, true)).unwrap_err().contains("pagerank"));
        assert!(check_score(200, &score_body(2, 12.345678, false))
            .unwrap_err()
            .contains("flagged"));
    }

    #[test]
    fn wrong_schema_or_result_count_fails() {
        let body = score_body(2, 12.345678, true).replace("score_response", "batch_response");
        assert!(check_score(200, &body).is_err());
        let topk = "{\"schema\":\"spammass.topk_response/v1\",\"generation\":2.0,\"count\":99.0}";
        assert!(check(Kind::Topk, "/topk?k=100", 200, topk, 2, &gens(2, 2), &table()).is_err());
    }

    #[test]
    fn the_mix_is_deterministic_and_covers_every_kind() {
        let draw = |seed| {
            let mut rng = Rng::new(seed);
            (0..2000).map(|_| next_request(&mut rng, 100)).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        let requests = draw(7);
        for kind in [Kind::Score, Kind::Batch, Kind::Explain, Kind::Topk] {
            assert!(requests.iter().any(|(k, _)| *k == kind), "{kind:?} never drawn");
        }
        let scores = requests.iter().filter(|(k, _)| *k == Kind::Score).count();
        assert!((1400..1720).contains(&scores), "score share {scores}/2000");
    }
}
