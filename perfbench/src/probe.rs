//! Single-thread STREAM-triad bandwidth probe (`a[i] = b[i] + s·c[i]`).
//!
//! The solves the benchmark times run on one worker, so one thread's
//! sustainable bandwidth is the ceiling `pagerank.bw_fraction` is a
//! share of. Each array is sized to at least four times the last-level
//! cache (as sysfs reports it to run.py), so the triad streams from
//! memory, not cache.

use crate::Args;
use std::fs;
use std::hint::black_box;
use std::time::Instant;

const MIB: u64 = 1024 * 1024;
/// Timed triad passes; like STREAM, the fastest one is reported.
const PASSES: usize = 5;

fn mem_available_bytes() -> Option<u64> {
    let text = fs::read_to_string("/proc/meminfo").ok()?;
    let line = text.lines().find(|l| l.starts_with("MemAvailable:"))?;
    let kib: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024)
}

/// `bwprobe --llc-bytes N`: prints `{"mem_bw_gbs", "array_bytes",
/// "array_bytes_wanted", "capped"}`. The three arrays together may take
/// at most a quarter of the memory the kernel reports available; on a
/// host with less, the arrays shrink and `capped` says so.
pub fn bwprobe(args: &Args) -> Result<(), String> {
    let llc: u64 = args.get("llc-bytes")?;
    let wanted = (4 * llc).max(64 * MIB);
    let cap = mem_available_bytes().map_or(wanted, |avail| avail / 4 / 3);
    let array_bytes = wanted.min(cap).max(8 * MIB);
    let n = (array_bytes / 8) as usize;

    let mut a = vec![0.0f64; n];
    let b = vec![1.0f64; n];
    let c = vec![2.0f64; n];
    let scalar = black_box(3.0f64);
    let mut best = f64::INFINITY;
    for _ in 0..PASSES {
        let t = Instant::now();
        for ((x, &y), &z) in a.iter_mut().zip(&b).zip(&c) {
            *x = y + scalar * z;
        }
        black_box(&mut a);
        best = best.min(t.elapsed().as_secs_f64());
    }
    if a[n / 2] != 7.0 {
        return Err("triad produced a wrong value".into());
    }
    let gbs = 3.0 * (n * 8) as f64 / best / 1e9;
    println!(
        "{{\"mem_bw_gbs\":{gbs},\"array_bytes\":{},\"array_bytes_wanted\":{wanted},\"capped\":{}}}",
        n * 8,
        array_bytes < wanted
    );
    Ok(())
}
