//! `exec`: runs one measured command and reports its wall time and peak
//! resident memory.
//!
//! A child's `ru_maxrss` also counts the memory image it was forked from,
//! up to its `exec`. Spawning the measured `spammass` process from this
//! small helper, instead of from run.py, keeps that floor at a few
//! MiB, far below anything the program itself touches.

use crate::{err, Args};
use std::fs::File;
use std::process::{Command, Stdio};
use std::time::Instant;

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn children_max_rss_kib() -> Result<u64, String> {
    // `struct rusage` on 64-bit Linux: two `struct timeval` (2 × i64
    // each) followed by fourteen `long` fields, `ru_maxrss` first (KiB).
    const RUSAGE_CHILDREN: i32 = -1;
    extern "C" {
        fn getrusage(who: i32, usage: *mut [i64; 18]) -> i32;
    }
    let mut usage = [0i64; 18];
    // SAFETY: `usage` is a writable buffer of exactly the size of the
    // 64-bit Linux `struct rusage` (144 bytes) and outlives the call;
    // getrusage writes only within it.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) };
    if rc != 0 {
        return Err(format!("getrusage failed: {}", std::io::Error::last_os_error()));
    }
    Ok(usage[4].max(0) as u64)
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn children_max_rss_kib() -> Result<u64, String> {
    Err("peak RSS is only read on 64-bit Linux".into())
}

/// `exec --out F --err F -- CMD ARGS...`: runs CMD with stdout/stderr in
/// the two files and prints `{"seconds", "max_rss_kib", "code"}`. The
/// helper exits 0 whenever CMD ran, whatever CMD's own exit code.
pub fn exec(args: &Args, command: &[String]) -> Result<(), String> {
    let (program, rest) = command.split_first().ok_or("exec needs a command after --")?;
    let out = File::create(args.str("out")?).map_err(err("create stdout file"))?;
    let errf = File::create(args.str("err")?).map_err(err("create stderr file"))?;
    let start = Instant::now();
    let status = Command::new(program)
        .args(rest)
        .stdin(Stdio::null())
        .stdout(out)
        .stderr(errf)
        .status()
        .map_err(err(program))?;
    let seconds = start.elapsed().as_secs_f64();
    // Only one child was ever waited for, so the children's maximum is
    // that child's peak.
    let max_rss_kib = children_max_rss_kib()?;
    let code = status.code().unwrap_or(-1);
    println!("{{\"seconds\":{seconds},\"max_rss_kib\":{max_rss_kib},\"code\":{code}}}");
    Ok(())
}
