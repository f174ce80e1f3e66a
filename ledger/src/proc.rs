//! Child processes of the real `tinydep` binary: spawn, collect stdout,
//! and reap with `wait4` for the exit status and the peak resident set.

use std::io::Read as _;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// `struct rusage` as Linux lays it out on 64-bit targets: two
/// `timeval`s, then fourteen `long` counters starting with `ru_maxrss`.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss_kb: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// How a reaped child ended.
#[derive(Debug, Clone, Copy)]
pub struct Exit {
    /// Exited normally with status 0.
    pub success: bool,
    /// Peak resident set size, in MiB.
    pub peak_rss_mb: f64,
}

const WNOHANG: i32 = 1;

/// One `wait4` on `child`: `None` while it runs (with `WNOHANG`).
fn wait(child: &Child, options: i32) -> std::io::Result<Option<Exit>> {
    let pid = i32::try_from(child.id()).expect("pids fit in i32");
    let mut status = 0i32;
    let mut usage = Rusage::default();
    loop {
        // SAFETY: `status` and `usage` are live, writable, and laid out
        // as wait4(2) expects; `pid` names our own unreaped child.
        let r = unsafe { wait4(pid, &mut status, options, &mut usage) };
        if r == 0 {
            return Ok(None);
        }
        if r == pid {
            break;
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    // WIFEXITED(status) && WEXITSTATUS(status) == 0.
    let success = status & 0x7f == 0 && (status >> 8) & 0xff == 0;
    Ok(Some(Exit {
        success,
        peak_rss_mb: usage.maxrss_kb as f64 / 1024.0,
    }))
}

/// Reaps `child` with `wait4`, which reports the peak RSS that
/// `Child::wait` does not. The `Child` must not be waited on afterwards.
pub fn reap(child: &Child) -> std::io::Result<Exit> {
    Ok(wait(child, 0)?.expect("a blocking wait4 returns an exit"))
}

/// [`reap`], but a child still running after `limit` is killed first
/// (and reported as failed).
pub fn reap_within(child: &mut Child, limit: Duration) -> std::io::Result<Exit> {
    let t0 = Instant::now();
    while t0.elapsed() < limit {
        if let Some(exit) = wait(child, WNOHANG)? {
            return Ok(exit);
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    child.kill()?;
    Ok(Exit {
        success: false,
        ..reap(child)?
    })
}

/// One finished run of a command.
#[derive(Debug)]
pub struct Run {
    /// Spawn to reaped exit.
    pub wall: Duration,
    /// Everything the child wrote to stdout.
    pub stdout: Vec<u8>,
    /// Exit status and peak RSS.
    pub exit: Exit,
}

/// Runs `program args…` in `dir` to completion, stdout captured and
/// stderr discarded.
pub fn run(program: &Path, args: &[String], dir: &Path) -> std::io::Result<Run> {
    let t0 = Instant::now();
    let mut child = Command::new(program)
        .args(args)
        .current_dir(dir)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()?;
    let mut stdout = Vec::new();
    let read = child
        .stdout
        .take()
        .expect("stdout is piped")
        .read_to_end(&mut stdout);
    let exit = reap(&child)?;
    let wall = t0.elapsed();
    read?;
    Ok(Run { wall, stdout, exit })
}
