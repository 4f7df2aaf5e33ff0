//! What the operating system says about this process: CPU time,
//! threads, context switches, memory, CPU affinity, and the machine
//! description every result file records. Linux only (`/proc` plus
//! three libc calls declared here — no new dependency).

use std::fs;
use std::sync::OnceLock;
use std::time::Instant;

/// Nanoseconds since the first call in this process: the one clock
/// every stamp, span and latency in the benchmark is read from.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// One `cpu_set_t`: 1024 CPUs.
type CpuSet = [u64; 16];

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// User plus system CPU time of the whole process, ns (exited threads
/// included). Unlike the tick counts in `/proc/self/stat` this has
/// nanosecond resolution, so CPU per operation keeps its digits.
pub fn cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec of the layout the
    // 64-bit Linux ABI defines, and the clock id is a constant the
    // kernel knows.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// The calling thread's CPU affinity, to restore after [`pin`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Affinity(CpuSet);

/// Pins the calling thread — and every thread it spawns afterwards —
/// to the highest-numbered CPU it is allowed on (CPU 0 takes most
/// interrupts). Blocking latency is bimodal when a handful of
/// ping-ponging threads float across cores; on one core every wake-up
/// is the same context switch. Returns the previous affinity, or
/// `None` if the kernel refused (the caller records `pinned: false`).
pub fn pin() -> Option<Affinity> {
    let mut old: CpuSet = [0; 16];
    // SAFETY: `old` is a writable buffer of exactly the size passed;
    // pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), old.as_mut_ptr()) } != 0 {
        return None;
    }
    let (word, bits) = old.iter().enumerate().rev().find(|(_, w)| **w != 0)?;
    let mut one: CpuSet = [0; 16];
    one[word] = 1 << (63 - bits.leading_zeros());
    // SAFETY: `one` is a readable buffer of exactly the size passed.
    if unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), one.as_ptr()) } != 0 {
        return None;
    }
    Some(Affinity(old))
}

/// Restores the affinity [`pin`] replaced (for threads spawned from
/// here on; threads already running keep theirs).
pub fn unpin(old: Affinity) {
    // SAFETY: as in `pin`. A failure leaves the thread pinned, which
    // only makes later measurements more conservative.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), old.0.as_ptr()) };
}

fn field_after<'a>(text: &'a str, key: &str) -> Option<&'a str> {
    text.lines()
        .find_map(|l| l.strip_prefix(key))
        .map(str::trim)
}

fn leading_u64(s: &str) -> Option<u64> {
    s.split_whitespace().next()?.parse().ok()
}

/// Point-in-time counters of this process.
#[derive(Debug, Clone, Copy, Default)]
pub struct Snapshot {
    pub cpu_ns: u64,
    /// User and system time in clock ticks (`/proc/self/stat`); only
    /// their ratio is used, so the tick length does not matter.
    pub utime_ticks: u64,
    pub stime_ticks: u64,
    pub threads: u64,
    /// Voluntary plus involuntary context switches, summed over the
    /// threads alive now.
    pub ctx_switches: u64,
    pub peak_rss_kb: u64,
}

impl Snapshot {
    /// Reads everything. Missing `/proc` entries read as 0: the
    /// benchmark's correctness never depends on them.
    pub fn take() -> Snapshot {
        let mut s = Snapshot {
            cpu_ns: cpu_ns(),
            ..Snapshot::default()
        };
        if let Ok(stat) = fs::read_to_string("/proc/self/stat") {
            // Fields after the parenthesised command name, which may
            // itself contain spaces: utime and stime are the 14th and
            // 15th of the line, so the 12th and 13th after ") ".
            if let Some(rest) = stat.rsplit_once(") ").map(|(_, r)| r) {
                let mut f = rest.split_whitespace().skip(11);
                s.utime_ticks = f.next().and_then(|v| v.parse().ok()).unwrap_or(0);
                s.stime_ticks = f.next().and_then(|v| v.parse().ok()).unwrap_or(0);
            }
        }
        if let Ok(status) = fs::read_to_string("/proc/self/status") {
            s.threads = field_after(&status, "Threads:")
                .and_then(leading_u64)
                .unwrap_or(0);
            s.peak_rss_kb = field_after(&status, "VmHWM:")
                .and_then(leading_u64)
                .unwrap_or(0);
        }
        if let Ok(tasks) = fs::read_dir("/proc/self/task") {
            for task in tasks.flatten() {
                if let Ok(status) = fs::read_to_string(task.path().join("status")) {
                    for key in ["voluntary_ctxt_switches:", "nonvoluntary_ctxt_switches:"] {
                        s.ctx_switches +=
                            field_after(&status, key).and_then(leading_u64).unwrap_or(0);
                    }
                }
            }
        }
        s
    }
}

/// What the process did between two snapshots, per operation.
#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    pub threads: f64,
    pub ctx_switches_per_op: f64,
    /// System share of the CPU time used.
    pub sys_share: f64,
    pub peak_rss_mb: f64,
}

impl Usage {
    pub fn between(start: &Snapshot, end: &Snapshot, ops: u64) -> Usage {
        let ops = ops.max(1) as f64;
        let user = end.utime_ticks.saturating_sub(start.utime_ticks) as f64;
        let sys = end.stime_ticks.saturating_sub(start.stime_ticks) as f64;
        Usage {
            threads: end.threads as f64,
            // Threads that exited in between take their counts with
            // them; the workloads keep theirs alive across the window.
            ctx_switches_per_op: end.ctx_switches.saturating_sub(start.ctx_switches) as f64 / ops,
            sys_share: if user + sys > 0.0 {
                sys / (user + sys)
            } else {
                0.0
            },
            peak_rss_mb: end.peak_rss_kb as f64 / 1024.0,
        }
    }
}

/// Logical CPUs this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The running kernel's release string.
pub fn kernel_release() -> String {
    fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".into(), |s| s.trim().to_string())
}

/// First line of a command's output, or "unknown" if it cannot run
/// (a checkout that is not a git repository has no commit to name).
pub fn first_line_of(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}
