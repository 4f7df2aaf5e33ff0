//! Spans around the calls the benchmark makes into each layer.
//!
//! Tracing is off for end-to-end runs (a span is then one relaxed
//! atomic load) and on for the separate traced run. Each thread keeps
//! its spans in a preallocated buffer and, per span name, running
//! totals of count, duration and *self time* — a span's duration minus
//! the part its child spans cover. Buffers reach the collector when
//! their thread exits (threads the program owns, such as app-host
//! pumps, included) or on [`collect`] for the calling thread; nothing
//! is written to disk until the run is over.

use std::cell::RefCell;
use std::io::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Mutex;

use crate::proc::now_ns;

macro_rules! span_names {
    ($($variant:ident => $text:literal,)*) => {
        /// Every span the benchmark records, named `<layer>.<call>`.
        /// `bench.*` spans are the benchmark's own code: their self
        /// time is what measuring costs.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[repr(u8)]
        pub enum Name { $($variant,)* }

        impl Name {
            pub const ALL: &'static [Name] = &[$(Name::$variant,)*];

            pub fn text(self) -> &'static str {
                match self { $(Name::$variant => $text,)* }
            }
        }
    };
}

span_names! {
    BenchOp => "bench.op",
    BenchNextPayload => "bench.next_payload",
    BenchOnStart => "bench.on_start",
    BenchOnEvent => "bench.on_event",
    BenchLoop => "bench.client_loop",
    RuntimeSend => "runtime.send_to_group",
    RuntimeSendPipelined => "runtime.send_pipelined",
    RuntimeReceive => "runtime.receive_from_group",
    RuntimeForm => "runtime.form_group",
    AppRun => "app.run",
    ShardForm => "shard.form_cluster",
    ShardPut => "shard.put",
    ShardGet => "shard.get",
    ShardPump => "shard.pump",
    ShardTake => "shard.take",
    ShardHalt => "shard.halt",
    KernelBuild => "kernel.build_world",
    KernelFormation => "kernel.run_until_ready",
    KernelRun => "kernel.run_sends",
}

/// Spans kept verbatim per thread for the trace file; totals keep
/// counting past it, and [`Collected::dropped`] says how many spans
/// the file is missing.
const BUFFER_SPANS: usize = 1 << 16;

const NO_PARENT: u32 = u32::MAX;

/// One finished span: `parent` indexes the same thread's buffer, `op`
/// is the operation the span belongs to (spans of one request share
/// it across threads).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: Name,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub op: u64,
}

/// Running totals of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Total {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

struct Open {
    name: Name,
    start_ns: u64,
    /// This span's slot in `spans` (`NO_PARENT` once the buffer is
    /// full: totals still count it).
    slot: u32,
    child_ns: u64,
}

/// One thread's spans and totals.
pub struct ThreadTrace {
    pub thread: u32,
    pub spans: Vec<Span>,
    pub dropped: u64,
    pub totals: Vec<Total>,
    open: Vec<Open>,
}

impl ThreadTrace {
    fn new() -> Self {
        static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);
        ThreadTrace {
            thread: NEXT_THREAD.fetch_add(1, Ordering::Relaxed),
            spans: Vec::with_capacity(BUFFER_SPANS),
            dropped: 0,
            totals: vec![Total::default(); Name::ALL.len()],
            open: Vec::with_capacity(8),
        }
    }

    fn enter(&mut self, name: Name, start_ns: u64) {
        let slot = if self.spans.len() < BUFFER_SPANS {
            let parent = self.open.last().map_or(NO_PARENT, |o| o.slot);
            self.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent,
                op: 0,
            });
            (self.spans.len() - 1) as u32
        } else {
            self.dropped += 1;
            NO_PARENT
        };
        self.open.push(Open {
            name,
            start_ns,
            slot,
            child_ns: 0,
        });
    }

    fn exit(&mut self, end_ns: u64, op: u64) {
        let Some(open) = self.open.pop() else { return };
        let duration = end_ns.saturating_sub(open.start_ns);
        if let Some(span) = self.spans.get_mut(open.slot as usize) {
            span.end_ns = end_ns;
            span.op = op;
        }
        let total = &mut self.totals[open.name as usize];
        total.count += 1;
        total.total_ns += duration;
        total.self_ns += duration.saturating_sub(open.child_ns);
        if let Some(parent) = self.open.last_mut() {
            parent.child_ns += duration;
        }
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static FINISHED: Mutex<Vec<ThreadTrace>> = Mutex::new(Vec::new());

/// Hands the thread's trace to the collector when the thread exits.
struct Local(Option<ThreadTrace>);

impl Drop for Local {
    fn drop(&mut self) {
        if let (Some(trace), Ok(mut finished)) = (self.0.take(), FINISHED.lock()) {
            finished.push(trace);
        }
    }
}

thread_local! {
    static LOCAL: RefCell<Local> = const { RefCell::new(Local(None)) };
}

fn with_local(f: impl FnOnce(&mut ThreadTrace)) {
    // A span closing while the thread's locals are being torn down
    // has nowhere to go; dropping it is harmless.
    let _ = LOCAL.try_with(|local| {
        if let Ok(mut local) = local.try_borrow_mut() {
            f(local.0.get_or_insert_with(ThreadTrace::new));
        }
    });
}

/// Turns span recording on or off for the whole process.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// An open span; it closes when dropped.
#[must_use = "a span measures until it is dropped"]
pub struct Guard {
    live: bool,
    op: u64,
}

impl Guard {
    /// Names the operation this span belongs to (known only after the
    /// call returns, for a receive).
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        if self.live {
            let end = now_ns();
            with_local(|t| t.exit(end, self.op));
        }
    }
}

/// Opens a span on the calling thread. With tracing off this is one
/// atomic load and an inert guard.
pub fn span(name: Name, op: u64) -> Guard {
    if !enabled() {
        return Guard { live: false, op };
    }
    with_local(|t| t.enter(name, now_ns()));
    Guard { live: true, op }
}

/// Everything recorded since the last collection.
pub struct Collected {
    pub threads: Vec<ThreadTrace>,
}

/// Takes the calling thread's trace and those of every thread that
/// has exited. Call it after the workload's threads are joined.
pub fn collect() -> Collected {
    let mut threads = std::mem::take(&mut *FINISHED.lock().expect("trace collector poisoned"));
    let _ = LOCAL.try_with(|local| threads.extend(local.borrow_mut().0.take()));
    threads.sort_by_key(|t| t.thread);
    Collected { threads }
}

impl Collected {
    /// Totals of one span name over all threads.
    pub fn total(&self, name: Name) -> Total {
        self.threads.iter().fold(Total::default(), |acc, t| {
            let x = t.totals[name as usize];
            Total {
                count: acc.count + x.count,
                total_ns: acc.total_ns + x.total_ns,
                self_ns: acc.self_ns + x.self_ns,
            }
        })
    }

    /// Spans recorded, over all names and threads.
    pub fn spans(&self) -> u64 {
        Name::ALL.iter().map(|&n| self.total(n).count).sum()
    }

    /// Spans counted in the totals but missing from the trace file.
    pub fn dropped(&self) -> u64 {
        self.threads.iter().map(|t| t.dropped).sum()
    }

    /// Self time of the benchmark's own spans, ns.
    pub fn bench_self_ns(&self) -> u64 {
        Name::ALL
            .iter()
            .filter(|n| n.text().starts_with("bench."))
            .map(|&n| self.total(n).self_ns)
            .sum()
    }

    /// Writes one JSON object per span. Ids are `thread << 32 | index`
    /// so `parent` refers to another line of the same file.
    ///
    /// # Errors
    ///
    /// Any I/O error creating or writing the file.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for t in &self.threads {
            let id = |slot: u32| (u64::from(t.thread) << 32) | u64::from(slot);
            for (i, s) in t.spans.iter().enumerate() {
                let parent = match s.parent {
                    NO_PARENT => "null".to_string(),
                    p => id(p).to_string(),
                };
                writeln!(
                    out,
                    "{{\"id\": {}, \"name\": \"{}\", \"thread\": {}, \"start_ns\": {}, \
                     \"end_ns\": {}, \"parent\": {}, \"op\": {}}}",
                    id(i as u32),
                    s.name.text(),
                    t.thread,
                    s.start_ns,
                    s.end_ns,
                    parent,
                    s.op
                )?;
            }
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut t = ThreadTrace::new();
        // op:      [0 ............ 100]
        //   send:      [10 ... 60]
        //     recv:       [20 40]
        //   send:                [70 90]
        t.enter(Name::BenchOp, 0);
        t.enter(Name::RuntimeSend, 10);
        t.enter(Name::RuntimeReceive, 20);
        t.exit(40, 7);
        t.exit(60, 7);
        t.enter(Name::RuntimeSend, 70);
        t.exit(90, 7);
        t.exit(100, 7);

        let total = |n: Name| t.totals[n as usize];
        assert_eq!(
            total(Name::BenchOp),
            Total {
                count: 1,
                total_ns: 100,
                self_ns: 30
            }
        );
        assert_eq!(
            total(Name::RuntimeSend),
            Total {
                count: 2,
                total_ns: 70,
                self_ns: 50
            }
        );
        assert_eq!(
            total(Name::RuntimeReceive),
            Total {
                count: 1,
                total_ns: 20,
                self_ns: 20
            }
        );
        // Self times partition the root span.
        let self_sum: u64 = t.totals.iter().map(|x| x.self_ns).sum();
        assert_eq!(self_sum, 100);

        assert_eq!(t.spans.len(), 4);
        assert_eq!(t.spans[0].parent, NO_PARENT);
        assert_eq!(t.spans[1].parent, 0);
        assert_eq!(t.spans[2].parent, 1);
        assert_eq!(t.spans[3].parent, 0);
        assert!(t.spans.iter().all(|s| s.op == 7));
        assert_eq!((t.spans[2].start_ns, t.spans[2].end_ns), (20, 40));
    }

    #[test]
    fn totals_keep_counting_when_the_buffer_is_full() {
        let mut t = ThreadTrace::new();
        for i in 0..(BUFFER_SPANS as u64 + 10) {
            t.enter(Name::ShardPump, i * 10);
            t.exit(i * 10 + 4, i);
        }
        assert_eq!(t.spans.len(), BUFFER_SPANS);
        assert_eq!(t.dropped, 10);
        let total = t.totals[Name::ShardPump as usize];
        assert_eq!(total.count, BUFFER_SPANS as u64 + 10);
        assert_eq!(total.total_ns, total.count * 4);
    }
}
