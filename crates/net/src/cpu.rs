//! The per-host CPU model.
//!
//! The paper's machines are 20-MHz MC68030s and the protocol's limits are
//! set by *message processing time* (its headline lesson #1), so CPU time
//! must be a simulated resource, not a constant. Each host has one CPU
//! executing prioritized, run-to-completion work items: interrupt work
//! (NIC receive/driver) beats kernel work (protocol processing), which
//! beats user work (application threads). True preemption is not
//! modelled — work items in this codebase are all well under a
//! millisecond, matching the granularity at which the Amoeba kernel
//! disabled interrupts anyway.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use amoeba_sim::{SimDuration, Simulation};

/// Dispatch priority of a CPU work item (higher runs first).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CpuPriority {
    /// Application threads (`SendToGroup` callers, receive loops).
    User = 0,
    /// Protocol processing in the kernel (group layer, FLIP).
    Kernel = 1,
    /// Interrupt service: NIC receive path, driver work.
    Interrupt = 2,
}

/// Per-CPU accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CpuStats {
    /// Total microseconds of work executed.
    pub busy_us: u64,
    /// Number of work items executed.
    pub jobs: u64,
}

/// A deferred work closure run when its CPU slot completes.
pub(crate) type WorkFn<W> = Box<dyn FnOnce(&mut Simulation<W>)>;

pub(crate) struct Work<W> {
    prio: CpuPriority,
    seq: u64,
    pub(crate) cost: SimDuration,
    pub(crate) run: WorkFn<W>,
}

impl<W> PartialEq for Work<W> {
    fn eq(&self, other: &Self) -> bool {
        self.prio == other.prio && self.seq == other.seq
    }
}
impl<W> Eq for Work<W> {}
impl<W> PartialOrd for Work<W> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<W> Ord for Work<W> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Max-heap: higher priority first, then FIFO (lower seq first).
        (self.prio, std::cmp::Reverse(self.seq)).cmp(&(other.prio, std::cmp::Reverse(other.seq)))
    }
}

/// One host's CPU: a priority queue of costed work items, executed
/// one at a time on the simulated clock.
pub struct Cpu<W> {
    pub(crate) busy: bool,
    pub(crate) queue: BinaryHeap<Work<W>>,
    pub(crate) next_seq: u64,
    /// Accounting.
    pub stats: CpuStats,
}

impl<W> Cpu<W> {
    pub(crate) fn new() -> Self {
        Cpu { busy: false, queue: BinaryHeap::new(), next_seq: 0, stats: CpuStats::default() }
    }

    /// Whether the CPU is currently executing a work item.
    pub fn is_busy(&self) -> bool {
        self.busy
    }

    /// Number of queued (not yet started) work items.
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    pub(crate) fn enqueue(
        &mut self,
        prio: CpuPriority,
        cost: SimDuration,
        run: WorkFn<W>,
    ) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.queue.push(Work { prio, seq, cost, run });
    }
}

impl<W> std::fmt::Debug for Cpu<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cpu")
            .field("busy", &self.busy)
            .field("queued", &self.queue.len())
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn priority_order_interrupt_first_then_fifo() {
        let mut cpu: Cpu<()> = Cpu::new();
        cpu.enqueue(CpuPriority::User, SimDuration::ZERO, Box::new(|_| {}));
        cpu.enqueue(CpuPriority::Interrupt, SimDuration::ZERO, Box::new(|_| {}));
        cpu.enqueue(CpuPriority::Kernel, SimDuration::ZERO, Box::new(|_| {}));
        cpu.enqueue(CpuPriority::Interrupt, SimDuration::ZERO, Box::new(|_| {}));
        let order: Vec<(CpuPriority, u64)> = std::iter::from_fn(|| {
            cpu.queue.pop().map(|w| (w.prio, w.seq))
        })
        .collect();
        assert_eq!(
            order,
            vec![
                (CpuPriority::Interrupt, 1),
                (CpuPriority::Interrupt, 3),
                (CpuPriority::Kernel, 2),
                (CpuPriority::User, 0),
            ]
        );
    }

    #[test]
    fn priorities_are_ordered() {
        assert!(CpuPriority::Interrupt > CpuPriority::Kernel);
        assert!(CpuPriority::Kernel > CpuPriority::User);
    }
}
