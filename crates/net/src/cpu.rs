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

use std::collections::VecDeque;

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
    pub(crate) cost: SimDuration,
    pub(crate) run: WorkFn<W>,
}

/// One host's CPU: queued work items, executed one at a time on the
/// simulated clock.
pub struct Cpu<W> {
    pub(crate) busy: bool,
    /// One FIFO per [`CpuPriority`], indexed by its discriminant.
    queues: [VecDeque<Work<W>>; 3],
    /// Accounting.
    pub stats: CpuStats,
}

impl<W> Cpu<W> {
    pub(crate) fn new() -> Self {
        Cpu { busy: false, queues: Default::default(), stats: CpuStats::default() }
    }

    /// Whether the CPU is currently executing a work item.
    pub fn is_busy(&self) -> bool {
        self.busy
    }

    /// Number of queued (not yet started) work items.
    pub fn queued(&self) -> usize {
        self.queues.iter().map(VecDeque::len).sum()
    }

    pub(crate) fn enqueue(&mut self, prio: CpuPriority, cost: SimDuration, run: WorkFn<W>) {
        self.queues[prio as usize].push_back(Work { cost, run });
    }

    /// The next item to run: highest priority first, FIFO within one.
    pub(crate) fn dequeue(&mut self) -> Option<Work<W>> {
        self.queues.iter_mut().rev().find_map(VecDeque::pop_front)
    }
}

impl<W> std::fmt::Debug for Cpu<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cpu")
            .field("busy", &self.busy)
            .field("queued", &self.queued())
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn priority_order_interrupt_first_then_fifo() {
        // Each item records its priority and enqueue index when run.
        type Order = Vec<(CpuPriority, u64)>;
        let mut cpu: Cpu<Order> = Cpu::new();
        let prios = [
            CpuPriority::User,
            CpuPriority::Interrupt,
            CpuPriority::Kernel,
            CpuPriority::Interrupt,
        ];
        for (seq, prio) in (0u64..).zip(prios) {
            cpu.enqueue(prio, SimDuration::ZERO, Box::new(move |s| s.world.push((prio, seq))));
        }
        assert_eq!(cpu.queued(), 4);
        let mut sim = Simulation::new(Order::new(), 0);
        while let Some(w) = cpu.dequeue() {
            (w.run)(&mut sim);
        }
        assert_eq!(
            sim.world,
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
