//! The epoch-tagged snapshot discipline both live fabrics send through
//! (DESIGN.md §7): an authoritative registry behind a mutex, an
//! immutable view of it republished whole on every mutation, and
//! per-reader caches that revalidate with one atomic load. Readers
//! (senders, UDP inboxes) never take the registry lock, and touch
//! the view's mutex only when membership actually changed.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, MutexGuard};

/// A registry `R` and the published view `V` built from it.
pub(crate) struct Snapshot<R, V> {
    registry: Mutex<R>,
    view: Mutex<Arc<V>>,
    /// Bumped (Release) after each view swap; caches revalidate
    /// against it (Acquire), so a cache that sees the new epoch also
    /// sees the new view.
    epoch: AtomicU64,
    build: fn(&R) -> V,
}

/// A reader's epoch-tagged handle on the view.
pub(crate) struct SnapshotCache<V> {
    epoch: u64,
    view: Arc<V>,
}

impl<R, V> Snapshot<R, V> {
    pub(crate) fn new(registry: R, build: fn(&R) -> V) -> Self {
        let view = Arc::new(build(&registry));
        Snapshot {
            registry: Mutex::new(registry),
            view: Mutex::new(view),
            epoch: AtomicU64::new(1),
            build,
        }
    }

    /// Locks the registry without republishing: for reads, and for
    /// mutations of state the view does not carry.
    pub(crate) fn registry(&self) -> MutexGuard<'_, R> {
        self.registry.lock()
    }

    /// Mutates the registry under its lock and publishes the rebuilt
    /// view before releasing it.
    pub(crate) fn publish<T>(&self, mutate: impl FnOnce(&mut R) -> T) -> T {
        let mut registry = self.registry.lock();
        let out = mutate(&mut registry);
        *self.view.lock() = Arc::new((self.build)(&registry));
        self.epoch.fetch_add(1, Ordering::Release);
        out
    }

    /// A cache holding the current view.
    pub(crate) fn cache(&self) -> SnapshotCache<V> {
        let epoch = self.epoch.load(Ordering::Acquire);
        SnapshotCache { epoch, view: Arc::clone(&self.view.lock()) }
    }
}

impl<V> SnapshotCache<V> {
    /// The current view: one atomic load when nothing changed since
    /// the last call, one short lock to pick up a newer view otherwise.
    pub(crate) fn get<R>(&mut self, published: &Snapshot<R, V>) -> &V {
        let now = published.epoch.load(Ordering::Acquire);
        if self.epoch != now {
            self.epoch = now;
            self.view = Arc::clone(&published.view.lock());
        }
        &self.view
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::time::Duration;

    fn doubled(registry: &u32) -> u32 {
        registry * 2
    }

    #[test]
    fn stale_cache_sees_a_later_publish_and_an_unchanged_epoch_takes_no_lock() {
        let snap = Snapshot::new(1, doubled);
        let mut cache = snap.cache();
        assert_eq!(*cache.get(&snap), 2);

        let was = snap.publish(|r| std::mem::replace(r, 5));
        assert_eq!(was, 1, "publish hands back the mutation's result");
        assert_eq!(*cache.get(&snap), 10, "a cache taken before the publish catches up");

        // Nothing published since: with both locks held here, a read
        // on another thread must still complete, on the same `Arc`.
        let before = Arc::clone(&cache.view);
        let registry = snap.registry();
        let view = snap.view.lock();
        let (done_tx, done_rx) = mpsc::channel();
        std::thread::scope(|s| {
            s.spawn(|| {
                let value = *cache.get(&snap);
                let _ = done_tx.send((value, Arc::ptr_eq(&cache.view, &before)));
            });
            let read = done_rx.recv_timeout(Duration::from_secs(5));
            drop(view);
            drop(registry);
            assert_eq!(read, Ok((10, true)), "an unchanged epoch must not wait for either lock");
        });
    }
}
