//! Parallel execution primitives.
//!
//! Two layers live here, both on `std::thread::scope` (no external runtime):
//!
//! * **Parameter sweeps** ([`par_map`], [`sweep_vs_baseline`]) — experiments
//!   evaluate the same simulation at many independent points; work is
//!   distributed by an atomic cursor (self-balancing for heterogeneous run
//!   times) and results land in their input slots, so output order is
//!   deterministic regardless of scheduling.
//! * **Conservative-window shard synchronization** ([`Mailboxes`],
//!   [`TimeBoard`], [`SpinBarrier`]) — the building blocks for a *single*
//!   simulation split across threads: per-shard message inboxes filled
//!   concurrently during a window and drained after its barrier, an
//!   atomic board where each shard publishes its next-event time so every
//!   shard can compute the same global horizon, and the barrier itself.
//!   Determinism is the callers' contract: receivers must
//!   sequence drained messages by their own timestamps/ids (e.g. via
//!   `sched::TimedQueue`), never by delivery order, which these primitives
//!   deliberately leave unspecified.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, PoisonError};

/// One message inbox per shard, safe to fill from any thread.
///
/// During a window every shard pushes cross-shard messages into the
/// destination's inbox; at the barrier each shard [`Mailboxes::drain`]s its
/// own. The drain order is whatever the send interleaving produced —
/// receivers must re-sequence by message timestamp (the cluster drivers
/// feed a `TimedQueue`, which orders by `(time, id)`).
pub struct Mailboxes<M> {
    boxes: Vec<Mutex<Vec<M>>>,
}

impl<M> Mailboxes<M> {
    pub fn new(n: usize) -> Self {
        Mailboxes { boxes: (0..n).map(|_| Mutex::new(Vec::new())).collect() }
    }

    pub fn n(&self) -> usize {
        self.boxes.len()
    }

    /// Appends `msg` to shard `to`'s inbox.
    pub fn send(&self, to: usize, msg: M) {
        self.boxes[to].lock().expect("mailbox poisoned").push(msg);
    }

    /// Takes everything currently in shard `me`'s inbox.
    pub fn drain(&self, me: usize) -> Vec<M> {
        std::mem::take(&mut *self.boxes[me].lock().expect("mailbox poisoned"))
    }
}

/// A board of per-shard times published atomically (as `f64` bit patterns
/// — monotone under `u64` comparison for the non-negative times simulations
/// use, though [`TimeBoard::min`] decodes and compares as `f64` anyway).
///
/// Shards publish their next pending event time before each barrier and
/// read the global minimum after it to size the next conservative window.
/// `f64::INFINITY` means "idle — nothing pending".
pub struct TimeBoard {
    slots: Vec<AtomicU64>,
}

impl TimeBoard {
    /// A board of `n` slots, all initially idle (`+∞`).
    pub fn new(n: usize) -> Self {
        TimeBoard { slots: (0..n).map(|_| AtomicU64::new(f64::INFINITY.to_bits())).collect() }
    }

    /// Publishes shard `me`'s next-event time (`None` ⇒ idle).
    pub fn publish(&self, me: usize, t: Option<f64>) {
        let t = t.unwrap_or(f64::INFINITY);
        debug_assert!(!t.is_nan(), "published NaN time");
        self.slots[me].store(t.to_bits(), Ordering::Release);
    }

    /// The published time of shard `i`.
    pub fn get(&self, i: usize) -> f64 {
        f64::from_bits(self.slots[i].load(Ordering::Acquire))
    }

    /// The minimum published time across all shards (`+∞` when all idle).
    pub fn min(&self) -> f64 {
        (0..self.slots.len()).map(|i| self.get(i)).fold(f64::INFINITY, f64::min)
    }
}

/// Spin-loop polls a barrier waiter makes before it starts yielding its
/// core: long enough to cover a short window on the other core without a
/// system call.
const BARRIER_SPINS: u32 = 1 << 10;
/// `yield_now` polls after the spins and before the waiter parks. When
/// there are more threads than cores the thread being waited for may need
/// this core, so waiters give it up instead of burning their time slice.
const BARRIER_YIELDS: u32 = 32;

/// A reusable barrier for a fixed set of `n` threads, tuned for the short,
/// frequent rounds of a conservative-window driver.
///
/// A waiter first spins ([`BARRIER_SPINS`] polls), then yields
/// ([`BARRIER_YIELDS`] polls), then parks on a condition variable, so a
/// round that ends quickly costs no system call, while oversubscribed
/// threads neither burn a core nor sleep through a short round. Like
/// `std::sync::Barrier`, every write a thread makes before
/// [`SpinBarrier::wait`] is visible to every thread after it.
pub struct SpinBarrier {
    n: usize,
    arrived: AtomicUsize,
    generation: AtomicU64,
    lock: Mutex<()>,
    wake: Condvar,
}

impl SpinBarrier {
    /// A barrier that releases each generation once `n` threads wait.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "a barrier needs at least one thread");
        SpinBarrier {
            n,
            arrived: AtomicUsize::new(0),
            generation: AtomicU64::new(0),
            lock: Mutex::new(()),
            wake: Condvar::new(),
        }
    }

    /// Blocks until all `n` threads have called `wait` for the current
    /// generation. Returns `true` on exactly one thread per generation
    /// (the last to arrive).
    pub fn wait(&self) -> bool {
        // Ordering: each arrival's `fetch_add` releases its writes, and the
        // last arrival's `fetch_add` acquires them all (the increments form
        // one release sequence). Its `Release` store of the new generation
        // pairs with the waiters' `Acquire` loads, which pass everything on.
        let gen = self.generation.load(Ordering::Acquire);
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.n {
            // Reset before publishing the new generation: a thread that
            // sees the new generation and waits again must count from 0.
            self.arrived.store(0, Ordering::Relaxed);
            let guard = self.lock.lock().unwrap_or_else(PoisonError::into_inner);
            self.generation.store(gen.wrapping_add(1), Ordering::Release);
            drop(guard);
            self.wake.notify_all();
            return true;
        }
        for i in 0..BARRIER_SPINS + BARRIER_YIELDS {
            if self.generation.load(Ordering::Acquire) != gen {
                return false;
            }
            if i < BARRIER_SPINS {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
        // The generation is re-checked under the lock the releasing thread
        // bumps it under, so a wake-up cannot fall between check and park.
        let mut guard = self.lock.lock().unwrap_or_else(PoisonError::into_inner);
        while self.generation.load(Ordering::Acquire) == gen {
            guard = self.wake.wait(guard).unwrap_or_else(PoisonError::into_inner);
        }
        false
    }
}

/// Number of worker threads to use: the available parallelism, capped by the
/// work-item count.
pub fn default_threads(items: usize) -> usize {
    let hw = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4);
    hw.min(items).max(1)
}

/// Applies `f` to every item, in parallel, preserving input order in the
/// output vector.
///
/// `f` must be `Sync` (shared across workers) and the items are borrowed
/// immutably. Panics in workers propagate.
pub fn par_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let threads = threads.clamp(1, n);
    if threads == 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }

    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();

    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let r = f(i, &items[i]);
                *slots[i].lock().expect("result slot poisoned") = Some(r);
            });
        }
    });

    slots
        .into_iter()
        .map(|m| m.into_inner().expect("slot poisoned").expect("slot unfilled"))
        .collect()
}

/// Like [`par_map`] but uses [`default_threads`].
pub fn par_map_auto<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    par_map(items, default_threads(items.len()), f)
}

/// The network-load-curve convention shared by the single-path
/// (`netsim::parametric::run_with_baseline`) and cluster
/// (`cluster::network_load_curve`) Figure-2/3 sweeps: run the `baseline`
/// point at `seed`, then every treatment point at `seed + 1` (all
/// treatment points share one seed so they differ only in parameters),
/// fanning the treatments out over the pool. Returns
/// `(baseline result, per-point results in input order)`.
pub fn sweep_vs_baseline<T, R, F>(baseline: &T, points: &[T], seed: u64, run: F) -> (R, Vec<R>)
where
    T: Sync,
    R: Send,
    F: Fn(&T, u64) -> R + Sync,
{
    let base = run(baseline, seed);
    let treated = par_map_auto(points, |_, point| run(point, seed.wrapping_add(1)));
    (base, treated)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order() {
        let items: Vec<u64> = (0..1000).collect();
        let out = par_map(&items, 8, |_, &x| x * 2);
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn single_thread_path() {
        let items = vec![1, 2, 3];
        let out = par_map(&items, 1, |i, &x| x + i as i32);
        assert_eq!(out, vec![1, 3, 5]);
    }

    #[test]
    fn empty_input() {
        let items: Vec<u32> = vec![];
        let out: Vec<u32> = par_map(&items, 4, |_, &x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn more_threads_than_items() {
        let items = vec![10, 20];
        let out = par_map(&items, 64, |_, &x| x + 1);
        assert_eq!(out, vec![11, 21]);
    }

    #[test]
    fn index_argument_matches_position() {
        let items = vec!["a", "b", "c", "d"];
        let out = par_map(&items, 2, |i, s| format!("{i}:{s}"));
        assert_eq!(out, vec!["0:a", "1:b", "2:c", "3:d"]);
    }

    #[test]
    fn heavy_imbalanced_work_completes() {
        // Some items "cost" much more than others; cursor-based stealing
        // should still complete everything.
        let items: Vec<u64> = (0..64).collect();
        let out = par_map(&items, 8, |_, &x| {
            let iters = if x % 8 == 0 { 200_000 } else { 100 };
            let mut acc = 0u64;
            for i in 0..iters {
                acc = acc.wrapping_add(i ^ x);
            }
            acc
        });
        assert_eq!(out.len(), 64);
    }

    #[test]
    fn sweep_vs_baseline_seeding_convention() {
        let (base, points) = sweep_vs_baseline(&0.0f64, &[1.0, 2.0], 41, |&x, s| (x, s));
        assert_eq!(base, (0.0, 41));
        assert_eq!(points, vec![(1.0, 42), (2.0, 42)]);
    }

    #[test]
    fn default_threads_bounds() {
        assert_eq!(default_threads(0), 1);
        assert!(default_threads(1) == 1);
        assert!(default_threads(1000) >= 1);
    }

    #[test]
    fn mailboxes_collect_concurrent_sends() {
        let boxes: Mailboxes<(usize, u64)> = Mailboxes::new(2);
        std::thread::scope(|scope| {
            for sender in 0..4usize {
                let boxes = &boxes;
                scope.spawn(move || {
                    for i in 0..100u64 {
                        boxes.send((sender + i as usize) % 2, (sender, i));
                    }
                });
            }
        });
        let mut got: Vec<(usize, u64)> = boxes.drain(0);
        got.extend(boxes.drain(1));
        assert_eq!(got.len(), 400, "no message lost or duplicated");
        got.sort_unstable();
        let expect: Vec<(usize, u64)> =
            (0..4).flat_map(|s| (0..100).map(move |i| (s, i))).collect();
        assert_eq!(got, expect);
        assert!(boxes.drain(0).is_empty(), "drain empties the inbox");
    }

    /// Runs `n` threads through `generations` barrier rounds and checks
    /// that each thread passes each generation exactly once, only after
    /// all `n` arrived, with one leader per generation. Threads with
    /// `sleepy(thread, generation)` set arrive late, so the others park;
    /// a lost wake-up would hang the run, which the deadline turns into a
    /// failure.
    fn barrier_rounds(n: usize, generations: usize, sleepy: fn(usize, usize) -> bool) {
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let barrier = SpinBarrier::new(n);
            let counter = |_| AtomicUsize::new(0);
            let arrived: Vec<AtomicUsize> = (0..generations).map(counter).collect();
            let passed: Vec<AtomicUsize> = (0..generations).map(counter).collect();
            let leaders: Vec<AtomicUsize> = (0..generations).map(counter).collect();
            std::thread::scope(|scope| {
                for me in 0..n {
                    let (barrier, arrived, passed, leaders) =
                        (&barrier, &arrived, &passed, &leaders);
                    scope.spawn(move || {
                        for g in 0..generations {
                            if sleepy(me, g) {
                                std::thread::sleep(std::time::Duration::from_micros(300));
                            }
                            arrived[g].fetch_add(1, Ordering::Relaxed);
                            if barrier.wait() {
                                leaders[g].fetch_add(1, Ordering::Relaxed);
                            }
                            assert_eq!(arrived[g].load(Ordering::Relaxed), n, "passed early");
                            passed[g].fetch_add(1, Ordering::Relaxed);
                        }
                    });
                }
            });
            for g in 0..generations {
                assert_eq!(passed[g].load(Ordering::Relaxed), n, "generation {g}");
                assert_eq!(leaders[g].load(Ordering::Relaxed), 1, "generation {g}");
            }
            done_tx.send(()).expect("test receiver alive");
        });
        done_rx
            .recv_timeout(std::time::Duration::from_secs(120))
            .expect("barrier rounds hung or panicked: a waiter was lost");
    }

    #[test]
    fn barrier_two_threads_many_generations() {
        barrier_rounds(2, 20_000, |_, _| false);
    }

    #[test]
    fn barrier_eight_threads_many_generations() {
        barrier_rounds(8, 5_000, |_, _| false);
    }

    #[test]
    fn barrier_wakes_parked_waiters() {
        // One late thread per round (rotating) forces the rest past their
        // spin and yield budgets into the park.
        barrier_rounds(2, 2_000, |me, g| g % 50 == 0 && me == (g / 50) % 2);
        barrier_rounds(8, 2_000, |me, g| g % 25 == 0 && me == (g / 25) % 8);
    }

    #[test]
    fn barrier_of_one_never_blocks() {
        let b = SpinBarrier::new(1);
        assert!((0..100).all(|_| b.wait()));
    }

    #[test]
    fn time_board_tracks_minimum() {
        let board = TimeBoard::new(3);
        assert_eq!(board.min(), f64::INFINITY, "all idle at start");
        board.publish(0, Some(5.0));
        board.publish(1, Some(2.5));
        board.publish(2, None);
        assert_eq!(board.min(), 2.5);
        assert_eq!(board.get(2), f64::INFINITY);
        board.publish(1, None);
        assert_eq!(board.min(), 5.0);
    }
}
