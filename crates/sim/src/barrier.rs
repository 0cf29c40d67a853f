//! The sharded engines' round barrier: one arrival per thread per round,
//! and the last thread to arrive runs the round's completion step (the
//! leader's merge) before it releases the others.
//!
//! The standard library's barrier parks every early arriver on a futex and
//! has no completion hook, so a round that needs a merge between "everyone
//! has reported" and "everyone may continue" costs two full waits.
//! [`RoundBarrier`] does it in one:
//!
//! * arriving is one atomic increment of the arrival count; the thread
//!   that brings it to `parties` runs the completion step, resets the count
//!   and bumps the generation word, which releases everyone;
//! * an early arriver first spins on the generation word for
//!   [`SPIN_LIMIT`] iterations of [`std::hint::spin_loop`] — on a quiet
//!   host the stragglers of a round arrive within microseconds — and then
//!   parks on a `Mutex`/`Condvar` pair, so a preempted or oversubscribed
//!   run does not burn its cores;
//! * the releasing thread touches the condvar only when someone is parked.
//!
//! The spin budget is an iteration count, not a duration: library code in
//! this crate reads no clock (the `wall-clock` lint).
//!
//! **Ordering.**  Every arrival is an `AcqRel` read-modify-write of the one
//! arrival counter, so the completing thread's increment synchronises with
//! every earlier arrival (they form one release sequence), and waiters read
//! the generation word with `Acquire` after the completer's `Release` store.
//! Whatever a thread wrote before arriving is therefore visible to the
//! completion step, and whatever was written before the release — the
//! completion step's writes included — is visible to every released thread.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// Spin iterations before an early arriver parks.  One iteration is one
/// [`std::hint::spin_loop`] plus a load, about 20 ns on an x86 server
/// core, so the budget is some 20 µs there: well above the arrival skew of
/// a sparse round, well below a scheduler time slice.
const SPIN_LIMIT: u32 = 1 << 10;

/// Parked-waiter bookkeeping, guarded by the barrier's mutex.
#[derive(Debug, Default)]
struct Parking {
    /// Threads currently blocked on the condvar.
    waiting: usize,
    /// Parks so far (observability for the stress test).
    #[cfg(test)]
    parks: u64,
}

/// A reusable barrier for a fixed number of threads whose last arriver runs
/// a completion step before releasing the rest (see the module docs).
#[derive(Debug)]
pub(crate) struct RoundBarrier {
    parties: usize,
    /// Arrivals in the current generation.
    arrived: AtomicUsize,
    /// Completed generations (wrapping); a change releases the waiters.
    generation: AtomicUsize,
    parking: Mutex<Parking>,
    wake: Condvar,
}

impl RoundBarrier {
    /// A barrier for `parties` threads.
    pub(crate) fn new(parties: usize) -> Self {
        assert!(parties > 0, "a barrier needs at least one party");
        Self {
            parties,
            arrived: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
            parking: Mutex::new(Parking::default()),
            wake: Condvar::new(),
        }
    }

    /// Arrives and returns once every party has arrived.  The last thread
    /// to arrive runs `complete` before anyone returns, so every thread
    /// returns after the completion step and sees its writes.
    pub(crate) fn wait(&self, complete: impl FnOnce()) {
        // A thread can only observe the current generation here: the
        // generation cannot complete before this thread has arrived.
        let generation = self.generation.load(Ordering::Acquire);
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.parties {
            complete();
            // Reset before releasing: a released thread may arrive at the
            // next generation immediately.
            self.arrived.store(0, Ordering::Relaxed);
            self.generation
                .store(generation.wrapping_add(1), Ordering::Release);
            // A waiter checks the generation and registers itself under
            // this lock, so either it sees the new generation or it is
            // counted here before the notify.
            let parking = self.lock();
            if parking.waiting > 0 {
                drop(parking);
                self.wake.notify_all();
            }
            return;
        }
        for _ in 0..SPIN_LIMIT {
            if self.generation.load(Ordering::Acquire) != generation {
                return;
            }
            std::hint::spin_loop();
        }
        let mut parking = self.lock();
        while self.generation.load(Ordering::Acquire) == generation {
            parking.waiting += 1;
            #[cfg(test)]
            {
                parking.parks += 1;
            }
            parking = self
                .wake
                .wait(parking)
                .unwrap_or_else(PoisonError::into_inner);
            parking.waiting -= 1;
        }
    }

    /// Every update of [`Parking`] is one increment or decrement, so the
    /// data behind a poisoned lock is still valid.
    fn lock(&self) -> MutexGuard<'_, Parking> {
        self.parking.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::time::Duration;

    const GENERATIONS: u64 = 10_000;

    /// Every `STALL_EVERY`-th generation, thread 0 holds back until every
    /// other thread has exhausted its spin budget and parked.
    const STALL_EVERY: u64 = 500;

    /// `k` threads × [`GENERATIONS`] rounds: each thread writes its slot
    /// before arriving; the completion step must run exactly once per
    /// generation, after every write of that generation, and every released
    /// thread must see the completion step's write.  Violations are counted
    /// rather than asserted in the threads, where a panic would leave the
    /// others parked forever.  Returns `(violations, parks)`.
    fn stress(k: usize) -> (u64, u64) {
        let barrier = RoundBarrier::new(k);
        let slots: Vec<AtomicU64> = (0..k).map(|_| AtomicU64::new(u64::MAX)).collect();
        let completions = AtomicU64::new(0);
        let violations = AtomicU64::new(0);
        let check = |ok: bool| {
            if !ok {
                violations.fetch_add(1, Ordering::Relaxed);
            }
        };
        std::thread::scope(|scope| {
            for t in 0..k {
                let (barrier, slots, completions, check) = (&barrier, &slots, &completions, &check);
                scope.spawn(move || {
                    for generation in 0..GENERATIONS {
                        if t == 0 && generation % STALL_EVERY == 0 {
                            while barrier.lock().waiting < k - 1 {
                                std::thread::sleep(Duration::from_micros(100));
                            }
                        }
                        slots[t].store(generation, Ordering::Relaxed);
                        barrier.wait(|| {
                            let done = completions.load(Ordering::Relaxed);
                            check(done == generation);
                            check(
                                slots
                                    .iter()
                                    .all(|s| s.load(Ordering::Relaxed) == generation),
                            );
                            completions.store(done + 1, Ordering::Relaxed);
                        });
                        check(completions.load(Ordering::Relaxed) == generation + 1);
                    }
                });
            }
        });
        check(completions.load(Ordering::Relaxed) == GENERATIONS);
        let parks = barrier.parking.into_inner().unwrap().parks;
        (violations.load(Ordering::Relaxed), parks)
    }

    #[test]
    fn completion_runs_once_per_generation_and_releases_see_it() {
        for k in [2, 3, 5] {
            let stalls = GENERATIONS / STALL_EVERY;
            let (violations, parks) = stress(k);
            assert_eq!(violations, 0, "k={k}: barrier ordering violated");
            assert!(
                parks >= stalls * (k as u64 - 1),
                "k={k}: {parks} parks over {stalls} stalled generations"
            );
        }
    }
}
