//! Persistent worker pool: the one place in the workspace where threads
//! are *kept*, not spawned.
//!
//! Every `par_*` entry point used to pay a full `std::thread::scope`
//! spawn/join per call (≈ 50–100 µs per worker), which is why paper-scale
//! sweeps reported `speedup_par_vs_seq: 1.0`: the runtime never amortized
//! its own start-up. This module replaces the per-call spawn with a pool
//! of parked workers that are woken by a condvar (single-digit µs) and
//! live for the rest of the process.
//!
//! # Protocol
//!
//! [`run`] installs one *job* — a `Fn(usize) + Sync` body shared by all
//! participants — bumps an epoch, and wakes the pool. Pool workers whose
//! index is within the engaged count run the body with their index and
//! acknowledge on a second condvar; the caller participates as worker `0`
//! on its own thread and blocks until every engaged worker has
//! acknowledged. Jobs are serialized by a region lock: a caller that
//! finds the pool busy (another top-level job, or a *nested* `par_*`
//! call from inside a worker) simply runs the body inline on its own
//! thread — the body's work-distribution is index-agnostic, so this is
//! always correct, merely not parallel.
//!
//! # Safety
//!
//! This is the only module in `wcm-par` allowed to use `unsafe`, and it
//! uses it for exactly one thing: erasing the lifetime of the borrowed
//! job body so parked (hence `'static`) workers can call it. Soundness
//! rests on the acknowledgement barrier: [`run`] does not return — not
//! even by unwinding — until every engaged worker has finished with the
//! body, so the erased reference never outlives the borrow it came from.
//! Worker panics are caught, recorded, and re-raised on the caller after
//! the barrier; a panic in the caller's own share of the work is also
//! held until the barrier has passed.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, OnceLock};

use crate::MAX_POOL_THREADS;

/// A lifetime-erased shared job body. The pointee is guaranteed valid
/// until the epoch's acknowledgement barrier completes (see module docs).
#[derive(Clone, Copy)]
struct Job(*const (dyn Fn(usize) + Sync));

// SAFETY: the pointee is `Sync` (shared calls from any thread are fine)
// and the pointer's validity is enforced by the barrier protocol above.
unsafe impl Send for Job {}

struct State {
    /// Monotone job counter; a changed epoch is the wake-up signal.
    epoch: u64,
    /// Pool workers `1..=participants` run the current epoch's job.
    participants: usize,
    /// The current job body (present exactly while an epoch is active).
    job: Option<Job>,
    /// Engaged workers that have finished the current epoch's body.
    finished: usize,
    /// Whether any engaged worker panicked in the current epoch.
    panicked: bool,
    /// Pool threads spawned so far (their indices are `1..=threads`).
    threads: usize,
}

struct Shared {
    state: Mutex<State>,
    /// Workers park here between jobs.
    work: Condvar,
    /// The caller parks here until all engaged workers acknowledged.
    done: Condvar,
}

struct Pool {
    shared: &'static Shared,
    /// Serializes jobs; `try_lock` failure means "pool busy" and the
    /// caller runs inline (also the nested-call and re-entrancy path).
    region: Mutex<()>,
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool {
        shared: Box::leak(Box::new(Shared {
            state: Mutex::new(State {
                epoch: 0,
                participants: 0,
                job: None,
                finished: 0,
                panicked: false,
                threads: 0,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
        })),
        region: Mutex::new(()),
    })
}

/// The parked-worker loop: wait for a new epoch, run the body if engaged,
/// acknowledge, repeat forever. Workers never exit — they are detached
/// and die with the process.
fn worker_loop(shared: &'static Shared, index: usize, mut seen_epoch: u64) {
    let mut st = shared.state.lock().expect("pool state poisoned");
    loop {
        if st.epoch != seen_epoch {
            seen_epoch = st.epoch;
            if index <= st.participants {
                let job = st.job.expect("active epoch carries a job");
                drop(st);
                // SAFETY: the caller blocks on the acknowledgement
                // barrier until `finished` covers every engaged worker,
                // so the erased borrow is still live here.
                let body = unsafe { &*job.0 };
                let ok = catch_unwind(AssertUnwindSafe(|| body(index))).is_ok();
                st = shared.state.lock().expect("pool state poisoned");
                if !ok {
                    st.panicked = true;
                }
                st.finished += 1;
                shared.done.notify_all();
                continue;
            }
        }
        st = shared.work.wait(st).expect("pool state poisoned");
    }
}

/// Runs `body(i)` for worker indices `0..n` where `n ≤ workers`: index 0
/// on the calling thread, the rest on pool workers woken for this job.
/// Returns the number of workers that actually ran (≥ 1).
///
/// The body must distribute work on its own (e.g. via a shared claim
/// structure) and must tolerate any subset of indices making progress:
/// when the pool is busy or thread spawn fails, fewer workers — possibly
/// only the caller — run the body.
pub(crate) fn run(workers: usize, body: &(dyn Fn(usize) + Sync)) -> usize {
    if workers <= 1 {
        body(0);
        return 1;
    }
    let pool = pool();
    // Busy pool (another job in flight, or a nested call from inside a
    // worker): run inline. The claim-based bodies drain all work either
    // way, so this affects speed only, never results.
    let Ok(region) = pool.region.try_lock() else {
        wcm_obs::counter("par.pool_inline", 1);
        body(0);
        return 1;
    };

    let engaged = {
        let mut st = pool.shared.state.lock().expect("pool state poisoned");
        let want = (workers - 1).min(MAX_POOL_THREADS);
        while st.threads < want {
            let index = st.threads + 1;
            let seen = st.epoch;
            let shared = pool.shared;
            let spawned = std::thread::Builder::new()
                .name(format!("wcm-par-{index}"))
                .spawn(move || worker_loop(shared, index, seen));
            match spawned {
                Ok(handle) => {
                    drop(handle); // detached: pool threads live forever
                    st.threads += 1;
                    wcm_obs::counter("par.pool_spawned", 1);
                }
                Err(_) => break, // engage only what exists
            }
        }
        let engaged = want.min(st.threads);
        if engaged == 0 {
            drop(st);
            drop(region);
            body(0);
            return 1;
        }
        // SAFETY(lifetime erasure): see module docs — the barrier below
        // outlives every worker's use of this pointer.
        #[allow(clippy::borrow_as_ptr)]
        let erased = Job(unsafe {
            std::mem::transmute::<
                *const (dyn Fn(usize) + Sync + '_),
                *const (dyn Fn(usize) + Sync + 'static),
            >(body as *const _)
        });
        st.epoch += 1;
        st.participants = engaged;
        st.finished = 0;
        st.panicked = false;
        st.job = Some(erased);
        pool.shared.work.notify_all();
        engaged
    };
    wcm_obs::counter("par.pool_wakeups", engaged as u64);

    // The caller is worker 0. Its own panic must be held back until the
    // barrier: unwinding past the borrow while workers still hold the
    // erased pointer would be unsound.
    let own = catch_unwind(AssertUnwindSafe(|| body(0)));

    let mut st = pool.shared.state.lock().expect("pool state poisoned");
    while st.finished < engaged {
        st = pool.shared.done.wait(st).expect("pool state poisoned");
    }
    st.job = None;
    st.participants = 0;
    let worker_panicked = st.panicked;
    drop(st);
    drop(region);
    if let Err(payload) = own {
        resume_unwind(payload);
    }
    if worker_panicked {
        panic!("wcm-par: a pool worker panicked");
    }
    engaged + 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn runs_every_index_exactly_once() {
        for workers in [2usize, 3, 5, 8] {
            let hits: Vec<AtomicUsize> = (0..workers).map(|_| AtomicUsize::new(0)).collect();
            let ran = run(workers, &|i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(ran >= 1 && ran <= workers);
            let total: usize = hits.iter().map(|h| h.load(Ordering::Relaxed)).sum();
            assert_eq!(total, ran, "each engaged index runs the body once");
            assert_eq!(hits[0].load(Ordering::Relaxed), 1, "caller always participates");
        }
    }

    #[test]
    fn single_worker_is_inline() {
        let hits = AtomicUsize::new(0);
        assert_eq!(
            run(1, &|i| {
                assert_eq!(i, 0);
                hits.fetch_add(1, Ordering::Relaxed);
            }),
            1
        );
        assert_eq!(hits.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn pool_survives_a_worker_panic() {
        // A panicking job must propagate to the caller...
        let r = catch_unwind(AssertUnwindSafe(|| {
            run(4, &|i| {
                if i == 0 {
                    // give pool workers a chance to pick the job up
                    std::thread::sleep(std::time::Duration::from_millis(5));
                } else {
                    panic!("boom");
                }
            });
        }));
        // (with 0 engaged pool workers the body never panics — accept both)
        let _ = r;
        // ...and the pool must remain usable afterwards.
        let hits = AtomicUsize::new(0);
        run(4, &|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.load(Ordering::Relaxed) >= 1);
    }

    #[test]
    fn nested_runs_fall_back_inline() {
        let outer_hits = AtomicUsize::new(0);
        let inner_hits = AtomicUsize::new(0);
        run(2, &|_| {
            outer_hits.fetch_add(1, Ordering::Relaxed);
            // Nested call while the region lock is held: inline, index 0.
            run(4, &|i| {
                assert_eq!(i, 0, "nested jobs must run inline");
                inner_hits.fetch_add(1, Ordering::Relaxed);
            });
        });
        let outer = outer_hits.load(Ordering::Relaxed);
        assert_eq!(inner_hits.load(Ordering::Relaxed), outer);
    }
}
