//! The stage helpers: threads that outlive every stage. A stage's caller
//! runs its worker loop itself and posts a request for helpers to run the
//! same loop beside it (DESIGN.md §11).

use std::panic::{self, AssertUnwindSafe};
use std::sync::{Condvar, LazyLock, Mutex, MutexGuard, Once, PoisonError};

/// A stage's worker loop, its borrow of stage-local state erased.
type Body = &'static (dyn Fn() + Sync);

struct Request {
    id: u64,
    body: Body,
    /// Helpers still wanted.
    unclaimed: usize,
    /// Helpers inside `body` now.
    running: usize,
}

#[derive(Default)]
struct State {
    /// Live requests, oldest first.
    requests: Vec<Request>,
    next_id: u64,
}

#[derive(Default)]
struct Pool {
    state: Mutex<State>,
    posted: Condvar,
    finished: Condvar,
}

/// The default cap on one stage's workers (2 × parallelism), less the caller.
pub(crate) fn size() -> usize {
    std::thread::available_parallelism().map_or(4, |p| p.get()) * 2 - 1
}

fn pool() -> &'static Pool {
    static POOL: LazyLock<Pool> = LazyLock::new(Pool::default);
    static STARTED: Once = Once::new();
    STARTED.call_once(|| {
        for _ in 0..size() {
            #[cfg(test)]
            SPAWNED.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            std::thread::spawn(|| POOL.serve());
        }
    });
    &POOL
}

impl Pool {
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// A helper's life: claim a unit of the oldest open request, run its
    /// body, report back, repeat.
    fn serve(&self) {
        let mut st = self.lock();
        loop {
            let Some(request) = st.requests.iter_mut().find(|r| r.unclaimed > 0) else {
                st = self.posted.wait(st).unwrap_or_else(PoisonError::into_inner);
                continue;
            };
            request.unclaimed -= 1;
            request.running += 1;
            let (id, body) = (request.id, request.body);
            drop(st);
            // The body catches its tasks' panics; should anything else
            // unwind, it must not take this helper or its caller's wait.
            let _ = panic::catch_unwind(AssertUnwindSafe(body));
            st = self.lock();
            // Still listed: its caller removes it only at `running == 0`.
            if let Some(request) = st.requests.iter_mut().find(|r| r.id == id) {
                request.running -= 1;
                if request.running == 0 {
                    self.finished.notify_all();
                }
            }
        }
    }
}

/// Runs `body` on the calling thread and on up to `helpers` pool threads
/// at once; returns when every thread that started it has returned.
pub(crate) fn run_with_helpers(helpers: usize, body: &(dyn Fn() + Sync)) {
    if helpers == 0 {
        return body();
    }
    let pool = pool();
    // SAFETY: only the lifetime changes. A helper calls `body` between
    // claiming a unit of this request and leaving its `running` count.
    // Below, the caller runs its own `body` under `catch_unwind`, then
    // stops further claims and waits for `running` to reach zero before it
    // returns or resumes the unwind, so no helper can call `body` after
    // the borrow it erases has ended.
    let erased: Body = unsafe { std::mem::transmute::<&(dyn Fn() + Sync), Body>(body) };
    let mut st = pool.lock();
    let id = st.next_id;
    st.next_id += 1;
    st.requests.push(Request {
        id,
        body: erased,
        unclaimed: helpers,
        running: 0,
    });
    for _ in 0..helpers {
        pool.posted.notify_one();
    }
    drop(st);
    let outcome = panic::catch_unwind(AssertUnwindSafe(body));
    let mut st = pool.lock();
    while let Some(pos) = st.requests.iter().position(|r| r.id == id) {
        st.requests[pos].unclaimed = 0;
        if st.requests[pos].running == 0 {
            st.requests.remove(pos);
            break;
        }
        st = pool
            .finished
            .wait(st)
            .unwrap_or_else(PoisonError::into_inner);
    }
    if let Err(payload) = outcome {
        panic::resume_unwind(payload);
    }
}

#[cfg(test)]
static SPAWNED: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);

/// Helper threads the pool has ever started.
#[cfg(test)]
pub(crate) fn spawned() -> usize {
    SPAWNED.load(std::sync::atomic::Ordering::Relaxed)
}
