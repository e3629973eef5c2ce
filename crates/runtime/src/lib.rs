//! # medsen-runtime — the gateway's task engine
//!
//! The MedSen deployment story is many cheap dongles streaming encrypted
//! traces to one cloud service. Serving that fleet with an OS thread per
//! session caps concurrency at a few hundred; this crate provides the
//! task model the gateway's workers run on, built on `std` alone (the
//! workspace's dependency set is frozen, and a concurrency substrate is
//! exactly the code that should not ride on vendored stubs):
//!
//! * [`Executor`] — a fixed pool of worker threads multiplexing any
//!   number of tasks over a mutex+condvar run queue, with `Arc`-based
//!   [`std::task::Wake`] wakers. Wakes landing mid-poll re-arm the task
//!   (`RUNNING → NOTIFIED`), so no wakeup is lost.
//! * [`block_on`] — drives one future on the calling thread, parking
//!   between polls; how a `ShedPolicy::Block` submitter waits for room
//!   in a full lane.
//! * [`channel`] — an async bounded MPMC channel whose close semantics
//!   (drain, then disconnect) mirror the gateway's shutdown contract.
//! * [`yield_now`] — a cooperative yield point so long-running tasks
//!   share their worker thread.

pub mod channel;
mod executor;
mod task;

pub use executor::{block_on, Executor};
pub use task::JoinHandle;

use std::future::Future;
use std::pin::Pin;
use std::task::{Context, Poll};

/// Cooperatively yields the current task back to the run queue once, so
/// sibling tasks on the same worker thread get a turn.
pub fn yield_now() -> YieldNow {
    YieldNow { yielded: false }
}

/// Future returned by [`yield_now`].
#[derive(Debug, Default)]
pub struct YieldNow {
    yielded: bool,
}

impl Future for YieldNow {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.yielded {
            Poll::Ready(())
        } else {
            self.yielded = true;
            cx.waker().wake_by_ref();
            Poll::Pending
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn yield_now_suspends_exactly_once() {
        let polls = Arc::new(AtomicUsize::new(0));
        let inner = Arc::clone(&polls);
        block_on(async move {
            inner.fetch_add(1, Ordering::Relaxed);
            yield_now().await;
            inner.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(polls.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn yield_interleaves_two_tasks_on_one_thread() {
        let executor = Executor::new(1);
        let log = Arc::new(std::sync::Mutex::new(Vec::new()));
        let handles: Vec<_> = (0..2)
            .map(|id| {
                let log = Arc::clone(&log);
                executor.spawn(async move {
                    for step in 0..3 {
                        log.lock().unwrap().push((id, step));
                        yield_now().await;
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join();
        }
        let log = log.lock().unwrap().clone();
        // Both tasks made progress before either finished: cooperative
        // scheduling on a single worker thread.
        let first_done = log.iter().position(|&(_, s)| s == 2).unwrap();
        assert!(
            log[..first_done].iter().any(|&(id, _)| id == 0)
                && log[..first_done].iter().any(|&(id, _)| id == 1),
            "tasks must interleave: {log:?}"
        );
        executor.shutdown();
    }
}
