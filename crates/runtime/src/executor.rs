//! The run queue and worker-thread pool, plus a standalone [`block_on`].
//!
//! The executor is deliberately simple: one injector run queue protected
//! by a mutex + condvar, N worker threads popping tasks, and `Arc`-based
//! wakers (via [`std::task::Wake`]) pushing tasks back when their I/O —
//! here, channels — becomes ready. Simplicity is the point:
//! every later subsystem (session sharding, drain/pause) must be able to
//! reason about exactly when a task runs.

use crate::task::{BoxFuture, JoinHandle, JoinShared, Task};
use std::collections::VecDeque;
use std::future::Future;
use std::pin::pin;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::task::{Context, Poll, Wake, Waker};
use std::thread;

pub(crate) struct Inner {
    queue: Mutex<VecDeque<Arc<Task>>>,
    available: Condvar,
    shutting_down: AtomicBool,
    spawned: AtomicUsize,
}

impl Inner {
    pub(crate) fn enqueue(&self, task: Arc<Task>) {
        let mut queue = self.queue.lock().unwrap_or_else(|e| e.into_inner());
        queue.push_back(task);
        drop(queue);
        self.available.notify_one();
    }
}

/// A fixed pool of worker threads multiplexing any number of tasks.
///
/// Dropping the executor shuts it down (draining already-runnable tasks);
/// call [`Executor::shutdown`] to do so explicitly.
pub struct Executor {
    inner: Arc<Inner>,
    threads: Vec<thread::JoinHandle<()>>,
}

impl Executor {
    /// Spawns a pool of `threads` workers (at least one).
    pub fn new(threads: usize) -> Self {
        let inner = Arc::new(Inner {
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            shutting_down: AtomicBool::new(false),
            spawned: AtomicUsize::new(0),
        });
        let threads = (0..threads.max(1))
            .map(|i| {
                let inner = Arc::clone(&inner);
                thread::Builder::new()
                    .name(format!("medsen-rt-{i}"))
                    .spawn(move || worker(inner))
                    .expect("spawn runtime worker")
            })
            .collect();
        Self { inner, threads }
    }

    /// Schedules `future` as a new task and returns a handle to its output.
    pub fn spawn<F>(&self, future: F) -> JoinHandle<F::Output>
    where
        F: Future + Send + 'static,
        F::Output: Send + 'static,
    {
        let shared = JoinShared::new();
        let completion = Arc::clone(&shared);
        let wrapped: BoxFuture = Box::pin(async move {
            completion.complete(future.await);
        });
        self.inner.spawned.fetch_add(1, Ordering::Relaxed);
        let task = Task::new(wrapped, Arc::clone(&self.inner));
        self.inner.enqueue(task);
        JoinHandle { shared }
    }

    /// Number of worker threads in the pool.
    pub fn threads(&self) -> usize {
        self.threads.len()
    }

    /// Total tasks spawned over the executor's lifetime.
    pub fn tasks_spawned(&self) -> usize {
        self.inner.spawned.load(Ordering::Relaxed)
    }

    /// Stops the pool: already-runnable tasks are drained, workers join.
    /// Tasks still parked on external wakers (channels) are
    /// abandoned, so quiesce the workload first.
    pub fn shutdown(mut self) {
        self.shutdown_in_place();
    }

    fn shutdown_in_place(&mut self) {
        // The flag is stored under the queue lock: a worker checks it and
        // goes to sleep while holding that lock, so it either sees the
        // flag or is already waiting when `notify_all` runs. Stored
        // without the lock, the notify could fall between the check and
        // the wait, and that worker would sleep forever.
        {
            let _queue = self.inner.queue.lock().unwrap_or_else(|e| e.into_inner());
            self.inner.shutting_down.store(true, Ordering::Release);
        }
        self.inner.available.notify_all();
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for Executor {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

impl std::fmt::Debug for Executor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Executor")
            .field("threads", &self.threads.len())
            .field("tasks_spawned", &self.tasks_spawned())
            .finish()
    }
}

fn worker(inner: Arc<Inner>) {
    loop {
        let task = {
            let mut queue = inner.queue.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(task) = queue.pop_front() {
                    break Some(task);
                }
                if inner.shutting_down.load(Ordering::Acquire) {
                    break None;
                }
                queue = inner
                    .available
                    .wait(queue)
                    .unwrap_or_else(|e| e.into_inner());
            }
        };
        match task {
            Some(task) => task.run(),
            None => return,
        }
    }
}

/// Waker that unparks a specific thread; used by [`block_on`].
struct ThreadWaker {
    thread: thread::Thread,
    notified: AtomicBool,
}

impl Wake for ThreadWaker {
    fn wake(self: Arc<Self>) {
        Self::wake_by_ref(&self);
    }

    fn wake_by_ref(self: &Arc<Self>) {
        if !self.notified.swap(true, Ordering::AcqRel) {
            self.thread.unpark();
        }
    }
}

/// Drives `future` to completion on the calling thread, parking between
/// polls. Independent of any [`Executor`]: a blocking submitter uses it
/// to await room in a lane without occupying a pool thread.
pub fn block_on<F: Future>(future: F) -> F::Output {
    let parker = Arc::new(ThreadWaker {
        thread: thread::current(),
        notified: AtomicBool::new(false),
    });
    let waker = Waker::from(Arc::clone(&parker));
    let mut cx = Context::from_waker(&waker);
    let mut future = pin!(future);
    loop {
        if let Poll::Ready(value) = future.as_mut().poll(&mut cx) {
            return value;
        }
        while !parker.notified.swap(false, Ordering::AcqRel) {
            thread::park();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn block_on_returns_ready_value() {
        assert_eq!(block_on(async { 2 + 2 }), 4);
    }

    #[test]
    fn spawn_join_round_trip() {
        let executor = Executor::new(2);
        let handle = executor.spawn(async { 21 * 2 });
        assert_eq!(handle.join(), 42);
        executor.shutdown();
    }

    #[test]
    fn join_handle_is_awaitable() {
        let executor = Executor::new(2);
        let inner = executor.spawn(async { "nested" });
        let outer = executor.spawn(async move { inner.await.len() });
        assert_eq!(outer.join(), 6);
        executor.shutdown();
    }

    #[test]
    fn many_tasks_on_few_threads() {
        let executor = Executor::new(2);
        let total = Arc::new(AtomicU32::new(0));
        let handles: Vec<_> = (0..256)
            .map(|i| {
                let total = Arc::clone(&total);
                executor.spawn(async move {
                    total.fetch_add(i, Ordering::Relaxed);
                })
            })
            .collect();
        for handle in handles {
            handle.join();
        }
        assert_eq!(total.load(Ordering::Relaxed), (0..256).sum::<u32>());
        assert_eq!(executor.threads(), 2);
        assert_eq!(executor.tasks_spawned(), 256);
        executor.shutdown();
    }

    /// A future that wakes itself *during* poll must be polled again: the
    /// wake lands in the `RUNNING` state and re-arms the task (the
    /// `NOTIFIED` transition), instead of being dropped.
    #[test]
    fn wake_during_poll_rearms_the_task() {
        struct SelfWake {
            remaining: u32,
        }
        impl Future for SelfWake {
            type Output = u32;
            fn poll(mut self: std::pin::Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<u32> {
                if self.remaining == 0 {
                    Poll::Ready(0)
                } else {
                    self.remaining -= 1;
                    // Wake while the task is RUNNING.
                    cx.waker().wake_by_ref();
                    Poll::Pending
                }
            }
        }
        let executor = Executor::new(1);
        let handle = executor.spawn(SelfWake { remaining: 64 });
        assert_eq!(handle.join(), 0);
        executor.shutdown();
    }

    /// A trace context installed inside a task survives its yields (the
    /// task's `TaskSlot` parks it between polls) and never leaks onto
    /// sibling tasks interleaved on the same worker thread.
    #[test]
    fn trace_context_is_task_local_across_yields() {
        use medsen_telemetry::{ActiveTrace, SpanRecorder, Stage, TraceId};
        use std::time::Instant;

        let recorder = Arc::new(SpanRecorder::with_capacity(64));
        let executor = Executor::new(1);
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let recorder = Arc::clone(&recorder);
                executor.spawn(async move {
                    let id = TraceId::mint();
                    let _guard = medsen_telemetry::install(ActiveTrace::unsampled(
                        id,
                        Arc::clone(&recorder),
                    ));
                    for _ in 0..4 {
                        crate::yield_now().await;
                        // After every yield this thread has interleaved
                        // other tasks; the context must still be ours.
                        let current =
                            medsen_telemetry::current().expect("context survives the yield");
                        assert_eq!(current.id, id, "task {i} sees its own trace");
                        medsen_telemetry::record(Stage::Service, i, Instant::now(), Instant::now());
                    }
                    id
                })
            })
            .collect();
        let ids: Vec<TraceId> = handles.into_iter().map(|h| h.join()).collect();
        for (i, id) in ids.iter().enumerate() {
            let spans = recorder.spans_for(*id);
            assert_eq!(spans.len(), 4, "task {i} recorded one span per yield");
            assert!(spans.iter().all(|s| s.tag == i as u32));
        }
        executor.shutdown();
    }

    /// Shutdown must wake every idle worker, however the store of the
    /// shutdown flag interleaves with a worker about to sleep. Repeated
    /// create/drop cycles hit the window between a worker's flag check
    /// and its wait; a hang shows up as a missed deadline, not a stuck
    /// test run.
    #[test]
    fn shutdown_never_loses_a_wakeup() {
        const CYCLES: u32 = 50_000;
        let (tx, rx) = std::sync::mpsc::channel();
        let cycler = thread::spawn(move || {
            for cycle in 0..CYCLES {
                drop(Executor::new(2));
                if tx.send(cycle).is_err() {
                    return;
                }
            }
        });
        for cycle in 0..CYCLES {
            rx.recv_timeout(std::time::Duration::from_secs(10))
                .unwrap_or_else(|_| panic!("executor drop hung in cycle {cycle}"));
        }
        cycler.join().expect("cycler thread");
    }

    /// Redundant wakes collapse: waking an already-scheduled task many
    /// times queues it exactly once per poll cycle.
    #[test]
    fn redundant_wakes_are_idempotent() {
        struct CountPolls {
            polls: Arc<AtomicU32>,
            woken: bool,
        }
        impl Future for CountPolls {
            type Output = ();
            fn poll(mut self: std::pin::Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
                self.polls.fetch_add(1, Ordering::Relaxed);
                if self.woken {
                    Poll::Ready(())
                } else {
                    self.woken = true;
                    let waker = cx.waker().clone();
                    // Hammer the waker mid-poll: every wake after the
                    // first lands on a RUNNING/NOTIFIED task.
                    for _ in 0..100 {
                        waker.wake_by_ref();
                    }
                    Poll::Pending
                }
            }
        }
        let polls = Arc::new(AtomicU32::new(0));
        let executor = Executor::new(1);
        let handle = executor.spawn(CountPolls {
            polls: Arc::clone(&polls),
            woken: false,
        });
        handle.join();
        // One initial poll plus at most a couple of re-polls — never 100.
        assert!(polls.load(Ordering::Relaxed) <= 3);
        executor.shutdown();
    }
}
