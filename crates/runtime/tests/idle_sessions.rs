//! Fleet-scale acceptance test for the runtime: thousands of concurrently
//! *idle* sessions must cost a task each, not a thread each.
//!
//! Each simulated session parks on a channel receive (modeling an idle
//! dongle waiting for its next sample window) while the whole fleet is
//! multiplexed over a four-thread executor.

use medsen_runtime::{channel, Executor};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

const SESSIONS: usize = 2048;
const POOL_THREADS: usize = 4;

#[test]
fn two_thousand_idle_sessions_on_a_four_thread_pool() {
    let executor = Executor::new(POOL_THREADS);
    assert_eq!(executor.threads(), POOL_THREADS);

    let (work_tx, work_rx) = channel::bounded::<usize>(64);
    let parked = Arc::new(AtomicUsize::new(0));
    let completed = Arc::new(AtomicUsize::new(0));

    let handles: Vec<_> = (0..SESSIONS)
        .map(|_| {
            let work_rx = work_rx.clone();
            let parked = Arc::clone(&parked);
            let completed = Arc::clone(&completed);
            executor.spawn(async move {
                // Every session idles on the work channel. Nothing is sent
                // until all SESSIONS tasks have counted themselves here, so
                // every one of them waits on the empty channel at once.
                parked.fetch_add(1, Ordering::Relaxed);
                let token = work_rx.recv().await.expect("work arrives");
                medsen_runtime::yield_now().await;
                completed.fetch_add(1, Ordering::Relaxed);
                token
            })
        })
        .collect();
    drop(work_rx);

    // The executor pool is busy only while first-polling; once `parked`
    // hits SESSIONS, every task is idle on the empty channel and no OS
    // thread is blocked per session.
    while parked.load(Ordering::Relaxed) < SESSIONS {
        std::thread::yield_now();
    }
    assert_eq!(completed.load(Ordering::Relaxed), 0, "nothing sent yet");
    assert_eq!(executor.tasks_spawned(), SESSIONS);

    // The bounded queue (64 deep) forces the producer and the 2048
    // waiting consumers through the backpressure path.
    for i in 0..SESSIONS {
        medsen_runtime::block_on(work_tx.send(i)).expect("receivers alive");
    }

    let mut tokens: Vec<usize> = handles.into_iter().map(|h| h.join()).collect();
    tokens.sort_unstable();
    assert_eq!(tokens, (0..SESSIONS).collect::<Vec<_>>(), "no token lost");
    assert_eq!(completed.load(Ordering::Relaxed), SESSIONS);
    executor.shutdown();
}
