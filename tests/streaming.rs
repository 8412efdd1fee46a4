//! Backpressure contract of the live-feed `StreamHub` (the `ttdiag serve`
//! fan-out): a subscriber that never reads occupies bounded memory and
//! gets exact drop accounting, while a concurrent fast subscriber receives
//! the complete, gap-free (by `seq`) stream — and neither ever stalls the
//! publisher.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tt_sim::{Framed, ProgressEvent, StreamHub};

fn settled(i: u64) -> ProgressEvent {
    ProgressEvent::Settled {
        job: 1,
        completed: i,
        total: 100_000,
        quarantined: 0,
    }
}

#[test]
fn stalled_subscriber_is_bounded_while_fast_subscriber_sees_every_frame() {
    const STALLED_CAPACITY: usize = 64;
    const FAST_CAPACITY: usize = 512;
    const PUBLISHED: u64 = 20_000;

    let hub: Arc<StreamHub<ProgressEvent>> = Arc::new(StreamHub::new());
    // The stalled subscriber: attaches with a tiny ring and never reads
    // until the very end.
    let stalled = hub.subscribe(STALLED_CAPACITY);
    let fast = Arc::new(hub.subscribe(FAST_CAPACITY));
    let done = Arc::new(AtomicBool::new(false));

    // Fast consumer thread: drains continuously and checks seq continuity.
    let consumer = {
        let done = Arc::clone(&done);
        let fast = Arc::clone(&fast);
        std::thread::spawn(move || {
            let mut received: Vec<Framed<ProgressEvent>> = Vec::new();
            loop {
                let frames = fast.recv_timeout(Duration::from_millis(5), 1024);
                received.extend(frames);
                if done.load(Ordering::Relaxed) {
                    received.extend(fast.drain(usize::MAX));
                    break;
                }
            }
            received
        })
    };

    // Publisher: the hot path. It must never block on either subscriber.
    // The harness paces it, outside `publish`: a burst never exceeds the
    // fast ring, and the next burst starts only once the fast consumer has
    // taken everything published so far, however late it was scheduled.
    let mut in_publish = Duration::ZERO;
    let mut published = 0u64;
    while published < PUBLISHED {
        let burst = (PUBLISHED - published).min(FAST_CAPACITY as u64);
        let started = Instant::now();
        for i in published..published + burst {
            hub.publish(settled(i));
        }
        in_publish += started.elapsed();
        published += burst;
        let waiting = Instant::now();
        while fast.stats().lag != 0 {
            assert!(
                waiting.elapsed() < Duration::from_secs(60),
                "the fast consumer stopped draining"
            );
            std::thread::sleep(Duration::from_micros(100));
        }
    }
    done.store(true, Ordering::Relaxed);
    let received = consumer.join().expect("consumer thread");
    let fast_stats = fast.stats();

    // The fast subscriber saw the complete stream, gap-free by seq.
    assert_eq!(received.len() as u64, PUBLISHED, "no frame lost");
    for (i, frame) in received.iter().enumerate() {
        assert_eq!(frame.seq, i as u64, "gap-free monotone seq");
    }
    assert_eq!(fast_stats.dropped, 0, "keeping-up subscriber drops nothing");
    assert_eq!(fast_stats.delivered, PUBLISHED);

    // The stalled subscriber's buffer stayed bounded at its ring capacity:
    // it holds exactly the newest `capacity` frames...
    let backlog = stalled.drain(usize::MAX);
    assert_eq!(backlog.len(), STALLED_CAPACITY, "bounded occupancy");
    let first_kept = PUBLISHED - STALLED_CAPACITY as u64;
    for (i, frame) in backlog.iter().enumerate() {
        assert_eq!(
            frame.seq,
            first_kept + i as u64,
            "oldest frames were evicted, newest kept, in order"
        );
    }
    // ...and its drop counter equals the observed seq gap exactly.
    let stats = stalled.stats();
    assert_eq!(stats.dropped, first_kept, "drop counter equals the seq gap");
    assert_eq!(stats.delivered, STALLED_CAPACITY as u64);
    assert_eq!(stats.capacity, STALLED_CAPACITY as u64);
    assert_eq!(stats.lag, 0, "fully drained");

    // Liveness sanity: the 20k publishes past a stalled subscriber took
    // far less time than a fan-out that blocked on consumers would.
    assert!(
        in_publish < Duration::from_secs(30),
        "publisher appears to have stalled: {in_publish:?} inside publish"
    );
}

#[test]
fn detached_subscribers_return_the_hub_to_the_free_fast_path() {
    let hub: Arc<StreamHub<ProgressEvent>> = Arc::new(StreamHub::new());
    assert!(!hub.has_subscribers());
    let a = hub.subscribe(8);
    let b = hub.subscribe(8);
    assert!(hub.has_subscribers());
    hub.publish(settled(0));
    drop(a);
    assert!(hub.has_subscribers(), "one subscriber remains");
    assert_eq!(b.drain(usize::MAX).len(), 1);
    drop(b);
    assert!(
        !hub.has_subscribers(),
        "last detach restores the zero-subscriber fast path"
    );
    // Publishing now assigns no sequence numbers at all (nothing observes
    // them), so a later subscriber starts a fresh contiguous stream.
    hub.publish(settled(1));
    let late = hub.subscribe(8);
    hub.publish(settled(2));
    let frames = late.drain(usize::MAX);
    assert_eq!(frames.len(), 1);
    assert_eq!(
        frames[0].seq, 1,
        "seq continues from the last observed frame"
    );
}
