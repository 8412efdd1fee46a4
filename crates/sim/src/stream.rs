//! Backpressure-aware live streaming of observability feeds.
//!
//! The batch observability layers ([`crate::metrics`], [`crate::tracing`])
//! record events in-process and dump them after the run. This module adds
//! the *live* counterpart used by `ttdiag serve`: a [`StreamHub`] fans an
//! event feed out to any number of concurrent subscribers, each with its
//! own **bounded ring buffer**, so that
//!
//! * a slow or dead subscriber can never stall the publisher or grow
//!   memory without bound — once its ring is full, the oldest undelivered
//!   frame is evicted and its per-subscriber drop counter incremented;
//! * every frame carries a feed-global monotone sequence number
//!   ([`Framed::seq`]), so any consumer can detect gaps in what it
//!   received (a keeping-up subscriber observes a gap-free stream, and a
//!   lagging subscriber's drop counter equals the seq gap it sees);
//! * with **zero subscribers** the publisher side is free: the streaming
//!   sinks answer [`MetricsSink::enabled`] / [`TraceSink::enabled`] with a
//!   single uncontended relaxed load (no lock, no read-modify-write, no
//!   allocation), so the `NoopSink` guarantee — 0 allocations per round on
//!   the simulation hot path — still holds for a serve-capable cluster
//!   with nobody watching. This is pinned by `tests/alloc_free.rs`;
//! * with subscribers attached, a publish costs one uncontended lock and
//!   a copy into each ring, and no syscall while no subscriber is parked
//!   in [`Subscription::recv_timeout`]. Only a parked subscriber costs a
//!   condvar wake, one per publish until it has drained: the hub counts
//!   parked subscribers under its lock, and a subscriber drains its ring
//!   under that lock before it parks, so skipping the wake loses no frame.
//!
//! Three feed element types are streamed in practice: [`MetricsEvent`],
//! [`SpanEvent`], and the job-lifecycle [`ProgressEvent`] introduced here.

use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use serde::{DeError, Deserialize, Serialize, Value};

use crate::metrics::{MetricsEvent, MetricsSink};
use crate::tracing::{SpanEvent, TraceSink};

// ---------------------------------------------------------------- framing

/// One frame of a serialized event stream: a feed-global monotone sequence
/// number plus the event itself.
///
/// The wire encoding is `{"seq": N, "event": {...}}`. Deserialization is
/// back-compatible with pre-framing streams (the `HostFingerprint` idiom):
/// a bare event value — no `seq`/`event` wrapper at all — still parses,
/// with `seq` defaulting to 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Framed<E> {
    /// Feed-global monotone sequence number, assigned at publish time.
    pub seq: u64,
    /// The framed event.
    pub event: E,
}

impl<E: Serialize> Serialize for Framed<E> {
    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("seq".to_string(), Value::U64(self.seq)),
            ("event".to_string(), self.event.to_value()),
        ])
    }
}

impl<E: Deserialize> Deserialize for Framed<E> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        if let Some(map) = v.as_map() {
            if let Some(event) = Value::get_field(map, "event") {
                let seq = match Value::get_field(map, "seq") {
                    Some(s) => u64::from_value(s)?,
                    None => 0,
                };
                return Ok(Framed {
                    seq,
                    event: E::from_value(event)?,
                });
            }
        }
        // Back-compat: a stream written before framing existed carries the
        // bare event itself (and no event variant is named "event").
        Ok(Framed {
            seq: 0,
            event: E::from_value(v)?,
        })
    }
}

// --------------------------------------------------------- progress feed

/// A job-lifecycle event on the `progress` feed of `ttdiag serve`.
///
/// Unlike [`MetricsEvent`]/[`SpanEvent`] (emitted from inside simulated
/// clusters), progress events are emitted by the supervised executors in
/// `tt-bench`: per-chunk / per-cell completion counts, quarantine totals,
/// the checkpoint sequence number, and measured throughput.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ProgressEvent {
    /// A job left the queue and started (or resumed) executing.
    JobStarted {
        /// Service-assigned job id.
        job: u64,
        /// Job kind label (`campaign`, `explore`, `tune-sweep`).
        kind: String,
        /// Total work items (experiments, schedules, or sweep cells).
        total: u64,
        /// Items already settled by a previous run of this job (resume).
        resumed_from: u64,
    },
    /// One work item settled (completed or quarantined) inside a chunk.
    Settled {
        /// Service-assigned job id.
        job: u64,
        /// Items settled so far, including quarantined ones.
        completed: u64,
        /// Total work items.
        total: u64,
        /// Items quarantined so far.
        quarantined: u64,
    },
    /// A chunk of work finished and a checkpoint was written.
    Chunk {
        /// Service-assigned job id.
        job: u64,
        /// Items settled so far, including quarantined ones.
        completed: u64,
        /// Total work items.
        total: u64,
        /// Items quarantined so far.
        quarantined: u64,
        /// Number of checkpoints written for this job so far.
        checkpoint_seq: u64,
        /// Items settled per second over this chunk (0.0 if unmeasured).
        items_per_sec: f64,
    },
    /// The job stopped early at a halt request; its checkpoint can resume.
    Halted {
        /// Service-assigned job id.
        job: u64,
        /// Items settled when the halt took effect.
        completed: u64,
        /// Number of checkpoints written for this job so far.
        checkpoint_seq: u64,
    },
    /// The job ran to completion (or failed terminally).
    JobFinished {
        /// Service-assigned job id.
        job: u64,
        /// Items settled in total.
        completed: u64,
        /// Total work items.
        total: u64,
        /// Items quarantined in total.
        quarantined: u64,
        /// Whether every item passed its oracle (quarantines count as
        /// failures here; a halted job is reported via [`ProgressEvent::Halted`]).
        passed: bool,
    },
}

impl ProgressEvent {
    /// A short stable label for the event kind.
    pub fn kind(&self) -> &'static str {
        match self {
            ProgressEvent::JobStarted { .. } => "job_started",
            ProgressEvent::Settled { .. } => "settled",
            ProgressEvent::Chunk { .. } => "chunk",
            ProgressEvent::Halted { .. } => "halted",
            ProgressEvent::JobFinished { .. } => "job_finished",
        }
    }

    /// The job id the event belongs to.
    pub fn job(&self) -> u64 {
        match *self {
            ProgressEvent::JobStarted { job, .. }
            | ProgressEvent::Settled { job, .. }
            | ProgressEvent::Chunk { job, .. }
            | ProgressEvent::Halted { job, .. }
            | ProgressEvent::JobFinished { job, .. } => job,
        }
    }
}

// -------------------------------------------------------------- the hub

/// Per-subscriber delivery counters, reported over the wire when a feed
/// subscription ends (and exposed via [`Subscription::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct SubscriberStats {
    /// Frames evicted because this subscriber's ring was full. For any
    /// subscriber this equals the total width of the seq gaps it observes.
    pub dropped: u64,
    /// Frames handed to the subscriber by `drain`/`recv_timeout`.
    pub delivered: u64,
    /// Frames currently buffered and not yet delivered (queue depth); by
    /// construction never exceeds `capacity`.
    pub lag: u64,
    /// The fixed ring capacity this subscriber was created with.
    pub capacity: u64,
}

struct SubscriberSlot<E> {
    id: u64,
    capacity: usize,
    ring: VecDeque<Framed<E>>,
    dropped: u64,
    delivered: u64,
}

struct HubInner<E> {
    next_seq: u64,
    next_id: u64,
    slots: Vec<SubscriberSlot<E>>,
    /// Subscribers blocked on the condvar in `recv_timeout`. Only a
    /// non-zero count makes `publish` pay for a wake.
    parked: usize,
}

/// A fan-out hub for one live event feed.
///
/// Publishers call [`StreamHub::publish`]; each [`Subscription`] owns a
/// bounded ring the hub copies frames into. See the module docs for the
/// backpressure contract. The hub is shared via `Arc`: sinks and the serve
/// loop each hold a clone.
pub struct StreamHub<E> {
    /// Subscriber count, readable without the lock. Relaxed is enough:
    /// the mutex orders every transition that matters, and the hot path
    /// only uses this as a cheap "is anyone watching" gate.
    subscribers: AtomicUsize,
    inner: Mutex<HubInner<E>>,
    wakeup: Condvar,
}

impl<E> Default for StreamHub<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> fmt::Debug for StreamHub<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StreamHub")
            .field("subscribers", &self.subscribers.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl<E> StreamHub<E> {
    /// Creates an empty hub with no subscribers.
    pub fn new() -> Self {
        StreamHub {
            subscribers: AtomicUsize::new(0),
            inner: Mutex::new(HubInner {
                next_seq: 0,
                next_id: 0,
                slots: Vec::new(),
                parked: 0,
            }),
            wakeup: Condvar::new(),
        }
    }

    /// Whether at least one subscriber is attached. A single uncontended
    /// relaxed load — this is the entire hot-path cost of a streaming sink
    /// with nobody watching.
    #[inline]
    pub fn has_subscribers(&self) -> bool {
        self.subscribers.load(Ordering::Relaxed) != 0
    }

    /// The sequence number the next published frame will receive (equals
    /// the number of frames published so far).
    pub fn next_seq(&self) -> u64 {
        self.lock().next_seq
    }

    /// Attaches a new subscriber with a ring of `capacity` frames
    /// (clamped to at least 1).
    pub fn subscribe(self: &Arc<Self>, capacity: usize) -> Subscription<E> {
        let mut inner = self.lock();
        let id = inner.next_id;
        inner.next_id += 1;
        let capacity = capacity.max(1);
        inner.slots.push(SubscriberSlot {
            id,
            capacity,
            ring: VecDeque::with_capacity(capacity),
            dropped: 0,
            delivered: 0,
        });
        self.subscribers.fetch_add(1, Ordering::Relaxed);
        Subscription {
            hub: Arc::clone(self),
            id,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HubInner<E>> {
        // Subscriber rings hold plain data; a panic while holding the lock
        // cannot leave them in a broken state, so poisoning is ignored.
        match self.inner.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

impl<E: Clone> StreamHub<E> {
    /// Publishes one event to every attached subscriber, assigning it the
    /// next feed-global sequence number.
    ///
    /// Cost model:
    ///
    /// * no subscriber: one relaxed load, and it returns without assigning
    ///   a sequence number (publishers normally never even get here
    ///   because the streaming sinks answer `enabled() == false`);
    /// * subscribers attached, none parked in
    ///   [`Subscription::recv_timeout`]: one uncontended lock and a copy
    ///   into each ring, no syscall;
    /// * a subscriber parked: additionally one condvar wake per publish,
    ///   until the woken subscriber has taken the lock and drained.
    ///
    /// A full subscriber ring evicts its oldest frame and bumps that
    /// subscriber's drop counter — publishing never blocks on consumers.
    pub fn publish(&self, event: E) {
        if !self.has_subscribers() {
            return;
        }
        let mut inner = self.lock();
        if inner.slots.is_empty() {
            return; // raced with the last unsubscribe; nothing to sequence
        }
        let seq = inner.next_seq;
        inner.next_seq += 1;
        for slot in &mut inner.slots {
            if slot.ring.len() == slot.capacity {
                slot.ring.pop_front();
                slot.dropped += 1;
            }
            slot.ring.push_back(Framed {
                seq,
                event: event.clone(),
            });
        }
        // A subscriber drains its ring under this lock before it parks,
        // so one that is not counted here has already seen this frame or
        // will see it before it waits: skipping the wake loses nothing.
        let wake = inner.parked != 0;
        drop(inner);
        if wake {
            self.wakeup.notify_all();
        }
    }
}

/// One attached subscriber of a [`StreamHub`]. Dropping it detaches the
/// subscriber and frees its ring.
pub struct Subscription<E> {
    hub: Arc<StreamHub<E>>,
    id: u64,
}

impl<E> fmt::Debug for Subscription<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Subscription")
            .field("id", &self.id)
            .finish()
    }
}

impl<E> Subscription<E> {
    /// Drains up to `max` buffered frames without blocking (pass
    /// `usize::MAX` for "everything buffered").
    pub fn drain(&self, max: usize) -> Vec<Framed<E>> {
        let mut inner = self.hub.lock();
        self.drain_slot(&mut inner, max)
    }

    /// Waits up to `timeout` for at least one frame, then drains up to
    /// `max`. Returns an empty vector on timeout, and at once when `max`
    /// is 0. A timeout too large to add to the current instant (such as
    /// `Duration::MAX`) waits with no deadline.
    pub fn recv_timeout(&self, timeout: Duration, max: usize) -> Vec<Framed<E>> {
        if max == 0 {
            return Vec::new();
        }
        let deadline = Instant::now().checked_add(timeout);
        let mut inner = self.hub.lock();
        loop {
            let drained = self.drain_slot(&mut inner, max);
            if !drained.is_empty() {
                return drained;
            }
            let remaining = match deadline {
                Some(deadline) => {
                    let left = deadline.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        return Vec::new();
                    }
                    Some(left)
                }
                None => None,
            };
            // Counted under the lock the ring was just found empty under,
            // so the next publish sees this subscriber and wakes it.
            inner.parked += 1;
            inner = match remaining {
                Some(remaining) => match self.hub.wakeup.wait_timeout(inner, remaining) {
                    Ok((g, _)) => g,
                    Err(poisoned) => poisoned.into_inner().0,
                },
                None => match self.hub.wakeup.wait(inner) {
                    Ok(g) => g,
                    Err(poisoned) => poisoned.into_inner(),
                },
            };
            inner.parked -= 1;
        }
    }

    /// This subscriber's delivery counters.
    pub fn stats(&self) -> SubscriberStats {
        let inner = self.hub.lock();
        match inner.slots.iter().find(|s| s.id == self.id) {
            Some(slot) => SubscriberStats {
                dropped: slot.dropped,
                delivered: slot.delivered,
                lag: slot.ring.len() as u64,
                capacity: slot.capacity as u64,
            },
            None => SubscriberStats::default(),
        }
    }

    fn drain_slot(&self, inner: &mut HubInner<E>, max: usize) -> Vec<Framed<E>> {
        let Some(slot) = inner.slots.iter_mut().find(|s| s.id == self.id) else {
            return Vec::new();
        };
        let take = slot.ring.len().min(max);
        slot.delivered += take as u64;
        slot.ring.drain(..take).collect()
    }
}

impl<E> Drop for Subscription<E> {
    fn drop(&mut self) {
        let mut inner = self.hub.lock();
        if let Some(pos) = inner.slots.iter().position(|s| s.id == self.id) {
            inner.slots.swap_remove(pos);
            self.hub.subscribers.fetch_sub(1, Ordering::Relaxed);
        }
    }
}

// ----------------------------------------------------------- sink adapters

/// A [`MetricsSink`] that publishes every emitted event to a
/// [`StreamHub`]`<MetricsEvent>`.
///
/// With zero subscribers, [`MetricsSink::enabled`] answers `false` from a
/// single relaxed load, so instrumented callers never construct events and
/// the hot path stays allocation-free (the `NoopSink` guarantee). Counter,
/// gauge and histogram hooks keep their no-op defaults: live feeds carry
/// the structured event stream only.
#[derive(Debug, Clone)]
pub struct StreamingSink {
    hub: Arc<StreamHub<MetricsEvent>>,
}

impl StreamingSink {
    /// Creates a sink publishing to `hub`.
    pub fn new(hub: Arc<StreamHub<MetricsEvent>>) -> Self {
        StreamingSink { hub }
    }

    /// The hub this sink publishes to.
    pub fn hub(&self) -> &Arc<StreamHub<MetricsEvent>> {
        &self.hub
    }
}

impl MetricsSink for StreamingSink {
    fn enabled(&self) -> bool {
        self.hub.has_subscribers()
    }

    fn emit(&self, event: &MetricsEvent) {
        self.hub.publish(event.clone());
    }
}

/// A [`TraceSink`] that publishes every span to a
/// [`StreamHub`]`<SpanEvent>`. Same zero-subscriber contract as
/// [`StreamingSink`].
#[derive(Debug, Clone)]
pub struct StreamingTraceSink {
    hub: Arc<StreamHub<SpanEvent>>,
}

impl StreamingTraceSink {
    /// Creates a sink publishing to `hub`.
    pub fn new(hub: Arc<StreamHub<SpanEvent>>) -> Self {
        StreamingTraceSink { hub }
    }

    /// The hub this sink publishes to.
    pub fn hub(&self) -> &Arc<StreamHub<SpanEvent>> {
        &self.hub
    }
}

impl TraceSink for StreamingTraceSink {
    fn enabled(&self) -> bool {
        self.hub.has_subscribers()
    }

    fn span(&self, span: &SpanEvent) {
        self.hub.publish(*span);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_are_sequenced_and_gap_free_for_a_keeping_up_subscriber() {
        let hub = Arc::new(StreamHub::new());
        let sub = hub.subscribe(64);
        for i in 0..10u64 {
            hub.publish(i);
        }
        let frames = sub.drain(usize::MAX);
        assert_eq!(frames.len(), 10);
        for (i, f) in frames.iter().enumerate() {
            assert_eq!(f.seq, i as u64);
            assert_eq!(f.event, i as u64);
        }
        let stats = sub.stats();
        assert_eq!(stats.dropped, 0);
        assert_eq!(stats.delivered, 10);
        assert_eq!(stats.lag, 0);
    }

    #[test]
    fn full_ring_evicts_oldest_and_counts_drops() {
        let hub = Arc::new(StreamHub::new());
        let sub = hub.subscribe(4);
        for i in 0..10u64 {
            hub.publish(i);
        }
        let stats = sub.stats();
        assert_eq!(stats.lag, 4);
        assert_eq!(stats.dropped, 6);
        let frames = sub.drain(usize::MAX);
        // The drop counter equals the seq gap the subscriber observes.
        assert_eq!(frames.first().map(|f| f.seq), Some(6));
        assert_eq!(
            frames.iter().map(|f| f.seq).collect::<Vec<_>>(),
            vec![6, 7, 8, 9]
        );
    }

    #[test]
    fn no_subscribers_means_no_sequencing_and_enabled_false() {
        let hub: Arc<StreamHub<MetricsEvent>> = Arc::new(StreamHub::new());
        let sink = StreamingSink::new(Arc::clone(&hub));
        assert!(!tt_metrics_enabled(&sink));
        hub.publish(MetricsEvent::RoundCompleted {
            round: crate::RoundIndex::new(1),
            wall_ns: 0,
        });
        assert_eq!(hub.next_seq(), 0);
        let _sub = hub.subscribe(8);
        assert!(tt_metrics_enabled(&sink));
    }

    fn tt_metrics_enabled(sink: &dyn MetricsSink) -> bool {
        sink.enabled()
    }

    #[test]
    fn dropping_a_subscription_detaches_it() {
        let hub = Arc::new(StreamHub::new());
        let sub = hub.subscribe(4);
        assert!(hub.has_subscribers());
        drop(sub);
        assert!(!hub.has_subscribers());
        hub.publish(7u64); // must not panic or sequence
        assert_eq!(hub.next_seq(), 0);
    }

    #[test]
    fn framed_roundtrip_and_bare_backcompat() {
        let framed = Framed {
            seq: 41,
            event: 9u64,
        };
        let json = serde_json::to_string(&framed).unwrap();
        assert_eq!(json, "{\"seq\":41,\"event\":9}");
        let back: Framed<u64> = serde_json::from_str(&json).unwrap();
        assert_eq!(back, framed);
        // A pre-framing stream entry is the bare event.
        let bare: Framed<u64> = serde_json::from_str("9").unwrap();
        assert_eq!(bare, Framed { seq: 0, event: 9 });
    }

    #[test]
    fn recv_timeout_returns_published_frames_or_empty() {
        let hub = Arc::new(StreamHub::new());
        let sub = hub.subscribe(4);
        assert!(sub.recv_timeout(Duration::from_millis(5), 8).is_empty());
        let publisher = Arc::clone(&hub);
        let t = std::thread::spawn(move || publisher.publish(3u64));
        let frames = sub.recv_timeout(Duration::from_secs(5), 8);
        t.join().unwrap();
        assert_eq!(frames.len(), 1);
        assert_eq!(frames[0].event, 3);
    }

    /// Spins until `ready` holds for the hub's state, panicking after
    /// `patience`.
    fn await_hub<E>(
        hub: &StreamHub<E>,
        patience: Duration,
        what: &str,
        ready: impl Fn(&HubInner<E>) -> bool,
    ) {
        let started = Instant::now();
        while !ready(&hub.lock()) {
            assert!(started.elapsed() < patience, "{what}");
            std::thread::yield_now();
        }
    }

    #[test]
    fn a_parked_subscriber_is_woken_by_every_publish() {
        const FRAMES: u64 = 200;
        // The consumer would see a frame whose wake was lost only when its
        // wait times out; the publisher gives up well before that.
        const TIMEOUT: Duration = Duration::from_secs(30);
        const PATIENCE: Duration = Duration::from_secs(10);
        let hub = Arc::new(StreamHub::new());
        let sub = hub.subscribe(4);
        let consumer = std::thread::spawn(move || {
            (0..FRAMES)
                .map(|_| sub.recv_timeout(TIMEOUT, usize::MAX))
                .collect::<Vec<_>>()
        });
        for i in 0..FRAMES {
            // Publish only once the consumer has taken every earlier frame
            // and parked again, so each frame takes the wake path.
            await_hub(&hub, PATIENCE, "lost wakeup: consumer stuck", |inner| {
                inner.parked == 1 && inner.slots.first().is_some_and(|s| s.delivered == i)
            });
            hub.publish(i);
        }
        let calls = consumer.join().expect("consumer thread");
        for (i, frames) in calls.iter().enumerate() {
            let seqs: Vec<u64> = frames.iter().map(|f| f.seq).collect();
            assert_eq!(seqs, vec![i as u64], "one frame per call, in order");
        }
        assert_eq!(hub.lock().parked, 0);
    }

    #[test]
    fn recv_timeout_with_max_zero_returns_at_once() {
        let hub = Arc::new(StreamHub::new());
        let sub = hub.subscribe(4);
        hub.publish(1u64);
        let started = Instant::now();
        assert!(sub.recv_timeout(Duration::from_secs(60), 0).is_empty());
        assert!(
            started.elapsed() < Duration::from_secs(30),
            "parked despite max 0"
        );
        assert_eq!(sub.stats().lag, 1, "the buffered frame stays buffered");
    }

    #[test]
    fn recv_timeout_past_the_representable_deadline_waits_without_one() {
        let hub = Arc::new(StreamHub::new());
        let sub = hub.subscribe(4);
        hub.publish(1u64);
        assert_eq!(sub.recv_timeout(Duration::MAX, 8).len(), 1);
        // Parked with no deadline: only the publish can end the wait.
        let (tx, rx) = std::sync::mpsc::channel();
        let consumer =
            std::thread::spawn(move || tx.send(sub.recv_timeout(Duration::MAX, 8)).unwrap());
        await_hub(&hub, Duration::from_secs(10), "never parked", |inner| {
            inner.parked == 1
        });
        hub.publish(2u64);
        let frames = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("the parked subscriber was not woken");
        consumer.join().unwrap();
        assert_eq!(frames.iter().map(|f| f.event).collect::<Vec<_>>(), vec![2]);
    }

    #[test]
    fn progress_event_accessors_and_roundtrip() {
        let e = ProgressEvent::Chunk {
            job: 3,
            completed: 10,
            total: 20,
            quarantined: 1,
            checkpoint_seq: 2,
            items_per_sec: 12.5,
        };
        assert_eq!(e.kind(), "chunk");
        assert_eq!(e.job(), 3);
        let json = serde_json::to_string(&e).unwrap();
        let back: ProgressEvent = serde_json::from_str(&json).unwrap();
        assert_eq!(back, e);
    }
}
