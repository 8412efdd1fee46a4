//! Proves the tentpole claim: with `TraceMode::Off`, steady-state
//! `Cluster::run_round` performs no heap allocation — the engine reuses its
//! cluster-owned scratch buffers and `Bytes` payload clones are reference
//! count bumps. The same holds with the observability layer attached via
//! the default `NoopSink`: the metrics hooks are disabled no-ops, so
//! instrumentation is zero-cost unless a recording sink is installed.
//!
//! The whole check lives in ONE `#[test]` on purpose: the counting
//! allocator is process-global, and concurrent tests in the same binary
//! would pollute the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use std::sync::Arc;

use tt_core::{BatchDiagJob, BatchLaneParams, DiagJob, ProtocolConfig};
use tt_fault::{
    schedule_pipeline, FaultSchedule, ProtocolUnderTest, ScheduledClass, ScheduledFault,
};
use tt_sim::{
    BatchCluster, BatchFaultPlan, ClusterBuilder, LaneEffect, LaneFault, NoFaults, NoopSink,
    NoopTraceSink, RecordingSink, RecordingTraceSink, RoundIndex, SlotEffect, StreamHub,
    StreamingSink, StreamingTraceSink, TraceMode, TxCtx,
};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::SeqCst)
}

/// Runs `measure` up to three times and returns the minimum allocation
/// delta observed. The counting allocator is process-global, so another
/// thread in the test process (e.g. the libtest harness) can sneak a stray
/// allocation into a measurement window; the minimum over a few attempts
/// isolates the deterministic per-round cost the test pins down.
fn min_allocation_delta(mut measure: impl FnMut() -> u64) -> u64 {
    (0..3).map(|_| measure()).min().expect("three attempts")
}

#[test]
fn steady_state_run_round_allocates_nothing_with_trace_off() {
    // Healthy bus.
    let mut cluster = ClusterBuilder::new(8)
        .trace_mode(TraceMode::Off)
        .build(Box::new(NoFaults))
        .expect("valid cluster");
    // Warm-up: fills the engine scratch buffers and the controllers'
    // collision-history windows (capacity 16 rounds).
    cluster.run_rounds(32);
    let delta = min_allocation_delta(|| {
        let before = allocations();
        cluster.run_rounds(256);
        allocations() - before
    });
    assert_eq!(
        delta, 0,
        "healthy steady-state rounds must not allocate (2048 slots ran)"
    );

    // A closure pipeline injecting benign faults: still allocation-free,
    // since benign receptions carry no payload and, with tracing off, no
    // effect record is built.
    let pipeline = |ctx: &TxCtx| {
        if ctx.abs_slot % 7 == 3 {
            SlotEffect::Benign
        } else {
            SlotEffect::Correct
        }
    };
    let mut cluster = ClusterBuilder::new(4)
        .trace_mode(TraceMode::Off)
        .build(Box::new(pipeline))
        .expect("valid cluster");
    cluster.run_rounds(32);
    let delta = min_allocation_delta(|| {
        let before = allocations();
        cluster.run_rounds(256);
        allocations() - before
    });
    assert_eq!(
        delta, 0,
        "benign-fault steady-state rounds must not allocate with tracing off"
    );
    assert_eq!(cluster.round(), RoundIndex::new(32 + 3 * 256));

    // The explorer's schedule pipeline builds each fault's effect once, so
    // benign, malicious and asymmetric hits fill the engine's slot buffer
    // in place: the malicious payload is a reference-count bump and the
    // asymmetric receiver set is read, not cloned.
    let fault = |node, stride, class| ScheduledFault {
        node,
        round: 2,
        hits: 1_000,
        stride,
        class,
    };
    let schedule = FaultSchedule {
        n: 4,
        rounds: 800,
        penalty_threshold: 1_000_000,
        reward_threshold: 1_000_000,
        faults: vec![
            fault(1, 3, ScheduledClass::Benign),
            fault(2, 2, ScheduledClass::Malicious { payload: 0xAB }),
            fault(
                4,
                1,
                ScheduledClass::Asymmetric {
                    detected_by: vec![0, 2],
                },
            ),
        ],
        protocol: ProtocolUnderTest::Diag,
    };
    let mut scheduled = ClusterBuilder::new(4)
        .trace_mode(TraceMode::Off)
        .build(schedule_pipeline(&schedule))
        .expect("valid cluster");
    scheduled.run_rounds(32);
    let delta = min_allocation_delta(|| {
        let before = allocations();
        scheduled.run_rounds(256);
        allocations() - before
    });
    assert_eq!(
        delta, 0,
        "scheduled benign, malicious and asymmetric faults must not allocate with tracing off"
    );

    // An explicitly NoopSink-instrumented cluster is just as free: every
    // metrics hook is a virtual no-op call and no event is ever built
    // (`MetricsSink::enabled()` is false), so the observability layer costs
    // the fast path nothing.
    let mut instrumented = ClusterBuilder::new(8)
        .trace_mode(TraceMode::Off)
        .metrics_sink(Arc::new(NoopSink))
        .build(Box::new(NoFaults))
        .expect("valid cluster");
    instrumented.run_rounds(32);
    let delta = min_allocation_delta(|| {
        let before = allocations();
        instrumented.run_rounds(256);
        allocations() - before
    });
    assert_eq!(
        delta, 0,
        "NoopSink-instrumented steady-state rounds must not allocate (2048 slots ran)"
    );

    // The provenance-tracing layer follows the same contract: a cluster
    // with an explicit NoopTraceSink installed (tracing wired in, but
    // `TraceSink::enabled()` false) stays allocation-free even while
    // faults stream over the bus — the engine's SlotFault span sits
    // behind the `enabled()` guard like everything else.
    let faulty = |ctx: &TxCtx| {
        if ctx.abs_slot % 7 == 3 {
            SlotEffect::Benign
        } else {
            SlotEffect::Correct
        }
    };
    let mut noop_traced = ClusterBuilder::new(8)
        .trace_mode(TraceMode::Off)
        .trace_sink(Arc::new(NoopTraceSink))
        .build(Box::new(faulty))
        .expect("valid cluster");
    noop_traced.run_rounds(32);
    let delta = min_allocation_delta(|| {
        let before = allocations();
        noop_traced.run_rounds(256);
        allocations() - before
    });
    assert_eq!(
        delta, 0,
        "NoopTraceSink-instrumented steady-state rounds must not allocate (2048 slots ran)"
    );

    let config = ProtocolConfig::builder(8)
        .penalty_threshold(1_000_000)
        .reward_threshold(1_000_000)
        .build()
        .expect("valid protocol config");

    // The full diagnostic protocol is itself allocation-free in healthy
    // steady state (health logging off): syndromes are `Copy` bitsets, the
    // alignment pipeline recycles its scratch vectors through
    // `AlignmentBuffers::commit`, the voted health vector lands in a reused
    // buffer, and the disseminated payload is a cached `Bytes` whose clone
    // is a reference-count bump while the outgoing syndrome is unchanged.
    let mut diag_cluster = ClusterBuilder::new(8)
        .trace_mode(TraceMode::Off)
        .build_with_jobs(
            |id| Box::new(DiagJob::with_logging(id, config.clone(), false)),
            Box::new(NoFaults),
        );
    diag_cluster.run_rounds(32);
    let delta = min_allocation_delta(|| {
        let before = allocations();
        diag_cluster.run_rounds(256);
        allocations() - before
    });
    assert_eq!(
        delta, 0,
        "healthy DiagJob steady-state rounds must not allocate (2048 slots, 8 protocol instances)"
    );

    // With benign faults streaming, the read/align/vote path is still
    // allocation-free: ε rows cost nothing to represent and accusations
    // flip bits in the `Copy` syndrome. The only remaining allocation is
    // re-encoding the outgoing payload when the accusation pattern actually
    // changes — at most two allocations (the byte vector and its `Bytes`
    // refcount block) per node per round.
    let mut diag_faulty = ClusterBuilder::new(8)
        .trace_mode(TraceMode::Off)
        .build_with_jobs(
            |id| Box::new(DiagJob::with_logging(id, config.clone(), false)),
            Box::new(faulty),
        );
    diag_faulty.run_rounds(32);
    let delta = min_allocation_delta(|| {
        let before = allocations();
        diag_faulty.run_rounds(256);
        allocations() - before
    });
    assert!(
        delta <= 2 * 8 * 256,
        "benign-faulty DiagJob rounds may only pay for payload re-encodes, got {delta}"
    );

    // With health logging ON the jobs do allocate (records are pushed), so
    // for the logged protocol compare like with like: the noop-traced
    // logged cluster must allocate exactly as much as the same cluster
    // with no trace sink at all. Disabled tracing adds zero bytes even on
    // the span-emitting path.
    let faulty_delta = |trace_sink: Option<Arc<NoopTraceSink>>| {
        let mut b = ClusterBuilder::new(8).trace_mode(TraceMode::Off);
        if let Some(sink) = trace_sink {
            b = b.trace_sink(sink);
        }
        let mut cluster = b.build_with_jobs(
            |id| Box::new(DiagJob::new(id, config.clone())),
            Box::new(faulty),
        );
        cluster.run_rounds(32);
        min_allocation_delta(|| {
            let before = allocations();
            cluster.run_rounds(256);
            allocations() - before
        })
    };
    let untraced = faulty_delta(None);
    let traced_noop = faulty_delta(Some(Arc::new(NoopTraceSink)));
    assert_eq!(
        traced_noop, untraced,
        "a NoopTraceSink must not change the faulty path's allocation count"
    );

    // Positive control: swapping in a live RecordingTraceSink on the same
    // faulty protocol run allocates and captures spans, proving the span
    // emission points are wired through the whole pipeline.
    let trace_sink = Arc::new(RecordingTraceSink::new());
    let mut span_traced = ClusterBuilder::new(8)
        .trace_mode(TraceMode::Off)
        .trace_sink(trace_sink.clone())
        .build_with_jobs(
            |id| Box::new(DiagJob::new(id, config.clone())),
            Box::new(faulty),
        );
    span_traced.run_rounds(32);
    let before = allocations();
    span_traced.run_rounds(256);
    assert!(
        allocations() > before,
        "a live RecordingTraceSink is expected to allocate while capturing spans"
    );
    assert!(
        trace_sink.span_count() > 0,
        "the faulty run produced provenance spans"
    );

    // Sanity: the same faulty run with the trace recording anomalies DOES
    // allocate (records are pushed), proving the counter actually counts.
    let mut traced = ClusterBuilder::new(4)
        .trace_mode(TraceMode::Anomalies)
        .build(Box::new(pipeline))
        .expect("valid cluster");
    traced.run_rounds(32);
    let before = allocations();
    traced.run_rounds(256);
    assert!(
        allocations() > before,
        "anomaly tracing of faulty rounds is expected to allocate"
    );

    // The lockstep batch engine inherits the contract: a warmed
    // BatchCluster steady state allocates nothing across all lanes at
    // once, even in the campaign configuration (fingerprints enabled, the
    // streams pre-reserved up front) and with heterogeneous faults
    // streaming — fault effects are pure bitset arithmetic on the
    // structure-of-arrays state. That holds at every cluster size here
    // (N = 8, 16, 64): bus rows, accuser masks and pending masks are all
    // allocated when the batch and the job are built. The faults reach the
    // top syndrome byte.
    let batch_plans = |n: usize| -> Vec<BatchFaultPlan> {
        (0..64)
            .map(|lane| {
                BatchFaultPlan::new(match lane % 4 {
                    0 => Vec::new(),
                    1 => vec![LaneFault {
                        slot: 2,
                        first_round: 8,
                        hits: u64::MAX,
                        stride: 3,
                        effect: LaneEffect::Benign,
                    }],
                    2 => vec![LaneFault {
                        slot: 1,
                        first_round: 10,
                        hits: u64::MAX,
                        stride: 2,
                        effect: LaneEffect::Malicious {
                            mask: 0b10 | 1 << (n - 1),
                        },
                    }],
                    _ => vec![LaneFault {
                        slot: n - 4,
                        first_round: 6,
                        hits: u64::MAX,
                        stride: 1,
                        effect: LaneEffect::Asymmetric {
                            detected_by: 0b101 | 1 << (n - 2),
                            collision_ok: true,
                        },
                    }],
                })
            })
            .collect()
    };
    let params = BatchLaneParams {
        penalty_threshold: 1_000_000,
        reward_threshold: 1_000_000,
    };
    for n in [8, 16, 64] {
        // At N = 64 four lanes (one per fault kind) keep the unoptimized
        // test build quick: fingerprinting 64 observers dominates its cost.
        let lanes = if n == 64 { 4 } else { 64 };
        let plans = batch_plans(n)[..lanes].to_vec();
        let mut batch = BatchCluster::new(n, plans).expect("valid batch");
        let mut batch_job = BatchDiagJob::new(n, &vec![params; lanes]).with_fingerprints(32 + 256);
        batch.run_rounds(32, &mut batch_job);
        let before = allocations();
        batch.run_rounds(256, &mut batch_job);
        assert_eq!(
            allocations() - before,
            0,
            "batched steady-state rounds must not allocate (N = {n}, 256 rounds x {lanes} lanes)"
        );
    }

    // Positive control: the batched recording mode (the equivalence tests'
    // inspection path) pushes health records and counter samples, proving
    // the counter sees the batched job's traffic too.
    let mut batch = BatchCluster::new(8, batch_plans(8)).expect("valid batch");
    let mut recording_job = BatchDiagJob::new(8, &[params; 64]).with_recording();
    batch.run_rounds(32, &mut recording_job);
    let before = allocations();
    batch.run_rounds(256, &mut recording_job);
    assert!(
        allocations() > before,
        "batched recording mode is expected to allocate while capturing logs"
    );
    assert!(
        !recording_job.health_log(0, 0).is_empty(),
        "recording mode captured health records"
    );

    // A serve-capable cluster — streaming metrics AND trace sinks wired to
    // live hubs — with ZERO subscribers attached is exactly as free as the
    // noop configuration: `StreamHub::has_subscribers` is a single relaxed
    // atomic load, so an unobserved `ttdiag serve` job pays nothing on the
    // hot path. No event is built, no lock taken, no frame cloned.
    let metrics_hub = Arc::new(StreamHub::new());
    let spans_hub = Arc::new(StreamHub::new());
    let mut serveable = ClusterBuilder::new(8)
        .trace_mode(TraceMode::Off)
        .metrics_sink(Arc::new(StreamingSink::new(metrics_hub.clone())))
        .trace_sink(Arc::new(StreamingTraceSink::new(spans_hub.clone())))
        .build(Box::new(faulty))
        .expect("valid cluster");
    serveable.run_rounds(32);
    let delta = min_allocation_delta(|| {
        let before = allocations();
        serveable.run_rounds(256);
        allocations() - before
    });
    assert_eq!(
        delta, 0,
        "streaming sinks with zero subscribers must not allocate (2048 slots ran)"
    );

    // Positive control: the moment a subscriber attaches, the same cluster
    // starts delivering framed events — and because the subscriber ring is
    // preallocated at subscribe time and `MetricsEvent` is `Copy`, even
    // the *observed* hot path stays allocation-free while frames flow.
    let subscription = metrics_hub.subscribe(1024);
    let delta = min_allocation_delta(|| {
        let before = allocations();
        serveable.run_rounds(16);
        allocations() - before
    });
    assert_eq!(
        delta, 0,
        "publishing into a preallocated subscriber ring must not allocate"
    );
    let frames = subscription.drain(usize::MAX);
    assert!(!frames.is_empty(), "the subscriber received live frames");
    drop(subscription);

    // And a live RecordingSink allocates too (events are captured), proving
    // the instrumentation points are actually wired into the engine.
    let recording = Arc::new(RecordingSink::new());
    let mut recorded = ClusterBuilder::new(4)
        .trace_mode(TraceMode::Off)
        .metrics_sink(recording.clone())
        .build(Box::new(NoFaults))
        .expect("valid cluster");
    recorded.run_rounds(32);
    let before = allocations();
    recorded.run_rounds(256);
    assert!(
        allocations() > before,
        "a live RecordingSink is expected to allocate while capturing events"
    );
    assert!(
        recording.event_count() >= 288,
        "one event per round at least"
    );
}
