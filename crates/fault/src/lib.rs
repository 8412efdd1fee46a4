//! # tt-fault — fault injection for simulated time-triggered clusters
//!
//! The software analogue of the paper's experimental apparatus (Sec. 8): a
//! *disturbance node* able to emulate hardware faults in the communication
//! network by corrupting or dropping messages on the bus, plus the
//! scripted fault scenarios and the seeded experiment campaigns used to
//! validate and tune the diagnostic protocol.
//!
//! * [`injector`] — the composable [`DisturbanceNode`] fault pipeline;
//! * [`burst`] — bursty faults (one slot, several slots, whole rounds,
//!   continuous), addressed by slot, round or physical time;
//! * [`noise`] — random noise, spikes, and silence periods (the paper's
//!   three physical injection classes);
//! * [`bitflip`] — corruption grounded one layer lower: bit flips on the
//!   CRC-protected wire frame, with detectability emerging from the CRC
//!   check instead of being declared;
//! * [`malicious`] — malicious *content* faults: a node disseminating
//!   random local syndromes, asymmetric (SOS-like) disturbances, clique
//!   partitions;
//! * [`scenario`] — the abnormal transient scenarios of Table 3 (automotive
//!   blinking light, aerospace lightning bolt);
//! * [`campaign`] — the Sec. 8 validation campaign: experiment classes,
//!   seeded repetitions, and property-oracle verdicts;
//! * [`mod@explore`] — coverage-guided exploration of bounded fault schedules
//!   with counterexample shrinking and a replayable corpus, generic over
//!   the protocol under test (base diagnosis, Sec. 7 membership, Sec. 10
//!   low latency);
//! * [`oracles`] — the membership and low-latency oracle stacks the
//!   explorer checks: view synchrony, wrongful exclusion, membership /
//!   clique liveness, and the Sec. 10 latency bound;
//! * [`batch_eval`] — lockstep (structure-of-arrays) evaluation of whole
//!   slates of fault schedules, byte-identical to the scalar path;
//! * [`harness`] — faults injected into the *harness itself* (panicking,
//!   hanging, transiently failing experiments) plus the supervision
//!   vocabulary: retry/backoff policy, Alg. 2-style worker health,
//!   quarantine records;
//! * [`checkpoint`] — atomic progress snapshots for campaigns and
//!   explorer sessions, including exact RNG stream position, so resumed
//!   runs are byte-identical to uninterrupted ones.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch_eval;
pub mod bitflip;
pub mod burst;
pub mod campaign;
pub mod checkpoint;
pub mod explore;
pub mod harness;
pub mod injector;
pub mod malicious;
pub mod noise;
pub mod oracles;
pub mod sampled;
pub mod scenario;

pub use batch_eval::{execute_schedules_batched, lane_params, lane_plan};
pub use bitflip::{BitNoise, CrcForger, ReceiverLocalBitNoise};
pub use burst::{Burst, ContinuousFault, IntermittentFault, SenderBurst};
pub use campaign::{
    experiment_seed, extended_classes, run_campaign, run_experiment, run_experiment_observed,
    run_extended, sec8_classes, CampaignResult, ExperimentClass, ExperimentOutcome,
    ExperimentSinks, ExtendedClass,
};
pub use checkpoint::{
    read_json, write_json_atomic, CampaignCheckpoint, ExploreCheckpoint, RngState,
    CHECKPOINT_VERSION,
};
pub use explore::{
    clique_partition_faults, execute_schedule, execute_schedule_with_oracle, explore, explore_with,
    load_corpus, max_fault_round, no_extra_oracle, round_for, save_schedule, schedule_pipeline,
    seeded_schedule, shrink_schedule, Counterexample, ExploreConfig, ExploreReport, Explorer,
    FaultSchedule, ProtocolUnderTest, ScheduleExec, ScheduleVerdict, ScheduledClass,
    ScheduledFault, Strategy, LAG, MIN_FAULT_ROUND,
};
pub use harness::{
    splitmix64, BackoffPolicy, ChaosPlan, HarnessFault, HarnessFaultHook, NoHarnessFaults,
    QuarantineReason, QuarantineRecord, SupervisionSummary, WorkerHealth, WorkerStats,
};
pub use injector::{Disturbance, DisturbanceNode};
pub use malicious::{AsymmetricDisturbance, CliquePartition, RandomSyndromeJob};
pub use noise::{RandomNoise, Spike};
pub use oracles::{execute_lowlat_schedule, execute_membership_schedule};
pub use sampled::{
    first_victim_arrival, observe_schedule, observe_schedules_batched, sampled_schedule,
    victim_arrivals, ObservedIsolation, ScheduleObservation, TransientCell, DECISION_LAG,
    INTERMITTENT_NODE, VICTIM_NODE,
};
pub use scenario::TransientScenario;
