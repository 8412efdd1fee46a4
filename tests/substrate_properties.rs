//! Property-based tests for the substrates added around the protocol:
//! replicated bus merge laws, the engine's slot delivery against a plain
//! per-receiver model, clock-ensemble invariants and the TTP/C baseline's
//! determinism and single-fault guarantees.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use bytes::Bytes;
use proptest::collection::vec;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use tt_baselines::TtpcCluster;
use tt_sim::{
    apply_effect, ClockConfig, ClockEnsemble, Cluster, ClusterBuilder, CollisionDetectorMode,
    FaultPipeline, Job, JobCtx, NodeId, Reception, ReplicatedBus, RoundIndex, SlotEffect,
    SlotOutcome, TraceMode, TxCtx, TxOutcome,
};

fn ctx(n: usize, abs: u64) -> TxCtx {
    TxCtx {
        round: RoundIndex::new(abs / n as u64),
        sender: NodeId::from_slot((abs % n as u64) as usize),
        n_nodes: n,
        abs_slot: abs,
    }
}

/// One slot as the plain `transmit` path saw it: context, the sender's
/// payload and the per-receiver outcome.
type SlotLog = Arc<Mutex<Vec<(TxCtx, Bytes, TxOutcome)>>>;

/// Hands the engine the `transmit_into` outcome of `inner` while logging
/// what `transmit` returns for the same slot (`inner` is stateless, so
/// asking twice is harmless).
struct Recorder {
    inner: Box<dyn FaultPipeline>,
    log: SlotLog,
}

impl FaultPipeline for Recorder {
    fn effect(&mut self, ctx: &TxCtx) -> SlotEffect {
        self.inner.effect(ctx)
    }

    fn transmit_into(&mut self, ctx: &TxCtx, payload: &Bytes, out: &mut SlotOutcome) {
        let legacy = self.inner.transmit(ctx, payload);
        self.log
            .lock()
            .expect("log lock")
            .push((*ctx, payload.clone(), legacy));
        self.inner.transmit_into(ctx, payload, out);
    }
}

/// The payload `node` writes in `round`: 1 to 30 bytes, so both inline and
/// shared `Bytes` travel.
fn payload_of(node: NodeId, round: u64) -> Vec<u8> {
    let len = 1 + (node.index() * 7 + round as usize) % 30;
    (0..len)
        .map(|i| node.index() as u8 ^ (round as u8).wrapping_add(i as u8))
        .collect()
}

/// Writes [`payload_of`] every round and isolates the planned senders.
struct Writer {
    /// `(round, sender)`: isolate `sender` when running in `round`.
    isolations: Vec<(u64, NodeId)>,
}

impl Job for Writer {
    fn execute(&mut self, ctx: &mut JobCtx<'_>) {
        let k = ctx.round().as_u64();
        for &(round, sender) in &self.isolations {
            if round == k {
                ctx.isolate(sender);
            }
        }
        ctx.write_iface(payload_of(ctx.node(), k));
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// What one controller should hold, kept as plainly as possible.
struct ReceiverModel {
    iface: Vec<Option<Vec<u8>>>,
    validity: Vec<bool>,
    last_update: Vec<Option<RoundIndex>>,
    active: Vec<bool>,
    /// Every own-slot collision-detector observation, by round.
    collisions: BTreeMap<u64, bool>,
    mode: CollisionDetectorMode,
}

impl ReceiverModel {
    fn new(n: usize, mode: CollisionDetectorMode) -> Self {
        ReceiverModel {
            iface: vec![None; n],
            validity: vec![false; n],
            last_update: vec![None; n],
            active: vec![true; n],
            collisions: BTreeMap::new(),
            mode,
        }
    }

    fn reported(&self, ok: bool) -> bool {
        match self.mode {
            CollisionDetectorMode::Accurate => ok,
            CollisionDetectorMode::StuckOk => true,
            CollisionDetectorMode::StuckFailed => false,
        }
    }

    /// The collision detector's answer for `round` once `now` has run: an
    /// observation is kept for the 16 rounds up to the newest one.
    fn collision_ok(&self, round: u64, now: u64) -> Option<bool> {
        if round > now || now - round >= 16 {
            return None;
        }
        self.collisions.get(&round).map(|&ok| self.reported(ok))
    }
}

/// A random slot effect over `n` receivers: correct, benign, malicious (1
/// to 30 bytes) or asymmetric over a random subset, sometimes naming a
/// receiver outside the cluster.
fn random_effect(rng: &mut StdRng, n: usize) -> SlotEffect {
    match rng.gen_range(0..10) {
        0..=3 => SlotEffect::Correct,
        4 | 5 => SlotEffect::Benign,
        6 | 7 => {
            let len = rng.gen_range(1..=30);
            SlotEffect::SymmetricMalicious {
                payload: (0..len).map(|_| rng.gen::<u8>()).collect(),
            }
        }
        _ => random_asymmetric(rng, n),
    }
}

fn random_asymmetric(rng: &mut StdRng, n: usize) -> SlotEffect {
    let mut detected_by: Vec<usize> = (0..n).filter(|_| rng.gen_bool(0.4)).collect();
    if rng.gen_bool(0.1) {
        detected_by.push(n + rng.gen_range(0..3usize));
    }
    SlotEffect::Asymmetric {
        detected_by,
        collision_ok: rng.gen_bool(0.5),
    }
}

/// Runs an `n`-node cluster for `rounds` rounds under random per-slot
/// effects, isolations, job offsets and collision-detector modes, and
/// after every round compares each controller with a per-receiver model
/// fed from `FaultPipeline::transmit`. With `replicated`, the bus has two
/// channels: channel B is malicious exactly where channel A is asymmetric
/// and healthy elsewhere, so receivers accept different payloads. Returns
/// how many slots delivered different payloads to different receivers.
fn check_delivery_against_model(seed: u64, n: usize, rounds: u64, replicated: bool) -> usize {
    let mut rng = StdRng::seed_from_u64(seed);
    let slots = (rounds * n as u64) as usize;
    let mut table_a: Vec<SlotEffect> = (0..slots).map(|_| random_effect(&mut rng, n)).collect();
    // Round 1, slot 0: always asymmetric, so the replicated bus mixes.
    table_a[n] = random_asymmetric(&mut rng, n);
    let table_b: Vec<SlotEffect> = table_a
        .iter()
        .map(|e| match e {
            SlotEffect::Asymmetric { .. } => SlotEffect::SymmetricMalicious {
                payload: Bytes::from_static(b"channel B"),
            },
            _ => SlotEffect::Correct,
        })
        .collect();
    let channel = |table: Vec<SlotEffect>| -> Box<dyn FaultPipeline> {
        Box::new(move |ctx: &TxCtx| table[ctx.abs_slot as usize].clone())
    };
    let inner: Box<dyn FaultPipeline> = if replicated {
        Box::new(ReplicatedBus::new(vec![channel(table_a), channel(table_b)]))
    } else {
        channel(table_a)
    };
    let log = SlotLog::default();
    let mut cluster: Cluster = ClusterBuilder::new(n)
        .round_length_ns(n as u64 * 1_000)
        .trace_mode(TraceMode::Off)
        .build(Box::new(Recorder {
            inner,
            log: Arc::clone(&log),
        }))
        .expect("valid cluster");
    let mut offsets = Vec::new();
    let mut plans = Vec::new();
    let mut models = Vec::new();
    for id in NodeId::all(n) {
        let offset = rng.gen_range(0..n);
        let isolations: Vec<(u64, NodeId)> = (0..rng.gen_range(0..3))
            .map(|_| {
                (
                    rng.gen_range(0..rounds),
                    NodeId::from_slot(rng.gen_range(0..n)),
                )
            })
            .collect();
        let mode = match rng.gen_range(0..4) {
            0 => CollisionDetectorMode::StuckOk,
            1 => CollisionDetectorMode::StuckFailed,
            _ => CollisionDetectorMode::Accurate,
        };
        cluster
            .add_job(
                id,
                offset,
                Box::new(Writer {
                    isolations: isolations.clone(),
                }),
            )
            .expect("node in range");
        cluster
            .controller_mut(id)
            .expect("node in range")
            .set_collision_detector_mode(mode);
        offsets.push(offset);
        plans.push(isolations);
        models.push(ReceiverModel::new(n, mode));
    }
    let mut mixed = 0;
    for k in 0..rounds {
        assert!(cluster.run_round());
        let slots: Vec<(TxCtx, Bytes, TxOutcome)> =
            std::mem::take(&mut *log.lock().expect("log lock"));
        assert_eq!(slots.len(), n, "one transmission per slot");
        for (p, (ctx, payload, out)) in slots.into_iter().enumerate() {
            assert_eq!(
                (ctx.round, ctx.sender),
                (RoundIndex::new(k), NodeId::from_slot(p))
            );
            // Jobs at offset p ran before slot p went out.
            for (i, model) in models.iter_mut().enumerate() {
                if offsets[i] == p {
                    for &(round, sender) in &plans[i] {
                        if round == k {
                            model.active[sender.index()] = false;
                        }
                    }
                }
            }
            let accepted: Vec<&Bytes> = out
                .receptions
                .iter()
                .enumerate()
                .filter(|&(rx, _)| rx != p)
                .filter_map(|(_, r)| match r {
                    Reception::Valid(b) => Some(b),
                    Reception::Detected => None,
                })
                .collect();
            if accepted.windows(2).any(|w| w[0] != w[1]) {
                mixed += 1;
            }
            for (rx, model) in models.iter_mut().enumerate() {
                if rx == p {
                    model.collisions.insert(k, out.collision_ok);
                    model.iface[p] = Some(payload.to_vec());
                    model.validity[p] = model.reported(out.collision_ok);
                    model.last_update[p] = Some(ctx.round);
                } else if !model.active[p] {
                    model.validity[p] = false;
                } else {
                    match &out.receptions[rx] {
                        Reception::Valid(b) => {
                            model.iface[p] = Some(b.to_vec());
                            model.validity[p] = true;
                            model.last_update[p] = Some(ctx.round);
                        }
                        Reception::Detected => model.validity[p] = false,
                    }
                }
            }
        }
        for (i, model) in models.iter().enumerate() {
            let id = NodeId::from_slot(i);
            let c = cluster.controller(id).expect("node in range");
            let iface: Vec<Option<Vec<u8>>> = c
                .iface()
                .iter()
                .map(|v| v.as_ref().map(|b| b.to_vec()))
                .collect();
            assert_eq!(iface, model.iface, "iface of {id} after round {k}");
            assert_eq!(
                c.validity_snapshot(),
                model.validity,
                "validity of {id} after round {k}"
            );
            for j in NodeId::all(n) {
                assert_eq!(
                    c.last_update(j),
                    model.last_update[j.index()],
                    "{id}: last_update({j})"
                );
                assert_eq!(c.is_active(j), model.active[j.index()], "{id}: active({j})");
            }
            for r in k.saturating_sub(20)..=k + 1 {
                assert_eq!(
                    c.collision_ok(RoundIndex::new(r)),
                    model.collision_ok(r, k),
                    "{id}: collision_ok(round {r}) after round {k}"
                );
            }
        }
    }
    mixed
}

/// An arbitrary slot effect over `n` nodes (benign-heavy mix).
fn arb_effect(n: usize) -> impl Strategy<Value = SlotEffect> {
    prop_oneof![
        3 => Just(SlotEffect::Correct),
        2 => Just(SlotEffect::Benign),
        1 => vec(any::<bool>(), n).prop_map(move |mask| {
            SlotEffect::Asymmetric {
                detected_by: mask
                    .iter()
                    .enumerate()
                    .filter(|(_, &b)| b)
                    .map(|(i, _)| i)
                    .collect(),
                collision_ok: true,
            }
        }),
        1 => any::<u8>().prop_map(|b| SlotEffect::SymmetricMalicious {
            payload: bytes::Bytes::copy_from_slice(&[b]),
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Redundancy is monotone: adding a channel never turns a valid
    /// reception into a detected one.
    #[test]
    fn replication_never_hurts(e1 in arb_effect(4), e2 in arb_effect(4), abs in 0u64..64) {
        let c = ctx(4, abs);
        let payload = bytes::Bytes::from_static(b"\x0b");
        let single = {
            let eff = e1.clone();
            let mut p = move |_: &TxCtx| eff.clone();
            FaultPipeline::transmit(&mut p, &c, &payload)
        };
        let double = {
            let (ea, eb) = (e1.clone(), e2.clone());
            let mut bus = ReplicatedBus::new(vec![
                Box::new(move |_: &TxCtx| ea.clone()),
                Box::new(move |_: &TxCtx| eb.clone()),
            ]);
            bus.transmit(&c, &payload)
        };
        for rx in 0..4 {
            if single.receptions[rx].is_valid() {
                prop_assert!(
                    double.receptions[rx].is_valid(),
                    "rx {rx}: {single:?} vs {double:?}"
                );
            }
        }
        prop_assert!(double.collision_ok || !single.collision_ok);
    }

    /// A healthy channel anywhere in the stack makes every reception valid.
    #[test]
    fn healthy_channel_heals_everything(e in arb_effect(6), abs in 0u64..64) {
        let c = ctx(6, abs);
        let payload = bytes::Bytes::from_static(b"\x2a");
        let mut bus = ReplicatedBus::new(vec![
            Box::new(move |_: &TxCtx| e.clone()),
            Box::new(tt_sim::NoFaults),
        ]);
        let out = bus.transmit(&c, &payload);
        prop_assert!(out.receptions.iter().all(Reception::is_valid));
        prop_assert!(out.collision_ok);
    }

    /// The replicated merge agrees with the single-channel outcome when all
    /// channels carry the same effect.
    #[test]
    fn identical_channels_match_single(e in arb_effect(4), abs in 0u64..64) {
        let c = ctx(4, abs);
        let payload = bytes::Bytes::from_static(b"\x07");
        let single = apply_effect(&e, &c, &payload);
        let (ea, eb) = (e.clone(), e.clone());
        let mut bus = ReplicatedBus::new(vec![
            Box::new(move |_: &TxCtx| ea.clone()),
            Box::new(move |_: &TxCtx| eb.clone()),
        ]);
        let double = bus.transmit(&c, &payload);
        prop_assert_eq!(&single.receptions, &double.receptions);
        prop_assert_eq!(single.collision_ok, double.collision_ok);
    }

    /// `transmit_into` is observationally identical to the legacy
    /// `transmit` for arbitrary fault effects — through the overridden
    /// closure fast path, the trait-default delegation, and the replicated
    /// bus merge — even when the output buffer is dirty from a previous
    /// slot.
    #[test]
    fn transmit_into_matches_transmit(
        e1 in arb_effect(4),
        e2 in arb_effect(4),
        b in any::<u8>(),
        abs in 0u64..64,
    ) {
        let c = ctx(4, abs);
        let payload = bytes::Bytes::copy_from_slice(&[b]);
        // Dirty the buffer with a different slot's outcome first, so the
        // test also proves a reused buffer is fully overwritten.
        let mut out = SlotOutcome::new();
        {
            let eff = e2.clone();
            let mut dirty = move |_: &TxCtx| eff.clone();
            FaultPipeline::transmit_into(
                &mut dirty,
                &ctx(4, abs + 1),
                &bytes::Bytes::from_static(b"\xde\xad"),
                &mut out,
            );
        }

        // Closure pipelines override transmit_into with an in-place fill.
        let eff = e1.clone();
        let mut closure = move |_: &TxCtx| eff.clone();
        let legacy = FaultPipeline::transmit(&mut closure, &c, &payload);
        FaultPipeline::transmit_into(&mut closure, &c, &payload, &mut out);
        prop_assert_eq!(&out.receptions().collect::<Vec<_>>(), &legacy.receptions);
        prop_assert_eq!(out.collision_ok, legacy.collision_ok);
        prop_assert_eq!(out.class, legacy.class);

        // A pipeline implementing only `effect` uses the trait default,
        // which delegates to `transmit`.
        struct EffectOnly(SlotEffect);
        impl FaultPipeline for EffectOnly {
            fn effect(&mut self, _: &TxCtx) -> SlotEffect {
                self.0.clone()
            }
        }
        let mut default_path = EffectOnly(e1.clone());
        default_path.transmit_into(&c, &payload, &mut out);
        prop_assert_eq!(&out.receptions().collect::<Vec<_>>(), &legacy.receptions);
        prop_assert_eq!(out.collision_ok, legacy.collision_ok);
        prop_assert_eq!(out.class, legacy.class);

        // The replicated bus overrides both methods; they must agree too.
        let mk_bus = |ea: SlotEffect, eb: SlotEffect| {
            ReplicatedBus::new(vec![
                Box::new(move |_: &TxCtx| ea.clone()) as Box<dyn FaultPipeline>,
                Box::new(move |_: &TxCtx| eb.clone()),
            ])
        };
        let bus_legacy = mk_bus(e1.clone(), e2.clone()).transmit(&c, &payload);
        mk_bus(e1.clone(), e2.clone()).transmit_into(&c, &payload, &mut out);
        prop_assert_eq!(&out.receptions().collect::<Vec<_>>(), &bus_legacy.receptions);
        prop_assert_eq!(out.collision_ok, bus_legacy.collision_ok);
        prop_assert_eq!(out.class, bus_legacy.class);
    }

    /// The engine delivers every slot exactly as a plain per-receiver
    /// model fed from `FaultPipeline::transmit` says: interface values,
    /// validity bits, freshness, the active set and the 16-round
    /// collision-detector window, at N = 2, 4, 5 and 64, on a single and a
    /// replicated bus.
    #[test]
    fn delivery_matches_a_per_receiver_model(
        seed in any::<u64>(),
        n in prop_oneof![Just(2usize), Just(4usize), Just(5usize), Just(64usize)],
        replicated in any::<bool>(),
    ) {
        let rounds = if n == 64 { 20 } else { 40 };
        let mixed = check_delivery_against_model(seed, n, rounds, replicated);
        if replicated && n >= 4 {
            prop_assert!(mixed > 0, "receivers accepted different payloads somewhere");
        }
    }

    /// Clock ensembles with in-spec drifts stay synchronized for any seed
    /// and any drift assignment within +-50 ppm.
    #[test]
    fn in_spec_clocks_stay_inside_the_window(
        seed in any::<u64>(),
        drifts in vec(-50.0f64..50.0, 4),
    ) {
        let mut cfg = ClockConfig::healthy(4);
        cfg.drift_ppm = drifts;
        let mut c = ClockEnsemble::new(cfg, seed);
        for _ in 0..300 {
            c.advance_round();
        }
        prop_assert!(c.precision_ns() < 2_000.0, "precision {}", c.precision_ns());
        for i in 0..4 {
            prop_assert!(c.detected_by(i).is_empty());
        }
    }

    /// TTP/C baseline: under a single benign sender fault at any position,
    /// exactly the faulty node is lost, for any cluster size 3..=8.
    #[test]
    fn ttpc_single_fault_guarantee(n in 3usize..=8, round in 3u64..10, sender in 1u32..=3) {
        prop_assume!((sender as usize) <= n);
        let fault = move |ctx: &TxCtx| {
            if ctx.round == RoundIndex::new(round) && ctx.sender == NodeId::new(sender) {
                SlotEffect::Benign
            } else {
                SlotEffect::Correct
            }
        };
        let mut c = TtpcCluster::new(n, Box::new(fault));
        c.run_rounds(round + 6);
        prop_assert_eq!(c.alive(), n - 1);
        prop_assert!(c.is_frozen(NodeId::new(sender)));
        for id in NodeId::all(n).filter(|&x| x != NodeId::new(sender)) {
            prop_assert_eq!(c.membership(id).len(), n - 1, "{}", id);
        }
    }
}
