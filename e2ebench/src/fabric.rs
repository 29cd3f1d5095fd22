//! The `fabric` workload: a [`FederatedFabric`] of four brokers on the
//! discrete-event engine over one million subscriptions (250k per
//! Hilbert range). One load thread steps the fabric as fast as it
//! can; each step carries a fixed mix of publications and
//! subscribe/unsubscribe/relocate ops.
//!
//! End-to-end timings are wall clock: a publication completes when the
//! step after which its origin resolved it returns; a control op
//! completes when every live holder of its range has applied it
//! (observed through [`FedNode::range_view`] versions after each step).
//! The traced variant wraps `publish`, the op calls and `step` in
//! spans, then replays the same probes and ops against standalone
//! per-range [`drtree_pubsub::ShardedOracle`]s for the `shard` share.

use std::collections::VecDeque;
use std::time::Instant;

use drtree_pubsub::{FedConfig, FedEngine, FedNode, FederatedFabric};
use drtree_spatial::{Point, Rect};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::replay::{OracleReplay, ReplayOp};
use crate::stats::{self, percentile, ratio, sorted};
use crate::trace::Tracer;
use crate::{nudge, random_rect, scaled_rects, Args, Outcome};

/// Total subscriptions, bulk-populated at set-up.
const SUBSCRIPTIONS: usize = 1_000_000;
/// Broker instances (one Hilbert range each).
const BROKERS: usize = 4;
/// Publications issued per step.
const PUBLISH_PER_STEP: usize = 64;
/// Control ops issued per step.
const OPS_PER_STEP: usize = 16;
/// Steps per second of `--seconds`, split evenly over the episodes of
/// an untraced run. A step costs more the more ops the fabric has
/// applied, so a run bounded by wall time would cover a different
/// stretch of that growth on a faster or a slower host (and a faster
/// program would get a heavier test). A run is therefore a fixed number
/// of steps — the same trajectory on every run — sized to take about
/// `--seconds` on a 2-core x86_64 host.
const STEPS_PER_SECOND: f64 = 250.0;
/// Set-ups per run — each one measured episode of an untraced run;
/// `setup_s` is their median.
const SETUPS: usize = 3;
/// Seed of the subscription dataset and the fabric's network: fixed,
/// so every run measures the same fabric and `--seed` varies the
/// traffic (points and ops).
const DATASET_SEED: u64 = 0x5eed;
/// Steps of mixed traffic that warm the fabric before timing.
const WARM_STEPS: usize = 50;
/// Step budget for settling after populate and after the window.
const SETTLE_STEPS: u64 = 2_000;
/// Post-run probe publications checked against
/// [`FederatedFabric::expected_matches`].
const VERIFY_PROBES: usize = 16;
/// Untraced/traced chunk pairs of a traced run.
const TRACE_CHUNKS: usize = 5;
/// Steps of the traced run whose oracle traffic is replayed.
const REPLAY_STEPS: usize = 2_000;
/// Reach of a relocation along each axis.
const MOVE_REACH: f64 = 8.0;
/// Share of ops that relocate; the rest split between subscribes and
/// unsubscribes.
const MOVE_SHARE: f64 = 0.5;

/// The load thread's traffic source and its mirror of the fabric's client
/// state: the seeded RNG and publication points, live subscriptions,
/// per-range issued sequence numbers and grow-only range MBRs —
/// everything the load thread needs to time op application and count
/// range-level false positives, from public inputs only.
struct Mirror {
    rng: StdRng,
    /// Publication points: the dataset's subscription centers.
    points: Vec<Point<2>>,
    side: f64,
    /// Rectangle by subscription id (`None` once unsubscribed).
    rects: Vec<Option<Rect<2>>>,
    /// Live subscription ids, for uniform picks.
    live: Vec<u64>,
    /// Position of each id in `live`.
    slot: Vec<usize>,
    /// Issued sequence per range (the fabric's own numbering).
    seq: Vec<u64>,
    /// Grow-only MBR per range — the summary the fabric routes by.
    mbr: Vec<Option<Rect<2>>>,
}

/// A control op in flight: issue time, and the (range, seq) pairs that
/// must be applied everywhere for it to count as done.
struct PendingOp {
    issued_ns: u64,
    needs: [(usize, u64); 2],
}

/// What one step-driving window measured.
#[derive(Default)]
struct Window {
    steps: u64,
    /// Latency (ms) of every resolved publication.
    publish_ms: Vec<f64>,
    /// `(issue offset ns, latency ms)` per applied control op.
    control_ms: Vec<(u64, f64)>,
    completed: u64,
    candidate_ranges: u64,
    matched_ranges: u64,
    seconds: f64,
    attempted: u64,
    /// Wall time of every step cycle (issue, step, collect), in ms.
    cycle_ms: Vec<f64>,
}

impl Window {
    /// Adds a later window's measurements to this one.
    fn absorb(&mut self, w: Window) {
        self.steps += w.steps;
        self.publish_ms.extend(w.publish_ms);
        self.control_ms.extend(w.control_ms);
        self.completed += w.completed;
        self.candidate_ranges += w.candidate_ranges;
        self.matched_ranges += w.matched_ranges;
        self.seconds += w.seconds;
        self.attempted += w.attempted;
        self.cycle_ms.extend(w.cycle_ms);
    }
}

impl Mirror {
    fn new(fabric: &FederatedFabric<2>, rects: &[Rect<2>], side: f64) -> Self {
        let mut m = Self {
            rng: StdRng::seed_from_u64(DATASET_SEED ^ 0x3a),
            points: rects.iter().map(Rect::center).collect(),
            side,
            rects: rects.iter().copied().map(Some).collect(),
            live: (0..rects.len() as u64).collect(),
            slot: (0..rects.len()).collect(),
            seq: vec![0; BROKERS],
            mbr: vec![None; BROKERS],
        };
        for r in rects {
            let range = fabric.map().shard_of(r);
            m.seq[range] += 1;
            m.grow(range, r);
        }
        m
    }

    /// A seeded publication point.
    fn next_point(&mut self) -> Point<2> {
        self.points[self.rng.gen_range(0..self.points.len())]
    }

    fn grow(&mut self, range: usize, r: &Rect<2>) {
        self.mbr[range] = Some(self.mbr[range].map_or(*r, |m| m.union(r)));
    }

    fn add_live(&mut self, sub: u64, rect: Rect<2>) {
        assert_eq!(sub as usize, self.rects.len(), "fabric ids are sequential");
        self.rects.push(Some(rect));
        self.slot.push(self.live.len());
        self.live.push(sub);
    }

    fn remove_live(&mut self, sub: u64) {
        let i = self.slot[sub as usize];
        self.live.swap_remove(i);
        if let Some(&moved) = self.live.get(i) {
            self.slot[moved as usize] = i;
        }
        self.rects[sub as usize] = None;
    }

    /// Issues one seeded control op against `fabric`; returns the
    /// (range, seq) pairs it must reach and its replay records.
    fn issue(
        &mut self,
        fabric: &mut FederatedFabric<2>,
        replay: Option<&mut [Vec<ReplayOp>]>,
    ) -> Result<[(usize, u64); 2], String> {
        let u: f64 = self.rng.gen_range(0.0..1.0);
        let bump = |m: &mut Self, range: usize| {
            m.seq[range] += 1;
            (range, m.seq[range])
        };
        let id = |sub: u64| drtree_core::ProcessId::from_raw(sub);
        if u < MOVE_SHARE {
            let sub = self.live[self.rng.gen_range(0..self.live.len())];
            let old = self.rects[sub as usize].expect("live");
            let new = nudge(&mut self.rng, &old, MOVE_REACH, self.side);
            let (from, to) = (fabric.map().shard_of(&old), fabric.map().shard_of(&new));
            if !fabric.relocate(sub, new) {
                return Err(format!("relocate of live subscription {sub} refused"));
            }
            self.rects[sub as usize] = Some(new);
            self.grow(to, &new);
            if from == to {
                if let Some(log) = replay {
                    log[from].push(ReplayOp::Move(id(sub), old, new));
                }
                let a = bump(self, from);
                Ok([a, a])
            } else {
                if let Some(log) = replay {
                    log[from].push(ReplayOp::Remove(id(sub), old));
                    log[to].push(ReplayOp::Insert(id(sub), new));
                }
                Ok([bump(self, from), bump(self, to)])
            }
        } else if u < MOVE_SHARE + (1.0 - MOVE_SHARE) / 2.0 {
            let rect = random_rect(&mut self.rng, self.side);
            let range = fabric.map().shard_of(&rect);
            let sub = fabric.subscribe(rect);
            self.add_live(sub, rect);
            self.grow(range, &rect);
            if let Some(log) = replay {
                log[range].push(ReplayOp::Insert(id(sub), rect));
            }
            let a = bump(self, range);
            Ok([a, a])
        } else {
            let sub = self.live[self.rng.gen_range(0..self.live.len())];
            let rect = self.rects[sub as usize].expect("live");
            let range = fabric.map().shard_of(&rect);
            if !fabric.unsubscribe(sub) {
                return Err(format!("unsubscribe of live subscription {sub} refused"));
            }
            self.remove_live(sub);
            if let Some(log) = replay {
                log[range].push(ReplayOp::Remove(id(sub), rect));
            }
            let a = bump(self, range);
            Ok([a, a])
        }
    }
}

/// Per-range oracle traffic for the replay, recorded for the first
/// `steps_left` steps.
struct ReplayLog {
    per_range: Vec<Vec<ReplayOp>>,
    steps_left: usize,
}

/// Lowest version of `range` over the live brokers holding it.
fn applied_version(fabric: &FederatedFabric<2>, range: usize) -> u64 {
    (0..fabric.brokers())
        .filter_map(|b| {
            fabric
                .node(b)
                .and_then(|n: &FedNode<2>| n.range_view(range))
        })
        .map(|v| v.version)
        .min()
        .unwrap_or(0)
}

/// One set-up — the same work for every seed: populate and settle a
/// fresh fabric, then warm it with mixed traffic. Returns the fabric,
/// its mirror, and the populate, settle and total seconds.
fn setup(
    rects: &[Rect<2>],
    side: f64,
    world: &Rect<2>,
) -> Result<(FederatedFabric<2>, Mirror, [f64; 3]), String> {
    let t0 = Instant::now();
    let mut fabric = FederatedFabric::new(
        BROKERS,
        world,
        DATASET_SEED,
        FedEngine::Event,
        FedConfig::default(),
    );
    fabric.bulk_populate(rects);
    let populate_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    if !fabric.settle(SETTLE_STEPS) {
        return Err(format!(
            "populated fabric never settled: {:?}",
            fabric.check_legal()
        ));
    }
    let settle_s = t1.elapsed().as_secs_f64();
    let mut mirror = Mirror::new(&fabric, rects, side);
    for _ in 0..WARM_STEPS {
        for _ in 0..PUBLISH_PER_STEP {
            fabric.publish(mirror.next_point());
        }
        for _ in 0..OPS_PER_STEP {
            mirror.issue(&mut fabric, None)?;
        }
        fabric.step();
    }
    if !fabric.settle(SETTLE_STEPS) {
        return Err(format!(
            "warmed fabric never settled: {:?}",
            fabric.check_legal()
        ));
    }
    Ok((
        fabric,
        mirror,
        [populate_s, settle_s, t0.elapsed().as_secs_f64()],
    ))
}

/// Drives `steps` steps. With a tracer, wraps every call in a span;
/// logs oracle traffic while `replay` has steps left.
fn drive(
    fabric: &mut FederatedFabric<2>,
    mirror: &mut Mirror,
    steps: u64,
    mut tracer: Option<&mut Tracer>,
    replay: &mut ReplayLog,
    errors: &mut Vec<String>,
) -> Window {
    let clock = Instant::now();
    let now_ns = || clock.elapsed().as_nanos() as u64;
    let mut w = Window::default();
    let first_event = fabric.completed().len();
    let mut seen = first_event;
    let mut issued: Vec<(u64, Point<2>)> = Vec::new();
    // The window's first publication also tells where its event ids
    // start (ids are sequential).
    let first = mirror.next_point();
    let event0 = fabric.publish(first);
    issued.push((now_ns(), first));
    let mut pending: VecDeque<PendingOp> = VecDeque::new();
    while w.steps < steps {
        let cycle_start = now_ns();
        let logging = replay.steps_left > 0;
        let step_span = tracer
            .as_deref_mut()
            .map(|t| t.begin("federation.step_cycle", None, w.steps));
        for _ in 0..PUBLISH_PER_STEP {
            let p = mirror.next_point();
            let t = now_ns();
            let event = match tracer.as_deref_mut() {
                Some(tr) => {
                    tr.span("federation.publish", step_span, w.steps, || {
                        fabric.publish(p)
                    })
                    .0
                }
                None => fabric.publish(p),
            };
            debug_assert_eq!(event - event0, issued.len() as u64);
            issued.push((t, p));
            if logging {
                for range_log in &mut replay.per_range {
                    range_log.push(ReplayOp::Probe(p));
                }
            }
        }
        for _ in 0..OPS_PER_STEP {
            let t = now_ns();
            let log = logging.then_some(replay.per_range.as_mut_slice());
            let result = match tracer.as_deref_mut() {
                Some(tr) => {
                    tr.span("federation.op", step_span, w.steps, || {
                        mirror.issue(fabric, log)
                    })
                    .0
                }
                None => mirror.issue(fabric, log),
            };
            match result {
                Ok(needs) => pending.push_back(PendingOp {
                    issued_ns: t,
                    needs,
                }),
                Err(e) => errors.push(e),
            }
        }
        match tracer.as_deref_mut() {
            Some(tr) => {
                tr.span("federation.step", step_span, w.steps, || fabric.step());
            }
            None => fabric.step(),
        }
        if logging {
            for range_log in &mut replay.per_range {
                range_log.push(ReplayOp::Flush);
            }
            replay.steps_left -= 1;
        }
        if let (Some(tr), Some(id)) = (tracer.as_deref_mut(), step_span) {
            tr.end(id);
        }
        w.steps += 1;
        let t = now_ns();
        let done = fabric.completed();
        for ev in &done[seen..] {
            let Some(&(at, point)) = ev
                .event
                .checked_sub(event0)
                .and_then(|i| issued.get(i as usize))
            else {
                continue;
            };
            w.publish_ms.push((t - at) as f64 / 1e6);
            w.completed += 1;
            // Range-level routing precision: ranges whose grow-only
            // summary MBR admits the point vs ranges holding a match.
            w.candidate_ranges += mirror
                .mbr
                .iter()
                .filter(|m| m.is_some_and(|m| m.contains_point(&point)))
                .count() as u64;
            let mut hit = [false; BROKERS];
            for &sub in &ev.subs {
                if let Some(Some(r)) = mirror.rects.get(sub as usize) {
                    hit[fabric.map().shard_of(r)] = true;
                }
            }
            w.matched_ranges += hit.iter().filter(|&&h| h).count() as u64;
        }
        seen = done.len();
        w.cycle_ms.push((now_ns() - cycle_start) as f64 / 1e6);
        let applied: Vec<u64> = (0..BROKERS).map(|r| applied_version(fabric, r)).collect();
        while let Some(op) = pending.front() {
            if op.needs.iter().all(|&(r, s)| applied[r] >= s) {
                w.control_ms
                    .push((op.issued_ns, (t - op.issued_ns) as f64 / 1e6));
                pending.pop_front();
            } else {
                break;
            }
        }
    }
    w.seconds = clock.elapsed().as_secs_f64();
    w.attempted = issued.len() as u64 + (w.steps * OPS_PER_STEP as u64);
    w
}

/// Settles after a window and checks the fabric's outputs: every
/// publication resolved, the legal predicate, the mirror's sequence
/// numbers, and a seeded sample of deliveries against the reference.
/// Returns the number of failed checks.
fn verify(fabric: &mut FederatedFabric<2>, mirror: &mut Mirror, errors: &mut Vec<String>) -> u64 {
    let before = errors.len();
    if !fabric.settle(SETTLE_STEPS) {
        errors.push(format!(
            "fabric did not settle: {} publications unresolved, legality {:?}",
            fabric.outstanding_events(),
            fabric.check_legal()
        ));
    }
    for range in 0..BROKERS {
        let v = applied_version(fabric, range);
        if v != mirror.seq[range] {
            errors.push(format!(
                "range {range}: applied version {v} != issued {}",
                mirror.seq[range]
            ));
        }
    }
    let mut probes = Vec::new();
    for _ in 0..VERIFY_PROBES {
        let sub = mirror.live[mirror.rng.gen_range(0..mirror.live.len())];
        let p = mirror.rects[sub as usize].expect("live").center();
        probes.push((fabric.publish(p), p));
    }
    if !fabric.settle(SETTLE_STEPS) {
        errors.push("verification probes did not resolve".into());
    }
    for (event, p) in probes {
        let got = fabric
            .completed()
            .iter()
            .rev()
            .find(|c| c.event == event)
            .map(|c| c.subs.clone());
        let want = fabric.expected_matches(&p);
        if got.as_ref() != Some(&want) {
            errors.push(format!(
                "event {event}: delivered {got:?}, expected {want:?}"
            ));
        }
    }
    (errors.len() - before) as u64
}

/// Runs the `fabric` workload.
pub fn run(args: &Args) -> Outcome {
    let (rects, side) = scaled_rects(SUBSCRIPTIONS, DATASET_SEED);
    let world = Rect::new([0.0, 0.0], [side, side]);
    if args.trace {
        run_traced(args, &rects, side, &world)
    } else {
        run_untraced(args, &rects, side, &world)
    }
}

/// The untraced run: every set-up instance runs one measured episode
/// of the same number of steps, with its own slice of the seeded
/// traffic, and is then verified. How fast a fabric instance steps
/// varies by ±10 % between instances given identical inputs on the
/// reference host; the timings are the means over the episodes, which
/// averages that out. A publication percentile is taken over all of an
/// episode's publications (~213k at 40 s): a compaction pause stalls ~200 of
/// them, too few to move even p99.
fn run_untraced(args: &Args, rects: &[Rect<2>], side: f64, world: &Rect<2>) -> Outcome {
    let mut o = Outcome::default();
    let mut errors = Vec::new();
    let steps = (args.seconds * STEPS_PER_SECOND / SETUPS as f64).ceil() as u64;
    let mut setup_s = Vec::with_capacity(SETUPS);
    let (mut p50, mut p99, mut capacity) = (Vec::new(), Vec::new(), Vec::new());
    let mut total = Window::default();
    let mut msgs = 0u64;
    let mut no_replay = ReplayLog {
        per_range: Vec::new(),
        steps_left: 0,
    };
    for episode in 0..SETUPS as u64 {
        let (mut fabric, mut mirror, t) = match setup(rects, side, world) {
            Ok(ready) => ready,
            Err(e) => {
                o.check(false, e);
                o.failed = 1;
                return o;
            }
        };
        setup_s.push(t[2]);
        mirror.rng = StdRng::seed_from_u64(args.seed ^ 0xfab ^ (episode << 32));
        let before = fabric.metrics().clone();
        let mut w = drive(
            &mut fabric,
            &mut mirror,
            steps,
            None,
            &mut no_replay,
            &mut errors,
        );
        let after = fabric.metrics();
        let label = |n: &str| after.label_count(n) - before.label_count(n);
        msgs += label("fed-publish") + label("fed-forward") + label("fed-matches");
        let latency = sorted(std::mem::take(&mut w.publish_ms));
        p50.push(percentile(&latency, 5_000).unwrap_or(0.0));
        p99.push(percentile(&latency, 9_900).unwrap_or(0.0));
        capacity.push(ratio(w.completed as f64, w.seconds));
        eprintln!(
            "  episode {episode}: {} steps, {} publications completed, {} control ops applied in {:.2} s",
            w.steps,
            w.completed,
            w.control_ms.len(),
            w.seconds
        );
        total.absorb(w);
        verify(&mut fabric, &mut mirror, &mut errors);
    }
    let mean = |v: &[f64]| stats::mean(v).expect("SETUPS > 0");
    o.set("setup_s", stats::median(&setup_s).expect("SETUPS > 0"));
    o.set("publish_p50_ms", mean(&p50));
    o.set("publish_p99_ms", mean(&p99));
    o.set("publish_capacity_eps", mean(&capacity));
    o.set("msgs_per_event", ratio(msgs as f64, total.completed as f64));
    o.set(
        "false_positive_rate",
        1.0 - ratio(total.matched_ranges as f64, total.candidate_ranges as f64),
    );
    o.attempted = total.attempted + (SETUPS * VERIFY_PROBES) as u64;
    o.failed = errors.len() as u64;
    for e in errors {
        o.check(false, e);
    }
    o
}

/// The traced run: set up [`SETUPS`] times for the set-up medians, then
/// alternate untraced and traced chunks on the last instance.
fn run_traced(args: &Args, rects: &[Rect<2>], side: f64, world: &Rect<2>) -> Outcome {
    let mut o = Outcome::default();
    let mut times = Vec::new();
    let mut last = None;
    let mut errors = Vec::new();
    for _ in 0..SETUPS {
        drop(last.take());
        match setup(rects, side, world) {
            Ok((fabric, mirror, t)) => {
                times.push(t);
                last = Some((fabric, mirror));
            }
            Err(e) => {
                o.check(false, e);
                o.failed = 1;
                return o;
            }
        }
    }
    let (mut fabric, mut mirror) = last.expect("SETUPS > 0");
    mirror.rng = StdRng::seed_from_u64(args.seed ^ 0xfab);
    let median_of = |i: usize| {
        stats::median(&times.iter().map(|t| t[i]).collect::<Vec<_>>()).expect("SETUPS > 0")
    };
    o.set("federation.populate_s", median_of(0));
    o.set("federation.settle_s", median_of(1));
    // Untraced and traced chunks alternate, so slow stretches of the
    // host and of the fabric's own history hit both alike; the
    // replay log covers the first steps of both kinds.
    let mut tracer = Tracer::new();
    let mut replay = ReplayLog {
        per_range: vec![Vec::new(); BROKERS],
        steps_left: REPLAY_STEPS,
    };
    let replay_start: Vec<Vec<(drtree_core::ProcessId, Rect<2>)>> = {
        let mut per = vec![Vec::new(); BROKERS];
        for &sub in &mirror.live {
            let r = mirror.rects[sub as usize].expect("live");
            per[fabric.map().shard_of(&r)].push((drtree_core::ProcessId::from_raw(sub), r));
        }
        per
    };
    let chunk_steps = (args.seconds * STEPS_PER_SECOND / (2 * TRACE_CHUNKS) as f64).ceil() as u64;
    let (mut reference, mut w) = (Window::default(), Window::default());
    let (mut forwards, mut heartbeats, mut sent) = (0u64, 0u64, 0u64);
    let mut resolve = Vec::new();
    for _ in 0..TRACE_CHUNKS {
        reference.absorb(drive(
            &mut fabric,
            &mut mirror,
            chunk_steps,
            None,
            &mut replay,
            &mut errors,
        ));
        let before = fabric.metrics().clone();
        let c0 = fabric.completed().len();
        w.absorb(drive(
            &mut fabric,
            &mut mirror,
            chunk_steps,
            Some(&mut tracer),
            &mut replay,
            &mut errors,
        ));
        let after = fabric.metrics();
        forwards += after.label_count("fed-forward") - before.label_count("fed-forward");
        heartbeats += after.label_count("fed-heartbeat") - before.label_count("fed-heartbeat");
        sent += after.sent() - before.sent();
        resolve.extend(
            fabric.completed()[c0..]
                .iter()
                .map(|c| (c.completed_at - c.injected_at) as f64),
        );
    }
    let mean_us = |name: &str| stats::mean(&tracer.durations_ms(name)).unwrap_or(0.0) * 1e3;
    o.set("ingress.batch_mean", PUBLISH_PER_STEP as f64);
    o.set("federation.step_us", mean_us("federation.step"));
    o.set("federation.publish_us", mean_us("federation.publish"));
    o.set("federation.op_us", mean_us("federation.op"));
    o.set(
        "federation.forwards_per_event",
        ratio(forwards as f64, w.completed as f64),
    );
    let resolve = sorted(resolve);
    o.set(
        "federation.resolve_rounds_p50",
        percentile(&resolve, 5_000).unwrap_or(0.0),
    );
    o.set(
        "federation.resolve_rounds_p99",
        percentile(&resolve, 9_900).unwrap_or(0.0),
    );
    o.set("sim.fed_msgs_per_step", ratio(sent as f64, w.steps as f64));
    o.set("sim.msgs_per_round", ratio(sent as f64, w.steps as f64));
    o.set("sim.heartbeat_share", ratio(heartbeats as f64, sent as f64));
    // Pauses make some steps orders of magnitude slower than the
    // rest, so the two kinds of chunk are compared by median cycle.
    let ref_cycle = stats::median(&reference.cycle_ms).unwrap_or(0.0);
    let traced_cycle = stats::median(&w.cycle_ms).unwrap_or(0.0);
    o.set("trace.overhead", ratio(traced_cycle, ref_cycle) - 1.0);
    // Step-cycle time reconciles with its publish, op and step
    // children; the remainder is the load thread's own bookkeeping.
    let cycle_ms = tracer.total_ns("federation.step_cycle") as f64 / 1e6;
    let parts: Vec<f64> = ["federation.publish", "federation.op", "federation.step"]
        .iter()
        .map(|n| tracer.total_ns(n) as f64 / 1e6)
        .collect();
    o.set(
        "trace.reconcile_gap",
        stats::reconcile_gap(&parts, cycle_ms),
    );
    o.set("trace.spans", tracer.len() as f64);
    for (name, ns) in tracer.self_ns_by_name() {
        eprintln!("  self time {name:<28} {:.3} s", ns as f64 / 1e9);
    }
    drop(tracer);
    let shard = replay_start
        .iter()
        .zip(&replay.per_range)
        .map(|(start, log)| OracleReplay::run(FedConfig::default().oracle_shards, start, log))
        .fold(OracleReplay::default(), |acc, r| acc.merge(&r));
    shard.report(&mut o);
    o.attempted = reference.attempted + w.attempted + VERIFY_PROBES as u64;
    o.failed = errors.len() as u64 + verify(&mut fabric, &mut mirror, &mut errors);
    for e in errors {
        o.check(false, e);
    }
    o
}
