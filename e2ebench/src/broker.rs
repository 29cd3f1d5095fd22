//! The `publish` and `churn` workloads: a bulk-built [`Broker`] behind
//! a [`MultiBroker`], fed by one open-loop generator thread through two
//! publisher queues, with a control client on a second thread.
//!
//! A run is one or more episodes, each on a freshly built broker, with
//! two measured phases. Phase B (closed loop, first, on the overlay as
//! built) keeps both publisher queues full and measures how many
//! publications per second the commit loop completes. Phase A (open
//! loop) offers Poisson publications at a fixed rate and bills each
//! from its scheduled time, beside the control client (see [`Pacing`]).
//!
//! The traced variant (`--trace 1`) first runs phase B and phase A
//! untraced for a reference, then drives the same phases on the bench
//! thread through the bare [`Broker`] — sweeping what is due, up to the
//! same max batch, as the commit loop does — with spans around each
//! call into the broker and the overlay, and finally replays the oracle
//! traffic against a standalone `ShardedOracle`.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use drtree_core::{DrTreeConfig, ProcessId};
use drtree_pubsub::{Broker, IngressConfig, MultiBroker, PublisherHandle, RoutingStats};
use drtree_sim::Metrics;
use drtree_spatial::{Point, Rect, Schema};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::replay::{OracleReplay, ReplayOp};
use crate::stats::{self, percentile, ratio, sorted};
use crate::trace::Tracer;
use crate::{nudge, poisson_schedule, scaled_rects, Args, Outcome};

/// Bounded capacity of each publisher queue: deep enough that the
/// open-loop backlog never blocks the generator.
const QUEUE_CAPACITY: usize = 512;
/// Upper bound on one committed batch, across both publishers.
const MAX_BATCH: usize = 1024;
/// Overlay dissemination window (events in flight per commit).
const WINDOW: usize = 256;
/// Publisher queues fed by the single generator thread.
const PUBLISHERS: usize = 2;
/// Most windows phase A is split into for publication percentiles
/// (see [`stats::windowed_percentile`]).
const MAX_WINDOWS: usize = 10;
/// Seed of the subscription dataset, the overlay build and the set-up
/// traffic: fixed, so every run measures the same overlay and `--seed`
/// varies the traffic (points, schedules, moves).
const DATASET_SEED: u64 = 0x5eed;
/// Warm-up commits before any timed window.
const WARM_COMMITS: usize = 3;
/// Events per warm-up commit.
const WARM_BATCH: usize = 64;
/// Upper bound on a generator thread's sleep between polls of the
/// commit counter — the resolution of the completion timestamps.
const POLL: Duration = Duration::from_millis(1);
/// Round budget of the read-only legality probe of `publish`.
const PROBE_ROUNDS: u64 = 8;
/// Reach of a subscription move along each axis.
const MOVE_REACH: f64 = 2.0;
/// Lead time between the end of set-up and the first scheduled op.
const LEAD_NS: u64 = 5_000_000;
/// Shares of `--seconds` a traced run spends in phase B and in phase A,
/// once untraced (the reference) and once traced.
const TRACED_CLOSED_SHARE: f64 = 0.15;
const TRACED_OPEN_SHARE: f64 = 0.35;
/// Wait bound for the backlog of a phase to commit after its window.
const DRAIN_LIMIT: Duration = Duration::from_secs(60);

/// How the control client paces its ops in phase A.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Pacing {
    /// Poisson arrivals at this many ops per second; each op is billed
    /// from its scheduled time.
    Open(f64),
    /// One op at a time, each issued an exponential think time of this
    /// mean (seconds) after the previous one returned, and billed from
    /// its issue. A single blocking client cannot keep an open-loop
    /// schedule once ops wait behind commits as long as the gaps
    /// between them.
    Closed(f64),
}

impl Pacing {
    /// When control op `j` is due, given the window start `base`, the
    /// schedule's `control` column and when the previous op returned.
    fn due(self, base: u64, control: &[u64], j: usize, last_return: u64) -> u64 {
        match self {
            Self::Open(_) => base + control[j],
            Self::Closed(_) => last_return.max(base) + control[j],
        }
    }
}

/// What the control stream does.
#[derive(Debug, Clone, Copy, PartialEq)]
enum ControlMix {
    /// Read-only overlay legality probes (`MultiBroker::stabilize` on a
    /// legal overlay): no mutation reaches the oracle.
    Probe,
    /// Continuous-query moves (`MultiBroker::move_subscription`).
    Move,
}

/// One broker workload's fixed parameters.
#[derive(Debug, Clone, Copy)]
struct Spec {
    subscribers: usize,
    /// Offered publications per second in phase A.
    publish_rate: f64,
    /// Pacing of the control client in phase A.
    pacing: Pacing,
    control: ControlMix,
    /// Measured episodes per run, each on its own broker.
    episodes: usize,
    /// Set-ups per episode (the last one is measured); `setup_s` is the
    /// median over all set-ups of the run.
    setups: usize,
    /// Share of `--seconds` spent in phase A; phase B gets the rest.
    open_share: f64,
}

const PUBLISH: Spec = Spec {
    subscribers: 8_192,
    publish_rate: 200.0,
    pacing: Pacing::Closed(0.05),
    control: ControlMix::Probe,
    episodes: 3,
    setups: 2,
    open_share: 0.6,
};

const CHURN: Spec = Spec {
    subscribers: 2_048,
    publish_rate: 250.0,
    pacing: Pacing::Open(5.0),
    control: ControlMix::Move,
    episodes: 1,
    setups: 15,
    open_share: 0.7,
};

/// A control operation, generated from the seed.
#[derive(Debug, Clone, Copy)]
enum ControlOp {
    Probe,
    /// Subscriber, old rectangle, new rectangle.
    Move(ProcessId, Rect<2>, Rect<2>),
}

/// The seeded control-op generator; it tracks subscription positions so
/// the op sequence is a function of the seed alone.
#[derive(Debug, Clone)]
struct ControlGen {
    rng: StdRng,
    mix: ControlMix,
    side: f64,
    /// Live subscriptions, publishers included.
    live: BTreeMap<ProcessId, Rect<2>>,
    /// Subscribers the stream may move (publishers excluded).
    movable: Vec<ProcessId>,
}

impl ControlGen {
    fn next(&mut self) -> ControlOp {
        match self.mix {
            ControlMix::Probe => ControlOp::Probe,
            ControlMix::Move => {
                let id = self.movable[self.rng.gen_range(0..self.movable.len())];
                let old = self.live[&id];
                let new = nudge(&mut self.rng, &old, MOVE_REACH, self.side);
                self.live.insert(id, new);
                ControlOp::Move(id, old, new)
            }
        }
    }
}

/// A broker after set-up: built, publishers chosen, warmed up.
struct Ready {
    broker: Broker<2>,
    publishers: [ProcessId; PUBLISHERS],
    control: ControlGen,
}

/// Builds and warms one broker — the same work for every seed — and
/// returns it with its set-up time and a control generator for `seed`.
fn setup(spec: &Spec, seed: u64, rects: &[Rect<2>], side: f64) -> (Ready, f64) {
    let t0 = Instant::now();
    let (mut broker, ids) = Broker::build_bulk(
        Schema::new(["x", "y"]),
        DrTreeConfig::default(),
        DATASET_SEED,
        rects,
    )
    .expect("two-dimensional schema");
    broker.set_publish_window(WINDOW);
    // Publishers are two of the bulk-built subscribers: no join
    // reshapes the overlay before the run.
    let mut rng = StdRng::seed_from_u64(DATASET_SEED);
    let publishers: [ProcessId; PUBLISHERS] =
        std::array::from_fn(|k| ids[rng.gen_range(0..ids.len() / PUBLISHERS) * PUBLISHERS + k]);
    // Warm-up: the first commits after start-up pay one-off costs, and
    // so does the first control op. Both are billed here, never to a
    // timed window.
    for _ in 0..WARM_COMMITS {
        let batch: Vec<(ProcessId, Point<2>)> = (0..WARM_BATCH)
            .map(|i| {
                (
                    publishers[i % PUBLISHERS],
                    rects[rng.gen_range(0..rects.len())].center(),
                )
            })
            .collect();
        broker
            .publish_batch_multi(&batch)
            .expect("publishers are subscribed");
    }
    let mut control = ControlGen {
        rng,
        mix: spec.control,
        side,
        live: ids.iter().copied().zip(rects.iter().copied()).collect(),
        movable: ids
            .iter()
            .copied()
            .filter(|id| !publishers.contains(id))
            .collect(),
    };
    let warm_op = control.next();
    if let Err(e) = run_control_on_broker(&mut broker, &warm_op, None) {
        panic!("warm-up control op failed: {e}");
    }
    let elapsed = t0.elapsed().as_secs_f64();
    control.rng = StdRng::seed_from_u64(seed ^ 0xc7);
    (
        Ready {
            broker,
            publishers,
            control,
        },
        elapsed,
    )
}

/// Sets up `spec.setups` times (dropping all but the last) and returns
/// the last broker with every set-up time.
fn setup_repeated(spec: &Spec, seed: u64, rects: &[Rect<2>], side: f64) -> (Ready, Vec<f64>) {
    let mut times = Vec::with_capacity(spec.setups);
    let mut last = None;
    for _ in 0..spec.setups {
        drop(last.take());
        let (ready, secs) = setup(spec, seed, rects, side);
        times.push(secs);
        last = Some(ready);
    }
    (last.expect("setups > 0"), times)
}

/// Runs one control op on a bare broker, in a span when traced.
fn run_control_on_broker(
    broker: &mut Broker<2>,
    op: &ControlOp,
    tracer: Option<(&mut Tracer, u64)>,
) -> Result<(), String> {
    let call = |broker: &mut Broker<2>| match *op {
        ControlOp::Probe => broker
            .stabilize(PROBE_ROUNDS)
            .map(|_| ())
            .ok_or_else(|| "legality probe timed out".to_string()),
        ControlOp::Move(id, _, new) => broker
            .move_subscription_rect(id, new)
            .map_err(|e| e.to_string()),
    };
    let name = match op {
        ControlOp::Probe => "cluster.stabilize",
        ControlOp::Move(..) => "broker.move",
    };
    match tracer {
        Some((t, request)) => t.span(name, None, request, || call(broker)).0,
        None => call(broker),
    }
}

/// Runs one control op through the ingress.
fn run_control_on_multi(multi: &MultiBroker<2>, op: &ControlOp) -> Result<(), String> {
    match *op {
        ControlOp::Probe => multi
            .stabilize(PROBE_ROUNDS)
            .map(|_| ())
            .ok_or_else(|| "legality probe timed out".to_string()),
        ControlOp::Move(id, _, new) => multi.move_subscription(id, new).map_err(|e| e.to_string()),
    }
}

/// The seeded inputs of one phase-A window.
struct Schedule {
    /// Window length (ns).
    span: u64,
    pacing: Pacing,
    /// Publication offsets (ns from window start) and points.
    publish_at: Vec<u64>,
    points: Vec<Point<2>>,
    /// Open pacing: control-op offsets (ns from window start). Closed
    /// pacing: the think times (ns) before successive ops; the client
    /// stops at the end of the window.
    control: Vec<u64>,
}

fn schedule(spec: &Spec, seed: u64, rects: &[Rect<2>], seconds: f64) -> Schedule {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xa11);
    let publish_at = poisson_schedule(&mut rng, spec.publish_rate, seconds);
    let points = publish_at
        .iter()
        .map(|_| rects[rng.gen_range(0..rects.len())].center())
        .collect();
    let control = match spec.pacing {
        Pacing::Open(rate) => poisson_schedule(&mut rng, rate, seconds),
        // The gaps of a rate-1/think Poisson stream are exponential
        // think times — more of them than the window can use.
        Pacing::Closed(think) => poisson_schedule(&mut rng, 1.0 / think, seconds)
            .iter()
            .scan(0, |prev, &t| Some(t - std::mem::replace(prev, t)))
            .collect(),
    };
    Schedule {
        span: (seconds * 1e9) as u64,
        pacing: spec.pacing,
        publish_at,
        points,
        control,
    }
}

/// Sleeps until `due` on `clock`, calling `poll` at most every
/// [`POLL`]; returns how late the wake-up was, in ns.
fn wait_until(due: u64, clock: &dyn Fn() -> u64, poll: &mut dyn FnMut()) -> u64 {
    loop {
        poll();
        let now = clock();
        if now >= due {
            return now - due;
        }
        std::thread::sleep(POLL.min(Duration::from_nanos(due - now)));
    }
}

/// Phase-A results of one open-loop window.
#[derive(Debug, Default)]
struct OpenResult {
    publish_ms: Vec<f64>,
    control_ms: Vec<f64>,
    gen_late_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

/// Phase A through the ingress: the generator (this thread) paces the
/// publication schedule over two publisher queues and polls the commit
/// counter for completions; a second thread issues the control stream.
/// Completion of publication `i` is the first poll that sees more than
/// `i` commits — both queues are swept whole each commit, so commits
/// complete in submission order up to one in-flight push.
fn open_multi(
    multi: &MultiBroker<2>,
    handles: &[PublisherHandle<2>],
    sched: &Schedule,
    control: &mut ControlGen,
) -> OpenResult {
    let base = multi.now_ns() + LEAD_NS;
    let clock = || multi.now_ns();
    let c0 = multi.rate().committed;
    let n = sched.publish_at.len();
    let mut out = OpenResult::default();
    let mut done_at: Vec<u64> = Vec::with_capacity(n);
    let (control_ms, control_errors) = std::thread::scope(|s| {
        let ctl = s.spawn(|| {
            let mut lat = Vec::new();
            let mut errors = Vec::new();
            let mut returned = base;
            for j in 0..sched.control.len() {
                let due = sched.pacing.due(base, &sched.control, j, returned);
                if due >= base + sched.span {
                    break;
                }
                wait_until(due, &clock, &mut || {});
                if let Err(e) = run_control_on_multi(multi, &control.next()) {
                    errors.push(format!("control op failed: {e}"));
                }
                returned = multi.now_ns();
                lat.push((returned - due) as f64 / 1e6);
            }
            (lat, errors)
        });
        let poll = |done_at: &mut Vec<u64>| {
            let committed = (multi.rate().committed - c0) as usize;
            let now = multi.now_ns();
            while done_at.len() < committed.min(n) {
                done_at.push(now);
            }
        };
        for (i, (&at, &point)) in sched.publish_at.iter().zip(&sched.points).enumerate() {
            let due = base + at;
            let late = wait_until(due, &clock, &mut || poll(&mut done_at));
            out.gen_late_ms.push(late as f64 / 1e6);
            if let Err(e) = handles[i % PUBLISHERS].publish_at(point, due) {
                out.errors.push(format!("publish {i} refused: {e}"));
            }
        }
        let waited = Instant::now();
        while done_at.len() < n && waited.elapsed() < DRAIN_LIMIT {
            poll(&mut done_at);
            std::thread::sleep(POLL);
        }
        ctl.join().expect("control thread panicked")
    });
    if done_at.len() < n {
        out.errors.push(format!(
            "{} of {n} publications never committed",
            n - done_at.len()
        ));
    }
    out.publish_ms = done_at
        .iter()
        .zip(&sched.publish_at)
        .map(|(&done, &at)| done.saturating_sub(base + at) as f64 / 1e6)
        .collect();
    out.attempted = (n + control_ms.len()) as u64;
    out.control_ms = control_ms;
    out.errors.extend(control_errors);
    out.failed = out.errors.len() as u64 + (n - done_at.len()) as u64;
    out
}

/// Phase B through the ingress: the generator keeps both queues full
/// (blocking publishes) until the window closes, then waits for the
/// backlog, while the second thread records when the commit counter
/// moves. Capacity is the publications committed between the first and
/// the last observed commit over the time between them, so neither the
/// ramp-up nor the final partial batch skews it. Returns (capacity in
/// publications per second, publications committed, errors).
fn closed_multi(
    multi: &MultiBroker<2>,
    handles: &[PublisherHandle<2>],
    seed: u64,
    rects: &[Rect<2>],
    seconds: f64,
) -> (f64, u64, Vec<String>) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xb0b);
    let c0 = multi.rate().committed;
    let window = Duration::from_secs_f64(seconds);
    let stop = AtomicBool::new(false);
    let mut errors = Vec::new();
    let commits = std::thread::scope(|s| {
        let watcher = s.spawn(|| {
            let mut seen = c0;
            let mut commits: Vec<(u64, u64)> = Vec::new();
            while !stop.load(Ordering::SeqCst) {
                let c = multi.rate().committed;
                if c != seen {
                    commits.push((multi.now_ns(), c));
                    seen = c;
                }
                std::thread::sleep(POLL);
            }
            commits
        });
        let t0 = Instant::now();
        let mut i = 0usize;
        while t0.elapsed() < window {
            let point = rects[rng.gen_range(0..rects.len())].center();
            if let Err(e) = handles[i % PUBLISHERS].publish(point) {
                errors.push(format!("closed-loop publish refused: {e}"));
                break;
            }
            i += 1;
        }
        multi.drain();
        stop.store(true, Ordering::SeqCst);
        watcher.join().expect("commit watcher panicked")
    });
    let committed = multi.rate().committed - c0;
    let capacity = match (commits.first(), commits.last()) {
        (Some(&(t1, c1)), Some(&(t2, c2))) if t2 > t1 => {
            (c2 - c1) as f64 / ((t2 - t1) as f64 / 1e9)
        }
        _ => {
            errors.push(format!(
                "phase B saw {} commits; capacity needs two",
                commits.len()
            ));
            0.0
        }
    };
    (capacity, committed, errors)
}

/// `(events, deliveries, false positives, false negatives, messages)`
/// accumulated between two statistics snapshots.
fn stats_delta(before: &RoutingStats, after: &RoutingStats) -> (u64, u64, u64, u64, u64) {
    (
        after.events() - before.events(),
        after.deliveries() - before.deliveries(),
        after.false_positives() - before.false_positives(),
        after.false_negatives() - before.false_negatives(),
        after.messages() - before.messages(),
    )
}

/// Runs the `publish` or `churn` workload.
pub fn run(args: &Args) -> Outcome {
    let spec = if crate::WORKLOADS[args.workload] == "publish" {
        PUBLISH
    } else {
        CHURN
    };
    let (rects, side) = scaled_rects(spec.subscribers, DATASET_SEED);
    if args.trace {
        run_traced(&spec, args, &rects, side)
    } else {
        run_untraced(&spec, args, &rects, side)
    }
}

fn wrap(ready: Ready) -> (MultiBroker<2>, Vec<PublisherHandle<2>>, ControlGen) {
    let config = IngressConfig {
        queue_capacity: QUEUE_CAPACITY,
        fair_budget: QUEUE_CAPACITY,
        max_batch: MAX_BATCH,
        audit_log: false,
        refresh_snapshots: false,
        auto_drain: true,
    };
    let multi = MultiBroker::new(ready.broker, config);
    let handles = ready
        .publishers
        .iter()
        .map(|&p| multi.publisher(p).expect("publisher is subscribed"))
        .collect();
    (multi, handles, ready.control)
}

/// Notes on standard error when `n` samples leave fewer than ten
/// beyond percentile `bp` (the value is still reported: the sample
/// count is fixed by the workload's rates, see the README).
fn note_support(label: &str, n: usize, bp: u32) {
    if !stats::supports(n, bp) {
        let highest =
            stats::tail_bp(n).map_or("none".to_string(), |b| format!("p{}", f64::from(b) / 100.0));
        eprintln!(
            "  note: {n} {label} leave fewer than {} samples beyond p{} (highest supported: {highest})",
            stats::MIN_BEYOND,
            f64::from(bp) / 100.0
        );
    }
}

/// The untraced run: `spec.episodes` episodes, each on its own broker,
/// each running phase B then phase A for its share of `--seconds`,
/// with its own slice of the seeded traffic. How fast one broker
/// instance runs varies by ±10–15 % between instances given identical
/// inputs on the reference host; the timings are the means over the
/// episodes, which averages that out.
fn run_untraced(spec: &Spec, args: &Args, rects: &[Rect<2>], side: f64) -> Outcome {
    let mut o = Outcome::default();
    let seconds = args.seconds / spec.episodes as f64;
    let open_s = seconds * spec.open_share;
    let mut setup_s = Vec::new();
    let mut timings: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let (mut events, mut deliveries, mut fp, mut msgs) = (0, 0, 0, 0);
    for episode in 0..spec.episodes as u64 {
        let seed = args.seed ^ (episode << 32);
        let (ready, times) = setup_repeated(spec, seed, rects, side);
        setup_s.extend(times);
        let (multi, handles, mut control) = wrap(ready);
        let sched = schedule(spec, seed, rects, open_s);
        let before = multi.stats();
        let (capacity, closed, closed_errors) =
            closed_multi(&multi, &handles, seed, rects, seconds - open_s);
        let open = open_multi(&multi, &handles, &sched, &mut control);
        let after = multi.stats();
        let rate = multi.rate();
        drop(handles);
        drop(multi.finish());

        let tagged: Vec<(u64, f64)> = sched
            .publish_at
            .iter()
            .copied()
            .zip(open.publish_ms.iter().copied())
            .collect();
        note_support("publications", tagged.len(), 9_900);
        for (name, bp) in [("publish_p50_ms", 5_000), ("publish_p99_ms", 9_900)] {
            let value = stats::windowed_percentile(&tagged, sched.span, bp, MAX_WINDOWS);
            timings.entry(name).or_default().push(value.unwrap_or(0.0));
        }
        timings
            .entry("publish_capacity_eps")
            .or_default()
            .push(capacity);
        let (e, d, f, fneg, m) = stats_delta(&before, &after);
        (events, deliveries, fp, msgs) = (events + e, deliveries + d, fp + f, msgs + m);

        o.attempted += open.attempted + closed;
        o.failed += open.failed + closed_errors.len() as u64 + fneg;
        o.check(
            fneg == 0,
            format!("episode {episode}: {fneg} false negatives"),
        );
        o.check(
            rate.committed == rate.submitted,
            format!(
                "episode {episode}: committed {} != submitted {}",
                rate.committed, rate.submitted
            ),
        );
        for e in open.errors.iter().chain(&closed_errors) {
            o.check(false, e.clone());
        }
        eprintln!(
            "  episode {episode}: phase B {closed} committed, {capacity:.1}/s; phase A {} publications, {} control ops (p50 {:.1} ms), generator late p99 {:.3} ms",
            open.publish_ms.len(),
            open.control_ms.len(),
            percentile(&sorted(open.control_ms), 5_000).unwrap_or(0.0),
            percentile(&sorted(open.gen_late_ms), 9_900).unwrap_or(0.0)
        );
    }
    o.set("setup_s", stats::median(&setup_s).expect("setups > 0"));
    for (name, values) in timings {
        o.set(name, stats::mean(&values).expect("episodes > 0"));
    }
    o.set("msgs_per_event", ratio(msgs as f64, events as f64));
    o.set("false_positive_rate", ratio(fp as f64, deliveries as f64));
    o
}

/// Overlay accounting gathered over traced commits.
#[derive(Debug, Default)]
struct CommitTotals {
    commits: u64,
    events: u64,
    ns: u64,
    rounds: u64,
    sent: u64,
    heartbeats: u64,
    pub_msgs: u64,
}

impl CommitTotals {
    fn add(&mut self, events: usize, ns: u64, rounds: u64, before: &Metrics, after: &Metrics) {
        let labels =
            |m: &Metrics, names: &[&str]| names.iter().map(|n| m.label_count(n)).sum::<u64>();
        let heartbeat = ["heartbeat", "hb-ack"];
        let publication = ["pub-up", "pub-down", "pub-request"];
        self.commits += 1;
        self.events += events as u64;
        self.ns += ns;
        self.rounds += rounds;
        self.sent += after.sent() - before.sent();
        self.heartbeats += labels(after, &heartbeat) - labels(before, &heartbeat);
        self.pub_msgs += labels(after, &publication) - labels(before, &publication);
    }
}

/// The traced commit loop's state: one broker driven on the bench
/// thread, its spans, and the oracle replay log.
struct Traced {
    broker: Broker<2>,
    publishers: [ProcessId; PUBLISHERS],
    tracer: Tracer,
    replay: Vec<ReplayOp>,
    errors: Vec<String>,
    request: u64,
}

impl Traced {
    /// One traced commit: flush and commit spans under one cycle span,
    /// plus overlay deltas. Returns the commit span's (start, end).
    fn commit(&mut self, batch: &[(ProcessId, Point<2>)], totals: &mut CommitTotals) -> (u64, u64) {
        let (broker, tracer, request) = (&mut self.broker, &mut self.tracer, self.request);
        self.request += 1;
        let before = broker.cluster().metrics().clone();
        let r0 = broker.cluster().round();
        let cycle = tracer.begin("ingress.cycle", None, request);
        tracer.span("broker.flush_oracle", Some(cycle), request, || {
            broker.flush_oracle()
        });
        let (result, commit) = tracer.span("broker.commit", Some(cycle), request, || {
            broker.publish_batch_multi(batch)
        });
        tracer.end(cycle);
        let span = *tracer.get(commit);
        totals.add(
            batch.len(),
            span.ns(),
            broker.cluster().round() - r0,
            &before,
            broker.cluster().metrics(),
        );
        match result {
            Ok(reports) => {
                let fneg: usize = reports.iter().map(|r| r.false_negatives.len()).sum();
                if fneg > 0 {
                    self.errors
                        .push(format!("commit {request}: {fneg} false negatives"));
                }
            }
            Err(e) => self.errors.push(format!("commit {request} refused: {e}")),
        }
        self.replay.push(ReplayOp::Flush);
        self.replay
            .extend(batch.iter().map(|&(_, p)| ReplayOp::Probe(p)));
        (span.start_ns, span.end_ns)
    }

    /// One traced control op; returns the overlay rounds it ran.
    fn control(&mut self, op: &ControlOp) -> u64 {
        let r0 = self.broker.cluster().round();
        let request = self.request;
        self.request += 1;
        if let Err(e) =
            run_control_on_broker(&mut self.broker, op, Some((&mut self.tracer, request)))
        {
            self.errors.push(format!("control op failed: {e}"));
        }
        if let ControlOp::Move(id, old, new) = *op {
            self.replay.push(ReplayOp::Move(id, old, new));
            self.replay.push(ReplayOp::Flush);
        }
        self.broker.cluster().round() - r0
    }
}

fn run_traced(spec: &Spec, args: &Args, rects: &[Rect<2>], side: f64) -> Outcome {
    let mut o = Outcome::default();
    // Untraced reference through the ingress: phase B, then phase A.
    // The broker's commits slow as it ages, so the reference and the
    // traced loop both run phase A after an equal closed-loop phase.
    let (ready, _) = setup(spec, args.seed, rects, side);
    let (multi, handles, mut control) = wrap(ready);
    let (_, ref_closed, closed_errors) = closed_multi(
        &multi,
        &handles,
        args.seed,
        rects,
        args.seconds * TRACED_CLOSED_SHARE,
    );
    let mut reference = open_multi(
        &multi,
        &handles,
        &schedule(spec, args.seed, rects, args.seconds * TRACED_OPEN_SHARE),
        &mut control,
    );
    reference.attempted += ref_closed;
    reference.errors.extend(closed_errors);
    drop(handles);
    drop(multi.finish());
    let ref_p50 = percentile(&sorted(reference.publish_ms.clone()), 5_000).unwrap_or(0.0);
    o.set(
        "ingress.gen_late_p99_ms",
        percentile(&sorted(reference.gen_late_ms.clone()), 9_900).unwrap_or(0.0),
    );

    // Traced, on a fresh broker: the same two phases.
    let (ready, _) = setup(spec, args.seed, rects, side);
    let Ready {
        broker,
        publishers,
        mut control,
    } = ready;
    let replay_start: Vec<(ProcessId, Rect<2>)> =
        control.live.iter().map(|(&id, &r)| (id, r)).collect();
    let mut t = Traced {
        broker,
        publishers,
        tracer: Tracer::new(),
        replay: Vec::new(),
        errors: reference.errors.clone(),
        request: 0,
    };
    let mut closed = CommitTotals::default();
    let mut rng = StdRng::seed_from_u64(args.seed ^ 0xb0b);
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < args.seconds * TRACED_CLOSED_SHARE {
        let batch: Vec<(ProcessId, Point<2>)> = (0..MAX_BATCH)
            .map(|e| {
                (
                    t.publishers[e % PUBLISHERS],
                    rects[rng.gen_range(0..rects.len())].center(),
                )
            })
            .collect();
        t.commit(&batch, &mut closed);
    }

    let sched = schedule(spec, args.seed, rects, args.seconds * TRACED_OPEN_SHARE);
    let base = t.tracer.now_ns() + LEAD_NS;
    let (n, mut m) = (sched.publish_at.len(), 0usize);
    let mut i = 0usize;
    let mut returned = base;
    let mut open = CommitTotals::default();
    let (mut queue_wait, mut service, mut latency) = (
        Vec::with_capacity(n),
        Vec::with_capacity(n),
        Vec::with_capacity(n),
    );
    let mut commit_ms = Vec::new();
    let mut control_rounds = 0u64;
    loop {
        let now = t.tracer.now_ns();
        let pub_due = (i < n).then(|| base + sched.publish_at[i]);
        let ctl_due = (m < sched.control.len())
            .then(|| sched.pacing.due(base, &sched.control, m, returned))
            .filter(|&d| d < base + sched.span);
        if pub_due.is_none() && ctl_due.is_none() {
            break;
        }
        if ctl_due.is_some_and(|d| d <= now && pub_due.is_none_or(|p| d <= p)) {
            control_rounds += t.control(&control.next());
            returned = t.tracer.now_ns();
            m += 1;
            continue;
        }
        if pub_due.is_some_and(|d| d <= now) {
            let mut k = i;
            while k < n && k - i < MAX_BATCH && base + sched.publish_at[k] <= now {
                k += 1;
            }
            let batch: Vec<(ProcessId, Point<2>)> = (i..k)
                .map(|e| (t.publishers[e % PUBLISHERS], sched.points[e]))
                .collect();
            let (start, end) = t.commit(&batch, &mut open);
            commit_ms.push((end - start) as f64 / 1e6);
            for e in i..k {
                let due = base + sched.publish_at[e];
                queue_wait.push((start - due) as f64 / 1e6);
                service.push((end - start) as f64 / 1e6);
                latency.push((end - due) as f64 / 1e6);
            }
            i = k;
            continue;
        }
        let next = pub_due
            .into_iter()
            .chain(ctl_due)
            .min()
            .expect("work remains");
        std::thread::sleep(Duration::from_nanos(next.saturating_sub(now)).min(POLL));
    }

    // Read-only overlay probes on the final structure, outside the loop.
    let (mut contact, mut legal) = (Vec::new(), Vec::new());
    for _ in 0..5 {
        let (_, id) = t.tracer.span("cluster.contact", None, t.request, || {
            t.broker.cluster().contact()
        });
        contact.push(t.tracer.get(id).ns() as f64 / 1e6);
        let (verdict, id) = t.tracer.span("cluster.check_legal", None, t.request, || {
            t.broker.cluster().check_legal()
        });
        legal.push(t.tracer.get(id).ns() as f64 / 1e6);
        if verdict.is_err() {
            t.errors.push("overlay illegal after the traced run".into());
        }
    }
    let fneg = t.broker.stats().false_negatives();
    if fneg > 0 {
        t.errors.push(format!("{fneg} false negatives"));
    }

    let traced_p50 = percentile(&sorted(latency), 5_000).unwrap_or(0.0);
    let qw = sorted(queue_wait);
    let svc = sorted(service);
    let commits = sorted(commit_ms);
    let qw50 = percentile(&qw, 5_000).unwrap_or(0.0);
    let svc50 = percentile(&svc, 5_000).unwrap_or(0.0);
    let mean_ms = |name: &str| stats::mean(&t.tracer.durations_ms(name)).unwrap_or(0.0);
    let all_rounds = open.rounds + closed.rounds;
    let all_sent = open.sent + closed.sent;
    o.set("ingress.queue_wait_p50_ms", qw50);
    o.set(
        "ingress.queue_wait_p99_ms",
        percentile(&qw, 9_900).unwrap_or(0.0),
    );
    o.set(
        "ingress.batch_mean",
        ratio(open.events as f64, open.commits as f64),
    );
    o.set(
        "broker.commit_p50_ms",
        percentile(&commits, 5_000).unwrap_or(0.0),
    );
    o.set(
        "broker.commit_p99_ms",
        percentile(&commits, 9_900).unwrap_or(0.0),
    );
    o.set(
        "broker.commit_us_per_event",
        ratio(closed.ns as f64 / 1e3, closed.events as f64),
    );
    o.set("broker.move_ms", mean_ms("broker.move"));
    o.set("broker.flush_oracle_ms", mean_ms("broker.flush_oracle"));
    o.set(
        "cluster.round_ms",
        ratio((open.ns + closed.ns) as f64 / 1e6, all_rounds as f64),
    );
    o.set("cluster.contact_ms", stats::median(&contact).unwrap_or(0.0));
    o.set(
        "cluster.rounds_per_event",
        ratio(open.rounds as f64, open.events as f64),
    );
    o.set(
        "cluster.rounds_per_commit",
        ratio(open.rounds as f64, open.commits as f64),
    );
    o.set(
        "cluster.check_legal_ms",
        stats::median(&legal).unwrap_or(0.0),
    );
    o.set(
        "cluster.stabilize_rounds_per_control",
        ratio(control_rounds as f64, m as f64),
    );
    o.set("cluster.height", f64::from(t.broker.cluster().height()));
    o.set(
        "sim.msgs_per_round",
        ratio(all_sent as f64, all_rounds as f64),
    );
    o.set(
        "sim.heartbeat_share",
        ratio(
            (open.heartbeats + closed.heartbeats) as f64,
            all_sent as f64,
        ),
    );
    o.set(
        "sim.pub_msgs_per_event",
        ratio(
            (open.pub_msgs + closed.pub_msgs) as f64,
            (open.events + closed.events) as f64,
        ),
    );
    o.set("trace.overhead", ratio(traced_p50, ref_p50) - 1.0);
    o.set(
        "trace.reconcile_gap",
        stats::reconcile_gap(&[qw50, svc50], ref_p50),
    );
    o.set("trace.spans", t.tracer.len() as f64);
    eprintln!(
        "  reference p50 {ref_p50:.3} ms; traced p50 {traced_p50:.3} ms; queue wait p50 {qw50:.3} + commit p50 {svc50:.3} ms"
    );
    eprintln!(
        "  {} spans over {} requests",
        t.tracer.len(),
        t.tracer.requests()
    );
    for (name, ns) in t.tracer.self_ns_by_name() {
        eprintln!("  self time {name:<24} {:.3} s", ns as f64 / 1e9);
    }
    OracleReplay::run(t.broker.shard_count(), &replay_start, &t.replay).report(&mut o);

    o.attempted = reference.attempted + (n + m) as u64 + closed.events;
    o.failed = t.errors.len() as u64;
    for e in t.errors {
        o.check(false, e);
    }
    o
}
