//! End-to-end benchmark of the DR-tree publish/subscribe system.
//!
//! ```text
//! cargo run --release --offline --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <publish|churn|fabric> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` prints every end-to-end metric; `--trace 1` runs the
//! traced variant and prints every per-layer metric. The last line of
//! standard output is one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`; progress and a human-readable
//! table go to standard error. Any failed correctness check makes the
//! process exit with code 1. See `e2ebench/README.md` for the
//! workloads, metrics and the layer → end-to-end map.

mod broker;
mod fabric;
mod replay;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;

use drtree_spatial::Rect;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// End-to-end metrics `(name, unit)`, printed by every untraced run of
/// every workload; mirrored by `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("rss_mb", "MB"),
    ("publish_p50_ms", "ms"),
    ("publish_p99_ms", "ms"),
    ("publish_capacity_eps", "1/s"),
    ("msgs_per_event", "count"),
    ("false_positive_rate", "ratio"),
];

/// Per-layer metrics `(name, unit)`, printed by every traced run of
/// every workload (0 where the workload does not use the layer);
/// mirrored by `BENCHMARK.json`.
pub const PER_LAYER: [(&str, &str); 37] = [
    ("ingress.queue_wait_p50_ms", "ms"),
    ("ingress.queue_wait_p99_ms", "ms"),
    ("ingress.batch_mean", "count"),
    ("ingress.gen_late_p99_ms", "ms"),
    ("broker.commit_p50_ms", "ms"),
    ("broker.commit_p99_ms", "ms"),
    ("broker.commit_us_per_event", "us"),
    ("broker.flush_oracle_ms", "ms"),
    ("cluster.round_ms", "ms"),
    ("cluster.contact_ms", "ms"),
    ("cluster.rounds_per_event", "count"),
    ("cluster.rounds_per_commit", "count"),
    ("cluster.check_legal_ms", "ms"),
    ("cluster.height", "count"),
    ("sim.msgs_per_round", "count"),
    ("sim.heartbeat_share", "ratio"),
    ("sim.pub_msgs_per_event", "count"),
    ("sim.fed_msgs_per_step", "count"),
    ("shard.match_ns", "ns"),
    ("shard.insert_ns", "ns"),
    ("shard.remove_ns", "ns"),
    ("shard.move_ns", "ns"),
    ("shard.flush_ms", "ms"),
    ("shard.bulk_build_s", "s"),
    ("shard.hits_per_probe", "count"),
    ("shard.moved_in_place_frac", "ratio"),
    ("federation.step_us", "us"),
    ("federation.publish_us", "us"),
    ("federation.op_us", "us"),
    ("federation.forwards_per_event", "count"),
    ("federation.resolve_rounds_p50", "count"),
    ("federation.resolve_rounds_p99", "count"),
    ("federation.populate_s", "s"),
    ("federation.settle_s", "s"),
    ("trace.overhead", "ratio"),
    ("trace.reconcile_gap", "ratio"),
    ("trace.spans", "count"),
];

/// Workload names accepted by `--workload`. `BENCHMARK.json` lists
/// `publish` and `fabric`; `churn` runs the same way but is not part of
/// the benchmark (see `e2ebench/README.md`).
pub const WORKLOADS: [&str; 3] = ["publish", "churn", "fabric"];

/// Parsed command line.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Args {
    /// Index into [`WORKLOADS`].
    pub workload: usize,
    /// Workload seed: every input is derived from it.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced (per-layer) run.
    pub trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .position(|w| w == value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 3_600.0) {
                    return Err(format!("--seconds must be in (0, 3600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Metric values by name (units come from the metric tables).
    pub metrics: BTreeMap<&'static str, f64>,
    /// Operations attempted (publications plus control ops).
    pub attempted: u64,
    /// Operations that failed or returned a wrong result.
    pub failed: u64,
    /// Failed correctness checks, by description.
    pub violations: Vec<String>,
}

impl Outcome {
    /// Records metric `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Records a correctness check; a failing one is a violation.
    pub fn check(&mut self, ok: bool, what: impl Into<String>) {
        if !ok {
            self.violations.push(what.into());
        }
    }

    /// Renders the result line for the metric table `table`. A missing
    /// end-to-end metric is a violation; a missing per-layer metric
    /// reads 0 (the workload does not exercise that layer).
    fn render(&mut self, table: &[(&'static str, &'static str)], required: bool) -> String {
        let mut fields = Vec::with_capacity(table.len());
        for &(name, unit) in table {
            let value = match self.metrics.get(name) {
                Some(v) if v.is_finite() => *v,
                Some(v) => {
                    self.violations
                        .push(format!("metric {name} is not finite ({v})"));
                    0.0
                }
                None => {
                    if required {
                        self.violations
                            .push(format!("metric {name} was not measured"));
                    }
                    0.0
                }
            };
            fields.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            ));
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.violations.is_empty(),
            self.attempted.max(1),
            self.failed,
            fields.join(", ")
        )
    }
}

/// A finite f64 as a JSON number with every digit Rust's shortest
/// round-trip formatting keeps.
fn json_number(v: f64) -> String {
    let s = format!("{v}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Constant-selectivity subscriptions: extents 1–10 in a square world
/// whose side grows with `sqrt(n)`, so a point at a subscription
/// center matches ~10 subscriptions at every size. Returns the
/// rectangles and the world side.
pub fn scaled_rects(n: usize, seed: u64) -> (Vec<Rect<2>>, f64) {
    const TARGET_MATCHES: f64 = 10.0;
    let side = (n as f64 * 5.5 * 5.5 / TARGET_MATCHES).sqrt();
    let mut rng = StdRng::seed_from_u64(seed);
    let rects = (0..n).map(|_| random_rect(&mut rng, side)).collect();
    (rects, side)
}

/// One subscription rectangle with extents 1–10 inside `[0, side]²`.
pub fn random_rect(rng: &mut StdRng, side: f64) -> Rect<2> {
    let w = rng.gen_range(1.0..10.0);
    let h = rng.gen_range(1.0..10.0);
    let x = rng.gen_range(0.0..side - w);
    let y = rng.gen_range(0.0..side - h);
    Rect::new([x, y], [x + w, y + h])
}

/// `rect` shifted by up to `reach` along each axis, kept inside
/// `[0, side]²` — a small continuous-query move.
pub fn nudge(rng: &mut StdRng, rect: &Rect<2>, reach: f64, side: f64) -> Rect<2> {
    let mut min = [0.0; 2];
    let mut max = [0.0; 2];
    for d in 0..2 {
        let extent = rect.extent(d);
        let lo = (rect.lo(d) + rng.gen_range(-reach..reach)).clamp(0.0, side - extent);
        min[d] = lo;
        max[d] = lo + extent;
    }
    Rect::new(min, max)
}

/// Exponential inter-arrival times (open-loop Poisson arrivals) at
/// `rate` per second over `seconds`: offsets in nanoseconds from the
/// window start, ascending.
pub fn poisson_schedule(rng: &mut StdRng, rate: f64, seconds: f64) -> Vec<u64> {
    let mut out = Vec::new();
    let mut t = 0.0f64;
    loop {
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        t += -u.ln() / rate;
        if t >= seconds {
            return out;
        }
        out.push((t * 1e9) as u64);
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: e2ebench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "e2ebench: workload={} seed={} seconds={} trace={} nproc={}",
        WORKLOADS[args.workload],
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    let mut outcome = match WORKLOADS[args.workload] {
        "publish" | "churn" => broker::run(&args),
        _ => fabric::run(&args),
    };
    if !args.trace {
        outcome.set("rss_mb", peak_rss_mb());
    }
    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let line = outcome.render(table, !args.trace);
    for (name, value) in &outcome.metrics {
        eprintln!("  {name:<40} {value:.6}");
    }
    eprintln!(
        "  attempted={} failed={} failed_share={:.6}",
        outcome.attempted,
        outcome.failed,
        stats::failure_share(outcome.failed, outcome.attempted)
    );
    for v in &outcome.violations {
        eprintln!("CHECK FAILED: {v}");
    }
    println!("{line}");
    if outcome.violations.is_empty() && outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let a = parse_args(&argv("--workload churn --seed 7 --seconds 30 --trace 1")).unwrap();
        assert_eq!(
            a,
            Args {
                workload: 1,
                seed: 7,
                seconds: 30.0,
                trace: true
            }
        );
        assert!(parse_args(&argv("--workload nope --seed 1 --seconds 1")).is_err());
        assert!(parse_args(&argv("--workload fabric --seed 1 --seconds 0")).is_err());
        assert!(parse_args(&argv("--workload fabric --seed 1 --seconds 5 --trace 2")).is_err());
        assert!(parse_args(&argv("--workload fabric --seconds 5")).is_err());
    }

    #[test]
    fn result_line_lists_every_metric_and_flags_missing_ones() {
        let mut o = Outcome {
            attempted: 10,
            failed: 1,
            ..Outcome::default()
        };
        o.set("setup_s", 1.25);
        let line = o.render(&END_TO_END[..2], true);
        assert_eq!(
            line,
            "{\"correct\": false, \"attempted\": 10, \"failed\": 1, \"metrics\": \
             {\"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}, \
             \"rss_mb\": {\"value\": 0.0, \"unit\": \"MB\"}}}"
        );
        assert_eq!(
            o.violations,
            vec!["metric rss_mb was not measured".to_string()]
        );
    }

    #[test]
    fn metric_tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json next to e2ebench/");
        let benchmarked = ["publish", "fabric"];
        let names = json.matches("\"name\"").count();
        assert_eq!(
            names,
            benchmarked.len() + END_TO_END.len() + PER_LAYER.len()
        );
        for w in benchmarked {
            assert!(WORKLOADS.contains(&w), "workload {w}");
            assert!(json.contains(&format!("\"name\": \"{w}\"")), "workload {w}");
        }
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }

    #[test]
    fn inputs_are_a_function_of_the_seed() {
        assert_eq!(scaled_rects(64, 3).0, scaled_rects(64, 3).0);
        assert_ne!(scaled_rects(64, 3).0, scaled_rects(64, 4).0);
        let a = poisson_schedule(&mut StdRng::seed_from_u64(1), 200.0, 10.0);
        let b = poisson_schedule(&mut StdRng::seed_from_u64(1), 200.0, 10.0);
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        // ~2000 arrivals expected; Poisson spread is ~±45.
        assert!((1_800..2_200).contains(&a.len()), "{}", a.len());
    }

    #[test]
    fn nudged_rects_keep_extent_and_stay_in_the_world() {
        let mut rng = StdRng::seed_from_u64(5);
        let r = Rect::new([0.5, 95.0], [3.5, 99.0]);
        for _ in 0..100 {
            let m = nudge(&mut rng, &r, 8.0, 100.0);
            assert!((m.extent(0) - 3.0).abs() < 1e-9);
            assert!(m.lo(0) >= 0.0 && m.hi(1) <= 100.0);
        }
    }
}
