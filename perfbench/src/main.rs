//! The SNAILS benchmark of record.
//!
//! ```text
//! snails-perfbench --workload <paper_grid|serve_sql|serve_ask> --seed <n>
//!                  --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run is timed and untraced and prints the end-to-end
//! metrics. With `--trace 1` it replays the workload's inputs serially with
//! a span around each layer call and prints the per-layer metrics. Either
//! way it checks the program's answers and prints, as its last line, one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`. It exits
//! non-zero when an answer is wrong. See `README.md` beside this crate.

mod compose;
mod digest;
mod grid;
mod schedule;
mod serve;
mod trace;

use compose::Counters;
use std::path::PathBuf;
use trace::Rollup;

/// Parsed command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed for every generated input.
    pub seed: u64,
    /// How long the run measures.
    pub seconds: u64,
    /// Traced run instead of the timed one.
    pub trace: bool,
}

const USAGE: &str = "usage: snails-perfbench --workload <paper_grid|serve_sql|serve_ask> \
                     [--seed <n>] [--seconds <s>] [--trace <0|1>]";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: digest::DEFAULT_SEED,
        seconds: 40,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !["paper_grid", "serve_sql", "serve_ask"].contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    if !(1..=600).contains(&args.seconds) {
        return Err("--seconds must be 1..=600".to_owned());
    }
    Ok(args)
}

/// A run's result: metrics plus the correctness verdict.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted over every phase.
    pub attempted: u64,
    /// Operations failed over every phase.
    pub failed: u64,
    /// `(name, value, unit)` in print order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Wrong answers and broken checks; any entry makes the run incorrect.
    pub problems: Vec<String>,
}

impl Outcome {
    /// Record a metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    /// Record a wrong answer or a failed check.
    pub fn problem(&mut self, message: String) {
        eprintln!("perfbench: {message}");
        self.problems.push(message);
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.problems.is_empty(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Per-layer figures of one traced run.
pub struct Layers {
    /// Median database build time, s.
    pub build_s: f64,
    /// Median `Server::start`, s (0 without a server).
    pub start_s: f64,
    /// Spans of the traced replay.
    pub rollup: Rollup,
    /// Counts taken at the layer boundaries of the replay.
    pub counters: Counters,
    /// Queue length sampled at each scheduled send of the nominal rung:
    /// (mean, nearest-rank p99).
    pub queue_len: (f64, f64),
    /// Mean encoded response size, bytes.
    pub resp_bytes: f64,
    /// Worst per-rung generator lateness p99, ms.
    pub lag_ms_p99: f64,
}

/// Fewer layer self-time nanoseconds than this share of the traced wall
/// time means the spans miss work: the traced run fails.
const MIN_COVERAGE: f64 = 0.9;

impl Layers {
    fn report(&self, out: &mut Outcome) {
        let r = &self.rollup;
        let n = &self.counters;
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        out.metric("data.build_s", self.build_s, "s");
        out.metric("serve.start_s", self.start_s, "s");
        out.metric("core.gold_us", r.mean_self_us("core.gold"), "us");
        out.metric("core.gold_calls", r.calls("core.gold") as f64, "count");
        out.metric("core.measures_us", r.mean_self_us("core.measures"), "us");
        out.metric("llm.context_us", r.mean_self_us("llm.context"), "us");
        out.metric("llm.infer_us", r.mean_self_us("llm.infer"), "us");
        out.metric("llm.infer_calls", r.calls("llm.infer") as f64, "count");
        out.metric("sql.denat_us", r.mean_self_us("sql.denat"), "us");
        out.metric(
            "sql.denat_unparsed",
            ratio(n.denat_unparsed, n.denat_calls),
            "share",
        );
        out.metric("eval.link_us", r.mean_self_us("eval.link"), "us");
        out.metric("eval.match_us", r.mean_self_us("eval.match"), "us");
        out.metric("engine.plan_us", r.mean_self_us("engine.plan"), "us");
        out.metric(
            "engine.plan_hit_ratio",
            ratio(n.plan_hits, n.plan_calls),
            "share",
        );
        out.metric("engine.exec_us", r.mean_self_us("engine.exec"), "us");
        out.metric("engine.exec_p99_us", r.p99_us("engine.exec"), "us");
        out.metric("engine.exec_errors", n.exec_errors as f64, "count");
        out.metric("engine.exec_exhausted", n.exec_exhausted as f64, "count");
        out.metric(
            "serve.exec_us_sql",
            r.mean_self_us("serve.execute_sql"),
            "us",
        );
        out.metric("serve.exec_p99_us_sql", r.p99_us("serve.execute_sql"), "us");
        out.metric(
            "serve.exec_us_ask",
            r.mean_self_us("serve.execute_ask"),
            "us",
        );
        out.metric("serve.exec_p99_us_ask", r.p99_us("serve.execute_ask"), "us");
        out.metric("serve.queue_len_mean", self.queue_len.0, "count");
        out.metric("serve.queue_len_p99", self.queue_len.1, "count");
        out.metric("serve.wire_us", r.mean_self_us("serve.wire"), "us");
        out.metric("serve.resp_bytes", self.resp_bytes, "bytes");
        out.metric("gen.lag_ms_p99", self.lag_ms_p99, "ms");
        for (layer, name) in [
            ("core", "core.self_s"),
            ("llm", "llm.self_s"),
            ("sql", "sql.self_s"),
            ("eval", "eval.self_s"),
            ("engine", "engine.self_s"),
            ("serve", "serve.self_s"),
        ] {
            out.metric(name, r.layer_s(layer), "s");
        }
        let coverage = r.coverage();
        out.metric("trace.coverage", coverage, "share");
        // Recording cost: spans recorded times the measured cost of one.
        let overhead_ns = r.spans() as f64 * trace::span_cost_ns();
        out.metric(
            "trace.overhead_pct",
            100.0 * overhead_ns / r.root_ns.max(1) as f64,
            "%",
        );
        if coverage < MIN_COVERAGE {
            out.problem(format!(
                "trace coverage {coverage:.3} is below {MIN_COVERAGE}"
            ));
        }
    }
}

/// Where the traced run writes its spans: inside the checkout.
fn trace_path(args: &Args) -> PathBuf {
    PathBuf::from(".bench_run").join(format!("trace-{}-{}.tsv", args.workload, args.seed))
}

/// Write the traced run's spans once, at the end.
pub fn write_trace(args: &Args, t: &trace::Tracer) {
    let path = trace_path(args);
    match t.write_tsv(&path) {
        Ok(()) => println!("info spans={} written={}", t.spans().len(), path.display()),
        Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
    }
}

/// Median of nanosecond samples, in seconds.
pub fn median_s(samples: &mut [u64]) -> f64 {
    snails_bench::Percentiles::of(samples).p50 as f64 / 1e9
}

/// This process's resident-set high-water mark, KiB (0 if unknown).
pub fn peak_rss_kb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--child-grid") {
        let n = |i: usize| {
            argv.get(i)
                .and_then(|v| v.parse().ok())
                .expect("child arguments")
        };
        grid::child(n(1), n(2) as usize, n(3) as usize);
        return;
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    println!(
        "info workload={} seed={} seconds={} trace={} threads_available={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        snails_core::available_threads()
    );
    let mut out = Outcome::default();
    match (args.workload.as_str(), args.trace) {
        ("paper_grid", false) => grid::timed(&args, &mut out),
        ("paper_grid", true) => grid::traced(&args, &mut out),
        (_, false) => serve::timed(&args, &mut out),
        (_, true) => serve::traced(&args, &mut out),
    }
    if out.metrics.iter().any(|(_, v, _)| !v.is_finite()) {
        out.problem("a metric is not a finite number".to_owned());
        out.metrics.retain(|(_, v, _)| v.is_finite());
    }
    for (name, value, unit) in &out.metrics {
        println!("metric {name} {value} {unit}");
    }
    println!("ops={} ops_failed={}", out.attempted, out.failed);
    println!("{}", out.json());
    if !out.problems.is_empty() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn arguments_are_checked() {
        let a = parse_args(&argv("--workload serve_sql --seed 9 --seconds 5 --trace 1")).unwrap();
        assert_eq!(
            a,
            Args {
                workload: "serve_sql".into(),
                seed: 9,
                seconds: 5,
                trace: true
            }
        );
        let d = parse_args(&argv("--workload paper_grid")).unwrap();
        assert_eq!(
            (d.seed, d.seconds, d.trace),
            (digest::DEFAULT_SEED, 40, false)
        );
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--workload serve_ask --trace 2")).is_err());
        assert!(parse_args(&argv("--workload serve_ask --seed")).is_err());
        assert!(parse_args(&argv("--workload serve_ask --seconds 0")).is_err());
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        o.metric("setup_s", 0.25, "s");
        assert_eq!(
            o.json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
        o.problems.push("x".into());
        assert!(o.json().starts_with("{\"correct\": false"));
    }
}
