//! `paper_grid`: the paper's 12,072-cell grid, one cold pass per process.
//!
//! Each sample is a fresh child process that builds the nine databases
//! (several times, for the set-up median) and then runs one cold
//! `run_benchmark_on` pass of `BenchmarkConfig::default()` on 2 threads.

use crate::compose::{self, Cell, Counters, Gold};
use crate::trace::{Rollup, Tracer};
use crate::{digest, median_s, peak_rss_kb, Args, Layers, Outcome};
use snails_bench::Percentiles;
use snails_core::checkpoint::record_to_line;
use snails_core::pipeline::run_benchmark_on;
use snails_core::{manifest_from_run, BenchmarkConfig, BenchmarkRun, QueryRecord};
use snails_data::SnailsDatabase;
use snails_engine::{ExecOptions, PlanCache};
use std::process::Command;
use std::time::Instant;

/// Worker threads for the grid (sized for a 2-core host).
const THREADS: usize = 2;
/// Database builds per child; the set-up figure is their median.
const BUILDS_PER_PASS: usize = 3;

fn config(seed: u64, threads: usize) -> BenchmarkConfig {
    BenchmarkConfig {
        seed,
        threads: Some(threads),
        ..BenchmarkConfig::default()
    }
}

fn build_all() -> Vec<SnailsDatabase> {
    snails_data::DATABASE_NAMES
        .iter()
        .map(|n| snails_data::build_database(n))
        .collect()
}

/// What one child process reports.
#[derive(Debug, Clone, PartialEq)]
pub struct Pass {
    setup_ns: Vec<u64>,
    pass_ns: u64,
    cells: u64,
    failed: u64,
    digest: u64,
    rss_kb: u64,
}

const PASS_PREFIX: &str = "perfbench-pass";

impl Pass {
    fn to_line(&self) -> String {
        let setups: Vec<String> = self.setup_ns.iter().map(u64::to_string).collect();
        format!(
            "{PASS_PREFIX} {} {} {} {} {:016x} {}",
            setups.join(","),
            self.pass_ns,
            self.cells,
            self.failed,
            self.digest,
            self.rss_kb
        )
    }

    fn from_line(line: &str) -> Option<Pass> {
        let mut f = line.strip_prefix(PASS_PREFIX)?.split_whitespace();
        let setup_ns = f
            .next()?
            .split(',')
            .map(|s| s.parse().ok())
            .collect::<Option<_>>()?;
        Some(Pass {
            setup_ns,
            pass_ns: f.next()?.parse().ok()?,
            cells: f.next()?.parse().ok()?,
            failed: f.next()?.parse().ok()?,
            digest: u64::from_str_radix(f.next()?, 16).ok()?,
            rss_kb: f.next()?.parse().ok()?,
        })
    }
}

fn grid_digest(run: &BenchmarkRun, cfg: &BenchmarkConfig) -> u64 {
    digest::grid(&manifest_from_run(run, cfg).to_string())
}

fn failed_cells(records: &[QueryRecord]) -> u64 {
    records.iter().filter(|r| r.failure.is_some()).count() as u64
}

/// Child entry point: build, run one cold pass, print one [`Pass`] line.
pub fn child(seed: u64, threads: usize, builds: usize) {
    let mut setup_ns = Vec::with_capacity(builds);
    let mut dbs = Vec::new();
    for _ in 0..builds.max(1) {
        drop(dbs);
        let t = Instant::now();
        dbs = build_all();
        setup_ns.push(t.elapsed().as_nanos() as u64);
    }
    let cfg = config(seed, threads);
    let t = Instant::now();
    let run = run_benchmark_on(&dbs, &cfg);
    let pass_ns = t.elapsed().as_nanos() as u64;
    let pass = Pass {
        setup_ns,
        pass_ns,
        cells: run.records.len() as u64,
        failed: failed_cells(&run.records),
        digest: grid_digest(&run, &cfg),
        rss_kb: peak_rss_kb(),
    };
    println!("{}", pass.to_line());
}

fn spawn_pass(seed: u64, threads: usize, builds: usize) -> Result<Pass, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args([
            "--child-grid",
            &seed.to_string(),
            &threads.to_string(),
            &builds.to_string(),
        ])
        .output()
        .map_err(|e| format!("spawning a grid pass: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "grid pass exited with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .find_map(Pass::from_line)
        .ok_or_else(|| "grid pass printed no result line".to_owned())
}

/// Check pass digests against the carried reference, or against a
/// threads-1 pass for a seed without one.
fn check_digests(args: &Args, digests: &[u64], out: &mut Outcome) {
    let expected = match digest::reference("paper_grid", args.seed, args.seconds) {
        Some(d) => d,
        None => match spawn_pass(args.seed, 1, 1) {
            Ok(p) => {
                println!(
                    "phase reference_threads1 ops={} ops_failed={}",
                    p.cells, p.failed
                );
                out.attempted += p.cells;
                p.digest
            }
            Err(e) => return out.problem(e),
        },
    };
    println!("info digest={expected:016x}");
    for (i, d) in digests.iter().enumerate() {
        if let Err(e) = digest::check(&format!("paper_grid pass {i}"), *d, expected) {
            out.problem(e);
        }
    }
}

/// The timed run: cold passes in fresh processes for `args.seconds`.
pub fn timed(args: &Args, out: &mut Outcome) {
    let started = Instant::now();
    let mut passes = Vec::new();
    while passes.is_empty() || started.elapsed().as_secs_f64() < args.seconds as f64 {
        match spawn_pass(args.seed, THREADS, BUILDS_PER_PASS) {
            Ok(p) => {
                println!(
                    "phase pass{} ops={} ops_failed={} pass_s={:.3}",
                    passes.len(),
                    p.cells,
                    p.failed,
                    p.pass_ns as f64 / 1e9
                );
                out.attempted += p.cells;
                out.failed += p.failed;
                passes.push(p);
            }
            Err(e) => return out.problem(e),
        }
    }
    let digests: Vec<u64> = passes.iter().map(|p| p.digest).collect();
    check_digests(args, &digests, out);

    let mut setups: Vec<u64> = passes.iter().flat_map(|p| p.setup_ns.clone()).collect();
    let mut pass_us: Vec<u64> = passes.iter().map(|p| p.pass_ns / 1000).collect();
    let pass = Percentiles::of(&mut pass_us);
    let cells = passes[0].cells as f64;
    out.metric("setup_s", median_s(&mut setups), "s");
    out.metric("throughput_per_s", cells / (pass.p50 as f64 / 1e6), "1/s");
    // A run holds a handful of passes: no percentile above the median has
    // ten samples beyond it.
    out.metric("p50_ms", pass.p50 as f64 / 1000.0, "ms");
    let rss = passes.iter().map(|p| p.rss_kb).max().unwrap_or(0);
    out.metric("peak_rss_mb", rss as f64 / 1024.0, "MB");
    println!("info samples={} cells_per_pass={cells}", passes.len());
}

/// Replay the grid serially, mirroring `run_benchmark_on`'s reuse: gold
/// context once per (database, question), one context per (database,
/// variant), one plan cache for the whole grid.
fn replay(
    dbs: &[SnailsDatabase],
    cfg: &BenchmarkConfig,
    t: &mut Tracer,
) -> (Vec<QueryRecord>, Counters) {
    let plans = PlanCache::new();
    let opts = ExecOptions {
        limits: cfg.limits,
        optimize: cfg.optimize,
        ..ExecOptions::default()
    };
    let mut n = Counters::default();
    let mut records = Vec::new();
    let mut cell_id = 0u64;
    for (di, db) in dbs.iter().enumerate() {
        let golds: Vec<Gold> = db
            .questions
            .iter()
            .enumerate()
            .map(|(qi, pair)| compose::gold(t, (di * 1000 + qi) as u64, db, pair))
            .collect();
        for (vi, &variant) in cfg.variants.iter().enumerate() {
            let ctx_id = (di * 10 + vi) as u64;
            let (view, denat) = compose::context(t, ctx_id, db, variant);
            let measures: Vec<_> = golds
                .iter()
                .map(|g| compose::measures(t, ctx_id, db, &view, g))
                .collect();
            for &workflow in &cfg.workflows {
                for (qi, pair) in db.questions.iter().enumerate() {
                    let cell = Cell {
                        db,
                        view: &view,
                        denat: &denat,
                        pair,
                        gold: &golds[qi],
                        measures: &measures[qi],
                        plans: &plans,
                        opts,
                        seed: cfg.seed,
                    };
                    let span = t.open("cell", cell_id);
                    let (record, _) = compose::evaluate(t, cell_id, workflow, &cell, &mut n);
                    t.close(span);
                    records.push(record);
                    cell_id += 1;
                }
            }
        }
    }
    (records, n)
}

fn lines(records: &[QueryRecord]) -> Vec<String> {
    records.iter().map(record_to_line).collect()
}

/// The traced run: a cold traced replay, and the program's own pass to
/// check it against.
pub fn traced(args: &Args, out: &mut Outcome) {
    let cfg = config(args.seed, THREADS);
    let mut builds = Vec::new();
    let mut dbs = Vec::new();
    for _ in 0..BUILDS_PER_PASS {
        drop(dbs);
        let t = Instant::now();
        dbs = build_all();
        builds.push(t.elapsed().as_nanos() as u64);
    }
    let mut t = Tracer::new();
    let (records, counters) = replay(&dbs, &cfg, &mut t);
    drop(dbs);

    let dbs = build_all();
    let run = run_benchmark_on(&dbs, &cfg);
    let cells = run.records.len() as u64;
    out.attempted += 2 * cells;
    out.failed += failed_cells(&run.records) + failed_cells(&records);
    println!(
        "phase traced_replay ops={} ops_failed={}",
        records.len(),
        failed_cells(&records)
    );
    println!(
        "phase program_pass ops={cells} ops_failed={}",
        failed_cells(&run.records)
    );
    if lines(&records) != lines(&run.records) {
        out.problem("paper_grid: replayed records differ from run_benchmark_on".to_owned());
    }
    check_digests(args, &[grid_digest(&run, &cfg)], out);

    crate::write_trace(args, &t);
    let layers = Layers {
        build_s: median_s(&mut builds),
        start_s: 0.0,
        rollup: Rollup::of(t.spans()),
        counters,
        queue_len: (0.0, 0.0),
        resp_bytes: 0.0,
        lag_ms_p99: 0.0,
    };
    layers.report(out);
}
