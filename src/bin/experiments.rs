//! Regenerate every table and figure of the SNAILS paper.
//!
//! ```text
//! cargo run --release --bin experiments            # full run → stdout
//! cargo run --release --bin experiments -- --write # also writes EXPERIMENTS.md
//! cargo run --release --bin experiments -- --quick # 3 databases, faster
//! cargo run --release --bin experiments -- --fig8  # one section only
//! cargo run --release --bin experiments -- --fault-profile flaky
//!                                                  # inject simulated API faults
//! cargo run --release --bin experiments -- --telemetry telemetry.json
//!                                                  # write the benchmark's
//!                                                  # observability report
//! cargo run --release --bin experiments -- --ckpt ckpt-dir --shard 0/4
//!                                                  # checkpoint benchmark cells
//!                                                  # and run one shard of the grid
//! ```

use snails_core::checkpoint::{CheckpointSpec, Shard};
use snails_core::dataset_figures as ds;
use snails_core::pipeline::{run_benchmark_on, BenchmarkConfig, BenchmarkRun};
use snails_core::result_figures as rf;
use snails_data::SnailsDatabase;
use snails_llm::{FaultProfile, Workflow};
use snails_naturalness::category::SchemaVariant;
use std::fmt::Write as _;
use std::time::Instant;

struct Args {
    write: bool,
    quick: bool,
    only: Option<String>,
    seed: u64,
    threads: Option<usize>,
    fault_profile: FaultProfile,
    telemetry: Option<String>,
    shard: Shard,
    ckpt: Option<String>,
}

/// Section names accepted as `--<section>` filters, in document order.
const SECTIONS: &[&str] = &[
    "table1", "fig2", "table2", "table3", "table4", "fig5", "fig3", "table5", "schemapile",
    "fig26", "fig27", "fig28", "modifiers", "naming-patterns", "fig8", "fig9", "fig10", "fig11",
    "fig12", "f1-precision", "fig30", "fig48-51", "tau-tables", "stats", "ablation", "fig13",
];

/// Print `msg` and the usage text, then exit 2 (a usage error).
fn usage_error(msg: &str) -> ! {
    eprintln!(
        "experiments: {msg}\n\n\
         USAGE:\n  experiments [--write] [--quick] [--seed N] [--threads N]\n              \
         [--fault-profile none|flaky|hostile] [--telemetry <path>]\n              \
         [--ckpt DIR] [--shard i/n] [--<section>]\n\n\
         SECTIONS (one --<section> filter; not with --write):\n  {}",
        SECTIONS.join(" ")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        write: false,
        quick: false,
        only: None,
        seed: 2024,
        threads: None,
        fault_profile: FaultProfile::NONE,
        telemetry: None,
        shard: Shard::FULL,
        ckpt: None,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(a) = argv.next() {
        match a.as_str() {
            "--write" => args.write = true,
            "--quick" => args.quick = true,
            "--seed" => match argv.next().and_then(|s| s.parse().ok()) {
                Some(seed) => args.seed = seed,
                None => usage_error("--seed takes a u64"),
            },
            "--threads" => match argv.next().and_then(|s| s.parse().ok()) {
                Some(n) if n > 0 => args.threads = Some(n),
                _ => usage_error("--threads takes a positive integer"),
            },
            "--fault-profile" => match argv.next().and_then(|s| FaultProfile::by_name(&s)) {
                Some(profile) => args.fault_profile = profile,
                None => usage_error("--fault-profile takes none|flaky|hostile"),
            },
            "--telemetry" => match argv.next() {
                Some(path) => args.telemetry = Some(path),
                None => usage_error("--telemetry takes an output path"),
            },
            "--shard" => match argv.next().map(|s| Shard::parse(&s)) {
                Some(Ok(shard)) => args.shard = shard,
                Some(Err(e)) => usage_error(&format!("--shard takes i/n with 0 <= i < n ({e})")),
                None => usage_error("--shard takes i/n with 0 <= i < n"),
            },
            "--ckpt" => match argv.next() {
                Some(dir) => args.ckpt = Some(dir),
                None => usage_error("--ckpt takes a checkpoint directory"),
            },
            flag => match flag.strip_prefix("--") {
                Some(section) if SECTIONS.contains(&section) => {
                    args.only = Some(section.to_owned())
                }
                Some(_) => usage_error(&format!("unknown flag or section {flag}")),
                None => usage_error(&format!("unknown argument {flag}")),
            },
        }
    }
    if args.write && args.only.is_some() {
        usage_error("--write regenerates all of EXPERIMENTS.md; drop the section filter");
    }
    args
}

fn wants(args: &Args, section: &str) -> bool {
    args.only.as_deref().is_none_or(|o| o == section)
}

/// What the paper reports for each section — the "paper" side of the
/// paper-vs-measured record.
fn paper_note(section: &str) -> &'static str {
    match section {
        "table1" => "Paper: five example identifiers per level (airbag / AccountChk / AdCtTxIRWT, ...).",
        "fig2" => "Paper: mean token-in-dictionary decreases monotonically Regular → Low → Least (box plot, §2.1).",
        "table2" => "Paper: 9 databases, 36/28/13/18/27/40/27/21/2588 tables, 245/192/71/157/190/1611/423/196/90477 columns, 503 questions. Measured matches exactly by construction.",
        "table3" => "Paper: e.g. NTSB has 21 composite-key joins and 82 function queries; SBOD 82 WHERE and no EXISTS/negation. Measured clause counts approximate the same per-database profile from the template mixes.",
        "table4" => "Paper: 9 SAP modules (Banking 40 … Human Resources 28 … Service 40 tables) with 10–20 questions each; prompts use pruned module schemas.",
        "fig5" => "Paper combined naturalness: ASIS .77, ATBI .70, CWO .84, KIS .79, NPFM .70, NTSB .59, NYSED .68, PILB ~.75, SBOD .49. Measured values are within ±0.05 by construction.",
        "fig3" => "Paper: SNAILS is less natural than Spider/Spider-Realistic/BIRD and closest to SchemaPile; Spider/BIRD are highly natural.",
        "table5" => "Paper: heuristic < few-shot (GPT-3.5 .646, GPT-4 .742) < finetuned (.896-.899); character tagging (+TG) improves F1. Measured reproduces the ordering and the ≈0.9 finetuned ceiling.",
        "schemapile" => "Paper: >7,500 schemas (32%) with ≥10% Least identifiers; >5,000 schemas with combined ≤0.7, within which Low+Least outnumber Regular.",
        "fig26" => "Paper: more natural identifiers have more characters (CDF shifts right with naturalness).",
        "fig27" => "Paper: token count alone is NOT very sensitive to naturalness (abbreviations fragment into subtokens).",
        "fig28" => "Paper: token-to-character ratio is clearly lower for more natural identifiers, for every model tokenizer.",
        "modifiers" => "Paper (appendix C): few-shot abbreviation is reliable; expansion needs metadata; outputs were human-validated.",
        "fig8" => "Paper: slight improvement Native → Regular, significant drop at Low, worst at Least; gemini/gpt-4o ≈ .5-.6, gpt-3.5 ≈ .45, phind/codes ≈ .3 on average. Measured reproduces ordering and shape.",
        "fig9" => "Paper: IdentifierRecall increases with naturalness level for all 5 LLMs; differences visible per level with 95% CIs.",
        "fig10" => "Paper: QueryRecall equal-or-better at higher naturalness; open-source models and GPT-3.5 most sensitive; ≈20% drop Regular/Low → Least consistent across models.",
        "fig11" => "Paper: NTSB (low naturalness) improves Native→Regular for all models; PILB (natural) needs no renaming; SBOD (least natural) gains the most from Native→Regular; Least always degrades.",
        "fig12" => "Paper: subsetting recall/precision/F1 vary by naturalness for both workflows; the CodeS finetuned filter is the more sensitive, DIN-SQL less pronounced but present at Least.",
        "fig30" => "Paper: databases with native combined < 0.69 improve when modified to Regular; databases above it perform best Native. Measured grid reproduces both regimes.",
        "tau-tables" | "stats" => "Paper: τ(combined, recall) +0.11..+0.29, τ(Least, recall) -0.13..-0.31, τ(TCR, recall) -0.13..-0.27, τ(combined, exec) +0.05..+0.20 — all p<0.001; weakest for Gemini, strongest for Phind/CodeS. Measured reproduces signs, significance, and the model-sensitivity ordering.",
        "naming-patterns" => "Paper (§6): whitespace appears in <1% of identifiers (808 SchemaPile columns, 63 tables; 148 in SNAILS) and gets hallucinated into snake/camel case; 700+ SchemaPile identifiers embed the word `table`, which some LLMs drop.",
        "f1-precision" => "Paper (appendix F.2): F1/precision track recall but sit lower because tolerated extra columns are penalized; recall is the primary linking metric.",
        "fig48-51" => "Paper (appendix I): per-database box plots of linking scores across naturalness levels — medians shift down as naturalness falls, with wider spread for the weaker models.",
        "ablation" => "Not in the paper: validates the simulation design (DESIGN.md). Disabling class-dependent token decoding (uniform-decode) must erase the naturalness effect; the other components shift levels without creating the effect.",
        "fig13" => "Paper: on renamed Spider, effects are most significant between Low and Least; performance at high naturalness resembles similarly-natural SNAILS schemas.",
        _ => "",
    }
}

fn main() {
    let args = parse_args();
    let started = Instant::now();
    let mut out = String::new();

    writeln!(
        out,
        "# SNAILS experiment reproduction\n\nGenerated by `cargo run --release \
         --bin experiments`{}; global seed {}.\n\nEvery section reproduces a table \
         or figure of \"SNAILS: Schema Naming Assessments for Improved LLM-Based \
         SQL Inference\" (SIGMOD 2025). Absolute values come from the simulated \
         substrate (see DESIGN.md); the paper-matching claims are about shape: \
         orderings, sensitivity gaps, correlation signs and significance.\n",
        if args.quick { " (--quick)" } else { "" },
        args.seed
    )
    .unwrap();

    // ---- Collection ---------------------------------------------------------
    eprintln!("[{:>7.1?}] building database collection...", started.elapsed());
    let names: Vec<&str> = if args.quick {
        vec!["CWO", "PILB", "NTSB"]
    } else {
        snails_data::DATABASE_NAMES.to_vec()
    };
    let collection: Vec<SnailsDatabase> =
        names.iter().map(|n| snails_data::build_database(n)).collect();

    // ---- Dataset-level sections --------------------------------------------
    let section = |key: &str, name: &str, body: String, out: &mut String| {
        writeln!(out, "\n## {name}\n\n```text\n{}```", body).unwrap();
        let note = paper_note(key);
        if !note.is_empty() {
            writeln!(out, "\n> {note}").unwrap();
        }
        eprintln!("[{:>7.1?}] {name} done", started.elapsed());
    };

    if wants(&args, "table1") {
        section("table1", "Table 1 — example identifiers", ds::table1(), &mut out);
    }
    if wants(&args, "fig2") {
        section("fig2", "Figure 2 — mean token-in-dictionary", ds::figure2(), &mut out);
    }
    if wants(&args, "table2") {
        section("table2", "Table 2 — database schemas", ds::table2(&collection), &mut out);
    }
    if wants(&args, "table3") {
        section("table3", "Table 3 — gold query clause counts", ds::table3(&collection), &mut out);
    }
    if wants(&args, "table4") && !args.quick {
        let sbod = collection
            .iter()
            .find(|d| d.spec.name == "SBOD")
            .expect("SBOD present in full runs");
        section("table4", "Table 4 — SBOD modules", ds::table4(sbod), &mut out);
    }
    if wants(&args, "fig5") {
        section("fig5", "Figure 5 — per-database naturalness", ds::figure5(&collection), &mut out);
    }
    if wants(&args, "fig3") {
        section("fig3", "Figure 3 — collection comparison", ds::figure3(&collection), &mut out);
    }
    if wants(&args, "table5") {
        section("table5", "Table 5 — classifier comparison", ds::table5(), &mut out);
    }
    if wants(&args, "schemapile") {
        section("schemapile", "§2.2 — SchemaPile statistics", ds::schemapile_report(), &mut out);
    }
    if wants(&args, "fig26") {
        section("fig26", "Figure 26 — character counts", ds::figure26(), &mut out);
    }
    if wants(&args, "fig27") {
        section("fig27", "Figure 27 — token counts", ds::figure27(), &mut out);
    }
    if wants(&args, "fig28") {
        section("fig28", "Figure 28 — token-to-character ratio", ds::figure28(), &mut out);
    }
    if wants(&args, "modifiers") {
        section("modifiers", "Appendix C — modifier quality", ds::modifier_report(), &mut out);
    }
    if wants(&args, "naming-patterns") {
        section(
            "naming-patterns",
            "§6 — other naming patterns",
            ds::naming_patterns_report(&collection),
            &mut out,
        );
    }

    // ---- Benchmark run ------------------------------------------------------
    let needs_run = [
        "fig8", "fig9", "fig10", "fig11", "fig12", "fig30", "tau-tables", "stats",
        "f1-precision", "fig48-51",
    ]
        .iter()
        .any(|s| wants(&args, s));
    let mut run: Option<BenchmarkRun> = None;
    if needs_run {
        eprintln!("[{:>7.1?}] running the NL-to-SQL benchmark...", started.elapsed());
        let config = BenchmarkConfig {
            seed: args.seed,
            databases: names.iter().map(|s| s.to_string()).collect(),
            variants: SchemaVariant::ALL.to_vec(),
            workflows: Workflow::all(),
            threads: args.threads,
            fault_profile: args.fault_profile,
            telemetry: args.telemetry.is_some(),
            shard: args.shard,
            checkpoint: args.ckpt.as_ref().map(CheckpointSpec::at),
            ..Default::default()
        };
        let r = run_benchmark_on(&collection, &config);
        eprintln!(
            "[{:>7.1?}] benchmark complete: {} inferences",
            started.elapsed(),
            r.records.len()
        );
        if let Some(stats) = r.checkpoint {
            eprintln!(
                "[{:>7.1?}] checkpoint {}: {} restored, {} recomputed, {} corrupt, {} written",
                started.elapsed(),
                config.shard.label(),
                stats.hits,
                stats.misses,
                stats.corrupt,
                stats.written
            );
        }
        if let (Some(path), Some(report)) = (&args.telemetry, &r.telemetry) {
            std::fs::write(path, report.to_json()).expect("write telemetry report");
            eprintln!(
                "[{:>7.1?}] wrote telemetry report {path} (plan-cache hit rate {})",
                started.elapsed(),
                report
                    .plan_cache_hit_rate()
                    .map(|r| format!("{r:.3}"))
                    .unwrap_or_else(|| "n/a".into())
            );
        }
        if !args.fault_profile.is_inert() {
            // JSON line so fault runs can be diffed/asserted by scripts.
            eprintln!(
                "{{\"fault_profile\":\"{}\",\"summary\":{}}}",
                args.fault_profile.name,
                r.faults.to_json()
            );
        }
        run = Some(r);
    }

    if let Some(run) = &run {
        if wants(&args, "fig8") {
            section("fig8", "Figure 8 — execution accuracy", rf::figure8(run), &mut out);
        }
        if wants(&args, "fig9") {
            section("fig9", "Figure 9 — identifier recall", rf::figure9(run, &collection), &mut out);
        }
        if wants(&args, "fig10") {
            section("fig10", "Figure 10 — query recall", rf::figure10(run), &mut out);
        }
        if wants(&args, "fig11") {
            let drill: Vec<&str> = ["NTSB", "PILB", "SBOD"]
                .into_iter()
                .filter(|d| names.contains(d))
                .collect();
            section("fig11", "Figure 11 — drill-down", rf::figure11(run, &drill), &mut out);
        }
        if wants(&args, "fig12") {
            section("fig12", "Figure 12 — schema subsetting", rf::figure12(run), &mut out);
        }
        if wants(&args, "f1-precision") {
            section(
                "f1-precision",
                "Appendix F.2 — F1 and precision",
                rf::figure_f1_precision(run),
                &mut out,
            );
        }
        if wants(&args, "fig30") {
            section("fig30", "Figure 30 — per-database accuracy", rf::figure30(run, &collection), &mut out);
        }
        if wants(&args, "fig48-51") {
            let drill: Vec<&str> = ["CWO", "NTSB", "NYSED", "PILB"]
                .into_iter()
                .filter(|d| names.contains(d))
                .collect();
            section(
                "fig48-51",
                "Figures 48–51 — per-database recall distributions",
                rf::figures_48_51(run, &drill),
                &mut out,
            );
        }
        if wants(&args, "tau-tables") || wants(&args, "stats") {
            section(
                "tau-tables",
                "Figures 31a–47b — Kendall-Tau tables",
                rf::all_tau_tables(run),
                &mut out,
            );
        }
    }

    // ---- Ablations (design-choice validation) --------------------------------
    if wants(&args, "ablation") {
        eprintln!("[{:>7.1?}] running the ablation study...", started.elapsed());
        let db = collection
            .iter()
            .find(|d| d.spec.name == "CWO")
            .expect("CWO in every run");
        let mut body = String::new();
        for model in [snails_llm::ModelKind::Gpt4o, snails_llm::ModelKind::Gpt35] {
            body.push_str(&snails_core::ablation::ablation_report(db, model, args.seed));
            body.push('\n');
        }
        section("ablation", "Ablation — simulation design choices", body, &mut out);
    }

    // ---- Spider (Figure 13) -------------------------------------------------
    if wants(&args, "fig13") {
        eprintln!("[{:>7.1?}] running the Spider-sim benchmark...", started.elapsed());
        let spider = snails_data::spider::build_spider();
        let config = BenchmarkConfig {
            seed: args.seed,
            databases: spider.iter().map(|d| d.spec.name.to_string()).collect(),
            variants: SchemaVariant::ALL.to_vec(),
            workflows: Workflow::all(),
            threads: args.threads,
            fault_profile: args.fault_profile,
            ..Default::default()
        };
        let spider_run = run_benchmark_on(&spider, &config);
        section("fig13", "Figure 13 — Spider-sim renaming", rf::figure13(&spider_run), &mut out);
    }

    writeln!(out, "\nTotal generation time: {:?}.", started.elapsed()).unwrap();
    println!("{out}");
    if args.write {
        std::fs::write("EXPERIMENTS.md", &out).expect("write EXPERIMENTS.md");
        eprintln!("[{:>7.1?}] wrote EXPERIMENTS.md", started.elapsed());
    }
}
