//! Pinned digests of simulated inference output.
//!
//! The link index (`SchemaView`'s memoized token classes and distractor
//! rankings) must leave every `run_workflow` output byte-identical to the
//! per-call computation it replaced. These tests fold each cell's emitted SQL,
//! per-identifier link outcomes and schema-subset decision into one FNV-1a
//! digest and compare it with the value the per-call implementation
//! produced.
//!
//! The CWO + SBOD slice runs in every `cargo test`. The full 12,072-cell grid
//! is `#[ignore]`d (slow in debug builds); run it with
//! `cargo test --release -p snails-llm --test inference_digest -- --ignored`.

use snails_data::{build_database, DATABASE_NAMES};
use snails_llm::linking::LinkOutcome;
use snails_llm::{run_workflow, SchemaView, Workflow};
use snails_naturalness::category::SchemaVariant;

/// The paper grid's global seed.
const SEED: u64 = 2024;

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn field(&mut self, s: &str) {
        for b in s.bytes().chain([0xff]) {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x1_0000_01b3);
        }
    }
}

/// Digest every workflow × variant × question cell of the named databases,
/// and return it with the number of cells folded in.
fn grid_digest(databases: &[&str]) -> (u64, usize) {
    let mut h = Fnv::new();
    let mut cells = 0;
    for name in databases {
        let db = build_database(name);
        for variant in SchemaVariant::ALL {
            let view = SchemaView::new(&db, variant);
            for workflow in Workflow::all() {
                for pair in &db.questions {
                    let r = run_workflow(workflow, &db, &view, pair, SEED);
                    h.field(r.workflow);
                    h.field(name);
                    h.field(variant.display_name());
                    h.field(&pair.id.to_string());
                    h.field(&r.inference.raw_sql);
                    for (native, outcome) in &r.inference.links {
                        let kind = match outcome {
                            LinkOutcome::Correct(_) => "C",
                            LinkOutcome::Hallucinated(_) => "H",
                            LinkOutcome::NaturalGuess(_) => "N",
                            LinkOutcome::Distractor(_) => "D",
                        };
                        h.field(native);
                        h.field(kind);
                        h.field(outcome.emitted());
                    }
                    match &r.subset {
                        Some(s) => {
                            h.field("kept");
                            for t in &s.kept {
                                h.field(t);
                            }
                        }
                        None => h.field("no-subset"),
                    }
                    cells += 1;
                }
            }
        }
    }
    (h.0, cells)
}

#[test]
fn cwo_and_sbod_inference_digest_is_pinned() {
    let (digest, cells) = grid_digest(&["CWO", "SBOD"]);
    assert_eq!(cells, 3_360, "cell count");
    assert_eq!(digest, 0x09e8_62b3_50dd_e90c, "inference digest {digest:#018x}");
}

#[test]
#[ignore = "full 12,072-cell grid; run with --release -- --ignored"]
fn full_grid_inference_digest_is_pinned() {
    let (digest, cells) = grid_digest(&DATABASE_NAMES);
    assert_eq!(cells, 12_072, "cell count");
    assert_eq!(digest, 0xf7e2_4e51_fc4e_3d0a, "inference digest {digest:#018x}");
}
