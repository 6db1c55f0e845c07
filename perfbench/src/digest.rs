//! The correctness gate: digests of what the program answered.
//!
//! * `paper_grid` hashes its records as `checkpoint::manifest_from_run`
//!   renders them.
//! * The serve workloads hash every response's `encode_response` bytes,
//!   in tag order.
//!
//! For the default seed the benchmark carries reference digests. For any
//! other seed it compares against an independent reference computed in the
//! same run instead: a threads-1 grid, or a serial `Server::execute` replay.

use snails_serve::protocol::fnv1a;

/// The seed the reference digests were taken at (the paper grid's seed).
pub const DEFAULT_SEED: u64 = 2024;

/// Reference digests: (workload, seed, seconds, digest). The grid's digest
/// does not depend on how long the run measures (`seconds` = 0); a serve
/// run's request count does, so its digest is keyed by it (40 s is the
/// run length `BENCHMARK.json` sets).
const REFERENCE: &[(&str, u64, u64, u64)] = &[
    ("paper_grid", DEFAULT_SEED, 0, 0x97d4_671a_610b_5cb0),
    ("serve_sql", DEFAULT_SEED, 40, 0x6962_330f_80ae_4c21),
    ("serve_ask", DEFAULT_SEED, 25, 0xe8c8_6aea_2d4c_93a1),
];

/// The carried reference digest for a run, if there is one.
pub fn reference(workload: &str, seed: u64, seconds: u64) -> Option<u64> {
    lookup(REFERENCE, workload, seed, seconds)
}

fn lookup(table: &[(&str, u64, u64, u64)], workload: &str, seed: u64, seconds: u64) -> Option<u64> {
    table
        .iter()
        .find(|(w, s, secs, _)| *w == workload && *s == seed && (*secs == 0 || *secs == seconds))
        .map(|&(_, _, _, d)| d)
}

/// Digest of a rendered grid manifest.
pub fn grid(manifest: &str) -> u64 {
    fnv1a(manifest.as_bytes())
}

/// Digest of encoded responses, ordered by tag. Each entry is
/// `(tag, fnv1a of the response's encode_response bytes)`; the receiver
/// hashes each frame as it arrives instead of keeping every body.
pub fn responses(mut frames: Vec<(u64, u64)>) -> u64 {
    frames.sort_unstable();
    let bytes: Vec<u8> = frames
        .iter()
        .flat_map(|(tag, hash)| tag.to_le_bytes().into_iter().chain(hash.to_le_bytes()))
        .collect();
    fnv1a(&bytes)
}

/// Whether two digests agree; a mismatch names both.
pub fn check(what: &str, actual: u64, expected: u64) -> Result<(), String> {
    if actual == expected {
        Ok(())
    } else {
        Err(format!(
            "{what}: digest {actual:016x} differs from reference {expected:016x}"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_changed_byte_is_a_mismatch() {
        let (x, y) = (fnv1a(&[1, 2, 3]), fnv1a(&[9]));
        let a = responses(vec![(2, x), (1, y)]);
        let b = responses(vec![(1, y), (2, x)]);
        assert!(
            check("serve", a, b).is_ok(),
            "arrival order does not matter"
        );
        let c = responses(vec![(1, y), (2, fnv1a(&[1, 2, 4]))]);
        let err = check("serve", c, a).unwrap_err();
        assert!(err.contains("differs from reference"), "{err}");
        // The same answers under swapped tags are a mismatch too.
        let d = responses(vec![(1, x), (2, y)]);
        assert!(check("serve", d, a).is_err());
        // So is a missing answer.
        assert!(check("serve", responses(vec![(1, y)]), a).is_err());
        assert!(check("grid", grid("r 1\n"), grid("r 2\n")).is_err());
    }

    #[test]
    fn lookup_matches_workload_seed_and_seconds() {
        let table = [("paper_grid", 2024, 0, 11), ("serve_sql", 2024, 20, 22)];
        assert_eq!(lookup(&table, "paper_grid", 2024, 7), Some(11));
        assert_eq!(lookup(&table, "paper_grid", 5, 7), None);
        assert_eq!(lookup(&table, "serve_sql", 2024, 20), Some(22));
        assert_eq!(lookup(&table, "serve_sql", 2024, 10), None);
        assert_eq!(lookup(&table, "serve_ask", 2024, 20), None);
    }
}
