//! Levenshtein edit distance with a rolling single-row implementation.
//!
//! Used by the appendix B.1 heuristic scorer (edit distance between an
//! identifier token and candidate dictionary expansions) and by the simulated
//! LLMs' typo-like hallucination detection.

/// Classic Levenshtein distance over bytes (inputs are ASCII identifiers).
///
/// Runs in `O(|a| * |b|)` time and `O(min(|a|, |b|))` space.
pub fn levenshtein(a: &str, b: &str) -> usize {
    levenshtein_by(a.as_bytes(), b.as_bytes(), |c| c)
}

/// Case-insensitive Levenshtein distance: equal to `levenshtein` of both
/// inputs' `to_ascii_lowercase`, folding each byte as it is compared.
pub fn levenshtein_ignore_case(a: &str, b: &str) -> usize {
    levenshtein_by(a.as_bytes(), b.as_bytes(), |c| c.to_ascii_lowercase())
}

/// Rows this long live on the stack, so identifier-sized inputs allocate
/// nothing.
const STACK_ROW: usize = 64;

/// The rolling-row kernel behind both distances; `fold` maps each byte
/// before comparison.
fn levenshtein_by(a: &[u8], b: &[u8], fold: impl Fn(u8) -> u8) -> usize {
    let (a, b) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if a.is_empty() {
        return b.len();
    }
    let mut stack = [0usize; STACK_ROW + 1];
    let mut heap = Vec::new();
    let row: &mut [usize] = if a.len() <= STACK_ROW {
        &mut stack[..=a.len()]
    } else {
        heap.resize(a.len() + 1, 0);
        &mut heap
    };
    for (i, r) in row.iter_mut().enumerate() {
        *r = i;
    }
    for (j, &bc) in b.iter().enumerate() {
        let bc = fold(bc);
        let mut prev_diag = row[0];
        row[0] = j + 1;
        for (i, &ac) in a.iter().enumerate() {
            let cost = usize::from(fold(ac) != bc);
            let next = (prev_diag + cost).min(row[i] + 1).min(row[i + 1] + 1);
            prev_diag = row[i + 1];
            row[i + 1] = next;
        }
    }
    row[a.len()]
}

/// Normalized similarity in `[0, 1]`: `1 - dist / max_len`.
pub fn similarity(a: &str, b: &str) -> f64 {
    let max_len = a.len().max(b.len());
    if max_len == 0 {
        return 1.0;
    }
    1.0 - levenshtein(a, b) as f64 / max_len as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical() {
        assert_eq!(levenshtein("height", "height"), 0);
    }

    #[test]
    fn empty_sides() {
        assert_eq!(levenshtein("", "abc"), 3);
        assert_eq!(levenshtein("abc", ""), 3);
        assert_eq!(levenshtein("", ""), 0);
    }

    #[test]
    fn known_distances() {
        assert_eq!(levenshtein("kitten", "sitting"), 3);
        assert_eq!(levenshtein("flaw", "lawn"), 2);
        assert_eq!(levenshtein("vg", "vegetation"), 8);
        assert_eq!(levenshtein("ht", "height"), 4);
    }

    #[test]
    fn symmetric() {
        assert_eq!(levenshtein("abcd", "xy"), levenshtein("xy", "abcd"));
    }

    #[test]
    fn case_insensitive() {
        assert_eq!(levenshtein_ignore_case("HEIGHT", "height"), 0);
        assert!(levenshtein("HEIGHT", "height") > 0);
    }

    #[test]
    fn similarity_bounds() {
        assert_eq!(similarity("", ""), 1.0);
        assert_eq!(similarity("abc", "abc"), 1.0);
        assert_eq!(similarity("abc", "xyz"), 0.0);
        let s = similarity("custmr", "customer");
        assert!(s > 0.5 && s < 1.0);
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn triangle_inequality(a in "[a-z]{0,12}", b in "[a-z]{0,12}", c in "[a-z]{0,12}") {
            let ab = levenshtein(&a, &b);
            let bc = levenshtein(&b, &c);
            let ac = levenshtein(&a, &c);
            prop_assert!(ac <= ab + bc);
        }

        #[test]
        fn bounded_by_longer(a in "[a-z]{0,16}", b in "[a-z]{0,16}") {
            let d = levenshtein(&a, &b);
            prop_assert!(d <= a.len().max(b.len()));
            prop_assert!(d >= a.len().abs_diff(b.len()));
        }

        #[test]
        fn ignore_case_matches_lowercased_inputs(
            a in "[a-zA-Z0-9_ éÉßÅåΣσ]{0,20}",
            b in "[a-zA-Z0-9_ éÉßÅåΣσ]{0,20}",
        ) {
            prop_assert_eq!(
                levenshtein_ignore_case(&a, &b),
                levenshtein(&a.to_ascii_lowercase(), &b.to_ascii_lowercase())
            );
        }

        #[test]
        fn ignore_case_matches_past_the_stack_row(a in "[a-zA-Zé]{60,80}", b in "[a-zA-Zé]{60,80}") {
            prop_assert_eq!(
                levenshtein_ignore_case(&a, &b),
                levenshtein(&a.to_ascii_lowercase(), &b.to_ascii_lowercase())
            );
        }

        #[test]
        fn zero_iff_equal(a in "[a-z]{0,16}", b in "[a-z]{0,16}") {
            prop_assert_eq!(levenshtein(&a, &b) == 0, a == b);
        }
    }
}
