//! From-scratch byte-pair-encoding tokenizer.
//!
//! Standard BPE: start from single characters, repeatedly merge the most
//! frequent adjacent pair in the training corpus, record the merge order, and
//! at encode time greedily apply merges by rank. Word-internal only — text is
//! first split at non-alphanumeric boundaries and camel-case transitions
//! (identifier-aware pre-tokenization, matching how code tokenizers treat
//! identifiers).
//!
//! Training is incremental (DESIGN.md §14): pair counts and a pair → word
//! index are built once, the best pair comes off a lazily invalidated
//! max-heap, and each merge rewrites only the words that contain it. The
//! learned merge list is identical to recounting every pair on every merge.

use crate::vocab::Vocabulary;
use crate::Tokenizer;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap};
use std::rc::Rc;

/// Learned merge rules over vocabulary ids: `(left, right) → (rank, merged)`
/// (lower rank = earlier merge).
type MergeTable = HashMap<(u32, u32), (u32, u32)>;

/// Id [`BpeTokenizer`] gives a character outside its vocabulary. No merge
/// rule contains it.
const UNKNOWN: u32 = u32::MAX;

/// Trainer configuration for [`BpeTokenizer`].
#[derive(Debug, Clone)]
pub struct BpeTrainer {
    merges: usize,
    name: String,
}

/// Training-time symbol table. Ids are interned by string, as the
/// string-comparing definition requires: one string, one id.
#[derive(Default)]
struct Symbols {
    names: Vec<Rc<str>>,
    ids: HashMap<Rc<str>, u32>,
}

impl Symbols {
    fn intern(&mut self, s: &str) -> u32 {
        if let Some(&id) = self.ids.get(s) {
            return id;
        }
        let name: Rc<str> = s.into();
        let id = self.names.len() as u32;
        self.names.push(Rc::clone(&name));
        self.ids.insert(name, id);
        id
    }

    fn name(&self, id: u32) -> &str {
        &self.names[id as usize]
    }
}

/// Corpus-wide weighted count of one adjacent pair, and the words that may
/// contain it (stale or repeated entries are allowed and skipped).
#[derive(Default)]
struct PairStat {
    count: u64,
    words: Vec<u32>,
}

/// A heap entry: the count a pair had when pushed. Greatest = highest count,
/// then the lexicographically smallest `(left, right)` strings.
struct Candidate {
    count: u64,
    left: Rc<str>,
    right: Rc<str>,
    pair: (u32, u32),
}

impl Candidate {
    fn new(pair: (u32, u32), count: u64, symbols: &Symbols) -> Self {
        Candidate {
            count,
            left: Rc::clone(&symbols.names[pair.0 as usize]),
            right: Rc::clone(&symbols.names[pair.1 as usize]),
            pair,
        }
    }
}

impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> Ordering {
        self.count
            .cmp(&other.count)
            .then_with(|| (&other.left, &other.right).cmp(&(&self.left, &self.right)))
    }
}

impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Candidate {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Candidate {}

impl BpeTrainer {
    /// Trainer that will learn at most `merges` merge rules.
    pub fn new(merges: usize) -> Self {
        BpeTrainer { merges, name: "bpe".to_owned() }
    }

    /// Set the tokenizer display name.
    pub fn with_name(mut self, name: &str) -> Self {
        self.name = name.to_owned();
        self
    }

    /// Train on a corpus of `(word, frequency)` pairs. Words are used as
    /// given: no splitting or case folding, and empty words are skipped.
    ///
    /// Each of up to `merges` steps merges the adjacent pair with the
    /// highest frequency-weighted count (at least 2), breaking ties by the
    /// lexicographically smallest `(left, right)`.
    pub fn train(&self, corpus: &[(String, u64)]) -> BpeTokenizer {
        let mut symbols = Symbols::default();
        let mut words: Vec<(Vec<u32>, u64)> = corpus
            .iter()
            .filter(|(w, _)| !w.is_empty())
            .map(|(w, f)| {
                let chars = w.chars().map(|c| symbols.intern(c.encode_utf8(&mut [0; 4])));
                (chars.collect(), *f)
            })
            .collect();

        let mut pairs: HashMap<(u32, u32), PairStat> = HashMap::new();
        for (wi, (syms, freq)) in words.iter().enumerate() {
            for w in syms.windows(2) {
                let stat = pairs.entry((w[0], w[1])).or_default();
                stat.count += freq;
                if stat.words.last() != Some(&(wi as u32)) {
                    stat.words.push(wi as u32);
                }
            }
        }
        let mut heap: BinaryHeap<Candidate> = pairs
            .iter()
            .filter(|(_, s)| s.count >= 2)
            .map(|(&pair, s)| Candidate::new(pair, s.count, &symbols))
            .collect();

        // `(left, right, merged)` in selection order.
        let mut learned: Vec<(u32, u32, u32)> = Vec::new();
        let mut changed: Vec<(u32, u32)> = Vec::new();
        for _ in 0..self.merges {
            // An entry is current when its count is the pair's count now.
            let best = loop {
                match heap.pop() {
                    Some(c) if pairs.get(&c.pair).is_some_and(|s| s.count == c.count) => {
                        break Some(c)
                    }
                    Some(_) => continue,
                    None => break None,
                }
            };
            let Some(best) = best else { break };
            let (left, right) = best.pair;
            let merged = symbols.intern(&format!("{}{}", best.left, best.right));
            learned.push((left, right, merged));

            let touched = std::mem::take(&mut pairs.get_mut(&best.pair).expect("popped").words);
            for wi in touched {
                // A stale or repeated index entry: the word holds no
                // (left, right) pair (a merge leaves none behind).
                let (syms, freq) = &mut words[wi as usize];
                if !syms.windows(2).any(|w| w == [left, right]) {
                    continue;
                }
                for w in syms.windows(2) {
                    let pair = (w[0], w[1]);
                    pairs.get_mut(&pair).expect("counted pair").count -= *freq;
                    changed.push(pair);
                }
                // Left to right, non-overlapping: `a`+`a` on `aaa` gives `aa a`.
                let (mut read, mut write) = (0, 0);
                while read < syms.len() {
                    if read + 1 < syms.len() && syms[read] == left && syms[read + 1] == right {
                        syms[write] = merged;
                        read += 2;
                    } else {
                        syms[write] = syms[read];
                        read += 1;
                    }
                    write += 1;
                }
                syms.truncate(write);
                for w in syms.windows(2) {
                    let pair = (w[0], w[1]);
                    let stat = pairs.entry(pair).or_default();
                    stat.count += *freq;
                    // Pairs without the new symbol were already indexed here.
                    if (pair.0 == merged || pair.1 == merged) && stat.words.last() != Some(&wi) {
                        stat.words.push(wi);
                    }
                    changed.push(pair);
                }
            }
            changed.sort_unstable();
            changed.dedup();
            for pair in changed.drain(..) {
                let count = pairs[&pair].count;
                if count >= 2 {
                    heap.push(Candidate::new(pair, count, &symbols));
                }
            }
        }

        // Vocabulary: all single chars seen, the symbols of the trained
        // words, then the remaining merged symbols in rank order.
        let mut vocab = Vocabulary::new();
        for (w, _) in corpus {
            for c in w.chars() {
                vocab.intern(c.encode_utf8(&mut [0; 4]));
            }
        }
        for (syms, _) in &words {
            for &s in syms {
                vocab.intern(symbols.name(s));
            }
        }
        for &(_, _, m) in &learned {
            vocab.intern(symbols.name(m));
        }
        let id = |s: u32| vocab.get(symbols.name(s)).expect("merge symbol in vocabulary");
        let mut merges = MergeTable::with_capacity(learned.len());
        for (rank, &(l, r, m)) in learned.iter().enumerate() {
            // `insert` in rank order: a pair learned twice keeps its later rank.
            merges.insert((id(l), id(r)), (rank as u32, id(m)));
        }

        BpeTokenizer { name: self.name.clone(), merges, vocab }
    }
}

/// A trained BPE tokenizer.
#[derive(Debug, Clone)]
pub struct BpeTokenizer {
    name: String,
    merges: MergeTable,
    vocab: Vocabulary,
}

impl BpeTokenizer {
    /// Number of learned merge rules.
    pub fn merge_count(&self) -> usize {
        self.merges.len()
    }

    /// Learned merge rules `(left, right)` in rank order, earliest first.
    #[cfg(test)]
    fn merges(&self) -> Vec<(&str, &str)> {
        let mut ranked: Vec<(u32, u32, u32)> =
            self.merges.iter().map(|(&(l, r), &(rank, _))| (rank, l, r)).collect();
        ranked.sort_unstable();
        let token = |id| self.vocab.token(id).expect("merge symbol in vocabulary");
        ranked.into_iter().map(|(_, l, r)| (token(l), token(r))).collect()
    }

    /// The tokenizer's vocabulary.
    pub fn vocabulary(&self) -> &Vocabulary {
        &self.vocab
    }

    /// Encode one pre-split word into `ids` (cleared first). Each pass
    /// applies the lowest-rank merge, leftmost on ties; characters outside
    /// the vocabulary become [`UNKNOWN`].
    fn encode_word_ids(&self, word: &str, ids: &mut Vec<u32>) {
        ids.clear();
        ids.extend(
            word.chars()
                .map(|c| self.vocab.get(c.encode_utf8(&mut [0; 4])).unwrap_or(UNKNOWN)),
        );
        while ids.len() >= 2 {
            let mut best: Option<(u32, usize, u32)> = None; // (rank, index, merged)
            for i in 0..ids.len() - 1 {
                if let Some(&(rank, merged)) = self.merges.get(&(ids[i], ids[i + 1])) {
                    if best.is_none_or(|(r, _, _)| rank < r) {
                        best = Some((rank, i, merged));
                    }
                }
            }
            let Some((_, i, merged)) = best else { break };
            ids[i] = merged;
            ids.remove(i + 1);
        }
    }

    /// Tokenize one pre-split word into subword strings.
    pub fn encode_word(&self, word: &str) -> Vec<String> {
        let mut ids = Vec::new();
        self.encode_word_ids(word, &mut ids);
        // Tokens spell the word in order; an unknown id covers one char.
        let mut rest = word;
        ids.into_iter()
            .map(|id| {
                let len = self
                    .vocab
                    .token(id)
                    .map_or_else(|| rest.chars().next().map_or(0, char::len_utf8), str::len);
                let (token, tail) = rest.split_at(len);
                rest = tail;
                token.to_owned()
            })
            .collect()
    }

    /// Pre-tokenize into word chunks: lowercase alphanumeric runs split at
    /// case transitions and separators, mirroring code-model pre-tokenizers.
    fn pre_tokenize(text: &str) -> Vec<String> {
        snails_lexicon::split_identifier(text)
            .into_iter()
            .map(|t| t.text.to_ascii_lowercase())
            .collect()
    }

    /// Tokenize arbitrary text into subword strings.
    pub fn encode_strings(&self, text: &str) -> Vec<String> {
        let mut out = Vec::new();
        for chunk in Self::pre_tokenize(text) {
            out.extend(self.encode_word(&chunk));
        }
        out
    }
}

impl Tokenizer for BpeTokenizer {
    fn name(&self) -> &str {
        &self.name
    }

    fn encode(&self, text: &str) -> Vec<u32> {
        let (mut out, mut ids) = (Vec::new(), Vec::new());
        for chunk in Self::pre_tokenize(text) {
            self.encode_word_ids(&chunk, &mut ids);
            out.extend_from_slice(&ids);
        }
        out
    }

    fn token_count(&self, text: &str) -> usize {
        let mut ids = Vec::new();
        Self::pre_tokenize(text)
            .iter()
            .map(|chunk| {
                self.encode_word_ids(chunk, &mut ids);
                ids.len()
            })
            .sum()
    }
}

/// The original trainer and encoder, kept as the oracle for the incremental
/// trainer and the id-based encoder.
#[cfg(test)]
mod reference {
    use std::collections::{BTreeSet, HashMap};

    /// `(left, right) → rank` over strings.
    pub type MergeTable = HashMap<(String, String), usize>;

    /// Recount every pair and rewrite every word on each merge. Returns the
    /// merge table and the vocabulary's token set.
    pub fn train(merges: usize, corpus: &[(String, u64)]) -> (MergeTable, BTreeSet<String>) {
        let mut words: Vec<(Vec<String>, u64)> = corpus
            .iter()
            .filter(|(w, _)| !w.is_empty())
            .map(|(w, f)| (w.chars().map(|c| c.to_string()).collect::<Vec<_>>(), *f))
            .collect();

        let mut merge_table: MergeTable = HashMap::new();
        for rank in 0..merges {
            let mut pair_counts: HashMap<(&str, &str), u64> = HashMap::new();
            for (symbols, freq) in &words {
                for pair in symbols.windows(2) {
                    *pair_counts.entry((pair[0].as_str(), pair[1].as_str())).or_insert(0) +=
                        freq;
                }
            }
            let best = pair_counts
                .iter()
                .filter(|(_, &c)| c >= 2)
                .max_by(|a, b| a.1.cmp(b.1).then_with(|| b.0.cmp(a.0)));
            let Some((&(left, right), _)) = best else { break };
            let (left, right) = (left.to_owned(), right.to_owned());
            let merged = format!("{left}{right}");

            for (symbols, _) in &mut words {
                let mut i = 0;
                while i + 1 < symbols.len() {
                    if symbols[i] == left && symbols[i + 1] == right {
                        symbols[i] = merged.clone();
                        symbols.remove(i + 1);
                    } else {
                        i += 1;
                    }
                }
            }
            merge_table.insert((left, right), rank);
        }

        let mut vocab: BTreeSet<String> =
            corpus.iter().flat_map(|(w, _)| w.chars().map(|c| c.to_string())).collect();
        vocab.extend(words.into_iter().flat_map(|(symbols, _)| symbols));
        vocab.extend(merge_table.keys().map(|(l, r)| format!("{l}{r}")));
        (merge_table, vocab)
    }

    /// Merge rules in rank order.
    pub fn ranked(table: &MergeTable) -> Vec<(&str, &str)> {
        let mut rules: Vec<_> = table.iter().collect();
        rules.sort_by_key(|(_, &rank)| rank);
        rules.into_iter().map(|((l, r), _)| (l.as_str(), r.as_str())).collect()
    }

    /// The original string encoder.
    pub fn encode_word(merges: &MergeTable, word: &str) -> Vec<String> {
        let mut symbols: Vec<String> = word.chars().map(|c| c.to_string()).collect();
        if symbols.len() < 2 {
            return symbols;
        }
        loop {
            let mut best: Option<(usize, usize)> = None; // (rank, index)
            for i in 0..symbols.len() - 1 {
                if let Some(&rank) = merges.get(&(symbols[i].clone(), symbols[i + 1].clone())) {
                    if best.is_none_or(|(r, _)| rank < r) {
                        best = Some((rank, i));
                    }
                }
            }
            let Some((_, i)) = best else { break };
            let merged = format!("{}{}", symbols[i], symbols[i + 1]);
            symbols[i] = merged;
            symbols.remove(i + 1);
            if symbols.len() < 2 {
                break;
            }
        }
        symbols
    }
}

#[cfg(test)]
mod test_util {
    use super::*;
    use std::sync::OnceLock;

    pub fn tiny_tokenizer() -> BpeTokenizer {
        let corpus: Vec<(String, u64)> = [
            ("height", 50),
            ("weight", 40),
            ("vegetation", 30),
            ("station", 30),
            ("nation", 20),
            ("the", 100),
            ("then", 40),
        ]
        .into_iter()
        .map(|(w, f)| (w.to_owned(), f))
        .collect();
        BpeTrainer::new(200).with_name("tiny").train(&corpus)
    }

    /// The GPT-like tokenizer, trained on the full English corpus.
    pub fn english_tokenizer() -> &'static BpeTokenizer {
        static T: OnceLock<BpeTokenizer> = OnceLock::new();
        T.get_or_init(|| {
            let budget = crate::TokenizerProfile::GptLike.merge_budget();
            BpeTrainer::new(budget).train(&crate::corpus::english_training_corpus())
        })
    }

    /// Both trainers on one corpus: rank-ordered merge lists and vocabulary
    /// token sets must agree.
    pub fn assert_trainers_agree(merges: usize, corpus: &[(String, u64)]) {
        let fast = BpeTrainer::new(merges).train(corpus);
        let (table, vocab) = super::reference::train(merges, corpus);
        assert_eq!(fast.merges(), super::reference::ranked(&table), "corpus {corpus:?}");
        let fast_vocab: std::collections::BTreeSet<String> =
            fast.vocabulary().iter().map(|(_, t)| t.to_owned()).collect();
        assert_eq!(fast_vocab, vocab, "corpus {corpus:?}");
        assert_eq!(fast.vocabulary().len(), vocab.len());
        // One string, one rule: no pair is learned twice and no two rules
        // spell the same symbol (DESIGN.md §14 shows why).
        let spelled: std::collections::BTreeSet<String> =
            fast.merges().iter().map(|(l, r)| format!("{l}{r}")).collect();
        assert_eq!(spelled.len(), fast.merge_count(), "corpus {corpus:?}");
    }
}

#[cfg(test)]
mod tests {
    use super::test_util::{assert_trainers_agree, tiny_tokenizer};
    use super::*;

    fn corpus(words: &[(&str, u64)]) -> Vec<(String, u64)> {
        words.iter().map(|&(w, f)| (w.to_owned(), f)).collect()
    }

    #[test]
    fn trained_words_become_single_tokens() {
        let t = tiny_tokenizer();
        assert_eq!(t.encode_word("height"), ["height"]);
        assert_eq!(t.encode_word("the"), ["the"]);
    }

    #[test]
    fn shared_suffixes_merge() {
        let t = tiny_tokenizer();
        // "ation" appears in vegetation/station/nation — unseen "cation"
        // should still benefit from the shared merges.
        let toks = t.encode_word("cation");
        assert!(toks.len() <= 3, "no merges applied: {toks:?}");
    }

    #[test]
    fn oov_fragments_into_more_tokens() {
        let t = tiny_tokenizer();
        let natural = t.encode_word("height").len();
        let abbreviated = t.encode_word("hght").len();
        assert!(abbreviated > natural);
    }

    #[test]
    fn single_char_and_empty() {
        let t = tiny_tokenizer();
        assert_eq!(t.encode_word("x"), ["x"]);
        assert!(t.encode_word("").is_empty());
    }

    #[test]
    fn encode_splits_identifiers() {
        let t = tiny_tokenizer();
        let toks = t.encode_strings("VegHeight_2");
        assert!(toks.iter().any(|s| s.contains('h')), "{toks:?}");
        // Separator is dropped; digits tokenized separately.
        assert!(toks.iter().all(|s| !s.contains('_')));
    }

    #[test]
    fn encode_ids_are_in_vocab() {
        let t = tiny_tokenizer();
        for id in t.encode("vegetation height") {
            assert!(t.vocabulary().token(id).is_some());
        }
    }

    #[test]
    fn merge_budget_respected() {
        let t = BpeTrainer::new(1).train(&corpus(&[("aaaa", 10), ("aaab", 10)]));
        assert!(t.merge_count() <= 1);
    }

    #[test]
    fn vocabulary_ids_are_deterministic() {
        let ids = |t: BpeTokenizer| -> Vec<(u32, String)> {
            t.vocabulary().iter().map(|(id, s)| (id, s.to_owned())).collect()
        };
        assert_eq!(ids(tiny_tokenizer()), ids(tiny_tokenizer()));
    }

    #[test]
    fn repeated_letters_merge_left_to_right() {
        // (a,a) on "aaa" leaves "aa a"; on "aaaaa" it leaves "aa aa a".
        assert_trainers_agree(10, &corpus(&[("aaa", 3), ("aaaaa", 2), ("", 9)]));
    }

    /// FNV-1a digest of a profile's rank-ordered merge list, with the number
    /// of merges and the vocabulary size.
    fn merge_digest(profile: crate::TokenizerProfile) -> (u64, usize, usize) {
        let english = crate::corpus::english_training_corpus();
        let t = BpeTrainer::new(profile.merge_budget()).train(&english);
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for (left, right) in t.merges() {
            for b in left.bytes().chain([0xff]).chain(right.bytes()).chain([0xff]) {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x1_0000_01b3);
            }
        }
        (h, t.merge_count(), t.vocabulary().len())
    }

    /// Values the recounting trainer produced on the English corpus.
    #[test]
    fn merge_lists_are_pinned() {
        use crate::TokenizerProfile::*;
        assert_eq!(merge_digest(GptLike), (0x2160_aba3_1c3d_0532, 3298, 3324));
        assert_eq!(merge_digest(CodeLlamaLike), (0x96c6_c110_5492_85d2, 2000, 2026));
        assert_eq!(merge_digest(BisonLike), (0xb706_23a1_b848_3144, 800, 826));
    }

    /// The full English corpus at every profile budget (slow in debug
    /// builds: the reference recounts every pair on every merge). Run with
    /// `cargo test --release -p snails-tokenize -- --ignored`.
    #[test]
    #[ignore]
    fn fast_trainer_matches_reference_on_the_english_corpus() {
        let english = crate::corpus::english_training_corpus();
        for profile in crate::TokenizerProfile::ALL {
            let budget = profile.merge_budget();
            if budget > 0 {
                assert_trainers_agree(budget, &english);
            }
        }
    }
}

#[cfg(test)]
mod prop_tests {
    use super::test_util::{assert_trainers_agree, english_tokenizer, tiny_tokenizer};
    use super::*;
    use proptest::prelude::*;

    /// Small weighted corpora: tiny alphabets and weights make count ties,
    /// repeated letters and one string reached by two merge paths common.
    fn small_corpus() -> impl Strategy<Value = Vec<(String, u64)>> {
        let word = prop_oneof![
            3 => "[ab]{0,7}",
            3 => "[a-d]{0,6}",
            1 => ("[a-c]", 1..7usize).prop_map(|(c, n)| c.repeat(n)),
        ];
        proptest::collection::vec((word, 1..5u64), 0..12)
    }

    /// Words over the English corpus alphabet, with characters outside it
    /// and runs of one letter.
    fn word() -> impl Strategy<Value = String> {
        prop_oneof![
            4 => "[a-z]{0,14}",
            2 => "[a-z0-9éQ_]{0,10}",
            1 => ("[a-z]", 1..12usize).prop_map(|(c, n)| c.repeat(n)),
        ]
    }

    proptest! {
        #[test]
        fn trainer_matches_reference(corpus in small_corpus(), merges in 0..40usize) {
            assert_trainers_agree(merges, &corpus);
        }

        #[test]
        fn encoder_matches_reference(word in word()) {
            let t = english_tokenizer();
            let table: reference::MergeTable = t
                .merges()
                .into_iter()
                .enumerate()
                .map(|(rank, (l, r))| ((l.to_owned(), r.to_owned()), rank))
                .collect();
            let expected = reference::encode_word(&table, &word);
            prop_assert_eq!(t.encode_word(&word), expected.clone());
            let ids: Vec<u32> =
                expected.iter().map(|s| t.vocab.get(s).unwrap_or(UNKNOWN)).collect();
            let mut fast = Vec::new();
            t.encode_word_ids(&word, &mut fast);
            prop_assert_eq!(fast, ids);
            let text = format!("{word}_Id");
            prop_assert_eq!(t.token_count(&text), t.encode_strings(&text).len());
            prop_assert_eq!(t.encode(&text).len(), t.token_count(&text));
        }

        #[test]
        fn encode_word_preserves_characters(word in "[a-z]{1,16}") {
            let t = tiny_tokenizer();
            let toks = t.encode_word(&word);
            let rebuilt: String = toks.concat();
            prop_assert_eq!(rebuilt, word);
        }

        #[test]
        fn token_count_le_char_count(word in "[a-z]{1,16}") {
            let t = tiny_tokenizer();
            prop_assert!(t.encode_word(&word).len() <= word.len());
        }
    }
}
