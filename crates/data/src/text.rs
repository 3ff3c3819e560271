//! Synthetic skip-gram language-modeling workload — the Text8 stand-in
//! (see DESIGN.md, substitution table).
//!
//! The paper trains a word2vec skip-gram model on Text8 (§5.1): given a
//! one-hot center word, predict the words inside a +-`window` context
//! (window = 2 in the paper), through a hidden layer of 200 units and a
//! vocabulary-sized softmax. We regenerate that *shape* with a synthetic
//! corpus: Zipf-distributed unigrams (natural-language frequency profile)
//! with planted first-order co-occurrence structure (each word has a small
//! set of "collocates" it attracts), so skip-gram training has real signal
//! to learn and P@1 climbs as in Figure 6.

use crate::dataset::Dataset;
use crate::zipf::Zipf;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use slide_hash::mix::{mix3, reduce};

/// Configuration for the synthetic skip-gram corpus.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TextConfig {
    /// Vocabulary size (Text8: 253,855).
    pub vocab: usize,
    /// Tokens in the generated corpus.
    pub corpus_len: usize,
    /// Context window on each side (the paper uses 2).
    pub window: usize,
    /// Number of collocates planted per word.
    pub collocates: usize,
    /// Probability that the next token is a collocate of the previous one
    /// (the learnable signal; the rest are Zipf draws).
    pub cohesion: f64,
    /// Zipf exponent of the unigram distribution.
    pub zipf_exponent: f64,
    /// Fraction of skip-gram samples diverted to the test split.
    pub test_fraction: f64,
    /// Master seed.
    pub seed: u64,
}

impl Default for TextConfig {
    fn default() -> Self {
        TextConfig {
            vocab: 4096,
            corpus_len: 50_000,
            window: 2,
            collocates: 6,
            cohesion: 0.55,
            zipf_exponent: 1.0,
            test_fraction: 0.2,
            seed: 0x7E87,
        }
    }
}

impl TextConfig {
    /// A scaled-down Text8-shaped workload.
    pub fn text8_scaled(scale: usize) -> Self {
        let scale = scale.max(1);
        TextConfig {
            vocab: 4096 * scale,
            corpus_len: 60_000 * scale,
            ..Default::default()
        }
    }
}

/// A generated skip-gram dataset: one-hot center-word features, multi-hot
/// context-word labels (the word2vec architecture of §5.1/§5.3).
#[derive(Debug, Clone)]
pub struct TextDataset {
    /// Training split.
    pub train: Dataset,
    /// Test split.
    pub test: Dataset,
    /// The raw token stream the samples were extracted from.
    pub corpus: Vec<u32>,
    /// The configuration that produced it.
    pub config: TextConfig,
}

/// The `j`-th planted collocate of `word`.
pub fn collocate(config: &TextConfig, word: u32, j: u32) -> u32 {
    reduce(
        mix3(config.seed ^ 0xC011, word as u64, j as u64),
        config.vocab,
    ) as u32
}

/// Generate the synthetic corpus and extract skip-gram training pairs.
///
/// Deterministic: the same config always yields the same dataset.
///
/// # Examples
///
/// ```
/// use slide_data::{generate_text, TextConfig};
///
/// let cfg = TextConfig { vocab: 100, corpus_len: 2000, ..Default::default() };
/// let ds = generate_text(&cfg);
/// assert!(ds.train.len() > 1000);
/// // One-hot input, up to 2*window labels.
/// assert_eq!(ds.train.features(0).nnz(), 1);
/// assert!(ds.train.labels(0).len() <= 4);
/// ```
pub fn generate_text(config: &TextConfig) -> TextDataset {
    assert!(config.vocab > 1, "TextConfig: vocab must exceed 1");
    assert!(config.window > 0, "TextConfig: window must be positive");
    assert!(
        (0.0..1.0).contains(&config.test_fraction),
        "TextConfig: test_fraction in [0,1)"
    );
    let zipf = Zipf::new(config.vocab, config.zipf_exponent);
    let mut rng = SmallRng::seed_from_u64(config.seed);

    // Corpus: Zipf unigrams with planted bigram cohesion.
    let mut corpus = Vec::with_capacity(config.corpus_len);
    let mut prev = zipf.sample(&mut rng) as u32;
    corpus.push(prev);
    for _ in 1..config.corpus_len {
        let next = if config.collocates > 0 && rng.gen_bool(config.cohesion) {
            collocate(config, prev, rng.gen_range(0..config.collocates as u32))
        } else {
            zipf.sample(&mut rng) as u32
        };
        corpus.push(next);
        prev = next;
    }

    // Skip-gram extraction: center word -> multi-hot context labels.
    let mut train = Dataset::new(config.vocab, config.vocab);
    let mut test = Dataset::new(config.vocab, config.vocab);
    let mut labels = Vec::with_capacity(2 * config.window);
    for (pos, &center) in corpus.iter().enumerate() {
        labels.clear();
        let lo = pos.saturating_sub(config.window);
        let hi = (pos + config.window + 1).min(corpus.len());
        for (ctx_pos, &ctx) in corpus[lo..hi].iter().enumerate() {
            if lo + ctx_pos != pos && !labels.contains(&ctx) {
                labels.push(ctx);
            }
        }
        if labels.is_empty() {
            continue;
        }
        labels.sort_unstable();
        let split = if rng.gen_bool(config.test_fraction) {
            &mut test
        } else {
            &mut train
        };
        split.push(&[center], &[1.0], &labels);
    }
    TextDataset {
        train,
        test,
        corpus,
        config: *config,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> TextConfig {
        TextConfig {
            vocab: 200,
            corpus_len: 5_000,
            ..Default::default()
        }
    }

    #[test]
    fn deterministic() {
        let a = generate_text(&small_config());
        let b = generate_text(&small_config());
        assert_eq!(a.corpus, b.corpus);
        assert_eq!(a.train.len(), b.train.len());
    }

    #[test]
    fn skip_gram_shape() {
        let ds = generate_text(&small_config());
        for i in 0..ds.train.len().min(500) {
            let x = ds.train.features(i);
            assert_eq!(x.nnz(), 1, "one-hot input");
            assert_eq!(x.values, &[1.0]);
            let labels = ds.train.labels(i);
            assert!(!labels.is_empty() && labels.len() <= 4);
            // Labels are the neighbours of this center occurrence; all in vocab.
            assert!(labels.iter().all(|&l| (l as usize) < 200));
        }
    }

    #[test]
    fn split_fractions_roughly_honoured() {
        let cfg = TextConfig {
            test_fraction: 0.25,
            ..small_config()
        };
        let ds = generate_text(&cfg);
        let total = (ds.train.len() + ds.test.len()) as f64;
        let frac = ds.test.len() as f64 / total;
        assert!((0.18..0.32).contains(&frac), "test fraction {frac}");
    }

    #[test]
    fn corpus_is_zipf_skewed() {
        let ds = generate_text(&small_config());
        let mut counts = vec![0usize; 200];
        for &w in &ds.corpus {
            counts[w as usize] += 1;
        }
        let head: usize = counts[..5].iter().sum();
        let tail: usize = counts[100..105].iter().sum();
        assert!(head > tail, "head {head} tail {tail}");
    }

    #[test]
    fn cohesion_plants_cooccurrence() {
        // With high cohesion, a word's collocates follow it far more often
        // than chance.
        let cfg = TextConfig {
            cohesion: 0.9,
            corpus_len: 20_000,
            ..small_config()
        };
        let ds = generate_text(&cfg);
        let mut followed_by_collocate = 0usize;
        let mut total = 0usize;
        for w in ds.corpus.windows(2) {
            let colls: Vec<u32> = (0..cfg.collocates as u32)
                .map(|j| collocate(&cfg, w[0], j))
                .collect();
            total += 1;
            if colls.contains(&w[1]) {
                followed_by_collocate += 1;
            }
        }
        let rate = followed_by_collocate as f64 / total as f64;
        assert!(rate > 0.5, "collocate follow rate {rate}");
    }
}
