//! Test patterns and responses.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use dft_netlist::Netlist;

/// One fully-specified test pattern: a bit per combinational source
/// (primary inputs followed by pseudo primary inputs, in
/// [`Netlist::combinational_sources`] order).
///
/// [`Netlist::combinational_sources`]: dft_netlist::Netlist::combinational_sources
pub type Pattern = Vec<bool>;

/// One captured response: a bit per combinational sink (primary outputs
/// followed by pseudo primary outputs, in
/// [`Netlist::combinational_sinks`] order).
///
/// [`Netlist::combinational_sinks`]: dft_netlist::Netlist::combinational_sinks
pub type Response = Vec<bool>;

/// An ordered set of fully-specified test patterns.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PatternSet {
    width: usize,
    patterns: Vec<Pattern>,
}

impl PatternSet {
    /// Creates an empty set for patterns of `width` bits.
    pub fn new(width: usize) -> PatternSet {
        PatternSet {
            width,
            patterns: Vec::new(),
        }
    }

    /// Creates an empty set sized for `nl`'s combinational sources.
    pub fn for_netlist(nl: &Netlist) -> PatternSet {
        PatternSet::new(nl.num_inputs() + nl.num_dffs())
    }

    /// Generates `n` uniformly random patterns for `nl` (seeded, so
    /// reproducible).
    pub fn random(nl: &Netlist, n: usize, seed: u64) -> PatternSet {
        let width = nl.num_inputs() + nl.num_dffs();
        let mut rng = StdRng::seed_from_u64(seed);
        let patterns = (0..n)
            .map(|_| (0..width).map(|_| rng.gen_bool(0.5)).collect())
            .collect();
        PatternSet { width, patterns }
    }

    /// Pattern width in bits.
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of patterns.
    #[inline]
    pub fn len(&self) -> usize {
        self.patterns.len()
    }

    /// `true` when the set holds no patterns.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.patterns.is_empty()
    }

    /// Appends a pattern.
    ///
    /// # Panics
    ///
    /// Panics if the pattern width does not match the set width.
    pub fn push(&mut self, p: Pattern) {
        assert_eq!(p.len(), self.width, "pattern width mismatch");
        self.patterns.push(p);
    }

    /// The pattern at `idx`.
    #[inline]
    pub fn pattern(&self, idx: usize) -> &Pattern {
        &self.patterns[idx]
    }

    /// Iterates over the patterns in order.
    pub fn iter(&self) -> impl Iterator<Item = &Pattern> {
        self.patterns.iter()
    }

    /// Appends all patterns of `other`.
    ///
    /// # Panics
    ///
    /// Panics on width mismatch.
    pub fn extend_from(&mut self, other: &PatternSet) {
        assert_eq!(self.width, other.width);
        self.patterns.extend_from_slice(&other.patterns);
    }

    /// Packs patterns `[start, start+64)` into one word per source bit:
    /// bit `k` of `words[s]` is source `s` of pattern `start + k`.
    /// The returned `count` is the number of valid patterns in the block
    /// (≤ 64); unused high bits are zero.
    pub fn pack_block(&self, start: usize) -> (Vec<u64>, usize) {
        let count = (self.patterns.len() - start).min(64);
        let mut words = vec![0u64; self.width];
        for k in 0..count {
            let p = &self.patterns[start + k];
            for (s, &bit) in p.iter().enumerate() {
                if bit {
                    words[s] |= 1u64 << k;
                }
            }
        }
        (words, count)
    }
}

impl FromIterator<Pattern> for PatternSet {
    /// Collects patterns into a set, inferring the width from the first
    /// pattern (empty iterator yields an empty zero-width set).
    fn from_iter<I: IntoIterator<Item = Pattern>>(iter: I) -> PatternSet {
        let patterns: Vec<Pattern> = iter.into_iter().collect();
        let width = patterns.first().map(|p| p.len()).unwrap_or(0);
        for p in &patterns {
            assert_eq!(p.len(), width, "inconsistent pattern widths");
        }
        PatternSet { width, patterns }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dft_netlist::generators::c17;

    #[test]
    fn random_is_reproducible() {
        let nl = c17();
        let a = PatternSet::random(&nl, 10, 7);
        let b = PatternSet::random(&nl, 10, 7);
        assert_eq!(a, b);
        let c = PatternSet::random(&nl, 10, 8);
        assert_ne!(a, c);
    }

    #[test]
    fn pack_block_layout() {
        let mut ps = PatternSet::new(3);
        ps.push(vec![true, false, true]); // pattern 0
        ps.push(vec![false, true, true]); // pattern 1
        let (words, count) = ps.pack_block(0);
        assert_eq!(count, 2);
        assert_eq!(words[0], 0b01); // source 0: p0=1, p1=0
        assert_eq!(words[1], 0b10);
        assert_eq!(words[2], 0b11);
    }

    #[test]
    fn blocks_cover_all_patterns() {
        let nl = c17();
        let ps = PatternSet::random(&nl, 130, 1);
        let counts: Vec<usize> = (0..ps.len())
            .step_by(64)
            .map(|start| ps.pack_block(start).1)
            .collect();
        assert_eq!(counts, vec![64, 64, 2]);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn push_checks_width() {
        let mut ps = PatternSet::new(3);
        ps.push(vec![true]);
    }

    #[test]
    fn from_iterator_infers_width() {
        let ps: PatternSet = vec![vec![true, false], vec![false, true]]
            .into_iter()
            .collect();
        assert_eq!(ps.width(), 2);
        assert_eq!(ps.len(), 2);
    }
}
