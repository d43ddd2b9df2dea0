//! Configuration of a transactional memory instance.

/// Configuration for a [`TMem`](crate::TMem) instance.
///
/// The defaults model a TSX-like processor: 64-byte cache lines (8 words),
/// a write set bounded by an L1-sized buffer (512 lines = 32 KiB) and a
/// larger read-set capacity (4096 lines), together with a memory of one
/// million words (8 MiB), which is ample for the data structures in this
/// workspace.
#[derive(Clone, Debug)]
pub struct TMemConfig {
    /// Total number of words in the memory. Fixed at construction; the
    /// memory does not grow (growth would require moving the backing store,
    /// which cannot be done while concurrent transactions run).
    pub words: usize,
    /// log2 of the number of words per conflict-detection line. The default
    /// of 3 (8 words = 64 bytes) matches common cache-line sizes, which is
    /// the granularity at which Intel TSX detects conflicts. Setting it to
    /// 0 gives word-granularity detection (useful in tests).
    pub words_per_line_log2: u32,
    /// Maximum number of distinct lines a transaction may read before it
    /// aborts with [`AbortCause::Capacity`](crate::AbortCause::Capacity).
    pub read_cap_lines: usize,
    /// Maximum number of distinct lines a transaction may write before it
    /// aborts with [`AbortCause::Capacity`](crate::AbortCause::Capacity).
    pub write_cap_lines: usize,
}

impl Default for TMemConfig {
    fn default() -> Self {
        TMemConfig {
            words: 1 << 20,
            words_per_line_log2: 3,
            read_cap_lines: 4096,
            write_cap_lines: 512,
        }
    }
}

impl TMemConfig {
    /// A small memory with word-granularity conflict detection, convenient
    /// for unit tests that want precise control over conflicts.
    pub fn small_word_granular() -> Self {
        TMemConfig {
            words: 1 << 12,
            words_per_line_log2: 0,
            read_cap_lines: 1 << 12,
            write_cap_lines: 1 << 12,
        }
    }

    /// Builder-style override of the memory size in words.
    pub fn with_words(mut self, words: usize) -> Self {
        self.words = words;
        self
    }

    /// Builder-style override of the read-set capacity in lines.
    pub fn with_read_cap(mut self, lines: usize) -> Self {
        self.read_cap_lines = lines;
        self
    }

    /// Builder-style override of the write-set capacity in lines.
    pub fn with_write_cap(mut self, lines: usize) -> Self {
        self.write_cap_lines = lines;
        self
    }

    /// Number of words per conflict-detection line.
    #[inline]
    pub fn words_per_line(&self) -> usize {
        1 << self.words_per_line_log2
    }

    /// Number of lines covering the whole memory.
    #[inline]
    pub fn lines(&self) -> usize {
        self.words.div_ceil(self.words_per_line())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_models_tsx() {
        let c = TMemConfig::default();
        assert_eq!(c.words_per_line(), 8);
        assert_eq!(c.write_cap_lines, 512); // 32 KiB of 64-byte lines
        assert!(c.read_cap_lines > c.write_cap_lines);
    }

    #[test]
    fn line_count_rounds_up() {
        let c = TMemConfig {
            words: 9,
            words_per_line_log2: 3,
            ..TMemConfig::default()
        };
        assert_eq!(c.lines(), 2);
    }

    #[test]
    fn word_granular_config() {
        let c = TMemConfig::small_word_granular();
        assert_eq!(c.words_per_line(), 1);
        assert_eq!(c.lines(), c.words);
    }

    #[test]
    fn builder_overrides() {
        let c = TMemConfig::default()
            .with_words(128)
            .with_read_cap(4)
            .with_write_cap(2);
        assert_eq!(c.words, 128);
        assert_eq!(c.read_cap_lines, 4);
        assert_eq!(c.write_cap_lines, 2);
    }
}
