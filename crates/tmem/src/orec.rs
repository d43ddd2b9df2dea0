//! Versioned ownership records ("orecs"), one per cache line.
//!
//! An orec packs a write-lock bit and a version number into one `u64`:
//!
//! ```text
//!   63                                   1   0
//!  +--------------------------------------+---+
//!  |               version                | L |
//!  +--------------------------------------+---+
//! ```
//!
//! The version is a snapshot of the global clock taken the last time the
//! line was (transactionally or directly) written. A transaction reading
//! the line records the orec value and re-validates it at commit; any
//! intervening write changes the version (or sets the lock bit) and makes
//! validation fail.

/// An orec value (packed lock bit + version).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OrecValue(pub u64);

impl OrecValue {
    /// The initial orec value: version 0, unlocked.
    pub const ZERO: OrecValue = OrecValue(0);

    /// Packs an unlocked orec with the given version.
    #[inline]
    pub fn unlocked(version: u64) -> Self {
        debug_assert!(version <= u64::MAX >> 1, "version overflow");
        OrecValue(version << 1)
    }

    /// Returns this orec value with the lock bit set.
    #[inline]
    pub fn locked(self) -> Self {
        OrecValue(self.0 | 1)
    }

    /// Whether the lock bit is set.
    #[inline]
    pub fn is_locked(self) -> bool {
        self.0 & 1 != 0
    }

    /// The version component.
    #[inline]
    pub fn version(self) -> u64 {
        self.0 >> 1
    }

    /// The raw packed representation.
    #[inline]
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl From<u64> for OrecValue {
    fn from(raw: u64) -> Self {
        OrecValue(raw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_unpack() {
        let o = OrecValue::unlocked(42);
        assert!(!o.is_locked());
        assert_eq!(o.version(), 42);
        let l = o.locked();
        assert!(l.is_locked());
        assert_eq!(l.version(), 42);
    }

    #[test]
    fn zero_is_unlocked_v0() {
        assert!(!OrecValue::ZERO.is_locked());
        assert_eq!(OrecValue::ZERO.version(), 0);
    }

    #[test]
    fn raw_round_trip() {
        let o = OrecValue::unlocked(7).locked();
        let o2: OrecValue = o.raw().into();
        assert_eq!(o, o2);
    }

    #[test]
    fn version_changes_distinguish_values() {
        assert_ne!(OrecValue::unlocked(1), OrecValue::unlocked(2));
        assert_ne!(OrecValue::unlocked(1), OrecValue::unlocked(1).locked());
    }

    #[test]
    fn max_version_round_trips() {
        // The largest representable version: all 63 bits set. Packing
        // must not clobber the lock bit and unpacking must be lossless.
        let max = u64::MAX >> 1;
        let o = OrecValue::unlocked(max);
        assert_eq!(o.version(), max);
        assert!(!o.is_locked());
        let l = o.locked();
        assert!(l.is_locked());
        assert_eq!(l.version(), max, "lock bit must not leak into version");
        assert_eq!(l.raw(), u64::MAX);
    }

    #[test]
    fn near_max_versions_stay_ordered() {
        // Commit compares versions with `<=`; the packed representation
        // must preserve ordering right up to the boundary.
        let max = u64::MAX >> 1;
        assert!(OrecValue::unlocked(max - 1).version() < OrecValue::unlocked(max).version());
        assert!(OrecValue::unlocked(max - 1).raw() < OrecValue::unlocked(max).raw());
    }

    #[test]
    #[cfg_attr(
        not(debug_assertions),
        ignore = "debug_assert only fires in debug builds"
    )]
    #[should_panic(expected = "version overflow")]
    fn overflowing_version_panics_in_debug() {
        // One past the representable range would shift into the sign-off
        // bit and alias `locked()` values; debug builds must catch it.
        let _ = OrecValue::unlocked((u64::MAX >> 1) + 1);
    }
}
