//! Cache-line address arithmetic.
//!
//! The paper simulates 64-byte cache lines throughout ("particularly with
//! our 64 byte cache lines", §3.2). All coherence state, directory state
//! and cache occupancy is tracked at line granularity.

/// Log2 of the cache line size in bytes.
pub const LINE_SHIFT: u32 = 6;

/// Cache line size in bytes (64, as in the paper).
pub const LINE_BYTES: u64 = 1 << LINE_SHIFT;

/// A cache-line address: a byte address shifted right by [`LINE_SHIFT`].
pub type LineAddr = u64;

/// Returns the line address containing byte address `addr`.
#[inline(always)]
pub fn line_of(addr: u64) -> LineAddr {
    addr >> LINE_SHIFT
}

/// Returns the first byte address of line `line`.
#[inline(always)]
pub fn line_base(line: LineAddr) -> u64 {
    line << LINE_SHIFT
}

/// Rounds `bytes` up to a whole number of cache lines, in bytes;
/// `None` when that passes `u64::MAX`.
#[inline]
pub fn round_up_to_line(bytes: u64) -> Option<u64> {
    Some(bytes.checked_add(LINE_BYTES - 1)? & !(LINE_BYTES - 1))
}

/// Number of distinct cache lines touched by the byte range
/// `[base, base + bytes)`. Returns 0 for an empty range.
#[inline]
pub fn lines_in_range(base: u64, bytes: u64) -> u64 {
    if bytes == 0 {
        return 0;
    }
    line_of(base + bytes - 1) - line_of(base) + 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_of_basics() {
        assert_eq!(line_of(0), 0);
        assert_eq!(line_of(63), 0);
        assert_eq!(line_of(64), 1);
        assert_eq!(line_of(65), 1);
        assert_eq!(line_of(128), 2);
    }

    #[test]
    fn line_base_is_inverse_on_aligned() {
        for line in [0u64, 1, 7, 1000, 1 << 40] {
            assert_eq!(line_of(line_base(line)), line);
        }
    }

    #[test]
    fn round_up() {
        assert_eq!(round_up_to_line(0), Some(0));
        assert_eq!(round_up_to_line(1), Some(64));
        assert_eq!(round_up_to_line(64), Some(64));
        assert_eq!(round_up_to_line(65), Some(128));
        assert_eq!(round_up_to_line(u64::MAX - 63), Some(u64::MAX - 63));
        assert_eq!(round_up_to_line(u64::MAX - 62), None);
    }

    #[test]
    fn range_line_counts() {
        assert_eq!(lines_in_range(0, 0), 0);
        assert_eq!(lines_in_range(0, 1), 1);
        assert_eq!(lines_in_range(0, 64), 1);
        assert_eq!(lines_in_range(0, 65), 2);
        // A 1-byte range straddling nothing, at an odd offset.
        assert_eq!(lines_in_range(63, 2), 2);
        assert_eq!(lines_in_range(100, 200), lines_in_range(100, 200));
        // 128 bytes starting mid-line touches 3 lines.
        assert_eq!(lines_in_range(32, 128), 3);
    }
}
