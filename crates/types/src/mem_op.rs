//! Memory-operation descriptors shared between the warp instruction
//! stream and the memory-policy interface.

use std::fmt;

use crate::addr::LineAddr;

/// A strided run of cache lines touched by one warp-level instruction after
/// the SM coalescer.
///
/// A fully coalesced warp access (32 lanes x 4 B, unit stride) covers exactly
/// one 128-byte line: `LineRange::single(line)`. A strided or blocked access
/// covers `count` lines spaced `stride` lines apart.
///
/// ```
/// use gps_types::{LineAddr, LineRange};
/// let r = LineRange::new(LineAddr::new(100), 4, 2);
/// let lines: Vec<u64> = r.iter().map(|l| l.as_u64()).collect();
/// assert_eq!(lines, vec![100, 102, 104, 106]);
/// assert_eq!(r.len(), 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LineRange {
    start: LineAddr,
    count: u32,
    stride: u32,
}

impl LineRange {
    /// Creates a strided range of `count` lines starting at `start`, spaced
    /// `stride` lines apart.
    ///
    /// # Panics
    ///
    /// Panics if `stride` is zero while `count > 1`.
    pub fn new(start: LineAddr, count: u32, stride: u32) -> Self {
        assert!(
            count <= 1 || stride > 0,
            "stride must be positive for multi-line ranges"
        );
        Self {
            start,
            count,
            stride: stride.max(1),
        }
    }

    /// A single cache line.
    pub const fn single(line: LineAddr) -> Self {
        Self {
            start: line,
            count: 1,
            stride: 1,
        }
    }

    /// A contiguous run of `count` lines.
    pub const fn contiguous(start: LineAddr, count: u32) -> Self {
        Self {
            start,
            count,
            stride: 1,
        }
    }

    /// First line of the range.
    pub const fn start(self) -> LineAddr {
        self.start
    }

    /// Number of lines in the range.
    pub const fn len(self) -> u32 {
        self.count
    }

    /// Whether the range covers no lines.
    pub const fn is_empty(self) -> bool {
        self.count == 0
    }

    /// Stride between successive lines, in lines.
    pub const fn stride(self) -> u32 {
        self.stride
    }

    /// Iterates over the line addresses in the range.
    pub fn iter(self) -> Iter {
        Iter {
            next: self.start,
            remaining: self.count,
            stride: self.stride as u64,
        }
    }
}

impl IntoIterator for LineRange {
    type Item = LineAddr;
    type IntoIter = Iter;

    fn into_iter(self) -> Iter {
        self.iter()
    }
}

impl fmt::Display for LineRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "lines[{:#x}; count={}, stride={}]",
            self.start.as_u64(),
            self.count,
            self.stride
        )
    }
}

/// Iterator over the lines of a [`LineRange`].
#[derive(Debug, Clone)]
pub struct Iter {
    next: LineAddr,
    remaining: u32,
    stride: u64,
}

impl Iterator for Iter {
    type Item = LineAddr;

    fn next(&mut self) -> Option<LineAddr> {
        if self.remaining == 0 {
            return None;
        }
        let out = self.next;
        self.next = self.next.offset(self.stride);
        self.remaining -= 1;
        Some(out)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining as usize, Some(self.remaining as usize))
    }
}

impl ExactSizeIterator for Iter {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_line_range() {
        let r = LineRange::single(LineAddr::new(7));
        assert_eq!(r.len(), 1);
        assert_eq!(r.iter().collect::<Vec<_>>(), vec![LineAddr::new(7)]);
    }

    #[test]
    fn contiguous_range() {
        let r = LineRange::contiguous(LineAddr::new(10), 3);
        let v: Vec<u64> = r.iter().map(LineAddr::as_u64).collect();
        assert_eq!(v, vec![10, 11, 12]);
    }

    #[test]
    fn empty_range_iterates_nothing() {
        let r = LineRange::contiguous(LineAddr::new(0), 0);
        assert!(r.is_empty());
        assert_eq!(r.iter().count(), 0);
    }

    #[test]
    fn exact_size_hint() {
        let r = LineRange::new(LineAddr::new(0), 5, 3);
        let it = r.iter();
        assert_eq!(it.len(), 5);
    }

    #[test]
    #[should_panic(expected = "stride must be positive")]
    fn zero_stride_multi_line_rejected() {
        let _ = LineRange::new(LineAddr::new(0), 2, 0);
    }
}
