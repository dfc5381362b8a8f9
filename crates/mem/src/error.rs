//! Error type for hierarchy configuration.

use std::error::Error;
use std::fmt;

/// Error returned when a cache or hierarchy configuration is invalid.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum MemError {
    /// Capacity is zero or not a power of two.
    InvalidCapacity(usize),
    /// Line size is zero, not a power of two, or exceeds the capacity.
    InvalidLineBytes(usize),
    /// Associativity is zero, exceeds the line count or exceeds
    /// [`CacheConfig::MAX_WAYS`](crate::CacheConfig::MAX_WAYS).
    InvalidAssociativity(usize),
    /// Bank count is zero or not a power of two.
    InvalidBanks(usize),
    /// Latency of zero cycles is not representable.
    InvalidLatency(&'static str),
    /// A buffer (MSHR file, write buffer) needs at least one entry.
    InvalidBufferDepth {
        /// Which buffer was misconfigured.
        buffer: &'static str,
        /// The rejected depth.
        depth: usize,
    },
}

impl fmt::Display for MemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemError::InvalidCapacity(c) => {
                write!(f, "capacity {c} bytes is not a non-zero power of two")
            }
            MemError::InvalidLineBytes(l) => write!(f, "line size {l} bytes is invalid"),
            MemError::InvalidAssociativity(a) => write!(f, "associativity {a} is invalid"),
            MemError::InvalidBanks(b) => write!(f, "bank count {b} is invalid"),
            MemError::InvalidLatency(which) => {
                write!(f, "{which} latency must be at least one cycle")
            }
            MemError::InvalidBufferDepth { buffer, depth } => {
                write!(f, "{buffer} depth {depth} must be at least one entry")
            }
        }
    }
}

impl Error for MemError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_concise() {
        for e in [
            MemError::InvalidCapacity(3),
            MemError::InvalidLineBytes(0),
            MemError::InvalidAssociativity(9),
            MemError::InvalidBanks(3),
            MemError::InvalidLatency("read"),
            MemError::InvalidBufferDepth {
                buffer: "write buffer",
                depth: 0,
            },
        ] {
            let msg = e.to_string();
            assert!(!msg.is_empty());
            assert!(!msg.ends_with('.'));
        }
    }
}
