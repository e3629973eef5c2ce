//! # medsen-store — durable per-shard write-ahead logging
//!
//! The cloud tier's shards (`medsen-cloud`'s `ShardedAuth` +
//! `RecordStore`) are fast because they are memory-resident; this crate
//! makes them durable without giving that up. Each shard owns an
//! append-only log of CRC32-framed entries plus an optional compaction
//! snapshot, and a [`FlushPolicy`] trades latency for fsync amortization
//! (group commit).
//!
//! Like `medsen-runtime`, this crate is **std-only**: durability is
//! exactly the code that should not ride on vendored dependency stubs.
//! Log frames are `medsen-wire` frames, written and scanned by that
//! crate's frame code; this crate adds only the torn-tail scan over a
//! whole log. Entries are opaque `(kind: u8, payload: bytes)` pairs —
//! the typed enroll/store/tamper encoding lives with the types it
//! serializes, in `medsen-cloud`'s `persist` module.
//!
//! ## Recovery invariants
//!
//! - **Write-ahead**: callers append before mutating in-memory state, so
//!   the log is always a superset of what any reader observed.
//! - **Torn tails truncate**: a crash mid-append leaves a final frame
//!   that fails its length or CRC check; open truncates it and reports
//!   the discarded bytes. Everything before it replays intact.
//! - **Layout stamps fail closed**: log and snapshot headers record the
//!   shard index and shard count they were written under. Opening under
//!   a different count is a [`WalError::LayoutMismatch`], never a silent
//!   re-scatter of identities across the wrong shards.
//! - **Compaction is crash-safe**: snapshots land via write-temp →
//!   fsync → rename before the log is reset, and replaying a stale
//!   snapshot plus an un-reset log is idempotent by construction of the
//!   entry types.

mod frame;
mod set;
mod wal;

pub use frame::{decode_log, DecodedLog, Frame};
pub use set::{AppendedFrame, Wal, WalStats};
pub use wal::{ShardRecovery, WalError};

use std::str::FromStr;
use std::time::Duration;

/// When a shard's appended frames are made durable with `fsync`.
///
/// Appends always reach the file immediately (so a *graceful* shutdown
/// loses nothing under any policy); the policy only governs how much
/// recent history a *crash* may lose in exchange for batching fsyncs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushPolicy {
    /// Fsync on every append. Zero loss window, lowest throughput.
    EveryWrite,
    /// Fsync once `n` appends have accumulated on a shard (group
    /// commit). Crash loss window: up to `n - 1` entries per shard.
    EveryN(u64),
    /// Fsync all shards on a fixed cadence from a background thread
    /// that parks between sweeps. Crash loss window: one interval of
    /// writes.
    EveryInterval(Duration),
}

impl Default for FlushPolicy {
    /// Defaults to the safest policy; opting into a loss window is
    /// explicit.
    fn default() -> Self {
        FlushPolicy::EveryWrite
    }
}

impl std::fmt::Display for FlushPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FlushPolicy::EveryWrite => write!(f, "write"),
            FlushPolicy::EveryN(n) => write!(f, "every:{n}"),
            FlushPolicy::EveryInterval(d) => write!(f, "interval:{}", d.as_millis()),
        }
    }
}

/// Error parsing a [`FlushPolicy`] from its CLI spelling.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsePolicyError(String);

impl std::fmt::Display for ParsePolicyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "invalid flush policy '{}': expected 'write', 'every:N', or 'interval:MS'",
            self.0
        )
    }
}

impl std::error::Error for ParsePolicyError {}

impl FromStr for FlushPolicy {
    type Err = ParsePolicyError;

    /// Parses the CLI spelling: `write`, `every:N` (N ≥ 1 appends), or
    /// `interval:MS` (MS ≥ 1 milliseconds).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = || ParsePolicyError(s.to_string());
        match s {
            "write" => Ok(FlushPolicy::EveryWrite),
            _ => {
                if let Some(n) = s.strip_prefix("every:") {
                    let n: u64 = n.parse().map_err(|_| err())?;
                    if n == 0 {
                        return Err(err());
                    }
                    Ok(FlushPolicy::EveryN(n))
                } else if let Some(ms) = s.strip_prefix("interval:") {
                    let ms: u64 = ms.parse().map_err(|_| err())?;
                    if ms == 0 {
                        return Err(err());
                    }
                    Ok(FlushPolicy::EveryInterval(Duration::from_millis(ms)))
                } else {
                    Err(err())
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flush_policy_parses_and_displays_round_trip() {
        for (text, policy) in [
            ("write", FlushPolicy::EveryWrite),
            ("every:8", FlushPolicy::EveryN(8)),
            (
                "interval:250",
                FlushPolicy::EveryInterval(Duration::from_millis(250)),
            ),
        ] {
            assert_eq!(text.parse::<FlushPolicy>().expect(text), policy);
            assert_eq!(policy.to_string(), text);
        }
    }

    #[test]
    fn flush_policy_rejects_nonsense() {
        for bad in [
            "",
            "WRITE",
            "every:",
            "every:0",
            "every:x",
            "interval:0",
            "interval:-5",
            "sometimes",
        ] {
            assert!(bad.parse::<FlushPolicy>().is_err(), "{bad:?} should fail");
        }
    }
}
