//! # medsen-wire — the shared cross-tier wire protocol
//!
//! Phone, gateway, and cloud are built at different times (a clinic
//! phone may be a year older than the cloud it talks to), so the bytes
//! between them are a contract no single tier may own informally. This
//! crate is that contract, in the `setup1-shared` style: one bottom-of-
//! graph crate holding the codec machinery, with every peer linking the
//! same implementation so the tiers cannot drift.
//!
//! Four layers, bottom up:
//!
//! * [`crc`] — the workspace's one CRC-32 (IEEE, reflected)
//!   implementation, shared with the WAL and credential codecs;
//! * [`frame`] — the length-prefixed, CRC-guarded, zero-copy transport
//!   frame (`[len u32LE][crc u32LE][kind u8][payload]`), which the WAL
//!   also writes and scans on disk;
//! * [`codec`] — bounds-checked primitive readers/writers, the
//!   [`Wire`] trait message types implement in their owning crates,
//!   the versioned message envelope and its frame-less
//!   `[version][value]` payload (the WAL's entry and snapshot
//!   encoding), and the [`WireCodec`] backend trait with the
//!   [`BinaryWire`] backend;
//! * [`json`] — the JSON debug/compat encoding: a streaming
//!   [`JsonWriter`]/[`JsonReader`], the [`Json`] trait message types
//!   implement beside their [`Wire`] impls, and the [`JsonWire`]
//!   backend. Both backends decode a type through the same validation,
//!   so they accept exactly the same values.
//!
//! Every decoder in this crate is total: malformed input — truncated,
//! bit-flipped, forged length, unknown tag — returns an error, never
//! panics, and never allocates proportionally to a forged prefix.
//!
//! This crate is std-only with zero dependencies, enforced by CI's
//! vendor-hygiene job, because a codec that both embedded senders and
//! the cloud must agree on cannot drag a dependency graph along.

pub mod codec;
pub mod crc;
pub mod frame;
pub mod json;

pub use codec::{
    decode_message, decode_message_traced, decode_versioned, encode_message, encode_message_traced,
    encode_versioned, BinaryWire, Reader, Wire, WireCodec, WireError, WireFormat, WireMessage,
    Writer, TRACED_KIND_BIT, WIRE_VERSION,
};
pub use crc::crc32;
pub use frame::{
    decode_frame, encode_frame, frame_to_vec, split_frame, FrameError, FRAME_OVERHEAD,
    MAX_FRAME_BYTES,
};
pub use json::{Json, JsonReader, JsonWire, JsonWriter, MAX_JSON_DEPTH};
