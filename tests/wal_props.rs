//! Property tests for the WAL's frames and entries (vendored proptest).
//!
//! The frame invariants crash recovery rests on:
//! * **Round-trip** — any sequence of (kind, payload) entries encodes to
//!   a log that decodes back bit-for-bit, with no torn tail.
//! * **Prefix closure** — any byte prefix of a valid log decodes to a
//!   frame prefix; the reported `clean_len` is itself a valid log that
//!   re-decodes to exactly those frames. This is the truncation recovery
//!   leans on: whatever a crash leaves behind, cutting at `clean_len`
//!   yields a well-formed log.
//! * **Corruption containment** — flipping any single byte inside frame
//!   `j` drops frame `j` and everything after it, and never disturbs
//!   frames 0..j.
//!
//! And the entry encoding the cloud tier writes into those frames:
//! * **Round-trip** — any `WalEntry` survives `[WIRE_VERSION][entry]`.
//! * **Totality** — every truncation and single-bit flip of an entry or
//!   a snapshot blob decodes to a value or an error, never a panic; and
//!   arbitrary bytes on disk make `with_storage` return, never panic.

use medsen::cloud::auth::BeadSignature;
use medsen::cloud::service::CloudService;
use medsen::cloud::{FlushPolicy, PeakReport, RecordId, StoredRecord, WalEntry};
use medsen::microfluidics::ParticleKind;
use medsen::store::{decode_log, Wal};
use medsen::wire::{
    decode_versioned, encode_frame, encode_versioned, Wire, FRAME_OVERHEAD, WIRE_VERSION,
};
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Arbitrary frames: any kind byte, payloads up to 64 bytes.
fn entries_strategy() -> impl Strategy<Value = Vec<(u8, Vec<u8>)>> {
    proptest::collection::vec(
        (any::<u8>(), proptest::collection::vec(any::<u8>(), 0..64)),
        0..12,
    )
}

/// Encodes all entries, returning the log bytes and each frame's end
/// offset within it.
fn encode_all(entries: &[(u8, Vec<u8>)]) -> (Vec<u8>, Vec<usize>) {
    let mut bytes = Vec::new();
    let mut ends = Vec::new();
    for (kind, payload) in entries {
        encode_frame(*kind, payload, &mut bytes);
        ends.push(bytes.len());
    }
    (bytes, ends)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn encode_decode_round_trips(entries in entries_strategy()) {
        let (bytes, ends) = encode_all(&entries);
        prop_assert_eq!(
            bytes.len(),
            entries.iter().map(|(_, p)| p.len() + FRAME_OVERHEAD).sum::<usize>()
        );
        prop_assert_eq!(ends.last().copied().unwrap_or(0), bytes.len());
        let decoded = decode_log(&bytes);
        prop_assert!(decoded.torn.is_none(), "clean log reported torn: {:?}", decoded.torn);
        prop_assert_eq!(decoded.clean_len, bytes.len());
        prop_assert_eq!(decoded.frames.len(), entries.len());
        for (frame, (kind, payload)) in decoded.frames.iter().zip(&entries) {
            prop_assert_eq!(frame.kind, *kind);
            prop_assert_eq!(&frame.payload, payload);
        }
    }

    /// Any byte prefix decodes to a frame prefix, and `clean_len` marks a
    /// log that re-decodes to exactly those frames with nothing torn.
    #[test]
    fn any_prefix_decodes_to_a_clean_frame_prefix(
        (entries, cut) in entries_strategy().prop_flat_map(|entries| {
            let len = entries.iter().map(|(_, p)| p.len() + FRAME_OVERHEAD).sum::<usize>();
            (Just(entries), 0..=len)
        }),
    ) {
        let (bytes, ends) = encode_all(&entries);
        let whole = ends.iter().take_while(|&&end| end <= cut).count();
        let decoded = decode_log(&bytes[..cut]);
        // Exactly the frames that fit entirely inside the prefix survive.
        prop_assert_eq!(decoded.frames.len(), whole);
        for (frame, (kind, payload)) in decoded.frames.iter().zip(&entries) {
            prop_assert_eq!(frame.kind, *kind);
            prop_assert_eq!(&frame.payload, payload);
        }
        // A cut on a frame boundary is clean; anywhere else is torn, and
        // truncating to clean_len yields a log with no torn tail.
        let on_boundary = cut == 0 || ends.contains(&cut);
        prop_assert_eq!(decoded.torn.is_none(), on_boundary);
        prop_assert_eq!(decoded.clean_len, ends.get(whole.wrapping_sub(1)).copied().unwrap_or(0));
        let retried = decode_log(&bytes[..decoded.clean_len]);
        prop_assert!(retried.torn.is_none());
        prop_assert_eq!(retried.frames.len(), whole);
        prop_assert_eq!(retried.clean_len, decoded.clean_len);
    }

    /// A single flipped byte in frame `j` truncates the decode to frames
    /// 0..j — corruption never propagates backwards.
    #[test]
    fn a_bit_flip_truncates_at_the_corrupted_frame(
        (entries, target, bit) in entries_strategy()
            .prop_filter("need at least one frame", |e| !e.is_empty())
            .prop_flat_map(|entries| {
                let len = entries.iter().map(|(_, p)| p.len() + FRAME_OVERHEAD).sum::<usize>();
                (Just(entries), 0..len, 0u8..8)
            }),
    ) {
        let (mut bytes, ends) = encode_all(&entries);
        bytes[target] ^= 1 << bit;
        // The frame the flipped byte lives in.
        let hit = ends.iter().take_while(|&&end| end <= target).count();
        let decoded = decode_log(&bytes);
        prop_assert_eq!(
            decoded.frames.len(), hit,
            "flip at {} (frame {}) should keep exactly {} frames", target, hit, hit
        );
        prop_assert!(decoded.torn.is_some(), "corruption must be reported");
        for (frame, (kind, payload)) in decoded.frames.iter().zip(&entries) {
            prop_assert_eq!(frame.kind, *kind);
            prop_assert_eq!(&frame.payload, payload);
        }
        prop_assert_eq!(decoded.clean_len, ends.get(hit.wrapping_sub(1)).copied().unwrap_or(0));
    }
}

/// Identifiers mixing ASCII with any other Unicode scalar value.
fn identifier_strategy() -> impl Strategy<Value = String> {
    proptest::collection::vec((any::<bool>(), 0u32..0x11_0000), 0..12).prop_map(|chars| {
        chars
            .into_iter()
            .filter_map(|(ascii, c)| char::from_u32(if ascii { c % 0x80 } else { c }))
            .collect()
    })
}

/// Either, both or neither bead kind, with any count.
fn signature_strategy() -> impl Strategy<Value = BeadSignature> {
    ((any::<bool>(), any::<u64>()), (any::<bool>(), any::<u64>())).prop_map(
        |((big, big_count), (small, small_count))| {
            let mut counts = Vec::new();
            if big {
                counts.push((ParticleKind::Bead358, big_count));
            }
            if small {
                counts.push((ParticleKind::Bead78, small_count));
            }
            BeadSignature::from_counts(&counts)
        },
    )
}

/// Any entry variant. Half the record ids are valid in a one-shard
/// layout, so replay gets past the layout check; the rest are any u64.
fn entry_strategy() -> impl Strategy<Value = WalEntry> {
    (
        0u8..3,
        identifier_strategy(),
        (any::<bool>(), any::<u64>()),
        signature_strategy(),
        proptest::collection::vec(0.0f64..1e7, 0..3),
    )
        .prop_map(
            |(variant, identifier, (local, id), signature, carriers_hz)| {
                let id = RecordId(if local {
                    id & RecordId::MAX_SEQUENCE
                } else {
                    id
                });
                let record = StoredRecord {
                    user_id: identifier.clone(),
                    report: PeakReport {
                        peaks: vec![],
                        carriers_hz,
                        sample_rate_hz: 450.0,
                        duration_s: 1.0,
                        noise_sigma: 3.0e-4,
                    },
                    signature: signature.clone(),
                };
                match variant {
                    0 => WalEntry::Enroll {
                        identifier,
                        signature,
                    },
                    1 => WalEntry::Store { id, record },
                    _ => WalEntry::Tamper { id, record },
                }
            },
        )
}

/// Decodes every strict prefix (each must be an error) and every
/// single-bit flip (a value or an error) of `bytes` as a `T`.
fn damage_is_total<T: Wire>(bytes: &[u8]) -> Result<(), TestCaseError> {
    for cut in 0..bytes.len() {
        prop_assert!(
            decode_versioned::<T>(&bytes[..cut]).is_err(),
            "a {}-byte prefix of {} decoded",
            cut,
            bytes.len()
        );
    }
    let mut flipped = bytes.to_vec();
    for bit in 0..bytes.len() * 8 {
        flipped[bit / 8] ^= 1 << (bit % 8);
        let _ = decode_versioned::<T>(&flipped);
        flipped[bit / 8] ^= 1 << (bit % 8);
    }
    Ok(())
}

fn temp_dir() -> std::path::PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "medsen-wal-props-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn wal_entries_round_trip_through_the_versioned_pair(entry in entry_strategy()) {
        let bytes = encode_versioned(&entry);
        prop_assert_eq!(bytes[0], WIRE_VERSION);
        prop_assert_eq!(bytes[1], entry.kind(), "the variant tag is the frame kind");
        prop_assert_eq!(decode_versioned::<WalEntry>(&bytes), Ok(entry));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn truncated_or_flipped_entries_and_snapshots_never_panic(
        entries in proptest::collection::vec(entry_strategy(), 0..4),
    ) {
        for entry in &entries {
            damage_is_total::<WalEntry>(&encode_versioned(entry))?;
        }
        damage_is_total::<Vec<WalEntry>>(&encode_versioned(&entries))?;
    }

    /// Whatever bytes a log frame or a snapshot holds, opening the
    /// directory returns `Ok` or `Err`. The bytes are raw noise, noise
    /// behind a valid version byte and variant tag, or valid entries
    /// with one byte overwritten.
    #[test]
    fn arbitrary_bytes_on_disk_make_open_return_not_panic(
        as_snapshot in any::<bool>(),
        (mode, kind) in (0u8..3, 0u8..5),
        noise in proptest::collection::vec(any::<u8>(), 0..96),
        entries in proptest::collection::vec(entry_strategy(), 1..4),
        (at, value) in (any::<usize>(), any::<u8>()),
    ) {
        let (kind, mut bytes) = match mode {
            0 => (kind, noise),
            1 => (kind, [&[WIRE_VERSION, kind][..], &noise].concat()),
            _ if as_snapshot => (0, encode_versioned(&entries)),
            _ => (entries[0].kind(), encode_versioned(&entries[0])),
        };
        if mode == 2 {
            let len = bytes.len();
            bytes[at % len] = value;
        }
        let dir = temp_dir();
        {
            let (wal, _) = Wal::open(&dir, 1, FlushPolicy::EveryWrite).expect("open raw");
            if as_snapshot {
                wal.install_snapshot(0, &bytes).expect("install snapshot");
            } else {
                wal.append(0, kind, &bytes).expect("append");
            }
        }
        let _ = CloudService::with_storage(&dir, 1, FlushPolicy::EveryWrite);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
