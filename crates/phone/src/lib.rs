//! The smartphone relay (Sec. VI-D).
//!
//! The Nexus 5 in the prototype is *not* trusted: it detects the sensor over
//! the Android Open Accessory protocol, shows test progression, compresses
//! the encrypted measurements ("MedSen implements zip data compression on the
//! smartphone. This reduced the sample size [from 600 MB] to 240 MB"), and
//! relays them to the cloud over 4G. This crate models that whole path:
//!
//! * [`frame`] — AOAP-style message framing with checksums;
//! * [`app`] — the Android app's state machine (detect → test → upload →
//!   results);
//! * [`csv`] — the CSV serialization the prototype captures traces in;
//! * [`mod@compress`] — a from-scratch LZW codec standing in for zip;
//! * [`network`] — 4G/USB link timing models;
//! * [`oneway`] — ACK-free fountain-coded uploads for RF-restricted
//!   clinics (compress → rateless symbol stream, no back-channel);
//! * [`profile`] — the Fig. 14 computer-vs-smartphone performance model.

pub mod app;
pub mod compress;
pub mod csv;
pub mod frame;
pub mod network;
pub mod oneway;
pub mod profile;

pub use app::{AppEvent, AppState, PhoneApp};
pub use compress::{compress, decompress, CompressionStats};
pub use csv::{trace_from_csv, trace_to_csv};
pub use frame::{Frame, FrameError, MessageType};
pub use network::{LinkError, NetworkLink};
pub use oneway::{
    stream_seed_for, OneWayStats, OneWayUpload, OneWayUploader, SymbolBudget, DEFAULT_SYMBOL_BYTES,
};
pub use profile::{DeviceProfile, PAPER_FIG14_SAMPLE_SIZES};
