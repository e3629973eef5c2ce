//! # MedSen — secure point-of-care diagnostics (DSN 2016 reproduction)
//!
//! Facade crate re-exporting every subsystem of the MedSen reproduction:
//!
//! * [`units`] — physical quantity newtypes;
//! * [`microfluidics`] — channel, particles, transport, losses;
//! * [`impedance`] — electrode circuit, lock-in amplifier, trace synthesis;
//! * [`sensor`] — electrode arrays, multiplexer, controller, the analog cipher;
//! * [`dsp`] — detrending, peak detection, features, classification;
//! * [`cloud`] — analysis server, authentication, adversary models;
//! * [`phone`] — accessory protocol, compression, link model;
//! * [`core`] — cyto-coded passwords, diagnostics, the end-to-end pipeline;
//! * [`gateway`] — concurrent multi-session ingestion in front of the cloud;
//! * [`runtime`] — hand-rolled async executor and channels multiplexing
//!   the gateway's worker tasks over a fixed thread pool;
//! * [`store`] — durable per-shard write-ahead log with group commit,
//!   snapshots, and crash recovery backing the cloud tier;
//! * [`replica`] — epoch-fenced WAL stream replication pairing each
//!   shard with a warm standby and a fenced promotion path;
//! * [`fountain`] — rateless LT erasure codec for one-way phone→cloud
//!   uploads in RF-restricted clinics (no ACK path);
//! * [`telemetry`] — request-scoped trace spans, the unified metrics
//!   registry, and text/JSON exposition shared by every serving layer;
//! * [`audit`] — the zero-dependency measurement instruments (entropy
//!   estimators, sequential distinguisher, timing harness, collision
//!   sweep) behind the adversarial self-audit;
//! * [`wire`] — the shared cross-tier wire protocol: the workspace's
//!   one CRC-32, the zero-copy transport frame, and the binary/JSON
//!   codec backends every tier links so the formats cannot drift;
//! * [`selfaudit`] — the battery driver wiring those instruments to the
//!   real subsystems and producing the `medsen audit` scorecard.
//!
//! # Quickstart
//!
//! See `examples/quickstart.rs` for a complete encrypted diagnostic session.

pub use medsen_audit as audit;
pub use medsen_cloud as cloud;
pub use medsen_core as core;
pub use medsen_dsp as dsp;
pub use medsen_fountain as fountain;
pub use medsen_gateway as gateway;
pub use medsen_impedance as impedance;
pub use medsen_microfluidics as microfluidics;
pub use medsen_phone as phone;
pub use medsen_replica as replica;
pub use medsen_runtime as runtime;
pub use medsen_sensor as sensor;
pub use medsen_store as store;
pub use medsen_telemetry as telemetry;
pub use medsen_units as units;
pub use medsen_wire as wire;

pub mod selfaudit;
