//! Compress-codec edge cases driven through both uplink modes.
//!
//! The LZW compressor sits in front of both transports — the framed
//! retry path and the fountain one-way path — so its edge cases must
//! survive each end to end: an *empty* trace (no channels at all), a
//! *single-sample* trace (the smallest non-trivial acquisition), and a
//! *maximum-length* trace (minutes of samples, the largest body the
//! clinic scenario produces). Each case is checked three ways: the raw
//! compress/decompress round-trip of the request body, the two-way
//! retry upload, and the one-way fountain upload over a lossy link.

use medsen::cloud::service::{CloudService, Request, Response};
use medsen::cloud::wire::encode_request;
use medsen::gateway::{Gateway, GatewayConfig, SessionConfig, ShedPolicy};
use medsen::impedance::{Channel, SignalTrace};
use medsen::phone::{compress, decompress, SymbolBudget};
use medsen::units::{Hertz, Seconds};
use medsen::wire::WireFormat;

/// Paper sampling rate (450 Hz).
const SAMPLE_RATE: f64 = 450.0;

/// Two simulated minutes at 450 Hz — the longest acquisition the
/// clinic workflow produces in one upload.
const MAX_TRACE_SAMPLES: usize = 2 * 60 * 450;

fn channel(samples: Vec<f64>) -> Channel {
    let mut ch = Channel::new(Hertz::from_khz(500.0));
    ch.samples = samples;
    ch
}

/// The three codec edge cases, most degenerate first.
fn edge_traces() -> Vec<(&'static str, SignalTrace)> {
    let long: Vec<f64> = (0..MAX_TRACE_SAMPLES)
        .map(|i| 1.0 - 0.01 * ((i % 97) as f64 / 97.0))
        .collect();
    vec![
        ("empty", SignalTrace::new(Hertz::new(SAMPLE_RATE), vec![])),
        (
            "single-sample",
            SignalTrace::new(Hertz::new(SAMPLE_RATE), vec![channel(vec![0.98])]),
        ),
        (
            "maximum-length",
            SignalTrace::new(Hertz::new(SAMPLE_RATE), vec![channel(long)]),
        ),
    ]
}

fn gateway() -> Gateway {
    Gateway::new(
        CloudService::new(),
        GatewayConfig {
            queue_capacity: 4,
            workers: 2,
            shed_policy: ShedPolicy::Reject {
                retry_after: Seconds::from_millis(50.0),
            },
        },
    )
}

/// The empty trace draws a typed service error (`"trace has no
/// channels"`), the other cases an unauthenticated report; either way
/// the uplink must deliver exactly what the lossless oracle produces.
fn check_shape(name: &str, response: &Response) {
    match (name, response) {
        ("empty", Response::Error { reason }) => {
            assert!(reason.contains("no channels"), "{name}: odd error {reason}")
        }
        (
            _,
            Response::Analyzed {
                auth: None,
                stored_as: None,
                ..
            },
        ) => {}
        (_, other) => panic!("{name}: unexpected response shape {other:?}"),
    }
}

#[test]
fn codec_edge_traces_survive_both_uplink_modes() {
    let oracle = CloudService::new();
    for (name, trace) in edge_traces() {
        let request = Request::Analyze {
            trace: trace.clone(),
            authenticate: false,
        };

        // 1. The raw codec round-trip of the exact wire body.
        let body = encode_request(WireFormat::Json, &request).expect("encodable");
        let compressed = compress(&body);
        assert_eq!(
            decompress(&compressed).expect("decompressible"),
            body,
            "{name}: LZW round-trip corrupted the body"
        );

        let expected = oracle.handle_shared(request.clone());
        check_shape(name, &expected);

        // 2. Two-way retry mode over a flaky link.
        let retry_gateway = gateway();
        let mut session = retry_gateway.connect(SessionConfig::flaky(0.3, 0x11));
        let got = session
            .analyze(trace.clone(), false)
            .unwrap_or_else(|e| panic!("{name}: retry uplink failed: {e}"));
        assert_eq!(got, expected, "{name}: retry-mode response diverged");
        retry_gateway.shutdown();

        // 3. One-way fountain mode over a lossy link.
        let fountain_gateway = gateway();
        let mut session = fountain_gateway.connect(SessionConfig::fountain(
            0.3,
            0x22,
            SymbolBudget::for_drop_rate(0.3),
        ));
        let got = session
            .analyze(trace.clone(), false)
            .unwrap_or_else(|e| panic!("{name}: fountain uplink failed: {e}"));
        assert_eq!(got, expected, "{name}: fountain-mode response diverged");
        let stats = session.stats();
        assert!(stats.symbols_emitted > 0, "{name}: no symbols streamed");
        fountain_gateway.shutdown();
    }
}

#[test]
fn maximum_length_trace_actually_compresses() {
    // The long trace is the case where compression pays: the repetitive
    // JSON must shrink, and the fountain budget must therefore be sized
    // from the *compressed* block, not the raw body.
    let (_, trace) = edge_traces().pop().expect("traces");
    let body = encode_request(
        WireFormat::Json,
        &Request::Analyze {
            trace,
            authenticate: false,
        },
    )
    .expect("encodable");
    let compressed = compress(&body);
    assert!(
        compressed.len() < body.len() / 2,
        "2-minute trace should compress >2x: {} -> {}",
        body.len(),
        compressed.len()
    );
}

#[test]
fn pipelined_submissions_work_in_fountain_mode() {
    // Back-to-back uploads from one session are distinct fountain
    // streams; pipelining must not let the first upload's completed
    // stream swallow the second.
    let gw = gateway();
    let mut session = gw.connect(SessionConfig::fountain(
        0.2,
        0x33,
        SymbolBudget::paper_default(),
    ));
    for (_, trace) in edge_traces() {
        session
            .submit_analyze(trace, false)
            .expect("pipelined submit");
    }
    let responses = session.drain().expect("drain");
    assert_eq!(responses.len(), 3, "one response per pipelined upload");
    for ((name, _), response) in edge_traces().iter().zip(&responses) {
        check_shape(name, response);
    }
    gw.shutdown();
}
