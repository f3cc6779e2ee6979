//! Wire-protocol compatibility properties:
//!
//! * every message kind round-trips over a real TCP connection;
//! * the version handshake negotiates the minimum revision both ways;
//! * frames of unknown kind are **skipped with a warning**, not raised as
//!   errors — a peer from an adjacent (newer) build that interleaves
//!   future message kinds still interoperates, and the retired kinds 0–8
//!   are skipped the same way;
//! * the farm kinds 9–27 encode to pinned bytes;
//! * decoding a frame body from an untrusted peer never panics, whatever
//!   the kind tag and bytes.

use std::net::{TcpListener, TcpStream};

use comdml_net::frame::write_frame;
use comdml_net::{FramedStream, Message, PROTOCOL_VERSION};
use proptest::prelude::*;

fn raw_tcp_pair() -> (TcpStream, TcpStream) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let client = std::thread::spawn(move || TcpStream::connect(addr).unwrap());
    let (server_sock, _) = listener.accept().unwrap();
    (server_sock, client.join().unwrap())
}

fn tcp_pair() -> (FramedStream, FramedStream) {
    let (s, c) = raw_tcp_pair();
    (FramedStream::new(s), FramedStream::new(c))
}

fn farm_vocabulary() -> Vec<Message> {
    vec![
        Message::Version { proto: PROTOCOL_VERSION },
        Message::SubmitSweep { spec_json: "{\"name\":\"smoke\"}".into() },
        Message::SweepQueued { sweep_id: 1, total_jobs: 6 },
        Message::StatusRequest { sweep_id: 1 },
        Message::StatusReport {
            sweep_id: 1,
            total: 6,
            done: 2,
            in_flight: 2,
            queued: 2,
            requeued: 1,
            workers: 2,
            complete: false,
            elapsed_s: 0.5,
            eta_s: 1.0,
            requeued_slices: 1,
            timed_out_slices: 0,
            skipped_unknown: 0,
        },
        Message::FetchRequest { sweep_id: 1 },
        Message::FetchReport {
            sweep_id: 1,
            complete: false,
            spec_json: String::new(),
            rows_json: String::new(),
        },
        Message::WorkerHello { name: "worker-a".into(), threads: 4 },
        Message::WorkerWelcome { worker_id: 7 },
        Message::WorkRequest { worker_id: 7 },
        Message::WorkSlice {
            sweep_id: 1,
            slice_id: 3,
            spec_json: "{\"name\":\"smoke\"}".into(),
            indices: vec![1, 3, 5],
        },
        Message::NoWork { retry_ms: 100 },
        Message::JobDone { sweep_id: 1, slice_id: 3, index: 5, row_json: "{\"seed\":5}".into() },
        Message::SliceDone { sweep_id: 1, slice_id: 3 },
        Message::Heartbeat { worker_id: 7 },
        Message::FarmError { detail: "unknown sweep 9".into() },
        Message::Shutdown,
        Message::WorkerMetrics {
            worker_id: 7,
            jobs_done: 12,
            slices_done: 3,
            slice_p50_ms: 85.0,
            slice_p90_ms: 140.0,
            skipped_unknown: 0,
        },
        Message::StatusDetail {
            sweep_id: 1,
            rows: vec![comdml_net::WorkerRow {
                worker_id: 7,
                name: "worker-a".into(),
                jobs_done: 12,
                slices_done: 3,
                jobs_per_s: 2.0,
                slice_p50_ms: 85.0,
                slice_p90_ms: 140.0,
                skipped_unknown: 0,
            }],
        },
    ]
}

#[test]
fn every_kind_round_trips_over_tcp() {
    let (mut server, mut client) = tcp_pair();
    let messages = farm_vocabulary();
    let expected = messages.clone();
    let sender = std::thread::spawn(move || {
        for m in &messages {
            client.send(m).unwrap();
        }
        client
    });
    for want in &expected {
        assert_eq!(&server.recv().unwrap(), want);
    }
    sender.join().unwrap();
}

/// Order-sensitive FNV-1a digest over every farm message's `encode()`
/// bytes, each preceded by its length so message boundaries count.
fn farm_wire_digest() -> u64 {
    let mut d = 0xcbf2_9ce4_8422_2325u64;
    for msg in farm_vocabulary() {
        let bytes = msg.encode();
        for b in (bytes.len() as u32).to_le_bytes().into_iter().chain(bytes) {
            d = (d ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3);
        }
    }
    d
}

/// Kinds 9–27 are the farm's wire: their numbers and bytes never change.
/// The pin was recorded while the codec still carried kinds 0–8.
#[test]
fn every_farm_kind_encodes_to_pinned_bytes() {
    let kinds: Vec<u16> = farm_vocabulary().iter().map(Message::kind).collect();
    assert_eq!(kinds, (9..=27).collect::<Vec<u16>>());
    assert_eq!(farm_wire_digest(), 0x78b6_6dc8_8022_21cf);
}

#[test]
fn handshake_negotiates_symmetrically() {
    let (mut server, mut client) = tcp_pair();
    let t = std::thread::spawn(move || {
        let negotiated = client.handshake().unwrap();
        (negotiated, client.peer_version())
    });
    let negotiated = server.handshake().unwrap();
    assert_eq!(negotiated, PROTOCOL_VERSION);
    assert_eq!(server.peer_version(), Some(PROTOCOL_VERSION));
    let (client_negotiated, client_peer) = t.join().unwrap();
    assert_eq!(client_negotiated, PROTOCOL_VERSION);
    assert_eq!(client_peer, Some(PROTOCOL_VERSION));
}

/// A "future build" sends a frame kind this build has never heard of,
/// then a message it *does* know. `recv` must deliver the known message
/// and count one skip — not error.
#[test]
fn unknown_kinds_are_skipped_not_fatal() {
    let (server_sock, client_sock) = raw_tcp_pair();
    let mut server = FramedStream::new(server_sock);
    let t = std::thread::spawn(move || {
        // Simulate a newer peer: an unknown kind with an arbitrary body,
        // written straight to the socket as a well-formed frame...
        let mut raw = client_sock;
        write_frame(&mut raw, 0x7fff, &[1, 2, 3, 4, 5]).unwrap();
        // ...then a perfectly ordinary known message.
        let mut framed = FramedStream::new(raw);
        framed.send(&Message::Heartbeat { worker_id: 3 }).unwrap();
    });
    assert_eq!(server.recv().unwrap(), Message::Heartbeat { worker_id: 3 });
    assert_eq!(server.skipped_unknown(), 1);
    t.join().unwrap();
}

/// Kinds 0–8 once carried a training demo. They are reserved now and
/// decode as unknown, so an old peer that still sends one — even a large
/// one — is skipped like any future kind.
#[test]
fn retired_training_kinds_are_skipped() {
    for k in 0..=8u16 {
        assert_eq!(Message::decode_body(k, &[0u8; 64]).unwrap(), None, "kind {k}");
    }
    let (server_sock, client_sock) = raw_tcp_pair();
    let mut server = FramedStream::new(server_sock);
    let t = std::thread::spawn(move || {
        let mut raw = client_sock;
        write_frame(&mut raw, 5, &[0x3f; 4096]).unwrap();
        FramedStream::new(raw).send(&Message::Heartbeat { worker_id: 9 }).unwrap();
    });
    assert_eq!(server.recv().unwrap(), Message::Heartbeat { worker_id: 9 });
    assert_eq!(server.skipped_unknown(), 1);
    t.join().unwrap();
}

/// A newer peer may even open with unknown frames *before* the version
/// handshake; the handshake must still complete.
#[test]
fn handshake_survives_leading_unknown_frames() {
    let (server_sock, client_sock) = raw_tcp_pair();
    let mut server = FramedStream::new(server_sock);
    let t = std::thread::spawn(move || {
        let mut raw = client_sock;
        write_frame(&mut raw, 2026, &[0xAB; 16]).unwrap();
        write_frame(&mut raw, 2027, &[]).unwrap();
        let mut framed = FramedStream::new(raw);
        framed.handshake().unwrap()
    });
    assert_eq!(server.handshake().unwrap(), PROTOCOL_VERSION);
    assert_eq!(server.skipped_unknown(), 2);
    assert_eq!(t.join().unwrap(), PROTOCOL_VERSION);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// Arbitrary bytes under an arbitrary kind tag decode to a message, an
    /// error or `None` (unknown kind), never a panic. `kind % 32` runs the
    /// same bytes through a known kind's decoder as well.
    #[test]
    fn decode_body_never_panics_on_arbitrary_input(
        kind in 0u16..=u16::MAX,
        body in prop::collection::vec(0u8..=255, 0..257),
    ) {
        for k in [kind, kind % 32] {
            let _ = Message::decode_body(k, &body);
        }
    }

    /// A valid body that is cut short and has one byte flipped is the
    /// hostile input closest to a real message; it must not panic either.
    #[test]
    fn decode_body_never_panics_on_corrupted_messages(
        pick in 0usize..64,
        cut in 0usize..4096,
        at in 0usize..4096,
        flip in 1u8..=255,
    ) {
        let vocabulary = farm_vocabulary();
        let msg = &vocabulary[pick % vocabulary.len()];
        let mut body = msg.encode_body();
        body.truncate(cut % (body.len() + 1));
        if !body.is_empty() {
            let i = at % body.len();
            body[i] ^= flip;
        }
        let _ = Message::decode_body(msg.kind(), &body);
    }
}
