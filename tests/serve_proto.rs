//! Wire-protocol contracts of the experiment service.
//!
//! Three properties pin the protocol down:
//!
//! 1. **Round trip**: `decode ∘ encode` is the identity on every message
//!    variant — asserted on the re-encoded bytes, which is stronger than
//!    structural equality (it also pins the canonical field order the
//!    daemon's duplicate-request cache compares against).
//! 2. **Totality**: torn frames, truncated payloads, flipped bytes,
//!    oversized length prefixes and unknown message types all decode to a
//!    *typed* [`ProtoError`], never a panic.
//! 3. **Merge invariance**: record batches that arrive duplicated and
//!    reordered (the exact artefacts of retransmission after dropped
//!    frames) aggregate byte-identically to the canonical single-process
//!    report via `ExperimentReport::from_records`.

use std::sync::OnceLock;

use caem_suite::caem::policy::PolicyKind;
use caem_suite::simcore::time::Duration;
use caem_suite::wsnsim::config::Topology;
use caem_suite::wsnsim::distrib::{GridManifest, ManifestJob};
use caem_suite::wsnsim::experiment::{ExperimentReport, ExperimentSpec, ScenarioSpec};
use caem_suite::wsnsim::persist::JobRecord;
use caem_suite::wsnsim::serve::proto::{encode_frame, read_frame};
use caem_suite::wsnsim::serve::{
    loopback_pair, FrameLink, GrantJob, GrantScenario, GridProgress, Message, ProtoError,
    ShardGrant, TcpLink, MAX_FRAME_BYTES, PROTOCOL_VERSION,
};
use caem_suite::wsnsim::ScenarioConfig;
use proptest::prelude::*;
use serde_json::Value;

// ---------------------------------------------------------------------------
// Fixtures.
// ---------------------------------------------------------------------------

/// A two-shard manifest over a tiny one-scenario grid; its jobs give the
/// `grant` variant realistic fully-resolved payloads without fabricating a
/// scenario config field by field.
fn tiny_manifest() -> &'static GridManifest {
    static MANIFEST: OnceLock<GridManifest> = OnceLock::new();
    MANIFEST.get_or_init(|| {
        let base = ScenarioConfig::small(PolicyKind::PureLeach, 8.0, 1)
            .with_duration(Duration::from_secs(5));
        let spec = ExperimentSpec::paper_policies(vec![ScenarioSpec::new("tiny", base)], 11, 2);
        GridManifest::from_spec(&spec, 2)
    })
}

/// A two-scenario grid — one with a topology override, labels the JSON
/// emitter must escape — under the paper's three policies and two seeds:
/// the source of the generator's grants.
fn grant_manifest() -> &'static GridManifest {
    static MANIFEST: OnceLock<GridManifest> = OnceLock::new();
    MANIFEST.get_or_init(|| {
        let base = ScenarioConfig::small(PolicyKind::PureLeach, 8.0, 1)
            .with_duration(Duration::from_secs(5));
        let spec = ExperimentSpec::paper_policies(
            vec![
                ScenarioSpec::new("uniform \"q\"", base.clone()),
                ScenarioSpec::new(
                    "corridor\\ ünï\n",
                    base.with_topology(Topology::Corridor {
                        width_fraction: 0.3,
                    }),
                ),
            ],
            11,
            2,
        );
        GridManifest::from_spec(&spec, 2)
    })
}

/// The tiny grid's simulated records, computed once (simulation is the
/// expensive part; the proptests only permute them).
fn tiny_records() -> &'static Vec<JobRecord> {
    static RECORDS: OnceLock<Vec<JobRecord>> = OnceLock::new();
    RECORDS.get_or_init(|| tiny_manifest().jobs.iter().map(ManifestJob::run).collect())
}

fn text_from(n: u64) -> String {
    // Printable, varied-length strings including JSON-hostile characters.
    let specials = [
        "",
        "plain",
        "with \"quotes\"",
        "back\\slash",
        "new\nline",
        "ünïcode",
    ];
    format!("{}_{n}", specials[(n % specials.len() as u64) as usize])
}

/// Deterministically build one of every message variant from a handful of
/// sampled knobs.
fn arbitrary_message(choice: u8, a: u64, b: u64, flag: bool) -> Message {
    let seq = a % 1_000 + 1;
    let text = text_from(a ^ b);
    match choice % 20 {
        0 => Message::Hello {
            seq,
            protocol: b % 5,
            worker: text,
            threads: b % 64,
            expect_hash: flag.then_some(b),
        },
        1 => Message::HelloAck {
            seq,
            heartbeat_ms: a,
            lease_ttl_ms: b,
        },
        2 => Message::Reject { seq, reason: text },
        3 => Message::Claim { seq },
        4 => Message::Grant {
            seq,
            grid: a,
            shard: b % 16,
            grant: ShardGrant::new(
                grant_manifest()
                    .jobs
                    .iter()
                    .skip((a % 12) as usize)
                    .step_by((b % 5 + 1) as usize),
            ),
        },
        5 => Message::NoWork {
            seq,
            retry_ms: b % 5_000,
        },
        6 => Message::Records {
            grid: a,
            shard: b % 16,
            lines: (0..b % 4).map(|i| text_from(a + i)).collect(),
        },
        7 => Message::Heartbeat {
            grid: a,
            shard: b % 16,
        },
        8 => Message::ShardDone {
            seq,
            grid: a,
            shard: b % 16,
            sent: b,
        },
        9 => Message::DoneAck { seq },
        10 => Message::DoneNack { seq, received: b },
        11 => Message::Release {
            seq,
            grid: a,
            shard: b % 16,
        },
        12 => Message::ReleaseAck { seq },
        13 => Message::Submit {
            seq,
            spec: text,
            quick: flag,
            seed: b,
        },
        14 => Message::SubmitAck {
            seq,
            grid: a,
            name: text,
            jobs: b,
        },
        15 => Message::SubmitErr { seq, reason: text },
        16 => Message::Status { seq },
        17 => Message::StatusReply {
            seq,
            queued: a % 9,
            active: flag.then(|| GridProgress {
                name: text.clone(),
                jobs: b,
                settled: b / 2,
                quarantined: b % 3,
                shards_done: a % 8,
                shard_count: 8,
            }),
            completed: a % 5,
            workers: b % 7,
            events: flag.then(|| format!("{text} events")),
        },
        18 => Message::Fetch { seq },
        _ => Message::FetchReply {
            seq,
            ready: flag,
            report: text,
        },
    }
}

// ---------------------------------------------------------------------------
// 1. Round trip.
// ---------------------------------------------------------------------------

proptest! {
    /// Every variant survives encode → decode → encode with identical
    /// bytes, and the decoded message keeps its kind and sequence number.
    #[test]
    fn every_message_round_trips_byte_identically(
        choice in 0u8..255,
        a in 0u64..u64::MAX,
        b in 0u64..u64::MAX,
        flag in any::<bool>(),
    ) {
        let msg = arbitrary_message(choice, a, b, flag);
        let bytes = msg.encode();
        let decoded = Message::decode(&bytes).expect("own encoding decodes");
        prop_assert_eq!(decoded.kind(), msg.kind());
        prop_assert_eq!(decoded.seq(), msg.seq());
        prop_assert_eq!(decoded.encode(), bytes);
    }
}

#[test]
fn all_twenty_variants_are_covered_by_the_generator() {
    let mut kinds: Vec<&'static str> = (0..20)
        .map(|choice| arbitrary_message(choice, 3, 7, true).kind())
        .collect();
    kinds.sort_unstable();
    kinds.dedup();
    assert_eq!(kinds.len(), 20, "one distinct kind per generator choice");
}

/// The emitted bytes are the compact JSON of the message's tree, in the
/// declared field order.
#[test]
fn encoding_is_the_compact_json_of_the_message_tree() {
    let hello = Message::Hello {
        seq: 1,
        protocol: PROTOCOL_VERSION,
        worker: "w \"1\"".into(),
        threads: 4,
        expect_hash: Some(9),
    };
    assert_eq!(
        String::from_utf8(hello.encode()).unwrap(),
        r#"{"type":"hello","seq":1,"protocol":2,"worker":"w \"1\"","threads":4,"expect_hash":9}"#
    );
    for choice in 0..20 {
        let bytes = arbitrary_message(choice, 5, 8, choice % 2 == 0).encode();
        let tree = serde_json::parse(std::str::from_utf8(&bytes).unwrap()).unwrap();
        assert_eq!(serde_json::to_string(&tree).unwrap().into_bytes(), bytes);
    }
}

/// A v2 grant ships each scenario's config once; the jobs it rebuilds
/// re-serialize to the manifest's own job JSON, byte for byte, across all
/// three policies, both seeds and the topology override.
#[test]
fn rebuilt_grant_jobs_reserialize_byte_identically_to_the_manifest() {
    let manifest = grant_manifest();
    let msg = Message::Grant {
        seq: 3,
        grid: manifest.grid_hash,
        shard: 0,
        grant: ShardGrant::new(&manifest.jobs),
    };
    let grant = match Message::decode(&msg.encode()).expect("grant decodes") {
        Message::Grant { grant, .. } => grant,
        other => panic!("expected a grant, got {other:?}"),
    };
    assert_eq!(grant.scenarios().len(), 2, "one table entry per scenario");
    let rebuilt = grant.rebuild().expect("grant rebuilds");
    assert_eq!(rebuilt.len(), manifest.jobs.len());
    for (job, original) in rebuilt.iter().zip(&manifest.jobs) {
        assert_eq!(
            serde_json::to_string(job).unwrap(),
            serde_json::to_string(original).unwrap()
        );
    }
}

/// Re-encode a grant with one job field replaced.
fn tampered_grant(field: &str, value: Value) -> Vec<u8> {
    let msg = Message::Grant {
        seq: 1,
        grid: 2,
        shard: 0,
        grant: ShardGrant::new(&grant_manifest().jobs),
    };
    let mut tree = serde_json::parse(std::str::from_utf8(&msg.encode()).unwrap()).unwrap();
    let Value::Map(entries) = &mut tree else {
        panic!("messages are maps")
    };
    let (_, Value::Seq(jobs)) = entries.iter_mut().find(|(k, _)| k == "jobs").unwrap() else {
        panic!("grant jobs are a list")
    };
    let Value::Map(job) = &mut jobs[0] else {
        panic!("grant jobs are maps")
    };
    job.iter_mut().find(|(k, _)| k == field).unwrap().1 = value;
    serde_json::to_string(&tree).unwrap().into_bytes()
}

#[test]
fn grant_job_naming_a_scenario_missing_from_the_table_is_malformed() {
    match Message::decode(&tampered_grant("scenario_index", Value::UInt(7))) {
        Err(ProtoError::Malformed(reason)) => {
            assert!(reason.contains("scenario 7"), "{reason}")
        }
        other => panic!("expected Malformed, got {other:?}"),
    }
}

#[test]
fn grant_job_whose_config_hash_disagrees_fails_to_rebuild() {
    let bytes = tampered_grant("config_hash", Value::UInt(1));
    let Ok(Message::Grant { grant, .. }) = Message::decode(&bytes) else {
        panic!("the tampered grant is still well-formed")
    };
    match grant.rebuild() {
        Err(ProtoError::Malformed(reason)) => assert!(reason.contains("hash"), "{reason}"),
        other => panic!("expected Malformed, got {other:?}"),
    }
}

/// Slim jobs keep a 20,000-job shard far below the frame cap (the v1
/// grant, at ~1.7 KB a job, overran 32 MiB near 19.8k jobs).
#[test]
fn a_twenty_thousand_job_grant_encodes_under_four_mib() {
    let config = grant_manifest().jobs[0].config.clone();
    let jobs: Vec<GrantJob> = (0..20_000u64)
        .map(|i| GrantJob {
            scenario_index: 0,
            policy_index: 1,
            policy: PolicyKind::Scheme1Adaptive,
            seed: u64::MAX - i,
            config_hash: u64::MAX - 7 * i,
        })
        .collect();
    let scenario = GrantScenario {
        scenario_index: 0,
        scenario: "uniform".into(),
        config,
    };
    let msg = Message::Grant {
        seq: u64::MAX,
        grid: u64::MAX,
        shard: 7,
        grant: ShardGrant::from_parts(vec![scenario], jobs).expect("every job names the table"),
    };
    let len = msg.encode().len();
    assert!(len < 4 * 1024 * 1024, "grant of {len} bytes");
}

/// Both links refuse, with a typed error, a payload the peer's reader is
/// bound to reject, and stay usable afterwards.
#[test]
fn links_refuse_oversize_payloads() {
    let oversize = vec![b' '; MAX_FRAME_BYTES + 1];
    let claim = Message::Claim { seq: 1 }.encode();

    let (mut a, mut b) = loopback_pair();
    match a.send(&oversize) {
        Err(ProtoError::Oversize { len }) => assert_eq!(len, MAX_FRAME_BYTES + 1),
        other => panic!("expected Oversize, got {other:?}"),
    }
    a.send(&claim).unwrap();
    assert_eq!(
        b.try_recv().unwrap(),
        Some(claim.clone()),
        "nothing else was sent"
    );

    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let mut tx =
        TcpLink::new(std::net::TcpStream::connect(listener.local_addr().unwrap()).unwrap());
    let mut rx = TcpLink::new(listener.accept().unwrap().0);
    match tx.send(&oversize) {
        Err(ProtoError::Oversize { len }) => assert_eq!(len, MAX_FRAME_BYTES + 1),
        other => panic!("expected Oversize, got {other:?}"),
    }
    tx.send(&claim).unwrap();
    let wait = Some(std::time::Duration::from_secs(10));
    assert_eq!(
        rx.recv(wait).unwrap(),
        Some(claim),
        "the stream stays in sync"
    );
}

// ---------------------------------------------------------------------------
// 2. Totality on garbage.
// ---------------------------------------------------------------------------

proptest! {
    /// Any prefix of a valid frame fails with a *typed* error: empty input
    /// is `Closed`, anything cut short is `Torn`, and only the full frame
    /// decodes.  Never a panic, never a bogus success.
    #[test]
    fn torn_frames_yield_typed_errors(
        choice in 0u8..255,
        a in 0u64..10_000,
        cut in 0usize..2_000,
    ) {
        let msg = arbitrary_message(choice, a, a / 3, a % 2 == 0);
        let frame = encode_frame(&msg.encode());
        let cut = cut % (frame.len() + 1);
        let mut reader = &frame[..cut];
        match read_frame(&mut reader) {
            Ok(payload) => {
                prop_assert_eq!(cut, frame.len(), "only the complete frame decodes");
                prop_assert_eq!(payload, msg.encode());
            }
            Err(ProtoError::Closed) => prop_assert_eq!(cut, 0),
            Err(ProtoError::Torn { expected, got }) => {
                prop_assert!(cut < frame.len());
                prop_assert!(got < expected);
            }
            Err(other) => prop_assert!(false, "unexpected error class: {other}"),
        }
    }

    /// Truncating or corrupting a message payload never panics the
    /// decoder: it either still decodes (a benign flip) or reports
    /// `Malformed`.
    #[test]
    fn corrupt_payloads_decode_to_malformed_not_panic(
        choice in 0u8..255,
        a in 0u64..10_000,
        cut in 0usize..2_000,
        flip in 0usize..2_000,
        bit in 0u8..8,
    ) {
        let msg = arbitrary_message(choice, a, a.wrapping_mul(31), a % 3 == 0);
        let bytes = msg.encode();

        let truncated = &bytes[..cut % (bytes.len() + 1)];
        if truncated.len() < bytes.len() {
            match Message::decode(truncated) {
                Err(ProtoError::Malformed(_)) => {}
                Err(other) => prop_assert!(false, "unexpected error class: {other}"),
                Ok(_) => prop_assert!(false, "a strict JSON prefix cannot decode"),
            }
        }

        let mut flipped = bytes.clone();
        let at = flip % flipped.len();
        flipped[at] ^= 1 << bit;
        match Message::decode(&flipped) {
            Ok(_) | Err(ProtoError::Malformed(_)) => {}
            Err(other) => prop_assert!(false, "unexpected error class: {other}"),
        }
    }
}

#[test]
fn oversize_length_prefixes_are_rejected_without_allocating() {
    let mut frame = ((MAX_FRAME_BYTES + 1) as u32).to_le_bytes().to_vec();
    frame.extend_from_slice(b"irrelevant");
    let mut reader = &frame[..];
    match read_frame(&mut reader) {
        Err(ProtoError::Oversize { len }) => assert_eq!(len, MAX_FRAME_BYTES + 1),
        other => panic!("expected Oversize, got {other:?}"),
    }
}

#[test]
fn unknown_types_and_non_utf8_are_malformed() {
    for payload in [
        &b"{\"type\":\"warp_core\",\"seq\":1}"[..],
        b"{\"seq\":1}",
        b"{\"type\":\"claim\"}",
        b"not json at all",
        b"\xff\xfe\x00garbage",
        b"",
    ] {
        match Message::decode(payload) {
            Err(ProtoError::Malformed(_)) => {}
            other => panic!("{payload:?} should be Malformed, got {other:?}"),
        }
    }
}

// ---------------------------------------------------------------------------
// 3. Merge invariance under duplication + reordering.
// ---------------------------------------------------------------------------

proptest! {
    /// However retransmission duplicates and reorders the record stream —
    /// the exact artefacts of the resend-after-`DoneNack` recovery — the
    /// canonical aggregation produces byte-identical reports.
    #[test]
    fn duplicated_reordered_record_batches_merge_byte_identically(
        rotation in 0usize..64,
        dup_mask in 0u64..u64::MAX,
        stride in 1usize..7,
    ) {
        let records = tiny_records();
        let canonical = ExperimentReport::from_records(records.clone());
        let canonical_bytes =
            serde_json::to_string_pretty(&canonical.to_json()).expect("report renders");

        // Ship every record as its wire line, rotate the order, interleave
        // by stride and duplicate a mask-chosen subset (a resent batch).
        let lines: Vec<String> = records
            .iter()
            .map(|r| serde_json::to_string(r).expect("record serializes"))
            .collect();
        let mut shipped: Vec<String> = Vec::new();
        let n = lines.len();
        for i in 0..n {
            let at = (i * stride + rotation) % n;
            shipped.push(lines[at].clone());
            if dup_mask & (1 << (at % 64)) != 0 {
                shipped.push(lines[at].clone());
            }
        }
        // Stride-interleaving can skip indices; top up so every job is
        // present at least once (the protocol guarantees delivery by
        // count reconciliation before a shard settles).
        shipped.extend(lines.iter().cloned());

        let decoded: Vec<JobRecord> = shipped
            .iter()
            .map(|line| serde_json::from_str(line).expect("line decodes"))
            .collect();
        let merged = ExperimentReport::from_records(decoded);
        let merged_bytes =
            serde_json::to_string_pretty(&merged.to_json()).expect("report renders");
        prop_assert_eq!(merged_bytes, canonical_bytes);
    }
}
