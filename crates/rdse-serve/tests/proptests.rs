//! Property-based tests for the wire protocol: arbitrary job specs
//! must survive the encode → frame → decode round trip bit-exactly,
//! and the frame-size limit must hold exactly at the boundary.

use proptest::prelude::*;
use rdse_serve::protocol::{
    encode_frame, obj, read_frame, AppSpec, ArchSpec, FrameError, FrameType, JobSpec, HEADER_LEN,
};
use serde::Value as Json;

const APP_BUILTINS: [&str; 4] = ["motion", "figure1", "not-a-real-app", ""];
const APP_FAMILIES: [&str; 4] = ["layered", "series-parallel", "fork-join", "pipeline"];
const ARCH_FAMILIES: [&str; 4] = ["epicure", "dual-fpga", "slow-bus", "asic-assisted"];
const OBJECTIVES: [&str; 5] = [
    "makespan",
    "weighted:1,2,3",
    "weighted:0.5,0,1",
    "lexi:makespan,area",
    "lexi:contexts,makespan,area",
];

/// A small inline model stand-in: round-trip fidelity is about the
/// framing, not model semantics, so any JSON object will do (integers
/// and strings only — exactly what the real model shapes use).
fn inline_model(tag: u64, n: usize) -> Json {
    obj(vec![
        ("name", Json::Str(format!("inline-{tag}"))),
        (
            "items",
            // The textual round trip parses integers as I64, so emit
            // the canonical variant directly.
            Json::Seq((0..n).map(|i| Json::I64((tag + i as u64) as i64)).collect()),
        ),
        ("nested", obj(vec![("depth", Json::I64(tag as i64 % 100))])),
    ])
}

fn app_strategy() -> impl Strategy<Value = AppSpec> {
    (0u8..4, 0usize..4, 0u64..1_000_000, 0usize..8).prop_map(|(kind, pick, seed, n)| match kind {
        0 => AppSpec::Builtin(APP_BUILTINS[pick].to_string()),
        1 => AppSpec::Workload {
            family: APP_FAMILIES[pick].to_string(),
            seed,
        },
        _ => AppSpec::Inline(inline_model(seed, n)),
    })
}

fn arch_strategy() -> impl Strategy<Value = ArchSpec> {
    (0u8..4, 0usize..4, 0u64..1_000_000, 0u32..1_000_000).prop_map(|(kind, pick, seed, clbs)| {
        match kind {
            0 => ArchSpec::Clbs(clbs),
            1 => ArchSpec::Family {
                family: ARCH_FAMILIES[pick].to_string(),
                seed,
            },
            _ => ArchSpec::Inline(inline_model(seed ^ 0xA5C4, (clbs % 8) as usize)),
        }
    })
}

fn job_spec_strategy() -> impl Strategy<Value = JobSpec> {
    (
        app_strategy(),
        arch_strategy(),
        0usize..OBJECTIVES.len(),
        (0u64..10_000_000, 0u64..100_000, 0u64..u64::MAX / 2),
        (0usize..200, 0u64..100_000),
    )
        .prop_map(
            |(app, arch, obj_pick, (iters, warmup, seed), (chains, exchange_every))| JobSpec {
                app,
                arch,
                objective: OBJECTIVES[obj_pick].to_string(),
                iters,
                warmup,
                seed,
                chains,
                exchange_every,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn job_specs_round_trip_through_the_wire(spec in job_spec_strategy()) {
        // Spec → JSON → frame bytes → JSON → spec, all lossless. Note
        // that specs with out-of-limit budgets or unknown names still
        // round-trip: framing is structural, rejection is the server's
        // validation stage.
        let body = spec.to_value();
        let bytes = encode_frame(FrameType::Job, &body);
        prop_assert!(bytes.len() >= HEADER_LEN);
        let (frame_type, decoded) = read_frame(&mut &bytes[..], u32::MAX)
            .expect("well-formed frame");
        prop_assert_eq!(frame_type, FrameType::Job);
        prop_assert_eq!(&decoded, &body);
        let back = JobSpec::from_value(decoded).expect("canonical shape");
        prop_assert_eq!(back, spec);
    }

    #[test]
    fn frame_size_limit_is_exact_at_the_boundary(pad in 0usize..4096, spec in job_spec_strategy()) {
        // A frame is accepted iff its body length is <= the limit —
        // equality included, off-by-one excluded — regardless of what
        // JSON it carries.
        let mut body = spec.to_value();
        if let Json::Map(entries) = &mut body {
            entries.push(("pad".to_string(), Json::Str("x".repeat(pad))));
        }
        let bytes = encode_frame(FrameType::Job, &body);
        let body_len = (bytes.len() - HEADER_LEN) as u32;

        let (_, decoded) = read_frame(&mut &bytes[..], body_len).expect("exact limit accepted");
        prop_assert_eq!(decoded, body.clone());

        match read_frame(&mut &bytes[..], body_len - 1) {
            Err(FrameError::TooLarge { len, max }) => {
                prop_assert_eq!(len, body_len);
                prop_assert_eq!(max, body_len - 1);
            }
            other => prop_assert!(false, "expected TooLarge, got {:?}", other),
        }
    }

    #[test]
    fn corrupted_headers_never_decode_as_frames(
        flip_at in 0usize..8,
        xor in 1u8..255,
        spec in job_spec_strategy(),
    ) {
        // Any single corrupted byte in magic/version/type decodes to a
        // typed FrameError, never to a frame and never to a panic.
        let mut bytes = encode_frame(FrameType::Job, &spec.to_value());
        bytes[flip_at] ^= xor;
        match read_frame(&mut &bytes[..], u32::MAX) {
            Err(
                FrameError::BadMagic | FrameError::BadVersion(_) | FrameError::UnknownType(_),
            ) => {}
            Ok((frame_type, _)) => {
                // Flipping the type field can land on another valid
                // code — legal, as long as the body still decodes.
                prop_assert!(flip_at == 6 || flip_at == 7, "type {frame_type:?}");
            }
            other => prop_assert!(false, "unexpected outcome: {:?}", other),
        }
    }
}
