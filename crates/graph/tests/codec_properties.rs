//! Property-based invariants of the v4 compression codec.
//!
//! Three layers, three contracts:
//!
//! * **varint/delta row codec** — round-trips every `u64`, including
//!   the `2^7k ± 1` boundary values where the byte width changes, and
//!   never panics or over-reads on truncated or garbage input: every
//!   failure is a typed [`GraphError::Corrupted`].
//! * **v4 block format** — any graph that encodes must decode back to
//!   a CSR *bit-identical* to the v3 round-trip of the same graph
//!   (offsets, targets, sources — not just isomorphic).
//! * **adversarial images** — arbitrary single-byte mutations of a
//!   valid image must either load to the identical graph (mutations in
//!   dead padding) or fail with a typed corruption error; they must
//!   never panic, hang, or silently return a different graph.
//! * **decoder equivalence** — the allocation-free row decoder agrees
//!   with a straightforward per-target reference decoder (kept below as
//!   a test-only oracle) on valid rows, garbage, and every single-byte
//!   flip and truncation of valid rows: same targets and cursor on
//!   success, the same `Corrupted { field, expected, got }` on failure.

use proptest::prelude::*;
use spammass_graph::varint::{
    decode_row, encode_row, read_varint, write_varint, MAX_VARINT_LEN, MIN_RUN,
};
use spammass_graph::{
    graph_to_bytes_v4, graph_to_bytes_v4_with, io, CompressedImage, Graph, GraphBuilder,
    GraphError, NodeId, V4Config,
};
use std::sync::Arc;

fn arb_graph() -> impl Strategy<Value = Graph> {
    (1usize..=64).prop_flat_map(|n| {
        proptest::collection::vec((0..n as u32, 0..n as u32), 0..256).prop_map(move |edges| {
            let mut b = GraphBuilder::new(n);
            for &(f, t) in &edges {
                b.add_edge(NodeId(f), NodeId(t));
            }
            b.build()
        })
    })
}

/// Byte-width boundaries of LEB128: `2^(7k)` needs one more byte than
/// `2^(7k) − 1`.
#[test]
fn varint_boundary_widths_round_trip() {
    for k in 0..10u32 {
        let boundary = 1u64 << (7 * k);
        for value in [boundary.saturating_sub(1), boundary, boundary + 1, u64::MAX] {
            let mut buf = Vec::new();
            write_varint(&mut buf, value);
            assert!(buf.len() <= MAX_VARINT_LEN);
            if value >= boundary && value < u64::MAX {
                assert!(
                    buf.len() >= (k as usize + 1).min(MAX_VARINT_LEN),
                    "2^(7·{k}) must take more than {k} bytes"
                );
            }
            let mut pos = 0;
            assert_eq!(read_varint(&buf, &mut pos).unwrap(), value);
            assert_eq!(pos, buf.len(), "decoder must consume exactly the encoding");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn varint_round_trips_any_value(value in any::<u64>()) {
        let mut buf = Vec::new();
        write_varint(&mut buf, value);
        let mut pos = 0;
        prop_assert_eq!(read_varint(&buf, &mut pos).unwrap(), value);
        prop_assert_eq!(pos, buf.len());
    }

    #[test]
    fn truncated_varints_are_typed_errors(value in any::<u64>(), cut in 0usize..10) {
        let mut buf = Vec::new();
        write_varint(&mut buf, value);
        prop_assume!(cut < buf.len());
        buf.truncate(cut);
        let mut pos = 0;
        match read_varint(&buf, &mut pos) {
            Err(e) => prop_assert!(e.is_corruption(), "unexpected error class: {e:?}"),
            Ok(_) => prop_assert!(false, "truncated varint decoded"),
        }
    }

    #[test]
    fn garbage_never_panics_the_varint_reader(bytes in proptest::collection::vec(0u8..=255, 0..24)) {
        let mut pos = 0;
        // Any outcome is fine except a panic or an out-of-bounds read.
        let _ = read_varint(&bytes, &mut pos);
        prop_assert!(pos <= bytes.len());
    }

    #[test]
    fn rows_round_trip(
        mut targets in proptest::collection::vec(0u32..1_000_000, 0..200),
        source in 0u32..1_000_000,
    ) {
        targets.sort_unstable();
        targets.dedup();
        let row: Vec<NodeId> = targets.iter().copied().map(NodeId).collect();
        let mut buf = Vec::new();
        encode_row(&mut buf, source, &row);
        let mut pos = 0;
        let mut decoded = Vec::new();
        decode_row(&buf, &mut pos, source, 1_000_000, row.len() as u64, &mut decoded).unwrap();
        prop_assert_eq!(decoded, row);
        prop_assert_eq!(pos, buf.len());
    }

    #[test]
    fn run_heavy_rows_round_trip_and_stay_small(
        starts in proptest::collection::vec(0u32..100_000, 1..8),
        lens in proptest::collection::vec(MIN_RUN as u32..64, 1..8),
        source in 0u32..100_000,
    ) {
        // Unioned consecutive runs: the interval path end to end, with
        // overlapping inputs collapsing into longer runs.
        let mut targets: Vec<u32> = Vec::new();
        for (&s, &l) in starts.iter().zip(&lens) {
            targets.extend(s..s + l);
        }
        targets.sort_unstable();
        targets.dedup();
        let row: Vec<NodeId> = targets.iter().copied().map(NodeId).collect();
        let mut buf = Vec::new();
        encode_row(&mut buf, source, &row);
        // Intervals cost a handful of bytes per run, never one per edge.
        prop_assert!(buf.len() <= 2 + starts.len() * 11);
        let mut pos = 0;
        let mut decoded = Vec::new();
        decode_row(&buf, &mut pos, source, 200_000, row.len() as u64, &mut decoded).unwrap();
        prop_assert_eq!(decoded, row);
        prop_assert_eq!(pos, buf.len());
    }

    #[test]
    fn garbage_rows_are_errors_not_panics(bytes in proptest::collection::vec(0u8..=255, 0..64)) {
        let mut pos = 0;
        let mut decoded = Vec::new();
        // Tight node/degree caps so random degrees mostly trip validation.
        let _ = decode_row(&bytes, &mut pos, 17, 1_000, 100, &mut decoded);
        prop_assert!(pos <= bytes.len());
    }

    #[test]
    fn v4_decodes_to_the_exact_v3_csr(graph in arb_graph()) {
        let via_v4 = CompressedImage::from_store(Arc::new(graph_to_bytes_v4(&graph)))
            .unwrap()
            .decode_graph()
            .unwrap();
        let via_v3 = io::graph_from_bytes(&io::graph_to_bytes_v3(&graph)).unwrap();
        prop_assert_eq!(via_v4.node_count(), via_v3.node_count());
        prop_assert_eq!(via_v4.edge_count(), via_v3.edge_count());
        prop_assert_eq!(via_v4.out_offsets(), via_v3.out_offsets());
        prop_assert_eq!(via_v4.out_targets(), via_v3.out_targets());
        prop_assert_eq!(via_v4.in_offsets(), via_v3.in_offsets());
        prop_assert_eq!(via_v4.in_sources(), via_v3.in_sources());
    }

    #[test]
    fn v4_round_trips_under_any_block_geometry(
        graph in arb_graph(),
        rows in 1u32..8,
        edges in 1u32..16,
    ) {
        let config = V4Config { rows_per_block: rows, edges_per_block: edges };
        let bytes = graph_to_bytes_v4_with(&graph, config).unwrap();
        let decoded = CompressedImage::from_store(Arc::new(bytes)).unwrap().decode_graph().unwrap();
        prop_assert_eq!(decoded.out_offsets(), graph.out_offsets());
        prop_assert_eq!(decoded.out_targets(), graph.out_targets());
        prop_assert_eq!(decoded.in_offsets(), graph.in_offsets());
        prop_assert_eq!(decoded.in_sources(), graph.in_sources());
    }

    #[test]
    fn single_byte_mutations_never_panic_or_lie(
        graph in arb_graph(),
        at in any::<u64>(),
        xor in 1u8..=255,
    ) {
        let clean = graph_to_bytes_v4(&graph);
        let mut bytes = clean.clone();
        let at = (at % bytes.len() as u64) as usize;
        bytes[at] ^= xor;
        match CompressedImage::from_store(Arc::new(bytes)).and_then(|i| i.decode_graph()) {
            // A mutation that survives validation must land in dead bytes
            // (header padding) and decode to the identical graph.
            Ok(decoded) => {
                prop_assert_eq!(decoded.out_offsets(), graph.out_offsets());
                prop_assert_eq!(decoded.out_targets(), graph.out_targets());
                prop_assert_eq!(decoded.in_offsets(), graph.in_offsets());
                prop_assert_eq!(decoded.in_sources(), graph.in_sources());
            }
            Err(e) => prop_assert!(e.is_corruption(), "unexpected error class: {e:?}"),
        }
    }

    #[test]
    fn truncated_images_are_typed_errors(graph in arb_graph(), keep in any::<u64>()) {
        let clean = graph_to_bytes_v4(&graph);
        let keep = (keep % clean.len() as u64) as usize; // strictly shorter than the image
        let err = CompressedImage::from_store(Arc::new(clean[..keep].to_vec()))
            .and_then(|i| i.decode_graph())
            .expect_err("truncated image validated");
        prop_assert!(err.is_corruption(), "unexpected error class: {err:?}");
    }
}

/// The corrupted-row path through `decode_row`: a degree that overruns
/// the declared node count or degree cap is a typed error.
#[test]
fn out_of_range_rows_are_corrupted_errors() {
    let row: Vec<NodeId> = vec![NodeId(5), NodeId(90)];
    let mut buf = Vec::new();
    encode_row(&mut buf, 3, &row);
    let mut out = Vec::new();
    // Node-count cap below the largest target.
    let mut pos = 0;
    let err = decode_row(&buf, &mut pos, 3, 80, 10, &mut out).unwrap_err();
    assert!(matches!(err, GraphError::Corrupted { field: "edge_target", .. }), "{err:?}");
    // Degree cap below the actual degree.
    let mut pos = 0;
    let err = decode_row(&buf, &mut pos, 3, 100, 1, &mut out).unwrap_err();
    assert!(matches!(err, GraphError::Corrupted { field: "row_degree", .. }), "{err:?}");
}

// ---------------------------------------------------------------------
// Reference decoder: the straightforward per-target row decoder the
// allocation-free `decode_row` replaced. It stores the interval section
// in a `Vec` and range- and order-checks every emitted target, which
// makes it slow but obviously correct — the oracle for the
// differential properties below.

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

fn corrupt(field: &'static str, expected: u64, got: u64) -> GraphError {
    GraphError::Corrupted { field, expected, got }
}

fn oracle_decode_row(
    buf: &[u8],
    pos: &mut usize,
    source: u32,
    node_count: u64,
    max_degree: u64,
    targets: &mut Vec<NodeId>,
) -> Result<usize, GraphError> {
    let degree = read_varint(buf, pos)?;
    if degree > max_degree {
        return Err(corrupt("row_degree", max_degree, degree));
    }
    if degree == 0 {
        return Ok(0);
    }
    let interval_count = read_varint(buf, pos)?;
    if interval_count > degree / MIN_RUN as u64 {
        return Err(corrupt("interval_count", degree / MIN_RUN as u64, interval_count));
    }
    // Interval starts/lengths; bounded by degree / MIN_RUN entries.
    let mut runs: Vec<(u64, u64)> = Vec::with_capacity(interval_count as usize);
    let mut covered = 0u64;
    let mut prev_end: Option<u64> = None;
    for _ in 0..interval_count {
        let raw = read_varint(buf, pos)?;
        let start = match prev_end {
            None => (source as i64)
                .checked_add(unzigzag(raw))
                .filter(|&s| s >= 0)
                .map(|s| s as u64)
                .unwrap_or(u64::MAX),
            Some(pe) => pe.checked_add(raw).and_then(|v| v.checked_add(2)).unwrap_or(u64::MAX),
        };
        let len = read_varint(buf, pos)?
            .checked_add(MIN_RUN as u64)
            .ok_or_else(|| corrupt("interval_len", degree, u64::MAX))?;
        covered = covered.saturating_add(len);
        if covered > degree {
            return Err(corrupt("interval_len", degree, covered));
        }
        let end = start.saturating_add(len - 1);
        if end >= node_count {
            return Err(corrupt("edge_target", node_count, end));
        }
        runs.push((start, len));
        prev_end = Some(end);
    }
    // Merge residuals with the interval stream, validating the combined
    // order: every emitted target must be strictly above the last.
    let mut out_prev: Option<u64> = None;
    let mut emit = |t: u64, targets: &mut Vec<NodeId>| -> Result<(), GraphError> {
        if t >= node_count {
            return Err(corrupt("edge_target", node_count, t));
        }
        if let Some(p) = out_prev {
            if t <= p {
                return Err(corrupt("edge_order", p + 1, t));
            }
        }
        out_prev = Some(t);
        targets.push(NodeId(t as u32));
        Ok(())
    };
    let mut next_run = 0usize;
    let mut prev_res: Option<u64> = None;
    for _ in 0..degree - covered {
        let raw = read_varint(buf, pos)?;
        let r = match prev_res {
            None => (source as i64)
                .checked_add(unzigzag(raw))
                .filter(|&s| s >= 0)
                .map(|s| s as u64)
                .unwrap_or(u64::MAX),
            Some(p) => p.checked_add(raw).and_then(|v| v.checked_add(1)).unwrap_or(u64::MAX),
        };
        // Flush every interval that starts below this residual; a
        // residual landing inside one trips the order check.
        while next_run < runs.len() && runs[next_run].0 < r {
            let (start, len) = runs[next_run];
            for t in start..start + len {
                emit(t, targets)?;
            }
            next_run += 1;
        }
        emit(r, targets)?;
        prev_res = Some(r);
    }
    for &(start, len) in &runs[next_run..] {
        for t in start..start + len {
            emit(t, targets)?;
        }
    }
    Ok(degree as usize)
}

/// A `Corrupted` error's `(field, expected, got)`; any other variant is
/// a failure of the codec's error contract.
fn corrupted_parts(e: &GraphError) -> (&'static str, u64, u64) {
    match e {
        GraphError::Corrupted { field, expected, got } => (field, *expected, *got),
        other => panic!("row decoding must fail with Corrupted, got {other:?}"),
    }
}

/// Runs both decoders on the same input and asserts they agree: equal
/// degree, targets and cursor when the oracle accepts, the identical
/// `Corrupted` triple when it rejects.
fn assert_decoders_agree(buf: &[u8], source: u32, node_count: u64, max_degree: u64) {
    let (mut want_pos, mut want) = (0usize, Vec::new());
    let oracle = oracle_decode_row(buf, &mut want_pos, source, node_count, max_degree, &mut want);
    let (mut got_pos, mut got) = (0usize, Vec::new());
    let fast = decode_row(buf, &mut got_pos, source, node_count, max_degree, &mut got);
    match (oracle, fast) {
        (Ok(want_degree), Ok(got_degree)) => {
            prop_assert_eq!(got_degree, want_degree);
            prop_assert_eq!(got, want);
            prop_assert_eq!(got_pos, want_pos);
        }
        (Err(want_err), Err(got_err)) => {
            prop_assert_eq!(corrupted_parts(&got_err), corrupted_parts(&want_err));
        }
        (want, got) => {
            panic!("oracle {want:?} but decoder {got:?} on {buf:?}");
        }
    }
}

/// A sorted, duplicate-free row mixing runs (some shorter than
/// `MIN_RUN`) with scattered targets, so intervals and residuals
/// interleave on both sides of the source.
fn arb_mixed_row() -> impl Strategy<Value = (u32, Vec<NodeId>)> {
    (
        0u32..2_000,
        proptest::collection::vec((0u32..2_000, 1u32..12), 0..6),
        proptest::collection::vec(0u32..2_000, 0..12),
    )
        .prop_map(|(source, runs, scattered)| {
            let mut targets = scattered;
            for (start, len) in runs {
                targets.extend(start..start + len);
            }
            targets.sort_unstable();
            targets.dedup();
            (source, targets.into_iter().map(NodeId).collect())
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn decoder_matches_oracle_on_garbage(
        bytes in proptest::collection::vec(0u8..=255, 0..48),
        source in 0u32..2_000,
        node_count in 0u64..4_000,
        max_degree in 0u64..64,
    ) {
        assert_decoders_agree(&bytes, source, node_count, max_degree);
    }

    #[test]
    fn decoder_matches_oracle_on_valid_rows((source, row) in arb_mixed_row()) {
        let mut buf = Vec::new();
        encode_row(&mut buf, source, &row);
        assert_decoders_agree(&buf, source, 2_012, row.len() as u64);
        // A node count cutting through the row trips the range checks.
        let cut = row.get(row.len() / 2).map_or(0, |t| t.0 as u64);
        assert_decoders_agree(&buf, source, cut, row.len() as u64);
    }

    #[test]
    fn decoder_matches_oracle_on_every_byte_flip(
        (source, row) in arb_mixed_row(),
        xor in 1u8..=255,
    ) {
        let mut buf = Vec::new();
        encode_row(&mut buf, source, &row);
        let max_degree = row.len() as u64 + 8;
        for at in 0..buf.len() {
            // The chosen mask plus every single-bit flip of this byte.
            for mask in std::iter::once(xor).chain((0..8).map(|b| 1u8 << b)) {
                let mut flipped = buf.clone();
                flipped[at] ^= mask;
                assert_decoders_agree(&flipped, source, 2_012, max_degree);
            }
        }
    }

    #[test]
    fn decoder_matches_oracle_on_every_truncation((source, row) in arb_mixed_row()) {
        let mut buf = Vec::new();
        encode_row(&mut buf, source, &row);
        for keep in 0..buf.len() {
            assert_decoders_agree(&buf[..keep], source, 2_012, row.len() as u64);
        }
    }
}
