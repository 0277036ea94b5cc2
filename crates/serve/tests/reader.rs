//! Edge cases of bounded line reading through [`LineAccum`], the one
//! line reader of every transport: the poll loop feeds it whatever a
//! readiness wakeup delivered, and the blocking `serve_connection`
//! feeds it each `fill_buf` chunk. Every stream — exact-cap lines,
//! CRLF, partial reads, oversized recovery, torn tails — must come out
//! as the same events however it is chunked, or two transports would
//! disagree about what a client said.

use cluster_serve::protocol::{LineAccum, LineRead};

/// Chunk sizes every stream is fed at: single bytes, small odd
/// splits, and one chunk holding the whole stream.
const STEPS: [usize; 7] = [1, 2, 3, 5, 7, 64, usize::MAX];

/// Runs a whole byte stream through a [`LineAccum`], split into chunks
/// of `step` bytes, then flushes the torn tail as EOF does.
fn accum_events(stream: &[u8], max: usize, step: usize) -> Vec<LineRead> {
    let mut acc = LineAccum::new(max);
    let mut out = Vec::new();
    for chunk in stream.chunks(step.clamp(1, stream.len().max(1))) {
        out.extend(acc.feed(chunk));
    }
    out.extend(acc.finish());
    assert!(acc.is_empty(), "finish resets the accumulator");
    out
}

/// Asserts `stream` yields `want` at every chunking in [`STEPS`].
fn assert_events(stream: &[u8], max: usize, want: &[LineRead]) {
    for step in STEPS {
        assert_eq!(
            accum_events(stream, max, step),
            want,
            "max {max} step {step}"
        );
    }
}

fn line(s: &str) -> LineRead {
    LineRead::Line(s.to_string())
}

#[test]
fn exact_max_length_line_is_accepted_one_more_byte_is_not() {
    assert_events(b"12345678\n", 8, &[line("12345678")]);
    assert_events(b"123456789\n", 8, &[LineRead::Oversized { length: 9 }]);
}

#[test]
fn crlf_strips_exactly_one_carriage_return() {
    assert_events(
        b"alpha\r\nbeta\r\r\n\r\n",
        64,
        &[line("alpha"), line("beta\r"), line("")],
    );
    // The cap counts the \r: an exact-max payload plus \r\n overflows
    // a cap sized for the payload alone...
    assert_events(b"12345678\r\n", 8, &[LineRead::Oversized { length: 9 }]);
    // ...and fits a cap that accounts for it.
    assert_events(b"12345678\r\n", 9, &[line("12345678")]);
}

#[test]
fn interleaved_partial_reads_reassemble_lines() {
    // A request arriving one byte per read must come out as the same
    // single line.
    assert_events(
        b"{\"op\":\"ping\",\"id\":1}\n{\"op\":\"stats\"}\n",
        4096,
        &[
            line("{\"op\":\"ping\",\"id\":1}"),
            line("{\"op\":\"stats\"}"),
        ],
    );
    // Mid-line chunk boundaries: feed returns nothing until the
    // newline lands, and the partial line is visible via is_empty.
    let mut acc = LineAccum::new(64);
    assert!(acc.feed(b"{\"op\":").is_empty());
    assert!(!acc.is_empty(), "partial line pending");
    assert!(acc.feed(b"\"ping\"").is_empty());
    assert_eq!(acc.feed(b"}\nnext"), vec![line("{\"op\":\"ping\"}")]);
    assert_eq!(acc.finish(), Some(line("next")));
    assert_eq!(acc.finish(), None, "second finish is a clean no-op");
}

#[test]
fn oversized_line_recovery_does_not_desync_the_stream() {
    let huge = "x".repeat(1000);
    let stream = format!("{huge}\n{{\"op\":\"ping\"}}\nshort\n");
    let want = [
        LineRead::Oversized { length: 1000 },
        line("{\"op\":\"ping\"}"),
        line("short"),
    ];
    // However the reads slice the oversized line, the lines after it
    // come through intact and in order.
    assert_events(stream.as_bytes(), 16, &want);
    for step in [16, 17, 999, 4096] {
        assert_eq!(
            accum_events(stream.as_bytes(), 16, step),
            want,
            "step {step}"
        );
    }
}

#[test]
fn torn_tail_at_eof_is_surfaced_not_dropped() {
    // Unterminated final line: the reader hands it to the parser
    // (which answers a parse error) instead of losing it.
    assert_events(
        b"{\"op\":\"ping\"}\n{\"op\":\"pi",
        64,
        &[line("{\"op\":\"ping\"}"), line("{\"op\":\"pi")],
    );
    // A torn tail that already overflowed reports oversized.
    assert_events(
        "y".repeat(100).as_bytes(),
        16,
        &[LineRead::Oversized { length: 100 }],
    );
    // Empty stream: no events at all.
    assert_events(b"", 16, &[]);
}

#[test]
fn mixed_streams_cut_the_same_at_every_chunking() {
    let huge = "z".repeat(300);
    // Ends in a torn oversized tail, no newline.
    let stream = format!("plain\r\ntiny\n\n{huge}\nexact-cap-1234\n{huge}");
    for max in [14, 15, 64, 299, 300] {
        let want = accum_events(stream.as_bytes(), max, usize::MAX);
        assert_events(stream.as_bytes(), max, &want);
        for step in [13, 10_000] {
            assert_eq!(
                accum_events(stream.as_bytes(), max, step),
                want,
                "max {max} step {step}"
            );
        }
    }
    assert_eq!(
        accum_events(stream.as_bytes(), 14, usize::MAX),
        [
            line("plain"),
            line("tiny"),
            line(""),
            LineRead::Oversized { length: 300 },
            line("exact-cap-1234"),
            LineRead::Oversized { length: 300 },
        ]
    );
}
