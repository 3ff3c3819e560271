//! Property tests for `ByteReader`: over arbitrary bytes and an arbitrary
//! script of reads it never panics, every read agrees with a plain-slice
//! model of the cursor, a read past the end is `Truncated` under its own
//! label, and `finish` with bytes left is `Trailing`.

use proptest::prelude::*;
use slide_mem::{ByteReader, ReadError};

/// One scripted read: `(op, n)`, where `n` is the count for `take`,
/// `words` and `utf8`.
#[derive(Debug, Clone, Copy)]
enum Op {
    U8,
    U32,
    U64,
    Take(usize),
    Words(usize),
    Utf8(usize),
}

impl Op {
    fn label(self) -> &'static str {
        match self {
            Op::U8 => "op.u8",
            Op::U32 => "op.u32",
            Op::U64 => "op.u64",
            Op::Take(_) => "op.take",
            Op::Words(_) => "op.words",
            Op::Utf8(_) => "op.utf8",
        }
    }

    /// Bytes the read needs.
    fn need(self) -> usize {
        match self {
            Op::U8 => 1,
            Op::U32 => 4,
            Op::U64 => 8,
            Op::Take(n) | Op::Utf8(n) => n,
            Op::Words(n) => n.saturating_mul(4),
        }
    }
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        (0u8..7, 0usize..40).prop_map(|(code, n)| match code {
            0 => Op::U8,
            1 => Op::U32,
            2 => Op::U64,
            3 => Op::Take(n),
            4 => Op::Words(n),
            5 => Op::Utf8(n),
            // A count whose byte length overflows `usize`.
            _ => Op::Words(usize::MAX / 2 + n),
        }),
        0..24,
    )
}

/// Arbitrary bytes, ASCII-only half the time so that `utf8` reads succeed
/// as well as fail.
fn input() -> impl Strategy<Value = Vec<u8>> {
    (prop::collection::vec(any::<u8>(), 0..96), any::<bool>()).prop_map(|(mut bytes, ascii)| {
        if ascii {
            bytes.iter_mut().for_each(|b| *b &= 0x7F);
        }
        bytes
    })
}

/// Run one read, returning the bytes it consumed on success.
fn run(r: &mut ByteReader<'_>, op: Op) -> Result<Vec<u8>, ReadError> {
    let what = op.label();
    Ok(match op {
        Op::U8 => vec![r.u8(what)?],
        Op::U32 => r.u32(what)?.to_le_bytes().to_vec(),
        Op::U64 => r.u64(what)?.to_le_bytes().to_vec(),
        Op::Take(n) => r.take(n, what)?.to_vec(),
        Op::Words(n) => r.words(n, what)?.flat_map(u32::to_le_bytes).collect(),
        Op::Utf8(n) => r.utf8(n, what)?.as_bytes().to_vec(),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn every_read_matches_the_slice_model(bytes in input(), script in ops()) {
        let mut r = ByteReader::new(&bytes);
        let mut at = 0;
        for op in script {
            let have = bytes.len() - at;
            let got = run(&mut r, op);
            if op.need() > have {
                prop_assert_eq!(
                    got,
                    Err(ReadError::Truncated { what: op.label(), need: op.need(), have })
                );
                continue;
            }
            let want = &bytes[at..at + op.need()];
            if matches!(op, Op::Utf8(_)) && std::str::from_utf8(want).is_err() {
                prop_assert_eq!(got, Err(ReadError::Utf8 { what: op.label() }));
                continue;
            }
            prop_assert_eq!(got.as_deref(), Ok(want));
            at += op.need();
        }
        let rest = bytes.len() - at;
        let done = r.finish("script");
        if rest == 0 {
            prop_assert_eq!(done, Ok(()));
        } else {
            prop_assert_eq!(done, Err(ReadError::Trailing { what: "script", extra: rest }));
        }
    }

    #[test]
    fn reading_past_the_end_names_the_field(bytes in input(), extra in 1usize..16) {
        let mut r = ByteReader::new(&bytes);
        let have = bytes.len();
        prop_assert_eq!(
            r.take(have + extra, "past_end").map(<[u8]>::len),
            Err(ReadError::Truncated { what: "past_end", need: have + extra, have })
        );
        // The failed read consumed nothing: the whole input is still there.
        prop_assert_eq!(r.take(have, "all").map(<[u8]>::len), Ok(have));
        prop_assert_eq!(
            r.u8("after_end"),
            Err(ReadError::Truncated { what: "after_end", need: 1, have: 0 })
        );
        prop_assert_eq!(r.finish("record"), Ok(()));
    }

    #[test]
    fn finish_with_bytes_left_is_trailing(bytes in input(), keep in 0usize..96) {
        let mut r = ByteReader::new(&bytes);
        let read = keep.min(bytes.len());
        prop_assert!(r.take(read, "head").is_ok());
        let extra = bytes.len() - read;
        let done = r.finish("record");
        if extra == 0 {
            prop_assert_eq!(done, Ok(()));
        } else {
            prop_assert_eq!(done, Err(ReadError::Trailing { what: "record", extra }));
        }
    }
}
