//! The on-disk record log: length-prefixed, checksummed frames with
//! truncation-tolerant decoding.
//!
//! # Layout
//!
//! ```text
//! ┌──────────────────────────┐
//! │ magic  "an5dtunedb v1\n" │  14 bytes, written once at creation
//! ├──────────────────────────┤
//! │ record 0                 │
//! │ record 1                 │
//! │ …                        │
//! └──────────────────────────┘
//!
//! record := payload_len  (u32 LE)
//!         | checksum     (u64 LE, FNV-1a 64 of the payload bytes)
//!         | payload      (UTF-8 JSON document, payload_len bytes)
//! ```
//!
//! # Recovery semantics
//!
//! Decoding never panics and never refuses a file outright for damage at
//! the *tail* — the failure mode of a crash mid-append:
//!
//! * a file truncated at any byte offset (inside the magic, a frame
//!   header, or a payload) yields the longest prefix of intact records;
//!   the truncated tail is reported so the writer can chop it off before
//!   appending again;
//! * a record whose checksum does not match its payload is **skipped**
//!   (counted, not fatal): the frame length still tells the decoder
//!   where the next record starts, so one flipped bit loses one record,
//!   not the database;
//! * a frame header announcing an absurd length (`> MAX_PAYLOAD_BYTES`)
//!   means the framing itself is corrupt — everything from there on is
//!   treated as an unrecoverable tail (reported, not replayed).
//!
//! A file that does not start with (a prefix of) the magic is rejected
//! as foreign — recovery must never "repair" a file that was never a
//! tune DB.

use std::io;

/// File magic, version-tagged; bump the version on incompatible layout
/// changes.
pub(crate) const MAGIC: &[u8] = b"an5dtunedb v1\n";

/// Upper bound on one record's payload (a tuning result is a few KiB; a
/// length field beyond this bound is treated as framing corruption).
pub(crate) const MAX_PAYLOAD_BYTES: usize = 16 << 20;

/// Bytes of one frame header: `u32` length + `u64` checksum.
const FRAME_HEADER_BYTES: usize = 4 + 8;

/// Append one framed record to `out`.
pub(crate) fn encode_record(payload: &[u8], out: &mut Vec<u8>) {
    assert!(
        payload.len() <= MAX_PAYLOAD_BYTES,
        "record payload of {} bytes exceeds the {MAX_PAYLOAD_BYTES}-byte frame bound",
        payload.len()
    );
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&an5d_tuner::fnv1a64(payload).to_le_bytes());
    out.extend_from_slice(payload);
}

/// What a decoding pass recovered from a log image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Recovered {
    /// Payloads of every intact record, in append order.
    pub payloads: Vec<Vec<u8>>,
    /// Records dropped for a checksum mismatch (framing was intact, so
    /// decoding resumed at the next record).
    pub skipped: usize,
    /// Byte offset of the end of the last cleanly-framed record — the
    /// position an appender should truncate to before writing.
    pub valid_len: usize,
    /// Bytes beyond `valid_len` that could not be decoded (crash-torn
    /// tail or framing corruption). Zero for a clean log.
    pub tail_bytes: usize,
}

/// Decode a full log image (including the magic).
///
/// # Errors
///
/// Returns [`io::ErrorKind::InvalidData`] only when the file is not a
/// tune DB at all (its first bytes disagree with the magic). Damage
/// *after* a valid magic prefix — truncation, bit flips, torn appends —
/// is recovered, never fatal.
pub(crate) fn decode_log(bytes: &[u8]) -> io::Result<Recovered> {
    let magic_len = MAGIC.len().min(bytes.len());
    if bytes[..magic_len] != MAGIC[..magic_len] {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "not a tune DB: file does not start with the an5dtunedb magic",
        ));
    }
    if bytes.len() < MAGIC.len() {
        // Truncated inside the magic: an empty DB whose header write was
        // torn. Everything present is tail to rewrite.
        return Ok(Recovered {
            payloads: Vec::new(),
            skipped: 0,
            valid_len: 0,
            tail_bytes: bytes.len(),
        });
    }

    let mut payloads = Vec::new();
    let mut skipped = 0usize;
    let mut pos = MAGIC.len();
    let mut valid_len = pos;
    loop {
        let remaining = bytes.len() - pos;
        if remaining == 0 {
            break;
        }
        if remaining < FRAME_HEADER_BYTES {
            break; // torn mid-header
        }
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes")) as usize;
        if len > MAX_PAYLOAD_BYTES {
            break; // framing corrupt: cannot trust any later offset
        }
        let payload_start = pos + FRAME_HEADER_BYTES;
        if bytes.len() - payload_start < len {
            break; // torn mid-payload
        }
        let checksum = u64::from_le_bytes(bytes[pos + 4..pos + 12].try_into().expect("8 bytes"));
        let payload = &bytes[payload_start..payload_start + len];
        pos = payload_start + len;
        // The frame is complete either way, so decoding can continue at
        // `pos`; only this record is lost to the bad checksum.
        if an5d_tuner::fnv1a64(payload) == checksum {
            payloads.push(payload.to_vec());
        } else {
            skipped += 1;
        }
        valid_len = pos;
    }
    Ok(Recovered {
        payloads,
        skipped,
        valid_len,
        tail_bytes: bytes.len() - valid_len,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn image(payloads: &[&[u8]]) -> Vec<u8> {
        let mut out = MAGIC.to_vec();
        for payload in payloads {
            encode_record(payload, &mut out);
        }
        out
    }

    #[test]
    fn round_trips_records_in_order() {
        let bytes = image(&[b"alpha", b"", b"gamma gamma"]);
        let recovered = decode_log(&bytes).unwrap();
        assert_eq!(
            recovered.payloads,
            vec![b"alpha".to_vec(), Vec::new(), b"gamma gamma".to_vec()]
        );
        assert_eq!(recovered.skipped, 0);
        assert_eq!(recovered.valid_len, bytes.len());
        assert_eq!(recovered.tail_bytes, 0);
    }

    #[test]
    fn truncation_at_every_byte_offset_recovers_the_longest_valid_prefix() {
        let payloads: [&[u8]; 3] = [b"first record", b"second", b"the third record payload"];
        let bytes = image(&payloads);
        // Record boundaries: magic, then each frame end.
        let mut boundaries = vec![MAGIC.len()];
        {
            let mut pos = MAGIC.len();
            for p in &payloads {
                pos += FRAME_HEADER_BYTES + p.len();
                boundaries.push(pos);
            }
        }
        for cut in 0..=bytes.len() {
            let recovered = decode_log(&bytes[..cut]).unwrap();
            // The number of whole records fitting before the cut.
            let expect = boundaries
                .iter()
                .filter(|&&b| b > MAGIC.len() && b <= cut)
                .count();
            assert_eq!(
                recovered.payloads.len(),
                expect,
                "cut at byte {cut} must keep exactly the complete records"
            );
            for (i, payload) in recovered.payloads.iter().enumerate() {
                assert_eq!(payload.as_slice(), payloads[i]);
            }
            assert_eq!(recovered.skipped, 0);
            assert_eq!(recovered.tail_bytes, cut - recovered.valid_len);
            assert!(recovered.valid_len <= cut);
        }
    }

    #[test]
    fn corrupted_checksum_skips_only_the_bad_record() {
        let payloads: [&[u8]; 3] = [b"keep me", b"corrupt me", b"keep me too"];
        let bytes = image(&payloads);
        // Flip one payload byte of the middle record at every position.
        let middle_start =
            MAGIC.len() + FRAME_HEADER_BYTES + payloads[0].len() + FRAME_HEADER_BYTES;
        for offset in 0..payloads[1].len() {
            let mut corrupted = bytes.clone();
            corrupted[middle_start + offset] ^= 0x5A;
            let recovered = decode_log(&corrupted).unwrap();
            assert_eq!(recovered.skipped, 1, "bad record at byte {offset} skipped");
            assert_eq!(
                recovered.payloads,
                vec![payloads[0].to_vec(), payloads[2].to_vec()],
                "records around the corruption survive"
            );
            assert_eq!(recovered.tail_bytes, 0);
        }
        // Flipping the stored checksum itself (not the payload) also
        // drops exactly that record.
        let mut corrupted = bytes.clone();
        corrupted[middle_start - 1] ^= 0xFF;
        let recovered = decode_log(&corrupted).unwrap();
        assert_eq!(recovered.skipped, 1);
        assert_eq!(recovered.payloads.len(), 2);
    }

    #[test]
    fn absurd_length_field_stops_decoding_at_the_corruption() {
        let bytes = image(&[b"good", b"doomed"]);
        let mut corrupted = bytes.clone();
        // Overwrite the second frame's length with u32::MAX.
        let second = MAGIC.len() + FRAME_HEADER_BYTES + 4;
        corrupted[second..second + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let recovered = decode_log(&corrupted).unwrap();
        assert_eq!(recovered.payloads, vec![b"good".to_vec()]);
        assert_eq!(recovered.valid_len, second);
        assert!(recovered.tail_bytes > 0);
    }

    #[test]
    fn foreign_files_are_rejected_not_repaired() {
        assert!(decode_log(b"PK\x03\x04 definitely a zip").is_err());
        assert!(
            decode_log(b"an5dtunedb v2\n").is_err(),
            "future versions refuse"
        );
        // A bare magic prefix (torn header write) is an empty DB.
        let recovered = decode_log(&MAGIC[..5]).unwrap();
        assert!(recovered.payloads.is_empty());
        assert_eq!(recovered.valid_len, 0);
        assert_eq!(recovered.tail_bytes, 5);
        // The empty input is an empty (not yet created) DB.
        let recovered = decode_log(b"").unwrap();
        assert!(recovered.payloads.is_empty());
    }
}
