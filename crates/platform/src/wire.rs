//! The reliable-transport wire format.
//!
//! When fault injection is active, every message the transactor puts on
//! the link is a *frame*:
//!
//! ```text
//! word 0   header:  [31:24] channel id   [23:12] payload words
//!                   [11:8]  flags        [7:0]   ack channel id
//! word 1   sequence number (wrapping u32; 0 = pure-ACK frame)
//! word 2   cumulative ACK value for the ack channel
//! word 3.. payload (marshaled value, exactly `Type::words()` words)
//! last     CRC32 (IEEE) over all preceding words
//! ```
//!
//! Corruption injected by the link flips bits within a single 32-bit
//! word — a burst error of at most 32 bits, which CRC32 detects with
//! certainty — so a frame that passes the checksum is trustworthy and a
//! frame that fails it is silently discarded and repaired by
//! retransmission.

/// Frame flag: the ACK fields (ack channel + ack value) are meaningful.
pub const FLAG_ACK: u32 = 1;
/// Frame flag: the frame carries a data payload with a sequence number.
pub const FLAG_DATA: u32 = 2;
/// Frame flag: the frame is a retransmission (diagnostic only).
pub const FLAG_RETRANSMIT: u32 = 4;

/// Number of non-payload words in a frame (header, seq, ack, CRC).
pub const OVERHEAD_WORDS: usize = 4;

/// A decoded frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Virtual-channel id of the payload (meaningful when `FLAG_DATA`).
    pub channel: u8,
    /// Flag bits (`FLAG_ACK` / `FLAG_DATA` / `FLAG_RETRANSMIT`).
    pub flags: u32,
    /// Virtual-channel id the ACK refers to (meaningful when `FLAG_ACK`).
    pub ack_channel: u8,
    /// Data sequence number; 0 for pure-ACK frames.
    pub seq: u32,
    /// Cumulative ACK: highest in-order sequence accepted on
    /// `ack_channel`.
    pub ack: u32,
    /// Marshaled payload words.
    pub payload: Vec<u32>,
}

impl Frame {
    /// True if the ACK fields (ack channel + cumulative ack) are
    /// meaningful.
    pub fn is_ack(&self) -> bool {
        self.flags & FLAG_ACK != 0
    }

    /// True if the frame carries a sequenced data payload.
    pub fn is_data(&self) -> bool {
        self.flags & FLAG_DATA != 0
    }

    /// True if the frame is a retransmission (diagnostic only).
    pub fn is_retransmit(&self) -> bool {
        self.flags & FLAG_RETRANSMIT != 0
    }

    /// Encodes the frame, appending the CRC.
    pub fn encode(&self) -> Vec<u32> {
        debug_assert!(
            self.payload.len() < (1 << 12),
            "payload too large for header"
        );
        let header = (self.channel as u32) << 24
            | (self.payload.len() as u32) << 12
            | (self.flags & 0xf) << 8
            | self.ack_channel as u32;
        let mut words = Vec::with_capacity(self.payload.len() + OVERHEAD_WORDS);
        words.push(header);
        words.push(self.seq);
        words.push(self.ack);
        words.extend_from_slice(&self.payload);
        words.push(crc32(&words));
        words
    }

    /// Decodes and validates a frame. Returns `None` if the frame is too
    /// short, its declared length disagrees with its actual length, or
    /// the CRC does not match — i.e. for anything a corrupted or
    /// truncated frame could look like.
    pub fn decode(words: &[u32]) -> Option<Frame> {
        if words.len() < OVERHEAD_WORDS {
            return None;
        }
        let (body, crc) = words.split_at(words.len() - 1);
        if crc32(body) != crc[0] {
            return None;
        }
        let header = body[0];
        let payload_len = ((header >> 12) & 0xfff) as usize;
        if payload_len != body.len() - 3 {
            return None;
        }
        Some(Frame {
            channel: (header >> 24) as u8,
            flags: (header >> 8) & 0xf,
            ack_channel: (header & 0xff) as u8,
            seq: body[1],
            ack: body[2],
            payload: body[3..].to_vec(),
        })
    }
}

/// IEEE CRC-32 (reflected, polynomial 0xEDB88320) over the words' LE
/// byte representation.
pub fn crc32(words: &[u32]) -> u32 {
    let mut crc: u32 = !0;
    for w in words {
        crc = crc32_step(crc, &w.to_le_bytes());
    }
    !crc
}

/// The same IEEE CRC-32 over a raw byte stream — shared by the link
/// transport (per-frame, word-granular) and the durable snapshot format
/// (per-section, byte-granular), so both layers detect any burst error
/// shorter than 32 bits with certainty.
pub fn crc32_bytes(bytes: &[u8]) -> u32 {
    !crc32_step(!0, bytes)
}

/// The CRC of every byte value, so each input byte costs one table step
/// instead of eight shift-and-xor steps (snapshot sections run to
/// hundreds of KB, and their CRC sits inside the migration pause).
const CRC32_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xedb8_8320 & mask);
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

fn crc32_step(mut crc: u32, bytes: &[u8]) -> u32 {
    for &b in bytes {
        crc = CRC32_TABLE[((crc ^ u32::from(b)) & 0xff) as usize] ^ (crc >> 8);
    }
    crc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(payload: Vec<u32>) -> Frame {
        Frame {
            channel: 3,
            flags: FLAG_DATA | FLAG_ACK,
            ack_channel: 1,
            seq: 17,
            ack: 9,
            payload,
        }
    }

    #[test]
    fn crc32_matches_known_vector() {
        // CRC32("123456789") = 0xCBF43926; "1234" LE = word 0x34333231,
        // "5678" LE = 0x38373635 — use the byte-equivalent word stream.
        let words = [0x3433_3231, 0x3837_3635];
        let mut bytes_crc: u32 = !0;
        for b in b"12345678" {
            bytes_crc ^= *b as u32;
            for _ in 0..8 {
                let mask = (bytes_crc & 1).wrapping_neg();
                bytes_crc = (bytes_crc >> 1) ^ (0xedb8_8320 & mask);
            }
        }
        assert_eq!(crc32(&words), !bytes_crc);
    }

    #[test]
    fn crc32_bytes_matches_known_vector_and_word_form() {
        assert_eq!(crc32_bytes(b"123456789"), 0xcbf4_3926);
        let words = [0x3433_3231, 0x3837_3635];
        assert_eq!(crc32(&words), crc32_bytes(b"12345678"));
    }

    #[test]
    fn encode_decode_roundtrips() {
        for n in 0..8 {
            let f = frame((0..n).map(|i| i * 0x0101_0101).collect());
            let words = f.encode();
            assert_eq!(words.len(), f.payload.len() + OVERHEAD_WORDS);
            assert_eq!(Frame::decode(&words), Some(f));
        }
    }

    #[test]
    fn single_word_burst_errors_are_always_detected() {
        let f = frame(vec![0xdead_beef, 0x0123_4567]);
        let clean = f.encode();
        for w in 0..clean.len() {
            for flips in [0x1u32, 0x8000_0001, 0xffff_ffff, 0x0f0f_0f0f] {
                let mut bad = clean.clone();
                bad[w] ^= flips;
                assert_eq!(Frame::decode(&bad), None, "word {w} flips {flips:#x}");
            }
        }
    }

    #[test]
    fn truncated_and_padded_frames_are_rejected() {
        let f = frame(vec![1, 2, 3]);
        let words = f.encode();
        assert_eq!(Frame::decode(&words[..3]), None);
        assert_eq!(Frame::decode(&[]), None);
        let mut padded = words.clone();
        padded.push(0);
        assert_eq!(Frame::decode(&padded), None);
    }
}
