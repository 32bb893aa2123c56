//! An unseeded word-at-a-time hasher for the simulation's lookup maps.
//!
//! `std`'s default `HashMap` hasher is SipHash behind a per-process
//! random key: it guards a map whose keys an outsider picks against
//! crafted collisions, at several rounds of mixing per key. The maps that
//! take [`WordHash`] hold names and addresses the program generates itself
//! (zones, PTR records, the resolver cache, the address index of the
//! simulated network), none is filled from socket input, and none is ever
//! iterated (lint rule D3), so neither the key nor the hash order can
//! reach any output. Each 8-byte word costs one add and one multiply.
//!
//! This is not the shard partition hash: [`crate::shard::stable_hash`]
//! stays the one hash whose values decide anything.

use std::hash::{BuildHasherDefault, Hasher};

/// An odd multiplier with well-spread bits (rustc's `FxHasher` uses it),
/// so each mixing step is a bijection of the state.
const MULTIPLIER: u64 = 0xf135_7aea_2e62_a9c5;

/// The hasher: one add-and-multiply per 8-byte word, no seed.
///
/// # Example
///
/// ```
/// use std::collections::HashMap;
/// use spamward_sim::WordHash;
///
/// let mut zones: HashMap<&str, u32, WordHash> = HashMap::default();
/// zones.insert("foo.net", 1);
/// assert_eq!(zones.get("foo.net"), Some(&1));
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct WordHasher {
    state: u64,
}

/// Builds [`WordHasher`]s for a `HashMap` or `HashSet`.
pub type WordHash = BuildHasherDefault<WordHasher>;

impl WordHasher {
    fn mix(&mut self, word: u64) {
        self.state = self.state.wrapping_add(word).wrapping_mul(MULTIPLIER);
    }
}

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        let mut word = [0u8; 8];
        for chunk in &mut words {
            word.copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(word));
        }
        // The last word sets the bit right after the final byte, so two
        // texts that differ only in length (trailing zero bytes included)
        // mix different words.
        let tail = words.remainder();
        word = [0; 8];
        word[..tail.len()].copy_from_slice(tail);
        self.mix(u64::from_le_bytes(word) | (1 << (8 * tail.len())));
    }

    fn write_u8(&mut self, i: u8) {
        self.mix(u64::from(i));
    }

    fn write_u16(&mut self, i: u16) {
        self.mix(u64::from(i));
    }

    fn write_u32(&mut self, i: u32) {
        self.mix(u64::from(i));
    }

    fn write_u64(&mut self, i: u64) {
        self.mix(i);
    }

    fn write_usize(&mut self, i: usize) {
        // usize is at most 64 bits on every supported target.
        self.mix(i as u64);
    }

    fn finish(&self) -> u64 {
        // The multiply leaves the best-mixed bits on top; maps index
        // their buckets with the low ones.
        self.state.rotate_left(26)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;
    use std::net::Ipv4Addr;

    fn hash_bytes(bytes: &[u8]) -> u64 {
        let mut hasher = WordHasher::default();
        hasher.write(bytes);
        hasher.finish()
    }

    /// Pinned outputs: the hasher has no seed, so a fresh one hashes
    /// these inputs to these values in every process.
    #[test]
    fn outputs_are_pinned() {
        assert_eq!(hash_bytes(b""), 12_157_901_119_326_311_915);
        assert_eq!(hash_bytes(b"foo.net"), 7_572_059_769_731_840_025);
        assert_eq!(hash_bytes(b"mx1.campus-relay.example"), 16_039_083_637_839_962_466);
        let mut ip = WordHasher::default();
        ip.write_u32(u32::from(Ipv4Addr::new(192, 0, 2, 10)));
        assert_eq!(ip.finish(), 6_436_972_828_270_484_099);
        let mut text_then_word = WordHasher::default();
        text_then_word.write(b"foo.net");
        text_then_word.write_u8(0xff);
        assert_eq!(text_then_word.finish(), 3_057_645_993_669_331_263);
        // Two builds agree: nothing per-map or per-process is mixed in.
        let build = WordHash::default();
        assert_eq!(build.hash_one("foo.net"), WordHash::default().hash_one("foo.net"));
    }

    #[test]
    fn length_and_last_byte_change_the_hash() {
        let texts: [&[u8]; 6] = [b"", b"\0", b"a", b"a\0", b"mx1.foo.net", b"mx1.foo.ne\0"];
        for (i, a) in texts.iter().enumerate() {
            for b in &texts[i + 1..] {
                assert_ne!(hash_bytes(a), hash_bytes(b), "{a:?} vs {b:?}");
            }
        }
        // Eight-byte boundaries: a whole word, and one more byte.
        let word = b"abcdefgh";
        assert_ne!(hash_bytes(word), hash_bytes(b"abcdefgh\0"));
        assert_ne!(hash_bytes(word), hash_bytes(b"abcdefg"));
        assert_ne!(hash_bytes(word), hash_bytes(b"abcdefgi"));
        assert_ne!(hash_bytes(b"abcdefghijklmnop"), hash_bytes(b"abcdefghijklmnoq"));
    }
}
