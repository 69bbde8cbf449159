//! SHA-256, from the FIPS 180-4 spec.
//!
//! The service layer content-addresses netlists and reduced models:
//! the address must be collision-resistant (a truncated or additive
//! hash would let two different circuits share a persisted model) and
//! stable across processes and platforms (the registry survives
//! restarts). The workspace is dependency-free by policy, so the
//! standard construction is written out here — about eighty lines —
//! and pinned against the FIPS test vectors.

/// First 32 bits of the fractional parts of the cube roots of the
/// first 64 primes (the round constants `K`).
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Initial hash: fractional parts of the square roots of the first
/// eight primes.
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Streaming SHA-256. [`update`](Self::update) absorbs bytes in any
/// split; [`finalize`](Self::finalize) pads and returns the digest.
/// Cloning copies the midstate, so a shared prefix is hashed once and
/// finished under several suffixes.
#[derive(Clone)]
pub(crate) struct Sha256 {
    h: [u32; 8],
    /// The partial block not yet compressed (`buf[..buf_len]`).
    buf: [u8; 64],
    buf_len: usize,
    /// Bytes absorbed so far.
    len: u64,
}

impl Sha256 {
    /// A hasher that has absorbed nothing.
    pub(crate) fn new() -> Self {
        Sha256 {
            h: H0,
            buf: [0; 64],
            buf_len: 0,
            len: 0,
        }
    }

    /// Absorbs `data`, compressing every block it completes.
    pub(crate) fn update(&mut self, mut data: &[u8]) {
        self.len += data.len() as u64;
        if self.buf_len > 0 {
            let take = data.len().min(64 - self.buf_len);
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len < 64 {
                return;
            }
            let block = self.buf;
            compress(&mut self.h, &block);
            self.buf_len = 0;
        }
        let mut blocks = data.chunks_exact(64);
        for block in &mut blocks {
            compress(&mut self.h, block);
        }
        let rest = blocks.remainder();
        self.buf[..rest.len()].copy_from_slice(rest);
        self.buf_len = rest.len();
    }

    /// Pads, compresses the last block(s) and returns the digest as 64
    /// lowercase hex characters.
    pub(crate) fn finalize(mut self) -> String {
        // Pad: 0x80, zeros to 56 mod 64, then the bit length big-endian.
        let bits = self.len.wrapping_mul(8);
        let pad_zeros = (55 - self.buf_len as isize).rem_euclid(64) as usize;
        self.update(&[0x80]);
        self.update(&[0; 64][..pad_zeros]);
        self.update(&bits.to_be_bytes());
        debug_assert_eq!(self.buf_len, 0);
        let mut hex = String::with_capacity(64);
        for v in self.h {
            hex.push_str(&format!("{v:08x}"));
        }
        hex
    }
}

/// The SHA-256 digest of `data`, as 64 lowercase hex characters.
pub fn sha256_hex(data: &[u8]) -> String {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// One compression round of the 64-byte `block` into the state `h`.
fn compress(h: &mut [u32; 8], block: &[u8]) {
    let mut w = [0u32; 64];
    for (t, word) in block.chunks_exact(4).enumerate() {
        w[t] = u32::from_be_bytes([word[0], word[1], word[2], word[3]]);
    }
    for t in 16..64 {
        let s0 = w[t - 15].rotate_right(7) ^ w[t - 15].rotate_right(18) ^ (w[t - 15] >> 3);
        let s1 = w[t - 2].rotate_right(17) ^ w[t - 2].rotate_right(19) ^ (w[t - 2] >> 10);
        w[t] = w[t - 16]
            .wrapping_add(s0)
            .wrapping_add(w[t - 7])
            .wrapping_add(s1);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut hh] = *h;
    for t in 0..64 {
        let big_s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let temp1 = hh
            .wrapping_add(big_s1)
            .wrapping_add(ch)
            .wrapping_add(K[t])
            .wrapping_add(w[t]);
        let big_s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let temp2 = big_s0.wrapping_add(maj);
        hh = g;
        g = f;
        f = e;
        e = d.wrapping_add(temp1);
        d = c;
        c = b;
        b = a;
        a = temp1.wrapping_add(temp2);
    }
    for (hi, v) in h.iter_mut().zip([a, b, c, d, e, f, g, hh]) {
        *hi = hi.wrapping_add(v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fips_test_vectors() {
        assert_eq!(
            sha256_hex(b""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        assert_eq!(
            sha256_hex(b"abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        // Two-block message (padding crosses a block boundary).
        assert_eq!(
            sha256_hex(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn length_boundaries_around_padding() {
        // 55, 56, and 64 bytes exercise the "does the length field fit
        // in this block" edges.
        for n in [55usize, 56, 63, 64, 65] {
            let data = vec![0x61u8; n];
            let hex = sha256_hex(&data);
            assert_eq!(hex.len(), 64);
            assert_ne!(hex, sha256_hex(&vec![0x61u8; n + 1]));
        }
    }

    #[test]
    fn streaming_matches_one_shot_at_every_split() {
        // The FIPS vectors plus messages straddling the padding and
        // block edges, absorbed in two pieces at every split point and
        // byte by byte.
        let long: Vec<u8> = (0..200u32).map(|i| (i * 7 + 3) as u8).collect();
        let messages: [&[u8]; 5] = [
            b"",
            b"abc",
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            &long[..64],
            &long,
        ];
        for msg in messages {
            let want = sha256_hex(msg);
            for split in 0..=msg.len() {
                let mut h = Sha256::new();
                h.update(&msg[..split]);
                let prefix = h.clone().finalize();
                h.update(&msg[split..]);
                assert_eq!(h.finalize(), want, "len {} split {split}", msg.len());
                assert_eq!(prefix, sha256_hex(&msg[..split]));
            }
            let mut h = Sha256::new();
            for b in msg {
                h.update(std::slice::from_ref(b));
            }
            assert_eq!(h.finalize(), want);
        }
    }
}
