//! CRC-32 (IEEE 802.3) over record payloads.
//!
//! The WAL cannot pull in an external checksum crate (the build
//! environment is offline), so this is the classic slicing-by-8 table
//! implementation: eight bytes per step through eight 256-entry tables
//! built at compile time. It is the polynomial every other WAL format
//! uses, so the files stay inspectable with standard tools.

/// The reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

/// `TABLES[0]` is the byte-at-a-time table; `TABLES[k][b]` is the CRC
/// step of byte `b` followed by `k` zero bytes.
const TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// The CRC-32 of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = u32::MAX;
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        crc = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][usize::from(chunk[4])]
            ^ TABLES[2][usize::from(chunk[5])]
            ^ TABLES[1][usize::from(chunk[6])]
            ^ TABLES[0][usize::from(chunk[7])];
    }
    for &byte in chunks.remainder() {
        crc = (crc >> 8) ^ TABLES[0][usize::from((crc as u8) ^ byte)];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    /// The textbook byte-at-a-time loop: the reference the sliced form
    /// must agree with.
    fn bytewise(data: &[u8]) -> u32 {
        let mut crc = u32::MAX;
        for &byte in data {
            crc = (crc >> 8) ^ TABLES[0][usize::from((crc as u8) ^ byte)];
        }
        !crc
    }

    #[test]
    fn known_vectors() {
        // The classic check value for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn sensitive_to_any_flip() {
        let base = crc32(b"hello wal");
        assert_ne!(base, crc32(b"hello wam"));
        assert_ne!(base, crc32(b"hello wal "));
    }

    #[test]
    fn sliced_form_matches_the_bytewise_loop() {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(0x5EED);
        let data: Vec<u8> = (0..4096).map(|_| rng.gen_range(0..=255u8)).collect();
        for _ in 0..500 {
            let start = rng.gen_range(0..64);
            let len = rng.gen_range(0..data.len() - start);
            let slice = &data[start..start + len];
            assert_eq!(crc32(slice), bytewise(slice), "start {start} len {len}");
        }
    }
}
