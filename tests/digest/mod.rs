//! The golden tests' shared tools: a seeded script generator and the
//! FNV-1a digest their runs fold into. Both are written out here rather
//! than taken from a crate, so a pinned digest depends on nothing a
//! toolchain or dependency update may change.

use hydro::logic::value::Value;

/// SplitMix64: the scripts' only source of randomness.
pub struct Rng(pub u64);

impl Rng {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    pub fn pick(&mut self, from: &[i64]) -> Option<i64> {
        (!from.is_empty()).then(|| from[self.below(from.len() as u64) as usize])
    }
}

/// FNV-1a, 64-bit.
#[derive(Clone, Copy)]
pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, n: u64) {
        self.bytes(&n.to_le_bytes());
    }

    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    pub fn value(&mut self, v: &Value) {
        match v {
            Value::Null => self.bytes(&[0]),
            Value::Bool(b) => self.bytes(&[1, u8::from(*b)]),
            Value::Int(i) => {
                self.bytes(&[2]);
                self.u64(*i as u64);
            }
            Value::Str(s) => {
                self.bytes(&[3]);
                self.str(s);
            }
            Value::Tuple(items) => {
                self.bytes(&[4]);
                self.row(items);
            }
            Value::Set(items) => {
                self.bytes(&[5]);
                self.u64(items.len() as u64);
                items.iter().for_each(|x| self.value(x));
            }
            Value::Map(entries) => {
                self.bytes(&[6]);
                self.u64(entries.len() as u64);
                for (k, x) in entries {
                    self.str(k);
                    self.value(x);
                }
            }
        }
    }

    pub fn row(&mut self, row: &[Value]) {
        self.u64(row.len() as u64);
        row.iter().for_each(|x| self.value(x));
    }
}
