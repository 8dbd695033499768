//! Fuzzy tuples and their on-disk codec.
//!
//! A tuple pairs attribute values with its membership degree `μ_R(r)` (the
//! `D` attribute of Section 2.2). The binary codec makes the storage-size
//! asymmetry between crisp and ill-known data concrete: a crisp number costs
//! 9 payload bytes (tag + f64), an ill-known value 33 (tag + 4 breakpoints) —
//! the paper's motivation for why fuzzy data increases I/O cost.

use fuzzy_core::interval_order::OrderKey;
use fuzzy_core::{Degree, Trapezoid, Value};
use fuzzy_storage::codec::{ByteReader, ByteWriter};
use fuzzy_storage::{Result, StorageError};
use std::fmt;

const TAG_NULL: u8 = 0;
const TAG_TEXT: u8 = 1;
const TAG_NUMBER: u8 = 2;
const TAG_FUZZY: u8 = 3;

/// A fuzzy tuple: values plus a membership degree in `(0, 1]`.
#[derive(Debug, Clone, PartialEq)]
pub struct Tuple {
    /// Attribute values, in schema order.
    pub values: Vec<Value>,
    /// The membership degree `μ_R(r)` of the tuple in its relation.
    pub degree: Degree,
}

impl Tuple {
    /// Creates a tuple with the given degree.
    pub fn new(values: Vec<Value>, degree: Degree) -> Tuple {
        Tuple { values, degree }
    }

    /// Creates a full member (degree 1).
    pub fn full(values: Vec<Value>) -> Tuple {
        Tuple { values, degree: Degree::ONE }
    }

    /// The value at attribute position `idx`.
    pub fn value(&self, idx: usize) -> &Value {
        &self.values[idx]
    }

    /// Serializes the tuple, optionally padding the record to at least
    /// `min_bytes` (the experiments control tuple size this way, exactly as
    /// the paper's generator fixes 128-byte to 2 KB tuples).
    pub fn encode(&self, min_bytes: usize) -> Vec<u8> {
        let mut w = ByteWriter::with_capacity(min_bytes.max(16));
        w.put_f64(self.degree.value());
        w.put_u16(self.values.len() as u16);
        for v in &self.values {
            match v {
                Value::Null => w.put_u8(TAG_NULL),
                Value::Text(s) => {
                    w.put_u8(TAG_TEXT);
                    w.put_bytes(s.as_bytes());
                }
                Value::Number(n) => {
                    w.put_u8(TAG_NUMBER);
                    w.put_f64(*n);
                }
                Value::Fuzzy(t) => {
                    w.put_u8(TAG_FUZZY);
                    let (a, b, c, d) = t.breakpoints();
                    w.put_f64(a);
                    w.put_f64(b);
                    w.put_f64(c);
                    w.put_f64(d);
                }
            }
        }
        let mut bytes = w.into_bytes();
        if bytes.len() < min_bytes {
            bytes.resize(min_bytes, 0);
        }
        bytes
    }

    /// The length of [`Tuple::encode`]'s record without padding, computed
    /// without encoding.
    pub fn encoded_len(&self) -> usize {
        let values: usize = (self.values.iter())
            .map(|v| match v {
                Value::Null => 1,
                Value::Text(s) => 1 + 4 + s.len(),
                Value::Number(_) => 1 + 8,
                Value::Fuzzy(_) => 1 + 4 * 8,
            })
            .sum();
        8 + 2 + values
    }

    /// Deserializes a tuple (ignoring any padding after the encoded values).
    pub fn decode(bytes: &[u8]) -> Result<Tuple> {
        let mut r = ByteReader::new(bytes);
        let degree = Degree::new(r.get_f64()?)
            .map_err(|e| StorageError::Corrupt(format!("bad degree: {e}")))?;
        let n = r.get_u16()? as usize;
        let mut values = Vec::with_capacity(n);
        for _ in 0..n {
            let v = match r.get_u8()? {
                TAG_NULL => Value::Null,
                TAG_TEXT => Value::text(utf8(r.get_bytes()?)?),
                TAG_NUMBER => Value::number(r.get_f64()?),
                TAG_FUZZY => Value::fuzzy(trapezoid(&mut r)?),
                tag => return Err(unknown_tag(tag)),
            };
            values.push(v);
        }
        Ok(Tuple { values, degree })
    }

    /// The `⪯` sort key of attribute `idx` at α-cut level `alpha`, read
    /// straight from an encoded tuple — the hot path of external sorting,
    /// which keys one attribute per record read. It skips the attributes
    /// before `idx` by tag and length and builds no [`Value`]; the key is
    /// the one [`OrderKey::at`] gives the decoded value, since both build it
    /// with [`OrderKey::number`] and [`OrderKey::fuzzy`]. A record that ends
    /// early, has fewer than `idx + 1` attributes or an unknown tag, or whose
    /// wanted value is text that is not UTF-8 or a trapezoid that is not
    /// finite and ordered fails with `StorageError::Corrupt`.
    // Inlined into the sort's key closure: as an out-of-line call across the
    // crate boundary, extraction took about 22 ns a record instead of 16.
    #[inline]
    pub fn order_key_at(bytes: &[u8], idx: usize, alpha: Degree) -> Result<OrderKey> {
        let mut r = ByteReader::new(bytes);
        let _degree = r.get_f64()?;
        let n = r.get_u16()? as usize;
        if idx >= n {
            return Err(StorageError::Corrupt(format!("attribute {idx} of {n}")));
        }
        for _ in 0..idx {
            match r.get_u8()? {
                TAG_NULL => {}
                TAG_TEXT => {
                    r.get_bytes()?;
                }
                TAG_NUMBER => {
                    r.get_f64()?;
                }
                TAG_FUZZY => {
                    for _ in 0..4 {
                        r.get_f64()?;
                    }
                }
                tag => return Err(unknown_tag(tag)),
            }
        }
        Ok(match r.get_u8()? {
            TAG_NULL => OrderKey::Null,
            TAG_TEXT => OrderKey::Text(utf8(r.get_bytes()?)?.to_owned()),
            TAG_NUMBER => OrderKey::number(r.get_f64()?, alpha),
            TAG_FUZZY => OrderKey::fuzzy(&trapezoid(&mut r)?, alpha),
            tag => return Err(unknown_tag(tag)),
        })
    }
}

/// An encoded text value's string.
fn utf8(raw: &[u8]) -> Result<&str> {
    std::str::from_utf8(raw).map_err(|e| StorageError::Corrupt(format!("bad utf-8 text: {e}")))
}

/// An encoded fuzzy value's trapezoid: four breakpoints, finite and ordered.
fn trapezoid(r: &mut ByteReader<'_>) -> Result<Trapezoid> {
    let (a, b, c, d) = (r.get_f64()?, r.get_f64()?, r.get_f64()?, r.get_f64()?);
    Trapezoid::new(a, b, c, d).map_err(|e| StorageError::Corrupt(format!("bad trapezoid: {e}")))
}

fn unknown_tag(tag: u8) -> StorageError {
    StorageError::Corrupt(format!("unknown value tag {tag}"))
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, " | D={})", self.degree)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The value at attribute `idx` of an encoded tuple, decoded into a
    /// [`Value`]: the reference [`Tuple::order_key_at`] is checked against.
    fn decode_value_at(bytes: &[u8], idx: usize) -> Result<Value> {
        let mut r = ByteReader::new(bytes);
        let _degree = r.get_f64()?;
        let n = r.get_u16()? as usize;
        if idx >= n {
            return Err(StorageError::Corrupt(format!("attribute {idx} of {n}")));
        }
        for i in 0..=idx {
            let wanted = i == idx;
            match r.get_u8()? {
                TAG_NULL if wanted => return Ok(Value::Null),
                TAG_NULL => {}
                TAG_TEXT => {
                    let raw = r.get_bytes()?;
                    if wanted {
                        return Ok(Value::text(utf8(raw)?));
                    }
                }
                TAG_NUMBER => {
                    let v = r.get_f64()?;
                    if wanted {
                        return Ok(Value::number(v));
                    }
                }
                TAG_FUZZY => {
                    let (a, b, c, d) = (r.get_f64()?, r.get_f64()?, r.get_f64()?, r.get_f64()?);
                    if wanted {
                        let t = Trapezoid::new(a, b, c, d)
                            .map_err(|e| StorageError::Corrupt(format!("bad trapezoid: {e}")))?;
                        return Ok(Value::fuzzy(t));
                    }
                }
                tag => return Err(unknown_tag(tag)),
            }
        }
        unreachable!("loop returns at i == idx")
    }

    /// Bit-for-bit key equality: the six floats by `to_bits`, and the prefix.
    fn same_key(x: &OrderKey, y: &OrderKey) -> bool {
        let fields = match (x, y) {
            (OrderKey::Null, OrderKey::Null) => true,
            (OrderKey::Num(a), OrderKey::Num(b)) => {
                a.iter().zip(b).all(|(p, q)| p.to_bits() == q.to_bits())
            }
            (OrderKey::Text(a), OrderKey::Text(b)) => a == b,
            _ => false,
        };
        fields && x.prefix() == y.prefix()
    }

    /// One attribute as the encoder would write it, but from raw parts, so
    /// records can hold what no [`Value`] constructor makes: NaN, ±∞ and
    /// `-0.0` numbers, crisp, unordered or non-finite trapezoids, text that is
    /// not UTF-8, and unknown tags.
    #[derive(Debug, Clone)]
    enum RawAttr {
        Null,
        Text(Vec<u8>),
        Number(f64),
        Fuzzy([f64; 4]),
        Tag(u8),
    }

    fn raw_record(attrs: &[RawAttr]) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_f64(0.75);
        w.put_u16(attrs.len() as u16);
        for attr in attrs {
            match attr {
                RawAttr::Null => w.put_u8(TAG_NULL),
                RawAttr::Text(raw) => {
                    w.put_u8(TAG_TEXT);
                    w.put_bytes(raw);
                }
                RawAttr::Number(x) => {
                    w.put_u8(TAG_NUMBER);
                    w.put_f64(*x);
                }
                RawAttr::Fuzzy(bps) => {
                    w.put_u8(TAG_FUZZY);
                    for x in bps {
                        w.put_f64(*x);
                    }
                }
                RawAttr::Tag(tag) => w.put_u8(*tag),
            }
        }
        w.into_bytes()
    }

    /// A float from the edges (signed zeros, NaN, ±∞) or a small range, so
    /// breakpoints often coincide.
    fn arb_f64() -> impl Strategy<Value = f64> {
        prop_oneof![
            Just(0.0),
            Just(-0.0),
            Just(f64::NAN),
            Just(f64::INFINITY),
            Just(f64::NEG_INFINITY),
            (-4i32..5).prop_map(f64::from),
            -1e3..1e3f64,
        ]
    }

    fn arb_attr() -> impl Strategy<Value = RawAttr> {
        let ordered = (arb_f64(), 0.0..3.0f64, 0.0..3.0f64, 0.0..3.0f64)
            .prop_map(|(a, w1, w2, w3)| RawAttr::Fuzzy([a, a + w1, a + w1 + w2, a + w1 + w2 + w3]));
        prop_oneof![
            Just(RawAttr::Null),
            ".{0,6}".prop_map(|s| RawAttr::Text(s.into_bytes())),
            Just(RawAttr::Text(vec![b'a', 0xff, 0xfe])),
            arb_f64().prop_map(RawAttr::Number),
            ordered,
            // Crisp trapezoids, signed zeros mixed among the breakpoints.
            arb_f64().prop_map(|x| RawAttr::Fuzzy([x; 4])),
            Just(RawAttr::Fuzzy([-0.0, 0.0, -0.0, 0.0])),
            Just(RawAttr::Fuzzy([-0.0, -0.0, 1.0, 2.0])),
            // Anything at all, usually not ordered.
            (arb_f64(), arb_f64(), arb_f64(), arb_f64())
                .prop_map(|(a, b, c, d)| RawAttr::Fuzzy([a, b, c, d])),
            (4u32..256).prop_map(|t| RawAttr::Tag(t as u8)),
        ]
    }

    /// `order_key_at` and the decode-then-key reference agree: the same key
    /// bit for bit, or both an error.
    fn agree(bytes: &[u8], idx: usize, alpha: Degree) -> std::result::Result<(), TestCaseError> {
        let got = Tuple::order_key_at(bytes, idx, alpha);
        match (&got, decode_value_at(bytes, idx)) {
            (Ok(key), Ok(v)) => {
                let want = OrderKey::at(&v, alpha);
                prop_assert!(same_key(key, &want), "{key:?} vs {want:?} from {v:?}");
            }
            (Err(_), Err(_)) => {}
            (got, want) => {
                return Err(TestCaseError::fail(format!("{got:?} vs reference {want:?}")));
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1000))]

        /// Every attribute position, and one past the end, at α ∈ {0, 0.5,
        /// 1}; then the record cut short anywhere and one byte overwritten.
        #[test]
        fn order_key_at_matches_decode_then_key(
            attrs in prop::collection::vec(arb_attr(), 1..5),
            cut in 0usize..1000,
            poke in (0usize..1000, 0u32..256),
        ) {
            let bytes = raw_record(&attrs);
            let alphas = [Degree::ZERO, Degree::new(0.5).unwrap(), Degree::ONE];
            for alpha in alphas {
                for idx in 0..=attrs.len() {
                    agree(&bytes, idx, alpha)?;
                }
            }
            // A record cut short before the end of attribute `idx` is an
            // error on both paths.
            let short = &bytes[..cut % bytes.len()];
            for idx in 0..attrs.len() {
                let end = raw_record(&attrs[..=idx]).len();
                if short.len() < end {
                    prop_assert!(Tuple::order_key_at(short, idx, Degree::ZERO).is_err());
                }
                agree(short, idx, Degree::ZERO)?;
            }
            let mut poked = bytes.clone();
            poked[poke.0 % bytes.len()] = poke.1 as u8;
            for idx in 0..=attrs.len() {
                agree(&poked, idx, Degree::new(0.5).unwrap())?;
            }
        }
    }

    fn sample() -> Tuple {
        Tuple::new(
            vec![
                Value::text("Ann"),
                Value::number(24.0),
                Value::fuzzy(Trapezoid::new(20.0, 25.0, 30.0, 35.0).unwrap()),
                Value::Null,
            ],
            Degree::new(0.8).unwrap(),
        )
    }

    #[test]
    fn roundtrip() {
        let t = sample();
        let bytes = t.encode(0);
        let back = Tuple::decode(&bytes).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn encoded_len_is_the_unpadded_record_length() {
        let text = Tuple::full(vec![Value::text("héllo"), Value::Null, Value::number(1.0)]);
        for t in [sample(), text, Tuple::full(vec![])] {
            assert_eq!(t.encoded_len(), t.encode(0).len(), "{t:?}");
        }
    }

    #[test]
    fn padding_controls_record_size() {
        let t = sample();
        let bytes = t.encode(128);
        assert_eq!(bytes.len(), 128);
        let back = Tuple::decode(&bytes).unwrap();
        assert_eq!(back, t);
        // Unpadded record is smaller.
        assert!(t.encode(0).len() < 128);
    }

    #[test]
    fn crisp_vs_fuzzy_size_asymmetry() {
        let crisp = Tuple::full(vec![Value::number(42.0)]);
        let fuzzy =
            Tuple::full(vec![Value::fuzzy(Trapezoid::new(40.0, 41.0, 43.0, 44.0).unwrap())]);
        assert!(fuzzy.encode(0).len() > crisp.encode(0).len() + 20);
    }

    #[test]
    fn decode_value_at_skips_correctly() {
        let t = sample();
        let bytes = t.encode(64);
        for (i, expect) in t.values.iter().enumerate() {
            assert_eq!(&decode_value_at(&bytes, i).unwrap(), expect);
            let key = Tuple::order_key_at(&bytes, i, Degree::ZERO).unwrap();
            assert!(same_key(&key, &OrderKey::at(expect, Degree::ZERO)));
        }
        assert!(decode_value_at(&bytes, 4).is_err());
        assert!(Tuple::order_key_at(&bytes, 4, Degree::ZERO).is_err());
    }

    #[test]
    fn corrupt_records_rejected() {
        assert!(Tuple::decode(&[]).is_err());
        let mut bytes = sample().encode(0);
        bytes[10] = 99; // clobber a tag
        assert!(Tuple::decode(&bytes).is_err() || Tuple::decode(&bytes).is_ok());
        // A degree outside [0,1] is rejected.
        let mut w = ByteWriter::new();
        w.put_f64(1.5);
        w.put_u16(0);
        assert!(Tuple::decode(&w.into_bytes()).is_err());
    }

    #[test]
    fn display() {
        let t = sample();
        let s = t.to_string();
        assert!(s.contains("Ann"));
        assert!(s.contains("D=0.8"));
    }
}
