//! Offline stand-in for the [`serde`](https://serde.rs) facade.
//!
//! Unlike the real serde's visitor architecture, this shim is a direct
//! binary (de)serializer: [`Serialize`] appends to a byte buffer,
//! [`Deserialize`] reads back from a [`Reader`], and the derive macros in
//! `serde_derive` generate field-by-field impls. The format is private to
//! this workspace (only round-trip tests use it) and is **deterministic by
//! construction**: struct fields serialize in declaration order, enum
//! variants carry their declaration index as a varint tag, and hash maps
//! sort their entries by key before writing — so equal values always
//! produce equal bytes.
//!
//! Encoding: unsigned integers are LEB128 varints; signed integers are
//! zigzag varints; `f64`/`f32` are little-endian IEEE bits; `bool` is one
//! byte (0/1); strings and sequences are a varint length followed by
//! their contents; `Option` is a 0/1 tag byte.
//!
//! Failures surface as typed [`Error`]s, never panics: a truncated or
//! bit-flipped input yields `UnexpectedEof` / `InvalidTag` /
//! `InvalidUtf8`. Swapping in the real serde remains a manifest change plus a
//! re-export shuffle.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use serde_derive::{Deserialize, Serialize};

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::fmt;
use std::hash::{BuildHasher, Hash};

/// Typed (de)serialization failure. Deserializing attacker- or
/// bit-rot-controlled bytes must fail loudly but recoverably; every
/// variant identifies what the decoder expected and what it found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// The input ended before the value did.
    UnexpectedEof {
        /// Bytes the decoder needed.
        needed: usize,
        /// Bytes that were actually left.
        available: usize,
    },
    /// [`from_bytes`] decoded a complete value with input left over.
    TrailingBytes {
        /// Unconsumed byte count.
        count: usize,
    },
    /// An enum/option/bool tag was out of range for the type.
    InvalidTag {
        /// Type being decoded (e.g. `"FuType"`).
        ty: &'static str,
        /// The offending tag value.
        tag: u64,
    },
    /// A string's bytes were not valid UTF-8.
    InvalidUtf8,
    /// A LEB128 varint ran past 10 bytes (no valid `u64` does).
    VarintOverflow,
    /// A fixed-size array's encoded length disagreed with the type.
    InvalidLen {
        /// Length the type requires.
        expected: usize,
        /// Length found in the input.
        found: usize,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::UnexpectedEof { needed, available } => {
                write!(f, "unexpected end of input: needed {needed} bytes, {available} left")
            }
            Error::TrailingBytes { count } => {
                write!(f, "{count} trailing bytes after a complete value")
            }
            Error::InvalidTag { ty, tag } => write!(f, "invalid tag {tag} for {ty}"),
            Error::InvalidUtf8 => write!(f, "string bytes are not valid UTF-8"),
            Error::VarintOverflow => write!(f, "varint longer than 10 bytes"),
            Error::InvalidLen { expected, found } => {
                write!(f, "length mismatch: expected {expected}, found {found}")
            }
        }
    }
}

impl std::error::Error for Error {}

/// A cursor over the bytes being deserialized.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Wraps `buf` with the cursor at the start.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Consumes and returns the next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], Error> {
        if self.remaining() < n {
            return Err(Error::UnexpectedEof { needed: n, available: self.remaining() });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Consumes one byte.
    pub fn take_u8(&mut self) -> Result<u8, Error> {
        Ok(self.take(1)?[0])
    }
}

/// Appends `v` as a LEB128 varint.
pub fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Reads a LEB128 varint.
pub fn read_varint(r: &mut Reader<'_>) -> Result<u64, Error> {
    // Single-byte fast path: values below 128 dominate real artifacts
    // (stream deltas, small ids, lengths), and skipping the loop setup
    // and bounds re-checks is a measurable win on multi-MB inputs.
    if let Some(&b) = r.buf.get(r.pos) {
        if b < 0x80 {
            r.pos += 1;
            return Ok(u64::from(b));
        }
    }
    let mut v = 0u64;
    for shift in (0..64).step_by(7) {
        let byte = r.take_u8()?;
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
    }
    Err(Error::VarintOverflow)
}

/// Value → deterministic bytes (append-based; see the module docs for
/// the format).
pub trait Serialize {
    /// Appends this value's encoding to `out`.
    fn serialize(&self, out: &mut Vec<u8>);
}

/// Bytes → value, consuming from a [`Reader`].
pub trait Deserialize: Sized {
    /// Decodes one value, advancing the reader past it.
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error>;
}

/// Serializes `value` to a fresh byte vector.
pub fn to_bytes<T: Serialize + ?Sized>(value: &T) -> Vec<u8> {
    let mut out = Vec::new();
    value.serialize(&mut out);
    out
}

/// Deserializes exactly one `T` from `bytes`; trailing input is an error
/// (the input holds one value, nothing else).
pub fn from_bytes<T: Deserialize>(bytes: &[u8]) -> Result<T, Error> {
    let mut r = Reader::new(bytes);
    let value = T::deserialize(&mut r)?;
    if r.remaining() != 0 {
        return Err(Error::TrailingBytes { count: r.remaining() });
    }
    Ok(value)
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize(&self, out: &mut Vec<u8>) {
        (**self).serialize(out);
    }
}

macro_rules! impl_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self, out: &mut Vec<u8>) {
                write_varint(out, *self as u64);
            }
        }
        impl Deserialize for $t {
            fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
                let v = read_varint(r)?;
                <$t>::try_from(v).map_err(|_| Error::InvalidTag { ty: stringify!($t), tag: v })
            }
        }
    )*};
}
impl_unsigned!(u8, u16, u32, u64, usize);

macro_rules! impl_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self, out: &mut Vec<u8>) {
                // Zigzag: small magnitudes of either sign stay small.
                let v = *self as i64;
                write_varint(out, ((v << 1) ^ (v >> 63)) as u64);
            }
        }
        impl Deserialize for $t {
            fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
                let z = read_varint(r)?;
                let v = ((z >> 1) as i64) ^ -((z & 1) as i64);
                <$t>::try_from(v).map_err(|_| Error::InvalidTag { ty: stringify!($t), tag: z })
            }
        }
    )*};
}
impl_signed!(i8, i16, i32, i64, isize);

impl Serialize for bool {
    fn serialize(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
}
impl Deserialize for bool {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        match r.take_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(Error::InvalidTag { ty: "bool", tag: u64::from(b) }),
        }
    }
}

impl Serialize for f64 {
    fn serialize(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_bits().to_le_bytes());
    }
}
impl Deserialize for f64 {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        let b = r.take(8)?;
        Ok(f64::from_bits(u64::from_le_bytes(b.try_into().expect("8 bytes"))))
    }
}

impl Serialize for f32 {
    fn serialize(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_bits().to_le_bytes());
    }
}
impl Deserialize for f32 {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        let b = r.take(4)?;
        Ok(f32::from_bits(u32::from_le_bytes(b.try_into().expect("4 bytes"))))
    }
}

impl Serialize for str {
    fn serialize(&self, out: &mut Vec<u8>) {
        write_varint(out, self.len() as u64);
        out.extend_from_slice(self.as_bytes());
    }
}

impl Serialize for String {
    fn serialize(&self, out: &mut Vec<u8>) {
        self.as_str().serialize(out);
    }
}
impl Deserialize for String {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        let len = read_varint(r)? as usize;
        let bytes = r.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| Error::InvalidUtf8)
    }
}

impl Deserialize for &'static str {
    /// Decodes by leaking a `String`. Only interned-by-design fields use
    /// this (benchmark names: a handful of short strings per process);
    /// do not deserialize unbounded streams of `&'static str`.
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        let s = String::deserialize(r)?;
        Ok(Box::leak(s.into_boxed_str()))
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.serialize(out);
            }
        }
    }
}
impl<T: Deserialize> Deserialize for Option<T> {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        match r.take_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::deserialize(r)?)),
            b => Err(Error::InvalidTag { ty: "Option", tag: u64::from(b) }),
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize(&self, out: &mut Vec<u8>) {
        write_varint(out, self.len() as u64);
        for item in self {
            item.serialize(out);
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize(&self, out: &mut Vec<u8>) {
        self.as_slice().serialize(out);
    }
}
impl<T: Deserialize> Deserialize for Vec<T> {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        let len = read_varint(r)? as usize;
        // A corrupted length must not trigger a huge allocation: cap the
        // reservation by the bytes actually present (each element costs
        // at least one byte in this format for the types we store).
        let mut v = Vec::with_capacity(len.min(r.remaining()));
        for _ in 0..len {
            v.push(T::deserialize(r)?);
        }
        Ok(v)
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn serialize(&self, out: &mut Vec<u8>) {
        // No length prefix: the type fixes it.
        for item in self {
            item.serialize(out);
        }
    }
}
impl<T: Deserialize, const N: usize> Deserialize for [T; N] {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        let mut v = Vec::with_capacity(N);
        for _ in 0..N {
            v.push(T::deserialize(r)?);
        }
        v.try_into().map_err(|v: Vec<T>| Error::InvalidLen { expected: N, found: v.len() })
    }
}

macro_rules! impl_tuple {
    ($(($($n:tt $t:ident),+),)*) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn serialize(&self, out: &mut Vec<u8>) {
                $(self.$n.serialize(out);)+
            }
        }
        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
                Ok(($($t::deserialize(r)?,)+))
            }
        }
    )*};
}
impl_tuple! {
    (0 A),
    (0 A, 1 B),
    (0 A, 1 B, 2 C),
    (0 A, 1 B, 2 C, 3 D),
}

impl<K: Serialize + Ord, V: Serialize> Serialize for BTreeMap<K, V> {
    fn serialize(&self, out: &mut Vec<u8>) {
        write_varint(out, self.len() as u64);
        for (k, v) in self {
            k.serialize(out);
            v.serialize(out);
        }
    }
}
impl<K: Deserialize + Ord, V: Deserialize> Deserialize for BTreeMap<K, V> {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        let len = read_varint(r)? as usize;
        let mut m = BTreeMap::new();
        for _ in 0..len {
            let k = K::deserialize(r)?;
            let v = V::deserialize(r)?;
            m.insert(k, v);
        }
        Ok(m)
    }
}

impl<T: Serialize + Ord> Serialize for BTreeSet<T> {
    fn serialize(&self, out: &mut Vec<u8>) {
        write_varint(out, self.len() as u64);
        for item in self {
            item.serialize(out);
        }
    }
}
impl<T: Deserialize + Ord> Deserialize for BTreeSet<T> {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        let len = read_varint(r)? as usize;
        let mut s = BTreeSet::new();
        for _ in 0..len {
            s.insert(T::deserialize(r)?);
        }
        Ok(s)
    }
}

impl<K: Serialize + Ord, V: Serialize, S> Serialize for HashMap<K, V, S> {
    /// Entries are written **sorted by key** so equal maps produce equal
    /// bytes regardless of hash-iteration order — required both for
    /// content addressing and for PR 5's byte-identical determinism.
    fn serialize(&self, out: &mut Vec<u8>) {
        let mut entries: Vec<(&K, &V)> = self.iter().collect();
        entries.sort_by(|a, b| a.0.cmp(b.0));
        write_varint(out, entries.len() as u64);
        for (k, v) in entries {
            k.serialize(out);
            v.serialize(out);
        }
    }
}
impl<K, V, S> Deserialize for HashMap<K, V, S>
where
    K: Deserialize + Eq + Hash,
    V: Deserialize,
    S: BuildHasher + Default,
{
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        let len = read_varint(r)? as usize;
        let mut m = HashMap::with_capacity_and_hasher(len.min(r.remaining()), S::default());
        for _ in 0..len {
            let k = K::deserialize(r)?;
            let v = V::deserialize(r)?;
            m.insert(k, v);
        }
        Ok(m)
    }
}

impl<T: Serialize + Ord, S> Serialize for HashSet<T, S> {
    /// Sorted like [`HashMap`], for the same determinism reasons.
    fn serialize(&self, out: &mut Vec<u8>) {
        let mut items: Vec<&T> = self.iter().collect();
        items.sort();
        write_varint(out, items.len() as u64);
        for item in items {
            item.serialize(out);
        }
    }
}
impl<T, S> Deserialize for HashSet<T, S>
where
    T: Deserialize + Eq + Hash,
    S: BuildHasher + Default,
{
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        let len = read_varint(r)? as usize;
        let mut s = HashSet::with_capacity_and_hasher(len.min(r.remaining()), S::default());
        for _ in 0..len {
            s.insert(T::deserialize(r)?);
        }
        Ok(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[allow(clippy::needless_pass_by_value)] // by-value keeps call sites literal
    fn round_trip<T: Serialize + Deserialize + PartialEq + fmt::Debug>(v: T) {
        let bytes = to_bytes(&v);
        assert_eq!(from_bytes::<T>(&bytes).unwrap(), v);
    }

    #[test]
    fn primitives_round_trip() {
        round_trip(0u64);
        round_trip(u64::MAX);
        round_trip(300usize);
        round_trip(-1i64);
        round_trip(i64::MIN);
        round_trip(true);
        round_trip(3.25f64);
        round_trip(f64::NEG_INFINITY);
        round_trip(String::from("κλῶνος"));
        round_trip(Some(vec![1u32, 2, 3]));
        round_trip(Option::<u8>::None);
        round_trip([7u64, 8, 9, 10]);
        round_trip((1u32, String::from("x"), vec![false, true]));
    }

    #[test]
    fn varint_is_compact_and_canonical() {
        assert_eq!(to_bytes(&0u64), [0]);
        assert_eq!(to_bytes(&127u64), [127]);
        assert_eq!(to_bytes(&128u64), [0x80, 1]);
        assert_eq!(to_bytes(&u64::MAX).len(), 10);
    }

    #[test]
    fn hashmap_bytes_are_sorted_deterministic() {
        let mut m = HashMap::new();
        for k in (0u32..100).rev() {
            m.insert(k, k * 2);
        }
        let a = to_bytes(&m);
        let b = to_bytes(&m.clone());
        assert_eq!(a, b);
        // Sorted by key: the map encodes identically to its BTreeMap twin.
        let bt: BTreeMap<u32, u32> = m.iter().map(|(k, v)| (*k, *v)).collect();
        assert_eq!(a, to_bytes(&bt));
        round_trip(m);
    }

    #[test]
    fn truncation_is_a_typed_error_not_a_panic() {
        let bytes = to_bytes(&vec![1u64, 2, 3]);
        for cut in 0..bytes.len() {
            let err = from_bytes::<Vec<u64>>(&bytes[..cut]).unwrap_err();
            assert!(matches!(err, Error::UnexpectedEof { .. }), "cut at {cut}: {err}");
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = to_bytes(&7u64);
        bytes.push(0);
        assert_eq!(from_bytes::<u64>(&bytes), Err(Error::TrailingBytes { count: 1 }));
    }

    #[test]
    fn corrupt_length_does_not_overallocate() {
        // A length claiming 2^60 elements with 2 bytes of input must fail
        // with EOF, not attempt a capacity reservation.
        let mut bytes = Vec::new();
        write_varint(&mut bytes, 1u64 << 60);
        bytes.push(0);
        assert!(matches!(from_bytes::<Vec<u64>>(&bytes), Err(Error::UnexpectedEof { .. })));
    }

    #[test]
    fn invalid_tags_are_typed() {
        assert_eq!(from_bytes::<bool>(&[2]), Err(Error::InvalidTag { ty: "bool", tag: 2 }));
        assert_eq!(from_bytes::<Option<u8>>(&[9]), Err(Error::InvalidTag { ty: "Option", tag: 9 }));
        assert!(matches!(from_bytes::<u8>(&to_bytes(&300u64)), Err(Error::InvalidTag { .. })));
    }

    #[test]
    fn utf8_guard() {
        let bytes = vec![2, 0xff, 0xfe];
        assert_eq!(from_bytes::<String>(&bytes), Err(Error::InvalidUtf8));
    }
}
