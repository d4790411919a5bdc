//! A compact, dependency-free binary codec for the T_Chimera model types.
//!
//! Integers are LEB128 varints (zig-zag for signed), strings are
//! length-prefixed UTF-8, and every composite type carries a one-byte tag.
//! The codec is the wire format of the operation log (`crate::log`) and is
//! fully round-trip tested (including property tests over random values).
//!
//! Decoding produces the model's own types, validated: a history comes
//! back as a canonical [`TemporalValue`], an attribute record as a map
//! whose names arrived strictly ascending. Class, attribute and method
//! names are interned per [`Reader`], so an image that names `salary`
//! twenty thousand times allocates it once.

use std::collections::HashMap;
use std::fmt;

use tchimera_core::{
    AttrDecl, AttrName, Attrs, ClassDef, ClassId, Instant, Interval, Lifespan, MethodName,
    MethodSig, Oid, Symbol, TemporalEntry, TemporalValue, TimeBound, Type, Value, MAX_NESTING,
};

/// Errors raised while decoding.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum CodecError {
    /// Input ended mid-value.
    UnexpectedEof,
    /// An unknown tag byte for the given type.
    InvalidTag {
        /// What was being decoded.
        what: &'static str,
        /// The offending tag.
        tag: u8,
    },
    /// A string field held invalid UTF-8.
    InvalidUtf8,
    /// A varint exceeded 64 bits.
    VarintOverflow,
    /// A decoded structure violated an internal invariant (e.g. an
    /// ill-formed history).
    Corrupt(&'static str),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::UnexpectedEof => write!(f, "unexpected end of input"),
            CodecError::InvalidTag { what, tag } => {
                write!(f, "invalid tag {tag:#04x} while decoding {what}")
            }
            CodecError::InvalidUtf8 => write!(f, "invalid UTF-8 in string"),
            CodecError::VarintOverflow => write!(f, "varint exceeds 64 bits"),
            CodecError::Corrupt(what) => write!(f, "corrupt {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// A byte-slice cursor for decoding.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    /// Names already decoded from this reader's input.
    names: HashMap<&'a str, Symbol>,
    /// Types or values being decoded around the current one.
    depth: usize,
}

impl<'a> Reader<'a> {
    /// Wrap a byte slice.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader {
            buf,
            pos: 0,
            names: HashMap::new(),
            depth: 0,
        }
    }

    /// Continue with `buf`, another piece of the same input (the next
    /// record of a log): names interned so far stay interned.
    pub(crate) fn restart(&mut self, buf: &'a [u8]) {
        self.buf = buf;
        self.pos = 0;
        self.depth = 0;
    }

    /// Decode one level of a type or value with `f`: input nesting more
    /// than [`MAX_NESTING`] levels is corrupt — the model never stores
    /// one — and is refused before it can exhaust the stack.
    fn nested<T>(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<T, CodecError>,
    ) -> Result<T, CodecError> {
        if self.depth == MAX_NESTING {
            return Err(CodecError::Corrupt("nesting depth"));
        }
        self.depth += 1;
        let out = f(self);
        self.depth -= 1;
        out
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// `true` when all input is consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    pub(crate) fn byte(&mut self) -> Result<u8, CodecError> {
        let b = *self.buf.get(self.pos).ok_or(CodecError::UnexpectedEof)?;
        self.pos += 1;
        Ok(b)
    }

    /// The next `n` bytes, borrowed from the input.
    pub(crate) fn bytes(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::UnexpectedEof);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// A length-prefixed UTF-8 string, borrowed from the input.
    fn str(&mut self) -> Result<&'a str, CodecError> {
        let n = read_u64(self)? as usize;
        std::str::from_utf8(self.bytes(n)?).map_err(|_| CodecError::InvalidUtf8)
    }

    /// A length-prefixed name: one shared [`Symbol`] per distinct name
    /// in this reader's input.
    fn name(&mut self) -> Result<Symbol, CodecError> {
        let name = self.str()?;
        Ok((self.names.entry(name))
            .or_insert_with(|| Symbol::from(name))
            .clone())
    }
}

/// Things that can be written to and read back from the binary format.
pub trait Codec: Sized {
    /// Append the encoding of `self` to `out`.
    fn encode(&self, out: &mut Vec<u8>);
    /// Decode a value from the reader.
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError>;

    /// Encode into a fresh buffer.
    fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode(&mut out);
        out
    }

    /// Decode from a complete buffer, requiring full consumption.
    fn from_bytes(buf: &[u8]) -> Result<Self, CodecError> {
        let mut r = Reader::new(buf);
        let v = Self::decode(&mut r)?;
        if !r.is_empty() {
            return Err(CodecError::Corrupt("trailing bytes"));
        }
        Ok(v)
    }
}

// ---------------------------------------------------------------------
// Primitives
// ---------------------------------------------------------------------

pub(crate) fn write_u64(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let b = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(b);
            return;
        }
        out.push(b | 0x80);
    }
}

pub(crate) fn read_u64(r: &mut Reader<'_>) -> Result<u64, CodecError> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let b = r.byte()?;
        // The tenth byte has room for bit 63 alone: a higher bit, or a
        // continuation, does not fit in 64 bits.
        if shift == 63 && b > 1 {
            return Err(CodecError::VarintOverflow);
        }
        v |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

fn write_str(out: &mut Vec<u8>, s: &str) {
    write_u64(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

impl Codec for u64 {
    fn encode(&self, out: &mut Vec<u8>) {
        write_u64(out, *self);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        read_u64(r)
    }
}

impl Codec for () {
    fn encode(&self, _out: &mut Vec<u8>) {}
    fn decode(_r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(())
    }
}

impl Codec for u32 {
    fn encode(&self, out: &mut Vec<u8>) {
        write_u64(out, u64::from(*self));
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        u32::try_from(read_u64(r)?).map_err(|_| CodecError::Corrupt("u32 range"))
    }
}

impl Codec for i64 {
    fn encode(&self, out: &mut Vec<u8>) {
        write_u64(out, zigzag(*self));
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(unzigzag(read_u64(r)?))
    }
}

impl Codec for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.byte()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(CodecError::InvalidTag { what: "bool", tag }),
        }
    }
}

impl Codec for f64 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_bits().to_le_bytes());
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let b = r.bytes(8)?;
        Ok(f64::from_bits(u64::from_le_bytes(b.try_into().unwrap())))
    }
}

impl Codec for String {
    fn encode(&self, out: &mut Vec<u8>) {
        write_str(out, self);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        r.str().map(str::to_owned)
    }
}

impl Codec for char {
    fn encode(&self, out: &mut Vec<u8>) {
        write_u64(out, u64::from(u32::from(*self)));
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let v = read_u64(r)?;
        u32::try_from(v)
            .ok()
            .and_then(char::from_u32)
            .ok_or(CodecError::Corrupt("char"))
    }
}

impl<T: Codec> Codec for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        write_u64(out, self.len() as u64);
        for x in self {
            x.encode(out);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let n = read_u64(r)? as usize;
        // Guard against absurd lengths from corrupt input.
        if n > r.remaining() {
            return Err(CodecError::Corrupt("length prefix"));
        }
        let mut v = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            v.push(T::decode(r)?);
        }
        Ok(v)
    }
}

impl<A: Codec, B: Codec> Codec for (A, B) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

impl<T: Codec> Codec for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(x) => {
                out.push(1);
                x.encode(out);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.byte()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            tag => Err(CodecError::InvalidTag { what: "option", tag }),
        }
    }
}

// ---------------------------------------------------------------------
// Temporal primitives
// ---------------------------------------------------------------------

impl Codec for Instant {
    fn encode(&self, out: &mut Vec<u8>) {
        write_u64(out, self.ticks());
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Instant(read_u64(r)?))
    }
}

impl Codec for TimeBound {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            TimeBound::Now => out.push(0),
            TimeBound::Fixed(t) => {
                out.push(1);
                t.encode(out);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.byte()? {
            0 => Ok(TimeBound::Now),
            1 => Ok(TimeBound::Fixed(Instant::decode(r)?)),
            tag => Err(CodecError::InvalidTag { what: "time bound", tag }),
        }
    }
}

impl Codec for Interval {
    fn encode(&self, out: &mut Vec<u8>) {
        match (self.lo(), self.hi()) {
            (Some(lo), Some(hi)) => {
                out.push(1);
                lo.encode(out);
                hi.encode(out);
            }
            _ => out.push(0),
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.byte()? {
            0 => Ok(Interval::EMPTY),
            1 => {
                let lo = Instant::decode(r)?;
                let hi = Instant::decode(r)?;
                Ok(Interval::new(lo, hi))
            }
            tag => Err(CodecError::InvalidTag { what: "interval", tag }),
        }
    }
}

impl Codec for Lifespan {
    fn encode(&self, out: &mut Vec<u8>) {
        self.start().encode(out);
        self.end().encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let start = Instant::decode(r)?;
        match TimeBound::decode(r)? {
            TimeBound::Now => Ok(Lifespan::starting_at(start)),
            TimeBound::Fixed(end) => {
                Lifespan::closed(start, end).ok_or(CodecError::Corrupt("lifespan"))
            }
        }
    }
}

impl Codec for Oid {
    fn encode(&self, out: &mut Vec<u8>) {
        write_u64(out, self.0);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Oid(read_u64(r)?))
    }
}

macro_rules! name_codec {
    ($ty:ident) => {
        impl Codec for $ty {
            fn encode(&self, out: &mut Vec<u8>) {
                write_str(out, self.as_str());
            }
            fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
                r.name().map($ty)
            }
        }
    };
}

name_codec!(ClassId);
name_codec!(AttrName);
name_codec!(MethodName);

// ---------------------------------------------------------------------
// Types and values
// ---------------------------------------------------------------------

impl Codec for Type {
    fn encode(&self, out: &mut Vec<u8>) {
        use tchimera_core::BasicType as B;
        match self {
            Type::Time => out.push(0),
            Type::Basic(b) => {
                out.push(1);
                out.push(match b {
                    B::Integer => 0,
                    B::Real => 1,
                    B::Bool => 2,
                    B::Character => 3,
                    B::String => 4,
                });
            }
            Type::Object(c) => {
                out.push(2);
                c.encode(out);
            }
            Type::Set(t) => {
                out.push(3);
                t.encode(out);
            }
            Type::List(t) => {
                out.push(4);
                t.encode(out);
            }
            Type::Record(fs) => {
                out.push(5);
                fs.encode(out);
            }
            Type::Temporal(t) => {
                out.push(6);
                t.encode(out);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        use tchimera_core::BasicType as B;
        r.nested(|r| Ok(match r.byte()? {
            0 => Type::Time,
            1 => Type::Basic(match r.byte()? {
                0 => B::Integer,
                1 => B::Real,
                2 => B::Bool,
                3 => B::Character,
                4 => B::String,
                tag => return Err(CodecError::InvalidTag { what: "basic type", tag }),
            }),
            2 => Type::Object(ClassId::decode(r)?),
            3 => Type::set_of(Type::decode(r)?),
            4 => Type::list_of(Type::decode(r)?),
            5 => Type::Record(decode_fields(r)?),
            6 => Type::temporal(Type::decode(r)?),
            tag => return Err(CodecError::InvalidTag { what: "type", tag }),
        }))
    }
}

/// A history is its runs in order, each `start, end, value`. Decoding
/// validates (runs disjoint, only the last one open) and canonicalizes,
/// so whatever comes back satisfies the invariants of [`TemporalValue`].
impl<V: Codec + Clone + Eq> Codec for TemporalValue<V> {
    fn encode(&self, out: &mut Vec<u8>) {
        write_u64(out, self.entries().len() as u64);
        for e in self.entries() {
            e.start.encode(out);
            e.end.encode(out);
            e.value.encode(out);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let n = read_u64(r)? as usize;
        let mut entries = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            let start = Instant::decode(r)?;
            let end = TimeBound::decode(r)?;
            let value = V::decode(r)?;
            entries.push(TemporalEntry { start, end, value });
        }
        TemporalValue::from_entries(entries).map_err(|_| CodecError::Corrupt("history"))
    }
}

impl Codec for Value {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Value::Null => out.push(0),
            Value::Int(v) => {
                out.push(1);
                v.encode(out);
            }
            Value::Real(v) => {
                out.push(2);
                v.encode(out);
            }
            Value::Bool(v) => {
                out.push(3);
                v.encode(out);
            }
            Value::Char(v) => {
                out.push(4);
                v.encode(out);
            }
            Value::Str(v) => {
                out.push(5);
                v.encode(out);
            }
            Value::Time(v) => {
                out.push(6);
                v.encode(out);
            }
            Value::Oid(v) => {
                out.push(7);
                v.encode(out);
            }
            Value::Set(xs) => {
                out.push(8);
                xs.encode(out);
            }
            Value::List(xs) => {
                out.push(9);
                xs.encode(out);
            }
            Value::Record(fs) => {
                out.push(10);
                fs.encode(out);
            }
            Value::Temporal(h) => {
                out.push(11);
                h.encode(out);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        r.nested(|r| Ok(match r.byte()? {
            0 => Value::Null,
            1 => Value::Int(i64::decode(r)?),
            2 => Value::Real(f64::decode(r)?),
            3 => Value::Bool(bool::decode(r)?),
            4 => Value::Char(char::decode(r)?),
            5 => Value::Str(String::decode(r)?),
            6 => Value::Time(Instant::decode(r)?),
            7 => Value::Oid(Oid::decode(r)?),
            8 => Value::set(Vec::<Value>::decode(r)?),
            9 => Value::List(Vec::<Value>::decode(r)?),
            10 => Value::Record(decode_fields(r)?),
            11 => Value::Temporal(TemporalValue::decode(r)?),
            tag => return Err(CodecError::InvalidTag { what: "value", tag }),
        }))
    }
}

// ---------------------------------------------------------------------
// Schema structures
// ---------------------------------------------------------------------

impl Codec for AttrDecl {
    fn encode(&self, out: &mut Vec<u8>) {
        self.name.encode(out);
        self.ty.encode(out);
        self.immutable.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let name = AttrName::decode(r)?;
        let ty = Type::decode(r)?;
        let immutable = bool::decode(r)?;
        Ok(AttrDecl { name, ty, immutable })
    }
}

impl Codec for MethodSig {
    fn encode(&self, out: &mut Vec<u8>) {
        self.inputs.encode(out);
        self.output.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let inputs = Vec::<Type>::decode(r)?;
        let output = Type::decode(r)?;
        Ok(MethodSig { inputs, output })
    }
}

impl Codec for ClassDef {
    fn encode(&self, out: &mut Vec<u8>) {
        self.name.encode(out);
        self.superclasses.encode(out);
        self.attrs.encode(out);
        self.methods.encode(out);
        self.c_attrs.encode(out);
        self.c_methods.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(ClassDef {
            name: ClassId::decode(r)?,
            superclasses: Vec::<ClassId>::decode(r)?,
            attrs: Vec::<AttrDecl>::decode(r)?,
            methods: Vec::<(MethodName, MethodSig)>::decode(r)?,
            c_attrs: Vec::<AttrDecl>::decode(r)?,
            c_methods: Vec::<(MethodName, MethodSig)>::decode(r)?,
        })
    }
}

/// Encode an attribute-binding map.
pub(crate) fn encode_attrs(attrs: &Attrs, out: &mut Vec<u8>) {
    write_u64(out, attrs.len() as u64);
    for (n, v) in attrs {
        n.encode(out);
        v.encode(out);
    }
}

/// Decode an attribute-binding map.
pub(crate) fn decode_attrs(r: &mut Reader<'_>) -> Result<Attrs, CodecError> {
    Ok(decode_fields(r)?.into_iter().collect())
}

/// Decode `name, item` pairs — a record type, a record value, an
/// attribute map. The encoder writes each in name order, so names that do
/// not arrive strictly ascending (a duplicate included) encode nothing
/// the model can hold.
fn decode_fields<T: Codec>(r: &mut Reader<'_>) -> Result<Vec<(AttrName, T)>, CodecError> {
    let fields = Vec::<(AttrName, T)>::decode(r)?;
    if fields.windows(2).any(|w| w[0].0 >= w[1].0) {
        return Err(CodecError::Corrupt("field names out of order"));
    }
    Ok(fields)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Codec + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = v.to_bytes();
        let back = T::from_bytes(&bytes).expect("decode");
        assert_eq!(v, back);
    }

    #[test]
    fn primitives() {
        round_trip(0u64);
        round_trip(u64::MAX);
        round_trip(127u64);
        round_trip(128u64);
        round_trip(-1i64);
        round_trip(i64::MIN);
        round_trip(i64::MAX);
        round_trip(true);
        round_trip(false);
        round_trip(3.25f64);
        round_trip(f64::NEG_INFINITY);
        round_trip(String::from("héllo"));
        round_trip(String::new());
        round_trip('→');
        round_trip(vec![1u64, 2, 3]);
        round_trip(Option::<u64>::None);
        round_trip(Some(9u64));
        round_trip((5u64, String::from("x")));
    }

    #[test]
    fn nan_round_trips_bitwise() {
        let v = f64::NAN;
        let back = f64::from_bytes(&v.to_bytes()).unwrap();
        assert_eq!(v.to_bits(), back.to_bits());
    }

    #[test]
    fn temporal_primitives() {
        round_trip(Instant(42));
        round_trip(TimeBound::Now);
        round_trip(TimeBound::Fixed(Instant(7)));
        round_trip(Interval::from_ticks(3, 9));
        round_trip(Interval::EMPTY);
        round_trip(Lifespan::starting_at(Instant(4)));
        round_trip(Lifespan::closed(Instant(4), Instant(9)).unwrap());
        // An inverted lifespan is rejected, not constructed.
        let mut bad = Vec::new();
        Instant(9).encode(&mut bad);
        TimeBound::Fixed(Instant(4)).encode(&mut bad);
        assert!(Lifespan::from_bytes(&bad).is_err());
        round_trip(Oid(123));
        round_trip(ClassId::from("project"));
        round_trip(AttrName::from("salary"));
        round_trip(MethodName::from("raise"));
    }

    #[test]
    fn types() {
        round_trip(Type::Time);
        round_trip(Type::INTEGER);
        round_trip(Type::REAL);
        round_trip(Type::BOOL);
        round_trip(Type::CHARACTER);
        round_trip(Type::STRING);
        round_trip(Type::object("person"));
        round_trip(Type::set_of(Type::temporal(Type::object("project"))));
        round_trip(Type::record_of([
            ("a", Type::INTEGER),
            ("b", Type::list_of(Type::STRING)),
        ]));
    }

    #[test]
    fn values() {
        round_trip(Value::Null);
        round_trip(Value::Int(-5));
        round_trip(Value::Real(2.5));
        round_trip(Value::Bool(true));
        round_trip(Value::Char('ß'));
        round_trip(Value::str("Bob"));
        round_trip(Value::Time(Instant(9)));
        round_trip(Value::Oid(Oid(4)));
        round_trip(Value::set([Value::Int(1), Value::Int(2)]));
        round_trip(Value::list([Value::str("a"), Value::Null]));
        round_trip(Value::record([("x", Value::Int(1))]));
        let mut h = TemporalValue::new();
        h.set_from(Instant(5), Value::Int(1)).unwrap();
        h.set_from(Instant(9), Value::Int(2)).unwrap();
        round_trip(Value::Temporal(h));
    }

    #[test]
    fn schema_structures() {
        round_trip(AttrDecl::immutable("name", Type::temporal(Type::STRING)));
        round_trip(MethodSig::new([Type::INTEGER], Type::object("person")));
        let def = ClassDef::new("manager")
            .isa("employee")
            .attr("dependents", Type::set_of(Type::object("person")))
            .method("promote", [Type::INTEGER], Type::BOOL)
            .c_attr("count", Type::temporal(Type::INTEGER));
        let bytes = def.to_bytes();
        let back = ClassDef::from_bytes(&bytes).unwrap();
        assert_eq!(back.name, def.name);
        assert_eq!(back.superclasses, def.superclasses);
        assert_eq!(back.attrs, def.attrs);
        assert_eq!(back.methods, def.methods);
        assert_eq!(back.c_attrs, def.c_attrs);
    }

    #[test]
    fn corrupt_input_is_rejected_not_panicking() {
        assert!(Value::from_bytes(&[]).is_err());
        assert!(Value::from_bytes(&[99]).is_err());
        assert!(Type::from_bytes(&[5, 0xff, 0xff, 0xff, 0xff, 0xff]).is_err());
        assert!(String::from_bytes(&[2, 0xff, 0xfe]).is_err());
        // Truncated payloads.
        let full = Value::set([Value::Int(1), Value::Int(2)]).to_bytes();
        for cut in 0..full.len() {
            assert!(Value::from_bytes(&full[..cut]).is_err());
        }
        // Trailing garbage.
        let mut padded = Value::Int(1).to_bytes();
        padded.push(0);
        assert!(Value::from_bytes(&padded).is_err());
    }

    #[test]
    fn varint_boundaries() {
        for v in [0u64, 1, 127, 128, 16383, 16384, u64::MAX - 1, u64::MAX] {
            round_trip(v);
        }
        // Overflowing varint (11 continuation bytes).
        let overflow = vec![0xffu8; 11];
        let mut r = Reader::new(&overflow);
        assert_eq!(read_u64(&mut r), Err(CodecError::VarintOverflow));
        // The tenth byte carries bit 63 and nothing else: the canonical
        // `u64::MAX` ends in 0x01; bits above it used to be dropped.
        let mut max = vec![0xffu8; 9];
        max.push(0x01);
        assert_eq!(u64::MAX.to_bytes(), max);
        assert_eq!(u64::from_bytes(&max), Ok(u64::MAX));
        *max.last_mut().unwrap() = 0x7f;
        assert_eq!(u64::from_bytes(&max), Err(CodecError::VarintOverflow));
    }

    #[test]
    fn names_are_interned_per_reader() {
        let mut bytes = Vec::new();
        for name in ["salary", "dept", "salary"] {
            AttrName::from(name).encode(&mut bytes);
        }
        ClassId::from("salary").encode(&mut bytes);
        let mut r = Reader::new(&bytes);
        let a = AttrName::decode(&mut r).unwrap();
        let b = AttrName::decode(&mut r).unwrap();
        let c = AttrName::decode(&mut r).unwrap();
        let d = ClassId::decode(&mut r).unwrap();
        assert!(r.is_empty());
        assert_eq!((a.as_str(), b.as_str()), ("salary", "dept"));
        // Equal names share one allocation, whatever kind of name they are.
        assert!(std::ptr::eq(a.as_str(), c.as_str()));
        assert!(std::ptr::eq(a.as_str(), d.as_str()));
        // Invalid UTF-8 is refused before it is remembered.
        assert_eq!(AttrName::from_bytes(&[2, 0xff, 0xfe]), Err(CodecError::InvalidUtf8));
    }

    #[test]
    fn decode_validates_what_it_builds() {
        let run = |start: u64, end: TimeBound, class: &str, out: &mut Vec<u8>| {
            Instant(start).encode(out);
            end.encode(out);
            ClassId::from(class).encode(out);
        };
        // Overlapping runs are not a history, of any value type.
        let mut bytes = vec![2];
        run(5, TimeBound::Fixed(Instant(10)), "person", &mut bytes);
        run(7, TimeBound::Now, "person", &mut bytes);
        assert_eq!(
            TemporalValue::<ClassId>::from_bytes(&bytes),
            Err(CodecError::Corrupt("history"))
        );
        // Nor is an open run followed by another.
        let mut bytes = vec![2];
        run(5, TimeBound::Now, "person", &mut bytes);
        run(9, TimeBound::Now, "employee", &mut bytes);
        assert!(TemporalValue::<ClassId>::from_bytes(&bytes).is_err());
        // A well-formed one comes back as written.
        let mut h = TemporalValue::new();
        h.set_from(Instant(5), ClassId::from("person")).unwrap();
        h.set_from(Instant(9), ClassId::from("employee")).unwrap();
        round_trip(h);
        let mut m = TemporalValue::new();
        m.set_from(Instant(3), ()).unwrap();
        m.close(Instant(8));
        round_trip(m);

        // Attribute names arrive strictly ascending, or not at all.
        let record = |names: &[&str]| {
            let mut out = vec![names.len() as u8];
            for n in names {
                AttrName::from(*n).encode(&mut out);
                Value::Int(1).encode(&mut out);
            }
            out
        };
        let decode = |bytes: &[u8]| decode_attrs(&mut Reader::new(bytes));
        assert_eq!(decode(&record(&["a", "b"])).unwrap().len(), 2);
        let out_of_order = CodecError::Corrupt("field names out of order");
        for bad in [&["b", "a"][..], &["a", "a"][..]] {
            assert_eq!(decode(&record(bad)), Err(out_of_order.clone()));
            // The same pairs as a record value (tag 10): refused, where
            // the duplicate used to panic in `Value::record`.
            let mut value = vec![10];
            value.extend(record(bad));
            assert_eq!(Value::from_bytes(&value), Err(out_of_order.clone()));
        }
    }

    #[test]
    fn error_display() {
        assert!(CodecError::UnexpectedEof.to_string().contains("end of input"));
        assert!(CodecError::InvalidTag { what: "value", tag: 9 }
            .to_string()
            .contains("value"));
    }
}
