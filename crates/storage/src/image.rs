//! The checkpoint image: a database state as log records.
//!
//! A checkpoint writes a new log file that begins with the image of the
//! state it covers (format: [`crate::log`]). The image is a run of
//! records framed like op records, each payload a tag byte and then:
//!
//! * `0` — the clock, the next oid and the next hierarchy id (first);
//! * `1` — one class as its [`ClassState`], its memberships (`ext`,
//!   `proper-ext`) included, in class-id order;
//! * `2` — one [`Object`], in oid order.
//!
//! The bytes are verified by the log walk's CRCs and decoded once,
//! straight into the model's types; the header's digest is for whoever
//! distrusts more than the medium (the scrubber walks the image against
//! it, a follower the file it was shipped).

use tchimera_core::{
    AttrDecl, AttrName, ClassId, ClassState, DatabaseState, Instant, Lifespan, MethodName,
    MethodSig, Object, Oid, TemporalValue, Value,
};

use crate::codec::{decode_attrs, encode_attrs, Codec, CodecError, Reader};
use crate::log::{seal_frame, Head};

const GLOBALS: u8 = 0;
const CLASS: u8 = 1;
const OBJECT: u8 = 2;

/// The start of a log file holding `state` as the fold of its first
/// `base` operations: the header, then the image records.
pub(crate) fn checkpoint_file(state: &DatabaseState, base: u64, digest: u64) -> Vec<u8> {
    let images = 1 + state.classes.len() + state.objects.len();
    let mut file = Head { base, images: images as u64, digest }.encode();
    let mut record = |tag: u8, encode: &dyn Fn(&mut Vec<u8>)| {
        let at = file.len();
        file.extend_from_slice(&[0; 8]);
        file.push(tag);
        encode(&mut file);
        seal_frame(&mut file[at..]);
    };
    record(GLOBALS, &|out| {
        state.clock.encode(out);
        state.next_oid.encode(out);
        state.next_hierarchy.encode(out);
    });
    for class in &state.classes {
        record(CLASS, &|out| class.encode(out));
    }
    for object in &state.objects {
        record(OBJECT, &|out| object.encode(out));
    }
    // The file lives on through its install, next to whatever copies the
    // filesystem makes of it: give its growth slack back first.
    file.shrink_to_fit();
    file
}

/// The state the image records `image` hold (bytes a log walk has
/// already checked: the frames are whole and their CRCs match).
pub(crate) fn decode_image(image: &[u8]) -> Result<DatabaseState, CodecError> {
    let mut rest = image;
    let mut payloads = std::iter::from_fn(|| {
        let len = u32::from_le_bytes(rest.get(..4)?.try_into().unwrap()) as usize;
        let (payload, after) = rest[8..].split_at(len);
        rest = after;
        Some(payload)
    });
    // One reader for the whole image: a name is interned once.
    let mut r = Reader::new(payloads.next().unwrap_or_default());
    if r.byte() != Ok(GLOBALS) {
        return Err(CodecError::Corrupt("image without its clock record"));
    }
    let mut state = DatabaseState {
        clock: Instant::decode(&mut r)?,
        next_oid: u64::decode(&mut r)?,
        next_hierarchy: u32::decode(&mut r)?,
        classes: Vec::new(),
        objects: Vec::new(),
    };
    for payload in payloads {
        if !r.is_empty() {
            return Err(CodecError::Corrupt("trailing bytes"));
        }
        r.restart(payload);
        match r.byte()? {
            CLASS => state.classes.push(ClassState::decode(&mut r)?),
            OBJECT => state.objects.push(Object::decode(&mut r)?),
            tag => return Err(CodecError::InvalidTag { what: "image record", tag }),
        }
    }
    match r.is_empty() {
        true => Ok(state),
        false => Err(CodecError::Corrupt("trailing bytes")),
    }
}

// ---------------------------------------------------------------------
// Codec for the state image
// ---------------------------------------------------------------------

impl Codec for ClassState {
    fn encode(&self, out: &mut Vec<u8>) {
        self.id.encode(out);
        self.historical.encode(out);
        self.lifespan.encode(out);
        self.own_attrs.encode(out);
        self.all_attrs.encode(out);
        self.own_methods.encode(out);
        self.all_methods.encode(out);
        self.c_attrs.encode(out);
        self.c_methods.encode(out);
        self.c_attr_values.encode(out);
        self.superclasses.encode(out);
        self.subclasses.encode(out);
        self.hierarchy.encode(out);
        self.ext.encode(out);
        self.proper_ext.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(ClassState {
            id: ClassId::decode(r)?,
            historical: bool::decode(r)?,
            lifespan: Lifespan::decode(r)?,
            own_attrs: Vec::<AttrDecl>::decode(r)?,
            all_attrs: Vec::<AttrDecl>::decode(r)?,
            own_methods: Vec::<(MethodName, MethodSig)>::decode(r)?,
            all_methods: Vec::<(MethodName, MethodSig)>::decode(r)?,
            c_attrs: Vec::<AttrDecl>::decode(r)?,
            c_methods: Vec::<(MethodName, MethodSig)>::decode(r)?,
            c_attr_values: Vec::<(AttrName, Value)>::decode(r)?,
            superclasses: Vec::<ClassId>::decode(r)?,
            subclasses: Vec::<ClassId>::decode(r)?,
            hierarchy: u32::decode(r)?,
            ext: Vec::<(Oid, TemporalValue<()>)>::decode(r)?,
            proper_ext: Vec::<(Oid, TemporalValue<()>)>::decode(r)?,
        })
    }
}

impl Codec for Object {
    fn encode(&self, out: &mut Vec<u8>) {
        self.oid.encode(out);
        self.lifespan.encode(out);
        encode_attrs(&self.attrs, out);
        self.class_history.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Object {
            oid: Oid::decode(r)?,
            lifespan: Lifespan::decode(r)?,
            attrs: decode_attrs(r)?,
            class_history: TemporalValue::<ClassId>::decode(r)?,
        })
    }
}

impl Codec for DatabaseState {
    fn encode(&self, out: &mut Vec<u8>) {
        self.clock.encode(out);
        self.next_oid.encode(out);
        self.next_hierarchy.encode(out);
        self.classes.encode(out);
        self.objects.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(DatabaseState {
            clock: Instant::decode(r)?,
            next_oid: u64::decode(r)?,
            next_hierarchy: u32::decode(r)?,
            classes: Vec::<ClassState>::decode(r)?,
            objects: Vec::<Object>::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::digest_database;
    use crate::log::RecordWalk;
    use tchimera_core::{attrs, ClassDef, Database, Type};

    fn populated() -> Database {
        let mut db = Database::new();
        db.define_class(
            ClassDef::new("person")
                .attr("name", Type::temporal(Type::STRING))
                .attr("address", Type::STRING),
        )
        .unwrap();
        db.define_class(
            ClassDef::new("employee")
                .isa("person")
                .attr("salary", Type::temporal(Type::INTEGER)),
        )
        .unwrap();
        db.advance_to(Instant(10)).unwrap();
        let i = db
            .create_object(
                &ClassId::from("employee"),
                attrs([("name", Value::str("Ann")), ("salary", Value::Int(100))]),
            )
            .unwrap();
        db.advance_to(Instant(20)).unwrap();
        db.set_attr(i, &"salary".into(), Value::Int(150)).unwrap();
        db
    }

    #[test]
    fn state_codec_round_trips_byte_identically() {
        let db = populated();
        let state = db.export_state();
        let bytes = state.to_bytes();
        let back = DatabaseState::from_bytes(&bytes).unwrap();
        // Deterministic serialization: re-encoding yields identical bytes,
        // and the decoded image rebuilds a digest-identical database.
        assert_eq!(back.to_bytes(), bytes);
        let rebuilt = Database::import_state(back).unwrap();
        assert_eq!(digest_database(&rebuilt), digest_database(&db));
    }

    #[test]
    fn an_image_is_one_record_per_class_and_object_after_the_clock() {
        let db = populated();
        let digest = digest_database(&db);
        let file = checkpoint_file(&db.export_state(), 6, digest);
        let walk = RecordWalk::log(&file, 0);
        let head = *walk.head().expect("a header");
        // The clock record, two classes, one object.
        assert_eq!((head.base, head.images, head.digest), (6, 4, digest));
        let image = walk.image().unwrap().expect("an image");
        assert_eq!(image.len(), file.len() - crate::log::HEADER_LEN);
        let back = Database::import_state(decode_image(image).unwrap()).unwrap();
        assert_eq!(digest_database(&back), digest);
        // A record out of the vocabulary is refused, not guessed at.
        let mut odd = image.to_vec();
        odd[8] = 9;
        assert!(decode_image(&odd).is_err());
    }
}
