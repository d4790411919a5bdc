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
//! These are the components of the state digest, in the order of the
//! one walk that visits them (`Database::walk_components`): a
//! checkpoint encodes each record from the live state as the walk hands
//! it over and seals the header with the digest the walk summed, so the
//! state is never copied. A detached [`DatabaseState`] goes through the
//! same record encoder, with the digest recorded for it.
//!
//! The bytes are verified by the log walk's CRCs and decoded once,
//! straight into the model's types; the header's digest is for whoever
//! distrusts more than the medium (the scrubber walks the image against
//! it, a follower the file it was shipped).

use tchimera_core::{
    AttrDecl, AttrName, ClassId, ClassState, ClassView, Component, Database, DatabaseState,
    Instant, Lifespan, MethodName, MethodSig, Object, Oid, TemporalValue, Value,
};

use crate::codec::{decode_attrs, encode_attrs, Codec, CodecError, Reader};
use crate::log::{seal_frame, Head, HEADER_LEN};

const GLOBALS: u8 = 0;
const CLASS: u8 = 1;
const OBJECT: u8 = 2;

/// The start of a log file holding the live `db` as the fold of its
/// first `base` operations: the header, then the image records, encoded
/// from the live state in place by the walk that also sums the digest
/// the header records.
pub(crate) fn checkpoint_file(db: &Database, base: u64) -> Vec<u8> {
    image_file(base, |visit| db.walk_components(visit))
}

/// The same file for a detached `state`, with the `digest` its writer
/// recorded for it.
pub(crate) fn state_file(state: &DatabaseState, base: u64, digest: u64) -> Vec<u8> {
    image_file(base, |visit| {
        state.walk_components(visit);
        digest
    })
}

/// The header, then one image record per component `walk` hands its
/// visitor; `walk` returns the digest, and the header is sealed after it.
fn image_file(base: u64, walk: impl FnOnce(&mut dyn FnMut(Component<'_>)) -> u64) -> Vec<u8> {
    let mut file = vec![0; HEADER_LEN];
    let mut images = 0;
    let digest = walk(&mut |component| {
        let at = file.len();
        file.extend_from_slice(&[0; 8]);
        encode_component(&component, &mut file);
        seal_frame(&mut file[at..]);
        images += 1;
    });
    file[..HEADER_LEN].copy_from_slice(&Head { base, images, digest }.encode());
    // The file lives on through its install, next to whatever copies the
    // filesystem makes of it: give its growth slack back first.
    file.shrink_to_fit();
    file
}

/// One image record's payload: the component's tag, then its encoding.
fn encode_component(component: &Component<'_>, out: &mut Vec<u8>) {
    match component {
        Component::Globals { clock, next_oid, next_hierarchy } => {
            out.push(GLOBALS);
            clock.encode(out);
            next_oid.encode(out);
            next_hierarchy.encode(out);
        }
        Component::Class(class) => {
            out.push(CLASS);
            encode_class(class, out);
        }
        Component::Object(object) => {
            out.push(OBJECT);
            object.encode(out);
        }
    }
}

/// A class, written as [`ClassState`]'s fields are: the one class
/// encoder, for the live state and a detached one alike.
fn encode_class(c: &ClassView<'_>, out: &mut Vec<u8>) {
    // Each list is written as the `Vec` codec writes it: its length,
    // then each item (a pair: one item, then the other).
    fn list<T>(items: &[T], out: &mut Vec<u8>, item: impl Fn(&T, &mut Vec<u8>)) {
        (items.len() as u64).encode(out);
        items.iter().for_each(|x| item(x, out));
    }
    fn one<T: Codec>(x: &&T, out: &mut Vec<u8>) {
        x.encode(out);
    }
    fn pair<A: Codec, B: Codec>((a, b): &(&A, &B), out: &mut Vec<u8>) {
        a.encode(out);
        b.encode(out);
    }
    fn history((oid, h): &(Oid, &TemporalValue<()>), out: &mut Vec<u8>) {
        oid.encode(out);
        h.encode(out);
    }
    c.id.encode(out);
    c.historical.encode(out);
    c.lifespan.encode(out);
    list(&c.own_attrs, out, one);
    list(&c.all_attrs, out, one);
    list(&c.own_methods, out, pair);
    list(&c.all_methods, out, pair);
    list(&c.c_attrs, out, one);
    list(&c.c_methods, out, pair);
    list(&c.c_attr_values, out, pair);
    list(c.superclasses, out, ClassId::encode);
    list(c.subclasses, out, ClassId::encode);
    c.hierarchy.encode(out);
    list(&c.ext, out, history);
    list(&c.proper_ext, out, history);
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
        encode_class(&self.view(), out);
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
        let file = checkpoint_file(&db, 6);
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
