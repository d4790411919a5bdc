//! The state image: the base state of a [`Database`], detached from it.
//!
//! The storage layer writes a [`DatabaseState`] as a **snapshot**
//! (checkpoint) and ships it to a replica that fell behind. It holds the
//! base state in the model's own types — every [`Object`] as it is, every
//! membership history as the `TemporalValue<()>` the class keeps — plus
//! the clock and the little bookkeeping (`next_oid`, hierarchy counters)
//! that makes a database restored from the image behave *identically* to
//! the original under every subsequent operation. There is no second
//! representation to translate to or from: decoding an image builds the
//! objects [`Database::import_state`] then moves into place.
//!
//! Derived structures — the time-sorted extent indexes, the
//! reverse-reference index — are functions of the base state and are not
//! in the image; `import_state` builds each in one bulk pass
//! (`Membership::from_histories`, `RefIndex::build`), the same builders
//! the scrubber's rebuild rung uses. The digest table starts cold.
//!
//! The **state digest** lives here too: a 64-bit fingerprint of the same
//! observable state the image captures, defined so that it can be
//! maintained per component instead of recomputed per call.
//!
//! Both meet in one walk, [`Database::walk_components`]: it hands the
//! image's components, borrowed, to a visitor in image order and sums
//! the digest on the way. A checkpoint encodes the live state through it
//! without a copy; [`Database::digest_from_scratch`] is the same walk
//! with a visitor that does nothing.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::{Mutex, MutexGuard};

use tchimera_temporal::{Instant, Lifespan, TemporalValue};

use crate::class::{AttrDecl, Class, ClassKind, MethodSig};
use crate::database::Database;
use crate::extent_index::Membership;
use crate::ident::{AttrName, ClassId, MethodName, Oid, OidMap};
use crate::object::{Object, ObjectTable};
use crate::ref_index::RefIndex;
use crate::schema::Schema;
use crate::value::Value;

/// The full state of one class (Definition 4.1 plus derived features).
#[derive(Clone, Debug, PartialEq)]
pub struct ClassState {
    /// The class identifier.
    pub id: ClassId,
    /// `true` if the class is historical (has a temporal c-attribute).
    pub historical: bool,
    /// The class lifespan.
    pub lifespan: Lifespan,
    /// Attributes declared by the class itself.
    pub own_attrs: Vec<AttrDecl>,
    /// All instance attributes, inherited ones resolved.
    pub all_attrs: Vec<AttrDecl>,
    /// Methods declared by the class itself.
    pub own_methods: Vec<(MethodName, MethodSig)>,
    /// All methods, inherited ones resolved.
    pub all_methods: Vec<(MethodName, MethodSig)>,
    /// C-attribute declarations.
    pub c_attrs: Vec<AttrDecl>,
    /// C-operation signatures.
    pub c_methods: Vec<(MethodName, MethodSig)>,
    /// Current c-attribute values.
    pub c_attr_values: Vec<(AttrName, Value)>,
    /// Direct superclasses.
    pub superclasses: Vec<ClassId>,
    /// Direct subclasses.
    pub subclasses: Vec<ClassId>,
    /// ISA connected-component id.
    pub hierarchy: u32,
    /// Per-oid membership histories (`ext`), sorted by oid.
    pub ext: Vec<(Oid, TemporalValue<()>)>,
    /// Per-oid instance-of histories (`proper-ext`), sorted by oid.
    pub proper_ext: Vec<(Oid, TemporalValue<()>)>,
}

/// The complete, self-contained image of a database.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DatabaseState {
    /// The logical clock.
    pub clock: Instant,
    /// The next oid to assign.
    pub next_oid: u64,
    /// The next ISA hierarchy-component id.
    pub next_hierarchy: u32,
    /// Every class (tombstones included), sorted by id.
    pub classes: Vec<ClassState>,
    /// Every object (terminated included), at its oid: `objects[i]` is
    /// object `i`, and there are `next_oid` of them.
    pub objects: Vec<Object>,
}

/// One class as its image record holds it, borrowed: the fields of a
/// [`ClassState`], in its order, taken from a live [`Class`]
/// ([`Database::walk_components`]) or from a [`ClassState`]
/// ([`ClassState::view`]) — so one encoder writes both.
#[derive(Debug)]
pub struct ClassView<'a> {
    /// The class identifier.
    pub id: &'a ClassId,
    /// `true` if the class is historical.
    pub historical: bool,
    /// The class lifespan.
    pub lifespan: Lifespan,
    /// Attributes declared by the class itself, by name.
    pub own_attrs: Vec<&'a AttrDecl>,
    /// All instance attributes, by name.
    pub all_attrs: Vec<&'a AttrDecl>,
    /// Methods declared by the class itself, by name.
    pub own_methods: Vec<(&'a MethodName, &'a MethodSig)>,
    /// All methods, by name.
    pub all_methods: Vec<(&'a MethodName, &'a MethodSig)>,
    /// C-attribute declarations, by name.
    pub c_attrs: Vec<&'a AttrDecl>,
    /// C-operation signatures, by name.
    pub c_methods: Vec<(&'a MethodName, &'a MethodSig)>,
    /// Current c-attribute values, by name.
    pub c_attr_values: Vec<(&'a AttrName, &'a Value)>,
    /// Direct superclasses.
    pub superclasses: &'a [ClassId],
    /// Direct subclasses.
    pub subclasses: &'a [ClassId],
    /// ISA connected-component id.
    pub hierarchy: u32,
    /// Per-oid membership histories (`ext`), sorted by oid.
    pub ext: Vec<(Oid, &'a TemporalValue<()>)>,
    /// Per-oid instance-of histories (`proper-ext`), sorted by oid.
    pub proper_ext: Vec<(Oid, &'a TemporalValue<()>)>,
}

impl<'a> ClassView<'a> {
    fn of(c: &'a Class) -> ClassView<'a> {
        ClassView {
            id: &c.id,
            historical: c.kind == ClassKind::Historical,
            lifespan: c.lifespan,
            own_attrs: c.own_attrs.values().collect(),
            all_attrs: c.all_attrs.values().collect(),
            own_methods: c.own_methods.iter().collect(),
            all_methods: c.all_methods.iter().collect(),
            c_attrs: c.c_attrs.values().collect(),
            c_methods: c.c_methods.iter().collect(),
            c_attr_values: c.c_attr_values.iter().collect(),
            superclasses: &c.superclasses,
            subclasses: &c.subclasses,
            hierarchy: c.hierarchy,
            ext: sorted_histories(&c.ext),
            proper_ext: sorted_histories(&c.proper_ext),
        }
    }
}

impl ClassState {
    /// This class as a borrowed [`ClassView`].
    #[must_use]
    pub fn view(&self) -> ClassView<'_> {
        fn pairs<A, B>(v: &[(A, B)]) -> Vec<(&A, &B)> {
            v.iter().map(|(a, b)| (a, b)).collect()
        }
        fn histories(v: &[(Oid, TemporalValue<()>)]) -> Vec<(Oid, &TemporalValue<()>)> {
            v.iter().map(|(oid, h)| (*oid, h)).collect()
        }
        ClassView {
            id: &self.id,
            historical: self.historical,
            lifespan: self.lifespan,
            own_attrs: self.own_attrs.iter().collect(),
            all_attrs: self.all_attrs.iter().collect(),
            own_methods: pairs(&self.own_methods),
            all_methods: pairs(&self.all_methods),
            c_attrs: self.c_attrs.iter().collect(),
            c_methods: pairs(&self.c_methods),
            c_attr_values: pairs(&self.c_attr_values),
            superclasses: &self.superclasses,
            subclasses: &self.subclasses,
            hierarchy: self.hierarchy,
            ext: histories(&self.ext),
            proper_ext: histories(&self.proper_ext),
        }
    }
}

/// One component of a state, borrowed, as a component walk hands it to
/// its visitor. The image records are these, in this order, and so are
/// the digest's components (`DESIGN.md` §8.1, §8.5).
#[derive(Debug)]
pub enum Component<'a> {
    /// The clock, the next oid and the next hierarchy id (first).
    Globals {
        /// The logical clock.
        clock: Instant,
        /// The next oid to assign.
        next_oid: u64,
        /// The next ISA hierarchy-component id.
        next_hierarchy: u32,
    },
    /// One class, its memberships included, in class-id order.
    Class(&'a ClassView<'a>),
    /// One object, in oid order.
    Object(&'a Object),
}

impl DatabaseState {
    /// Hand this image's components to `visit` in image order — the
    /// order [`Database::walk_components`] walks a live state in. A
    /// detached state sums no digest: it carries the one its writer
    /// recorded.
    pub fn walk_components(&self, mut visit: impl FnMut(Component<'_>)) {
        visit(Component::Globals {
            clock: self.clock,
            next_oid: self.next_oid,
            next_hierarchy: self.next_hierarchy,
        });
        for c in &self.classes {
            visit(Component::Class(&c.view()));
        }
        for o in &self.objects {
            visit(Component::Object(o));
        }
    }
}

/// Errors raised while importing a [`DatabaseState`]. Its histories and
/// attribute records are well-formed by type; what an image can still
/// get wrong is how its parts fit together.
#[derive(Debug)]
pub enum StateError {
    /// A structural invariant of the image was violated.
    Corrupt(&'static str),
}

impl fmt::Display for StateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StateError::Corrupt(what) => write!(f, "corrupt state image: {what}"),
        }
    }
}

impl std::error::Error for StateError {}

/// `m`'s histories, sorted by oid: HashMap iteration order is
/// nondeterministic, and two images of the same state must be
/// byte-identical. The oid is copied next to its history so that the
/// sort compares keys in place (E29).
fn sorted_histories(m: &Membership) -> Vec<(Oid, &TemporalValue<()>)> {
    let mut out: Vec<_> = m.histories().iter().map(|(&oid, h)| (oid, h)).collect();
    out.sort_unstable_by_key(|&(oid, _)| oid);
    out
}

fn export_membership(m: &Membership) -> Vec<(Oid, TemporalValue<()>)> {
    (sorted_histories(m).into_iter())
        .map(|(oid, h)| (oid, h.clone()))
        .collect()
}

fn import_membership(pairs: Vec<(Oid, TemporalValue<()>)>) -> Result<Membership, StateError> {
    let n = pairs.len();
    let histories: OidMap<TemporalValue<()>> = pairs.into_iter().collect();
    if histories.len() != n {
        return Err(StateError::Corrupt("duplicate oid in membership"));
    }
    Ok(Membership::from_histories(histories))
}

impl Database {
    /// Export the complete database state as a flat image, suitable for
    /// serialization. See [`Database::import_state`] for the inverse.
    /// A checkpoint does not call it: it encodes the live state in place
    /// ([`Database::walk_components`]).
    #[must_use]
    pub fn export_state(&self) -> DatabaseState {
        tchimera_obs::counter!("core.state.exports").inc();
        let classes = self
            .schema
            .classes
            .values()
            .map(|c| ClassState {
                id: c.id.clone(),
                historical: c.kind == ClassKind::Historical,
                lifespan: c.lifespan,
                own_attrs: c.own_attrs.values().cloned().collect(),
                all_attrs: c.all_attrs.values().cloned().collect(),
                own_methods: c.own_methods.clone().into_iter().collect(),
                all_methods: c.all_methods.clone().into_iter().collect(),
                c_attrs: c.c_attrs.values().cloned().collect(),
                c_methods: c.c_methods.clone().into_iter().collect(),
                c_attr_values: c.c_attr_values.clone().into_iter().collect(),
                superclasses: c.superclasses.clone(),
                subclasses: c.subclasses.clone(),
                hierarchy: c.hierarchy,
                ext: export_membership(&c.ext),
                proper_ext: export_membership(&c.proper_ext),
            })
            .collect();
        DatabaseState {
            clock: self.clock,
            next_oid: self.next_oid,
            next_hierarchy: self.schema.next_hierarchy,
            classes,
            objects: self.objects.values().cloned().collect(),
        }
    }

    /// Rebuild a live database from an exported image. The result is
    /// observably identical to the database that produced the image
    /// (same state digest) and behaves identically under every
    /// subsequent operation. The image's objects and histories become
    /// the base state as they are; each derived index (reverse
    /// references, the time-sorted extent indexes) is built from it in
    /// one bulk pass. Objects must be listed as oids `0..next_oid` in
    /// order — each lands at its index in the object table; a gap, a
    /// duplicate or any other `next_oid` is [`StateError::Corrupt`].
    pub fn import_state(state: DatabaseState) -> Result<Database, StateError> {
        let mut classes = BTreeMap::new();
        for cs in state.classes {
            let id = cs.id.clone();
            let class = Class {
                metaclass: id.metaclass(),
                id: cs.id,
                kind: if cs.historical {
                    ClassKind::Historical
                } else {
                    ClassKind::Static
                },
                lifespan: cs.lifespan,
                own_attrs: cs
                    .own_attrs
                    .into_iter()
                    .map(|d| (d.name.clone(), d))
                    .collect(),
                all_attrs: cs
                    .all_attrs
                    .into_iter()
                    .map(|d| (d.name.clone(), d))
                    .collect(),
                own_methods: cs.own_methods.into_iter().collect(),
                all_methods: cs.all_methods.into_iter().collect(),
                c_attrs: cs
                    .c_attrs
                    .into_iter()
                    .map(|d| (d.name.clone(), d))
                    .collect(),
                c_methods: cs.c_methods.into_iter().collect(),
                c_attr_values: cs.c_attr_values.into_iter().collect(),
                superclasses: cs.superclasses,
                subclasses: cs.subclasses,
                hierarchy: cs.hierarchy,
                ext: import_membership(cs.ext)?,
                proper_ext: import_membership(cs.proper_ext)?,
            };
            if classes.insert(id, class).is_some() {
                return Err(StateError::Corrupt("duplicate class id"));
            }
        }
        // The image lists objects in oid order, so each already sits at
        // its table index; the next oid must be the one after the last.
        let objects = ObjectTable::from_dense(state.objects).map_err(StateError::Corrupt)?;
        if objects.len() as u64 != state.next_oid {
            return Err(StateError::Corrupt("next_oid is not the object count"));
        }
        Ok(Database {
            schema: Schema {
                classes,
                next_hierarchy: state.next_hierarchy,
                generation: crate::schema::next_generation(),
            },
            refs: RefIndex::build(objects.values()),
            objects,
            clock: state.clock,
            next_oid: state.next_oid,
            admission: std::sync::Arc::default(),
            attr_idx: Default::default(),
            quarantine: std::sync::Arc::default(),
            digest: DigestCache::default(),
        })
    }
}

// ---------------------------------------------------------------------
// The state digest
// ---------------------------------------------------------------------
//
// The digest of a database is the wrapping sum of one 64-bit hash per
// *component* — the clock, every class, every (class, oid) membership
// and every object — each taken with the pinned [`DigestHasher`] over
// the component's *stored* form (an open run hashes as open, so a tick
// changes the clock component and nothing else). A sum is independent
// of order, so a change to one component changes the digest by
// `new − old` of that component alone: [`Database::state_digest`] keeps
// the per-component hashes in a table and re-hashes only what the
// write hooks marked dirty, while [`Database::digest_from_scratch`]
// walks everything and is the oracle the table is checked against.
// `DESIGN.md` §8.5 is the written definition.

/// The pinned 64-bit hasher of the state digest.
///
/// The digest is written into snapshot files and sent in replication
/// frames, so — unlike `std`'s `DefaultHasher`, whose algorithm is
/// unspecified — it must not change with the toolchain. The algorithm
/// (`DESIGN.md` §8.5): the state starts at `0x6A09E667F3BCC908`; every
/// 64-bit word `w` is absorbed as `h = (h ^ w) * 0x9E3779B97F4A7C15`
/// (wrapping), `h ^= h >> 32`; integers of every width are one
/// zero-extended word (`u128`: low then high); a byte string is its
/// little-endian 8-byte words, the last zero-padded, then its length;
/// `finish` is the MurmurHash3 64-bit finalizer.
struct DigestHasher(u64);

impl DigestHasher {
    /// A hasher in the initial state.
    fn new() -> DigestHasher {
        DigestHasher(0x6A09_E667_F3BC_C908)
    }

    #[inline]
    fn word(&mut self, w: u64) {
        let h = (self.0 ^ w).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ (h >> 32);
    }
}

impl Hasher for DigestHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.word(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut last = [0u8; 8];
            last[..rest.len()].copy_from_slice(rest);
            self.word(u64::from_le_bytes(last));
        }
        self.word(bytes.len() as u64);
    }
    fn write_u8(&mut self, i: u8) {
        self.word(u64::from(i));
    }
    fn write_u16(&mut self, i: u16) {
        self.word(u64::from(i));
    }
    fn write_u32(&mut self, i: u32) {
        self.word(u64::from(i));
    }
    fn write_u64(&mut self, i: u64) {
        self.word(i);
    }
    fn write_u128(&mut self, i: u128) {
        self.word(i as u64);
        self.word((i >> 64) as u64);
    }
    fn write_usize(&mut self, i: usize) {
        self.word(i as u64);
    }
    fn finish(&self) -> u64 {
        let mut h = self.0;
        h ^= h >> 33;
        h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        h ^= h >> 33;
        h = h.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
        h ^ (h >> 33)
    }
}

/// Hash one component: its kind tag, then whatever `fields` feeds in.
fn component(tag: u8, fields: impl FnOnce(&mut DigestHasher)) -> u64 {
    let mut h = DigestHasher::new();
    h.write_u8(tag);
    fields(&mut h);
    h.finish()
}

fn hash_clock(clock: Instant) -> u64 {
    component(0, |h| clock.hash(h))
}

fn hash_class(c: &Class) -> u64 {
    component(1, |h| {
        c.id.hash(h);
        c.lifespan.hash(h);
        c.superclasses.hash(h);
        c.c_attr_values.hash(h);
    })
}

/// The membership of `oid` in class `id`: both extent histories, as
/// stored.
fn hash_member(
    id: &ClassId,
    oid: Oid,
    ext: &TemporalValue<()>,
    proper_ext: Option<&TemporalValue<()>>,
) -> u64 {
    component(2, |h| {
        id.hash(h);
        oid.hash(h);
        ext.hash(h);
        proper_ext.hash(h);
    })
}

fn hash_object(o: &Object) -> u64 {
    component(3, |h| {
        o.oid.hash(h);
        o.lifespan.hash(h);
        o.attrs.hash(h);
        o.class_history.hash(h);
    })
}

/// The sum of `c`'s own component and all its membership components,
/// `view` being `c`'s: its sorted memberships pair each `ext` history
/// with its `proper-ext` one in one merge.
fn class_components(c: &Class, view: &ClassView<'_>) -> u64 {
    let mut proper = view.proper_ext.iter().peekable();
    view.ext.iter().fold(hash_class(c), |sum, &(oid, ext)| {
        while proper.next_if(|&&(p, _)| p < oid).is_some() {}
        let proper_ext = proper.next_if(|&&(p, _)| p == oid).map(|&(_, h)| h);
        sum.wrapping_add(hash_member(&c.id, oid, ext, proper_ext))
    })
}

/// One digest component other than the clock.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
enum DigestKey {
    Class(ClassId),
    Member(ClassId, Oid),
    Object(Oid),
}

/// The per-component hashes behind [`Database::state_digest`].
#[derive(Clone, Debug, Default)]
struct DigestTable {
    /// Wrapping sum of every hash stored below. The clock is hashed per
    /// call and never stored.
    sum: u64,
    classes: HashMap<ClassId, u64>,
    members: HashMap<ClassId, OidMap<u64>>,
    objects: OidMap<u64>,
    /// Components whose base state changed since they were last hashed.
    dirty: HashSet<DigestKey>,
}

impl DigestTable {
    /// Hash every component of `db` (the cold → warm transition).
    fn build(db: &Database) -> DigestTable {
        tchimera_obs::counter!("core.digest.builds").inc();
        let mut t = DigestTable::default();
        for c in db.schema.classes.values() {
            let members: OidMap<u64> = c
                .ext
                .histories()
                .iter()
                .map(|(&oid, ext)| {
                    (oid, hash_member(&c.id, oid, ext, c.proper_ext.history_of(oid)))
                })
                .collect();
            t.classes.insert(c.id.clone(), hash_class(c));
            t.members.insert(c.id.clone(), members);
        }
        t.objects = db.objects.values().map(|o| (o.oid, hash_object(o))).collect();
        t.sum = (t.classes.values())
            .chain(t.members.values().flat_map(OidMap::values))
            .chain(t.objects.values())
            .fold(0, |sum, &h| sum.wrapping_add(h));
        t
    }

    /// The current hash of component `key` in `db` (`None`: no such
    /// component).
    fn hash_of(db: &Database, key: &DigestKey) -> Option<u64> {
        match key {
            DigestKey::Class(id) => db.schema.classes.get(id).map(hash_class),
            DigestKey::Member(id, oid) => {
                let c = db.schema.classes.get(id)?;
                let ext = c.ext.history_of(*oid)?;
                Some(hash_member(id, *oid, ext, c.proper_ext.history_of(*oid)))
            }
            DigestKey::Object(oid) => db.objects.get(*oid).map(hash_object),
        }
    }

    /// Re-hash the dirty components and return the digest under `db`'s
    /// clock.
    fn refresh(&mut self, db: &Database) -> u64 {
        if !self.dirty.is_empty() {
            // Hash first, store after: hashing runs `Hash` impls that
            // could panic, and a table that took only half an update
            // would drift silently; the stores below cannot fail.
            let fresh: Vec<(DigestKey, Option<u64>)> = self
                .dirty
                .iter()
                .map(|key| (key.clone(), DigestTable::hash_of(db, key)))
                .collect();
            tchimera_obs::counter!("core.digest.rehashed").add(fresh.len() as u64);
            self.dirty.clear();
            for (key, new) in fresh {
                let old = match key {
                    DigestKey::Class(id) => swap(&mut self.classes, id, new),
                    DigestKey::Member(id, oid) => {
                        swap(self.members.entry(id).or_default(), oid, new)
                    }
                    DigestKey::Object(oid) => swap(&mut self.objects, oid, new),
                };
                self.sum = self.sum.wrapping_sub(old).wrapping_add(new.unwrap_or(0));
            }
        }
        self.sum.wrapping_add(hash_clock(db.clock))
    }
}

/// Store `new` under `key` (or drop the entry) and return the hash it
/// displaces, 0 when there was none.
fn swap<K: Hash + Eq, S: std::hash::BuildHasher>(
    map: &mut HashMap<K, u64, S>,
    key: K,
    new: Option<u64>,
) -> u64 {
    match new {
        Some(h) => map.insert(key, h),
        None => map.remove(&key),
    }
    .unwrap_or(0)
}

/// The maintained digest of a [`Database`]: **cold** (`None`) until the
/// first [`Database::state_digest`], then a [`DigestTable`] that the
/// write hooks in `database.rs` keep marked.
///
/// Unlike the attribute-index cache, a clone carries the table along: a
/// transaction's shadow copy becomes the live state on commit and must
/// not pay a full walk for it.
#[derive(Debug, Default)]
pub(crate) struct DigestCache(Mutex<Option<DigestTable>>);

impl Clone for DigestCache {
    fn clone(&self) -> DigestCache {
        DigestCache(Mutex::new(self.lock().clone()))
    }
}

impl DigestCache {
    fn lock(&self) -> MutexGuard<'_, Option<DigestTable>> {
        // A poisoned lock means a panic while hashing; `refresh` and
        // `build` store nothing before hashing is over, so the table is
        // as valid as it was before that call.
        self.0.lock().unwrap_or_else(|poison| poison.into_inner())
    }

    /// Mark a component dirty — a no-op costing one branch while cold.
    fn touch(&mut self, key: impl FnOnce() -> DigestKey) {
        let table = self.0.get_mut().unwrap_or_else(|poison| poison.into_inner());
        if let Some(t) = table {
            t.dirty.insert(key());
        }
    }

    /// Write hook: `class`'s lifespan, superclasses or c-attribute
    /// values are about to change (or it is being defined).
    pub(crate) fn touch_class(&mut self, class: &ClassId) {
        self.touch(|| DigestKey::Class(class.clone()));
    }

    /// Write hook: `oid`'s membership histories in `class` are about to
    /// change.
    pub(crate) fn touch_member(&mut self, class: &ClassId, oid: Oid) {
        self.touch(|| DigestKey::Member(class.clone(), oid));
    }

    /// Write hook: object `oid` is about to change (or be created).
    pub(crate) fn touch_object(&mut self, oid: Oid) {
        self.touch(|| DigestKey::Object(oid));
    }
}

impl Database {
    /// The digest of the observable state — clock, every class
    /// (lifespan, superclasses, c-attribute values, membership
    /// histories) and every object (lifespan, attributes, class
    /// history): two databases with equal digests are observably
    /// identical.
    ///
    /// Maintained: the first call hashes every component and keeps the
    /// hashes; later calls re-hash only the components written since
    /// (`O(changed)`, not `O(state)`). The value always equals
    /// [`Database::digest_from_scratch`] on states reached through the
    /// mutation API; the table itself is a derived structure the
    /// scrubber verifies ([`Database::scrub_digest_table`]).
    #[must_use]
    pub fn state_digest(&self) -> u64 {
        (self.digest.lock())
            .get_or_insert_with(|| DigestTable::build(self))
            .refresh(self)
    }

    /// Walk the whole state in image order — the globals, each class by
    /// id (memberships sorted by oid), then each object by oid — handing
    /// each component to `visit` by reference, and return the digest
    /// summed along the way. The digest is the from-scratch one: the walk
    /// never reads the maintained table. A checkpoint's visitor encodes
    /// the image records (`DESIGN.md` §8.1); one that does nothing makes
    /// [`Database::digest_from_scratch`].
    pub fn walk_components(&self, mut visit: impl FnMut(Component<'_>)) -> u64 {
        tchimera_obs::counter!("core.digest.walks").inc();
        visit(Component::Globals {
            clock: self.clock,
            next_oid: self.next_oid,
            next_hierarchy: self.schema.next_hierarchy,
        });
        let mut sum = hash_clock(self.clock);
        for c in self.schema.classes.values() {
            let view = ClassView::of(c);
            sum = sum.wrapping_add(class_components(c, &view));
            visit(Component::Class(&view));
        }
        for o in self.objects.values() {
            sum = sum.wrapping_add(hash_object(o));
            visit(Component::Object(o));
        }
        sum
    }

    /// The same digest as [`Database::state_digest`], computed by
    /// walking the whole state ([`Database::walk_components`]) and never
    /// reading the maintained table: the oracle for tests, for the
    /// scrubber's distrust-memory comparison and for verifying a state
    /// that was just loaded.
    #[must_use]
    pub fn digest_from_scratch(&self) -> u64 {
        self.walk_components(|_| {})
    }

    /// The part of the digest that belongs to one class — its own
    /// component plus every membership component — from scratch.
    /// `None` for an unknown class.
    #[must_use]
    pub fn class_digest(&self, class: &ClassId) -> Option<u64> {
        let c = self.schema.classes.get(class)?;
        Some(class_components(c, &ClassView::of(c)))
    }

    /// Scrub the maintained digest table against `walked`, a
    /// [`Database::digest_from_scratch`] of this same state that the
    /// caller already paid for. A warm table that disagrees is a
    /// diverged derived structure: it is reported in `report` and
    /// dropped, so the next [`Database::state_digest`] rebuilds it
    /// (rung 1). A cold table has nothing to verify.
    pub fn scrub_digest_table(&mut self, walked: u64, report: &mut crate::scrub::ScrubReport) {
        let mut table = self.digest.lock();
        let Some(warm) = table.as_mut() else {
            return;
        };
        report.steps += 1;
        tchimera_obs::counter!("core.scrub.steps").inc();
        if warm.refresh(self) != walked {
            *table = None;
            report.divergences += 1;
            report.findings.push(crate::scrub::ScrubFinding::DigestTable);
            tchimera_obs::counter!("core.scrub.divergences").inc();
            tchimera_obs::counter!("core.scrub.repairs.index_rebuild").inc();
        }
    }

    /// Deterministic corruption hook for scrubber tests: flip one bit of
    /// the maintained sum, as a stray write into the table would.
    /// Returns `false` while the table is cold (nothing to damage).
    #[cfg(any(test, feature = "testing"))]
    pub(crate) fn digest_corrupt_for_test(&mut self, r: u64) -> bool {
        match self.digest.lock().as_mut() {
            Some(t) => {
                t.sum ^= 1 << (r % 64);
                true
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::class::ClassDef;
    use crate::database::attrs;
    use crate::types::Type;

    fn populated() -> Database {
        let mut db = Database::new();
        db.define_class(
            ClassDef::new("person")
                .immutable_attr("name", Type::temporal(Type::STRING))
                .attr("address", Type::STRING),
        )
        .unwrap();
        db.define_class(
            ClassDef::new("employee")
                .isa("person")
                .attr("salary", Type::temporal(Type::INTEGER))
                .c_attr("headcount", Type::temporal(Type::INTEGER)),
        )
        .unwrap();
        db.advance_to(Instant(10)).unwrap();
        let i = db
            .create_object(
                &ClassId::from("employee"),
                attrs([("name", Value::str("Ann")), ("salary", Value::Int(100))]),
            )
            .unwrap();
        let j = db
            .create_object(&ClassId::from("person"), attrs([("address", Value::str("Genova"))]))
            .unwrap();
        db.set_c_attr(&ClassId::from("employee"), &"headcount".into(), Value::Int(2))
            .unwrap();
        db.advance_to(Instant(20)).unwrap();
        db.set_attr(i, &"salary".into(), Value::Int(150)).unwrap();
        db.migrate(i, &ClassId::from("person"), crate::Attrs::new()).unwrap();
        db.advance_to(Instant(30)).unwrap();
        db.terminate_object(j).unwrap();
        db
    }

    #[test]
    fn export_import_round_trip() {
        let db = populated();
        let state = db.export_state();
        let back = Database::import_state(state).unwrap();
        assert_eq!(back.export_state(), db.export_state());
        assert_eq!(back.digest_from_scratch(), db.digest_from_scratch());
        // Extent queries answer identically through the rebuilt index.
        for t in [0u64, 10, 15, 20, 25, 30] {
            let t = Instant(t);
            for c in ["person", "employee"] {
                let c = ClassId::from(c);
                assert_eq!(db.pi(&c, t).unwrap(), back.pi(&c, t).unwrap());
                assert_eq!(db.proper_pi(&c, t).unwrap(), back.proper_pi(&c, t).unwrap());
            }
        }
        // Reverse-reference index rebuilt.
        for o in db.objects() {
            assert_eq!(db.referrers_of(o.oid), back.referrers_of(o.oid));
        }
    }

    #[test]
    fn imported_database_behaves_identically() {
        let db = populated();
        let mut a = db.clone();
        let mut b = Database::import_state(db.export_state()).unwrap();
        // Same subsequent operations produce the same observable state —
        // including oid assignment and hierarchy bookkeeping.
        for db in [&mut a, &mut b] {
            db.advance_to(Instant(40)).unwrap();
            let k = db
                .create_object(&ClassId::from("employee"), attrs([("salary", Value::Int(7))]))
                .unwrap();
            db.define_class(ClassDef::new("vehicle")).unwrap();
            db.set_attr(k, &"salary".into(), Value::Int(9)).unwrap();
        }
        assert_eq!(a.export_state(), b.export_state());
        assert!(b.check_invariants().is_empty());
    }

    #[test]
    fn digest_hasher_is_pinned() {
        // Reference vectors of the algorithm written down in DESIGN.md
        // §8.5, computed from that text by an independent implementation:
        // a change to any of them changes every stored digest.
        assert_eq!(DigestHasher::new().finish(), 0xBD0E_D0D0_8A42_A70C);
        let mut h = DigestHasher::new();
        h.write_u64(1);
        assert_eq!(h.finish(), 0xBCCD_DEAB_4262_2E88);
        // A byte string: whole words, a zero-padded tail, then the length
        // — so a prefix never hashes like the string it prefixes.
        let mut h = DigestHasher::new();
        h.write(b"T_Chimera 1996");
        assert_eq!(h.finish(), 0xEE52_4E9D_B59B_8A95);
        let mut padded = DigestHasher::new();
        padded.write(b"T_Chimera 1996\0");
        assert_ne!(padded.finish(), h.finish());
        // Narrow integers are one zero-extended word each.
        let (mut narrow, mut wide) = (DigestHasher::new(), DigestHasher::new());
        narrow.write_u8(7);
        wide.write_usize(7);
        assert_eq!(narrow.finish(), wide.finish());
    }

    #[test]
    fn maintained_digest_tracks_every_mutation() {
        let mut db = Database::new();
        // Cold: the first call builds the table from the current state.
        assert_eq!(db.state_digest(), db.digest_from_scratch());
        let same = |db: &Database| assert_eq!(db.state_digest(), db.digest_from_scratch());
        let employee = ClassId::from("employee");
        db.define_class(ClassDef::new("person").attr("address", Type::STRING)).unwrap();
        same(&db);
        db.define_class(
            ClassDef::new("employee")
                .isa("person")
                .attr("salary", Type::temporal(Type::INTEGER))
                .c_attr("headcount", Type::temporal(Type::INTEGER)),
        )
        .unwrap();
        same(&db);
        db.advance_to(Instant(10)).unwrap();
        same(&db);
        let i = db.create_object(&employee, attrs([("salary", Value::Int(1))])).unwrap();
        same(&db);
        // Same-tick overwrite of the run that was just opened.
        db.set_attr(i, &"salary".into(), Value::Int(2)).unwrap();
        same(&db);
        db.set_c_attr(&employee, &"headcount".into(), Value::Int(1)).unwrap();
        same(&db);
        db.tick();
        db.migrate(i, &ClassId::from("person"), crate::Attrs::new()).unwrap();
        same(&db);
        db.migrate(i, &employee, crate::Attrs::new()).unwrap();
        same(&db);
        db.tick();
        db.terminate_object(i).unwrap();
        same(&db);
        db.tick();
        db.drop_class(&employee).unwrap();
        same(&db);
    }

    #[test]
    fn a_tick_changes_the_clock_component_only() {
        let mut db = populated();
        let before = db.state_digest();
        db.tick();
        let d = |clock| before.wrapping_sub(hash_clock(Instant(30))).wrapping_add(hash_clock(clock));
        assert_eq!(db.state_digest(), d(Instant(31)));
        assert_eq!(db.digest_from_scratch(), d(Instant(31)));
    }

    #[test]
    fn clones_carry_the_table_and_diverge_independently() {
        let mut db = populated();
        let warm = db.state_digest();
        let mut shadow = db.clone();
        assert!(shadow.digest.lock().is_some(), "a clone must not go cold");
        let i = shadow
            .create_object(&ClassId::from("person"), attrs([("address", Value::str("Pisa"))]))
            .unwrap();
        assert_eq!(shadow.state_digest(), shadow.digest_from_scratch());
        assert_ne!(shadow.state_digest(), warm);
        // The original saw none of it.
        assert_eq!(db.state_digest(), warm);
        db.tick();
        assert_eq!(db.state_digest(), db.digest_from_scratch());
        assert!(db.object(i).is_err());
        // An imported state starts cold.
        let back = Database::import_state(db.export_state()).unwrap();
        assert!(back.digest.lock().is_none());
        assert_eq!(back.state_digest(), db.state_digest());
    }

    #[test]
    fn scrub_drops_a_table_that_disagrees_with_the_walk() {
        let mut db = populated();
        let mut report = crate::ScrubReport::default();
        // Cold: nothing to verify, nothing to corrupt.
        assert!(!db.digest_corrupt_for_test(5));
        db.scrub_digest_table(db.digest_from_scratch(), &mut report);
        assert_eq!(report.steps, 0);
        let healthy = db.state_digest();
        db.scrub_digest_table(db.digest_from_scratch(), &mut report);
        assert!(report.clean() && report.steps == 1);
        assert!(db.digest_corrupt_for_test(5));
        assert_ne!(db.state_digest(), healthy);
        db.scrub_digest_table(db.digest_from_scratch(), &mut report);
        assert_eq!(report.divergences, 1);
        assert_eq!(report.findings, vec![crate::ScrubFinding::DigestTable]);
        assert!(report.fully_repaired());
        assert_eq!(db.state_digest(), healthy);
    }

    #[test]
    fn import_rejects_corrupt_images() {
        let db = populated();
        // Duplicate oid.
        let mut s = db.export_state();
        let dup = s.objects[0].clone();
        s.objects.push(dup);
        assert!(matches!(
            Database::import_state(s),
            Err(StateError::Corrupt("duplicate oid"))
        ));
        // A gap: the table would hold no object at the missing oid.
        let mut s = db.export_state();
        s.objects.remove(0);
        assert!(matches!(
            Database::import_state(s),
            Err(StateError::Corrupt("gap in oids"))
        ));
        // Two objects swapped: oid 0 is there, but after oid 1.
        let mut s = db.export_state();
        s.objects.swap(0, 1);
        assert!(matches!(
            Database::import_state(s),
            Err(StateError::Corrupt("oids out of order"))
        ));
        // Oid beyond next_oid.
        let mut s = db.export_state();
        s.next_oid = 0;
        assert!(matches!(
            Database::import_state(s),
            Err(StateError::Corrupt("next_oid is not the object count"))
        ));
        // next_oid beyond the object count: the next creation would have
        // no table slot to fill.
        let mut s = db.export_state();
        s.next_oid += 1;
        assert!(matches!(
            Database::import_state(s),
            Err(StateError::Corrupt("next_oid is not the object count"))
        ));
        // The same oid twice in one extent.
        let mut s = db.export_state();
        let dup = s.classes[0].ext[0].clone();
        s.classes[0].ext.push(dup);
        assert!(matches!(
            Database::import_state(s),
            Err(StateError::Corrupt("duplicate oid in membership"))
        ));
        // (An ill-formed history or attribute record cannot be put in an
        // image at all: the codec's decoder is where those are refused.)
        let err = StateError::Corrupt("x");
        assert!(err.to_string().contains("corrupt"));
    }
}
