//! Counting wrappers around the program's two pluggable boundaries: the
//! [`Vfs`] (device) and the replication [`Transport`] (wire). They count
//! calls, bytes and time per method and hand every timed call to the
//! tracer as an event, without changing what the wrapped object does.

use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use tchimera_storage::{Transport, Vfs, VfsFile};

use crate::trace::Event;

/// Events seen since the last drain, shared by a wrapper and its files.
#[derive(Clone, Default)]
pub struct EventLog(Arc<Mutex<Vec<Event>>>);

impl EventLog {
    fn push(&self, name: &'static str, start: Instant) {
        let end = Instant::now();
        self.0
            .lock()
            .expect("event log lock poisoned")
            .push((name, start, end));
    }

    /// Take the events recorded so far.
    pub fn drain(&self) -> Vec<Event> {
        std::mem::take(&mut *self.0.lock().expect("event log lock poisoned"))
    }
}

/// Device totals (calls and bytes; the time of each call goes to the
/// event log). Statistics only, so relaxed atomics suffice.
#[derive(Default)]
pub struct VfsCounts {
    pub writes: AtomicU64,
    pub write_bytes: AtomicU64,
    pub fsyncs: AtomicU64,
    pub dir_syncs: AtomicU64,
    pub reads: AtomicU64,
    pub read_bytes: AtomicU64,
}

/// The per-layer metric each slot of [`VfsCounts::totals`] feeds.
pub const VFS_METRICS: [&str; 6] = [
    "storage.vfs.writes",
    "storage.vfs.write_bytes",
    "storage.vfs.fsyncs",
    "storage.vfs.dir_syncs",
    "storage.vfs.reads",
    "storage.vfs.read_bytes",
];

impl VfsCounts {
    /// A reading of every total, in [`VFS_METRICS`] order.
    pub fn totals(&self) -> [u64; 6] {
        [
            &self.writes,
            &self.write_bytes,
            &self.fsyncs,
            &self.dir_syncs,
            &self.reads,
            &self.read_bytes,
        ]
        .map(|c| c.load(Relaxed))
    }
}

/// A [`Vfs`] that counts and times what passes through it.
pub struct CountingVfs {
    inner: Arc<dyn Vfs>,
    counts: Arc<VfsCounts>,
    events: EventLog,
}

impl CountingVfs {
    /// A wrapper that adds to totals and an event log it shares with
    /// others (a primary's and its replica's filesystems feed one trace).
    pub fn with_shared(
        inner: Arc<dyn Vfs>,
        counts: Arc<VfsCounts>,
        events: EventLog,
    ) -> CountingVfs {
        CountingVfs {
            inner,
            counts,
            events,
        }
    }

    fn wrap(&self, file: Box<dyn VfsFile>) -> Box<dyn VfsFile> {
        Box::new(CountingFile {
            inner: file,
            counts: Arc::clone(&self.counts),
            events: self.events.clone(),
        })
    }
}

struct CountingFile {
    inner: Box<dyn VfsFile>,
    counts: Arc<VfsCounts>,
    events: EventLog,
}

impl VfsFile for CountingFile {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        let start = Instant::now();
        let r = self.inner.write_all(buf);
        self.counts.writes.fetch_add(1, Relaxed);
        self.counts.write_bytes.fetch_add(buf.len() as u64, Relaxed);
        self.events.push("storage.vfs.write", start);
        r
    }

    fn sync(&mut self) -> io::Result<()> {
        let start = Instant::now();
        let r = self.inner.sync();
        self.counts.fsyncs.fetch_add(1, Relaxed);
        self.events.push("storage.vfs.fsync", start);
        r
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        self.inner.set_len(len)
    }
}

impl Vfs for CountingVfs {
    fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        self.inner.open_append(path).map(|f| self.wrap(f))
    }

    fn open_trunc(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        self.inner.open_trunc(path).map(|f| self.wrap(f))
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let start = Instant::now();
        let r = self.inner.read(path);
        self.counts.reads.fetch_add(1, Relaxed);
        if let Ok(buf) = &r {
            self.counts.read_bytes.fetch_add(buf.len() as u64, Relaxed);
        }
        self.events.push("storage.vfs.read", start);
        r
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.inner.rename(from, to)
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        self.inner.remove(path)
    }

    fn sync_dir(&self, path: &Path) -> io::Result<()> {
        let start = Instant::now();
        let r = self.inner.sync_dir(path);
        self.counts.dir_syncs.fetch_add(1, Relaxed);
        self.events.push("storage.vfs.fsync", start);
        r
    }

    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }
}

/// Wire totals of one transport endpoint.
#[derive(Default)]
pub struct WireCounts {
    pub frames: AtomicU64,
    pub wire_bytes: AtomicU64,
}

/// A [`Transport`] endpoint that counts the frames it sends. Timing is
/// taken only when `timed` (the traced pass): the same wrapper type
/// serves both passes, so `Primary<_>` and `Replica<_>` have one type.
pub struct CountingTransport<T: Transport> {
    inner: T,
    counts: Arc<WireCounts>,
    events: Option<EventLog>,
}

impl<T: Transport> CountingTransport<T> {
    /// Wrap `inner`; pass an event log to time sends and receives.
    pub fn new(
        inner: T,
        counts: Arc<WireCounts>,
        events: Option<EventLog>,
    ) -> CountingTransport<T> {
        CountingTransport {
            inner,
            counts,
            events,
        }
    }
}

impl<T: Transport> Transport for CountingTransport<T> {
    fn send(&mut self, frame: Vec<u8>) {
        self.counts.frames.fetch_add(1, Relaxed);
        self.counts
            .wire_bytes
            .fetch_add(frame.len() as u64, Relaxed);
        match &self.events {
            Some(ev) => {
                let start = Instant::now();
                self.inner.send(frame);
                ev.push("storage.repl.transport", start);
            }
            None => self.inner.send(frame),
        }
    }

    fn recv(&mut self) -> Option<Vec<u8>> {
        match &self.events {
            Some(ev) => {
                let start = Instant::now();
                let r = self.inner.recv();
                ev.push("storage.repl.transport", start);
                r
            }
            None => self.inner.recv(),
        }
    }

    fn tick(&mut self) {
        self.inner.tick();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use tchimera_core::{attrs, ClassDef, ClassId, Instant as T, Type, Value};
    use tchimera_storage::{
        PersistentDatabase, Primary, Replica, SimFs, SimNetConfig, SimTransport,
    };

    /// A small scripted history: schema, creates, updates, a checkpoint in
    /// the middle (snapshot + compaction go through the Vfs too).
    fn drive(pdb: &mut PersistentDatabase) {
        pdb.define_class(ClassDef::new("c").attr("v", Type::temporal(Type::INTEGER)))
            .unwrap();
        pdb.advance_to(T(1)).unwrap();
        let c = ClassId::from("c");
        for i in 0..40i64 {
            let oid = pdb
                .create_object(&c, attrs([("v", Value::Int(i))]))
                .unwrap();
            pdb.tick().unwrap();
            pdb.set_attr(oid, &"v".into(), Value::Int(-i)).unwrap();
            if i == 20 {
                pdb.checkpoint().unwrap();
            }
            if i % 7 == 0 {
                pdb.sync().unwrap();
            }
        }
        pdb.sync().unwrap();
    }

    #[test]
    fn counting_vfs_changes_no_observable_result() {
        let path = PathBuf::from("db.log");
        let bare = SimFs::new();
        let mut a = PersistentDatabase::open_with(Arc::new(bare.clone()), &path).unwrap();
        drive(&mut a);

        let under = SimFs::new();
        let (counts, events): (Arc<VfsCounts>, EventLog) = Default::default();
        let counting =
            CountingVfs::with_shared(Arc::new(under.clone()), Arc::clone(&counts), events.clone());
        let mut b = PersistentDatabase::open_with(Arc::new(counting), &path).unwrap();
        drive(&mut b);

        assert_eq!(a.state_digest(), b.state_digest());
        assert_eq!(
            bare.contents(&path),
            under.contents(&path),
            "log bytes differ"
        );
        let snap = tchimera_storage::snapshot_path(&path);
        assert_eq!(
            bare.contents(&snap),
            under.contents(&snap),
            "snapshot bytes differ"
        );

        // And it did count: one write per logged op at least, the syncs,
        // the directory syncs of create + snapshot install + compaction.
        assert!(counts.writes.load(Relaxed) >= 80);
        assert!(counts.write_bytes.load(Relaxed) > 0);
        assert!(counts.fsyncs.load(Relaxed) >= 7);
        assert!(counts.dir_syncs.load(Relaxed) >= 3);
        assert!(counts.reads.load(Relaxed) >= 1);
        let ev = events.drain();
        assert!(ev.iter().any(|e| e.0 == "storage.vfs.fsync"));
        assert!(ev.iter().all(|e| e.2 >= e.1));
        assert!(events.drain().is_empty(), "drain empties the log");
    }

    fn ship(wrap: bool) -> (u64, u64, Arc<WireCounts>) {
        let open = |name: &str| {
            PersistentDatabase::open_with(Arc::new(SimFs::new()), &PathBuf::from(name)).unwrap()
        };
        let (pt, rt) = SimTransport::pair(9, SimNetConfig::clean());
        let counts: Arc<WireCounts> = Arc::default();
        let events = wrap.then(EventLog::default);
        let mut primary = Primary::new(
            open("p.log"),
            1,
            CountingTransport::new(pt, Arc::clone(&counts), events.clone()),
        );
        let mut replica = Replica::new(
            open("r.log"),
            CountingTransport::new(rt, Arc::default(), events),
        );
        drive(primary.db());
        for _ in 0..4 {
            primary.pump().unwrap();
            replica.pump().unwrap();
        }
        assert!(replica.halted().is_none());
        (
            primary.db_ref().state_digest(),
            replica.db_ref().state_digest(),
            counts,
        )
    }

    #[test]
    fn counting_transport_changes_no_observable_result() {
        // Reference: the bare SimTransport.
        let open = |name: &str| {
            PersistentDatabase::open_with(Arc::new(SimFs::new()), &PathBuf::from(name)).unwrap()
        };
        let (pt, rt) = SimTransport::pair(9, SimNetConfig::clean());
        let mut primary = Primary::new(open("p.log"), 1, pt);
        let mut replica = Replica::new(open("r.log"), rt);
        drive(primary.db());
        for _ in 0..4 {
            primary.pump().unwrap();
            replica.pump().unwrap();
        }
        let bare = (
            primary.db_ref().state_digest(),
            replica.db_ref().state_digest(),
        );
        assert_eq!(bare.0, bare.1);

        for timed in [false, true] {
            let (p, r, counts) = ship(timed);
            assert_eq!((p, r), bare, "timed={timed}");
            assert!(
                counts.frames.load(Relaxed) >= 4,
                "a batch and heartbeats were sent"
            );
            assert!(counts.wire_bytes.load(Relaxed) > 0);
        }
    }
}
