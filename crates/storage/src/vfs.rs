//! The pluggable I/O layer.
//!
//! Every durable byte the storage crate touches flows through the [`Vfs`]
//! trait: the log, snapshots, renames and directory syncs. [`StdFs`] maps
//! the operations onto the real filesystem; [`SimFs`] is a deterministic
//! in-memory filesystem with fault injection, built for the crash-matrix
//! tests — it can fail at the Nth mutating operation, drop un-synced data
//! on a simulated crash, tear the last un-synced write at a byte offset,
//! and flip arbitrary bits.
//!
//! # The SimFs durability model
//!
//! `SimFs` models exactly the guarantees POSIX gives a careful writer:
//!
//! * written bytes live in the page cache until the **file** is synced —
//!   a crash may keep all, part, or none of them;
//! * a created or renamed *name* lives in the directory until the
//!   **directory** is synced — a crash may revert it;
//! * `sync` on a file makes its current content durable; `sync_dir` on
//!   the parent makes the current name→inode mapping durable;
//! * nothing ever un-happens once both syncs completed.
//!
//! A simulated crash ([`SimFs::crash`]) rewinds every file to its last
//! synced content plus a [`TearMode`]-controlled amount of the un-synced
//! suffix, and rewinds the namespace to the last directory sync.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// An open writable file handle.
pub trait VfsFile: Send {
    /// Append `buf` at the end of the file (all files are append-written).
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()>;
    /// Make the file *content* durable (fsync). Does not make a freshly
    /// created name durable — that needs [`Vfs::sync_dir`] on the parent.
    fn sync(&mut self) -> io::Result<()>;
    /// Truncate the file to `len` bytes.
    fn set_len(&mut self, len: u64) -> io::Result<()>;
}

/// A minimal filesystem interface: everything the durability layer needs,
/// nothing more.
pub trait Vfs: Send + Sync {
    /// Open `path` for appending, creating it if absent.
    fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>>;
    /// Open `path` truncated to zero length, creating it if absent.
    fn open_trunc(&self, path: &Path) -> io::Result<Box<dyn VfsFile>>;
    /// Read the full content of `path`.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;
    /// Read the content of `path` from byte `offset` to its end (empty
    /// when `offset` is at or past the end). The default reads the whole
    /// file and drops the prefix, so an implementor only has to provide
    /// [`Vfs::read`]; [`StdFs`] and [`SimFs`] touch the suffix alone.
    fn read_from(&self, path: &Path, offset: u64) -> io::Result<Vec<u8>> {
        let mut buf = self.read(path)?;
        let skip = usize::try_from(offset).map_or(buf.len(), |n| n.min(buf.len()));
        buf.drain(..skip);
        Ok(buf)
    }
    /// Atomically rename `from` to `to` (replacing `to` if present). The
    /// rename is durable only after [`Vfs::sync_dir`] on the parent.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Remove `path`.
    fn remove(&self, path: &Path) -> io::Result<()>;
    /// Fsync the directory at `path`, making name changes under it
    /// (creates, renames, removes) durable.
    fn sync_dir(&self, path: &Path) -> io::Result<()>;
    /// `true` if `path` currently exists.
    fn exists(&self, path: &Path) -> bool;
}

// ---------------------------------------------------------------------
// StdFs
// ---------------------------------------------------------------------

/// The real filesystem.
#[derive(Clone, Copy, Debug, Default)]
pub struct StdFs;

struct StdFile(File);

impl VfsFile for StdFile {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        self.0.write_all(buf)
    }
    fn sync(&mut self) -> io::Result<()> {
        self.0.flush()?;
        self.0.sync_data()
    }
    fn set_len(&mut self, len: u64) -> io::Result<()> {
        self.0.set_len(len)
    }
}

impl Vfs for StdFs {
    fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        let f = OpenOptions::new().create(true).append(true).open(path)?;
        Ok(Box::new(StdFile(f)))
    }
    fn open_trunc(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        let f = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(path)?;
        Ok(Box::new(StdFile(f)))
    }
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }
    fn read_from(&self, path: &Path, offset: u64) -> io::Result<Vec<u8>> {
        let mut f = File::open(path)?;
        f.seek(SeekFrom::Start(offset))?;
        let mut buf = Vec::new();
        f.read_to_end(&mut buf)?;
        Ok(buf)
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }
    fn remove(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }
    fn sync_dir(&self, path: &Path) -> io::Result<()> {
        // Directory fsync: open the directory and sync it. On platforms
        // where directories cannot be opened (Windows), degrade to a no-op
        // — rename durability is then platform best-effort.
        match File::open(path) {
            Ok(d) => d.sync_all(),
            Err(_) => Ok(()),
        }
    }
    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }
}

// ---------------------------------------------------------------------
// SimFs
// ---------------------------------------------------------------------

/// How much of the un-synced data survives a simulated crash.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TearMode {
    /// All un-synced writes are lost (content reverts to the last sync).
    DropAll,
    /// Un-synced writes are applied except the last, which is torn at
    /// half its byte length — the classic partially-flushed page.
    KeepHalf,
    /// All un-synced writes survive (they reached the platter but were
    /// never acknowledged).
    KeepAll,
}

/// One un-synced mutation of a file's content.
#[derive(Clone, Debug)]
enum Pending {
    Write(Vec<u8>),
    SetLen(u64),
}

#[derive(Clone, Debug, Default)]
struct Inode {
    /// Content as the application sees it (all writes applied).
    live: Vec<u8>,
    /// Content as of the last file sync.
    synced: Vec<u8>,
    /// Mutations since the last sync, in order.
    pending: Vec<Pending>,
}

impl Inode {
    fn apply(content: &mut Vec<u8>, p: &Pending, keep: Option<usize>) {
        match p {
            Pending::Write(data) => {
                let n = keep.unwrap_or(data.len()).min(data.len());
                content.extend_from_slice(&data[..n]);
            }
            Pending::SetLen(len) => content.truncate(*len as usize),
        }
    }

    /// The on-disk content after a crash under `tear`.
    fn crashed(&self, tear: TearMode) -> Vec<u8> {
        let mut content = self.synced.clone();
        match tear {
            TearMode::DropAll => {}
            TearMode::KeepAll => {
                for p in &self.pending {
                    Self::apply(&mut content, p, None);
                }
            }
            TearMode::KeepHalf => {
                for (k, p) in self.pending.iter().enumerate() {
                    let last = k + 1 == self.pending.len();
                    let keep = match p {
                        Pending::Write(d) if last => Some(d.len() / 2),
                        _ => None,
                    };
                    Self::apply(&mut content, p, keep);
                }
            }
        }
        content
    }
}

#[derive(Debug, Default)]
struct SimState {
    inodes: HashMap<u64, Inode>,
    /// The namespace as the application sees it.
    live_names: HashMap<PathBuf, u64>,
    /// The namespace as of the last directory sync.
    durable_names: HashMap<PathBuf, u64>,
    next_inode: u64,
    /// Mutating operations performed so far.
    ops_done: u64,
    /// Fail every mutating operation once `ops_done` reaches this.
    fail_after: Option<u64>,
    /// Fail every mutating operation with `ENOSPC` ("disk full") once
    /// `ops_done` reaches this, until cleared — the disk stays full
    /// until space is freed, unlike a one-shot fault.
    enospc_after: Option<u64>,
    /// Fail the next this-many mutating operations with a *transient*
    /// error (`ErrorKind::Interrupted`), then recover.
    transient_left: u64,
    /// Generation counter: bumped on crash so stale handles error out.
    generation: u64,
}

impl SimState {
    /// Gate a mutating operation: count it, or fail it. Transient faults
    /// (a bounded run of `Interrupted` errors) are checked first so a
    /// retry loop can observe the disk "healing".
    fn mutating_op(&mut self) -> io::Result<()> {
        if self.transient_left > 0 {
            self.transient_left -= 1;
            tchimera_obs::counter!("storage.simfs.faults").inc();
            return Err(io::Error::new(
                io::ErrorKind::Interrupted,
                "simulated transient I/O fault",
            ));
        }
        if let Some(n) = self.fail_after {
            if self.ops_done >= n {
                tchimera_obs::counter!("storage.simfs.faults").inc();
                return Err(io::Error::other("simulated I/O fault"));
            }
        }
        if let Some(n) = self.enospc_after {
            if self.ops_done >= n {
                tchimera_obs::counter!("storage.simfs.faults").inc();
                // Raw errno so `FaultKind::of_io` sees a real ENOSPC
                // (ErrorKind::StorageFull is unstable on our MSRV).
                return Err(io::Error::from_raw_os_error(28));
            }
        }
        self.ops_done += 1;
        Ok(())
    }
}

/// A deterministic in-memory filesystem with fault injection. Clones
/// share the same state; handles opened before a [`SimFs::crash`] return
/// errors afterwards (the process that held them is "dead").
#[derive(Clone, Default)]
pub struct SimFs(Arc<Mutex<SimState>>);

impl SimFs {
    /// A fresh, empty filesystem.
    #[must_use]
    pub fn new() -> SimFs {
        SimFs::default()
    }

    /// Total mutating operations performed so far (writes, syncs,
    /// truncates, creates, renames, removes, dir syncs). Reads are free.
    pub fn op_count(&self) -> u64 {
        self.0.lock().unwrap().ops_done
    }

    /// Let `n` further mutating operations succeed, then fail every one
    /// after that with an I/O error (the disk "dies"). `n` counts from
    /// the current [`SimFs::op_count`]. Pass `None` to clear.
    pub fn fail_after(&self, n: Option<u64>) {
        let mut s = self.0.lock().unwrap();
        s.fail_after = n.map(|n| s.ops_done + n);
    }

    /// Let `n` further mutating operations succeed, then fail every one
    /// after that with `ENOSPC` — the disk is full and *stays* full until
    /// space is freed (pass `None` to clear, as a compaction or operator
    /// clean-up would). `ENOSPC` classifies as a transient
    /// [`FaultKind`](crate::resilience::FaultKind), so bounded retry and
    /// the breaker's half-open probe handle the recovery.
    pub fn fail_enospc_after(&self, n: Option<u64>) {
        let mut s = self.0.lock().unwrap();
        s.enospc_after = n.map(|n| s.ops_done + n);
    }

    /// Fail the next `n` mutating operations with a *transient* error
    /// (`ErrorKind::Interrupted`) and then let traffic through again —
    /// the momentary blip a bounded-retry policy exists for. Transient
    /// faults do not advance [`SimFs::op_count`] and are checked before
    /// any [`SimFs::fail_after`] schedule.
    pub fn fail_transient_next(&self, n: u64) {
        self.0.lock().unwrap().transient_left = n;
    }

    /// Simulate a whole-machine crash: un-synced file content is dropped
    /// (per `tear`), the namespace rewinds to the last directory sync,
    /// every open handle goes stale, and injected faults are cleared —
    /// the next open sees the disk exactly as a rebooted process would.
    pub fn crash(&self, tear: TearMode) {
        tchimera_obs::counter!("storage.simfs.crashes").inc();
        let mut s = self.0.lock().unwrap();
        s.generation += 1;
        s.fail_after = None;
        s.enospc_after = None;
        s.transient_left = 0;
        let mut inodes = HashMap::new();
        let durable = s.durable_names.clone();
        for &ino in durable.values() {
            if let Some(inode) = s.inodes.get(&ino) {
                let content = inode.crashed(tear);
                inodes.insert(
                    ino,
                    Inode {
                        live: content.clone(),
                        synced: content,
                        pending: Vec::new(),
                    },
                );
            }
        }
        s.inodes = inodes;
        s.live_names = durable;
    }

    /// Flip the bits selected by `mask` in byte `offset` of `path`'s
    /// current content (both live and synced images — modelling media
    /// corruption, not a lost write).
    pub fn corrupt_byte(&self, path: &Path, offset: usize, mask: u8) -> io::Result<()> {
        let mut s = self.0.lock().unwrap();
        let ino = *s
            .live_names
            .get(path)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "no such file"))?;
        let inode = s.inodes.get_mut(&ino).expect("named inode exists");
        if offset >= inode.live.len() {
            return Err(io::Error::new(io::ErrorKind::InvalidInput, "offset past EOF"));
        }
        inode.live[offset] ^= mask;
        if offset < inode.synced.len() {
            inode.synced[offset] ^= mask;
        }
        Ok(())
    }

    /// The current content of `path` as the application sees it.
    pub fn contents(&self, path: &Path) -> Option<Vec<u8>> {
        let s = self.0.lock().unwrap();
        let ino = s.live_names.get(path)?;
        Some(s.inodes[ino].live.clone())
    }
}

struct SimFile {
    fs: Arc<Mutex<SimState>>,
    ino: u64,
    generation: u64,
}

impl SimFile {
    fn with_inode<R>(
        &mut self,
        f: impl FnOnce(&mut Inode) -> R,
    ) -> io::Result<R> {
        let mut s = self.fs.lock().unwrap();
        if s.generation != self.generation {
            return Err(io::Error::other("stale handle: filesystem crashed"));
        }
        s.mutating_op()?;
        let ino = self.ino;
        Ok(f(s.inodes.get_mut(&ino).expect("inode exists")))
    }
}

impl VfsFile for SimFile {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        self.with_inode(|inode| {
            inode.live.extend_from_slice(buf);
            inode.pending.push(Pending::Write(buf.to_vec()));
        })
    }
    fn sync(&mut self) -> io::Result<()> {
        self.with_inode(|inode| {
            inode.synced = inode.live.clone();
            inode.pending.clear();
        })
    }
    fn set_len(&mut self, len: u64) -> io::Result<()> {
        self.with_inode(|inode| {
            inode.live.truncate(len as usize);
            inode.pending.push(Pending::SetLen(len));
        })
    }
}

impl SimFs {
    /// Open (creating if needed) and return `(inode, generation)`.
    fn open_impl(&self, path: &Path, truncate: bool) -> io::Result<(u64, u64)> {
        let mut s = self.0.lock().unwrap();
        match s.live_names.get(path).copied() {
            Some(ino) => {
                if truncate {
                    s.mutating_op()?;
                    let inode = s.inodes.get_mut(&ino).expect("named inode");
                    inode.live.clear();
                    inode.pending.push(Pending::SetLen(0));
                }
                Ok((ino, s.generation))
            }
            None => {
                s.mutating_op()?;
                let ino = s.next_inode;
                s.next_inode += 1;
                s.inodes.insert(ino, Inode::default());
                s.live_names.insert(path.to_path_buf(), ino);
                Ok((ino, s.generation))
            }
        }
    }
}

impl Vfs for SimFs {
    fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        let (ino, generation) = self.open_impl(path, false)?;
        Ok(Box::new(SimFile {
            fs: Arc::clone(&self.0),
            ino,
            generation,
        }))
    }
    fn open_trunc(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        let (ino, generation) = self.open_impl(path, true)?;
        Ok(Box::new(SimFile {
            fs: Arc::clone(&self.0),
            ino,
            generation,
        }))
    }
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.read_from(path, 0)
    }
    fn read_from(&self, path: &Path, offset: u64) -> io::Result<Vec<u8>> {
        let s = self.0.lock().unwrap();
        let ino = s
            .live_names
            .get(path)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "no such file"))?;
        let live = &s.inodes[ino].live;
        let skip = usize::try_from(offset).map_or(live.len(), |n| n.min(live.len()));
        Ok(live[skip..].to_vec())
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let mut s = self.0.lock().unwrap();
        s.mutating_op()?;
        let ino = s
            .live_names
            .remove(from)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "no such file"))?;
        s.live_names.insert(to.to_path_buf(), ino);
        Ok(())
    }
    fn remove(&self, path: &Path) -> io::Result<()> {
        let mut s = self.0.lock().unwrap();
        s.mutating_op()?;
        s.live_names
            .remove(path)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "no such file"))?;
        Ok(())
    }
    fn sync_dir(&self, _path: &Path) -> io::Result<()> {
        // A single flat directory: dir sync makes the whole namespace
        // durable. Inodes newly reachable keep their (possibly un-synced)
        // content semantics — only the *names* become durable here.
        let mut s = self.0.lock().unwrap();
        s.mutating_op()?;
        s.durable_names = s.live_names.clone();
        Ok(())
    }
    fn exists(&self, path: &Path) -> bool {
        self.0.lock().unwrap().live_names.contains_key(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> PathBuf {
        PathBuf::from(s)
    }

    #[test]
    fn write_sync_read_round_trip() {
        let fs = SimFs::new();
        let mut f = fs.open_append(&p("a")).unwrap();
        f.write_all(b"hello").unwrap();
        f.sync().unwrap();
        assert_eq!(fs.read(&p("a")).unwrap(), b"hello");
        assert!(fs.exists(&p("a")));
        assert!(!fs.exists(&p("b")));
    }

    #[test]
    fn crash_drops_unsynced_content() {
        let fs = SimFs::new();
        let mut f = fs.open_append(&p("a")).unwrap();
        f.write_all(b"durable").unwrap();
        f.sync().unwrap();
        fs.sync_dir(&p(".")).unwrap();
        f.write_all(b" lost").unwrap();
        fs.crash(TearMode::DropAll);
        assert_eq!(fs.read(&p("a")).unwrap(), b"durable");
        // The old handle is dead.
        assert!(f.write_all(b"x").is_err());
    }

    #[test]
    fn tear_modes_keep_the_advertised_amount() {
        for (tear, expect) in [
            (TearMode::DropAll, &b"base"[..]),
            (TearMode::KeepHalf, &b"baseab12"[..]),
            (TearMode::KeepAll, &b"baseab1234"[..]),
        ] {
            let fs = SimFs::new();
            let mut f = fs.open_append(&p("a")).unwrap();
            f.write_all(b"base").unwrap();
            f.sync().unwrap();
            fs.sync_dir(&p(".")).unwrap();
            f.write_all(b"ab").unwrap();
            f.write_all(b"1234").unwrap();
            fs.crash(tear);
            assert_eq!(fs.read(&p("a")).unwrap(), expect, "{tear:?}");
        }
    }

    #[test]
    fn unsynced_create_is_lost_synced_create_survives() {
        let fs = SimFs::new();
        let mut f = fs.open_append(&p("kept")).unwrap();
        f.write_all(b"x").unwrap();
        f.sync().unwrap();
        fs.sync_dir(&p(".")).unwrap();
        let mut g = fs.open_append(&p("lost")).unwrap();
        g.write_all(b"y").unwrap();
        g.sync().unwrap(); // file synced, but the *name* never was
        fs.crash(TearMode::KeepAll);
        assert!(fs.exists(&p("kept")));
        assert!(!fs.exists(&p("lost")), "unsynced directory entry survived");
    }

    #[test]
    fn rename_durability_follows_dir_sync() {
        let fs = SimFs::new();
        let mut f = fs.open_append(&p("tmp")).unwrap();
        f.write_all(b"v2").unwrap();
        f.sync().unwrap();
        fs.sync_dir(&p(".")).unwrap();
        fs.rename(&p("tmp"), &p("final")).unwrap();
        // Crash before dir sync: the rename rolls back.
        fs.crash(TearMode::KeepAll);
        assert!(fs.exists(&p("tmp")));
        assert!(!fs.exists(&p("final")));
        // Redo with the dir sync: the rename sticks.
        fs.rename(&p("tmp"), &p("final")).unwrap();
        fs.sync_dir(&p(".")).unwrap();
        fs.crash(TearMode::DropAll);
        assert!(fs.exists(&p("final")));
        assert_eq!(fs.read(&p("final")).unwrap(), b"v2");
    }

    #[test]
    fn fail_after_injects_deterministic_faults() {
        let fs = SimFs::new();
        let mut f = fs.open_append(&p("a")).unwrap(); // op 1 (create)
        f.write_all(b"one").unwrap(); // op 2
        fs.fail_after(Some(1));
        f.write_all(b"two").unwrap(); // op 3: allowed
        assert!(f.write_all(b"three").is_err());
        assert!(f.sync().is_err());
        assert!(fs.sync_dir(&p(".")).is_err());
        assert_eq!(fs.op_count(), 3);
        fs.fail_after(None);
        f.sync().unwrap();
        assert_eq!(fs.read(&p("a")).unwrap(), b"onetwo");
    }

    #[test]
    fn fail_transient_next_injects_a_bounded_run_of_interrupted_errors() {
        let fs = SimFs::new();
        let mut f = fs.open_append(&p("a")).unwrap();
        f.write_all(b"one").unwrap();
        let before = fs.op_count();
        fs.fail_transient_next(2);
        for _ in 0..2 {
            let err = f.write_all(b"x").unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::Interrupted);
        }
        assert_eq!(fs.op_count(), before, "transient faults don't consume ops");
        f.write_all(b"two").unwrap();
        f.sync().unwrap();
        assert_eq!(fs.read(&p("a")).unwrap(), b"onetwo");
    }

    #[test]
    fn corrupt_byte_flips_bits() {
        let fs = SimFs::new();
        let mut f = fs.open_append(&p("a")).unwrap();
        f.write_all(&[0x00, 0xff]).unwrap();
        f.sync().unwrap();
        fs.corrupt_byte(&p("a"), 0, 0x81).unwrap();
        assert_eq!(fs.read(&p("a")).unwrap(), vec![0x81, 0xff]);
        assert!(fs.corrupt_byte(&p("a"), 99, 1).is_err());
        assert!(fs.corrupt_byte(&p("ghost"), 0, 1).is_err());
    }

    #[test]
    fn set_len_participates_in_crash_semantics() {
        let fs = SimFs::new();
        let mut f = fs.open_append(&p("a")).unwrap();
        f.write_all(b"0123456789").unwrap();
        f.sync().unwrap();
        fs.sync_dir(&p(".")).unwrap();
        f.set_len(4).unwrap();
        assert_eq!(fs.read(&p("a")).unwrap(), b"0123");
        // The truncate was never synced: a crash undoes it.
        fs.crash(TearMode::DropAll);
        assert_eq!(fs.read(&p("a")).unwrap(), b"0123456789");
    }

    #[test]
    fn std_fs_smoke() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("tchimera-vfs-{}", std::process::id()));
        let fs = StdFs;
        let mut f = fs.open_trunc(&path).unwrap();
        f.write_all(b"abc").unwrap();
        f.sync().unwrap();
        drop(f);
        fs.sync_dir(&dir).unwrap();
        assert!(fs.exists(&path));
        assert_eq!(fs.read(&path).unwrap(), b"abc");
        let mut f = fs.open_append(&path).unwrap();
        f.write_all(b"def").unwrap();
        f.set_len(4).unwrap();
        drop(f);
        assert_eq!(fs.read(&path).unwrap(), b"abcd");
        fs.remove(&path).unwrap();
        assert!(!fs.exists(&path));
    }
}
