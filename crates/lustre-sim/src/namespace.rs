//! The distributed namespace: inodes, MDT placement, metadata operations,
//! and `fid2path`.
//!
//! Every metadata operation mutates the inode table, appends a record to
//! the changelog of the MDT that would own the operation in a real DNE
//! deployment, advances the simulated clock, and charges the operation's
//! wall-clock cost model (the throttle that reproduces the paper's
//! per-testbed baseline generation rates, Table V).

use crate::changelog::Changelog;
use crate::clock::SimClock;
use crate::config::LustreConfig;
use crate::fid::{Fid, FidAllocator};
use crate::ost::{OstPool, StripeLayout};
use crate::record::ChangelogRecord;
use fsmon_events::changelog::{ChangelogKind, ChangelogRename};
use fsmon_faults::{FaultPoint, Faults};
use parking_lot::{Mutex, RwLock};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// What an inode is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileType {
    /// Regular file (has a stripe layout).
    Regular,
    /// Directory (has children; owned by one MDT).
    Directory,
    /// Symbolic link.
    Symlink,
    /// Device node.
    Device,
}

#[derive(Debug)]
struct Inode {
    fid: Fid,
    parent: Fid,
    name: String,
    ftype: FileType,
    mdt: u16,
    children: Option<HashMap<String, Fid>>,
    nlink: u32,
    size: u64,
    mode: u32,
    uid: u32,
    mtime_ns: u64,
    xattrs: HashMap<String, Vec<u8>>,
    layout: Option<StripeLayout>,
    symlink_target: Option<String>,
}

/// Errors returned by namespace operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FsError {
    /// No entry at the given path.
    NotFound(String),
    /// An entry already exists at the target path.
    Exists(String),
    /// A non-directory appeared where a directory was required.
    NotADirectory(String),
    /// A directory appeared where a file was required.
    IsADirectory(String),
    /// `rmdir` on a non-empty directory.
    NotEmpty(String),
    /// The object layer ran out of space.
    NoSpace,
    /// Path is syntactically invalid (empty component, no leading `/`).
    InvalidPath(String),
    /// `fid2path` on a FID that no longer exists (deleted), the error
    /// Algorithm 1 catches.
    Fid2PathFailed(Fid),
    /// A transient fault (injected MDS hiccup): the operation is safe
    /// to retry, unlike [`FsError::Fid2PathFailed`] which is permanent.
    Transient(String),
}

impl std::fmt::Display for FsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FsError::NotFound(p) => write!(f, "no such file or directory: {p}"),
            FsError::Exists(p) => write!(f, "file exists: {p}"),
            FsError::NotADirectory(p) => write!(f, "not a directory: {p}"),
            FsError::IsADirectory(p) => write!(f, "is a directory: {p}"),
            FsError::NotEmpty(p) => write!(f, "directory not empty: {p}"),
            FsError::NoSpace => write!(f, "no space left on device"),
            FsError::InvalidPath(p) => write!(f, "invalid path: {p}"),
            FsError::Fid2PathFailed(fid) => write!(f, "fid2path: cannot resolve {fid}"),
            FsError::Transient(what) => write!(f, "transient fault: {what}"),
        }
    }
}

impl std::error::Error for FsError {}

/// Per-kind operation counters (drives generation-rate measurements).
#[derive(Debug, Default)]
pub struct OpCounters {
    creates: AtomicU64,
    modifies: AtomicU64,
    deletes: AtomicU64,
    others: AtomicU64,
}

impl OpCounters {
    fn bump(&self, kind: ChangelogKind) {
        let c = match kind {
            ChangelogKind::Creat
            | ChangelogKind::Mkdir
            | ChangelogKind::Hlink
            | ChangelogKind::Slink
            | ChangelogKind::Mknod => &self.creates,
            ChangelogKind::Mtime
            | ChangelogKind::Trunc
            | ChangelogKind::Sattr
            | ChangelogKind::Xattr
            | ChangelogKind::Ioctl => &self.modifies,
            ChangelogKind::Unlnk | ChangelogKind::Rmdir => &self.deletes,
            _ => &self.others,
        };
        c.fetch_add(1, Ordering::Relaxed);
    }

    /// `(creates, modifies, deletes, others)` so far.
    pub fn snapshot(&self) -> (u64, u64, u64, u64) {
        (
            self.creates.load(Ordering::Relaxed),
            self.modifies.load(Ordering::Relaxed),
            self.deletes.load(Ordering::Relaxed),
            self.others.load(Ordering::Relaxed),
        )
    }

    /// Total operations recorded.
    pub fn total(&self) -> u64 {
        let (c, m, d, o) = self.snapshot();
        c + m + d + o
    }
}

/// The simulated Lustre file system.
pub struct LustreFs {
    cfg: LustreConfig,
    clock: SimClock,
    inodes: RwLock<HashMap<Fid, Inode>>,
    allocators: Vec<Mutex<FidAllocator>>,
    changelogs: Vec<Arc<Changelog>>,
    osts: OstPool,
    ops: OpCounters,
    fid2path_calls: AtomicU64,
    faults: RwLock<Faults>,
}

impl LustreFs {
    /// Bring up a file system with the given configuration.
    pub fn new(cfg: LustreConfig) -> Arc<LustreFs> {
        assert!(cfg.n_mdt >= 1, "at least one MDT required");
        let mut inodes = HashMap::new();
        inodes.insert(
            Fid::ROOT,
            Inode {
                fid: Fid::ROOT,
                parent: Fid::NULL,
                name: String::new(),
                ftype: FileType::Directory,
                mdt: 0,
                children: Some(HashMap::new()),
                nlink: 2,
                size: 0,
                mode: 0o755,
                uid: 0,
                mtime_ns: 0,
                xattrs: HashMap::new(),
                layout: None,
                symlink_target: None,
            },
        );
        let allocators = (0..cfg.n_mdt)
            .map(|i| Mutex::new(FidAllocator::for_mdt(i)))
            .collect();
        let changelogs = (0..cfg.n_mdt)
            .map(|i| Arc::new(Changelog::new(i, cfg.changelog_capacity)))
            .collect();
        let osts = OstPool::new(cfg.n_oss, cfg.osts_per_oss, cfg.ost_capacity);
        Arc::new(LustreFs {
            cfg,
            clock: SimClock::default(),
            inodes: RwLock::new(inodes),
            allocators,
            changelogs,
            osts,
            ops: OpCounters::default(),
            fid2path_calls: AtomicU64::new(0),
            faults: RwLock::new(Faults::none()),
        })
    }

    /// Arm a fault-injection plane on this file system. MDS-side
    /// operations (`fid2path`, changelog reads and purges) consult it;
    /// the default is unarmed and injects nothing.
    pub fn arm_faults(&self, faults: Faults) {
        *self.faults.write() = faults;
    }

    /// The currently armed fault handle (cheap clone).
    pub fn faults(&self) -> Faults {
        self.faults.read().clone()
    }

    /// The configuration the file system was built with.
    pub fn config(&self) -> &LustreConfig {
        &self.cfg
    }

    /// Number of MDTs.
    pub fn mdt_count(&self) -> u16 {
        self.cfg.n_mdt
    }

    /// Handle to MDT `idx`'s changelog.
    pub fn mdt(self: &Arc<Self>, idx: u16) -> MdtHandle {
        MdtHandle {
            fs: Arc::clone(self),
            changelog: Arc::clone(&self.changelogs[idx as usize]),
        }
    }

    /// A client mount of this file system.
    pub fn client(self: &Arc<Self>) -> crate::client::LustreClient {
        crate::client::LustreClient::new(Arc::clone(self))
    }

    /// The simulated clock.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// The object storage pool.
    pub fn ost_pool(&self) -> &OstPool {
        &self.osts
    }

    /// Operation counters.
    pub fn op_counters(&self) -> &OpCounters {
        &self.ops
    }

    /// Total `fid2path` invocations so far.
    pub fn fid2path_call_count(&self) -> u64 {
        self.fid2path_calls.load(Ordering::Relaxed)
    }

    // ----- path helpers -----

    fn split_path(path: &str) -> Result<Vec<&str>, FsError> {
        if !path.starts_with('/') {
            return Err(FsError::InvalidPath(path.to_string()));
        }
        let comps: Vec<&str> = path.split('/').filter(|c| !c.is_empty()).collect();
        if comps.iter().any(|c| *c == "." || *c == "..") {
            return Err(FsError::InvalidPath(path.to_string()));
        }
        Ok(comps)
    }

    fn split_parent(path: &str) -> Result<(String, String), FsError> {
        let comps = Self::split_path(path)?;
        let (name, parents) = comps
            .split_last()
            .ok_or_else(|| FsError::InvalidPath(path.to_string()))?;
        Ok((format!("/{}", parents.join("/")), name.to_string()))
    }

    /// Resolve a path to its FID.
    pub fn resolve(&self, path: &str) -> Result<Fid, FsError> {
        let comps = Self::split_path(path)?;
        let inodes = self.inodes.read();
        let mut cur = Fid::ROOT;
        for comp in comps {
            let node = inodes
                .get(&cur)
                .ok_or_else(|| FsError::NotFound(path.to_string()))?;
            let children = node
                .children
                .as_ref()
                .ok_or_else(|| FsError::NotADirectory(path.to_string()))?;
            cur = *children
                .get(comp)
                .ok_or_else(|| FsError::NotFound(path.to_string()))?;
        }
        Ok(cur)
    }

    /// `fid2path`: resolve a FID to its absolute path. A successful
    /// resolution charges the full tool cost (a path walk on the MDS);
    /// a failed one — the FID was deleted — charges only the miss cost
    /// of a single index probe. The failure is the error path
    /// Algorithm 1's collectors catch.
    pub fn fid2path(&self, fid: Fid) -> Result<String, FsError> {
        self.fid2path_calls.fetch_add(1, Ordering::Relaxed);
        {
            let faults = self.faults.read();
            // Latency spike: stall, then proceed normally.
            faults.inject_or_delay(FaultPoint::Fid2PathDelay);
            if faults.inject(FaultPoint::Fid2Path).is_some() {
                return Err(FsError::Transient(format!("fid2path {fid}")));
            }
        }
        let walk = || -> Result<String, FsError> {
            let inodes = self.inodes.read();
            let mut parts: Vec<String> = Vec::new();
            let mut cur = fid;
            loop {
                if cur == Fid::ROOT {
                    break;
                }
                let node = inodes.get(&cur).ok_or(FsError::Fid2PathFailed(fid))?;
                parts.push(node.name.clone());
                cur = node.parent;
            }
            parts.reverse();
            Ok(format!("/{}", parts.join("/")))
        };
        match walk() {
            Ok(path) => {
                self.cfg.fid2path_cost.charge();
                Ok(path)
            }
            Err(e) => {
                self.cfg.fid2path_miss_cost.charge();
                Err(e)
            }
        }
    }

    /// Pick the MDT for a new directory: MDT0 for the root's immediate
    /// children mirrors `mdt_index=0` defaults, everything else is
    /// hashed (DNE2 striped-directory style placement).
    fn place_dir(&self, name: &str) -> u16 {
        if self.cfg.n_mdt == 1 {
            return 0;
        }
        let mut h = DefaultHasher::new();
        name.hash(&mut h);
        (h.finish() % self.cfg.n_mdt as u64) as u16
    }

    fn emit(&self, mdt: u16, kind: ChangelogKind, record: ChangelogRecord) -> u64 {
        self.ops.bump(kind);
        self.cfg.cost_for(kind).charge();
        // The changelog_mask suppresses *recording*, not the operation.
        if !self.cfg.changelog_mask.records(kind) {
            return 0;
        }
        self.changelogs[mdt as usize].append(record)
    }

    fn blank_record(
        &self,
        kind: ChangelogKind,
        target: Fid,
        parent: Fid,
        name: &str,
    ) -> ChangelogRecord {
        let time_ns = self.clock.advance(self.cfg.cost_for(kind).ns());
        ChangelogRecord {
            index: 0,
            kind,
            time_ns,
            flags: match kind {
                ChangelogKind::Mtime => 0x7,
                ChangelogKind::Renme => 0x1,
                _ => 0x0,
            },
            target_fid: target,
            parent_fid: parent,
            target_name: name.to_string(),
            rename: None,
            rename_target_name: None,
            mdt_index: 0,
        }
    }

    // ----- metadata operations -----

    /// Create a regular file. Emits `CREAT` (plus `CLOSE` if configured).
    pub fn create(&self, path: &str) -> Result<Fid, FsError> {
        let (parent_path, name) = Self::split_parent(path)?;
        let layout = self
            .osts
            .allocate_layout(self.cfg.default_stripe_count, self.cfg.default_stripe_size)
            .map_err(|_| FsError::NoSpace)?;
        let (fid, parent_fid, mdt) = {
            let parent_fid = self.resolve(&parent_path)?;
            let mut inodes = self.inodes.write();
            let parent = inodes
                .get(&parent_fid)
                .ok_or_else(|| FsError::NotFound(parent_path.clone()))?;
            let mdt = parent.mdt;
            if parent
                .children
                .as_ref()
                .ok_or_else(|| FsError::NotADirectory(parent_path.clone()))?
                .contains_key(&name)
            {
                return Err(FsError::Exists(path.to_string()));
            }
            let fid = self.allocators[mdt as usize].lock().alloc();
            inodes.insert(
                fid,
                Inode {
                    fid,
                    parent: parent_fid,
                    name: name.clone(),
                    ftype: FileType::Regular,
                    mdt,
                    children: None,
                    nlink: 1,
                    size: 0,
                    mode: 0o644,
                    uid: 0,
                    mtime_ns: self.clock.now_ns(),
                    xattrs: HashMap::new(),
                    layout: Some(layout),
                    symlink_target: None,
                },
            );
            let parent = inodes.get_mut(&parent_fid).expect("parent exists");
            parent
                .children
                .as_mut()
                .expect("is dir")
                .insert(name.clone(), fid);
            (fid, parent_fid, mdt)
        };
        let rec = self.blank_record(ChangelogKind::Creat, fid, parent_fid, &name);
        self.emit(mdt, ChangelogKind::Creat, rec);
        if self.cfg.record_close {
            let rec = self.blank_record(ChangelogKind::Close, fid, parent_fid, &name);
            self.emit(mdt, ChangelogKind::Close, rec);
        }
        Ok(fid)
    }

    /// Create a directory. Emits `MKDIR` on the parent's MDT; the new
    /// directory itself may be placed on another MDT (DNE).
    pub fn mkdir(&self, path: &str) -> Result<Fid, FsError> {
        let (parent_path, name) = Self::split_parent(path)?;
        let child_mdt = self.place_dir(&name);
        let (fid, parent_fid, mdt) = {
            let parent_fid = self.resolve(&parent_path)?;
            let mut inodes = self.inodes.write();
            let parent = inodes
                .get(&parent_fid)
                .ok_or_else(|| FsError::NotFound(parent_path.clone()))?;
            let mdt = parent.mdt;
            if parent
                .children
                .as_ref()
                .ok_or_else(|| FsError::NotADirectory(parent_path.clone()))?
                .contains_key(&name)
            {
                return Err(FsError::Exists(path.to_string()));
            }
            let fid = self.allocators[child_mdt as usize].lock().alloc();
            inodes.insert(
                fid,
                Inode {
                    fid,
                    parent: parent_fid,
                    name: name.clone(),
                    ftype: FileType::Directory,
                    mdt: child_mdt,
                    children: Some(HashMap::new()),
                    nlink: 2,
                    size: 0,
                    mode: 0o755,
                    uid: 0,
                    mtime_ns: self.clock.now_ns(),
                    xattrs: HashMap::new(),
                    layout: None,
                    symlink_target: None,
                },
            );
            let parent = inodes.get_mut(&parent_fid).expect("parent exists");
            parent
                .children
                .as_mut()
                .expect("is dir")
                .insert(name.clone(), fid);
            parent.nlink += 1;
            (fid, parent_fid, mdt)
        };
        let rec = self.blank_record(ChangelogKind::Mkdir, fid, parent_fid, &name);
        self.emit(mdt, ChangelogKind::Mkdir, rec);
        Ok(fid)
    }

    /// Write `len` bytes at `offset`. Emits `MTIME` (no parent FID,
    /// flags `0x7` — Table I).
    pub fn write(&self, path: &str, offset: u64, len: u64) -> Result<(), FsError> {
        let fid = self.resolve(path)?;
        let (mdt, name) = {
            let mut inodes = self.inodes.write();
            let node = inodes
                .get_mut(&fid)
                .ok_or_else(|| FsError::NotFound(path.to_string()))?;
            if node.ftype == FileType::Directory {
                return Err(FsError::IsADirectory(path.to_string()));
            }
            let layout = node.layout.clone().expect("regular file has layout");
            drop(inodes);
            self.osts
                .write(&layout, offset, len)
                .map_err(|_| FsError::NoSpace)?;
            let mut inodes = self.inodes.write();
            let node = inodes
                .get_mut(&fid)
                .ok_or_else(|| FsError::NotFound(path.to_string()))?;
            node.size = node.size.max(offset + len);
            node.mtime_ns = self.clock.now_ns();
            (node.mdt, node.name.clone())
        };
        let mut rec = self.blank_record(ChangelogKind::Mtime, fid, Fid::NULL, &name);
        rec.parent_fid = Fid::NULL;
        self.emit(mdt, ChangelogKind::Mtime, rec);
        Ok(())
    }

    /// Truncate to `size`. Emits `TRUNC`.
    pub fn truncate(&self, path: &str, size: u64) -> Result<(), FsError> {
        let fid = self.resolve(path)?;
        let (mdt, name) = {
            let mut inodes = self.inodes.write();
            let node = inodes
                .get_mut(&fid)
                .ok_or_else(|| FsError::NotFound(path.to_string()))?;
            if node.ftype == FileType::Directory {
                return Err(FsError::IsADirectory(path.to_string()));
            }
            if size < node.size {
                if let Some(layout) = &node.layout {
                    self.osts.release(layout, node.size - size);
                }
            }
            node.size = size;
            (node.mdt, node.name.clone())
        };
        let rec = self.blank_record(ChangelogKind::Trunc, fid, Fid::NULL, &name);
        self.emit(mdt, ChangelogKind::Trunc, rec);
        Ok(())
    }

    /// Change mode bits. Emits `SATTR`.
    pub fn setattr(&self, path: &str, mode: u32) -> Result<(), FsError> {
        let fid = self.resolve(path)?;
        let (mdt, name) = {
            let mut inodes = self.inodes.write();
            let node = inodes
                .get_mut(&fid)
                .ok_or_else(|| FsError::NotFound(path.to_string()))?;
            node.mode = mode;
            (node.mdt, node.name.clone())
        };
        let rec = self.blank_record(ChangelogKind::Sattr, fid, Fid::NULL, &name);
        self.emit(mdt, ChangelogKind::Sattr, rec);
        Ok(())
    }

    /// Change the owner uid. Emits `SATTR` (ownership changes are
    /// setattr operations in Lustre's changelog).
    pub fn chown(&self, path: &str, uid: u32) -> Result<(), FsError> {
        let fid = self.resolve(path)?;
        let (mdt, name) = {
            let mut inodes = self.inodes.write();
            let node = inodes
                .get_mut(&fid)
                .ok_or_else(|| FsError::NotFound(path.to_string()))?;
            node.uid = uid;
            (node.mdt, node.name.clone())
        };
        let rec = self.blank_record(ChangelogKind::Sattr, fid, Fid::NULL, &name);
        self.emit(mdt, ChangelogKind::Sattr, rec);
        Ok(())
    }

    /// Set an extended attribute. Emits `XATTR`.
    pub fn setxattr(&self, path: &str, key: &str, value: &[u8]) -> Result<(), FsError> {
        let fid = self.resolve(path)?;
        let (mdt, name) = {
            let mut inodes = self.inodes.write();
            let node = inodes
                .get_mut(&fid)
                .ok_or_else(|| FsError::NotFound(path.to_string()))?;
            node.xattrs.insert(key.to_string(), value.to_vec());
            (node.mdt, node.name.clone())
        };
        let rec = self.blank_record(ChangelogKind::Xattr, fid, Fid::NULL, &name);
        self.emit(mdt, ChangelogKind::Xattr, rec);
        Ok(())
    }

    /// ioctl on a file or directory. Emits `IOCTL`.
    pub fn ioctl(&self, path: &str) -> Result<(), FsError> {
        let fid = self.resolve(path)?;
        let (mdt, name) = {
            let inodes = self.inodes.read();
            let node = inodes
                .get(&fid)
                .ok_or_else(|| FsError::NotFound(path.to_string()))?;
            (node.mdt, node.name.clone())
        };
        let rec = self.blank_record(ChangelogKind::Ioctl, fid, Fid::NULL, &name);
        self.emit(mdt, ChangelogKind::Ioctl, rec);
        Ok(())
    }

    /// Create a hard link. Emits `HLINK`.
    pub fn hardlink(&self, existing: &str, newpath: &str) -> Result<(), FsError> {
        let target_fid = self.resolve(existing)?;
        let (parent_path, name) = Self::split_parent(newpath)?;
        let parent_fid = self.resolve(&parent_path)?;
        let mdt = {
            let mut inodes = self.inodes.write();
            if inodes
                .get(&target_fid)
                .is_some_and(|n| n.ftype == FileType::Directory)
            {
                return Err(FsError::IsADirectory(existing.to_string()));
            }
            let parent = inodes
                .get_mut(&parent_fid)
                .ok_or_else(|| FsError::NotFound(parent_path.clone()))?;
            let mdt = parent.mdt;
            let children = parent
                .children
                .as_mut()
                .ok_or_else(|| FsError::NotADirectory(parent_path.clone()))?;
            if children.contains_key(&name) {
                return Err(FsError::Exists(newpath.to_string()));
            }
            children.insert(name.clone(), target_fid);
            inodes.get_mut(&target_fid).expect("target exists").nlink += 1;
            mdt
        };
        let rec = self.blank_record(ChangelogKind::Hlink, target_fid, parent_fid, &name);
        self.emit(mdt, ChangelogKind::Hlink, rec);
        Ok(())
    }

    /// Create a symlink. Emits `SLINK`.
    pub fn symlink(&self, target: &str, linkpath: &str) -> Result<Fid, FsError> {
        self.create_special(linkpath, FileType::Symlink, Some(target.to_string()))
    }

    /// Create a device node. Emits `MKNOD`.
    pub fn mknod(&self, path: &str) -> Result<Fid, FsError> {
        self.create_special(path, FileType::Device, None)
    }

    fn create_special(
        &self,
        path: &str,
        ftype: FileType,
        symlink_target: Option<String>,
    ) -> Result<Fid, FsError> {
        let (parent_path, name) = Self::split_parent(path)?;
        let kind = match ftype {
            FileType::Symlink => ChangelogKind::Slink,
            FileType::Device => ChangelogKind::Mknod,
            _ => unreachable!("create_special only for symlink/device"),
        };
        let (fid, parent_fid, mdt) = {
            let parent_fid = self.resolve(&parent_path)?;
            let mut inodes = self.inodes.write();
            let parent = inodes
                .get(&parent_fid)
                .ok_or_else(|| FsError::NotFound(parent_path.clone()))?;
            let mdt = parent.mdt;
            if parent
                .children
                .as_ref()
                .ok_or_else(|| FsError::NotADirectory(parent_path.clone()))?
                .contains_key(&name)
            {
                return Err(FsError::Exists(path.to_string()));
            }
            let fid = self.allocators[mdt as usize].lock().alloc();
            inodes.insert(
                fid,
                Inode {
                    fid,
                    parent: parent_fid,
                    name: name.clone(),
                    ftype,
                    mdt,
                    children: None,
                    nlink: 1,
                    size: 0,
                    mode: 0o644,
                    uid: 0,
                    mtime_ns: self.clock.now_ns(),
                    xattrs: HashMap::new(),
                    layout: None,
                    symlink_target,
                },
            );
            let parent = inodes.get_mut(&parent_fid).expect("parent exists");
            parent
                .children
                .as_mut()
                .expect("is dir")
                .insert(name.clone(), fid);
            (fid, parent_fid, mdt)
        };
        let rec = self.blank_record(kind, fid, parent_fid, &name);
        self.emit(mdt, kind, rec);
        Ok(fid)
    }

    /// Rename. Emits `RENME` on the source parent's MDT with the
    /// `s=[new]`/`sp=[old]` FID pair of Table I; for cross-MDT renames
    /// additionally emits `RNMTO` on the destination MDT.
    ///
    /// Following the paper's Table I sample, the renamed object receives
    /// a *new* FID (`s=[…]` "a new file identifier to which the file has
    /// been renamed"), and the old FID ceases to resolve.
    pub fn rename(&self, oldpath: &str, newpath: &str) -> Result<Fid, FsError> {
        let (old_parent_path, old_name) = Self::split_parent(oldpath)?;
        let (new_parent_path, new_name) = Self::split_parent(newpath)?;
        // POSIX: a directory cannot be moved into its own subtree
        // (EINVAL).
        if newpath == oldpath || newpath.starts_with(&format!("{oldpath}/")) {
            return Err(FsError::InvalidPath(format!("{oldpath} -> {newpath}")));
        }
        let (old_fid, new_fid, src_parent, dst_parent, src_mdt, dst_mdt) = {
            let old_parent_fid = self.resolve(&old_parent_path)?;
            let new_parent_fid = self.resolve(&new_parent_path)?;
            let mut inodes = self.inodes.write();
            let old_parent = inodes
                .get(&old_parent_fid)
                .ok_or_else(|| FsError::NotFound(old_parent_path.clone()))?;
            let src_mdt = old_parent.mdt;
            let old_fid = *old_parent
                .children
                .as_ref()
                .ok_or_else(|| FsError::NotADirectory(old_parent_path.clone()))?
                .get(&old_name)
                .ok_or_else(|| FsError::NotFound(oldpath.to_string()))?;
            let new_parent = inodes
                .get(&new_parent_fid)
                .ok_or_else(|| FsError::NotFound(new_parent_path.clone()))?;
            let dst_mdt = new_parent.mdt;
            if new_parent
                .children
                .as_ref()
                .ok_or_else(|| FsError::NotADirectory(new_parent_path.clone()))?
                .contains_key(&new_name)
            {
                return Err(FsError::Exists(newpath.to_string()));
            }
            // Re-key the inode under a fresh FID (paper Table I).
            let new_fid = self.allocators[dst_mdt as usize].lock().alloc();
            let mut node = inodes.remove(&old_fid).expect("inode exists");
            node.fid = new_fid;
            node.parent = new_parent_fid;
            node.name = new_name.clone();
            let is_dir = node.ftype == FileType::Directory;
            let other_links = node.nlink > 1 && !is_dir;
            inodes.insert(new_fid, node);
            // The file's other hard links follow it to the new FID.
            if other_links {
                for dir in inodes.values_mut() {
                    for linked in dir.children.iter_mut().flat_map(|c| c.values_mut()) {
                        if *linked == old_fid {
                            *linked = new_fid;
                        }
                    }
                }
            }
            // Children of a renamed directory keep pointing at it via the
            // new FID.
            if is_dir {
                let child_fids: Vec<Fid> = inodes
                    .get(&new_fid)
                    .and_then(|n| n.children.as_ref())
                    .map(|c| c.values().copied().collect())
                    .unwrap_or_default();
                for cf in child_fids {
                    if let Some(child) = inodes.get_mut(&cf) {
                        child.parent = new_fid;
                    }
                }
            }
            let old_parent = inodes.get_mut(&old_parent_fid).expect("parent exists");
            old_parent
                .children
                .as_mut()
                .expect("is dir")
                .remove(&old_name);
            let new_parent = inodes.get_mut(&new_parent_fid).expect("parent exists");
            new_parent
                .children
                .as_mut()
                .expect("is dir")
                .insert(new_name.clone(), new_fid);
            (
                old_fid,
                new_fid,
                old_parent_fid,
                new_parent_fid,
                src_mdt,
                dst_mdt,
            )
        };
        let mut rec = self.blank_record(ChangelogKind::Renme, old_fid, src_parent, &old_name);
        rec.rename = Some(ChangelogRename { new_fid, old_fid });
        rec.rename_target_name = Some(new_name.clone());
        self.emit(src_mdt, ChangelogKind::Renme, rec);
        if dst_mdt != src_mdt {
            let mut rec = self.blank_record(ChangelogKind::Rnmto, new_fid, dst_parent, &new_name);
            rec.rename = Some(ChangelogRename { new_fid, old_fid });
            self.emit(dst_mdt, ChangelogKind::Rnmto, rec);
        }
        Ok(new_fid)
    }

    /// Unlink a file. Emits `UNLNK`. When the last link drops, the FID
    /// is removed from the index, so subsequent `fid2path(target)` fails
    /// exactly as Algorithm 1 expects.
    pub fn unlink(&self, path: &str) -> Result<(), FsError> {
        let (parent_path, name) = Self::split_parent(path)?;
        let (fid, parent_fid, mdt) = {
            let parent_fid = self.resolve(&parent_path)?;
            let mut inodes = self.inodes.write();
            let parent = inodes
                .get_mut(&parent_fid)
                .ok_or_else(|| FsError::NotFound(parent_path.clone()))?;
            let mdt = parent.mdt;
            let children = parent
                .children
                .as_mut()
                .ok_or_else(|| FsError::NotADirectory(parent_path.clone()))?;
            let fid = *children
                .get(&name)
                .ok_or_else(|| FsError::NotFound(path.to_string()))?;
            let node = inodes.get(&fid).expect("linked inode exists");
            if node.ftype == FileType::Directory {
                return Err(FsError::IsADirectory(path.to_string()));
            }
            let parent = inodes.get_mut(&parent_fid).expect("parent exists");
            parent.children.as_mut().expect("is dir").remove(&name);
            let node = inodes.get_mut(&fid).expect("inode exists");
            node.nlink -= 1;
            if node.nlink == 0 {
                if let (Some(layout), size) = (node.layout.clone(), node.size) {
                    self.osts.release(&layout, size);
                }
                inodes.remove(&fid);
            }
            (fid, parent_fid, mdt)
        };
        let rec = self.blank_record(ChangelogKind::Unlnk, fid, parent_fid, &name);
        self.emit(mdt, ChangelogKind::Unlnk, rec);
        Ok(())
    }

    /// Remove an empty directory. Emits `RMDIR`.
    pub fn rmdir(&self, path: &str) -> Result<(), FsError> {
        let (parent_path, name) = Self::split_parent(path)?;
        let (fid, parent_fid, mdt) = {
            let parent_fid = self.resolve(&parent_path)?;
            let mut inodes = self.inodes.write();
            let parent = inodes
                .get(&parent_fid)
                .ok_or_else(|| FsError::NotFound(parent_path.clone()))?;
            let mdt = parent.mdt;
            let fid = *parent
                .children
                .as_ref()
                .ok_or_else(|| FsError::NotADirectory(parent_path.clone()))?
                .get(&name)
                .ok_or_else(|| FsError::NotFound(path.to_string()))?;
            let node = inodes.get(&fid).expect("linked inode exists");
            match &node.children {
                None => return Err(FsError::NotADirectory(path.to_string())),
                Some(c) if !c.is_empty() => return Err(FsError::NotEmpty(path.to_string())),
                _ => {}
            }
            inodes.remove(&fid);
            let parent = inodes.get_mut(&parent_fid).expect("parent exists");
            parent.children.as_mut().expect("is dir").remove(&name);
            parent.nlink -= 1;
            (fid, parent_fid, mdt)
        };
        let rec = self.blank_record(ChangelogKind::Rmdir, fid, parent_fid, &name);
        self.emit(mdt, ChangelogKind::Rmdir, rec);
        Ok(())
    }

    // ----- inspection -----

    /// Type of the inode at `path`.
    pub fn file_type(&self, path: &str) -> Result<FileType, FsError> {
        let fid = self.resolve(path)?;
        let inodes = self.inodes.read();
        Ok(inodes
            .get(&fid)
            .ok_or_else(|| FsError::NotFound(path.to_string()))?
            .ftype)
    }

    /// Size of the file at `path`.
    pub fn size_of(&self, path: &str) -> Result<u64, FsError> {
        let fid = self.resolve(path)?;
        let inodes = self.inodes.read();
        Ok(inodes
            .get(&fid)
            .ok_or_else(|| FsError::NotFound(path.to_string()))?
            .size)
    }

    /// Owner uid of the inode at `path`.
    pub fn owner_of(&self, path: &str) -> Result<u32, FsError> {
        let fid = self.resolve(path)?;
        let inodes = self.inodes.read();
        Ok(inodes
            .get(&fid)
            .ok_or_else(|| FsError::NotFound(path.to_string()))?
            .uid)
    }

    /// Cheap FID-keyed attribute probe, as an MDS-local stat a collector
    /// performs while it already holds the changelog record's FID: one
    /// hash lookup under the read lock, no path resolution, no clock
    /// charge, no fault-plane consultation. Returns `None` when the FID
    /// no longer resolves (object already deleted).
    pub fn attrs_of_fid(&self, fid: Fid) -> Option<InodeAttrs> {
        let inodes = self.inodes.read();
        inodes.get(&fid).map(|node| InodeAttrs {
            is_dir: node.ftype == FileType::Directory,
            size: node.size,
            uid: node.uid,
            mtime_ns: node.mtime_ns,
        })
    }

    /// MDT owning the inode at `path`.
    pub fn mdt_of(&self, path: &str) -> Result<u16, FsError> {
        let fid = self.resolve(path)?;
        let inodes = self.inodes.read();
        Ok(inodes
            .get(&fid)
            .ok_or_else(|| FsError::NotFound(path.to_string()))?
            .mdt)
    }

    /// Read a symlink's target.
    pub fn readlink(&self, path: &str) -> Result<String, FsError> {
        let fid = self.resolve(path)?;
        let inodes = self.inodes.read();
        let node = inodes
            .get(&fid)
            .ok_or_else(|| FsError::NotFound(path.to_string()))?;
        node.symlink_target
            .clone()
            .ok_or_else(|| FsError::InvalidPath(format!("{path} is not a symlink")))
    }

    /// Directory listing (names only, unsorted).
    pub fn readdir(&self, path: &str) -> Result<Vec<String>, FsError> {
        let fid = self.resolve(path)?;
        let inodes = self.inodes.read();
        let node = inodes
            .get(&fid)
            .ok_or_else(|| FsError::NotFound(path.to_string()))?;
        node.children
            .as_ref()
            .map(|c| c.keys().cloned().collect())
            .ok_or_else(|| FsError::NotADirectory(path.to_string()))
    }

    /// Number of live inodes (including the root).
    pub fn inode_count(&self) -> usize {
        self.inodes.read().len()
    }

    /// File-system capacity summary (`lfs df`-style).
    pub fn statfs(&self) -> StatFs {
        StatFs {
            capacity_bytes: self.osts.capacity_bytes(),
            used_bytes: self.osts.used_bytes(),
            inodes: self.inode_count() as u64,
            mdt_count: self.cfg.n_mdt,
            ost_count: self.osts.ost_count(),
        }
    }
}

/// Attribute snapshot returned by [`LustreFs::attrs_of_fid`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InodeAttrs {
    /// Whether the object is a directory.
    pub is_dir: bool,
    /// Current size in bytes.
    pub size: u64,
    /// Owner uid.
    pub uid: u32,
    /// Last modification time, simulated nanoseconds.
    pub mtime_ns: u64,
}

/// Capacity summary returned by [`LustreFs::statfs`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatFs {
    /// Total OST pool capacity, bytes.
    pub capacity_bytes: u64,
    /// Bytes currently allocated to file objects.
    pub used_bytes: u64,
    /// Live inodes (including the root).
    pub inodes: u64,
    /// Number of MDTs.
    pub mdt_count: u16,
    /// Number of OSTs.
    pub ost_count: u32,
}

impl StatFs {
    /// Free bytes.
    pub fn free_bytes(&self) -> u64 {
        self.capacity_bytes.saturating_sub(self.used_bytes)
    }

    /// Utilization in [0, 1].
    pub fn utilization(&self) -> f64 {
        if self.capacity_bytes == 0 {
            0.0
        } else {
            self.used_bytes as f64 / self.capacity_bytes as f64
        }
    }
}

/// A handle to one MDT's changelog, as a collector deployed on that MDS
/// would see it.
pub struct MdtHandle {
    fs: Arc<LustreFs>,
    changelog: Arc<Changelog>,
}

impl MdtHandle {
    /// The MDT index.
    pub fn index(&self) -> u16 {
        self.changelog.mdt_index()
    }

    /// Register a changelog user on this MDT.
    pub fn register_user(&self) -> crate::changelog::ChangelogUser {
        self.changelog.register_user()
    }

    /// Deregister a changelog user (its watermark stops pinning
    /// records).
    pub fn deregister_user(&self, user: crate::changelog::ChangelogUser) {
        self.changelog.deregister_user(user)
    }

    /// Read up to `max` records newer than `since`.
    pub fn read_changelog(&self, since: u64, max: usize) -> Vec<ChangelogRecord> {
        self.changelog.read(since, max)
    }

    /// Fallible changelog read: consults the armed fault plane and
    /// fails transiently when an injection fires. Collectors use this
    /// and retry; [`MdtHandle::read_changelog`] stays infallible for
    /// callers outside the fault domain.
    pub fn try_read_changelog(
        &self,
        since: u64,
        max: usize,
    ) -> Result<Vec<ChangelogRecord>, FsError> {
        if self.fs.faults().inject(FaultPoint::ChangelogRead).is_some() {
            return Err(FsError::Transient(format!(
                "changelog read on mdt{}",
                self.index()
            )));
        }
        Ok(self.changelog.read(since, max))
    }

    /// Block until this MDT's changelog holds a record newer than
    /// `since` or `timeout` elapses; returns whether it does (see
    /// [`Changelog::wait`]). A collector with nothing to read parks
    /// here instead of polling.
    pub fn wait_changelog(&self, since: u64, timeout: std::time::Duration) -> bool {
        self.changelog.wait(since, timeout)
    }

    /// Clear records up to `up_to` for `user`.
    pub fn clear_changelog(&self, user: crate::changelog::ChangelogUser, up_to: u64) {
        self.changelog.clear(user, up_to)
    }

    /// Fallible changelog purge: consults the armed fault plane. A
    /// failed purge is safe to skip — clearing is idempotent and
    /// monotone, so the next successful clear covers the gap.
    pub fn try_clear_changelog(
        &self,
        user: crate::changelog::ChangelogUser,
        up_to: u64,
    ) -> Result<(), FsError> {
        if self
            .fs
            .faults()
            .inject(FaultPoint::ChangelogPurge)
            .is_some()
        {
            return Err(FsError::Transient(format!(
                "changelog purge on mdt{}",
                self.index()
            )));
        }
        self.changelog.clear(user, up_to);
        Ok(())
    }

    /// Changelog health counters.
    pub fn changelog_stats(&self) -> crate::changelog::ChangelogStats {
        self.changelog.stats()
    }

    /// Backlog (uncleared records) for `user`.
    pub fn backlog(&self, user: crate::changelog::ChangelogUser) -> u64 {
        self.changelog.backlog(user)
    }

    /// Run `fid2path` on this MDS (identical to the client-side tool).
    pub fn fid2path(&self, fid: Fid) -> Result<String, FsError> {
        self.fs.fid2path(fid)
    }

    /// The file system this MDT belongs to.
    pub fn fs(&self) -> &Arc<LustreFs> {
        &self.fs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fs() -> Arc<LustreFs> {
        LustreFs::new(LustreConfig::small())
    }

    #[test]
    fn create_emits_creat_record() {
        let fs = fs();
        let fid = fs.create("/hello.txt").unwrap();
        let recs = fs.changelogs[0].read(0, 10);
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].kind, ChangelogKind::Creat);
        assert_eq!(recs[0].target_fid, fid);
        assert_eq!(recs[0].parent_fid, Fid::ROOT);
        assert_eq!(recs[0].target_name, "hello.txt");
    }

    #[test]
    fn create_duplicate_fails() {
        let fs = fs();
        fs.create("/a").unwrap();
        assert!(matches!(fs.create("/a"), Err(FsError::Exists(_))));
    }

    #[test]
    fn create_in_missing_dir_fails() {
        let fs = fs();
        assert!(matches!(fs.create("/no/file"), Err(FsError::NotFound(_))));
    }

    #[test]
    fn write_emits_mtime_without_parent() {
        let fs = fs();
        fs.create("/f").unwrap();
        fs.write("/f", 0, 100).unwrap();
        let recs = fs.changelogs[0].read(0, 10);
        let mtime = &recs[1];
        assert_eq!(mtime.kind, ChangelogKind::Mtime);
        assert!(mtime.parent_fid.is_null());
        assert_eq!(mtime.flags, 0x7);
        assert_eq!(fs.size_of("/f").unwrap(), 100);
    }

    #[test]
    fn unlink_removes_fid_so_fid2path_fails() {
        let fs = fs();
        let fid = fs.create("/f").unwrap();
        assert_eq!(fs.fid2path(fid).unwrap(), "/f");
        fs.unlink("/f").unwrap();
        assert_eq!(fs.fid2path(fid), Err(FsError::Fid2PathFailed(fid)));
    }

    #[test]
    fn fid2path_resolves_nested_paths() {
        let fs = fs();
        fs.mkdir("/a").unwrap();
        fs.mkdir("/a/b").unwrap();
        let fid = fs.create("/a/b/c.txt").unwrap();
        assert_eq!(fs.fid2path(fid).unwrap(), "/a/b/c.txt");
        assert_eq!(fs.fid2path(Fid::ROOT).unwrap(), "/");
    }

    #[test]
    fn rename_assigns_new_fid_and_emits_s_sp() {
        let fs = fs();
        let old = fs.create("/hello.txt").unwrap();
        let new = fs.rename("/hello.txt", "/hi.txt").unwrap();
        assert_ne!(old, new);
        assert_eq!(fs.fid2path(new).unwrap(), "/hi.txt");
        assert!(fs.fid2path(old).is_err());
        let recs = fs.changelogs[0].read(0, 10);
        let ren = recs.last().unwrap();
        assert_eq!(ren.kind, ChangelogKind::Renme);
        let pair = ren.rename.unwrap();
        assert_eq!(pair.old_fid, old);
        assert_eq!(pair.new_fid, new);
        assert_eq!(ren.rename_target_name.as_deref(), Some("hi.txt"));
    }

    #[test]
    fn rename_directory_keeps_children_resolvable() {
        let fs = fs();
        fs.mkdir("/d").unwrap();
        let child = fs.create("/d/f").unwrap();
        fs.rename("/d", "/e").unwrap();
        assert_eq!(fs.fid2path(child).unwrap(), "/e/f");
        assert!(fs.resolve("/e/f").is_ok());
        assert!(fs.resolve("/d/f").is_err());
    }

    #[test]
    fn rename_to_existing_fails() {
        let fs = fs();
        fs.create("/a").unwrap();
        fs.create("/b").unwrap();
        assert!(matches!(fs.rename("/a", "/b"), Err(FsError::Exists(_))));
    }

    #[test]
    fn rmdir_requires_empty() {
        let fs = fs();
        fs.mkdir("/d").unwrap();
        fs.create("/d/f").unwrap();
        assert!(matches!(fs.rmdir("/d"), Err(FsError::NotEmpty(_))));
        fs.unlink("/d/f").unwrap();
        fs.rmdir("/d").unwrap();
        assert!(fs.resolve("/d").is_err());
    }

    #[test]
    fn rmdir_on_file_fails() {
        let fs = fs();
        fs.create("/f").unwrap();
        assert!(matches!(fs.rmdir("/f"), Err(FsError::NotADirectory(_))));
    }

    #[test]
    fn unlink_on_dir_fails() {
        let fs = fs();
        fs.mkdir("/d").unwrap();
        assert!(matches!(fs.unlink("/d"), Err(FsError::IsADirectory(_))));
    }

    #[test]
    fn hardlink_shares_fid_and_survives_one_unlink() {
        let fs = fs();
        let fid = fs.create("/a").unwrap();
        fs.hardlink("/a", "/b").unwrap();
        assert_eq!(fs.resolve("/b").unwrap(), fid);
        fs.unlink("/a").unwrap();
        // Still resolvable via the surviving link.
        assert_eq!(fs.resolve("/b").unwrap(), fid);
        assert!(fs.fid2path(fid).is_ok());
        fs.unlink("/b").unwrap();
        assert!(fs.fid2path(fid).is_err());
    }

    #[test]
    fn rename_carries_the_other_hard_links_to_the_new_fid() {
        let fs = fs();
        fs.create("/a").unwrap();
        fs.hardlink("/a", "/b").unwrap();
        let new_fid = fs.rename("/a", "/c").unwrap();
        assert_eq!(fs.resolve("/b").unwrap(), new_fid);
        fs.unlink("/b").unwrap();
        fs.unlink("/c").unwrap();
        assert!(fs.fid2path(new_fid).is_err());
    }

    #[test]
    fn symlink_and_mknod_emit_expected_kinds() {
        let fs = fs();
        fs.symlink("/target", "/ln").unwrap();
        fs.mknod("/dev0").unwrap();
        assert_eq!(fs.readlink("/ln").unwrap(), "/target");
        assert!(fs.readlink("/dev0").is_err());
        let kinds: Vec<_> = fs.changelogs[0]
            .read(0, 10)
            .iter()
            .map(|r| r.kind)
            .collect();
        assert_eq!(kinds, vec![ChangelogKind::Slink, ChangelogKind::Mknod]);
        assert_eq!(fs.file_type("/ln").unwrap(), FileType::Symlink);
        assert_eq!(fs.file_type("/dev0").unwrap(), FileType::Device);
    }

    #[test]
    fn setattr_setxattr_ioctl_truncate_kinds() {
        let fs = fs();
        fs.create("/f").unwrap();
        fs.setattr("/f", 0o600).unwrap();
        fs.setxattr("/f", "user.tag", b"v").unwrap();
        fs.ioctl("/f").unwrap();
        fs.truncate("/f", 0).unwrap();
        let kinds: Vec<_> = fs.changelogs[0]
            .read(1, 10)
            .iter()
            .map(|r| r.kind)
            .collect();
        assert_eq!(
            kinds,
            vec![
                ChangelogKind::Sattr,
                ChangelogKind::Xattr,
                ChangelogKind::Ioctl,
                ChangelogKind::Trunc
            ]
        );
    }

    #[test]
    fn dne_spreads_directories_across_mdts() {
        let fs = LustreFs::new(LustreConfig::small_dne(4));
        let mut seen = std::collections::HashSet::new();
        for i in 0..64 {
            fs.mkdir(&format!("/dir{i}")).unwrap();
            seen.insert(fs.mdt_of(&format!("/dir{i}")).unwrap());
        }
        assert!(seen.len() >= 3, "directories should spread: {seen:?}");
    }

    #[test]
    fn dne_files_follow_parent_dir_mdt() {
        let fs = LustreFs::new(LustreConfig::small_dne(4));
        fs.mkdir("/d").unwrap();
        let mdt = fs.mdt_of("/d").unwrap();
        fs.create("/d/f").unwrap();
        assert_eq!(fs.mdt_of("/d/f").unwrap(), mdt);
        // The CREAT record lands on the parent's MDT changelog.
        let recs = fs.changelogs[mdt as usize].read(0, 10);
        assert!(recs
            .iter()
            .any(|r| r.kind == ChangelogKind::Creat && r.target_name == "f"));
    }

    #[test]
    fn cross_mdt_rename_emits_rnmto_on_destination() {
        let fs = LustreFs::new(LustreConfig::small_dne(4));
        // Find two directories on different MDTs.
        fs.mkdir("/src").unwrap();
        let src_mdt = fs.mdt_of("/src").unwrap();
        let mut dst_mdt = src_mdt;
        let mut dst_name = String::new();
        for i in 0..64 {
            let name = format!("/dst{i}");
            fs.mkdir(&name).unwrap();
            if fs.mdt_of(&name).unwrap() != src_mdt {
                dst_mdt = fs.mdt_of(&name).unwrap();
                dst_name = name;
                break;
            }
        }
        assert_ne!(dst_mdt, src_mdt, "need two MDTs");
        fs.create("/src/f").unwrap();
        fs.rename("/src/f", &format!("{dst_name}/f")).unwrap();
        let dst_recs = fs.changelogs[dst_mdt as usize].read(0, 1000);
        assert!(dst_recs.iter().any(|r| r.kind == ChangelogKind::Rnmto));
        let src_recs = fs.changelogs[src_mdt as usize].read(0, 1000);
        assert!(src_recs.iter().any(|r| r.kind == ChangelogKind::Renme));
    }

    #[test]
    fn op_counters_classify() {
        let fs = fs();
        fs.create("/a").unwrap();
        fs.write("/a", 0, 1).unwrap();
        fs.unlink("/a").unwrap();
        let (c, m, d, _) = fs.op_counters().snapshot();
        assert_eq!((c, m, d), (1, 1, 1));
    }

    #[test]
    fn changelog_mask_suppresses_recording_not_operations() {
        use fsmon_events::changelog::ChangelogMask;
        let mut cfg = LustreConfig::small();
        cfg.changelog_mask = ChangelogMask::NONE
            .with(ChangelogKind::Creat)
            .with(ChangelogKind::Unlnk);
        let fs = LustreFs::new(cfg);
        fs.create("/f").unwrap();
        fs.write("/f", 0, 10).unwrap(); // MTIME masked out
        fs.setattr("/f", 0o600).unwrap(); // SATTR masked out
        fs.unlink("/f").unwrap();
        let kinds: Vec<_> = fs.changelogs[0]
            .read(0, 10)
            .iter()
            .map(|r| r.kind)
            .collect();
        assert_eq!(kinds, vec![ChangelogKind::Creat, ChangelogKind::Unlnk]);
        // The operations themselves all happened.
        let (c, m, d, _) = fs.op_counters().snapshot();
        assert_eq!((c, m, d), (1, 2, 1));
    }

    #[test]
    fn record_close_config_emits_close() {
        let mut cfg = LustreConfig::small();
        cfg.record_close = true;
        let fs = LustreFs::new(cfg);
        fs.create("/f").unwrap();
        let kinds: Vec<_> = fs.changelogs[0]
            .read(0, 10)
            .iter()
            .map(|r| r.kind)
            .collect();
        assert_eq!(kinds, vec![ChangelogKind::Creat, ChangelogKind::Close]);
    }

    #[test]
    fn invalid_paths_rejected() {
        let fs = fs();
        assert!(matches!(
            fs.create("relative"),
            Err(FsError::InvalidPath(_))
        ));
        assert!(matches!(fs.create("/a/../b"), Err(FsError::InvalidPath(_))));
        assert!(matches!(fs.resolve(""), Err(FsError::InvalidPath(_))));
    }

    #[test]
    fn readdir_lists_children() {
        let fs = fs();
        fs.create("/a").unwrap();
        fs.mkdir("/d").unwrap();
        let mut names = fs.readdir("/").unwrap();
        names.sort();
        assert_eq!(names, vec!["a", "d"]);
        assert!(fs.readdir("/a").is_err());
    }

    #[test]
    fn unlink_releases_ost_space() {
        let fs = fs();
        fs.create("/f").unwrap();
        fs.write("/f", 0, 4096).unwrap();
        assert_eq!(fs.ost_pool().used_bytes(), 4096);
        fs.unlink("/f").unwrap();
        assert_eq!(fs.ost_pool().used_bytes(), 0);
    }

    #[test]
    fn statfs_tracks_usage() {
        let fs = fs();
        let st0 = fs.statfs();
        assert_eq!(st0.used_bytes, 0);
        assert_eq!(st0.inodes, 1);
        assert_eq!(st0.capacity_bytes, 1 << 30);
        fs.create("/f").unwrap();
        fs.write("/f", 0, 4096).unwrap();
        let st1 = fs.statfs();
        assert_eq!(st1.used_bytes, 4096);
        assert_eq!(st1.inodes, 2);
        assert_eq!(st1.free_bytes(), (1 << 30) - 4096);
        assert!(st1.utilization() > 0.0);
        fs.unlink("/f").unwrap();
        assert_eq!(fs.statfs().used_bytes, 0);
    }

    #[test]
    fn timestamps_strictly_increase_per_mdt() {
        let fs = fs();
        for i in 0..50 {
            fs.create(&format!("/f{i}")).unwrap();
        }
        let recs = fs.changelogs[0].read(0, 100);
        for w in recs.windows(2) {
            assert!(w[1].time_ns > w[0].time_ns);
        }
    }
}
