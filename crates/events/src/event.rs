//! The standardized event record produced by the resolution layer.

use crate::kind::EventKind;
use serde::{Deserialize, Serialize};

/// Monotonically increasing identifier assigned by the resolution layer.
///
/// The interface layer lets consumers replay "all events since id X"
/// (paper §III-A3), so ids must be dense and ordered per monitor.
pub type EventId = u64;

/// Which kind of monitoring facility originally produced an event.
///
/// Carried through the pipeline so consumers can audit provenance and so
/// the resolution layer knows which native translation produced the
/// standardized record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MonitorSource {
    /// Linux inotify (or the simulated inotify kernel).
    Inotify,
    /// BSD/macOS kqueue.
    Kqueue,
    /// macOS FSEvents.
    FsEvents,
    /// Windows FileSystemWatcher.
    FileSystemWatcher,
    /// The scalable Lustre Changelog DSI.
    LustreChangelog,
    /// The portable polling watcher (snapshot diffing over a real FS).
    Polling,
    /// Synthetic events injected by tests or workload generators.
    Synthetic,
}

impl MonitorSource {
    /// Stable numeric tag used by the wire codec.
    pub fn wire_tag(self) -> u8 {
        match self {
            MonitorSource::Inotify => 0,
            MonitorSource::Kqueue => 1,
            MonitorSource::FsEvents => 2,
            MonitorSource::FileSystemWatcher => 3,
            MonitorSource::LustreChangelog => 4,
            MonitorSource::Polling => 5,
            MonitorSource::Synthetic => 6,
        }
    }

    /// Inverse of [`wire_tag`](MonitorSource::wire_tag).
    pub fn from_wire_tag(tag: u8) -> Option<MonitorSource> {
        Some(match tag {
            0 => MonitorSource::Inotify,
            1 => MonitorSource::Kqueue,
            2 => MonitorSource::FsEvents,
            3 => MonitorSource::FileSystemWatcher,
            4 => MonitorSource::LustreChangelog,
            5 => MonitorSource::Polling,
            6 => MonitorSource::Synthetic,
            _ => return None,
        })
    }

    /// All sources, in wire-tag order.
    pub const ALL: [MonitorSource; 7] = [
        MonitorSource::Inotify,
        MonitorSource::Kqueue,
        MonitorSource::FsEvents,
        MonitorSource::FileSystemWatcher,
        MonitorSource::LustreChangelog,
        MonitorSource::Polling,
        MonitorSource::Synthetic,
    ];
}

/// A fully resolved, standardized file-system event.
///
/// This is FSMonitor's common representation: every DSI's native events
/// are translated into this form by the resolution layer before they reach
/// consumers. Paths are stored relative to the watch root, matching the
/// paper's Table II output (`/home/arnab/test CREATE /hello.txt` is watch
/// root + kind + relative path).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StandardEvent {
    /// Resolution-layer sequence number; 0 until assigned.
    pub id: EventId,
    /// The standardized event type.
    pub kind: EventKind,
    /// Whether the subject is a directory (inotify's `IN_ISDIR`).
    pub is_dir: bool,
    /// The watch root the monitor was asked to observe.
    pub watch_root: String,
    /// Path of the subject, relative to `watch_root`, with a leading `/`.
    pub path: String,
    /// For `MovedTo` events whose source is known, the old relative path;
    /// for Lustre `RENME` the resolved old path.
    pub old_path: Option<String>,
    /// Kernel rename cookie pairing `MovedFrom`/`MovedTo` (0 if none).
    pub cookie: u32,
    /// Event time in nanoseconds (simulated clock or wall clock of the
    /// producing node).
    pub timestamp_ns: u64,
    /// Which facility produced the raw event.
    pub source: MonitorSource,
    /// For distributed sources, the index of the MDT whose changelog
    /// recorded the event (`None` for local monitors).
    pub mdt_index: Option<u16>,
    /// Size of the subject in bytes at event time, when the producing
    /// DSI can stat it cheaply (`None` when unknown — local watchers and
    /// removal events carry no size).
    pub size: Option<u64>,
    /// Numeric owner (uid) of the subject at event time, when known.
    pub owner: Option<u32>,
}

/// The fields a filter or a fan-out reads from an event, borrowed. Both
/// the owned [`StandardEvent`] and the frame-borrowed
/// [`EventView`](crate::wire::EventView) implement it, so matching code
/// runs unchanged on a decoded event or straight on the wire bytes.
pub trait EventFields {
    /// Sequence number (0 until stamped).
    fn id(&self) -> EventId;
    /// Standardized event type.
    fn kind(&self) -> EventKind;
    /// Whether the subject is a directory.
    fn is_dir(&self) -> bool;
    /// MDT whose changelog recorded the event, if any.
    fn mdt_index(&self) -> Option<u16>;
    /// Path relative to the watch root.
    fn path(&self) -> &str;
    /// Old path of a rename destination, if known.
    fn old_path(&self) -> Option<&str>;
}

impl EventFields for StandardEvent {
    fn id(&self) -> EventId {
        self.id
    }
    fn kind(&self) -> EventKind {
        self.kind
    }
    fn is_dir(&self) -> bool {
        self.is_dir
    }
    fn mdt_index(&self) -> Option<u16> {
        self.mdt_index
    }
    fn path(&self) -> &str {
        &self.path
    }
    fn old_path(&self) -> Option<&str> {
        self.old_path.as_deref()
    }
}

impl<T: EventFields + ?Sized> EventFields for &T {
    fn id(&self) -> EventId {
        (**self).id()
    }
    fn kind(&self) -> EventKind {
        (**self).kind()
    }
    fn is_dir(&self) -> bool {
        (**self).is_dir()
    }
    fn mdt_index(&self) -> Option<u16> {
        (**self).mdt_index()
    }
    fn path(&self) -> &str {
        (**self).path()
    }
    fn old_path(&self) -> Option<&str> {
        (**self).old_path()
    }
}

impl StandardEvent {
    /// Create a minimal event; the remaining fields take neutral defaults
    /// and can be adjusted with the builder-style `with_*` methods.
    pub fn new(kind: EventKind, watch_root: impl Into<String>, name: impl AsRef<str>) -> Self {
        let name = name.as_ref();
        let path = if name.starts_with('/') {
            name.to_string()
        } else {
            format!("/{name}")
        };
        StandardEvent {
            id: 0,
            kind,
            is_dir: false,
            watch_root: watch_root.into(),
            path,
            old_path: None,
            cookie: 0,
            timestamp_ns: 0,
            source: MonitorSource::Synthetic,
            mdt_index: None,
            size: None,
            owner: None,
        }
    }

    /// Mark the subject as a directory.
    #[must_use]
    pub fn dir(mut self) -> Self {
        self.is_dir = true;
        self
    }

    /// Set the producing source.
    #[must_use]
    pub fn with_source(mut self, source: MonitorSource) -> Self {
        self.source = source;
        self
    }

    /// Set the rename cookie.
    #[must_use]
    pub fn with_cookie(mut self, cookie: u32) -> Self {
        self.cookie = cookie;
        self
    }

    /// Set the old path of a rename destination event.
    #[must_use]
    pub fn with_old_path(mut self, old: impl Into<String>) -> Self {
        self.old_path = Some(old.into());
        self
    }

    /// Set the event timestamp.
    #[must_use]
    pub fn with_timestamp(mut self, ns: u64) -> Self {
        self.timestamp_ns = ns;
        self
    }

    /// Set the MDT index (Lustre provenance).
    #[must_use]
    pub fn with_mdt(mut self, mdt: u16) -> Self {
        self.mdt_index = Some(mdt);
        self
    }

    /// Attach the subject's size in bytes (metadata enrichment).
    #[must_use]
    pub fn with_size(mut self, bytes: u64) -> Self {
        self.size = Some(bytes);
        self
    }

    /// Attach the subject's owner uid (metadata enrichment).
    #[must_use]
    pub fn with_owner(mut self, uid: u32) -> Self {
        self.owner = Some(uid);
        self
    }

    /// Absolute path of the subject: watch root joined with the relative
    /// path.
    pub fn absolute_path(&self) -> String {
        let root = self.watch_root.trim_end_matches('/');
        format!("{root}{}", self.path)
    }

    /// The `KIND[,ISDIR]` column of the Table II rendering.
    pub fn kind_label(&self) -> String {
        if self.is_dir {
            format!("{},ISDIR", self.kind)
        } else {
            self.kind.to_string()
        }
    }

    /// Render in the paper's Table II format:
    /// `<watch_root> <KIND[,ISDIR]> <relative path>`.
    pub fn render_table2(&self) -> String {
        format!("{} {} {}", self.watch_root, self.kind_label(), self.path)
    }

    /// Whether this event concerns `prefix` or anything beneath it.
    ///
    /// Used by consumer-side filtering (paper §IV Consumption). `prefix`
    /// is a relative path with leading `/`; `"/"` matches everything.
    pub fn path_under(&self, prefix: &str) -> bool {
        path_has_prefix(&self.path, prefix)
            || self
                .old_path
                .as_deref()
                .is_some_and(|p| path_has_prefix(p, prefix))
    }
}

/// Component-wise path prefix test: `/a/b` is under `/a` but `/ab` is not.
pub fn path_has_prefix(path: &str, prefix: &str) -> bool {
    let prefix = prefix.trim_end_matches('/');
    if prefix.is_empty() {
        return true;
    }
    match path.strip_prefix(prefix) {
        Some(rest) => rest.is_empty() || rest.starts_with('/'),
        None => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_normalizes_leading_slash() {
        let a = StandardEvent::new(EventKind::Create, "/root", "f.txt");
        let b = StandardEvent::new(EventKind::Create, "/root", "/f.txt");
        assert_eq!(a.path, "/f.txt");
        assert_eq!(a.path, b.path);
    }

    #[test]
    fn table2_rendering_matches_paper() {
        let ev = StandardEvent::new(EventKind::Create, "/home/arnab/test", "hello.txt");
        assert_eq!(ev.render_table2(), "/home/arnab/test CREATE /hello.txt");
        let ev = StandardEvent::new(EventKind::Create, "/home/arnab/test", "okdir").dir();
        assert_eq!(ev.render_table2(), "/home/arnab/test CREATE,ISDIR /okdir");
    }

    #[test]
    fn absolute_path_joins_root() {
        let ev = StandardEvent::new(EventKind::Modify, "/mnt/lustre/", "dir/f");
        assert_eq!(ev.absolute_path(), "/mnt/lustre/dir/f");
    }

    #[test]
    fn path_under_component_boundaries() {
        let ev = StandardEvent::new(EventKind::Create, "/r", "/a/b/c.txt");
        assert!(ev.path_under("/"));
        assert!(ev.path_under("/a"));
        assert!(ev.path_under("/a/b"));
        assert!(ev.path_under("/a/b/c.txt"));
        assert!(!ev.path_under("/a/bc"));
        assert!(!ev.path_under("/x"));
    }

    #[test]
    fn path_under_checks_old_path_too() {
        let ev = StandardEvent::new(EventKind::MovedTo, "/r", "/new/f").with_old_path("/old/f");
        assert!(ev.path_under("/old"));
        assert!(ev.path_under("/new"));
        assert!(!ev.path_under("/other"));
    }

    #[test]
    fn source_wire_tags_roundtrip() {
        for s in MonitorSource::ALL {
            assert_eq!(MonitorSource::from_wire_tag(s.wire_tag()), Some(s));
        }
        assert_eq!(MonitorSource::from_wire_tag(99), None);
    }

    #[test]
    fn builder_methods() {
        let ev = StandardEvent::new(EventKind::MovedTo, "/r", "b")
            .with_cookie(7)
            .with_old_path("/a")
            .with_timestamp(42)
            .with_mdt(3)
            .with_size(4096)
            .with_owner(1001)
            .with_source(MonitorSource::LustreChangelog);
        assert_eq!(ev.cookie, 7);
        assert_eq!(ev.old_path.as_deref(), Some("/a"));
        assert_eq!(ev.timestamp_ns, 42);
        assert_eq!(ev.mdt_index, Some(3));
        assert_eq!(ev.size, Some(4096));
        assert_eq!(ev.owner, Some(1001));
        assert_eq!(ev.source, MonitorSource::LustreChangelog);
    }

    #[test]
    fn prefix_helper_edge_cases() {
        assert!(path_has_prefix("/a", "/"));
        assert!(path_has_prefix("/a", ""));
        assert!(path_has_prefix("/a", "/a/"));
        assert!(!path_has_prefix("/ab", "/a"));
    }
}
