#![warn(missing_docs)]

//! # fsmon-events
//!
//! The standard event model shared by every layer of FSMonitor, together
//! with lossless translations to and from the native vocabularies of the
//! monitoring facilities the paper surveys:
//!
//! * Linux **inotify** (`IN_CREATE`, `IN_MODIFY`, …) — the default
//!   standard representation, per the paper (§II Summary).
//! * BSD/macOS **kqueue** (`NOTE_WRITE`, `NOTE_DELETE`, …).
//! * macOS **FSEvents** (`ItemCreated`, `ItemModified`, …).
//! * Windows **FileSystemWatcher** (`Created`, `Changed`, `Deleted`,
//!   `Renamed`).
//! * Lustre **Changelog** record types (`01CREAT`, `17MTIME`, …).
//!
//! The crate also provides the wire codec used by the message-queue layer
//! ([`wire`]) and the human-readable rendering used in the paper's
//! Table II ([`format`]).
//!
//! ```
//! use fsmon_events::{StandardEvent, EventKind};
//!
//! let ev = StandardEvent::new(EventKind::Create, "/home/arnab/test", "hello.txt");
//! assert_eq!(ev.render_table2(), "/home/arnab/test CREATE /hello.txt");
//! ```

pub mod changelog;
pub mod coalesce;
pub mod event;
pub mod format;
pub mod fsevents;
pub mod fswatcher;
pub mod inotify;
pub mod kind;
pub mod kqueue;
pub mod wire;

pub use changelog::{ChangelogKind, ChangelogMask, ChangelogRename};
pub use coalesce::coalesce;
pub use event::{EventFields, EventId, MonitorSource, StandardEvent};
pub use format::EventFormatter;
pub use fsevents::{FsEventFlags, FsEventsEvent};
pub use fswatcher::{FswChangeType, FswEvent};
pub use inotify::{InotifyEvent, InotifyMask};
pub use kind::EventKind;
pub use kqueue::{KqueueEvent, NoteFlags};
pub use wire::{
    decode_event, decode_event_batch, encode_event, encode_event_batch, encode_event_batch_into,
    encode_event_batch_offsets, patch_event_id, walk_event_batch, EventView, WireError,
};
