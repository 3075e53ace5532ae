//! Consumer-side event filters.
//!
//! "Whenever a new event arrives to the consumer it filters the events
//! and only passes on events related to those files and directories
//! requested by the application" (§IV Consumption). The paper also
//! notes recursion is a *filtering rule*: FSMonitor "will monitor
//! events recursively by just modifying the filtering rule in the
//! Interface layer" (§V-C1) — hence the `recursive` flag here.

use fsmon_events::kind::KindMask;
use fsmon_events::{EventKind, StandardEvent};
use serde::{Deserialize, Serialize};

/// A subscription filter.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EventFilter {
    /// Relative path prefix (leading `/`); `"/"` matches everything.
    pub path_prefix: String,
    /// Which event kinds to deliver.
    pub kinds: KindMask,
    /// When false, only events on *direct children* of the prefix are
    /// delivered (bare-inotify semantics); when true, the entire
    /// subtree matches.
    pub recursive: bool,
}

impl EventFilter {
    /// Match everything, recursively.
    pub fn all() -> EventFilter {
        EventFilter {
            path_prefix: "/".to_string(),
            kinds: KindMask::ALL,
            recursive: true,
        }
    }

    /// Match a subtree, all kinds.
    pub fn subtree(prefix: impl Into<String>) -> EventFilter {
        EventFilter {
            path_prefix: prefix.into(),
            kinds: KindMask::ALL,
            recursive: true,
        }
    }

    /// Match only direct children of `prefix` (non-recursive).
    pub fn directory(prefix: impl Into<String>) -> EventFilter {
        EventFilter {
            path_prefix: prefix.into(),
            kinds: KindMask::ALL,
            recursive: false,
        }
    }

    /// Restrict to the given kinds.
    #[must_use]
    pub fn with_kinds<I: IntoIterator<Item = EventKind>>(mut self, kinds: I) -> EventFilter {
        self.kinds = KindMask::from_kinds(kinds);
        self
    }

    /// Whether `event` passes this filter.
    pub fn matches(&self, event: &StandardEvent) -> bool {
        if !self.kinds.contains(event.kind) {
            return false;
        }
        if self.recursive {
            event.path_under(&self.path_prefix)
        } else {
            self.direct_child(&event.path)
                || event
                    .old_path
                    .as_deref()
                    .is_some_and(|p| self.direct_child(p))
        }
    }

    fn direct_child(&self, path: &str) -> bool {
        let prefix = self.path_prefix.trim_end_matches('/');
        match path.strip_prefix(prefix) {
            Some(rest) => {
                let rest = rest.trim_start_matches('/');
                !rest.is_empty() && !rest.contains('/')
            }
            None => false,
        }
    }
}

impl Default for EventFilter {
    fn default() -> Self {
        EventFilter::all()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(kind: EventKind, path: &str) -> StandardEvent {
        StandardEvent::new(kind, "/root", path)
    }

    #[test]
    fn all_matches_everything() {
        let f = EventFilter::all();
        assert!(f.matches(&ev(EventKind::Create, "/a/b/c")));
        assert!(f.matches(&ev(EventKind::Delete, "/x")));
    }

    #[test]
    fn subtree_prefix_boundaries() {
        let f = EventFilter::subtree("/data");
        assert!(f.matches(&ev(EventKind::Create, "/data/f")));
        assert!(f.matches(&ev(EventKind::Create, "/data/sub/f")));
        assert!(f.matches(&ev(EventKind::Create, "/data")));
        assert!(!f.matches(&ev(EventKind::Create, "/database/f")));
    }

    #[test]
    fn kind_mask_filters() {
        let f = EventFilter::all().with_kinds([EventKind::Create, EventKind::Delete]);
        assert!(f.matches(&ev(EventKind::Create, "/f")));
        assert!(f.matches(&ev(EventKind::Delete, "/f")));
        assert!(!f.matches(&ev(EventKind::Modify, "/f")));
    }

    #[test]
    fn non_recursive_matches_direct_children_only() {
        let f = EventFilter::directory("/dir");
        assert!(f.matches(&ev(EventKind::Create, "/dir/f")));
        assert!(!f.matches(&ev(EventKind::Create, "/dir/sub/f")));
        assert!(!f.matches(&ev(EventKind::Create, "/dir")));
        assert!(!f.matches(&ev(EventKind::Create, "/other/f")));
    }

    #[test]
    fn rename_matches_via_old_path() {
        let f = EventFilter::subtree("/old");
        let mut e = ev(EventKind::MovedTo, "/new/f");
        e.old_path = Some("/old/f".to_string());
        assert!(f.matches(&e));
        let f_dir = EventFilter::directory("/old");
        assert!(f_dir.matches(&e));
    }

    #[test]
    fn root_directory_filter() {
        let f = EventFilter::directory("/");
        assert!(f.matches(&ev(EventKind::Create, "/top.txt")));
        assert!(!f.matches(&ev(EventKind::Create, "/sub/deep.txt")));
    }
}
