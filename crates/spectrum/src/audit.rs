//! Spectrum Scale File Audit Logging records.
//!
//! The real facility emits one JSON document per event with fields like
//! `event`, `path`, `oldPath` (renames), `clusterName`, `nodeName`,
//! `fsName`, `inode`, `fileSize`, and a timestamp. This module defines
//! that record, its JSON encoding, and the mapping into FSMonitor's
//! standardized vocabulary.

use fsmon_events::{EventKind, MonitorSource, StandardEvent};
use fsmon_telemetry::json::{Json, JsonError};

/// The audit event types Spectrum Scale's LWE policy engine raises.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AuditEventType {
    /// File created.
    Create,
    /// Directory created.
    Mkdir,
    /// File opened.
    Open,
    /// File closed (the audit record carries byte counts).
    Close,
    /// File data destroyed (last unlink).
    Destroy,
    /// A name unlinked.
    Unlink,
    /// Directory removed.
    Rmdir,
    /// File or directory renamed (`oldPath` carries the source).
    Rename,
    /// Extended attribute changed.
    XattrChange,
    /// ACL changed.
    AclChange,
    /// POSIX attributes changed (mode/owner/times).
    GpfsAttrChange,
}

impl AuditEventType {
    /// All event types.
    pub const ALL: [AuditEventType; 11] = [
        AuditEventType::Create,
        AuditEventType::Mkdir,
        AuditEventType::Open,
        AuditEventType::Close,
        AuditEventType::Destroy,
        AuditEventType::Unlink,
        AuditEventType::Rmdir,
        AuditEventType::Rename,
        AuditEventType::XattrChange,
        AuditEventType::AclChange,
        AuditEventType::GpfsAttrChange,
    ];

    /// The name as it appears in audit JSON.
    pub fn as_str(self) -> &'static str {
        match self {
            AuditEventType::Create => "CREATE",
            AuditEventType::Mkdir => "MKDIR",
            AuditEventType::Open => "OPEN",
            AuditEventType::Close => "CLOSE",
            AuditEventType::Destroy => "DESTROY",
            AuditEventType::Unlink => "UNLINK",
            AuditEventType::Rmdir => "RMDIR",
            AuditEventType::Rename => "RENAME",
            AuditEventType::XattrChange => "XATTRCHANGE",
            AuditEventType::AclChange => "ACLCHANGE",
            AuditEventType::GpfsAttrChange => "GPFSATTRCHANGE",
        }
    }

    /// Parse an audit JSON event name.
    pub fn parse(s: &str) -> Option<AuditEventType> {
        AuditEventType::ALL
            .iter()
            .copied()
            .find(|t| t.as_str() == s)
    }

    /// Map into the standardized vocabulary: `(kind, is_dir)`.
    pub fn to_standard(self) -> (EventKind, bool) {
        match self {
            AuditEventType::Create => (EventKind::Create, false),
            AuditEventType::Mkdir => (EventKind::Create, true),
            AuditEventType::Open => (EventKind::Open, false),
            AuditEventType::Close => (EventKind::CloseWrite, false),
            AuditEventType::Destroy | AuditEventType::Unlink => (EventKind::Delete, false),
            AuditEventType::Rmdir => (EventKind::Delete, true),
            AuditEventType::Rename => (EventKind::MovedTo, false),
            AuditEventType::XattrChange => (EventKind::Xattr, false),
            AuditEventType::AclChange | AuditEventType::GpfsAttrChange => {
                (EventKind::Attrib, false)
            }
        }
    }
}

/// One File Audit Logging record.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditEvent {
    /// The event type.
    pub event: AuditEventType,
    /// Absolute path within the file system.
    pub path: String,
    /// For `RENAME`: the previous path.
    pub old_path: Option<String>,
    /// Owning cluster name.
    pub cluster_name: String,
    /// Protocol node that generated the event.
    pub node_name: String,
    /// File system name.
    pub fs_name: String,
    /// Inode number.
    pub inode: u64,
    /// File size at event time.
    pub file_size: u64,
    /// Whether the subject is a directory.
    pub is_dir: bool,
    /// Nanosecond timestamp.
    pub event_time_ns: u64,
}

impl AuditEvent {
    /// Encode as the audit JSON document.
    pub fn to_json(&self) -> String {
        let text = |s: &str| Json::Str(s.to_string());
        let num = |n: u64| Json::Num(n.to_string());
        let field = |key: &str, value: Json| (key.to_string(), value);
        let mut fields = vec![
            field("event", text(self.event.as_str())),
            field("path", text(&self.path)),
            field("clusterName", text(&self.cluster_name)),
            field("nodeName", text(&self.node_name)),
            field("fsName", text(&self.fs_name)),
            field("inode", num(self.inode)),
            field("fileSize", num(self.file_size)),
            field("isDir", Json::Bool(self.is_dir)),
            field("eventTime", num(self.event_time_ns)),
        ];
        if let Some(old) = &self.old_path {
            fields.push(field("oldPath", text(old)));
        }
        Json::Obj(fields).render()
    }

    /// Decode an audit JSON document.
    pub fn from_json(text: &str) -> Result<AuditEvent, AuditParseError> {
        let doc = Json::parse(text).map_err(AuditParseError::Json)?;
        let field = |k: &str| {
            doc.get(k)
                .ok_or_else(|| AuditParseError::MissingField(k.to_string()))
        };
        let str_field = |k: &str| -> Result<String, AuditParseError> {
            field(k)?
                .as_str()
                .map(str::to_string)
                .ok_or_else(|| AuditParseError::WrongType(k.to_string()))
        };
        let int_field = |k: &str| -> Result<u64, AuditParseError> {
            field(k)?
                .as_u64()
                .ok_or_else(|| AuditParseError::WrongType(k.to_string()))
        };
        let event_name = str_field("event")?;
        let event =
            AuditEventType::parse(&event_name).ok_or(AuditParseError::UnknownEvent(event_name))?;
        Ok(AuditEvent {
            event,
            path: str_field("path")?,
            old_path: doc
                .get("oldPath")
                .and_then(|v| v.as_str())
                .map(str::to_string),
            cluster_name: str_field("clusterName")?,
            node_name: str_field("nodeName")?,
            fs_name: str_field("fsName")?,
            inode: int_field("inode")?,
            file_size: int_field("fileSize")?,
            is_dir: matches!(doc.get("isDir"), Some(Json::Bool(true))),
            event_time_ns: int_field("eventTime")?,
        })
    }

    /// Standardize against a watch root (the mount point).
    pub fn to_standard(&self, watch_root: &str) -> StandardEvent {
        let (kind, type_is_dir) = self.event.to_standard();
        let strip = |p: &str| {
            p.strip_prefix(watch_root.trim_end_matches('/'))
                .unwrap_or(p)
                .to_string()
        };
        let mut ev = StandardEvent::new(kind, watch_root, strip(&self.path))
            .with_timestamp(self.event_time_ns)
            .with_source(MonitorSource::Synthetic);
        ev.is_dir = self.is_dir || type_is_dir;
        if let Some(old) = &self.old_path {
            let rel = strip(old);
            ev.old_path = Some(if rel.starts_with('/') {
                rel
            } else {
                format!("/{rel}")
            });
        }
        ev
    }
}

/// Errors decoding an audit record.
#[derive(Debug)]
pub enum AuditParseError {
    /// JSON-level failure.
    Json(JsonError),
    /// A required field was absent.
    MissingField(String),
    /// A field had the wrong type.
    WrongType(String),
    /// The `event` field named an unknown type.
    UnknownEvent(String),
}

impl std::fmt::Display for AuditParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AuditParseError::Json(e) => write!(f, "audit JSON: {e}"),
            AuditParseError::MissingField(k) => write!(f, "audit record missing field {k}"),
            AuditParseError::WrongType(k) => write!(f, "audit field {k} has wrong type"),
            AuditParseError::UnknownEvent(e) => write!(f, "unknown audit event {e}"),
        }
    }
}

impl std::error::Error for AuditParseError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> AuditEvent {
        AuditEvent {
            event: AuditEventType::Create,
            path: "/gpfs/fs0/project/data.bin".into(),
            old_path: None,
            cluster_name: "gpfs-cluster.example.com".into(),
            node_name: "protocol-node-3".into(),
            fs_name: "fs0".into(),
            inode: 48_291,
            file_size: 0,
            is_dir: false,
            event_time_ns: 1_552_084_067_000_000_000,
        }
    }

    #[test]
    fn json_roundtrip() {
        let ev = sample();
        let decoded = AuditEvent::from_json(&ev.to_json()).unwrap();
        assert_eq!(decoded, ev);
    }

    #[test]
    fn rename_carries_old_path() {
        let mut ev = sample();
        ev.event = AuditEventType::Rename;
        ev.old_path = Some("/gpfs/fs0/project/old.bin".into());
        let decoded = AuditEvent::from_json(&ev.to_json()).unwrap();
        assert_eq!(
            decoded.old_path.as_deref(),
            Some("/gpfs/fs0/project/old.bin")
        );
        let std = decoded.to_standard("/gpfs/fs0");
        assert_eq!(std.kind, EventKind::MovedTo);
        assert_eq!(std.old_path.as_deref(), Some("/project/old.bin"));
        assert_eq!(std.path, "/project/data.bin");
    }

    #[test]
    fn event_type_names_roundtrip() {
        for t in AuditEventType::ALL {
            assert_eq!(AuditEventType::parse(t.as_str()), Some(t), "{t:?}");
        }
        assert_eq!(AuditEventType::parse("BOGUS"), None);
    }

    #[test]
    fn standard_mapping() {
        assert_eq!(
            AuditEventType::Mkdir.to_standard(),
            (EventKind::Create, true)
        );
        assert_eq!(
            AuditEventType::Destroy.to_standard(),
            (EventKind::Delete, false)
        );
        assert_eq!(
            AuditEventType::AclChange.to_standard(),
            (EventKind::Attrib, false)
        );
        assert_eq!(
            AuditEventType::XattrChange.to_standard(),
            (EventKind::Xattr, false)
        );
    }

    #[test]
    fn missing_fields_rejected() {
        assert!(matches!(
            AuditEvent::from_json(r#"{"event":"CREATE"}"#),
            Err(AuditParseError::MissingField(_))
        ));
        assert!(matches!(
            AuditEvent::from_json(r#"{"bad json"#),
            Err(AuditParseError::Json(_))
        ));
        assert!(matches!(
            AuditEvent::from_json(
                r#"{"event":"NOPE","path":"/x","clusterName":"c","nodeName":"n","fsName":"f","inode":1,"fileSize":0,"eventTime":0}"#
            ),
            Err(AuditParseError::UnknownEvent(_))
        ));
    }

    #[test]
    fn paths_with_special_characters_survive() {
        let mut ev = sample();
        ev.path = "/gpfs/fs0/weird \"name\"\\with\tstuff".into();
        let decoded = AuditEvent::from_json(&ev.to_json()).unwrap();
        assert_eq!(decoded.path, ev.path);
    }
}
