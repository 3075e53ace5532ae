//! The socket context and in-process endpoint registry.

use crate::pubsub::PubCore;
use crate::reqrep::RepCore;
use crate::{MqError, PubSocket, SubSocket};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// What kind of core a name is bound to in the inproc registry.
#[derive(Clone)]
pub(crate) enum InprocBinding {
    /// A PUB socket's fan-out core.
    Publisher(Arc<PubCore>),
    /// A REP socket's request queue.
    Replier(Arc<RepCore>),
}

/// A socket context: owns the inproc namespace. Typically one per
/// process (mirroring `zmq::Context`), but tests create many.
#[derive(Clone, Default)]
pub struct Context {
    bindings: Arc<Mutex<HashMap<String, InprocBinding>>>,
}

impl Context {
    /// A fresh context with an empty inproc namespace.
    pub fn new() -> Context {
        Context::default()
    }

    /// Create a PUB socket.
    pub fn publisher(&self) -> PubSocket {
        PubSocket::new(self.clone())
    }

    /// Create a SUB socket.
    pub fn subscriber(&self) -> SubSocket {
        SubSocket::new(self.clone())
    }

    /// Create a REP socket.
    pub fn replier(&self) -> crate::reqrep::RepSocket {
        crate::reqrep::RepSocket::new(self.clone())
    }

    /// Create a REQ socket.
    pub fn requester(&self) -> crate::reqrep::ReqSocket {
        crate::reqrep::ReqSocket::new(self.clone())
    }

    pub(crate) fn register(&self, name: &str, binding: InprocBinding) -> Result<(), MqError> {
        let mut map = self.bindings.lock();
        if map.contains_key(name) {
            return Err(MqError::BindFailed(format!(
                "inproc name already bound: {name}"
            )));
        }
        map.insert(name.to_string(), binding);
        Ok(())
    }

    pub(crate) fn lookup(&self, name: &str) -> Result<InprocBinding, MqError> {
        self.bindings
            .lock()
            .get(name)
            .cloned()
            .ok_or_else(|| MqError::ConnectFailed(format!("no inproc binding: {name}")))
    }

    pub(crate) fn unregister(&self, name: &str) {
        self.bindings.lock().remove(name);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duplicate_bind_rejected() {
        let ctx = Context::new();
        let p1 = ctx.publisher();
        p1.bind("inproc://x").unwrap();
        let p2 = ctx.publisher();
        assert!(matches!(p2.bind("inproc://x"), Err(MqError::BindFailed(_))));
    }

    #[test]
    fn connect_unknown_name_fails() {
        let ctx = Context::new();
        let s = ctx.subscriber();
        assert!(matches!(
            s.connect("inproc://nope"),
            Err(MqError::ConnectFailed(_))
        ));
    }

    #[test]
    fn contexts_isolate_namespaces() {
        let a = Context::new();
        let b = Context::new();
        let p = a.publisher();
        p.bind("inproc://shared").unwrap();
        let s = b.subscriber();
        assert!(s.connect("inproc://shared").is_err());
    }
}
