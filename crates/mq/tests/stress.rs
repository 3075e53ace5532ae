//! Ordering and integrity stress tests for the message queue.

use fsmon_mq::{Context, Message};
use std::time::Duration;

/// Per-publisher FIFO ordering is preserved through PUB/SUB fan-out:
/// a subscriber sees every publisher's messages in send order.
#[test]
fn pubsub_preserves_per_publisher_order_under_concurrency() {
    let ctx = Context::new();
    let n_pubs = 4u8;
    let per_pub = 2_000u32;
    let mut pubs = Vec::new();
    for p in 0..n_pubs {
        let socket = ctx.publisher();
        socket.bind(&format!("inproc://stress-{p}")).unwrap();
        pubs.push(socket);
    }
    let sub = ctx.subscriber();
    for p in 0..n_pubs {
        sub.connect(&format!("inproc://stress-{p}")).unwrap();
    }
    sub.subscribe(b"");

    let handles: Vec<_> = pubs
        .into_iter()
        .enumerate()
        .map(|(p, socket)| {
            std::thread::spawn(move || {
                for i in 0..per_pub {
                    let mut payload = vec![p as u8];
                    payload.extend_from_slice(&i.to_be_bytes());
                    socket.send(Message::single(payload)).unwrap();
                }
            })
        })
        .collect();

    let mut next_expected = vec![0u32; n_pubs as usize];
    let mut received = 0u32;
    while received < per_pub * n_pubs as u32 {
        let msg = sub
            .recv_timeout(Duration::from_secs(5))
            .expect("stream should not stall");
        let raw = msg.part(0).unwrap();
        let p = raw[0] as usize;
        let i = u32::from_be_bytes(raw[1..5].try_into().unwrap());
        assert_eq!(i, next_expected[p], "publisher {p} out of order");
        next_expected[p] += 1;
        received += 1;
    }
    for h in handles {
        h.join().unwrap();
    }
}

/// TCP pub/sub round-trips large multipart frames intact.
#[test]
fn tcp_large_frames_roundtrip() {
    let ctx = Context::new();
    let publisher = ctx.publisher();
    publisher.bind("tcp://127.0.0.1:0").unwrap();
    let addr = publisher.local_addr().unwrap();
    let sub = ctx.subscriber();
    sub.connect(&format!("tcp://{addr}")).unwrap();
    sub.subscribe(b"big");

    let payload: Vec<u8> = (0..1_000_000u32).map(|i| (i % 251) as u8).collect();
    publisher
        .send(Message::from_parts(vec![b"big".to_vec(), payload.clone()]))
        .unwrap();
    let msg = sub.recv_timeout(Duration::from_secs(5)).unwrap();
    assert_eq!(msg.part(1), Some(&payload[..]));
}

/// A REQ/REP server fronting many concurrent TCP clients answers each
/// correctly.
#[test]
fn tcp_reqrep_many_clients() {
    let ctx = Context::new();
    let rep = ctx.replier();
    rep.bind("tcp://127.0.0.1:0").unwrap();
    let addr = rep.local_addr().unwrap();
    let server = std::thread::spawn(move || {
        let mut served = 0;
        while let Ok(incoming) = rep.recv_timeout(Duration::from_millis(800)) {
            let doubled: Vec<u8> = incoming
                .request
                .part(0)
                .unwrap()
                .iter()
                .map(|b| b.wrapping_mul(2))
                .collect();
            incoming.reply(Message::single(doubled)).unwrap();
            served += 1;
        }
        served
    });
    let clients: Vec<_> = (0..6u8)
        .map(|c| {
            let addr = addr.to_string();
            let ctx = ctx.clone();
            std::thread::spawn(move || {
                let req = ctx.requester();
                req.connect(&format!("tcp://{addr}")).unwrap();
                for i in 0..20u8 {
                    let reply = req
                        .request(Message::single(vec![c, i]), Duration::from_secs(5))
                        .unwrap();
                    assert_eq!(
                        reply.part(0),
                        Some(&[c.wrapping_mul(2), i.wrapping_mul(2)][..])
                    );
                }
            })
        })
        .collect();
    for c in clients {
        c.join().unwrap();
    }
    assert_eq!(server.join().unwrap(), 120);
}
