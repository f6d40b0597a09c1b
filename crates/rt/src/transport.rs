//! Pluggable link transport for the runtime.
//!
//! The runtime's routing fabric is transport-agnostic: [`crate::Router`]
//! decides *where* a frame goes (which broker, which matcher shard,
//! broadcast or class-routed) and this module decides *how* the bytes
//! travel there. Two backends implement the same contract:
//!
//! * [`TransportKind::Mpsc`] (the default) — frames are handed straight
//!   to the destination shard's in-process `std::sync::mpsc` channel, as
//!   in every revision since PR 5. Zero extra threads, zero copies
//!   beyond the channel hand-off.
//! * [`TransportKind::Tcp`] — every node (each broker, each subscriber)
//!   gets a real loopback TCP socket in front of its inbox channels: a
//!   per-link **writer thread** owns the connected stream and drains a
//!   command queue (so senders never block on socket I/O and the queue
//!   preserves the mpsc backend's FIFO semantics), and a per-link
//!   **reader thread** deframes the socket and forwards each frame into
//!   the destination's *current* inbox sender via the router — looked
//!   up per message, so supervised shard restarts re-wire the link
//!   automatically, exactly as they re-wire in-process senders.
//!
//! The shutdown poison pill also rides the link ([`LinkCmd::Shutdown`]):
//! poisoning through the same FIFO the data frames took preserves the
//! teardown invariant that a joined upstream stage's frames are already
//! enqueued downstream before the downstream node drains.
//!
//! A link message carries the routing metadata the in-process `Frame`
//! struct would have carried in its fields: target shard (or the
//! broadcast sentinel), requeue tag, message count, and the profiler's
//! enqueue stamp. The frame payload itself is opaque to this layer — the
//! codec ([`crate::WireCodec`]) already produced self-contained framed
//! bytes, one or more complete wire frames per link message.
//!
//! This backend is the in-process proving ground for the socket path
//! (sim-vs-rt parity runs over it; see `tests/parity.rs`). Genuinely
//! separate broker *processes* talk through the higher-level
//! [`crate::remote`] protocol instead, which adds the handshake and the
//! negotiated attribute dictionary a trust boundary needs.

use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

use crate::runtime::{Frame, FrameTag, Router, MAX_CHANNEL_FRAME};
use crate::stats::RtStats;

/// Which link backend carries frames between node threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransportKind {
    /// In-process `std::sync::mpsc` channels — the default for tests
    /// and single-process deployments.
    #[default]
    Mpsc,
    /// Loopback TCP sockets with per-link writer and reader threads;
    /// every frame pays real socket I/O.
    Tcp,
}

/// The broadcast shard sentinel in a link message's shard field.
pub(crate) const SHARD_BROADCAST: u32 = u32::MAX;

/// What a link writer thread is asked to put on the socket.
pub(crate) enum LinkCmd {
    /// One channel frame for the destination's shard (or all shards).
    Frame { shard: u32, frame: Frame },
    /// The shutdown poison pill for one shard (or all shards), ordered
    /// behind every frame already queued on this link.
    Shutdown { shard: u32 },
    /// Close the socket and exit the writer thread.
    Close,
}

/// Socket message discriminators.
const MSG_FRAME: u8 = 1;
const MSG_SHUTDOWN: u8 = 2;

/// Wire values for [`FrameTag`] on the link header.
const TAG_DATA: u8 = 0;
const TAG_ACK: u8 = 1;
const TAG_CTRL: u8 = 2;

/// One live TCP link: the command sender the router dispatches into,
/// plus the writer/reader threads joined at teardown.
pub(crate) struct Link {
    pub(crate) tx: Sender<LinkCmd>,
    writer: Option<JoinHandle<()>>,
    reader: Option<JoinHandle<()>>,
}

impl Link {
    /// Closes the socket (writer first, whose dropped stream EOFs the
    /// reader) and joins both threads. Called after every node thread
    /// has drained, so nothing useful can still be in flight.
    pub(crate) fn close(mut self) {
        let _ = self.tx.send(LinkCmd::Close);
        if let Some(h) = self.writer.take() {
            let _ = h.join();
        }
        if let Some(h) = self.reader.take() {
            let _ = h.join();
        }
    }
}

/// Builds the TCP link in front of node `dest`'s inbox channels: binds
/// an ephemeral loopback listener, connects the writer side, accepts the
/// reader side, and spawns both threads.
pub(crate) fn spawn_link(dest: usize, router: Router, stats: Arc<RtStats>) -> io::Result<Link> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    // Loopback connect against our own listening backlog: the handshake
    // completes kernel-side, so connect-then-accept on one thread is
    // deadlock-free.
    let out = TcpStream::connect(addr)?;
    let (inc, _) = listener.accept()?;
    out.set_nodelay(true)?;
    inc.set_nodelay(true)?;

    let (tx, rx) = channel();
    let writer = std::thread::Builder::new()
        .name(format!("lc-link-w-{dest}"))
        .spawn(move || writer_loop(out, &rx))?;
    let reader = std::thread::Builder::new()
        .name(format!("lc-link-r-{dest}"))
        .spawn(move || reader_loop(inc, dest, &router, &stats))?;
    Ok(Link {
        tx,
        writer: Some(writer),
        reader: Some(reader),
    })
}

/// Drains the link's command queue onto the socket. One reused buffer
/// assembles header + payload so each message is a single `write_all`
/// (with `TCP_NODELAY`, that is one segment for small frames).
fn writer_loop(mut stream: TcpStream, rx: &Receiver<LinkCmd>) {
    let mut buf: Vec<u8> = Vec::with_capacity(512);
    while let Ok(cmd) = rx.recv() {
        buf.clear();
        match cmd {
            LinkCmd::Frame { shard, frame } => {
                // The tag argument: a control frame's capture sequence,
                // otherwise the frame's message count.
                let (tag_byte, arg) = match frame.tag {
                    FrameTag::Data => (TAG_DATA, u64::from(frame.msgs)),
                    FrameTag::Ack => (TAG_ACK, u64::from(frame.msgs)),
                    FrameTag::Ctrl(seq) => (TAG_CTRL, seq),
                };
                buf.push(MSG_FRAME);
                buf.extend_from_slice(&shard.to_le_bytes());
                buf.push(tag_byte);
                buf.extend_from_slice(&arg.to_le_bytes());
                buf.extend_from_slice(&frame.enqueued_ns.to_le_bytes());
                buf.extend_from_slice(&(frame.bytes.len() as u32).to_le_bytes());
                buf.extend_from_slice(&frame.bytes);
            }
            LinkCmd::Shutdown { shard } => {
                buf.push(MSG_SHUTDOWN);
                buf.extend_from_slice(&shard.to_le_bytes());
            }
            LinkCmd::Close => break,
        }
        if stream.write_all(&buf).is_err() {
            // The reader side is gone; nothing downstream can receive
            // anyway, so drain-and-exit is the only sane behavior.
            break;
        }
    }
    // Dropping the stream sends FIN; the peer reader exits on EOF.
}

/// Reads link messages off the socket and forwards each into the
/// destination's current inbox sender(s) through the router.
fn reader_loop(mut stream: TcpStream, dest: usize, router: &Router, stats: &RtStats) {
    loop {
        let mut kind = [0u8; 1];
        if stream.read_exact(&mut kind).is_err() {
            return; // EOF (teardown) or a dead peer: the link is done.
        }
        match kind[0] {
            MSG_FRAME => {
                let mut head = [0u8; 25];
                if stream.read_exact(&mut head).is_err() {
                    return;
                }
                let shard = u32::from_le_bytes([head[0], head[1], head[2], head[3]]);
                let arg = u64::from_le_bytes(head[5..13].try_into().expect("8 bytes"));
                let (tag, msgs) = match head[4] {
                    TAG_DATA => (FrameTag::Data, arg),
                    TAG_ACK => (FrameTag::Ack, arg),
                    TAG_CTRL => (FrameTag::Ctrl(arg), 1),
                    _ => return, // Corrupt link header: drop the stream.
                };
                let Ok(msgs) = u32::try_from(msgs) else {
                    return;
                };
                let enqueued_ns = u64::from_le_bytes(head[13..21].try_into().expect("8 bytes"));
                let len = u32::from_le_bytes(head[21..25].try_into().expect("4 bytes")) as usize;
                if len > MAX_CHANNEL_FRAME {
                    return; // Corrupt length: terminal for the stream.
                }
                let mut bytes = vec![0u8; len];
                if stream.read_exact(&mut bytes).is_err() {
                    return;
                }
                let frame = Frame {
                    bytes,
                    msgs,
                    enqueued_ns,
                    tag,
                };
                router.forward_link_frame(dest, shard, frame, stats);
            }
            MSG_SHUTDOWN => {
                let mut raw = [0u8; 4];
                if stream.read_exact(&mut raw).is_err() {
                    return;
                }
                router.forward_link_shutdown(dest, u32::from_le_bytes(raw));
            }
            _ => return, // Unknown message kind: terminal.
        }
    }
}
