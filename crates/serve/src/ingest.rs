//! Live `.wcmt` ingestion: sources that feed a strict
//! [`FrameDecoder`] from a growing file (tail) or a TCP connection and
//! route each decoded frame to the session it belongs to.
//!
//! A source is a layered rx pipeline: bytes → frames (decoder) →
//! routed batches keyed by `(source, session)`. Session identity
//! follows the stream's own `META` frames — each `META` names the
//! current session of that source, and every `DEMANDS`/`TIMES` frame
//! that follows belongs to it until the next `META`. One stream can
//! therefore multiplex any number of interleaved sessions. Summary,
//! sweep and application frames are dropped as they pass; typed events
//! (`REGISTRY`/`EVENTS`) kill the source with
//! [`WireErrorKind::UnexpectedKind`], because the decoder would hold
//! them for the life of the stream.
//!
//! Tail semantics are where the live path differs from batch decode:
//! a tail that catches up to a *partial frame* at end-of-file parks
//! the decoder and resumes when the writer appends (never a
//! `truncated` error), and a tail that consumed a clean end marker
//! resumes across `StreamEncoder::reopen` — the writer truncates the
//! marker and appends in its place, so the source rewinds by exactly
//! [`wcm_wire::frame::FRAME_OVERHEAD`] bytes via
//! [`FrameDecoder::resume_after_end`] before reading on.

use std::collections::HashMap;
use std::io::{self, Read, Seek, SeekFrom};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};

use wcm_wire::frame::{Frame, KIND_DEMANDS, KIND_EVENTS, KIND_META, KIND_REGISTRY, KIND_TIMES};
use wcm_wire::{DecodePolicy, Decoded, FrameDecoder, WireError, WireErrorKind};

/// Bytes a source reads, and feeds its decoder, at a time: a poll
/// reads up to its budget in pieces of this size, so neither the read
/// buffer nor the decoder's own buffer grows with the budget.
const READ_PIECE: usize = 64 << 10;

/// The first `min(want, READ_PIECE)` bytes of `buf`, grown to that size
/// on first use and reused after.
fn piece_buf(buf: &mut Vec<u8>, want: usize) -> &mut [u8] {
    let len = want.min(READ_PIECE);
    if buf.len() < len {
        buf.resize(len, 0);
    }
    &mut buf[..len]
}

/// One routed batch of decoded events: everything one poll round
/// produced for one session of one source, in stream order.
#[derive(Debug, Default)]
pub struct RoutedBatch {
    /// Demand values, in arrival order.
    pub demands: Vec<u64>,
    /// Timestamps, in arrival order.
    pub times: Vec<f64>,
}

/// Frame router: accumulates one poll round's decoded frames into
/// per-session batches (keyed by session name; the caller scopes them
/// by source).
#[derive(Debug, Default)]
struct Router {
    /// `(session name, batch)` in first-seen order — deterministic
    /// routing order for the shard step.
    batches: Vec<(String, RoutedBatch)>,
    /// Session name → its slot in `batches`, this round only.
    index: HashMap<String, usize>,
    /// The active session name (`""` before any `META`) — sticky
    /// *across* polls, because a chunk boundary can land anywhere
    /// between a `META` and the frames that belong to it.
    current: String,
    /// The active session's slot, resolved at its first data frame
    /// after each `META`.
    active: Option<usize>,
    /// The first frame the source may not carry; nothing after it is
    /// routed.
    rejected: Option<WireError>,
}

impl Router {
    /// Feed one piece of the source's bytes through `dec` into the
    /// batches. The first error, the decoder's or the router's, is
    /// final.
    fn feed(&mut self, dec: &mut FrameDecoder, piece: &[u8]) -> Result<(), WireError> {
        let fed = dec.feed_with(piece, |f, d| self.route(f, d));
        // A rejected frame comes before any frame the decoder failed on.
        self.rejected.clone().map_or(fed, Err)
    }

    /// Route one frame, taking its payload out of the decoder's
    /// sections (see [`FrameDecoder::feed_with`]).
    fn route(&mut self, frame: &Frame<'_>, decoded: &mut Decoded) {
        if self.rejected.is_some() {
            return;
        }
        match frame.kind {
            KIND_META => {
                self.current = decoded.name.take().unwrap_or_default();
                self.active = None;
            }
            KIND_DEMANDS => self.active_batch().demands.append(&mut decoded.demands),
            KIND_TIMES => self.active_batch().times.append(&mut decoded.times),
            // Typed events pile up in the decoder outside `decoded`,
            // where nothing here could drop them, so a session stream
            // must not carry them.
            KIND_REGISTRY | KIND_EVENTS => {
                let kind = WireErrorKind::UnexpectedKind(frame.kind);
                self.rejected = Some(WireError::new(frame.start, kind));
            }
            // No other kind belongs to a session: drop what it added so
            // a long-lived source stays flat. `sweep_meta` is one value,
            // and the decoder checks later `SWEEP_POINTS` against it.
            _ => {
                decoded.summaries.clear();
                decoded.app_frames.clear();
                decoded.sweep_points.clear();
            }
        }
    }

    fn active_batch(&mut self) -> &mut RoutedBatch {
        let slot = *self.active.get_or_insert_with(|| {
            if let Some(&slot) = self.index.get(&self.current) {
                return slot;
            }
            self.batches
                .push((self.current.clone(), RoutedBatch::default()));
            self.index
                .insert(self.current.clone(), self.batches.len() - 1);
            self.batches.len() - 1
        });
        &mut self.batches[slot].1
    }

    /// Hand the round's batches out. The index goes with them (its
    /// memory released, not kept for the next round); the active
    /// session stays.
    fn take_batches(&mut self) -> Vec<(String, RoutedBatch)> {
        self.index = HashMap::new();
        self.active = None;
        std::mem::take(&mut self.batches)
    }
}

/// What one poll of a source produced.
#[derive(Debug, Default)]
pub struct Poll {
    /// Routed per-session batches (drained by the caller).
    pub batches: Vec<(String, RoutedBatch)>,
    /// Bytes consumed this round.
    pub bytes: usize,
    /// The source reached a clean end marker (it may still resume if
    /// the writer reopens the stream).
    pub ended: bool,
    /// The source failed permanently (malformed stream).
    pub dead: Option<WireError>,
}

/// Live tail of a growing `.wcmt` file.
#[derive(Debug)]
pub struct TailSource {
    /// Stable identity used to scope session keys.
    pub id: String,
    path: PathBuf,
    dec: FrameDecoder,
    router: Router,
    /// Read buffer ([`READ_PIECE`] bytes at most), reused across polls.
    buf: Vec<u8>,
    /// Absolute file offset of the next unread byte.
    offset: u64,
    dead: Option<WireError>,
}

impl TailSource {
    /// Tail `path` from the beginning.
    ///
    /// # Errors
    ///
    /// I/O errors opening/statting the file.
    pub fn open(path: &Path) -> io::Result<Self> {
        std::fs::metadata(path)?;
        Ok(Self {
            id: format!("file:{}", path.display()),
            path: path.to_path_buf(),
            dec: FrameDecoder::new(DecodePolicy::Strict),
            router: Router::default(),
            buf: Vec::new(),
            offset: 0,
            dead: None,
        })
    }

    /// Read up to `budget` new bytes, decode, and route. `stalled`
    /// (backpressure from a full session buffer) skips reading without
    /// touching decoder state — the unread bytes simply stay in the
    /// file.
    ///
    /// # Errors
    ///
    /// I/O errors reading the file. Wire errors mark the source dead
    /// and are reported in the poll, not returned.
    pub fn poll(&mut self, budget: usize, stalled: bool) -> io::Result<Poll> {
        let mut out = Poll::default();
        if let Some(e) = &self.dead {
            out.dead = Some(e.clone());
            return Ok(out);
        }
        if stalled {
            out.ended = self.dec.ended();
            return Ok(out);
        }
        let len = std::fs::metadata(&self.path)?.len();
        if self.dec.ended() && len != self.offset {
            // The writer reopened the sealed stream in place: rewind
            // over the truncated end marker and re-read from the seam.
            if let Some(seam) = self.dec.resume_after_end() {
                self.offset = seam as u64;
            }
        }
        if len > self.offset {
            let mut file = std::fs::File::open(&self.path)?;
            file.seek(SeekFrom::Start(self.offset))?;
            let want = usize::try_from(len - self.offset)
                .unwrap_or(usize::MAX)
                .min(budget.max(1));
            let buf = piece_buf(&mut self.buf, want);
            while out.bytes < want {
                let end = (want - out.bytes).min(buf.len());
                let piece = &mut buf[..end];
                let n = match file.read(piece) {
                    Ok(0) => break,
                    Ok(n) => n,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(e) => return Err(e),
                };
                self.offset += n as u64;
                out.bytes += n;
                if let Err(e) = self.router.feed(&mut self.dec, &piece[..n]) {
                    self.dead = Some(e.clone());
                    out.dead = Some(e);
                    break;
                }
            }
        }
        out.ended = self.dec.ended();
        out.batches = self.router.take_batches();
        Ok(out)
    }
}

/// TCP ingestion: a listener plus one decoder per accepted connection.
/// Connections speak plain `.wcmt` — header, frames, end marker.
#[derive(Debug)]
pub struct TcpSource {
    listener: TcpListener,
    conns: Vec<Conn>,
    accepted: u64,
    /// Read buffer ([`READ_PIECE`] bytes at most), shared by the
    /// connections and reused across polls.
    buf: Vec<u8>,
}

#[derive(Debug)]
struct Conn {
    id: String,
    stream: TcpStream,
    dec: FrameDecoder,
    router: Router,
    open: bool,
}

impl TcpSource {
    /// Bind `addr` (e.g. `127.0.0.1:7070`) in non-blocking mode.
    ///
    /// # Errors
    ///
    /// Bind/configure errors.
    pub fn bind(addr: &str) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        Ok(Self {
            listener,
            conns: Vec::new(),
            accepted: 0,
            buf: Vec::new(),
        })
    }

    /// The bound local address.
    ///
    /// # Errors
    ///
    /// As [`TcpListener::local_addr`].
    pub fn local_addr(&self) -> io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// Accept pending connections and poll every open one. Returns the
    /// per-connection polls as `(source id, poll)`.
    ///
    /// # Errors
    ///
    /// Accept errors other than `WouldBlock`.
    pub fn poll(&mut self, budget: usize, stalled: bool) -> io::Result<Vec<(String, Poll)>> {
        loop {
            match self.listener.accept() {
                Ok((stream, peer)) => {
                    stream.set_nonblocking(true)?;
                    self.accepted += 1;
                    self.conns.push(Conn {
                        id: format!("tcp:{peer}#{}", self.accepted),
                        stream,
                        dec: FrameDecoder::new(DecodePolicy::Strict),
                        router: Router::default(),
                        open: true,
                    });
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) => return Err(e),
            }
        }
        let budget = budget.max(1);
        let buf = piece_buf(&mut self.buf, budget);
        let mut polls = Vec::new();
        for conn in &mut self.conns {
            if !conn.open {
                continue;
            }
            let mut out = Poll::default();
            if !stalled {
                let mut read = 0;
                loop {
                    let end = (budget - read).min(buf.len());
                    let piece = &mut buf[..end];
                    match conn.stream.read(piece) {
                        Ok(0) => {
                            conn.open = false;
                            break;
                        }
                        Ok(n) => {
                            read += n;
                            if let Err(e) = conn.router.feed(&mut conn.dec, &piece[..n]) {
                                out.dead = Some(e);
                                conn.open = false;
                                break;
                            }
                            if read == budget {
                                break;
                            }
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                        Err(_) => {
                            conn.open = false;
                            break;
                        }
                    }
                }
                out.bytes = read;
            }
            out.ended = conn.dec.ended();
            if out.ended {
                conn.open = false;
            }
            out.batches = conn.router.take_batches();
            polls.push((conn.id.clone(), out));
        }
        self.conns.retain(|c| c.open);
        Ok(polls)
    }

    /// Open connections right now.
    #[must_use]
    pub fn open_conns(&self) -> usize {
        self.conns.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wcm_wire::frame::FRAME_OVERHEAD;
    use wcm_wire::{StreamEncoder, SweepPointRec, SweepShardMeta};

    /// One poll: feed `bytes` through a strict decoder into `router`,
    /// then hand the batches out as `(name, demands, times)`.
    fn poll(
        dec: &mut FrameDecoder,
        router: &mut Router,
        bytes: &[u8],
    ) -> Vec<(String, Vec<u64>, Vec<f64>)> {
        router.feed(dec, bytes).unwrap();
        let batches = router.take_batches();
        assert_eq!(router.index.capacity(), 0, "the index is released");
        batches
            .into_iter()
            .map(|(name, b)| (name, b.demands, b.times))
            .collect()
    }

    fn route_whole(bytes: &[u8]) -> Vec<(String, Vec<u64>, Vec<f64>)> {
        let mut dec = FrameDecoder::new(DecodePolicy::Strict);
        poll(&mut dec, &mut Router::default(), bytes)
    }

    fn batch(name: &str, demands: &[u64], times: &[f64]) -> (String, Vec<u64>, Vec<f64>) {
        (name.to_string(), demands.to_vec(), times.to_vec())
    }

    #[test]
    fn batches_come_out_in_first_seen_order() {
        let mut enc = StreamEncoder::new();
        enc.meta("b");
        enc.demands(&[1, 2]);
        enc.meta("a");
        enc.demands(&[3]);
        enc.times(&[0.5]).unwrap();
        enc.meta("c");
        enc.times(&[1.0, 2.0]).unwrap();
        enc.meta("unused");
        assert_eq!(
            route_whole(&enc.finish()),
            [
                batch("b", &[1, 2], &[]),
                batch("a", &[3], &[0.5]),
                batch("c", &[], &[1.0, 2.0]),
            ]
        );
    }

    #[test]
    fn a_session_named_twice_merges_into_one_batch() {
        let mut enc = StreamEncoder::new();
        enc.meta("a");
        enc.demands(&[1]);
        enc.meta("b");
        enc.demands(&[2]);
        enc.meta("a");
        enc.demands(&[3]);
        assert_eq!(
            route_whole(&enc.finish()),
            [batch("a", &[1, 3], &[]), batch("b", &[2], &[])]
        );
    }

    #[test]
    fn the_active_session_is_sticky_across_polls() {
        let mut enc = StreamEncoder::new();
        enc.meta("x");
        let split = enc.clone().finish().len() - FRAME_OVERHEAD;
        enc.demands(&[7, 8]);
        let bytes = enc.finish();
        let mut dec = FrameDecoder::new(DecodePolicy::Strict);
        let mut router = Router::default();
        assert_eq!(poll(&mut dec, &mut router, &bytes[..split]), []);
        assert_eq!(
            poll(&mut dec, &mut router, &bytes[split..]),
            [batch("x", &[7, 8], &[])]
        );
    }

    #[test]
    fn frames_before_any_meta_land_in_the_default_session() {
        let mut enc = StreamEncoder::new();
        enc.demands(&[4]);
        enc.meta("s");
        enc.demands(&[5]);
        assert_eq!(
            route_whole(&enc.finish()),
            [batch("", &[4], &[]), batch("s", &[5], &[])]
        );
    }

    #[test]
    fn thousands_of_interleaved_sessions_route_exactly() {
        const SESSIONS: u64 = 5_000;
        let mut enc = StreamEncoder::new();
        for sitting in 0..3 {
            for s in 0..SESSIONS {
                enc.meta(&format!("s{s}"));
                enc.demands(&[s * 3 + sitting]);
            }
        }
        let got = route_whole(&enc.finish());
        let want: Vec<_> = (0..SESSIONS)
            .map(|s| batch(&format!("s{s}"), &[s * 3, s * 3 + 1, s * 3 + 2], &[]))
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn other_frames_are_dropped_in_any_chunking() {
        let mut enc = StreamEncoder::new();
        enc.meta("a");
        enc.demands(&[1]);
        enc.sweep_meta(&SweepShardMeta {
            shard: 0,
            shards: 1,
            start: 0,
            len: 2,
            total: 2,
            fingerprint: 1,
            clips: vec!["c".into()],
            frequencies_hz: vec![1.0],
            capacities: vec![1],
            policies: vec![0],
            seeds: vec![None, Some(2)],
            advisories: Vec::new(),
        });
        let recs = [SweepPointRec {
            verdict: 1,
            sim: None,
        }; 2];
        enc.sweep_points(&recs[..1]);
        enc.app_frame(0x40, b"app");
        enc.sweep_points(&recs[1..]);
        enc.demands(&[2]);
        let bytes = enc.finish();
        for piece in [1, 7, bytes.len()] {
            let mut dec = FrameDecoder::new(DecodePolicy::Strict);
            let mut router = Router::default();
            let mut got = Vec::new();
            for chunk in bytes.chunks(piece) {
                got.extend(poll(&mut dec, &mut router, chunk));
            }
            let merged: Vec<u64> = got.iter().flat_map(|b| b.1.clone()).collect();
            assert_eq!(merged, [1, 2], "piece {piece}");
            assert!(got.iter().all(|b| b.0 == "a"));
            let rest = dec.finish().unwrap();
            assert!(rest.sweep_meta.is_some());
            assert!(rest.sweep_points.is_empty() && rest.app_frames.is_empty());
        }
    }

    #[test]
    fn typed_events_kill_a_tail() {
        let mut enc = StreamEncoder::new();
        enc.meta("t");
        enc.demands(&[1, 2]);
        let registry_at = enc.clone().finish().len() - FRAME_OVERHEAD;
        let mut reg = wcm_events::TypeRegistry::new();
        let ty = reg
            .register(
                "i",
                wcm_events::ExecutionInterval::fixed(wcm_events::Cycles(5)),
            )
            .unwrap();
        enc.registry(&reg);
        for _ in 0..64 {
            enc.events(&[ty; 1024]);
        }
        enc.demands(&[3]);
        let bytes = enc.finish();
        let path =
            std::env::temp_dir().join(format!("wcm_ingest_typed_{}.wcmt", std::process::id()));
        std::fs::write(&path, &bytes).unwrap();

        let mut src = TailSource::open(&path).unwrap();
        let want = WireError::new(registry_at, WireErrorKind::UnexpectedKind(KIND_REGISTRY));
        let first = src.poll(registry_at + 4096, false).unwrap();
        assert_eq!(first.dead, Some(want.clone()));
        let routed: Vec<_> = first
            .batches
            .iter()
            .map(|(n, b)| (n.as_str(), &b.demands[..]))
            .collect();
        assert_eq!(routed, [("t", &[1, 2][..])]);
        let again = src.poll(bytes.len(), false).unwrap();
        assert_eq!(again.dead, Some(want), "the source stays dead");
        assert_eq!((again.bytes, again.batches.len()), (0, 0));
        std::fs::remove_file(&path).ok();
    }
}
