//! A counting [`FrameLink`] wrapper for the traced served run.
//!
//! A wrapped link keeps a copy of every frame it *sends* and the time its
//! owner spent blocked in `recv`; payloads pass through unchanged.
//! Wrapping each end of every connection captures each frame exactly once,
//! at its sender.  After the iteration, [`FrameSummary::of`] decodes the
//! captured frames with the public [`Message::decode`] (timed:
//! `serve.decode_us`), re-encodes them with [`Message::encode`] (timed:
//! `serve.encode_us`) and counts them by kind, so the codec work stays off
//! the links' threads while the grid runs.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use caem_wsnsim::serve::{FrameLink, Message, ProtoError};

/// What one wrapped link saw.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LinkStats {
    /// Every payload sent, in order.
    pub sent: Vec<Vec<u8>>,
    /// Time blocked in `recv`.
    pub recv_wait: Duration,
}

/// A [`FrameLink`] that records what passes through it into shared stats.
pub struct CountingLink<L> {
    inner: L,
    stats: Arc<Mutex<LinkStats>>,
}

impl<L: FrameLink> CountingLink<L> {
    /// Wrap `inner`; the returned handle reads the stats while the link is
    /// owned elsewhere.
    pub fn new(inner: L) -> (Self, Arc<Mutex<LinkStats>>) {
        let stats = Arc::new(Mutex::new(LinkStats::default()));
        (
            CountingLink {
                inner,
                stats: stats.clone(),
            },
            stats,
        )
    }
}

impl<L: FrameLink> FrameLink for CountingLink<L> {
    fn send(&mut self, payload: &[u8]) -> Result<(), ProtoError> {
        self.stats
            .lock()
            .expect("link stats lock")
            .sent
            .push(payload.to_vec());
        self.inner.send(payload)
    }

    fn recv(&mut self, timeout: Option<Duration>) -> Result<Option<Vec<u8>>, ProtoError> {
        let t = Instant::now();
        let out = self.inner.recv(timeout);
        self.stats.lock().expect("link stats lock").recv_wait += t.elapsed();
        out
    }
}

/// Frames by kind, with the codec cost of decoding and re-encoding them.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FrameSummary {
    pub frames: BTreeMap<&'static str, u64>,
    pub bytes: BTreeMap<&'static str, u64>,
    /// Record lines carried by `records` frames.
    pub record_lines: u64,
    pub decoded: u64,
    pub decode_time: Duration,
    pub encode_time: Duration,
}

impl FrameSummary {
    pub fn of<'a>(payloads: impl IntoIterator<Item = &'a [u8]>) -> Self {
        let mut s = FrameSummary::default();
        for payload in payloads {
            let t = Instant::now();
            let decoded = Message::decode(payload);
            s.decode_time += t.elapsed();
            let kind = match &decoded {
                Ok(msg) => {
                    let t = Instant::now();
                    std::hint::black_box(msg.encode());
                    s.encode_time += t.elapsed();
                    s.decoded += 1;
                    if let Message::Records { lines, .. } = msg {
                        s.record_lines += lines.len() as u64;
                    }
                    msg.kind()
                }
                Err(_) => "undecodable",
            };
            *s.frames.entry(kind).or_default() += 1;
            *s.bytes.entry(kind).or_default() += payload.len() as u64;
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use caem_wsnsim::serve::loopback_pair;

    const WAIT: Option<Duration> = Some(Duration::from_secs(5));

    #[test]
    fn payloads_pass_through_unchanged_both_ways() {
        let (a, mut b) = loopback_pair();
        let (mut a, stats) = CountingLink::new(a);
        let claim = Message::Claim { seq: 7 }.encode();
        let junk = b"not a frame \x00\xff".to_vec();
        a.send(&claim).unwrap();
        a.send(&junk).unwrap();
        assert_eq!(b.recv(WAIT).unwrap(), Some(claim.clone()));
        assert_eq!(b.recv(WAIT).unwrap(), Some(junk.clone()));
        b.send(&junk).unwrap();
        assert_eq!(a.recv(WAIT).unwrap(), Some(junk.clone()));

        let stats = stats.lock().unwrap().clone();
        assert_eq!(
            stats.sent,
            vec![claim.clone(), junk],
            "only sent frames are kept"
        );
        let summary = FrameSummary::of(stats.sent.iter().map(Vec::as_slice));
        assert_eq!(summary.frames.get("claim"), Some(&1));
        assert_eq!(summary.bytes.get("claim"), Some(&(claim.len() as u64)));
        assert_eq!(summary.frames.get("undecodable"), Some(&1));
        assert_eq!(summary.decoded, 1);
    }

    #[test]
    fn record_lines_are_counted() {
        let msg = Message::Records {
            grid: 1,
            shard: 0,
            lines: vec!["{}".to_string(), "{}".to_string(), "{}".to_string()],
        };
        let bytes = msg.encode();
        let summary = FrameSummary::of([bytes.as_slice()]);
        assert_eq!(summary.record_lines, 3);
        assert_eq!(summary.frames.get("records"), Some(&1));
    }
}
