//! Versioned, length-prefixed wire codec for [`vdm_overlay::Msg`].
//!
//! The deterministic simulator moves `Msg` values by ownership; the
//! `vdm-node` daemon moves them across real UDP sockets, which needs a
//! byte representation. The build environment has no crates.io access
//! (no serde), so the codec is hand-rolled — and deliberately boring:
//!
//! * **Frame** = `[u32 len LE] [payload]`, where `len` counts the
//!   payload bytes only. One UDP datagram carries exactly one frame;
//!   the redundant internal length lets a stream transport (or a
//!   capture file) delimit frames too, and gives datagram receivers a
//!   cheap truncation check.
//! * **Payload** = `[u8 version] [u32 from LE] [u8 tag] [fields]`.
//!   `from` is the sender's host id (UDP tells us the address, not the
//!   overlay identity). Tags and field order are fixed per variant.
//! * **Primitives**: `u32`/`u64` little-endian; `f64` as IEEE-754 bits
//!   little-endian (NaN payloads survive); `bool` as one byte 0/1;
//!   `Option<T>` as a 0/1 byte then the value; `Vec<T>` as a `u32`
//!   count then the elements, with the count checked against the
//!   remaining bytes *before* allocating.
//!
//! Decoding is strict: every error is a typed [`DecodeError`], never a
//! panic, and a frame must be consumed exactly — trailing bytes are an
//! error, because they mean the sender and receiver disagree about the
//! schema.

use vdm_netsim::HostId;
use vdm_overlay::coords::{Coord, CoordSample, DIM};
use vdm_overlay::msg::{ChildEntry, ConnKind, ConnResult, Msg, PeerEntry};

/// Wire-format version carried in every frame. Bump on any layout
/// change; decoders reject frames from other versions outright.
pub const WIRE_VERSION: u8 = 1;

/// Maximum payload accepted by the decoder (and produced by the
/// encoder): generously above any real message — the largest are
/// `PeerList`/`InfoResp` with a few dozen entries — but small enough
/// that a hostile length field cannot make the decoder allocate
/// gigabytes.
pub const MAX_PAYLOAD: usize = 64 * 1024;

/// Why a frame failed to decode.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// Fewer bytes than the field being read needed.
    Truncated {
        /// What was being read.
        field: &'static str,
    },
    /// The version byte is not [`WIRE_VERSION`].
    BadVersion {
        /// The version the frame carried.
        got: u8,
    },
    /// An unknown message/enum tag.
    BadTag {
        /// Which tag space.
        what: &'static str,
        /// The offending byte.
        got: u8,
    },
    /// A vector count larger than the bytes that follow could hold.
    BadCount {
        /// Which vector.
        field: &'static str,
        /// The claimed element count.
        got: u32,
    },
    /// The frame's length prefix disagrees with the bytes present, or
    /// exceeds [`MAX_PAYLOAD`].
    BadLength {
        /// The claimed payload length.
        got: u32,
        /// The bytes actually present after the prefix.
        have: usize,
    },
    /// Payload bytes left over after the message was fully read.
    TrailingBytes {
        /// How many bytes remained.
        extra: usize,
    },
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated { field } => write!(f, "frame truncated reading {field}"),
            DecodeError::BadVersion { got } => {
                write!(f, "wire version {got} (expected {WIRE_VERSION})")
            }
            DecodeError::BadTag { what, got } => write!(f, "unknown {what} tag {got}"),
            DecodeError::BadCount { field, got } => {
                write!(f, "{field} count {got} exceeds frame size")
            }
            DecodeError::BadLength { got, have } => {
                write!(f, "length prefix {got} vs {have} bytes present")
            }
            DecodeError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after message")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// Why a message refused to encode.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EncodeError {
    /// A vector is longer than the u32 count field (or the payload
    /// would exceed [`MAX_PAYLOAD`]).
    TooLarge {
        /// Which field overflowed.
        field: &'static str,
    },
}

impl std::fmt::Display for EncodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EncodeError::TooLarge { field } => write!(f, "{field} too large for the wire"),
        }
    }
}

impl std::error::Error for EncodeError {}

// ---------------------------------------------------------------- writer

struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn new() -> Self {
        Self {
            buf: Vec::with_capacity(64),
        }
    }

    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    fn host(&mut self, h: HostId) {
        self.u32(h.0);
    }

    fn opt_host(&mut self, h: Option<HostId>) {
        match h {
            None => self.u8(0),
            Some(h) => {
                self.u8(1);
                self.host(h);
            }
        }
    }

    fn count(&mut self, field: &'static str, n: usize) -> Result<(), EncodeError> {
        let n = u32::try_from(n).map_err(|_| EncodeError::TooLarge { field })?;
        self.u32(n);
        Ok(())
    }

    fn hosts(&mut self, field: &'static str, hs: &[HostId]) -> Result<(), EncodeError> {
        self.count(field, hs.len())?;
        for h in hs {
            self.host(*h);
        }
        Ok(())
    }

    fn seqs(&mut self, field: &'static str, seqs: &[u64]) -> Result<(), EncodeError> {
        self.count(field, seqs.len())?;
        for s in seqs {
            self.u64(*s);
        }
        Ok(())
    }

    fn coord_sample(&mut self, s: &CoordSample) {
        for d in 0..DIM {
            self.f64(s.coord.0[d]);
        }
        self.f64(s.err);
    }

    fn opt_coord(&mut self, c: Option<&CoordSample>) {
        match c {
            None => self.u8(0),
            Some(s) => {
                self.u8(1);
                self.coord_sample(s);
            }
        }
    }
}

// ---------------------------------------------------------------- reader

struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize, field: &'static str) -> Result<&'a [u8], DecodeError> {
        if self.buf.len() < n {
            return Err(DecodeError::Truncated { field });
        }
        let (head, rest) = self.buf.split_at(n);
        self.buf = rest;
        Ok(head)
    }

    fn u8(&mut self, field: &'static str) -> Result<u8, DecodeError> {
        Ok(self.take(1, field)?[0])
    }

    fn u32(&mut self, field: &'static str) -> Result<u32, DecodeError> {
        let b = self.take(4, field)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self, field: &'static str) -> Result<u64, DecodeError> {
        let b = self.take(8, field)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn f64(&mut self, field: &'static str) -> Result<f64, DecodeError> {
        Ok(f64::from_bits(self.u64(field)?))
    }

    fn host(&mut self, field: &'static str) -> Result<HostId, DecodeError> {
        Ok(HostId(self.u32(field)?))
    }

    fn opt_host(&mut self, field: &'static str) -> Result<Option<HostId>, DecodeError> {
        match self.u8(field)? {
            0 => Ok(None),
            1 => Ok(Some(self.host(field)?)),
            got => Err(DecodeError::BadTag {
                what: "option",
                got,
            }),
        }
    }

    /// Read a vector count, pre-validated against the bytes remaining
    /// (`min_elem` = the smallest possible element encoding) so a
    /// hostile count cannot drive a huge allocation.
    fn count(&mut self, field: &'static str, min_elem: usize) -> Result<usize, DecodeError> {
        let n = self.u32(field)?;
        let need = (n as usize).checked_mul(min_elem);
        match need {
            Some(need) if need <= self.buf.len() => Ok(n as usize),
            _ => Err(DecodeError::BadCount { field, got: n }),
        }
    }

    fn hosts(&mut self, field: &'static str) -> Result<Vec<HostId>, DecodeError> {
        let n = self.count(field, 4)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.host(field)?);
        }
        Ok(out)
    }

    fn seqs(&mut self, field: &'static str) -> Result<Vec<u64>, DecodeError> {
        let n = self.count(field, 8)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.u64(field)?);
        }
        Ok(out)
    }

    fn coord_sample(&mut self, field: &'static str) -> Result<CoordSample, DecodeError> {
        let mut coord = Coord([0.0; DIM]);
        for d in 0..DIM {
            coord.0[d] = self.f64(field)?;
        }
        let err = self.f64(field)?;
        Ok(CoordSample { coord, err })
    }

    fn opt_coord(&mut self, field: &'static str) -> Result<Option<CoordSample>, DecodeError> {
        match self.u8(field)? {
            0 => Ok(None),
            1 => Ok(Some(self.coord_sample(field)?)),
            got => Err(DecodeError::BadTag {
                what: "option",
                got,
            }),
        }
    }
}

// ------------------------------------------------------------- msg codec

const TAG_INFO_REQ: u8 = 0;
const TAG_INFO_RESP: u8 = 1;
const TAG_PING: u8 = 2;
const TAG_PONG: u8 = 3;
const TAG_CONN_REQ: u8 = 4;
const TAG_CONN_RESP: u8 = 5;
const TAG_PARENT_CHANGE: u8 = 6;
const TAG_GRANDPARENT_CHANGE: u8 = 7;
const TAG_ROOT_PATH: u8 = 8;
const TAG_HEARTBEAT: u8 = 9;
const TAG_LEAVE: u8 = 10;
const TAG_CHILD_LEAVE: u8 = 11;
const TAG_ANCESTOR_LIST: u8 = 12;
const TAG_NACK: u8 = 13;
const TAG_DATA: u8 = 14;
const TAG_CROSS_NACK: u8 = 15;
const TAG_CROSS_DATA: u8 = 16;
const TAG_PEER_REQ: u8 = 17;
const TAG_PEER_LIST: u8 = 18;

const KIND_CHILD: u8 = 0;
const KIND_SPLICE: u8 = 1;

const RESULT_ACCEPTED: u8 = 0;
const RESULT_REDIRECT: u8 = 1;
const RESULT_REJECTED: u8 = 2;

fn write_msg(w: &mut Writer, msg: &Msg) -> Result<(), EncodeError> {
    match msg {
        Msg::InfoReq { nonce } => {
            w.u8(TAG_INFO_REQ);
            w.u64(*nonce);
        }
        Msg::InfoResp {
            nonce,
            children,
            parent,
            coord,
        } => {
            w.u8(TAG_INFO_RESP);
            w.u64(*nonce);
            w.count("children", children.len())?;
            for c in children {
                w.host(c.child);
                w.f64(c.vdist);
            }
            w.opt_host(*parent);
            w.opt_coord(coord.as_deref());
        }
        Msg::Ping { nonce } => {
            w.u8(TAG_PING);
            w.u64(*nonce);
        }
        Msg::Pong { nonce, coord } => {
            w.u8(TAG_PONG);
            w.u64(*nonce);
            w.opt_coord(coord.as_ref());
        }
        Msg::ConnReq {
            nonce,
            kind,
            vdist,
            coord,
        } => {
            w.u8(TAG_CONN_REQ);
            w.u64(*nonce);
            match kind {
                ConnKind::Child => w.u8(KIND_CHILD),
                ConnKind::Splice { displace } => {
                    w.u8(KIND_SPLICE);
                    w.hosts("displace", displace)?;
                }
            }
            w.f64(*vdist);
            w.opt_coord(coord.as_deref());
        }
        Msg::ConnResp { nonce, result } => {
            w.u8(TAG_CONN_RESP);
            w.u64(*nonce);
            match result {
                ConnResult::Accepted {
                    grandparent,
                    adopted,
                    root_path,
                } => {
                    w.u8(RESULT_ACCEPTED);
                    w.opt_host(*grandparent);
                    w.hosts("adopted", adopted)?;
                    w.hosts("root_path", root_path)?;
                }
                ConnResult::Redirect { next } => {
                    w.u8(RESULT_REDIRECT);
                    w.host(*next);
                }
                ConnResult::Rejected => w.u8(RESULT_REJECTED),
            }
        }
        Msg::ParentChange {
            new_grandparent,
            gen,
        } => {
            w.u8(TAG_PARENT_CHANGE);
            w.opt_host(*new_grandparent);
            w.u64(*gen);
        }
        Msg::GrandparentChange { new_grandparent } => {
            w.u8(TAG_GRANDPARENT_CHANGE);
            w.host(*new_grandparent);
        }
        Msg::RootPath { path } => {
            w.u8(TAG_ROOT_PATH);
            w.hosts("path", path)?;
        }
        Msg::Heartbeat => w.u8(TAG_HEARTBEAT),
        Msg::Leave => w.u8(TAG_LEAVE),
        Msg::ChildLeave => w.u8(TAG_CHILD_LEAVE),
        Msg::AncestorList { ancestors } => {
            w.u8(TAG_ANCESTOR_LIST);
            w.hosts("ancestors", ancestors)?;
        }
        Msg::Nack { seqs } => {
            w.u8(TAG_NACK);
            w.seqs("seqs", seqs)?;
        }
        Msg::Data { seq } => {
            w.u8(TAG_DATA);
            w.u64(*seq);
        }
        Msg::CrossNack { seqs } => {
            w.u8(TAG_CROSS_NACK);
            w.seqs("seqs", seqs)?;
        }
        Msg::CrossData { seq } => {
            w.u8(TAG_CROSS_DATA);
            w.u64(*seq);
        }
        Msg::PeerReq { nonce } => {
            w.u8(TAG_PEER_REQ);
            w.u64(*nonce);
        }
        Msg::PeerList { nonce, peers } => {
            w.u8(TAG_PEER_LIST);
            w.u64(*nonce);
            w.count("peers", peers.len())?;
            for p in peers {
                w.host(p.host);
                w.f64(p.age_s);
                w.opt_coord(p.coord.as_ref());
            }
        }
    }
    Ok(())
}

fn read_msg(r: &mut Reader<'_>) -> Result<Msg, DecodeError> {
    let tag = r.u8("msg tag")?;
    let msg = match tag {
        TAG_INFO_REQ => Msg::InfoReq {
            nonce: r.u64("nonce")?,
        },
        TAG_INFO_RESP => {
            let nonce = r.u64("nonce")?;
            let n = r.count("children", 12)?;
            let mut children = Vec::with_capacity(n);
            for _ in 0..n {
                let child = r.host("child")?;
                let vdist = r.f64("vdist")?;
                children.push(ChildEntry { child, vdist });
            }
            Msg::InfoResp {
                nonce,
                children,
                parent: r.opt_host("parent")?,
                coord: r.opt_coord("coord")?.map(Box::new),
            }
        }
        TAG_PING => Msg::Ping {
            nonce: r.u64("nonce")?,
        },
        TAG_PONG => Msg::Pong {
            nonce: r.u64("nonce")?,
            coord: r.opt_coord("coord")?,
        },
        TAG_CONN_REQ => {
            let nonce = r.u64("nonce")?;
            let kind = match r.u8("conn kind")? {
                KIND_CHILD => ConnKind::Child,
                KIND_SPLICE => ConnKind::Splice {
                    displace: r.hosts("displace")?,
                },
                got => {
                    return Err(DecodeError::BadTag {
                        what: "conn kind",
                        got,
                    })
                }
            };
            Msg::ConnReq {
                nonce,
                kind,
                vdist: r.f64("vdist")?,
                coord: r.opt_coord("coord")?.map(Box::new),
            }
        }
        TAG_CONN_RESP => {
            let nonce = r.u64("nonce")?;
            let result = match r.u8("conn result")? {
                RESULT_ACCEPTED => ConnResult::Accepted {
                    grandparent: r.opt_host("grandparent")?,
                    adopted: r.hosts("adopted")?,
                    root_path: r.hosts("root_path")?,
                },
                RESULT_REDIRECT => ConnResult::Redirect {
                    next: r.host("next")?,
                },
                RESULT_REJECTED => ConnResult::Rejected,
                got => {
                    return Err(DecodeError::BadTag {
                        what: "conn result",
                        got,
                    })
                }
            };
            Msg::ConnResp { nonce, result }
        }
        TAG_PARENT_CHANGE => Msg::ParentChange {
            new_grandparent: r.opt_host("new_grandparent")?,
            gen: r.u64("gen")?,
        },
        TAG_GRANDPARENT_CHANGE => Msg::GrandparentChange {
            new_grandparent: r.host("new_grandparent")?,
        },
        TAG_ROOT_PATH => Msg::RootPath {
            path: r.hosts("path")?,
        },
        TAG_HEARTBEAT => Msg::Heartbeat,
        TAG_LEAVE => Msg::Leave,
        TAG_CHILD_LEAVE => Msg::ChildLeave,
        TAG_ANCESTOR_LIST => Msg::AncestorList {
            ancestors: r.hosts("ancestors")?,
        },
        TAG_NACK => Msg::Nack {
            seqs: r.seqs("seqs")?,
        },
        TAG_DATA => Msg::Data { seq: r.u64("seq")? },
        TAG_CROSS_NACK => Msg::CrossNack {
            seqs: r.seqs("seqs")?,
        },
        TAG_CROSS_DATA => Msg::CrossData { seq: r.u64("seq")? },
        TAG_PEER_REQ => Msg::PeerReq {
            nonce: r.u64("nonce")?,
        },
        TAG_PEER_LIST => {
            let nonce = r.u64("nonce")?;
            let n = r.count("peers", 13)?;
            let mut peers = Vec::with_capacity(n);
            for _ in 0..n {
                let host = r.host("peer host")?;
                let age_s = r.f64("age_s")?;
                let coord = r.opt_coord("peer coord")?;
                peers.push(PeerEntry { host, age_s, coord });
            }
            Msg::PeerList { nonce, peers }
        }
        got => return Err(DecodeError::BadTag { what: "msg", got }),
    };
    Ok(msg)
}

// ---------------------------------------------------------------- frames

/// Encode one message from `from` as a full frame (length prefix
/// included), ready for one `sendto`.
pub fn encode_frame(from: HostId, msg: &Msg) -> Result<Vec<u8>, EncodeError> {
    let mut w = Writer::new();
    w.u8(WIRE_VERSION);
    w.host(from);
    write_msg(&mut w, msg)?;
    if w.buf.len() > MAX_PAYLOAD {
        return Err(EncodeError::TooLarge { field: "payload" });
    }
    let mut out = Vec::with_capacity(4 + w.buf.len());
    out.extend_from_slice(&(w.buf.len() as u32).to_le_bytes());
    out.extend_from_slice(&w.buf);
    Ok(out)
}

/// Decode one full frame (as produced by [`encode_frame`]); the frame
/// must contain exactly one message with no bytes left over.
pub fn decode_frame(frame: &[u8]) -> Result<(HostId, Msg), DecodeError> {
    let mut r = Reader { buf: frame };
    let len = r.u32("length prefix")?;
    if len as usize != r.buf.len() || len as usize > MAX_PAYLOAD {
        return Err(DecodeError::BadLength {
            got: len,
            have: r.buf.len(),
        });
    }
    let version = r.u8("version")?;
    if version != WIRE_VERSION {
        return Err(DecodeError::BadVersion { got: version });
    }
    let from = r.host("from")?;
    let msg = read_msg(&mut r)?;
    if !r.buf.is_empty() {
        return Err(DecodeError::TrailingBytes { extra: r.buf.len() });
    }
    Ok((from, msg))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use vdm_overlay::agent::DISCOVERY_TOKEN_BIT;

    fn rt(msg: Msg) -> Msg {
        let from = HostId(7);
        let frame = encode_frame(from, &msg).expect("encode");
        let (got_from, got) = decode_frame(&frame).expect("decode");
        assert_eq!(got_from, from);
        got
    }

    fn sample_coord() -> CoordSample {
        CoordSample {
            coord: Coord([1.5, -2.25, 0.0, 1e9]),
            err: 0.125,
        }
    }

    #[test]
    fn every_variant_round_trips() {
        let cs = sample_coord();
        let msgs = vec![
            Msg::InfoReq { nonce: 1 },
            Msg::InfoResp {
                nonce: 2,
                children: vec![
                    ChildEntry {
                        child: HostId(3),
                        vdist: 0.5,
                    },
                    ChildEntry {
                        child: HostId(u32::MAX),
                        vdist: f64::INFINITY,
                    },
                ],
                parent: Some(HostId(9)),
                coord: Some(Box::new(cs)),
            },
            Msg::InfoResp {
                nonce: 3,
                children: vec![],
                parent: None,
                coord: None,
            },
            Msg::Ping { nonce: 4 },
            Msg::Pong {
                nonce: 5,
                coord: Some(cs),
            },
            Msg::Pong {
                nonce: 6,
                coord: None,
            },
            Msg::ConnReq {
                nonce: 7,
                kind: ConnKind::Child,
                vdist: 1.0,
                coord: None,
            },
            Msg::ConnReq {
                nonce: 8,
                kind: ConnKind::Splice {
                    displace: vec![HostId(1), HostId(2)],
                },
                vdist: -0.0,
                coord: Some(Box::new(cs)),
            },
            Msg::ConnResp {
                nonce: 9,
                result: ConnResult::Accepted {
                    grandparent: None,
                    adopted: vec![HostId(4)],
                    root_path: vec![HostId(0), HostId(4), HostId(9)],
                },
            },
            Msg::ConnResp {
                nonce: 10,
                result: ConnResult::Accepted {
                    grandparent: Some(HostId(0)),
                    adopted: vec![],
                    root_path: vec![],
                },
            },
            Msg::ConnResp {
                nonce: 11,
                result: ConnResult::Redirect { next: HostId(12) },
            },
            Msg::ConnResp {
                nonce: 12,
                result: ConnResult::Rejected,
            },
            Msg::ParentChange {
                new_grandparent: Some(HostId(5)),
                gen: u64::MAX,
            },
            Msg::ParentChange {
                new_grandparent: None,
                gen: 0,
            },
            Msg::GrandparentChange {
                new_grandparent: HostId(6),
            },
            Msg::RootPath {
                path: vec![HostId(0), HostId(1)],
            },
            Msg::Heartbeat,
            Msg::Leave,
            Msg::ChildLeave,
            Msg::AncestorList {
                ancestors: vec![HostId(0); 5],
            },
            Msg::Nack {
                seqs: vec![0, 1, u64::MAX],
            },
            Msg::Data { seq: 42 },
            Msg::CrossNack { seqs: vec![9, 10] },
            Msg::CrossData { seq: 43 },
            Msg::PeerReq {
                nonce: 13 | DISCOVERY_TOKEN_BIT,
            },
            Msg::PeerList {
                nonce: 14 | DISCOVERY_TOKEN_BIT,
                peers: vec![
                    PeerEntry {
                        host: HostId(1),
                        age_s: 3.5,
                        coord: Some(cs),
                    },
                    PeerEntry {
                        host: HostId(2),
                        age_s: 0.0,
                        coord: None,
                    },
                ],
            },
        ];
        for msg in msgs {
            assert_eq!(rt(msg.clone()), msg, "round trip of {msg:?}");
        }
    }

    #[test]
    fn nan_payloads_survive_bitwise() {
        // A quiet NaN with a distinctive payload: PartialEq can't see
        // it (NaN != NaN), so check the decoded bits directly.
        let nan = f64::from_bits(0x7ff8_dead_beef_cafe);
        let frame = encode_frame(
            HostId(1),
            &Msg::ConnReq {
                nonce: 1,
                kind: ConnKind::Child,
                vdist: nan,
                coord: None,
            },
        )
        .unwrap();
        let (_, got) = decode_frame(&frame).unwrap();
        match got {
            Msg::ConnReq { vdist, .. } => assert_eq!(vdist.to_bits(), nan.to_bits()),
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn every_truncation_errors_instead_of_panicking() {
        let frame = encode_frame(
            HostId(3),
            &Msg::InfoResp {
                nonce: 99,
                children: vec![ChildEntry {
                    child: HostId(1),
                    vdist: 2.0,
                }],
                parent: Some(HostId(0)),
                coord: Some(Box::new(sample_coord())),
            },
        )
        .unwrap();
        for cut in 0..frame.len() {
            assert!(
                decode_frame(&frame[..cut]).is_err(),
                "prefix of length {cut} decoded successfully"
            );
        }
    }

    #[test]
    fn wrong_version_is_rejected() {
        let mut frame = encode_frame(HostId(1), &Msg::Heartbeat).unwrap();
        frame[4] = WIRE_VERSION + 1;
        assert_eq!(
            decode_frame(&frame),
            Err(DecodeError::BadVersion {
                got: WIRE_VERSION + 1
            })
        );
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut frame = encode_frame(HostId(1), &Msg::Heartbeat).unwrap();
        frame.push(0xAB);
        let len = (frame.len() - 4) as u32;
        frame[..4].copy_from_slice(&len.to_le_bytes());
        assert!(matches!(
            decode_frame(&frame),
            Err(DecodeError::TrailingBytes { extra: 1 })
        ));
    }

    #[test]
    fn length_prefix_mismatch_is_rejected() {
        let mut frame = encode_frame(HostId(1), &Msg::Heartbeat).unwrap();
        frame[0] = frame[0].wrapping_add(1);
        assert!(matches!(
            decode_frame(&frame),
            Err(DecodeError::BadLength { .. })
        ));
    }

    #[test]
    fn hostile_counts_do_not_allocate() {
        // A Nack claiming u32::MAX seqs in a tiny frame must be caught
        // by the pre-allocation count check.
        let mut w = Writer::new();
        w.u8(WIRE_VERSION);
        w.host(HostId(1));
        w.u8(TAG_NACK);
        w.u32(u32::MAX);
        let mut frame = (w.buf.len() as u32).to_le_bytes().to_vec();
        frame.extend_from_slice(&w.buf);
        assert_eq!(
            decode_frame(&frame),
            Err(DecodeError::BadCount {
                field: "seqs",
                got: u32::MAX
            })
        );
    }

    #[test]
    fn unknown_tags_are_rejected() {
        let mut w = Writer::new();
        w.u8(WIRE_VERSION);
        w.host(HostId(1));
        w.u8(200);
        let mut frame = (w.buf.len() as u32).to_le_bytes().to_vec();
        frame.extend_from_slice(&w.buf);
        assert_eq!(
            decode_frame(&frame),
            Err(DecodeError::BadTag {
                what: "msg",
                got: 200
            })
        );
    }

    // ------------------------------------------------------ generators

    fn gen_opt_coord(rng: &mut StdRng) -> Option<CoordSample> {
        if rng.gen_range(0u32..2) == 0 {
            return None;
        }
        let mut coord = Coord([0.0; DIM]);
        for d in 0..DIM {
            coord.0[d] = rng.gen_range(-1e6..1e6);
        }
        Some(CoordSample {
            coord,
            err: rng.gen_range(0.0..10.0),
        })
    }

    fn gen_hosts(rng: &mut StdRng) -> Vec<HostId> {
        let n = rng.gen_range(0usize..6);
        (0..n)
            .map(|_| HostId(rng.gen_range(0u32..=u32::MAX)))
            .collect()
    }

    fn gen_seqs(rng: &mut StdRng) -> Vec<u64> {
        let n = rng.gen_range(0usize..6);
        (0..n).map(|_| rng.gen_range(0u64..=u64::MAX)).collect()
    }

    fn gen_nonce(rng: &mut StdRng) -> u64 {
        // Half the nonces carry the discovery namespace bit, like real
        // bootstrap traffic does.
        let base = rng.gen_range(0u64..(1 << 54));
        if rng.gen_range(0u32..2) == 1 {
            base | DISCOVERY_TOKEN_BIT
        } else {
            base
        }
    }

    fn gen_msg(rng: &mut StdRng) -> Msg {
        match rng.gen_range(0u32..19) {
            0 => Msg::InfoReq {
                nonce: gen_nonce(rng),
            },
            1 => {
                let n = rng.gen_range(0usize..5);
                Msg::InfoResp {
                    nonce: gen_nonce(rng),
                    children: (0..n)
                        .map(|_| ChildEntry {
                            child: HostId(rng.gen_range(0u32..=u32::MAX)),
                            vdist: rng.gen_range(0.0..1e3),
                        })
                        .collect(),
                    parent: if rng.gen_range(0u32..2) == 1 {
                        Some(HostId(rng.gen_range(0u32..=u32::MAX)))
                    } else {
                        None
                    },
                    coord: gen_opt_coord(rng).map(Box::new),
                }
            }
            2 => Msg::Ping {
                nonce: gen_nonce(rng),
            },
            3 => Msg::Pong {
                nonce: gen_nonce(rng),
                coord: gen_opt_coord(rng),
            },
            4 => Msg::ConnReq {
                nonce: gen_nonce(rng),
                kind: if rng.gen_range(0u32..2) == 0 {
                    ConnKind::Child
                } else {
                    ConnKind::Splice {
                        displace: gen_hosts(rng),
                    }
                },
                vdist: rng.gen_range(-1e3..1e3),
                coord: gen_opt_coord(rng).map(Box::new),
            },
            5 => Msg::ConnResp {
                nonce: gen_nonce(rng),
                result: match rng.gen_range(0u32..3) {
                    0 => ConnResult::Accepted {
                        grandparent: if rng.gen_range(0u32..2) == 1 {
                            Some(HostId(rng.gen_range(0u32..=u32::MAX)))
                        } else {
                            None
                        },
                        adopted: gen_hosts(rng),
                        root_path: gen_hosts(rng),
                    },
                    1 => ConnResult::Redirect {
                        next: HostId(rng.gen_range(0u32..=u32::MAX)),
                    },
                    _ => ConnResult::Rejected,
                },
            },
            6 => Msg::ParentChange {
                new_grandparent: if rng.gen_range(0u32..2) == 1 {
                    Some(HostId(rng.gen_range(0u32..=u32::MAX)))
                } else {
                    None
                },
                gen: rng.gen_range(0u64..=u64::MAX),
            },
            7 => Msg::GrandparentChange {
                new_grandparent: HostId(rng.gen_range(0u32..=u32::MAX)),
            },
            8 => Msg::RootPath {
                path: gen_hosts(rng),
            },
            9 => Msg::Heartbeat,
            10 => Msg::Leave,
            11 => Msg::ChildLeave,
            12 => Msg::AncestorList {
                ancestors: gen_hosts(rng),
            },
            13 => Msg::Nack {
                seqs: gen_seqs(rng),
            },
            14 => Msg::Data {
                seq: rng.gen_range(0u64..=u64::MAX),
            },
            15 => Msg::CrossNack {
                seqs: gen_seqs(rng),
            },
            16 => Msg::CrossData {
                seq: rng.gen_range(0u64..=u64::MAX),
            },
            17 => Msg::PeerReq {
                nonce: gen_nonce(rng),
            },
            _ => {
                let n = rng.gen_range(0usize..5);
                Msg::PeerList {
                    nonce: gen_nonce(rng),
                    peers: (0..n)
                        .map(|_| PeerEntry {
                            host: HostId(rng.gen_range(0u32..=u32::MAX)),
                            age_s: rng.gen_range(0.0..1e4),
                            coord: gen_opt_coord(rng),
                        })
                        .collect(),
                }
            }
        }
    }

    proptest! {
        #[test]
        fn random_messages_round_trip(seed in 0u64..1_000_000, from in 0u32..=u32::MAX) {
            let mut rng = StdRng::seed_from_u64(seed);
            let msg = gen_msg(&mut rng);
            let frame = encode_frame(HostId(from), &msg).expect("encode");
            let (got_from, got) = decode_frame(&frame).expect("decode");
            prop_assert_eq!(got_from, HostId(from));
            prop_assert_eq!(got, msg);
        }

        #[test]
        fn random_truncations_error(seed in 0u64..1_000_000, frac in 0.0..1.0f64) {
            let mut rng = StdRng::seed_from_u64(seed);
            let msg = gen_msg(&mut rng);
            let frame = encode_frame(HostId(1), &msg).expect("encode");
            let cut = ((frame.len() as f64) * frac) as usize;
            prop_assume!(cut < frame.len());
            prop_assert!(decode_frame(&frame[..cut]).is_err());
        }

        #[test]
        fn garbage_never_panics(bytes in proptest::collection::vec(0u32..256, 0..64)) {
            let raw: Vec<u8> = bytes.iter().map(|b| *b as u8).collect();
            // Any result is fine — the property is "no panic"; but a
            // successful decode must re-encode to a valid frame.
            if let Ok((from, msg)) = decode_frame(&raw) {
                let re = encode_frame(from, &msg).expect("re-encode");
                prop_assert_eq!(decode_frame(&re).expect("re-decode").1, msg);
            }
        }

        #[test]
        fn bitflipped_frames_never_panic(seed in 0u64..1_000_000, flip in 0usize..10_000) {
            let mut rng = StdRng::seed_from_u64(seed);
            let msg = gen_msg(&mut rng);
            let mut frame = encode_frame(HostId(1), &msg).expect("encode");
            let at = flip % frame.len();
            frame[at] ^= 1 << (flip % 8);
            // Decoding a corrupted frame may fail or may yield some
            // other valid message; it must never panic.
            let _ = decode_frame(&frame);
        }
    }
}
