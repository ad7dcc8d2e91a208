//! The structured trace event taxonomy.
//!
//! Events are plain data — host ids as `u32`, times as microseconds —
//! so this crate sits below every other `vdm-*` crate and none of them
//! pay a type-conversion tax to emit. Each event serializes to one
//! flat JSON object per line (JSONL); the `kind` field is the variant
//! tag and is stable, append-only vocabulary (see DESIGN.md).

use crate::json::{ObjWriter, Value};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Case classification of one walk candidate child, as defined by the
/// VDM directionality test (Case I: behind current, II: lateral,
/// III: ahead / closer to the joiner).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CaseClass {
    /// Case I — child is in the opposite virtual direction.
    I,
    /// Case II — child is lateral within slack.
    II,
    /// Case III — child is strictly closer; a descend candidate.
    III,
    /// Classification unavailable (non-VDM policies).
    Unknown,
}

impl CaseClass {
    fn as_str(self) -> &'static str {
        match self {
            CaseClass::I => "I",
            CaseClass::II => "II",
            CaseClass::III => "III",
            CaseClass::Unknown => "-",
        }
    }
}

/// Render `(child, case)` pairs as the compact `"7:II,12:III"` string
/// used in the `cases` field of [`TraceEvent::WalkDecision`].
pub fn encode_cases(cases: &[(u32, CaseClass)]) -> String {
    let mut s = String::new();
    for (i, (child, case)) in cases.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "{}:{}", child, case.as_str());
    }
    s
}

/// One structured observation from anywhere in the stack.
///
/// Every variant carries the acting host (or endpoints) as raw `u32`
/// ids; the emission timestamp is stamped by the [`crate::Tracer`] at
/// record time so events stay cheap to construct.
#[derive(Clone, Debug, PartialEq)]
pub enum TraceEvent {
    /// A join/rejoin/refinement walk started at `start`.
    WalkStart {
        /// The walking host.
        host: u32,
        /// Walk purpose: `join`, `rejoin`, or `refine`.
        purpose: &'static str,
        /// Tree node the walk begins at.
        start: u32,
    },
    /// One walk step decided after probing `at`'s children.
    WalkDecision {
        /// The walking host.
        host: u32,
        /// Node whose children were probed.
        at: u32,
        /// Compact `"child:case"` list (see [`encode_cases`]).
        cases: String,
        /// `descend` or `attach`.
        action: &'static str,
        /// Next hop (descend) or chosen parent (attach).
        next: u32,
        /// Child spliced under the joiner on attach, if any.
        splice: Option<u32>,
    },
    /// A walk gave up on its current attempt and restarted.
    WalkRestart {
        /// The walking host.
        host: u32,
        /// Restart count so far (1-based).
        restarts: u32,
        /// Node the restarted walk will begin at.
        anchor: u32,
    },
    /// A walk completed with a connection.
    WalkConnected {
        /// The walking host.
        host: u32,
        /// The new parent.
        parent: u32,
        /// Walk purpose (as in [`TraceEvent::WalkStart`]).
        purpose: &'static str,
    },
    /// The host adopted a new parent (covers walk attach, failover,
    /// and splice-induced moves).
    ParentChange {
        /// The re-parented host.
        host: u32,
        /// New parent.
        parent: u32,
        /// Virtual distance to the new parent, if known.
        vdist: f64,
    },
    /// The host lost its parent and must recover.
    Orphaned {
        /// The orphaned host.
        host: u32,
        /// The parent that was lost, if one was attached.
        old_parent: Option<u32>,
    },
    /// A proactive failover ConnReq was sent to a backup target.
    FailoverAttempt {
        /// The orphaned host.
        host: u32,
        /// Backup parent being tried.
        target: u32,
        /// 1-based attempt index within this recovery episode.
        attempt: u32,
    },
    /// A failover episode ended.
    FailoverResult {
        /// The orphaned host.
        host: u32,
        /// Whether a backup accepted; on `false` the host falls back
        /// to a full rejoin walk.
        ok: bool,
        /// Accepting parent when `ok`.
        parent: Option<u32>,
    },
    /// A NACK requesting retransmission was sent.
    NackSent {
        /// The host with the sequence gap.
        host: u32,
        /// Parent asked for a retransmit.
        parent: u32,
        /// Number of sequence numbers requested.
        count: u32,
    },
    /// A previously missing chunk arrived via NACK repair.
    ChunkRepaired {
        /// The repaired host.
        host: u32,
        /// Sequence number recovered.
        seq: u64,
    },
    /// A join was queued by the rejoin-admission token bucket.
    AdmissionThrottled {
        /// The admitting (parent) host.
        host: u32,
        /// The joiner that was queued.
        joiner: u32,
    },
    /// A join was shed (queue full) by the admission controller.
    AdmissionShed {
        /// The admitting (parent) host.
        host: u32,
        /// The joiner that was refused.
        joiner: u32,
    },
    /// The fault plan acted on a message in flight.
    FaultApplied {
        /// Fault fate: `drop`, `dup`, `delay`, or `slowdown`.
        fate: &'static str,
        /// Sending host.
        from: u32,
        /// Receiving host.
        to: u32,
        /// Extra latency injected, for `delay`/`slowdown` (µs).
        extra_us: u64,
    },
    /// An artifact-cache lookup completed.
    CacheLookup {
        /// Cache domain, e.g. `topology/ch3`.
        domain: String,
        /// Hit (`true`) or miss (`false`).
        hit: bool,
    },
    /// A bootstrap-discovery round fired `PeerReq` probes at view
    /// entries.
    DiscoveryRound {
        /// The bootstrapping host.
        host: u32,
        /// 1-based round index within the join episode.
        round: u32,
        /// Probes fired this round.
        fanout: u32,
    },
    /// Discovery chose a verified-live walk anchor.
    DiscoveryAnchor {
        /// The bootstrapping host.
        host: u32,
        /// The peer whose answered probe makes it the walk anchor.
        anchor: u32,
        /// Seconds from the first probe round to the anchor.
        took_s: f64,
    },
    /// Discovery exhausted its view or round budget; the join falls
    /// back to the plain source-anchored walk.
    DiscoveryFallback {
        /// The bootstrapping host.
        host: u32,
    },
    /// One Vivaldi spring-relaxation step folded a measured RTT into
    /// the host's virtual coordinate (coordinate-embedding extension).
    CoordUpdate {
        /// The updating host.
        host: u32,
        /// The host's relative-error estimate after the update.
        err: f64,
        /// Magnitude of the coordinate move.
        step: f64,
    },
    /// A join entered the walk at a coordinate-ranked anchor instead of
    /// the default (source / discovery-ordered) entry point.
    GuidedEntry {
        /// The joining host.
        host: u32,
        /// The coordinate-nearest live anchor the walk starts at.
        anchor: u32,
    },
    /// An event attributed to one tree of a multi-tree session. The
    /// serialized record keeps the inner event's `kind` and fields and
    /// adds a `tree` field, so single-tree consumers and host filters
    /// keep working unchanged on tagged streams.
    Tagged {
        /// Index of the stripe tree the inner event belongs to.
        tree: u32,
        /// The per-tree event, with host ids already mapped back to
        /// physical ids (see [`TraceEvent::map_hosts`]).
        inner: Box<TraceEvent>,
    },
}

impl TraceEvent {
    /// The stable `kind` tag used in serialized records.
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::WalkStart { .. } => "walk_start",
            TraceEvent::WalkDecision { .. } => "walk_decision",
            TraceEvent::WalkRestart { .. } => "walk_restart",
            TraceEvent::WalkConnected { .. } => "walk_connected",
            TraceEvent::ParentChange { .. } => "parent_change",
            TraceEvent::Orphaned { .. } => "orphaned",
            TraceEvent::FailoverAttempt { .. } => "failover_attempt",
            TraceEvent::FailoverResult { .. } => "failover_result",
            TraceEvent::NackSent { .. } => "nack_sent",
            TraceEvent::ChunkRepaired { .. } => "chunk_repaired",
            TraceEvent::AdmissionThrottled { .. } => "admission_throttled",
            TraceEvent::AdmissionShed { .. } => "admission_shed",
            TraceEvent::FaultApplied { .. } => "fault_applied",
            TraceEvent::CacheLookup { .. } => "cache_lookup",
            TraceEvent::DiscoveryRound { .. } => "discovery_round",
            TraceEvent::DiscoveryAnchor { .. } => "discovery_anchor",
            TraceEvent::DiscoveryFallback { .. } => "discovery_fallback",
            TraceEvent::CoordUpdate { .. } => "coord_update",
            TraceEvent::GuidedEntry { .. } => "guided_entry",
            TraceEvent::Tagged { inner, .. } => inner.kind(),
        }
    }

    /// The acting host of an event — the field a multi-tree session
    /// keys tree attribution on (`tree = vid / n`); `None` for
    /// host-free events. Kept beside [`TraceEvent::map_hosts`] so one
    /// module knows every variant's host fields.
    pub fn primary_host(&self) -> Option<u32> {
        match self {
            TraceEvent::WalkStart { host, .. }
            | TraceEvent::WalkDecision { host, .. }
            | TraceEvent::WalkRestart { host, .. }
            | TraceEvent::WalkConnected { host, .. }
            | TraceEvent::ParentChange { host, .. }
            | TraceEvent::Orphaned { host, .. }
            | TraceEvent::FailoverAttempt { host, .. }
            | TraceEvent::FailoverResult { host, .. }
            | TraceEvent::NackSent { host, .. }
            | TraceEvent::ChunkRepaired { host, .. }
            | TraceEvent::AdmissionThrottled { host, .. }
            | TraceEvent::AdmissionShed { host, .. }
            | TraceEvent::DiscoveryRound { host, .. }
            | TraceEvent::DiscoveryAnchor { host, .. }
            | TraceEvent::DiscoveryFallback { host, .. }
            | TraceEvent::CoordUpdate { host, .. }
            | TraceEvent::GuidedEntry { host, .. } => Some(*host),
            TraceEvent::FaultApplied { from, .. } => Some(*from),
            TraceEvent::CacheLookup { .. } => None,
            TraceEvent::Tagged { inner, .. } => inner.primary_host(),
        }
    }

    /// Rewrite every host-valued field through `f`. Multi-tree sessions
    /// run agents under virtual ids; this maps a per-tree event back to
    /// physical ids before it is tagged and recorded.
    pub fn map_hosts(self, f: &impl Fn(u32) -> u32) -> TraceEvent {
        match self {
            TraceEvent::WalkStart {
                host,
                purpose,
                start,
            } => TraceEvent::WalkStart {
                host: f(host),
                purpose,
                start: f(start),
            },
            TraceEvent::WalkDecision {
                host,
                at,
                cases,
                action,
                next,
                splice,
            } => TraceEvent::WalkDecision {
                host: f(host),
                at: f(at),
                cases: map_encoded_cases(&cases, f),
                action,
                next: f(next),
                splice: splice.map(f),
            },
            TraceEvent::WalkRestart {
                host,
                restarts,
                anchor,
            } => TraceEvent::WalkRestart {
                host: f(host),
                restarts,
                anchor: f(anchor),
            },
            TraceEvent::WalkConnected {
                host,
                parent,
                purpose,
            } => TraceEvent::WalkConnected {
                host: f(host),
                parent: f(parent),
                purpose,
            },
            TraceEvent::ParentChange {
                host,
                parent,
                vdist,
            } => TraceEvent::ParentChange {
                host: f(host),
                parent: f(parent),
                vdist,
            },
            TraceEvent::Orphaned { host, old_parent } => TraceEvent::Orphaned {
                host: f(host),
                old_parent: old_parent.map(f),
            },
            TraceEvent::FailoverAttempt {
                host,
                target,
                attempt,
            } => TraceEvent::FailoverAttempt {
                host: f(host),
                target: f(target),
                attempt,
            },
            TraceEvent::FailoverResult { host, ok, parent } => TraceEvent::FailoverResult {
                host: f(host),
                ok,
                parent: parent.map(f),
            },
            TraceEvent::NackSent {
                host,
                parent,
                count,
            } => TraceEvent::NackSent {
                host: f(host),
                parent: f(parent),
                count,
            },
            TraceEvent::ChunkRepaired { host, seq } => {
                TraceEvent::ChunkRepaired { host: f(host), seq }
            }
            TraceEvent::AdmissionThrottled { host, joiner } => TraceEvent::AdmissionThrottled {
                host: f(host),
                joiner: f(joiner),
            },
            TraceEvent::AdmissionShed { host, joiner } => TraceEvent::AdmissionShed {
                host: f(host),
                joiner: f(joiner),
            },
            TraceEvent::FaultApplied {
                fate,
                from,
                to,
                extra_us,
            } => TraceEvent::FaultApplied {
                fate,
                from: f(from),
                to: f(to),
                extra_us,
            },
            ev @ TraceEvent::CacheLookup { .. } => ev,
            TraceEvent::DiscoveryRound {
                host,
                round,
                fanout,
            } => TraceEvent::DiscoveryRound {
                host: f(host),
                round,
                fanout,
            },
            TraceEvent::DiscoveryAnchor {
                host,
                anchor,
                took_s,
            } => TraceEvent::DiscoveryAnchor {
                host: f(host),
                anchor: f(anchor),
                took_s,
            },
            TraceEvent::DiscoveryFallback { host } => {
                TraceEvent::DiscoveryFallback { host: f(host) }
            }
            TraceEvent::CoordUpdate { host, err, step } => TraceEvent::CoordUpdate {
                host: f(host),
                err,
                step,
            },
            TraceEvent::GuidedEntry { host, anchor } => TraceEvent::GuidedEntry {
                host: f(host),
                anchor: f(anchor),
            },
            TraceEvent::Tagged { tree, inner } => TraceEvent::Tagged {
                tree,
                inner: Box::new(inner.map_hosts(f)),
            },
        }
    }

    /// Serialize as one flat JSONL record with the given timestamp.
    pub fn to_jsonl(&self, t_us: u64) -> String {
        let mut w = ObjWriter::new();
        w.u64("t_us", t_us).str("kind", self.kind());
        self.write_fields(&mut w);
        w.finish()
    }

    /// Write this event's own fields (everything after `t_us`/`kind`)
    /// into `w`. Split out of [`TraceEvent::to_jsonl`] so a
    /// [`TraceEvent::Tagged`] wrapper can prepend its `tree` field and
    /// then reuse the inner event's serialization verbatim.
    fn write_fields(&self, w: &mut ObjWriter) {
        match self {
            TraceEvent::WalkStart {
                host,
                purpose,
                start,
            } => {
                w.u64("host", *host as u64)
                    .str("purpose", purpose)
                    .u64("start", *start as u64);
            }
            TraceEvent::WalkDecision {
                host,
                at,
                cases,
                action,
                next,
                splice,
            } => {
                w.u64("host", *host as u64)
                    .u64("at", *at as u64)
                    .str("cases", cases)
                    .str("action", action)
                    .u64("next", *next as u64);
                if let Some(s) = splice {
                    w.u64("splice", *s as u64);
                }
            }
            TraceEvent::WalkRestart {
                host,
                restarts,
                anchor,
            } => {
                w.u64("host", *host as u64)
                    .u64("restarts", *restarts as u64)
                    .u64("anchor", *anchor as u64);
            }
            TraceEvent::WalkConnected {
                host,
                parent,
                purpose,
            } => {
                w.u64("host", *host as u64)
                    .u64("parent", *parent as u64)
                    .str("purpose", purpose);
            }
            TraceEvent::ParentChange {
                host,
                parent,
                vdist,
            } => {
                w.u64("host", *host as u64)
                    .u64("parent", *parent as u64)
                    .f64("vdist", *vdist);
            }
            TraceEvent::Orphaned { host, old_parent } => {
                w.u64("host", *host as u64);
                if let Some(p) = old_parent {
                    w.u64("old_parent", *p as u64);
                }
            }
            TraceEvent::FailoverAttempt {
                host,
                target,
                attempt,
            } => {
                w.u64("host", *host as u64)
                    .u64("target", *target as u64)
                    .u64("attempt", *attempt as u64);
            }
            TraceEvent::FailoverResult { host, ok, parent } => {
                w.u64("host", *host as u64).bool("ok", *ok);
                if let Some(p) = parent {
                    w.u64("parent", *p as u64);
                }
            }
            TraceEvent::NackSent {
                host,
                parent,
                count,
            } => {
                w.u64("host", *host as u64)
                    .u64("parent", *parent as u64)
                    .u64("count", *count as u64);
            }
            TraceEvent::ChunkRepaired { host, seq } => {
                w.u64("host", *host as u64).u64("seq", *seq);
            }
            TraceEvent::AdmissionThrottled { host, joiner }
            | TraceEvent::AdmissionShed { host, joiner } => {
                w.u64("host", *host as u64).u64("joiner", *joiner as u64);
            }
            TraceEvent::FaultApplied {
                fate,
                from,
                to,
                extra_us,
            } => {
                w.str("fate", fate)
                    .u64("from", *from as u64)
                    .u64("to", *to as u64);
                if *extra_us > 0 {
                    w.u64("extra_us", *extra_us);
                }
            }
            TraceEvent::CacheLookup { domain, hit } => {
                w.str("domain", domain).bool("hit", *hit);
            }
            TraceEvent::DiscoveryRound {
                host,
                round,
                fanout,
            } => {
                w.u64("host", *host as u64)
                    .u64("round", *round as u64)
                    .u64("fanout", *fanout as u64);
            }
            TraceEvent::DiscoveryAnchor {
                host,
                anchor,
                took_s,
            } => {
                w.u64("host", *host as u64)
                    .u64("anchor", *anchor as u64)
                    .f64("took_s", *took_s);
            }
            TraceEvent::DiscoveryFallback { host } => {
                w.u64("host", *host as u64);
            }
            TraceEvent::CoordUpdate { host, err, step } => {
                w.u64("host", *host as u64)
                    .f64("err", *err)
                    .f64("step", *step);
            }
            TraceEvent::GuidedEntry { host, anchor } => {
                w.u64("host", *host as u64).u64("anchor", *anchor as u64);
            }
            TraceEvent::Tagged { tree, inner } => {
                w.u64("tree", *tree as u64);
                inner.write_fields(w);
            }
        }
    }
}

/// Remap the child ids inside an [`encode_cases`] string. Entries that
/// do not parse (defensive: the format is ours) pass through unchanged.
fn map_encoded_cases(cases: &str, f: &impl Fn(u32) -> u32) -> String {
    let mut s = String::new();
    for (i, entry) in cases.split(',').enumerate() {
        if i > 0 {
            s.push(',');
        }
        match entry.split_once(':') {
            Some((child, case)) => match child.parse::<u32>() {
                Ok(c) => {
                    let _ = write!(s, "{}:{}", f(c), case);
                }
                Err(_) => s.push_str(entry),
            },
            None => s.push_str(entry),
        }
    }
    s
}

/// Fields that identify hosts in a serialized record, in the order
/// they are checked by host filters.
pub const HOST_FIELDS: &[&str] = &[
    "host",
    "parent",
    "old_parent",
    "target",
    "joiner",
    "from",
    "to",
    "at",
    "next",
    "splice",
    "start",
    "anchor",
];

/// Does a parsed record mention `host` in any host-valued field?
pub fn record_touches_host(rec: &BTreeMap<String, Value>, host: u32) -> bool {
    HOST_FIELDS
        .iter()
        .any(|f| rec.get(*f).and_then(Value::as_num) == Some(host as f64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse_flat_object;

    /// One sample of every variant (two for the optional splice).
    fn one_of_every_variant() -> Vec<TraceEvent> {
        vec![
            TraceEvent::WalkStart {
                host: 1,
                purpose: "join",
                start: 0,
            },
            TraceEvent::WalkDecision {
                host: 1,
                at: 0,
                cases: encode_cases(&[(2, CaseClass::I), (3, CaseClass::III)]),
                action: "descend",
                next: 3,
                splice: None,
            },
            TraceEvent::WalkDecision {
                host: 1,
                at: 3,
                cases: String::new(),
                action: "attach",
                next: 3,
                splice: Some(9),
            },
            TraceEvent::WalkRestart {
                host: 1,
                restarts: 2,
                anchor: 0,
            },
            TraceEvent::WalkConnected {
                host: 1,
                parent: 3,
                purpose: "join",
            },
            TraceEvent::ParentChange {
                host: 1,
                parent: 3,
                vdist: 0.25,
            },
            TraceEvent::Orphaned {
                host: 1,
                old_parent: Some(3),
            },
            TraceEvent::FailoverAttempt {
                host: 1,
                target: 5,
                attempt: 1,
            },
            TraceEvent::FailoverResult {
                host: 1,
                ok: true,
                parent: Some(5),
            },
            TraceEvent::NackSent {
                host: 1,
                parent: 5,
                count: 3,
            },
            TraceEvent::ChunkRepaired { host: 1, seq: 42 },
            TraceEvent::AdmissionThrottled { host: 5, joiner: 1 },
            TraceEvent::AdmissionShed { host: 5, joiner: 1 },
            TraceEvent::FaultApplied {
                fate: "delay",
                from: 0,
                to: 1,
                extra_us: 1500,
            },
            TraceEvent::CacheLookup {
                domain: "topology/ch3".into(),
                hit: true,
            },
            TraceEvent::DiscoveryRound {
                host: 1,
                round: 2,
                fanout: 2,
            },
            TraceEvent::DiscoveryAnchor {
                host: 1,
                anchor: 6,
                took_s: 0.75,
            },
            TraceEvent::DiscoveryFallback { host: 1 },
            TraceEvent::CoordUpdate {
                host: 1,
                err: 0.5,
                step: 2.25,
            },
            TraceEvent::GuidedEntry { host: 1, anchor: 6 },
            TraceEvent::Tagged {
                tree: 2,
                inner: Box::new(TraceEvent::ChunkRepaired { host: 1, seq: 42 }),
            },
        ]
    }

    #[test]
    fn every_variant_serializes_and_parses() {
        for ev in one_of_every_variant() {
            let line = ev.to_jsonl(123);
            let rec = parse_flat_object(&line).unwrap_or_else(|| panic!("unparseable: {line}"));
            assert_eq!(rec["kind"].as_str(), Some(ev.kind()), "{line}");
            assert_eq!(rec["t_us"].as_num(), Some(123.0));
        }
    }

    #[test]
    fn host_filter_matches_any_endpoint() {
        let ev = TraceEvent::FaultApplied {
            fate: "drop",
            from: 4,
            to: 17,
            extra_us: 0,
        };
        let rec = parse_flat_object(&ev.to_jsonl(0)).unwrap();
        assert!(record_touches_host(&rec, 4));
        assert!(record_touches_host(&rec, 17));
        assert!(!record_touches_host(&rec, 5));
    }

    #[test]
    fn tagged_events_keep_the_inner_kind_and_add_a_tree_field() {
        let inner = TraceEvent::NackSent {
            host: 7,
            parent: 3,
            count: 2,
        };
        let tagged = TraceEvent::Tagged {
            tree: 1,
            inner: Box::new(inner.clone()),
        };
        assert_eq!(tagged.kind(), "nack_sent");
        let rec = parse_flat_object(&tagged.to_jsonl(5)).unwrap();
        assert_eq!(rec["tree"].as_num(), Some(1.0));
        let plain = parse_flat_object(&inner.to_jsonl(5)).unwrap();
        for (k, v) in &plain {
            assert_eq!(rec.get(k), Some(v), "field {k} diverged under tagging");
        }
        assert!(record_touches_host(&rec, 7));
    }

    #[test]
    fn map_hosts_rewrites_every_host_field() {
        let f = |h: u32| h % 4;
        let ev = TraceEvent::Tagged {
            tree: 1,
            inner: Box::new(TraceEvent::WalkDecision {
                host: 5,
                at: 6,
                cases: encode_cases(&[(6, CaseClass::I), (7, CaseClass::III)]),
                action: "descend",
                next: 7,
                splice: Some(4),
            }),
        };
        match ev.map_hosts(&f) {
            TraceEvent::Tagged { tree, inner } => {
                assert_eq!(tree, 1);
                match *inner {
                    TraceEvent::WalkDecision {
                        host,
                        at,
                        cases,
                        next,
                        splice,
                        ..
                    } => {
                        assert_eq!((host, at, next, splice), (1, 2, 3, Some(0)));
                        assert_eq!(cases, "2:I,3:III");
                    }
                    other => panic!("inner variant changed: {other:?}"),
                }
            }
            other => panic!("variant changed: {other:?}"),
        }
        let hostless = TraceEvent::CacheLookup {
            domain: "x".into(),
            hit: false,
        };
        assert_eq!(hostless.clone().map_hosts(&f), hostless);
        assert_eq!(hostless.primary_host(), None);

        // Every variant: `map_hosts` moves each serialized host field,
        // `primary_host` reads one of them, and only host-free events
        // have none — so a variant wired into one function but not the
        // other (or left out of both) fails here.
        let hosts_of = |ev: &TraceEvent| -> Vec<(String, f64)> {
            parse_flat_object(&ev.to_jsonl(0))
                .unwrap()
                .into_iter()
                .filter(|(k, _)| HOST_FIELDS.contains(&k.as_str()))
                .filter_map(|(k, v)| Some((k, v.as_num()?)))
                .collect()
        };
        for ev in one_of_every_variant() {
            let before = hosts_of(&ev);
            let shifted = ev.clone().map_hosts(&|h| h + 100);
            let moved: Vec<_> = before.iter().map(|(k, v)| (k.clone(), v + 100.0)).collect();
            assert_eq!(hosts_of(&shifted), moved, "{ev:?}");
            assert_eq!(
                shifted.primary_host(),
                ev.primary_host().map(|h| h + 100),
                "{ev:?}"
            );
            assert_eq!(ev.primary_host().is_some(), !before.is_empty(), "{ev:?}");
            if let Some(h) = ev.primary_host() {
                assert!(before.iter().any(|(_, v)| *v == h as f64), "{ev:?}");
            }
        }
    }

    #[test]
    fn cases_encoding_is_compact() {
        assert_eq!(
            encode_cases(&[
                (7, CaseClass::II),
                (12, CaseClass::III),
                (1, CaseClass::Unknown)
            ]),
            "7:II,12:III,1:-"
        );
        assert_eq!(encode_cases(&[]), "");
    }
}
