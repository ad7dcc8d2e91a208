//! A9 scale-knee regression suite: coordinate-guided joins must keep
//! the mean contacts-per-join on the paper's `4·log₄N` curve where the
//! unguided walk develops its knee, and the Vivaldi update itself must
//! be deterministic and numerically bounded under arbitrary RTT
//! streams. (That the coordinate subsystem is byte-invisible when off
//! is pinned by `tests/family_goldens.rs`, over every family.)

mod common;

use common::assert_smoke_report;
use proptest::{prop_assert, prop_assert_eq, proptest};
use vdm_experiments::figures::scale;
use vdm_experiments::Effort;
use vdm_netsim::HostId;
use vdm_overlay::coords::{pair_seed, VivaldiState, ERR_FLOOR, ERR_INIT, MAX_COORD};

/// The CI knee gate (heavy: a 10k-member triple sweep, so `#[ignore]`d
/// by default; CI runs it in release with `--include-ignored`). At the
/// size where the unguided walk's contact count leaves the log curve
/// (~14× the prediction at N=10k), the guided series must stay within
/// 3× of `4·log₄N` and pass the family's own gates
/// (`ScaleReport::report`: fewer contacts than unguided, at most 2%
/// stretch for it, no more routing rows built) — in fact build each
/// host's row exactly once through the 197-row LRU, as the unguided
/// sweep does (82 227 builds and 8× the wall while its background reads
/// were issued inline).
#[test]
#[ignore = "10k-member sweep; run in release (CI passes --include-ignored)"]
fn guided_joins_stay_on_the_log_curve_at_10k() {
    let r = scale::scale_family_with_sizes(&[10_000], 42);
    let guided = &r.points[1];
    assert_eq!(guided.protocol, "vdm_guided");
    assert!(
        guided.contacts_mean <= 3.0 * guided.predicted,
        "knee is back: guided mean contacts {:.1} vs 3x predicted {:.1}",
        guided.contacts_mean,
        3.0 * guided.predicted
    );
    assert_eq!(
        guided.row_misses, 10_001,
        "one row per host plus the source's"
    );
    assert_eq!(r.report(Effort::Paper, 42).failures, Vec::<String>::new());
}

/// A fast shadow of the knee gate at a size the default test job can
/// afford: guided entry must already undercut the unguided mean well
/// before the knee, at `--quick`'s largest size and CI's seed — the
/// report's own contacts gate. (The stretch bound is judged only from
/// 5k up: at toy sizes guided deliberately trades a small stretch
/// premium for its contact savings, and the async stack ships it
/// default-off.)
#[test]
fn guided_joins_undercut_unguided_at_smoke_sizes() {
    let r = scale::scale_family_with_sizes(&[512], 42);
    assert_smoke_report(&r.report(Effort::Quick, 42), "scale", 42);
}

proptest! {
    /// The Vivaldi update is a pure function of (state, sample, rtt,
    /// pair seed): same inputs, bit-identical output — and no
    /// RTT stream, however adversarial (including zero and coincident
    /// coordinates), drives a coordinate or error estimate non-finite
    /// or past the clamps.
    #[test]
    fn vivaldi_update_is_deterministic_and_finite(
        seed in 0u64..1u64 << 48,
        rtts in proptest::collection::vec(0.0f64..2000.0, 1..64),
    ) {
        let me = HostId((seed % 509) as u32);
        let mut a = VivaldiState::default();
        let mut b = VivaldiState::default();
        let mut remote = VivaldiState::default();
        for (i, &rtt) in rtts.iter().enumerate() {
            let peer = HostId(((seed >> 8) % 521) as u32 + 1000 + (i % 7) as u32);
            let ps = pair_seed(me, peer);
            let sample = remote.sample();
            let step_a = a.update(sample, rtt, ps);
            let step_b = b.update(sample, rtt, ps);
            prop_assert_eq!(step_a.to_bits(), step_b.to_bits(), "step diverged at {}", i);
            prop_assert_eq!(a.coord.0, b.coord.0, "coords diverged at {}", i);
            prop_assert_eq!(a.err.to_bits(), b.err.to_bits(), "err diverged at {}", i);
            prop_assert!(a.coord.is_finite(), "coord went non-finite at {}", i);
            prop_assert!(
                a.coord.0.iter().all(|c| c.abs() <= MAX_COORD),
                "coord escaped the clamp at {}", i
            );
            prop_assert!(
                a.err.is_finite() && a.err >= ERR_FLOOR && a.err <= ERR_INIT,
                "err {} escaped [{}, {}] at {}", a.err, ERR_FLOOR, ERR_INIT, i
            );
            // The remote evolves too, so later iterations see moving
            // coordinates (including exact-coincidence on step one).
            remote.update(a.sample(), rtt, pair_seed(peer, me));
        }
    }
}
