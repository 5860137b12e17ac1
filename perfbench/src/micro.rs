//! Component micro-benchmarks, folded into the traced run: the calls the
//! event loop makes per event (channel CSI, PHY mode choice and PER, tone
//! classification) and the pending-event queue at two depths.  Each figure
//! is the median over `REPEATS` timed batches, in nanoseconds per call.

use std::hint::black_box;
use std::time::Instant;

use caem_channel::link::{LinkBudget, LinkChannel};
use caem_channel::pathloss::PathLossModel;
use caem_channel::shadowing::ShadowingConfig;
use caem_mac::tone::{ChannelState, ToneSchedule};
use caem_phy::ber::packet_error_rate;
use caem_phy::frame::FrameSpec;
use caem_phy::mode::TransmissionMode;
use caem_simcore::event::EventQueue;
use caem_simcore::rng::{components, RngStream};
use caem_simcore::time::{Duration, SimTime};

use crate::inputs::SplitMix64;
use crate::median;

const REPEATS: usize = 5;

/// Median nanoseconds per call of `batch` (which makes `calls` calls).
fn ns_per_call(calls: u64, mut batch: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..REPEATS)
        .map(|_| {
            let t = Instant::now();
            batch();
            t.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    median(&samples)
}

/// `channel.link_measure_ns`: one CSI measurement on a 40 m link.
pub fn link_measure_ns(seed: u64) -> f64 {
    let streams = RngStream::new(seed);
    let mut link = LinkChannel::with_distance(
        40.0,
        LinkBudget::paper_default(),
        PathLossModel::paper_default(),
        ShadowingConfig::default(),
        streams.derive(components::SHADOWING, 0),
        streams.derive(components::FADING, 0),
    );
    let mut t = SimTime::ZERO;
    ns_per_call(200_000, || {
        for _ in 0..200_000 {
            t += Duration::from_millis(10);
            black_box(link.measure(t));
        }
    })
}

/// `phy.mode_select_ns`: ABICM mode choice from an SNR.
pub fn mode_select_ns() -> f64 {
    let mut snr = 0.0f64;
    ns_per_call(1_000_000, || {
        for _ in 0..1_000_000 {
            snr = (snr + 0.37) % 40.0;
            black_box(TransmissionMode::best_for_snr(black_box(snr)));
        }
    })
}

/// `phy.per_ns`: packet error rate of a 2 kbit frame.
pub fn per_ns() -> f64 {
    let bits = FrameSpec::paper_default().payload_bits;
    let mode = TransmissionMode::Kbps450;
    let mut snr = 0.0f64;
    ns_per_call(200_000, || {
        for _ in 0..200_000 {
            snr = (snr + 0.53) % 30.0;
            black_box(packet_error_rate(
                mode.modulation(),
                mode.code_rate(),
                black_box(snr),
                bits,
            ));
        }
    })
}

/// `mac.tone_classify_ns`: classify an observed tone interval.
pub fn tone_classify_ns() -> f64 {
    let schedule = ToneSchedule::paper_default();
    let mut i = 0u64;
    ns_per_call(1_000_000, || {
        for _ in 0..1_000_000 {
            i += 1;
            let interval = schedule
                .pulse_for(ChannelState::ALL[(i % 4) as usize])
                .interval;
            black_box(schedule.classify_interval(black_box(interval), 0.2));
        }
    })
}

/// `simcore.push_pop_ns.<depth>`: one pop of the earliest event plus one
/// push of its successor, with the queue held at `depth` pending events
/// (the hold model a discrete-event loop runs at steady state).
pub fn push_pop_ns(depth: usize, seed: u64) -> f64 {
    let mut rng = SplitMix64::new(seed);
    let mut queue = EventQueue::with_capacity(depth + 1);
    for i in 0..depth as u64 {
        queue.push(SimTime::from_nanos(rng.next_u64() % 1_000_000_000), i);
    }
    let ops = 500_000u64;
    ns_per_call(ops, || {
        for _ in 0..ops {
            let e = queue.pop().expect("queue held at depth");
            let step = rng.next_u64() % 1_000_000_000;
            queue.push(SimTime::from_nanos(e.time.as_nanos() + step), e.event);
        }
    })
}
