//! Seeded input generators. Every input of every workload is made here
//! from `--seed`; the system under test receives only the bytes.

use wcm::mpeg::profile::standard_clips;
use wcm::mpeg::{ClipWorkload, Synthesizer, VideoParams};
use wcm::wire::StreamEncoder;

/// SplitMix64 finalizer of `seed` and `salt`: decorrelates nearby seeds.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The 14 standard clip profiles at MP@ML, each profile seed mixed with
/// `seed`, synthesized to `gops` GOPs.
pub fn clips(seed: u64, gops: usize) -> Vec<ClipWorkload> {
    let params = VideoParams::main_profile_main_level().expect("MP@ML parameters are valid");
    let synth = Synthesizer::new(params);
    standard_clips()
        .into_iter()
        .map(|mut profile| {
            profile.seed = mix(seed, profile.seed);
            synth
                .generate(&profile, gops)
                .expect("standard profiles synthesize")
        })
        .collect()
}

/// One analysable trace: the in-memory PE₂ demands and FIFO-input
/// times of a clip, and the same data encoded as one `.wcmt` stream.
pub struct Trace {
    pub name: String,
    pub demands: Vec<u64>,
    pub times: Vec<f64>,
    pub bytes: Vec<u8>,
}

/// The `analyze` inputs: 14 clips × `gops` GOPs, each a `.wcmt` with
/// META, PE₂ DEMANDS and the FIFO-input TIMES of a PE₁ simulation.
pub fn analyze_traces(seed: u64, gops: usize) -> Vec<Trace> {
    clips(seed, gops)
        .iter()
        .map(|clip| {
            let times = wcm_bench::simulate_clip(clip, 1.0e9)
                .expect("the case-study pipeline simulates")
                .fifo_in_times;
            let demands = clip.pe2_demands();
            let mut enc = StreamEncoder::new();
            enc.meta(clip.name());
            enc.demands(&demands);
            enc.times(&times).expect("simulated times are finite");
            Trace {
                name: clip.name().to_string(),
                demands,
                times,
                bytes: enc.finish(),
            }
        })
        .collect()
}

/// The `sweep` inputs: one `.wcmt` clip stream per standard clip.
pub fn sweep_streams(seed: u64, gops: usize) -> Vec<Vec<u8>> {
    clips(seed, gops)
        .iter()
        .map(wcm::mpeg::wire::encode_clip)
        .collect()
}

/// Shape of an interleaved multi-session stream.
#[derive(Debug, Clone, Copy)]
pub struct SessionShape {
    pub sessions: usize,
    pub events: usize,
    /// Events per session between `META` switches.
    pub sitting: usize,
    pub with_times: bool,
}

pub fn session_name(s: usize) -> String {
    format!("s{s:05}")
}

/// Event source of one session: an MPEG-like GOP demand shape with a
/// seeded phase, level and per-event jitter, stamped at a seeded
/// session frame rate with sub-period jitter (so times stay sorted).
pub struct SessionGen {
    state: u64,
    phase: u64,
    level: u64,
    period_s: f64,
    next: u64,
}

const GOP: [u64; 12] = [900, 150, 150, 420, 150, 150, 420, 150, 150, 420, 150, 150];

impl SessionGen {
    pub fn new(seed: u64, session: usize) -> Self {
        let h = mix(seed, 0x5E55_1000 + session as u64);
        Self {
            state: h,
            phase: h % 12,
            level: (h >> 8) % 7,
            period_s: 1.0 / (25.0 + ((h >> 16) % 8) as f64),
            next: 0,
        }
    }

    fn draw(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.state, 0)
    }

    /// Append the next `n` events' demands and timestamps.
    pub fn take(&mut self, n: usize, demands: &mut Vec<u64>, times: &mut Vec<f64>) {
        for _ in 0..n {
            let i = self.next;
            let r = self.draw();
            demands.push(GOP[((i + self.phase) % 12) as usize] + self.level * 10 + r % 23);
            let jitter = (r >> 11) as f64 / (1u64 << 53) as f64 * 0.25;
            times.push((i as f64 + jitter) * self.period_s);
            self.next += 1;
        }
    }
}

/// Round-robin interleaving of every session, `sitting` events at a
/// time, each sitting led by a `META` frame naming its session. Times
/// precede the demands they stamp, as the serve pairing contract asks.
pub fn session_stream(seed: u64, shape: SessionShape) -> Vec<u8> {
    let mut gens: Vec<SessionGen> = (0..shape.sessions)
        .map(|s| SessionGen::new(seed, s))
        .collect();
    let names: Vec<String> = (0..shape.sessions).map(session_name).collect();
    let mut enc = StreamEncoder::new();
    let (mut demands, mut times) = (Vec::new(), Vec::new());
    for at in (0..shape.events).step_by(shape.sitting.max(1)) {
        let take = shape.sitting.min(shape.events - at);
        for (gen, name) in gens.iter_mut().zip(&names) {
            demands.clear();
            times.clear();
            gen.take(take, &mut demands, &mut times);
            enc.meta(name);
            if shape.with_times {
                enc.times(&times).expect("generated times are finite");
            }
            enc.demands(&demands);
        }
    }
    enc.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// FNV-1a over `bytes`: a fingerprint of one generated input.
    fn fingerprint(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    fn small(with_times: bool) -> SessionShape {
        SessionShape {
            sessions: 5,
            events: 70,
            sitting: 8,
            with_times,
        }
    }

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        for with_times in [false, true] {
            let a = fingerprint(&session_stream(1, small(with_times)));
            assert_eq!(a, fingerprint(&session_stream(1, small(with_times))));
            assert_ne!(a, fingerprint(&session_stream(2, small(with_times))));
        }
        let clip_bytes = |seed| fingerprint(&sweep_streams(seed, 1).concat());
        assert_eq!(clip_bytes(1), clip_bytes(1));
        assert_ne!(clip_bytes(1), clip_bytes(2));
    }

    #[test]
    fn session_times_are_sorted_and_demands_positive() {
        let mut gen = SessionGen::new(7, 3);
        let (mut d, mut t) = (Vec::new(), Vec::new());
        gen.take(500, &mut d, &mut t);
        assert!(t.windows(2).all(|w| w[0] < w[1]));
        assert!(d.iter().all(|&x| x >= 150));
    }
}
