//! Seeded input generation.
//!
//! Inputs are a pure function of the workload seed. Generation runs in a
//! child process (`perfbench --generate WORKLOAD SEED TINY DIR`) that
//! writes the trace files and exits, so the measured process only reads
//! finished inputs and its peak RSS never includes generation.

use netloc::mpi::{
    write_trace, write_trace_columnar, CollectiveOp, Payload, Rank, Trace, TraceBuilder,
};
use std::fs::File;
use std::io::Write;
use std::path::Path;

/// SplitMix64: small, seedable, and stable across platforms.
pub struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo)
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.range(0, i as u64 + 1) as usize);
        }
    }
}

/// A stream of the run seed, so each input draws independent numbers.
pub fn stream(seed: u64, name: &str) -> Rng {
    let mut h = seed ^ 0xA076_1D64_78BD_642F;
    for b in name.bytes() {
        h = (h ^ b as u64).wrapping_mul(0x1000_0000_01B3);
    }
    Rng::new(h)
}

/// Traffic shapes of the generated traces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pattern {
    /// Sparse 3D halo exchange: 8×8×8 ranks, six face neighbours each.
    Stencil,
    /// Dense irregular traffic: 256 ranks, 16 random partners per round.
    Dense,
    /// Collective-only BigFFT-style transposes: all-to-alls on the rows
    /// and columns of a 16×16 rank grid.
    Fft,
}

impl Pattern {
    pub fn name(self) -> &'static str {
        match self {
            Pattern::Stencil => "stencil",
            Pattern::Dense => "dense",
            Pattern::Fft => "fft",
        }
    }

    pub fn ranks(self) -> u32 {
        match self {
            Pattern::Stencil => 512,
            Pattern::Dense | Pattern::Fft => 256,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    Text,
    Columnar,
}

/// One generated trace file.
#[derive(Debug, Clone, Copy)]
pub struct Input {
    pub file: &'static str,
    pub pattern: Pattern,
    pub events: usize,
    pub format: Format,
}

/// Event counts shrink this much in self-check (`tiny`) mode.
pub const TINY_DIVISOR: usize = 40;

impl Input {
    const fn new(file: &'static str, pattern: Pattern, events: usize, format: Format) -> Self {
        Input {
            file,
            pattern,
            events,
            format,
        }
    }

    pub fn events(&self, tiny: bool) -> usize {
        if tiny {
            (self.events / TINY_DIVISOR).max(1)
        } else {
            self.events
        }
    }
}

pub const SMALL: usize = 40_000;
pub const LARGE: usize = 1_000_000;
pub const UPLOAD: usize = 20_000;

/// `cli-cold`: text and columnar files at two sizes over all three shapes.
pub const CLI_INPUTS: [Input; 6] = [
    Input::new("stencil-small.txt", Pattern::Stencil, SMALL, Format::Text),
    Input::new(
        "stencil-small.col",
        Pattern::Stencil,
        SMALL,
        Format::Columnar,
    ),
    Input::new("dense-small.txt", Pattern::Dense, SMALL, Format::Text),
    Input::new("fft-small.col", Pattern::Fft, SMALL, Format::Columnar),
    Input::new(
        "stencil-large.col",
        Pattern::Stencil,
        LARGE,
        Format::Columnar,
    ),
    Input::new("dense-large.txt", Pattern::Dense, LARGE, Format::Text),
];

/// `serve-mixed`: the two registered base traces, then the upload pool
/// (even entries go up whole as text, odd ones chunked as columnar).
pub const SERVE_INPUTS: [Input; 10] = [
    Input::new("base-small.txt", Pattern::Dense, SMALL, Format::Text),
    Input::new("base-large.col", Pattern::Dense, LARGE, Format::Columnar),
    Input::new("upload-0.txt", Pattern::Stencil, UPLOAD, Format::Text),
    Input::new("upload-1.col", Pattern::Dense, UPLOAD, Format::Columnar),
    Input::new("upload-2.txt", Pattern::Dense, UPLOAD, Format::Text),
    Input::new("upload-3.col", Pattern::Stencil, UPLOAD, Format::Columnar),
    Input::new("upload-4.txt", Pattern::Fft, UPLOAD, Format::Text),
    Input::new("upload-5.col", Pattern::Fft, UPLOAD, Format::Columnar),
    Input::new("upload-6.txt", Pattern::Stencil, UPLOAD, Format::Text),
    Input::new("upload-7.col", Pattern::Dense, UPLOAD, Format::Columnar),
];

fn inputs_of(workload: &str) -> &'static [Input] {
    match workload {
        "cli-cold" => &CLI_INPUTS,
        "serve-mixed" => &SERVE_INPUTS,
        _ => &[],
    }
}

/// The trace of `input` for this run's seed.
fn trace_of(input: &Input, seed: u64, tiny: bool) -> Trace {
    let mut rng = stream(seed, input.file);
    let events = input.events(tiny);
    let name = format!("{}-{}", input.pattern.name(), input.file);
    match input.pattern {
        Pattern::Stencil => stencil(&name, events, &mut rng),
        Pattern::Dense => dense(&name, events, &mut rng),
        Pattern::Fft => fft(&name, events, &mut rng),
    }
}

fn encode(trace: &Trace, format: Format) -> Vec<u8> {
    match format {
        Format::Text => write_trace(trace).into_bytes(),
        Format::Columnar => write_trace_columnar(trace),
    }
}

fn stencil(name: &str, events: usize, rng: &mut Rng) -> Trace {
    const D: u32 = 8;
    let mut b = TraceBuilder::new(name, D * D * D).exec_time_s(1.0);
    let rounds = (events / (6 * (D * D * D) as usize)).max(1);
    for _ in 0..rounds {
        for r in 0..D * D * D {
            let (x, y, z) = (r % D, r / D % D, r / (D * D));
            let at = |x: u32, y: u32, z: u32| Rank(x % D + y % D * D + z % D * D * D);
            for dst in [
                at(x + 1, y, z),
                at(x + D - 1, y, z),
                at(x, y + 1, z),
                at(x, y + D - 1, z),
                at(x, y, z + 1),
                at(x, y, z + D - 1),
            ] {
                b.send(Rank(r), dst, rng.range(1024, 64 * 1024), 1);
            }
        }
    }
    b.build()
}

fn dense(name: &str, events: usize, rng: &mut Rng) -> Trace {
    const N: u32 = 256;
    const PARTNERS: usize = 16;
    let mut b = TraceBuilder::new(name, N).exec_time_s(1.0);
    let rounds = (events / (PARTNERS * N as usize)).max(1);
    for _ in 0..rounds {
        for r in 0..N {
            for _ in 0..PARTNERS {
                let dst = (r + rng.range(1, N as u64) as u32) % N;
                b.send(Rank(r), Rank(dst), rng.range(256, 256 * 1024), 1);
            }
        }
    }
    b.build()
}

fn fft(name: &str, events: usize, rng: &mut Rng) -> Trace {
    const SIDE: u32 = 16;
    let mut b = TraceBuilder::new(name, SIDE * SIDE).exec_time_s(1.0);
    let rows: Vec<_> = (0..SIDE)
        .map(|r| b.register_comm((0..SIDE).map(|c| Rank(r * SIDE + c)).collect()))
        .collect();
    let cols: Vec<_> = (0..SIDE)
        .map(|c| b.register_comm((0..SIDE).map(|r| Rank(r * SIDE + c)).collect()))
        .collect();
    let rounds = (events / (2 * SIDE as usize)).max(1);
    for _ in 0..rounds {
        for comm in rows.iter().chain(&cols) {
            let bytes = rng.range(512, 32 * 1024);
            b.collective_on(
                CollectiveOp::Alltoall,
                *comm,
                None,
                Payload::Uniform(bytes),
                1,
            );
        }
    }
    b.build()
}

/// Child-process entry point: `WORKLOAD SEED TINY DIR`.
pub fn child_main(args: &[String]) {
    let [workload, seed, tiny, dir] = args else {
        panic!("--generate takes WORKLOAD SEED TINY DIR");
    };
    let seed: u64 = seed.parse().expect("numeric seed");
    let tiny = tiny == "1";
    for input in inputs_of(workload) {
        let bytes = encode(&trace_of(input, seed, tiny), input.format);
        let mut file = File::create(Path::new(dir).join(input.file)).expect("create input file");
        file.write_all(&bytes).expect("write generated input");
        // On disk before the measured process starts, so writeback of
        // the inputs never runs beside a timed interval.
        file.sync_all().expect("sync generated input");
    }
}

/// Generate this workload's input files into `dir` in a child process.
pub fn generate(workload: &str, seed: u64, tiny: bool, dir: &Path) {
    let status = std::process::Command::new(std::env::current_exe().expect("own path"))
        .arg("--generate")
        .arg(workload)
        .arg(seed.to_string())
        .arg(if tiny { "1" } else { "0" })
        .arg(dir)
        .status()
        .expect("spawn the input generator");
    assert!(status.success(), "input generation failed: {status}");
}
