//! The codelet runtime beyond FFT: a wavefront dynamic-programming
//! computation (Needleman–Wunsch sequence alignment) expressed as a codelet
//! graph. Each codelet scores one tile of the DP matrix and depends on its
//! north, west, and north-west neighbours — a classic fine-grain dependence
//! pattern that coarse-grain barriers handle poorly (every anti-diagonal
//! would need one).
//!
//! Run with: `cargo run --release -p fgfft-examples --bin codelet_wavefront`

use codelet::graph::{CodeletId, CodeletProgram};
use codelet::pool::PoolDiscipline;
use codelet::runtime::Runtime;
use fgsupport::rng::Rng64;
use std::sync::atomic::{AtomicI64, Ordering};

const TILE: usize = 64;
const MATCH: i64 = 2;
const MISMATCH: i64 = -1;
const GAP: i64 = -2;

/// Tiled DP grid as a codelet program: codelet (r, c) = tile row r, col c.
struct Wavefront {
    tiles_x: usize,
    tiles_y: usize,
}

impl CodeletProgram for Wavefront {
    fn num_codelets(&self) -> usize {
        self.tiles_x * self.tiles_y
    }

    fn dep_count(&self, id: CodeletId) -> u32 {
        let (r, c) = (id / self.tiles_x, id % self.tiles_x);
        // North, west (the diagonal value arrives through either).
        (r > 0) as u32 + (c > 0) as u32
    }

    fn dependents(&self, id: CodeletId, out: &mut Vec<CodeletId>) {
        let (r, c) = (id / self.tiles_x, id % self.tiles_x);
        if c + 1 < self.tiles_x {
            out.push(id + 1);
        }
        if r + 1 < self.tiles_y {
            out.push(id + self.tiles_x);
        }
    }
}

#[allow(clippy::needless_range_loop)] // x indexes two arrays in lockstep
fn main() {
    let mut rng = Rng64::seed_from_u64(7);
    let len_a = 4 * TILE * 8;
    let len_b = 3 * TILE * 8;
    let a: Vec<u8> = (0..len_a).map(|_| rng.gen_range(0..4) as u8).collect();
    let b: Vec<u8> = (0..len_b).map(|_| rng.gen_range(0..4) as u8).collect();

    let tiles_x = len_a / TILE;
    let tiles_y = len_b / TILE;
    let program = Wavefront { tiles_x, tiles_y };
    println!(
        "aligning {len_b}x{len_a} DP matrix as {tiles_y}x{tiles_x} = {} codelets",
        program.num_codelets()
    );

    // Shared DP state: the full score matrix, one atomic per cell so tiles
    // can publish to their neighbours without locks. (A production aligner
    // would keep only the frontier; the full matrix keeps the example
    // simple and checkable.)
    let width = len_a + 1;
    let height = len_b + 1;
    let grid: Vec<AtomicI64> = (0..width * height).map(|_| AtomicI64::new(0)).collect();
    for x in 0..width {
        grid[x].store(x as i64 * GAP, Ordering::Relaxed);
    }
    for y in 0..height {
        grid[y * width].store(y as i64 * GAP, Ordering::Relaxed);
    }

    let score_tile = |id: CodeletId| {
        let (tr, tc) = (id / tiles_x, id % tiles_x);
        for y in tr * TILE + 1..=(tr + 1) * TILE {
            for x in tc * TILE + 1..=(tc + 1) * TILE {
                let sub = if a[x - 1] == b[y - 1] {
                    MATCH
                } else {
                    MISMATCH
                };
                let diag = grid[(y - 1) * width + (x - 1)].load(Ordering::Relaxed) + sub;
                let up = grid[(y - 1) * width + x].load(Ordering::Relaxed) + GAP;
                let left = grid[y * width + (x - 1)].load(Ordering::Relaxed) + GAP;
                grid[y * width + x].store(diag.max(up).max(left), Ordering::Relaxed);
            }
        }
    };

    // Parallel dataflow execution.
    let runtime = Runtime::default();
    let stats = runtime.run(&program, PoolDiscipline::Lifo, score_tile);
    let parallel_score = grid[height * width - 1].load(Ordering::SeqCst);
    println!(
        "parallel: {} codelets on {} workers in {:.2?} (load-imbalance CV {:.3})",
        stats.total_fired,
        runtime.workers(),
        stats.elapsed,
        stats.load_imbalance_cv()
    );

    // Sequential oracle.
    let mut oracle = vec![0i64; width * height];
    for x in 0..width {
        oracle[x] = x as i64 * GAP;
    }
    for (y, row) in oracle.chunks_mut(width).enumerate().skip(1) {
        row[0] = y as i64 * GAP;
    }
    for y in 1..height {
        for x in 1..width {
            let sub = if a[x - 1] == b[y - 1] {
                MATCH
            } else {
                MISMATCH
            };
            let diag = oracle[(y - 1) * width + (x - 1)] + sub;
            let up = oracle[(y - 1) * width + x] + GAP;
            let left = oracle[y * width + (x - 1)] + GAP;
            oracle[y * width + x] = diag.max(up).max(left);
        }
    }
    let oracle_score = oracle[height * width - 1];

    println!("alignment score: parallel {parallel_score}, sequential {oracle_score}");
    assert_eq!(parallel_score, oracle_score, "dataflow execution diverged");
    println!("wavefront dataflow matches the sequential oracle ✓");
}
