//! Inputs, made on the benchmark's side from the run's seed.
//!
//! * [`SteadyStream`]: change batches for one generated preset. Every
//!   batch retracts and asserts so that working memory stays within one
//!   element of the preset's size (the paper's stable *s*), so the cost
//!   of a batch does not drift with the length of the run.
//! * [`grid_edges`], [`closure_edges`]: the graphs handed to the
//!   `shortest_paths` and `transitive_closure` programs, and
//!   [`permutation`], which relabels them (and the presets' join values)
//!   per seed without changing their shape.

use ops5::{Change, WmeId, WorkingMemory};
use psm_obs::Rng64;
use workloads::GeneratedWorkload;

/// Derives an independent stream seed for input `index` of a run.
pub fn mix(seed: u64, index: u64) -> u64 {
    // SplitMix64 finalizer over the pair.
    let mut z = seed ^ index.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A steady-state change stream over one generated workload.
#[derive(Debug)]
pub struct SteadyStream {
    workload: GeneratedWorkload,
    rng: Rng64,
    /// The stream's working memory: the matcher reads it.
    pub wm: WorkingMemory,
    live: Vec<WmeId>,
    target: usize,
}

impl SteadyStream {
    /// Builds the stream and its initial working memory of
    /// `spec.wm_size` elements (not yet shown to any matcher).
    pub fn new(workload: GeneratedWorkload, seed: u64) -> Self {
        let mut rng = Rng64::new(seed);
        let mut wm = WorkingMemory::new();
        let live: Vec<WmeId> = workload
            .initial_wm(&mut rng)
            .into_iter()
            .map(|w| wm.add(w).0)
            .collect();
        let target = live.len();
        SteadyStream {
            workload,
            rng,
            wm,
            live,
            target,
        }
    }

    /// The initial elements, in assertion order.
    pub fn initial(&self) -> Vec<WmeId> {
        self.live.clone()
    }

    /// The generated workload (its program is what the matcher runs).
    pub fn workload(&self) -> &GeneratedWorkload {
        &self.workload
    }

    /// The next batch: retractions of live elements, then assertions of
    /// fresh ones, `min_changes..=max_changes` in all. Assertions are
    /// already in [`SteadyStream::wm`]; retracted elements stay there
    /// until [`SteadyStream::commit`].
    pub fn next_batch(&mut self) -> Vec<Change> {
        let spec = &self.workload.spec;
        let n = self
            .rng
            .gen_range(spec.min_changes..=spec.max_changes)
            .max(1);
        // Replace exactly: with `live` at `target` or `target + 1`, this
        // brings it back to one of the two.
        let excess = self.live.len().saturating_sub(self.target);
        let removes = ((n + excess) / 2).min(self.live.len()).min(n);
        let mut batch = Vec::with_capacity(n);
        for _ in 0..removes {
            let idx = self.rng.gen_range(0..self.live.len());
            batch.push(Change::Remove(self.live.swap_remove(idx)));
        }
        for _ in removes..n {
            let wme = self.workload.gen_wme(&mut self.rng);
            let (id, _) = self.wm.add(wme);
            self.live.push(id);
            batch.push(Change::Add(id));
        }
        batch
    }

    /// Rebuilds working memory from the live elements alone, in the same
    /// order, so that [`SteadyStream::initial`] lists their new handles.
    /// `WorkingMemory` never reuses a retracted element's slot, so
    /// without this its size grows with every assertion made.
    pub fn compact(&mut self) {
        let mut wm = WorkingMemory::new();
        for id in &mut self.live {
            let wme = self.wm.get(*id).expect("live element").clone();
            *id = wm.add(wme).0;
        }
        self.wm = wm;
    }

    /// Retires the batch's retractions from working memory.
    pub fn commit(&mut self, batch: &[Change]) {
        for change in batch {
            if let Change::Remove(id) = change {
                self.wm.remove(*id);
            }
        }
    }
}

/// A `side`×`side` four-connected grid with about a fifth of the cells
/// walled off (never the start cell 0), as directed edges both ways.
pub fn grid_edges(side: i64, seed: u64) -> Vec<(i64, i64)> {
    let mut rng = Rng64::new(seed);
    let walls: Vec<bool> = (0..side * side)
        .map(|c| c != 0 && rng.gen_range(0..5u32) == 0)
        .collect();
    let mut edges = Vec::new();
    for r in 0..side {
        for c in 0..side {
            let id = r * side + c;
            if walls[id as usize] {
                continue;
            }
            for (dr, dc) in [(0i64, 1i64), (1, 0), (0, -1), (-1, 0)] {
                let (nr, nc) = (r + dr, c + dc);
                if (0..side).contains(&nr) && (0..side).contains(&nc) {
                    let nid = nr * side + nc;
                    if !walls[nid as usize] {
                        edges.push((id, nid));
                    }
                }
            }
        }
    }
    edges
}

/// A random directed graph on `nodes` nodes with `edges` distinct
/// edges and no self-loops.
pub fn closure_edges(nodes: i64, edges: usize, seed: u64) -> Vec<(i64, i64)> {
    let mut rng = Rng64::new(seed);
    let mut out: Vec<(i64, i64)> = Vec::with_capacity(edges);
    while out.len() < edges {
        let a = rng.gen_range(0..nodes);
        let b = rng.gen_range(0..nodes);
        if a != b && !out.contains(&(a, b)) {
            out.push((a, b));
        }
    }
    out
}

/// A seeded permutation of `0..n` (Fisher–Yates).
pub fn permutation(n: i64, seed: u64) -> Vec<i64> {
    let mut rng = Rng64::new(seed);
    let mut p: Vec<i64> = (0..n).collect();
    for i in (1..p.len()).rev() {
        let j = rng.gen_range(0..=i);
        p.swap(i, j);
    }
    p
}

/// `edges` with every node `v` renamed `perm[v]`.
pub fn relabel(edges: &[(i64, i64)], perm: &[i64]) -> Vec<(i64, i64)> {
    edges
        .iter()
        .map(|&(a, b)| (perm[a as usize], perm[b as usize]))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::Preset;

    #[test]
    fn working_memory_holds_at_the_preset_size() {
        let w = GeneratedWorkload::generate(Preset::R1Soar.spec()).unwrap();
        let target = w.spec.wm_size;
        let mut s = SteadyStream::new(w, 3);
        for _ in 0..2000 {
            let batch = s.next_batch();
            s.commit(&batch);
            let live = s.wm.len();
            assert!(live == target || live == target + 1, "{live} vs {target}");
        }
    }

    #[test]
    fn compaction_changes_no_input() {
        let w = GeneratedWorkload::generate(Preset::Ilog.spec()).unwrap();
        let mut a = SteadyStream::new(w.clone(), 5);
        let mut b = SteadyStream::new(w, 5);
        let contents = |s: &SteadyStream, batch: &[Change]| -> Vec<(bool, ops5::Wme)> {
            batch
                .iter()
                .map(|c| match c {
                    Change::Add(id) => (true, s.wm.get(*id).unwrap().clone()),
                    Change::Remove(id) => (false, s.wm.get(*id).unwrap().clone()),
                })
                .collect()
        };
        for round in 0..600 {
            if round % 100 == 99 {
                b.compact();
                // Handles are dense again: no retired slot survives.
                assert!(b.initial().iter().all(|id| id.index() < b.wm.len()));
            }
            let (x, y) = (a.next_batch(), b.next_batch());
            assert_eq!(contents(&a, &x), contents(&b, &y));
            a.commit(&x);
            b.commit(&y);
        }
    }

    #[test]
    fn permutations_are_bijections() {
        let mut p = permutation(50, 7);
        assert_ne!(p, (0..50).collect::<Vec<_>>());
        p.sort_unstable();
        assert_eq!(p, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn streams_repeat_per_seed() {
        let w = GeneratedWorkload::generate(Preset::EpSoar.spec()).unwrap();
        let mut a = SteadyStream::new(w.clone(), 9);
        let mut b = SteadyStream::new(w, 9);
        for _ in 0..50 {
            assert_eq!(a.next_batch(), b.next_batch());
        }
        assert_eq!(a.wm.snapshot_bytes(), b.wm.snapshot_bytes());
    }
}
