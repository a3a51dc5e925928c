//! The state metrics of the bare workloads: the size of a
//! `psm_fault::Checkpoint` image of a matcher's state (the image the
//! `Supervisor` writes), the time to restore working memory and a
//! matcher from it, and the time of `ops5::explain_instantiation` on the
//! restored state.
//!
//! Each input's image is taken once; restores and explanations are then
//! spread over the whole window, one image at a time on a fixed cadence
//! outside the timed calls, so they sample the host the way the timed
//! calls do instead of in one burst.

use std::sync::Arc;
use std::time::{Duration, Instant};

use ops5::{Instantiation, Program, WorkingMemory};
use psm_fault::Checkpoint;
use rete::{Network, ReteMatcher};

use crate::stats::{mean, median};
use crate::Outcome;

/// Probes per window.
const PROBES: u32 = 60;
/// Instantiations explained per probe.
const EXPLAINED: usize = 48;

/// The checkpoint image of a bare matcher's state.
pub fn checkpoint_bytes(
    cycle: u64,
    wm: &WorkingMemory,
    matcher: &ReteMatcher,
    conflict: &[Instantiation],
) -> Vec<u8> {
    Checkpoint {
        cycle,
        wm: wm.snapshot_bytes(),
        rete: matcher.snapshot(),
        conflict: conflict.to_vec(),
    }
    .to_bytes()
}

/// `conflict` in canonical order.
pub fn sorted<'a>(conflict: impl IntoIterator<Item = &'a Instantiation>) -> Vec<Instantiation> {
    let mut v: Vec<Instantiation> = conflict.into_iter().cloned().collect();
    v.sort_by(|a, b| (a.production, &a.wmes).cmp(&(b.production, &b.wmes)));
    v
}

struct Image {
    bytes: Vec<u8>,
    network: Arc<Network>,
    program: Program,
    restore_ms: Vec<f64>,
    explain_ms: Vec<f64>,
}

/// Restores and explains checkpoint images on a cadence.
pub struct StateProbe {
    images: Vec<Image>,
    period: Duration,
    due: Instant,
    next: usize,
    attempted: u64,
    failed: u64,
}

impl StateProbe {
    /// A probe spreading [`PROBES`] probes over `window`.
    pub fn new(window: Duration) -> Self {
        StateProbe {
            images: Vec::new(),
            period: window / PROBES,
            due: Instant::now(),
            next: 0,
            attempted: 0,
            failed: 0,
        }
    }

    /// Adds the image of one input's state.
    pub fn add(&mut self, bytes: Vec<u8>, network: Arc<Network>, program: &Program) {
        self.images.push(Image {
            bytes,
            network,
            program: program.clone(),
            restore_ms: Vec::new(),
            explain_ms: Vec::new(),
        });
    }

    /// Probes the next image if one is due.
    pub fn tick(&mut self) {
        if self.images.is_empty() || Instant::now() < self.due {
            return;
        }
        self.due = Instant::now() + self.period;
        let n = self.images.len();
        let image = &mut self.images[self.next % n];
        self.next += 1;
        self.attempted += 1;
        let t = Instant::now();
        let restored = Checkpoint::from_bytes(&image.bytes).ok().and_then(|c| {
            let wm = WorkingMemory::restore_snapshot(&c.wm).ok()?;
            let matcher = ReteMatcher::restore(image.network.clone(), &c.rete).ok()?;
            Some((wm, matcher, c.conflict))
        });
        let Some((wm, matcher, conflict)) = restored else {
            self.failed += 1;
            return;
        };
        image.restore_ms.push(t.elapsed().as_secs_f64() * 1e3);
        drop(matcher);
        let picked: Vec<&Instantiation> = conflict
            .iter()
            .step_by((conflict.len() / EXPLAINED).max(1))
            .take(EXPLAINED)
            .collect();
        if picked.is_empty() {
            return;
        }
        self.attempted += 1;
        let t = Instant::now();
        if picked
            .iter()
            .all(|inst| ops5::explain_instantiation(&image.program, &wm, inst).is_ok())
        {
            image
                .explain_ms
                .push(t.elapsed().as_secs_f64() * 1e3 / picked.len() as f64);
        } else {
            self.failed += 1;
        }
    }

    /// Sets `checkpoint_bytes` (mean image size), `recovery_ms` and
    /// `explain_ms` (mean over images of each image's median).
    pub fn report(mut self, out: &mut Outcome) {
        if self.next < self.images.len() {
            // A short window: give every image at least one probe.
            self.period = Duration::ZERO;
            while self.next < self.images.len() {
                self.tick();
            }
        }
        let sizes: Vec<f64> = self.images.iter().map(|i| i.bytes.len() as f64).collect();
        let medians = |pick: fn(&mut Image) -> &mut Vec<f64>, images: &mut [Image]| {
            let per: Vec<f64> = images
                .iter_mut()
                .map(pick)
                .filter(|v| !v.is_empty())
                .map(|v| median(v))
                .collect();
            mean(&per)
        };
        out.set("checkpoint_bytes", mean(&sizes));
        out.set(
            "recovery_ms",
            medians(|i| &mut i.restore_ms, &mut self.images),
        );
        out.set(
            "explain_ms",
            medians(|i| &mut i.explain_ms, &mut self.images),
        );
        out.attempted += self.attempted;
        out.failed += self.failed;
    }
}
