//! `certify`: the proof stack, on a fixed list of jobs run two at a time.
//!
//! Three kinds of job: `explore` design-space sweeps at budget 32,
//! bounded sequential equivalence (`equiv` at bound 16) between pairs of
//! backends, and `rewrite` with its certification ladder. The logic
//! layer (AIG, BDD, SAT), the explore engine and its executor dominate;
//! the frontend does almost nothing. The list is fixed (the seed does
//! not enter: job order decides which jobs share the two cores, and with
//! it peak memory); jobs that take seconds on their own are left out and
//! listed in the README as known cliffs.

use crate::corpus::{self, Item};
use crate::stats::Metric;
use crate::trace::span;
use crate::workload::{closed_loop, ratio, Config, Outcome, Workload};
use chls::explore::{explore, ExploreOptions, Tier};
use chls::{Design, ServiceCtx, SynthOptions};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Programs swept by `explore --budget 32`.
const EXPLORE: [&str; 6] = [
    "fir.chl",
    "gcd.chl",
    "blend.chl",
    "software/bsearch.chl",
    "matmul4",
    "strchr8",
];

/// Backend pairs `equiv` compares.
const PAIRS: [(&str, &str); 3] = [
    ("c2v", "cyber"),
    ("handelc", "transmogrifier"),
    ("c2v", "handelc"),
];

/// (program, which of [`PAIRS`]) for every triple that finishes within
/// a second on its own; missing pairs take longer (the README lists
/// them) or have a side the backend rejects. Most triples are undecided
/// at bound 16 (no input completes within 16 cycles on both sides);
/// the first one decides, since `--corrupt-golden` flips its expected
/// verdict.
const EQUIV: [(&str, [bool; 3]); 21] = [
    ("fib16", [true, true, true]),
    ("blend.chl", [true, true, true]),
    ("bubble8", [true, true, true]),
    ("checksum.chl", [true, true, true]),
    ("clamp_mix", [true, true, true]),
    ("conv1d", [true, true, true]),
    ("crc32", [true, true, true]),
    ("crc8.chl", [true, true, true]),
    ("dot8", [true, true, true]),
    ("fir8", [true, true, true]),
    ("fir.chl", [true, true, true]),
    ("histogram", [true, true, true]),
    ("isqrt", [true, true, true]),
    ("matmul4", [true, true, true]),
    ("popcount", [true, true, true]),
    ("software/bitcount.chl", [true, true, true]),
    ("vecscale", [true, true, true]),
    ("max8", [true, false, true]),
    ("software/bsearch.chl", [true, false, true]),
    ("strchr8", [true, false, true]),
    ("software/matmul.chl", [false, true, true]),
];

const EQUIV_BOUND: usize = 16;
const EXPLORE_BUDGET: usize = 32;

/// A frontier's (area, latency) points.
type Frontier = Vec<(f64, Option<u64>)>;

enum Job {
    Explore(usize),
    /// Program, the two backends, and the expected verdict: `true` for
    /// equivalent, which every listed triple is (two backends of one
    /// program compute the same function).
    Equiv(usize, &'static str, &'static str, bool),
    Rewrite(&'static str),
}

pub struct Certify {
    corpus: Vec<Item>,
    jobs: Vec<Job>,
    /// Software-corpus sources for `rewrite`, by name.
    software: Vec<(&'static str, &'static str)>,
    /// Frontier (area, latency) per explore job, from its first run.
    frontiers: Mutex<Vec<Option<Frontier>>>,
    equiv_runs: AtomicU64,
    equiv_decided: AtomicU64,
    explore_runs: AtomicU64,
    lattice: AtomicU64,
    feasible: AtomicU64,
    frontier_points: AtomicU64,
    certified_points: AtomicU64,
    rewrites: AtomicU64,
    rewrites_certified: AtomicU64,
}

fn item<'a>(corpus: &'a [Item], name: &str) -> Result<(usize, &'a Item), String> {
    corpus
        .iter()
        .enumerate()
        .find(|(_, it)| it.name == name)
        .ok_or_else(|| format!("corpus has no program `{name}`"))
}

pub fn setup(cfg: &Config) -> Result<Certify, String> {
    let corpus = corpus::corpus()?;
    // At reduced scale every kind of job keeps at least one instance.
    let take = |n: usize| cfg.scaled(n, 1).min(n);
    let explores: Vec<Job> = EXPLORE[..take(EXPLORE.len())]
        .iter()
        .map(|name| item(&corpus, name).map(|(i, _)| Job::Explore(i)))
        .collect::<Result<_, _>>()?;
    let triples: Vec<Job> = EQUIV
        .iter()
        .map(|(name, mask)| item(&corpus, name).map(|(i, _)| (i, mask)))
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .flat_map(|(i, mask)| {
            PAIRS
                .iter()
                .zip(mask)
                .filter(|(_, on)| **on)
                .map(move |((a, b), _)| Job::Equiv(i, a, b, true))
        })
        .collect();
    let n = take(triples.len());
    let software = corpus::SOFTWARE[..take(corpus::SOFTWARE.len())]
        .iter()
        .map(|name| corpus::example(&format!("software/{name}.chl")).map(|src| (*name, src)))
        .collect::<Result<Vec<_>, _>>()?;
    let mut rest: Vec<Job> = triples.into_iter().take(n).collect();
    if cfg.corrupt_golden {
        // `--corrupt-golden`: the first triple is expected to differ, so
        // its (equivalent) verdict must be counted as a failure.
        if let Some(Job::Equiv(_, _, _, expect)) = rest.first_mut() {
            *expect = false;
        }
    }
    rest.extend(software.iter().map(|(name, _)| Job::Rewrite(name)));
    // Each explore sweep leads an even share of the shorter jobs, so the
    // long jobs are spread over the pass.
    let share = rest.len().div_ceil(explores.len());
    let explore_count = explores.len();
    let mut jobs = Vec::new();
    let mut rest = rest.into_iter();
    for e in explores {
        jobs.push(e);
        jobs.extend(rest.by_ref().take(share));
    }
    Ok(Certify {
        corpus,
        jobs,
        software,
        frontiers: Mutex::new(vec![None; explore_count]),
        equiv_runs: AtomicU64::new(0),
        equiv_decided: AtomicU64::new(0),
        explore_runs: AtomicU64::new(0),
        lattice: AtomicU64::new(0),
        feasible: AtomicU64::new(0),
        frontier_points: AtomicU64::new(0),
        certified_points: AtomicU64::new(0),
        rewrites: AtomicU64::new(0),
        rewrites_certified: AtomicU64::new(0),
    })
}

impl Certify {
    fn explore(&self, idx: usize) -> Result<(), String> {
        let it = &self.corpus[idx];
        let opts = ExploreOptions {
            budget: Some(EXPLORE_BUDGET),
            jobs: 1,
            ..ExploreOptions::default()
        };
        let digest = chls::cache::fnv64(it.source.as_bytes());
        let compiler = Arc::clone(&it.compiler);
        let report = span("explore", "explore", || {
            explore(&compiler, &it.entry, &opts, &ServiceCtx::uncached(), digest)
        })?;
        if report.frontier.is_empty() {
            return Err(format!("{}: empty frontier", it.name));
        }
        if let Some(p) = report
            .frontier
            .iter()
            .find(|p| p.cert.tier == Tier::Refuted)
        {
            return Err(format!(
                "{}: frontier point {} refuted: {:?}",
                it.name,
                p.config.slug(),
                p.cert.detail
            ));
        }
        self.explore_runs.fetch_add(1, Ordering::Relaxed);
        self.lattice
            .fetch_add(report.lattice as u64, Ordering::Relaxed);
        self.feasible
            .fetch_add(report.feasible as u64, Ordering::Relaxed);
        self.frontier_points
            .fetch_add(report.frontier.len() as u64, Ordering::Relaxed);
        let certified = report
            .frontier
            .iter()
            .filter(|p| p.cert.tier == Tier::Certified)
            .count();
        self.certified_points
            .fetch_add(certified as u64, Ordering::Relaxed);
        let slot = EXPLORE
            .iter()
            .position(|n| *n == it.name)
            .expect("explore jobs come from EXPLORE");
        self.frontiers.lock().expect("frontier record poisoned")[slot].get_or_insert_with(|| {
            report
                .frontier
                .iter()
                .map(|p| (p.eval.area.unwrap_or(0.0), p.eval.latency))
                .collect()
        });
        Ok(())
    }

    fn equiv(&self, idx: usize, a: &str, b: &str, expect_equivalent: bool) -> Result<(), String> {
        let it = &self.corpus[idx];
        let synth = |name: &str| -> Result<chls_rtl::Fsmd, String> {
            let backend =
                chls::backend_by_name(name).ok_or_else(|| format!("no backend {name}"))?;
            match span(backend.info().name, "backends", || {
                it.compiler
                    .synthesize(backend.as_ref(), &it.entry, &SynthOptions::default())
            }) {
                Ok(Design::Fsmd(f)) => Ok(f),
                Ok(_) => Err(format!("{}/{name}: not an FSMD", it.name)),
                Err(e) => Err(format!("{}/{name}: {e}", it.name)),
            }
        };
        let (fa, fb) = (synth(a)?, synth(b)?);
        let report = span("check_seq_equiv", "logic", || {
            chls_logic::check_seq_equiv(&fa, &fb, EQUIV_BOUND, &chls_logic::EquivOptions::default())
        })
        .map_err(|e| format!("{} {a}/{b}: {e}", it.name))?;
        self.equiv_runs.fetch_add(1, Ordering::Relaxed);
        let (equivalent, found) = match report.verdict {
            chls_logic::Verdict::Equivalent => (true, "equivalent".to_string()),
            chls_logic::Verdict::Differ(cex) => (false, format!("differ at `{}`", cex.output)),
            // Undecided within the bound is not wrong; `logic.decided_ratio`
            // counts it.
            chls_logic::Verdict::Unknown(_) => return Ok(()),
        };
        self.equiv_decided.fetch_add(1, Ordering::Relaxed);
        if equivalent == expect_equivalent {
            Ok(())
        } else {
            let expected = if expect_equivalent {
                "equivalent"
            } else {
                "to differ"
            };
            Err(format!(
                "{} {a}/{b}: designs {found}, expected {expected}",
                it.name
            ))
        }
    }

    fn rewrite(&self, name: &str) -> Result<(), String> {
        let (_, src) = self
            .software
            .iter()
            .find(|(n, _)| *n == name)
            .expect("rewrite jobs come from SOFTWARE");
        let outcome = span("rewrite_and_certify", "rewrite", || {
            chls::rewrite_and_certify(
                src,
                name,
                &chls_opt::rewrite::RewriteOptions::default(),
                None,
            )
        })?;
        self.rewrites.fetch_add(1, Ordering::Relaxed);
        if !outcome.certified {
            return Err(format!("rewrite of {name} not certified"));
        }
        self.rewrites_certified.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }
}

impl Workload for Certify {
    fn measure(&self, seconds: f64, out: &mut Outcome) {
        out.tail_q = 0.9;
        closed_loop(
            out,
            2,
            self.jobs.len(),
            seconds,
            |_| (),
            |i, ()| match self.jobs[i % self.jobs.len()] {
                Job::Explore(idx) => self.explore(idx),
                Job::Equiv(idx, a, b, expect) => self.equiv(idx, a, b, expect),
                Job::Rewrite(name) => self.rewrite(name),
            },
        );
    }

    fn finish(&self, out: &mut Outcome) {
        for points in self
            .frontiers
            .lock()
            .expect("frontier record poisoned")
            .iter()
            .flatten()
        {
            for (area, latency) in points {
                out.qor_area.push(*area);
                out.qor_cycles
                    .extend(latency.filter(|l| *l > 0).map(|l| l as f64));
            }
        }
        out.layer.push(Metric::new(
            "logic.decided_ratio",
            ratio(&self.equiv_decided, &self.equiv_runs),
            "ratio",
        ));
        out.layer.push(Metric::new(
            "explore.feasible_ratio",
            ratio(&self.feasible, &self.lattice),
            "ratio",
        ));
        out.layer.push(Metric::new(
            "explore.frontier_points",
            ratio(&self.frontier_points, &self.explore_runs),
            "count",
        ));
        out.layer.push(Metric::new(
            "explore.certified_ratio",
            ratio(&self.certified_points, &self.frontier_points),
            "ratio",
        ));
        out.layer.push(Metric::new(
            "rewrite.certified_ratio",
            ratio(&self.rewrites_certified, &self.rewrites),
            "ratio",
        ));
    }
}
