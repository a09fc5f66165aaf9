//! [`CompileOptions`] — the builder callers use instead of threading
//! loose bools through the pipeline.
//!
//! Backends consume a [`SynthOptions`]; the conformance driver wants a
//! job count; the observability layer wants to know whether to collect
//! traces. `CompileOptions` carries all of it behind chainable setters:
//!
//! ```
//! use chls::CompileOptions;
//! let opts = CompileOptions::new().pipeline(true).jobs(4).trace(true);
//! assert!(opts.synth_options().pipeline_loops);
//! assert_eq!(opts.jobs_requested(), Some(4));
//! ```

use chls_backends::SynthOptions;
use std::hash::{Hash, Hasher};

/// Pipeline-wide options, built fluently.
///
/// `CompileOptions` is deterministically hashable: [`Hash`] covers every
/// field, and [`CompileOptions::cache_key`] renders the *artifact-
/// relevant* subset (backend, narrow, opt_netlist, pipeline, unroll,
/// jit) as a stable string for content-addressed caching — `jobs` and
/// `trace` are deliberately excluded because they change how fast an
/// artifact is produced, never what it is.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct CompileOptions {
    pipeline: bool,
    narrow: bool,
    opt_netlist: bool,
    jobs: Option<usize>,
    trace: bool,
    jit: Option<bool>,
    backend: Option<String>,
    unroll: Option<u32>,
}

impl CompileOptions {
    /// Defaults: no pipelining, no narrowing, automatic job count, no
    /// tracing.
    pub fn new() -> Self {
        CompileOptions::default()
    }

    /// Enables hardware loop pipelining (modulo scheduling) where the
    /// backend supports it.
    pub fn pipeline(mut self, on: bool) -> Self {
        self.pipeline = on;
        self
    }

    /// Enables width-analysis-driven register/datapath narrowing.
    pub fn narrow(mut self, on: bool) -> Self {
        self.narrow = on;
        self
    }

    /// Enables the word-level logic optimizer over synthesized designs
    /// (`--opt-netlist`).
    pub fn opt_netlist(mut self, on: bool) -> Self {
        self.opt_netlist = on;
        self
    }

    /// Fixes the conformance driver's worker-thread count (clamped to at
    /// least 1). Unset means [`crate::conformance_jobs`].
    pub fn jobs(mut self, n: usize) -> Self {
        self.jobs = Some(n.max(1));
        self
    }

    /// Enables per-pass trace collection (spans, counters, gauges) in
    /// the global [`chls_trace`] collector while pipeline stages run.
    pub fn trace(mut self, on: bool) -> Self {
        self.trace = on;
        self
    }

    /// Requests native JIT execution of FSMD simulations (`--jit`).
    /// Unset falls back to the `CHLS_JIT=1` environment default; the
    /// request silently degrades to the interpreter on hosts where
    /// [`chls_jit::available`] is false.
    pub fn jit(mut self, on: bool) -> Self {
        self.jit = Some(on);
        self
    }

    /// Selects one backend by name (`--backend B`); `None` means all
    /// registered backends (where the verb fans out) or the verb's
    /// default. Part of [`CompileOptions::cache_key`].
    pub fn backend(mut self, name: Option<&str>) -> Self {
        self.backend = name.map(str::to_string);
        self
    }

    /// Unroll factor for canonical counted loops that carry no
    /// `#pragma unroll` of their own (`--unroll N`; `0` = fully, pragma
    /// always wins).
    pub fn unroll(mut self, factor: Option<u32>) -> Self {
        self.unroll = factor;
        self
    }

    /// The selected backend, if fixed.
    pub fn backend_requested(&self) -> Option<&str> {
        self.backend.as_deref()
    }

    /// Is loop pipelining requested?
    #[allow(clippy::missing_const_for_fn)]
    pub fn pipeline_requested(&self) -> bool {
        self.pipeline
    }

    /// Is width narrowing requested?
    #[allow(clippy::missing_const_for_fn)]
    pub fn narrow_requested(&self) -> bool {
        self.narrow
    }

    /// Is the netlist optimizer requested?
    #[allow(clippy::missing_const_for_fn)]
    pub fn opt_netlist_requested(&self) -> bool {
        self.opt_netlist
    }

    /// The explicit JIT request, `None` when deferring to `CHLS_JIT`
    /// (use [`CompileOptions::jit_requested`] for the effective value).
    #[allow(clippy::missing_const_for_fn)]
    pub fn jit_explicit(&self) -> Option<bool> {
        self.jit
    }

    /// The requested unroll-factor override, if any.
    #[allow(clippy::missing_const_for_fn)]
    pub fn unroll_requested(&self) -> Option<u32> {
        self.unroll
    }

    /// The stable content-address of everything that shapes a compile
    /// artifact: backend, narrow, opt_netlist, pipeline, unroll, and the
    /// *effective* JIT choice (explicit request or the `CHLS_JIT`
    /// environment default — so flipping the env var invalidates cached
    /// simulation-bearing artifacts). `jobs` and `trace` are excluded:
    /// they affect wall-clock, not bytes.
    ///
    /// Two option sets produce the same key iff they request the same
    /// artifacts; the format is versioned by field order and must stay
    /// append-only.
    pub fn cache_key(&self) -> String {
        format!(
            "b={};n={};o={};p={};u={};j={}",
            self.backend.as_deref().unwrap_or("*"),
            u8::from(self.narrow),
            u8::from(self.opt_netlist),
            u8::from(self.pipeline),
            self.unroll
                .map_or_else(|| "-".to_string(), |u| u.to_string()),
            u8::from(self.jit_requested()),
        )
    }

    /// A 64-bit FNV-1a digest of [`CompileOptions::cache_key`], for use
    /// in composite cache keys.
    pub fn cache_hash(&self) -> u64 {
        let mut h = crate::cache::Fnv64::default();
        self.cache_key().hash(&mut h);
        h.finish()
    }

    /// Is JIT execution requested, explicitly or via `CHLS_JIT=1`?
    pub fn jit_requested(&self) -> bool {
        self.jit.unwrap_or_else(|| {
            std::env::var("CHLS_JIT").is_ok_and(|v| v == "1" || v.eq_ignore_ascii_case("true"))
        })
    }

    /// The requested job count, if fixed.
    #[allow(clippy::missing_const_for_fn)]
    pub fn jobs_requested(&self) -> Option<usize> {
        self.jobs
    }

    /// The effective job count: the fixed request, else
    /// [`crate::conformance_jobs`].
    pub fn effective_jobs(&self) -> usize {
        self.jobs.unwrap_or_else(crate::conformance_jobs)
    }

    /// Is trace collection requested?
    pub fn trace_enabled(&self) -> bool {
        self.trace
    }

    /// The [`SynthOptions`] these options imply.
    pub fn synth_options(&self) -> SynthOptions {
        SynthOptions {
            pipeline_loops: self.pipeline,
            narrow_widths: self.narrow,
            opt_netlist: self.opt_netlist,
            unroll_factor: self.unroll,
            ..SynthOptions::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chains() {
        let o = CompileOptions::new()
            .pipeline(true)
            .narrow(true)
            .opt_netlist(true)
            .jobs(0)
            .trace(true);
        let s = o.synth_options();
        assert!(s.pipeline_loops && s.narrow_widths && s.opt_netlist);
        assert_eq!(o.jobs_requested(), Some(1), "jobs clamp to >= 1");
        assert!(o.trace_enabled());
    }

    #[test]
    fn cache_key_collides_iff_identical() {
        // Pin jit explicitly so the key ignores the CHLS_JIT env default.
        let base = || {
            CompileOptions::new()
                .backend(Some("c2v"))
                .narrow(true)
                .opt_netlist(false)
                .pipeline(true)
                .unroll(Some(4))
                .jit(false)
        };
        assert_eq!(
            base().cache_key(),
            base().cache_key(),
            "identical sets collide"
        );
        assert_eq!(base().cache_hash(), base().cache_hash());

        // Every artifact-relevant single-field change must change the key.
        let variants = [
            base().backend(Some("handelc")),
            base().backend(None),
            base().narrow(false),
            base().opt_netlist(true),
            base().pipeline(false),
            base().unroll(Some(8)),
            base().unroll(None),
            base().jit(true),
        ];
        let mut keys: Vec<String> = variants.iter().map(CompileOptions::cache_key).collect();
        keys.push(base().cache_key());
        for v in &variants {
            assert_ne!(v.cache_key(), base().cache_key(), "{v:?}");
        }
        keys.sort();
        keys.dedup();
        assert_eq!(
            keys.len(),
            variants.len() + 1,
            "all variants pairwise distinct"
        );

        // jobs and trace shape wall-clock, not artifacts: same key.
        assert_eq!(base().jobs(7).trace(true).cache_key(), base().cache_key());

        // Hash follows structural equality (the derived impl covers all
        // fields, including jobs/trace).
        use std::hash::{Hash, Hasher};
        let digest = |o: &CompileOptions| {
            let mut h = std::collections::hash_map::DefaultHasher::new();
            o.hash(&mut h);
            h.finish()
        };
        assert_eq!(digest(&base()), digest(&base()));
        assert_ne!(digest(&base()), digest(&base().unroll(Some(8))));
    }

    #[test]
    fn defaults_match_synth_defaults() {
        let s = CompileOptions::new().synth_options();
        let d = SynthOptions::default();
        assert_eq!(s.pipeline_loops, d.pipeline_loops);
        assert_eq!(s.narrow_widths, d.narrow_widths);
        assert_eq!(s.opt_netlist, d.opt_netlist);
    }
}
