// Fixture: invariant-site-coverage (mapped to crates/core/src/switch/kernel.rs).
// The rule looks backward only, so the firing site comes before the
// first sanitize:: call.

pub fn emit_uncovered(&mut self) {
    self.trace.push(EventKind::Grant);
}

pub fn emit_covered(&mut self) {
    sanitize::check_grant(self);
    self.trace.push(EventKind::Inhibit);
}
