// Fixture: no-silent-degrade in a core-crate file. The window is 25
// lines in either direction, so the silent site sits far above the
// announced one.

pub fn degrade_silently(&mut self, out: usize) {
    self.outputs[out].set_gl_demoted(true);
}

// -- padding so the loud section below is outside the 25-line window --
// pad 01
// pad 02
// pad 03
// pad 04
// pad 05
// pad 06
// pad 07
// pad 08
// pad 09
// pad 10
// pad 11
// pad 12
// pad 13
// pad 14
// pad 15
// pad 16
// pad 17
// pad 18
// pad 19
// pad 20
// pad 21
// pad 22
// pad 23
// pad 24
// pad 25
// pad 26
// -- end padding --

pub fn degrade_loudly(&mut self, out: usize) {
    self.outputs[out].set_lrg_fallback(true);
    self.trace.push(EventKind::Degraded);
}
