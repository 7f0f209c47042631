// Fixture: no-shared-mut-in-shards, mapped in turn to every file the
// decide kernel reaches. Three impure sites, then a clean function
// (`'static` is a lifetime, a bare `time` is just a name).

pub fn locked(&self) -> u64 {
    *Mutex::new(1u64).lock().unwrap_or_default()
}

static HITS: AtomicU64 = AtomicU64::new(0);

pub fn timed(&self) -> u64 {
    std::time::Instant::now().elapsed().as_nanos() as u64
}

pub fn pure(&self, time: u64) -> &'static str {
    if time > 0 { "late" } else { "now" }
}
