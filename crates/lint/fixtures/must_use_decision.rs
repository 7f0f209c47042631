// Fixture: must-use-decision (any non-test file).

#[derive(Debug)]
pub struct StepDecision;

#[derive(Debug)]
#[must_use]
pub(crate) struct FinalGrant;

#[must_use]
fn helper() {}
enum RetryOutcome {
    Again,
}

pub struct Grant;

#[cfg(test)]
mod tests {
    struct ScratchOutcome;
}
