package design

// CheckLegalRef exposes the reference checker to the external tests, which
// generate their designs with internal/gen.
var CheckLegalRef = checkLegalRef

// EmptyWorks takes CommitLegal's working copy out of its pool's slot and
// drops it, so the next commit takes its copy from the pool's sync.Pool
// alone, which a collection empties.
func EmptyWorks() { works.Get() }
