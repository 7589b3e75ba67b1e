package design

// CheckLegalRef exposes the reference checker to the external tests, which
// generate their designs with internal/gen.
var CheckLegalRef = checkLegalRef
