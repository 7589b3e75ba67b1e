package core

import (
	"context"
	"slices"

	"mclg/internal/design"
)

// EmptySlots takes the arena and the working copy out of their pools' slots
// and drops them, so the next solve takes its storage from the pools'
// sync.Pools alone, which a collection empties.
func EmptySlots() {
	arenas.Get()
	works.Get()
}

// LegalizeRungs runs the cascade restricted to the named rungs, in cascade
// order, so tests can reach the later rungs and a cascade that fails
// outright.
func (r *ResilientLegalizer) LegalizeRungs(d *design.Design, names ...Rung) (*ResilientStats, error) {
	ctx := context.Background()
	var rungs []rung
	for _, rg := range r.rungs(ctx) {
		if slices.Contains(names, rg.name) {
			rungs = append(rungs, rg)
		}
	}
	return r.cascade(ctx, d, rungs)
}
