package core

import (
	"context"
	"slices"

	"mclg/internal/design"
)

// EmptySlots empties the arena and working-copy slots, so the next solve
// takes its storage from the pools alone, which a collection empties.
func EmptySlots() {
	arenaSlot.Store(nil)
	workSlot.Store(nil)
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
