package core

// EmptySlots empties the arena and working-copy slots, so the next solve
// takes its storage from the pools alone, which a collection empties.
func EmptySlots() {
	arenaSlot.Store(nil)
	workSlot.Store(nil)
}
