package core

// Handles the external core_test package needs: it drives the pool through
// the services scan cursor, which package core cannot import.

// StarvedBudget returns the speculative-reclaim budget in bytes.
func (bp *BufferPool) StarvedBudget() int64 { return bp.loadStarved.Load() }

var (
	WriteSpilled = writeSpilled
	CoolSet      = coolSet
)
